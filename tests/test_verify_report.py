"""A verify report depends only on the code and the order: every check's
details are the same on a second run, so the JSON report without
``elapsed_ms`` is reproducible.  Each suite's registry entries are exactly
the checks of its module, and each check module stays small enough to
compile in one step of the parser."""

import importlib
import json
import tokenize
from pathlib import Path

import pytest

from mfal import checks


def test_core_suite_details_repeat():
    first = checks.run_suite("core", 24)
    second = checks.run_suite("core", 24)
    assert [r[:3] for r in first] == [r[:3] for r in second]
    assert all(passed for _, passed, _, _ in first)


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_suite_ids_match_the_benchmark_golden_file(suite):
    # the benchmark checks each verify report against these ids; a renamed or
    # dropped check must fail here too.  The file is only read.
    golden = json.loads(GOLDEN.read_text())["checks"]
    assert set(golden) == set(checks.SUITES)
    assert [check_id for check_id, _ in checks.SUITES[suite]] == golden[suite]


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_each_suite_module_holds_exactly_its_suites_checks(suite):
    # each id of the suite is declared once, as a row or as another check of
    # its own suite's module, and the module declares nothing the suite does
    # not run
    module = importlib.import_module(f"mfal.checks_{suite}")
    ids = [check_id for check_id, _ in checks.SUITES[suite]]
    assert not set(module.IDENTITIES) & set(module.CHECKS)
    assert set(module.IDENTITIES) | set(module.CHECKS) == set(ids)
    assert len(module.IDENTITIES) + len(module.CHECKS) == len(ids)


def test_load_keeps_an_entry_already_there(monkeypatch):
    checks.load("loop")
    monkeypatch.setitem(checks.IDENTITIES, "loop.onsager", ("patched", lambda order: []))
    checks.load("all")
    assert checks.check_identity("loop.onsager", 8) == (True, "patched")


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "mfal").glob("checks*.py")),
                         ids=lambda path: path.name)
def test_check_module_stays_below_the_parser_step(path):
    # CPython's parser keeps a module's tokens in an array that doubles when
    # full; a checks module past 4,096 tokens (comments and blank lines not
    # counted) raised the measured peak RSS of every `mfal verify` process
    # by 0.2-0.3 MB
    with path.open("rb") as fh:
        skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        tokens = sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))
    assert tokens < 4096
