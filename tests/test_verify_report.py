"""A verify report depends only on the code and the order: every check's
details are the same on a second run, so the JSON report without
``elapsed_ms`` is reproducible.  Each suite's registry entries are exactly
the checks of its module."""

import importlib
import json
from pathlib import Path

import pytest

from mfal import checks


def test_core_suite_details_repeat():
    first = checks.run_suite("core", 24)
    second = checks.run_suite("core", 24)
    assert [r[:3] for r in first] == [r[:3] for r in second]
    assert all(passed for _, passed, _, _ in first)


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_suite_ids_match_the_benchmark_golden_file(suite):
    # the benchmark checks each verify report against these ids; a renamed or
    # dropped check must fail here too.  The file is only read.
    golden = json.loads(GOLDEN.read_text())["checks"]
    assert set(golden) == set(checks.SUITES)
    assert [check_id for check_id, _ in checks.SUITES[suite]] == golden[suite]


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_each_suite_module_holds_exactly_its_suites_checks(suite):
    # every registry entry reaches a check of its own suite's module, and the
    # module defines no check the registry does not run
    module = importlib.import_module(f"mfal.checks_{suite}")
    rows = {cid for cid, fn in checks.SUITES[suite] if fn.func is checks.check_identity}
    others = {cid for cid, fn in checks.SUITES[suite] if fn.func is checks.run_check}
    assert set(module.IDENTITIES) == rows
    assert set(module.CHECKS) == others
    assert len(rows) + len(others) == len(checks.SUITES[suite])


def test_load_keeps_an_entry_already_there(monkeypatch):
    checks.load("loop")
    monkeypatch.setitem(checks.IDENTITIES, "loop.onsager", ("patched", lambda order: []))
    checks.load("all")
    assert checks.check_identity("loop.onsager", 8) == (True, "patched")
