"""A verify report depends only on the code and the order: every check's
details are the same on a second run, so the JSON report without
``elapsed_ms`` is reproducible.  Each suite's registry entries are exactly
the checks of its module, and each module stays small enough to compile in
one step of the parser."""

import importlib
import json
import tokenize
from pathlib import Path

import pytest

from mfal import checks
from mfal.cli import main


def test_core_suite_details_repeat():
    first = checks.run_suite("core", 24)
    second = checks.run_suite("core", 24)
    assert [r[:3] for r in first] == [r[:3] for r in second]
    assert all(passed for _, passed, _, _ in first)


def _short(low, high):
    return f"TruncationError: shared range [{low}, {high}) spans less than 16"


#: order -> (id, detail) of every check that does not pass at that order: a
#: range too short to compare and an ODE too shallow to tell its terms apart,
#: none of them a counterexample
LOW_ORDER_NON_PASSES = {
    8: [
        ("modforms.delta_dual_route", _short(0, 8)),
        ("modforms.ramanujan", _short(0, 8)),
        ("modforms.eisenstein_powers", _short(0, 8)),
        ("modforms.delta_derivation", _short(-2, 8)),
        ("quasimodular.series_consistency", _short(0, 8)),
        ("theta.jacobi_identity", _short(0, 8)),
        ("theta.delta_product", _short(0, 8)),
        ("theta.gamma2_combinations", _short(0, 8)),
        ("theta.lambda_j", _short(0, "15/2")),
        ("theta.lambda_shift", _short(0, 8)),
        ("gamma.rel3", _short(0, 8)),
        ("gamma.ferapontov_ode", "ValueError: order too small to distinguish the ODE terms"),
    ],
    16: [
        ("theta.lambda_j", _short(0, "31/2")),
        ("gamma.ferapontov_ode", "ValueError: order too small to distinguish the ODE terms"),
    ],
}


@pytest.mark.parametrize("order", list(LOW_ORDER_NON_PASSES))
def test_low_order_verdicts(capsys, order):
    assert main(["verify", "all", "--order", str(order), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(report["checks"]) == 50
    assert [(check["id"], check["detail"]) for check in report["checks"]
            if check["status"] != "pass"] == LOW_ORDER_NON_PASSES[order]
    assert {check["status"] for check in report["checks"]} == {"pass", "fail"}


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
    # each id of the suite is declared once, as a row of its own suite's
    # module, and the module declares no row the suite does not run and no
    # check outside its table
    module = importlib.import_module(f"mfal.checks_{suite}")
    ids = [check_id for check_id, _ in checks.SUITES[suite]]
    assert sorted(module.IDENTITIES) == sorted(ids)
    assert not hasattr(module, "CHECKS")


def test_load_keeps_an_entry_already_there(monkeypatch):
    checks.load("loop")
    monkeypatch.setitem(checks.IDENTITIES, "loop.onsager", ("patched", lambda order: []))
    checks.load("all")
    assert checks.check_identity("loop.onsager", 8) == (True, "patched")


GUARDED = sorted((ROOT / "src" / "mfal").glob("*.py"))


def parser_tokens(path) -> int:
    """The tokens of a source file that CPython's parser holds: comments and
    blank lines not counted."""
    with open(path, "rb") as fh:
        skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        return sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))


@pytest.mark.parametrize("path", GUARDED, ids=lambda path: path.name)
def test_check_module_stays_below_the_parser_step(path):
    # CPython's parser keeps a module's tokens in an array that doubles when
    # full; a checks module past 4,096 tokens (comments and blank lines not
    # counted) raised the measured peak RSS of every `mfal verify` process
    # by 0.2-0.3 MB.  Every module of the package is held to the same step
    assert parser_tokens(path) < 4096
