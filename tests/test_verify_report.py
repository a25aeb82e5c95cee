"""A verify report depends only on the code and the order: every check's
details are the same on a second run, so the JSON report without
``elapsed_ms`` is reproducible."""

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
