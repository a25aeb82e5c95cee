"""A verify report depends only on the code and the order: every check's
details are the same on a second run, so the JSON report without
``elapsed_ms`` is reproducible."""

from mfal import checks


def test_core_suite_details_repeat():
    first = checks.run_suite("core", 24)
    second = checks.run_suite("core", 24)
    assert [r[:3] for r in first] == [r[:3] for r in second]
    assert all(passed for _, passed, _, _ in first)
