"""The table of exact q-series identities behind `mfal verify`.

Each row of ``checks.IDENTITIES`` is run by ``checks.check_identity``, and
every suite entry built from a row runs that row.  A row must fail, naming
the broken identity, when one side of one identity is off by a single term
inside its truncation.  The verify reports pinned here are byte-identical to
those of the checks the table replaced.
"""

import hashlib
import json
from functools import partial

import pytest

from mfal import checks
from mfal.cli import main
from mfal.qseries import QSeries

ORDER = 24


@pytest.mark.parametrize("check_id", list(checks.IDENTITIES))
def test_row_fails_on_each_perturbed_side_and_names_it(monkeypatch, check_id):
    detail, sides = checks.IDENTITIES[check_id]
    assert checks.check_identity(check_id, ORDER) == (True, detail.format(order=ORDER))
    exact = sides(ORDER)
    for name, pair in exact.items():
        for side in (0, 1):
            wrong = list(pair)
            trunc = min(pair[0].trunc, pair[1].trunc)
            wrong[side] = pair[side] + QSeries.qpow(trunc - 1, 1, trunc=pair[side].trunc)
            perturbed = {**exact, name: tuple(wrong)}
            monkeypatch.setitem(checks.IDENTITIES, check_id, (detail, lambda order: perturbed))
            assert checks.check_identity(check_id, ORDER) == (False, f"failed: {name}"), side


def test_table_ids_are_the_suite_entries_the_runner_builds():
    entries = [entry for suite in checks.SUITES.values() for entry in suite]
    built = [
        (check_id, fn) for check_id, fn in entries
        if isinstance(fn, partial) and fn.func is checks.check_identity
    ]
    assert {check_id for check_id, _ in built} == set(checks.IDENTITIES)
    assert len(built) == len(checks.IDENTITIES)
    assert all(fn.args == (check_id,) for check_id, fn in built)


@pytest.mark.parametrize("order, digest", [
    (32, "9a4d6d5a394ba7f5a079070631ed0904bfde06d2c8613f5f42ab7c3927a45edd"),
    (64, "01ff3ec4644854896a793eccc459a199f92e3566be750d2d43c83a5c557692e7"),
])
def test_verify_all_json_digest(capsys, order, digest):
    assert main(["verify", "all", "--order", str(order), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        del check["elapsed_ms"]
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == digest
