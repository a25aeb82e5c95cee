"""The table of exact identities, over every ring, behind `mfal verify`.

Each row of ``checks.IDENTITIES`` is run by ``checks.check_identity``, and
every suite entry built from a row runs that row.  A row must fail, naming
the broken identity, when one side of one identity is off by a nonzero
element of its own ring: a single series term inside the truncation, 1, the
identity matrix or one basis vector.  That also shows each ring's ``==`` is
exact.  The verify reports pinned here are byte-identical to those of the
checks the table replaced.
"""

import hashlib
import json
from functools import partial

import pytest

from mfal import checks
from mfal.cli import main
from mfal.linalg import Matrix
from mfal.poly import add_term
from mfal.qseries import QSeries

ORDER = 24


def _plus_one(side, other):
    """side plus a nonzero element of its own ring, inside the truncation."""
    if isinstance(side, QSeries):
        trunc = min(side.trunc, other.trunc)
        return side + QSeries.qpow(trunc - 1, 1, trunc=side.trunc)
    if isinstance(side, Matrix):
        return side + Matrix.identity(side.size, side[0, 0] * 0 + 1)
    if isinstance(side, dict):  # a bracket vector: add the first basis vector
        out = dict(side)
        add_term(out, 0, next(iter(side.values())) * 0 + 1)
        return out
    return side + 1


@pytest.mark.parametrize("check_id", list(checks.IDENTITIES))
def test_row_fails_on_each_perturbed_side_and_names_it(monkeypatch, check_id):
    detail, sides = checks.IDENTITIES[check_id]
    assert checks.check_identity(check_id, ORDER) == (True, detail.format(order=ORDER))
    exact = list(sides(ORDER))
    assert len({name for name, _, _ in exact}) == len(exact)
    for i, (name, lhs, rhs) in enumerate(exact):
        for side in (0, 1):
            wrong = [lhs, rhs]
            wrong[side] = _plus_one(wrong[side], wrong[1 - side])
            perturbed = exact[:i] + [(name, *wrong)] + exact[i + 1:]
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
