"""The table of exact identities, over every ring, behind `mfal verify`.

Each row of ``checks.IDENTITIES`` is run by ``checks.check_identity``, and
every suite entry built from a row runs that row.  A row must fail, naming
the broken identity, when one side of one identity is off by a nonzero
element of its own ring: a single series term inside the truncation, 1, the
identity matrix or one basis vector.  That also shows each ring's ``==`` is
exact.  A row that proves a statement from finite lemmas must also fail,
naming a lemma, on a broken copy of the code its proof rests on, and reach
no sampler, no determinant and no brute-force Jacobi check.  The verify
reports are pinned by digest.
"""

import hashlib
import json
import random

import pytest

from mfal import alia, checks, liealg, loopext, vvmf
from mfal.cli import main
from mfal.linalg import Matrix
from mfal.poly import add_term
from mfal.qseries import QSeries

checks.load("all")  # the rows and checks of every suite

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
        # an empty vector (a Jacobiator) gets the integer 1
        add_term(out, 0, next(iter(side.values()), 0) * 0 + 1)
        return out
    return side + 1


@pytest.mark.parametrize("check_id", list(checks.IDENTITIES))
def test_row_fails_on_each_perturbed_side_and_names_it(monkeypatch, check_id):
    """Each perturbed identity fails alone, as a row of one; one perturbed
    identity inside the whole row is named among the passing ones."""
    detail, sides = checks.IDENTITIES[check_id]
    assert checks.check_identity(check_id, ORDER) == (True, detail.format(order=ORDER))
    exact = list(sides(ORDER))
    assert len({name for name, _, _ in exact}) == len(exact)
    row = []
    monkeypatch.setitem(checks.IDENTITIES, check_id, (detail, lambda order: row))
    for name, lhs, rhs in exact:
        for side in (0, 1):
            wrong = [lhs, rhs]
            wrong[side] = _plus_one(wrong[side], wrong[1 - side])
            row[:] = [(name, *wrong)]
            assert checks.check_identity(check_id, ORDER) == (False, f"failed: {name}"), side
    i = len(exact) // 2
    name, lhs, rhs = exact[i]
    row[:] = exact[:i] + [(name, _plus_one(lhs, rhs), rhs)] + exact[i + 1:]
    assert checks.check_identity(check_id, ORDER) == (False, f"failed: {name}")


#: the checks outside the table: four compare floats within a tolerance,
#: `delta_derivation` compares below a row's span, `ferapontov_ode` tests that
#: no ODE term vanishes, `specialization` reports the exponents it computes
#: and `evaluation_rep` asserts a raised error
NOT_ROWS = {
    "qseries.eval_product", "modforms.numeric_s_equivariance", "vvmf.phi_S_numeric",
    "theta.transformation_laws", "modforms.delta_derivation", "gamma.ferapontov_ode",
    "alia.specialization", "loop.evaluation_rep",
}


def test_table_ids_are_the_suite_entries_the_runner_builds():
    entries = [entry for suite in checks.SUITES.values() for entry in suite]
    assert all(fn.func is checks.run and fn.args == (check_id,) for check_id, fn in entries)
    ids = {check_id for check_id, _ in entries}
    assert len(ids) == len(entries) == 50
    assert not set(checks.IDENTITIES) & set(checks.CHECKS)
    assert set(checks.IDENTITIES) | set(checks.CHECKS) == ids
    assert set(checks.CHECKS) == NOT_ROWS
    assert len(checks.IDENTITIES) == 42


@pytest.mark.parametrize("order, digest", [
    (32, "52248efc2a93c09f0fe3d1c1ae93b60a5ace89398e298fcdf1ff012e2eb66f09"),
    (64, "98540164a5d6466adb946f62fa15ad01197fa032269a841129026a484180327e"),
], ids=["32", "64"])
def test_verify_all_json_digest(capsys, order, digest):
    assert main(["verify", "all", "--order", str(order), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        del check["elapsed_ms"]
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == digest


def test_weight_zero_iso_row_names():
    _, sides = checks.IDENTITIES["gamma.weight_zero_iso"]
    assert [name for name, _, _ in sides(ORDER)] == [
        f"{group} {form} {claim}"
        for group, form, valuation in (
            ("Gamma(2)", "theta3^4", 0), ("Gamma(3)", "eta(3t)^3/eta(t)", "1/3"),
            ("Gamma(4)", "eta(4t)^4/eta(2t)^2", "1/2"),
            ("Gamma(5)", "eta(5t)^15 klein(1/5;5t)^5/eta(t)^3", 1))
        for claim in (f"has valuation {valuation}", "has leading coefficient 1", "f^-1 = 1")
    ]


def _failed(check_id):
    passed, detail = checks.check_identity(check_id, ORDER)
    assert not passed
    return detail.removeprefix("failed: ").split("; ")


def test_polyhedral_cocycles_fails_when_a_derivative_keeps_a_residue(monkeypatch):
    derivative = loopext.RatFunc.derivative

    def keeps_residue(f):
        # f' plus the 1/(t - a) term of f at each pole a
        kept = {key: (a, cs[:1]) for key, (a, cs) in f.parts.items()}
        return derivative(f) + loopext.RatFunc(f.field, [], kept)

    monkeypatch.setattr(loopext.RatFunc, "derivative", keeps_residue)
    assert _failed("loop.polyhedral_cocycles") == [
        f"{preset}: res at a_{i} of ((t - a_{i})^-1)' = 0"
        for preset, size in (("dihedral", 2), ("tetrahedral", 3), ("octahedral", 5),
                             ("icosahedral", 11))
        for i in range(size)
    ]


def test_leibniz_names_each_sample_when_q_derive_drops_its_last_term(monkeypatch):
    q_derive = QSeries.q_derive

    def drops_last(series):
        d = q_derive(series)
        return QSeries.from_terms(list(d.items())[:-1], trunc=d.trunc)

    monkeypatch.setattr(QSeries, "q_derive", drops_last)
    assert _failed("qseries.leibniz") == [
        f"sample {i}: (ab)' = a' b + a b' for ' = q d/dq" for i in range(6)]


def test_hilbert_names_the_pair_where_the_monomial_count_is_off(monkeypatch):
    count = vvmf.brute_force_vvmf_dim
    monkeypatch.setattr(vvmf, "brute_force_vvmf_dim",
                        lambda n, k: count(n, k) + ((n, k) == (2, 10)))
    assert _failed("vvmf.hilbert") == ["n=2, k=10"]


@pytest.mark.parametrize("i, j", [(0, 0), (0, 5)])
def test_killing_associativity_fails_on_a_changed_entry(monkeypatch, i, j):
    """A changed diagonal entry keeps K symmetric and breaks invariance; an
    off-diagonal one breaks symmetry first."""
    st = liealg.chevalley("B2")
    km = [list(row) for row in st.killing()]
    km[i][j] += 1
    monkeypatch.setattr(st, "_killing", km)
    failed = _failed("liealg.killing_associativity")
    if i == j:
        assert failed and all(
            name.startswith("ad(x_") and name.endswith(") = 0 in B2") for name in failed)
    else:
        assert failed[0] == "K = K^T in B2"


@pytest.mark.parametrize("corner, name", [
    (lambda n: (n, 0), "exp(tau E) is upper unitriangular on Sym^{n}"),
    (lambda n: (0, n), "exp(y F) is lower unitriangular on Sym^{n}"),
])
def test_phi_det_fails_on_an_entry_across_the_diagonal(monkeypatch, corner, name):
    exp_nilpotent = liealg.exp_nilpotent

    def with_corner(matrix, scalar):
        out = exp_nilpotent(matrix, scalar)
        i, j = corner(matrix.size - 1)
        if i != j:  # Sym^0 has no off-diagonal entry
            out.rows[i][j] = out.rows[i][j] + 1
        return out

    # Phi_n is built once per process: the broken one is built fresh here
    # and does not outlive this test
    monkeypatch.setattr(vvmf, "_PHI_CACHE", {})
    monkeypatch.setattr(liealg, "exp_nilpotent", with_corner)
    assert _failed("vvmf.phi_det") == [name.format(n=n) for n in range(1, 11)]


def test_gauge_rows_name_the_entry_and_pair_of_a_raised_w4(monkeypatch):
    """[x_5, x_6] = [a_(0,1), a_(1,0)] of the A2 table, rebuilt with w4 + 1."""
    build, key, pair = alia.alia_table, ("A2", "principal"), ((0, 1), (1, 0))

    def raised(*args):
        fresh = args not in alia._TABLE_CACHE  # raise w4 once, not on each call
        table = build(*args)
        if args == key and fresh:
            table.cocycles.w4[pair] += 1
            table._table = table._build()
        return table

    # the edited tables are built fresh and do not outlive this test
    monkeypatch.setattr(alia, "_TABLE_CACHE", {})
    monkeypatch.setattr(alia, "alia_table", raised)
    assert _failed("alia.jacobi_tables") == [f"{key} [x_5, x_6] at x_7"]
    assert _failed("alia.cocycle_condition") == [f"{key} 3 w4({pair[0]}, {pair[1]}) = delta n4"]


def test_jacobi_rows_name_triples_on_a_negated_carter_constant(monkeypatch):
    """[a_(0,1), a_(1,0)] = N a_(1,1) in B2, with N negated in the cached
    Chevalley table that the B2 tables over Q[j] are built from."""
    st = liealg.chevalley("B2")
    monkeypatch.setitem(st._table, (6, 7), {8: -st._table[6, 7][8]})
    # the B2 tables over Q[j] are built fresh from it and do not outlive this test
    monkeypatch.setattr(alia, "_TABLE_CACHE", {})
    failed = _failed("liealg.jacobi")
    assert failed and all(
        name.startswith("Jacobi on x_") and name.endswith(" in B2") for name in failed)
    assert _failed("alia.jacobi_tables") == failed


def test_cocycle_values_names_a_pair_with_w6_2(monkeypatch):
    build, key, (a, b) = alia.alia_table, ("B2", "subregular"), ((-1, -1), (0, 1))

    def edited(*args):
        table = build(*args)
        if args == key:
            table.cocycles.w6[a, b] = 2
        return table

    # the edited tables are built fresh and do not outlive this test
    monkeypatch.setattr(alia, "_TABLE_CACHE", {})
    monkeypatch.setattr(alia, "alia_table", edited)
    assert sorted(_failed("alia.cocycle_values")) == sorted([
        f"{key} w6({a}, {b}) = w6({b}, {a})", f"{key} w6({a}, {b}) in {{0, 1}}",
        f"{key} w6({b}, {a}) = w6({a}, {b})"])


def test_proofs_reach_no_sampler_and_no_determinant(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(random.Random, "__init__", unreachable)
    monkeypatch.setattr(Matrix, "charpoly", unreachable)
    # the brute-force Jacobi routes and the bracket over Q[j]
    monkeypatch.setattr(liealg.BracketTable, "jacobi_ok", unreachable)
    monkeypatch.setattr(alia.AliaTable, "jacobi_ok", unreachable)
    monkeypatch.setattr(alia.AliaTable, "bracket", unreachable)
    entries = dict(entry for suite in checks.SUITES.values() for entry in suite)
    for check_id in ("liealg.killing_associativity", "loop.polyhedral_cocycles",
                     "vvmf.phi_det", "loop.cocycle_properties", "alia.jacobi_tables",
                     "alia.cocycle_condition"):
        passed, detail = entries[check_id](ORDER)
        assert passed, (check_id, detail)
