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
from fractions import Fraction

import pytest

from mfal import alia, checks, checks_loop, liealg, loopext, modforms, quasimodular, sl2, vvmf
from mfal.cli import main
from mfal.linalg import Matrix
from mfal.poly import add_term
from mfal.qseries import QSeries

checks.load("all")  # the rows of every suite

ORDER = 24


def _plus_one(side, other):
    """side plus a nonzero element of its own ring, inside the truncation."""
    if isinstance(side, QSeries):
        trunc = min(side.trunc, other.trunc)
        return side + QSeries.from_terms([(trunc - 1, 1)], trunc=side.trunc)
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


def test_table_ids_are_the_suite_entries_the_runner_builds():
    entries = [entry for suite in checks.SUITES.values() for entry in suite]
    assert all(fn.func is checks.check_identity and fn.args == (check_id,)
               for check_id, fn in entries)
    ids = {check_id for check_id, _ in entries}
    assert len(ids) == len(entries) == 50
    assert set(checks.IDENTITIES) == ids
    assert not hasattr(checks, "CHECKS") and not hasattr(checks, "run")


@pytest.mark.parametrize("order, digest", [
    (32, "ab99cb1602a75089bc246a47a892107a8716a90033d1ec859516caec7eef43f3"),
    (64, "89105d8390d814645010480cedde18ddf45357f71ff33c07cdc171544689f4ca"),
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


#: the two lemmas of ``gamma.klein_forms`` that tie its sums to Euler's product
JACOBI = "Jacobi: eta_cube(1) = triple_product(1, 3)^3"
PRODUCT = "triple_product(1, 5) triple_product(2, 5) = E(q) E(q^5)"


def test_klein_forms_fails_on_a_wrong_eta_cube_term(monkeypatch):
    """eta_cube with +3 q^s in place of -3 q^s (m = 1): the exponents and
    leading coefficients of the Klein form and f_gamma5 stay right, and
    Jacobi's identity names the term."""
    eta_cube = modforms.eta_cube

    def plus_three(s, order):
        return eta_cube(s, order) + QSeries.from_terms([(s, 6)], trunc=order)

    monkeypatch.setattr(modforms, "_STORE", {})
    monkeypatch.setattr(modforms, "eta_cube", plus_three)
    assert _failed("gamma.klein_forms") == [JACOBI]


def test_eta_and_klein_rows_fail_on_an_unsigned_triple_product(monkeypatch):
    """triple_product with +1 in place of (-1)^n on its terms n < 0: eta^24
    is no longer Delta, and both lemmas of the Klein row fail."""

    def unsigned_below_zero(a, s, order):
        bound = int(order) + 2  # a n + s n(n - 1)/2 >= order once |n| > order
        return QSeries.from_terms(
            [(a * n + Fraction(s * n * (n - 1), 2), (-1) ** n if n >= 0 else 1)
             for n in range(-bound, bound)], trunc=order)

    monkeypatch.setattr(modforms, "_STORE", {})
    monkeypatch.setattr(modforms, "triple_product", unsigned_below_zero)
    assert _failed("modforms.delta_dual_route") == ["Delta by E4, E6 = eta^24"]
    assert _failed("gamma.klein_forms") == [JACOBI, PRODUCT]


#: the closed-form lemma of ``loop.cocycle_properties``
CLOSED_FORM = "omega(h u_1, h u_3) = K(h, h) res(-1/((t - 1)^2 t^2)) = 16 at a_1"


def test_cocycle_rows_fail_when_the_cocycle_drops_the_derivative(monkeypatch):
    """omega read as K(x, y) res(f g), not K(x, y) res(f' g): each cocycle
    row names the lemmas that go through ``loop_cocycle``."""

    def without_derivative(structure, x, f, y, g, point):
        return loopext.residue_of_product(f, g, point) * structure.killing_form(x, y)

    monkeypatch.setattr(loopext, "loop_cocycle", without_derivative)
    assert _failed("loop.cocycle_monomials") == [
        f"omega({x} z^{m}, {y} z^{-m}) = {m} K({x}, {y}) in {t}"
        for t in ("A1", "A2") for x, y in ("ef", "hh") for m in (1, -1)]
    # K(h, h) res(u_1 u_3) = 8 at 1 in place of 16, and 2 K(h, h) res(u_i u_j)
    # in place of 0, for u = 1/t, t/(t - 1), t + 2, 1/t^2: u_0 u_1 = 1/(t - 1),
    # u_0 u_2 = 1 + 2/t, u_1 u_1 has residue 2 at 1, u_1 u_2 residue 3 at 1,
    # u_1 u_3 = 1/(t (t - 1)), u_2 u_3 = 1/t + 2/t^2
    assert _failed("loop.cocycle_properties") == [CLOSED_FORM] + [
        f"omega(h u_{i}, h u_{j}) + omega(h u_{j}, h u_{i}) = 0 at a_{k}"
        for i, j, k in ((0, 1, 1), (0, 2, 0), (1, 1, 1), (1, 2, 1), (1, 3, 0), (1, 3, 1),
                        (2, 3, 0))]
    # res_b(1/(t - a) (t - a)) = 0: the matrix of the puncture cocycles is zero
    assert _failed("loop.polyhedral_cocycles") == [
        f"{preset}: the puncture cocycles have rank M - 1 = {size}"
        for preset, size in (("dihedral", 2), ("tetrahedral", 3), ("octahedral", 5),
                             ("icosahedral", 11))]


@pytest.mark.parametrize("shared", [False, True], ids=["shortcut", "shared"])
def test_cocycle_properties_fails_when_e_flips_sign(monkeypatch, shared):
    """``_taylor_at`` expands each other pole b with (u - e)^-k in place of
    (u + e)^-k, e = a - b: in ``residue_of_product`` alone (the product f' g
    keeps the right expansion), or shared by both routes.  (u - e)^-k =
    (t - (2a - b))^-k, so the flipped expansion is the right one of f with
    each other pole b moved to 2a - b."""
    taylor_at, shortcut = loopext._taylor_at, loopext.residue_of_product

    def flipped(f, key, a, count):
        parts = {}
        for k, (b, cs) in f.parts.items():
            if k != key:
                b = a + a - b
            parts[b.key] = (b, cs)
        return taylor_at(loopext.RatFunc(f.field, f.poly, parts), key, a, count)

    def flipped_shortcut(f, g, point):
        with monkeypatch.context() as m:
            m.setattr(loopext, "_taylor_at", flipped)
            return shortcut(f, g, point)

    if shared:
        monkeypatch.setattr(loopext, "_taylor_at", flipped)
    else:
        monkeypatch.setattr(loopext, "residue_of_product", flipped_shortcut)
    # (u - e)^-k and (u + e)^-k differ in their u^m terms with k + m odd, and
    # of the row's pairs only u_1 = t/(t - 1) with u_3 = 1/t^2 reads one; the
    # antisymmetry lemmas hold, since the moved functions are rational too.
    # Shared, the two routes agree, and only the closed form sees the flip
    two_routes = [f"R(u_{i}, u_{j}) = res(u_{i}' u_{j}) at a_{k}"
                  for i, j in ((1, 3), (3, 1)) for k in (0, 1)]
    assert _failed("loop.cocycle_properties") == [CLOSED_FORM] + ([] if shared else two_routes)


def test_cocycle_properties_fails_on_an_asymmetric_killing_form(monkeypatch):
    st = liealg.chevalley("A1")
    e, f = st.index[("A", (1,))], st.index[("A", (-1,))]
    km = [list(row) for row in st.killing()]
    km[e][f] += 1
    monkeypatch.setattr(st, "_killing", km)
    assert _failed("loop.cocycle_properties") == ["K = K^T in A1"]


def test_cocycle_properties_fails_when_k_h_h_vanishes(monkeypatch):
    """With K(h, h) = 0 every omega(h u_i, h u_j) is 0 and the antisymmetry
    lemmas hold whatever R_a is; the closed form does not."""
    st = liealg.chevalley("A1")
    h = st.index[("H", 0)]
    km = [list(row) for row in st.killing()]
    km[h][h] = 0
    monkeypatch.setattr(st, "_killing", km)
    assert _failed("loop.cocycle_properties") == [CLOSED_FORM]


def test_evaluation_rep_fails_when_a_pole_is_evaluated(monkeypatch):
    evaluate = loopext.RatFunc.evaluate

    def at_a_pole_zero(f, point):
        try:
            return evaluate(f, point)
        except loopext.PoleAtEvaluationPoint:
            return f.field.zero

    monkeypatch.setattr(loopext.RatFunc, "evaluate", at_a_pole_zero)
    assert _failed("loop.evaluation_rep") == ["evaluation at a pole raises PoleAtEvaluationPoint"]


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
    unipotents = sl2.unipotents

    def with_corner(n, s, t):
        factors = unipotents(n, s, t)
        i, j = corner(n)
        if i != j:  # Sym^0 has no off-diagonal entry
            for rows in factors:
                rows[i][j] = rows[i][j] + 1
        return factors

    # Phi_n is built once per process: the broken one is built fresh here
    # and does not outlive this test
    monkeypatch.setattr(vvmf, "_PHI_CACHE", {})
    monkeypatch.setattr(sl2, "unipotents", with_corner)
    assert _failed("vvmf.phi_det") == [name.format(n=n) for n in range(1, 11)]


@pytest.mark.parametrize("broken", ["11 tau s", "rho_n(T)"])
def test_phi_s_names_each_n_on_a_broken_s_law(monkeypatch, broken):
    """E2(-1/tau) = tau^2 E2 + 11 tau s in the substitution, or rho_n(T) in
    place of rho_n(S): the law fails for every n and the row names each."""
    if broken == "11 tau s":
        monkeypatch.setattr(quasimodular, "_E2_S_ANOMALY", 11)
    else:
        monkeypatch.setattr(vvmf, "S_GAMMA", vvmf.T_GAMMA)
    assert _failed("vvmf.phi_S_numeric") == [
        f"tau^({2 * n} - k_j) Phi_{n}(-1/tau) = tau^{2 * n} rho_{n}(S) Phi_{n}(tau)"
        for n in (1, 2, 3)]


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


@pytest.mark.parametrize("generator, column, failed", [
    ("onsager_A", 1, ["[A_k, A_m] = G_{k-m}"]),
    ("onsager_G", 0, ["[G_m, A_k] = 2 A_{k+m} - 2 A_{k-m}", "[A_k, A_m] = G_{k-m}"]),
])
def test_onsager_names_the_lemmas_a_shifted_exponent_breaks(monkeypatch, generator, column,
                                                            failed):
    """The first row's entry in `column` of every A_k, or of every G_m,
    times z: its exponents shifted by 1."""
    build = getattr(loopext, generator)

    def shifted(k):
        mat = build(k)
        mat.rows[0][column] = mat.rows[0][column] * loopext.Laurent({1: 1})
        return mat

    monkeypatch.setattr(loopext, generator, shifted)
    assert _failed("loop.onsager") == failed


def test_onsager_lemmas_stay_on_the_nine_kronecker_exponents():
    """The premise of the proof of ``loop.onsager``: the generators in k
    carry only the exponents +-K, those in m only +-M, and every exponent on
    either side of the three lemmas is one of the nine distinct a K + b M,
    a, b in {-1, 0, 1}, where equality at (K, M) is equality in Q[Z^2]."""
    k, m = checks_loop._K, checks_loop._M
    nine = {a * k + b * m for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert len(nine) == 9

    def exponents(*matrices):
        return {e for mat in matrices for row in mat.rows for entry in row for e in entry.terms}

    for index in (k, m):
        assert exponents(loopext.onsager_A(index), loopext.onsager_G(index)) == {index, -index}
    _, sides = checks.IDENTITIES["loop.onsager"]
    lemmas = list(sides(ORDER))[:3]
    assert [name for name, _, _ in lemmas] == [
        "[G_k, G_m] = 0", "[G_m, A_k] = 2 A_{k+m} - 2 A_{k-m}", "[A_k, A_m] = G_{k-m}"]
    assert exponents(*(side for _, lhs, rhs in lemmas for side in (lhs, rhs))) <= nine


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
                     "vvmf.phi_det", "vvmf.phi_S_numeric", "loop.cocycle_properties",
                     "loop.cocycle_monomials",
                     "alia.jacobi_tables", "alia.cocycle_condition", "alia.scalar_oracle",
                     "loop.onsager"):
        passed, detail = entries[check_id](ORDER)
        assert passed, (check_id, detail)
