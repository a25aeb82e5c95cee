"""Acceptance criteria, one test per criterion, one printed line each.

Exact identities are checked at order 64; numeric modular-transformation
checks carry the stated tolerances.  Run with `pytest -s` to see the lines.
"""

import time
from fractions import Fraction

import pytest

from mfal import alia, checks, checks_alia, derivations, liealg, loopext, modforms, vvmf
from mfal.alia import JPoly
from mfal.loopext import CycloField, RatFunc
from test_loopext import cocycle_bilinear_identity
from test_vvmf import gamma_residual

checks.load("all")  # the rows of every suite

ORDER = 64


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_j_expansion():
    start = time.perf_counter()
    j = modforms.j_invariant(ORDER).series
    elapsed = time.perf_counter() - start
    ok = (
        j.coefficient(-1) == 1
        and j.coefficient(0) == 744
        and j.coefficient(1) == 196884
        and j.coefficient(2) == 21493760
        and elapsed < 1.0
    )
    report(1, "j-invariant expansion", ok, f"({elapsed*1e3:.0f} ms at order {ORDER})")


def test_criterion_02_dual_route_delta():
    e4, e6 = modforms.series("E4", ORDER), modforms.series("E6", ORDER)
    a = ((e4**3) - (e6**2)).scale(Fraction(1, 1728)).truncate(ORDER)
    b = (modforms.series("eta", ORDER) ** 24).truncate(ORDER)
    report(2, "dual-route discriminant", a.agrees(b), f"(exact to order {ORDER})")


def test_criterion_03_ramanujan_system():
    e2 = modforms.eisenstein(2, ORDER).series
    e4 = modforms.eisenstein(4, ORDER).series
    e6 = modforms.eisenstein(6, ORDER).series
    ok = (
        derivations.serre_derivative(1, e2).agrees(e4.scale(Fraction(-1, 12)))
        and derivations.serre_derivative(4, e4).agrees(e6.scale(Fraction(-1, 3)))
        and derivations.serre_derivative(6, e6).agrees((e4**2).scale(Fraction(-1, 2)))
    )
    report(3, "Ramanujan differential system", ok, f"(exact to order {ORDER})")


def test_criterion_04_sl2_triple():
    ok = checks.check_identity("quasimodular.sl2_bundle", ORDER)[0]
    report(4, "weight-graded sl2 triple and conjugation", ok, "(exact matrix identities)")


def test_criterion_05_phi_equivariance():
    t_ok = checks.check_identity("vvmf.phi_T_exact", ORDER)[0]
    s_ok = checks.check_identity("vvmf.phi_S_numeric", ORDER)[0]
    worst = 0.0
    for n in (1, 2, 3, 4):
        for tau in (1j, 0.3 + 1.1j):
            worst = max(worst, gamma_residual(n, vvmf.S_GAMMA, tau, order=ORDER))
    ok = t_ok and s_ok and worst < 1e-8
    report(5, "Phi_n equivariance", ok,
           f"(T exact n<=4; S exact n<=3; numeric oracle S residual {worst:.1e} < 1e-8)")


def test_criterion_06_two_route_tables():
    orbits = [
        ("A1", "principal"), ("A2", "principal"),
        ("B2", "principal"), ("B2", "subregular"),
        ("G2", "principal"), ("G2", "subregular"),
    ]
    # the scalar identities as monomials in E4, E6, 1/Delta, and on q-series
    from test_alia import GOLDEN, series_oracle

    oracle_ok = checks.check_identity("alia.scalar_oracle", ORDER)[0] and all(
        lhs.agrees(rhs) for lhs, rhs in series_oracle(ORDER).values())
    jacobi_ok = all(alia.alia_table(*key).jacobi_ok() for key in orbits)
    # the golden-figure reproduction is pinned in test_alia; rerun it
    fixtures_ok = True
    for key, (w4_gold, w6_gold) in GOLDEN.items():
        cp = alia.alia_table(*key).cocycles
        seen4 = {frozenset(p) for p, v in cp.w4.items() if v == 1}
        seen6 = {frozenset(p) for p, v in cp.w6.items() if v == 1}
        fixtures_ok = fixtures_ok and seen4 == w4_gold and seen6 == w6_gold
    ok = oracle_ok and jacobi_ok and fixtures_ok
    report(6, "cocycle tables vs their scalar identities", ok,
           "(six orbits: exponents of Delta, E4, E6 and q-series at order "
           f"{ORDER}, Jacobi over Q[j], golden graphs)")


def test_criterion_07_barrel_and_contraction():
    t = alia.alia_table("A1", "principal")
    idx_h = t.index[("H", 0)]
    idx_e = t.index[("A", (1,))]
    idx_f = t.index[("A", (-1,))]
    one = JPoly.const(1)
    barrel = t.bracket({idx_e: one}, {idx_f: one}) == {idx_h: JPoly((0, -1728, 1))}
    contraction = True
    for j_val in (0, 1728):
        spec = checks_alia.SpecializedAlgebra(t, j_val)
        ef = spec.bracket({idx_e: Fraction(1)}, {idx_f: Fraction(1)})
        contraction = contraction and ef == {} and spec.is_solvable(within_steps=3)
    report(7, "[e,f] = j(j-1728) h and solvable contraction", barrel and contraction,
           "(derived series reaches 0 in <= 3 steps)")


def test_criterion_08_onsager():
    relations_and_hef = checks.check_identity("loop.onsager", ORDER)[0]
    dg = checks.check_identity("loop.dolan_grady", ORDER)[0]
    report(8, "Onsager realization, Dolan-Grady, Hauptmodul bracket",
           relations_and_hef and dg, "(indices <= 10, exact over Q[j])")


def test_criterion_09_theta_suite():
    t2 = modforms.theta(2, ORDER).series
    t3 = modforms.theta(3, ORDER).series
    t4 = modforms.theta(4, ORDER).series
    jacobi = (t2**4 + t4**4).agrees(t3**4)
    delta = (t2**8 * t3**8 * t4**8).agrees(modforms.discriminant(ORDER).series.scale(256))
    lam_j = checks.check_identity("theta.lambda_j", ORDER)[0]
    lam_shift = checks.check_identity("theta.lambda_shift", ORDER)[0]
    combos = checks.check_identity("theta.gamma2_combinations", ORDER)[0]
    ok = jacobi and delta and lam_j and lam_shift and combos
    report(9, "theta and Hauptmodul identities", ok, f"(exact to order {ORDER})")


def test_criterion_10_gamma3():
    rel = checks.check_identity("gamma.rel3", ORDER)[0]
    ode = checks.check_identity("gamma.ferapontov_ode", ORDER)[0]
    report(10, "Gamma(3) relations and the integrable ODE", rel and ode,
           f"(exact to order {ORDER})")


def test_criterion_11_hilbert():
    counts_ok = True
    for n in range(5):
        coeffs = vvmf.hilbert_vvmf(n, "Gamma(1)").coefficients(40)
        for k in range(-n, 41):
            if coeffs.get(k, 0) != vvmf.brute_force_vvmf_dim(n, k):
                counts_ok = False
    h2 = vvmf.hilbert_vvmf(2, "Gamma(1)")
    series_ok = [h2.coefficient(k) for k in range(-2, 13)] == [
        1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0, 4, 0, 4,
    ]
    report(11, "Hilbert series vs brute-force counts", counts_ok and series_ok,
           "(n <= 4, k <= 40)")


def test_criterion_12_loop_cocycles():
    field = CycloField(1)
    monomials_ok = True
    for t in ("A1", "A2"):
        st = liealg.chevalley(t)
        alpha = st.rs.positive[0]
        neg = tuple(-a for a in alpha)
        x = {st.index[("A", alpha)]: Fraction(1)}
        y = {st.index[("A", neg)]: Fraction(1)}
        k_val = st.killing_form(x, y)
        for m in range(-6, 7):
            for n in range(-6, 7):
                val = loopext.loop_cocycle(
                    st, x, RatFunc.t_power(field, m), y, RatFunc.t_power(field, n),
                    field.zero,
                )
                expect = field.rational(m * k_val) if m + n == 0 else field.zero
                monomials_ok = monomials_ok and val == expect

    import random

    rng = random.Random(97)
    st = liealg.chevalley("A1")
    basis = [
        {st.index[("A", (1,))]: Fraction(1)},
        {st.index[("A", (-1,))]: Fraction(1)},
        {st.index[("H", 0)]: Fraction(1)},
    ]
    polyhedral_ok = True
    for preset in ("dihedral", "tetrahedral", "octahedral", "icosahedral"):
        pfield, points = loopext.pole_preset(preset)
        funcs = []
        for a in points[:3]:
            funcs.append(RatFunc.pole_factor(pfield, a, 1))
            funcs.append(RatFunc.pole_factor(pfield, a, 2) * RatFunc.polynomial(pfield, [1, 1]))
        funcs.append(RatFunc.polynomial(pfield, [0, 1]))
        samples = [
            tuple((rng.choice(basis), rng.choice(funcs)) for _ in range(3))
            for _ in range(100)
        ]
        point = points[0] if not points[0].is_zero() else points[1]
        polyhedral_ok = polyhedral_ok and cocycle_bilinear_identity(
            st, samples, point
        )
    report(12, "loop cocycle normalization and 2-cocycle identity",
           monomials_ok and polyhedral_ok,
           "(|m|,|n| <= 6 on A1/A2; 100 triples per polyhedral set)")


def test_criterion_13_delta_derivation():
    pref = derivations.delta_derivation_prefactor(ORDER)
    head_ok = [pref.coefficient(n) for n in range(5)] == [
        1, -240, -141444, -8529280, -238758390,
    ]
    j = modforms.j_invariant(ORDER + 2).series
    reld_ok = derivations.delta_derivation(j).agrees(-(j * (j - 1728)))
    report(13, "cusp-normalized derivation", head_ok and reld_ok,
           "(prefactor head and action on j)")


def test_criterion_14_verify_all_under_budget():
    start = time.perf_counter()
    results = checks.run_suite("all", order=ORDER)
    elapsed = time.perf_counter() - start
    ok = all(passed for _, passed, _, _ in results) and elapsed < 60.0
    failures = [cid for cid, passed, _, _ in results if not passed]
    report(14, "full verification suite", ok,
           f"({len(results)} checks in {elapsed:.1f} s < 60 s; failures: {failures or 'none'})")
