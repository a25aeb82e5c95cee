import cmath
import random
from fractions import Fraction

import pytest

from mfal import checks, congruence, derivations, modforms as mf, numeric
from mfal.modforms import OddWeight, UnknownForm, Unsupported
from mfal.qseries import QSeries

checks.load("all")  # the rows of every suite

ORDER = 40


def test_bernoulli_values():
    assert mf.bernoulli(0) == 1
    assert mf.bernoulli(4) == Fraction(-1, 30)
    assert mf.bernoulli(6) == Fraction(1, 42)
    # the Eisenstein normalizations these produce
    assert Fraction(-8) / mf.bernoulli(4) == 240
    assert Fraction(-12) / mf.bernoulli(6) == -504


def test_eisenstein_heads():
    e2 = mf.eisenstein(2, ORDER).series
    assert [e2.coefficient(n) for n in range(6)] == [1, -24, -72, -96, -168, -144]
    assert mf.eisenstein(4, ORDER).series.coefficient(1) == 240
    assert mf.eisenstein(6, ORDER).series.coefficient(1) == -504


def test_eisenstein_product_convolution_oracle():
    # frozen from a direct convolution of the defining divisor sums
    prod = mf.eisenstein(4, ORDER).series * mf.eisenstein(6, ORDER).series
    assert [prod.coefficient(n) for n in range(5)] == [
        1, -264, -135432, -5196576, -69341448,
    ]


def test_discriminant_routes_agree():
    e4, e6 = mf.series("E4", ORDER), mf.series("E6", ORDER)
    a = ((e4**3) - (e6**2)).scale(Fraction(1, 1728)).truncate(ORDER)
    b = (mf.series("eta", ORDER) ** 24).truncate(ORDER)
    assert a.agrees(b)
    # frozen from the pentagonal-number convolution oracle
    assert [a.coefficient(n) for n in range(1, 8)] == [
        1, -24, 252, -1472, 4830, -6048, -16744,
    ]


def test_j_invariant_head():
    j = mf.j_invariant(ORDER).series
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760


def test_j_minus_1728():
    j = mf.j_invariant(ORDER).series
    jm = mf.j_minus_1728(ORDER).series
    assert (j - jm).agrees(QSeries.constant(1728, trunc=ORDER))
    assert (j * jm).valuation == -2


def test_delta_definition_constant():
    e4 = mf.eisenstein(4, ORDER).series
    e6 = mf.eisenstein(6, ORDER).series
    delta = mf.discriminant(ORDER).series
    assert ((e4**3 - e6**2) / delta).agrees(QSeries.constant(1728, trunc=ORDER - 2))


def test_theta_expansions():
    t2 = mf.theta(2, ORDER).series
    assert t2.coefficient(Fraction(1, 8)) == 2
    assert t2.coefficient(Fraction(9, 8)) == 2
    assert t2.coefficient(Fraction(25, 8)) == 2
    t3 = mf.theta(3, ORDER).series
    assert t3.coefficient(0) == 1 and t3.coefficient(Fraction(1, 2)) == 2
    t4 = mf.theta(4, ORDER).series
    assert t4.coefficient(Fraction(1, 2)) == -2


def test_jacobi_identity():
    assert checks.check_identity("theta.jacobi_identity", ORDER)[0]


def test_theta2_shift_sign():
    t2_4 = mf.theta(2, ORDER).series ** 4
    assert t2_4.shift_tau().agrees(-t2_4)


def test_theta2_fourth_power_leading():
    # 2 q^{1/4} in the exp(pi i tau) nome, raised to the 4th: 16 q^{1/2} here
    t2_4 = mf.theta(2, ORDER).series ** 4
    assert t2_4.valuation == Fraction(1, 2)
    assert t2_4.coefficient(Fraction(1, 2)) == 16


def test_eta_and_quotients():
    eta = mf.dedekind_eta(ORDER).series
    assert eta.valuation == Fraction(1, 24)
    assert (eta**24).agrees(mf.discriminant(ORDER).series)
    q1 = mf.eta_quotient([(3, 3), (1, -1)], ORDER)
    assert q1.valuation == Fraction(1, 3)
    q2 = mf.eta_quotient([(4, 4), (2, -2)], ORDER)
    assert q2.valuation == Fraction(1, 2)
    assert eta.rescale_tau(5).valuation == Fraction(5, 24)


def test_klein_form_exponents():
    k = congruence.klein_form(Fraction(1, 5), 5, 24).series
    assert k.valuation == Fraction(-2, 5)
    assert k.terms[min(k.terms)] == 1
    assert (k**5).valuation == -2


def test_klein_form_deep_coefficients():
    # frozen from a raw dict-product oracle of the defining Pochhammers
    k = congruence.klein_form(Fraction(1, 5), 5, 12).series
    expected = [(0, 1), (1, -1), (4, -1), (5, 3), (6, -3), (7, 1),
                (9, -3), (10, 9), (11, -9), (12, 3)]
    for offset, c in expected:
        assert k.coefficient(Fraction(-2, 5) + offset) == c


def test_klein_half_equals_eta_quotient():
    # k_{1/2,0}(2 tau) = eta(tau)^2 eta(2 tau)^-4: independent route through
    # the pentagonal-number product instead of the two-factor Pochhammers
    k = congruence.klein_form(Fraction(1, 2), 2, 20).series
    quotient = mf.eta_quotient([(1, 2), (2, -4)], 20)
    assert k.agrees(quotient)


def test_gamma5_form():
    f = congruence.gamma5_form_f(24)
    assert f.weight == 1  # 15/2 - 3/2 - 5
    assert f.series.valuation == 1
    assert f.series.terms[min(f.series.terms)] == 1


def layout(series):
    """Everything a series is: equal layouts are equal series, truncation too."""
    return series.denom, series.val, series.step, series.nums, series.den, series.trunc


def pentagonal(order):
    """prod (1 - q^n) below `order` by the pentagonal loop: the exponents
    k(3k -+ 1)/2 with sign (-1)^k, k = 1, 2, ..."""
    terms, k = [(0, 1)], 1
    while k * (3 * k - 1) // 2 < order:
        terms += [(k * (3 * k - 1) // 2, (-1) ** k), (k * (3 * k + 1) // 2, (-1) ** k)]
        k += 1
    return QSeries.from_terms(terms, trunc=order)


def pochhammer(a, s, deep):
    """(q^a; q^s) below `deep`, one factor (1 - q^e) at a time."""
    out, e = QSeries.constant(1, trunc=deep), a
    while e < deep:
        out = out * QSeries.from_terms([(0, 1), (e, -1)], trunc=deep)
        e += s
    return out


def klein_by_factors(r1, s, order):
    """q^lead (q^a; q^s)(q^(s-a); q^s) / (q^s; q^s)^2 with a = r1 s and
    lead = s r1 (r1 - 1)/2, from the products of factors."""
    lead = s * r1 * (r1 - 1) / 2
    deep = order - lead
    unit = pochhammer(r1 * s, s, deep) * pochhammer(s - r1 * s, s, deep)
    return (unit * pochhammer(s, s, deep) ** -2).shift_exponents(lead).truncate(order)


def gamma5_by_eta(order):
    """eta(5 tau)^15 k^5 eta^-3 with eta by the pentagonal loop and k by factors."""
    deep = mf.depth(order, (Fraction(1, 24), 15, 5), (Fraction(-2, 5), 5),
                    (Fraction(1, 24), -3))
    eta = pentagonal(deep - Fraction(1, 24)).shift_exponents(Fraction(1, 24))
    k5 = klein_by_factors(Fraction(1, 5), 5, deep)
    return (eta.rescale_tau(5) ** 15 * k5**5 * eta**-3).truncate(order)


@pytest.mark.parametrize("order", [1, 12, 32, 64])
@pytest.mark.parametrize("r1, s", [(Fraction(1, 5), 5), (Fraction(2, 5), 5),
                                   (Fraction(1, 3), 1), (Fraction(1, 2), 2)])
def test_klein_form_is_the_factor_by_factor_product(r1, s, order):
    assert layout(congruence.klein_form(r1, s, order).series) == layout(klein_by_factors(r1, s, order))


@pytest.mark.parametrize("order", [1, 2, 5, Fraction(7, 2), 24, 65])
def test_triple_product_at_1_3_is_the_pentagonal_loop(order):
    assert layout(mf.triple_product(1, 3, order)) == layout(pentagonal(order))


@pytest.mark.parametrize("order", [*range(1, 9), 32, 64])
def test_gamma5_form_is_the_eta_and_klein_product(order):
    assert layout(congruence.gamma5_form_f(order).series) == layout(gamma5_by_eta(order))


def test_gamma2_generators():
    f2, h2 = congruence.gamma2_generators(ORDER)
    assert [f2.series.coefficient(n) for n in range(3)] == [1, 24, 24]
    assert [h2.series.coefficient(Fraction(n, 2)) for n in range(5)] == [1, 24, 24, 96, 24]
    # the table row's F2/H2 combinations for theta2^4, theta3^4, theta4^4
    sides = checks.IDENTITIES["theta.gamma2_combinations"][1](ORDER)
    t2, t3, t4 = (combination for _, combination, _ in sides)
    assert (t2 + t4).agrees(t3)
    assert checks.check_identity("theta.gamma2_combinations", ORDER)[0]


def test_lambda_invariant():
    lam = mf.lambda_invariant(ORDER).series
    # frozen from the direct theta lattice-sum division oracle
    expected = [(Fraction(1, 2), 16), (1, -128), (Fraction(3, 2), 704), (2, -3072),
                (Fraction(5, 2), 11488), (3, -38400)]
    for e, c in expected:
        assert lam.coefficient(e) == c
    assert checks.check_identity("theta.lambda_j", 24)[0]
    assert checks.check_identity("theta.lambda_shift", 24)[0]


def test_mu_hauptmodul():
    mu = congruence.mu_gamma4(24).series
    assert mu.coefficient(0) == 1
    assert mu.denom in (1, 2, 4)
    assert checks.check_identity("theta.delta_product", 24)[0]


def test_gamma3_generators():
    phi1, phi2 = congruence.gamma3_generators(24)
    # phi1 against the divisor-count oracle 6(d_1(n) - d_2(n)) mod 3 classes
    def hex_count(n):
        if n == 0:
            return 1
        d1 = sum(1 for d in range(1, n + 1) if n % d == 0 and d % 3 == 1)
        d2 = sum(1 for d in range(1, n + 1) if n % d == 0 and d % 3 == 2)
        return 6 * (d1 - d2)

    for n in range(16):
        assert phi1.series.coefficient(n) == hex_count(n)
    assert phi2.series.coefficient(Fraction(1, 3)) == 3
    assert checks.check_identity("gamma.rel3", 24)[0]


def test_ferapontov():
    assert checks.check_identity("gamma.ferapontov_ode", 32) == (
        True, "fourth-order ODE for phi1, all five terms active")
    first, *rest = terms = congruence.ferapontov_ode_terms(24)
    assert all(terms) and sum(rest, first).is_zero()
    with pytest.raises(ValueError, match="^order too small to distinguish the ODE terms$"):
        checks.check_identity("gamma.ferapontov_ode", 19)


def test_ferapontov_row_builds_its_terms_once(monkeypatch):
    calls, terms = [], congruence.ferapontov_ode_terms
    monkeypatch.setattr(congruence, "ferapontov_ode_terms",
                        lambda order: calls.append(order) or terms(order))
    assert checks.check_identity("gamma.ferapontov_ode", 32)[0]
    assert calls == [32]


@pytest.mark.parametrize("zeroed", range(5))
def test_ferapontov_row_names_a_vanishing_term(monkeypatch, zeroed):
    terms = congruence.ferapontov_ode_terms

    def one_zero(order):
        out = terms(order)
        out[zeroed] = out[zeroed].scale(0)
        return out

    monkeypatch.setattr(congruence, "ferapontov_ode_terms", one_zero)
    assert checks.check_identity("gamma.ferapontov_ode", 32) == (
        False, f"failed: the five ODE terms sum to 0; ODE term {zeroed} is nonzero")


def test_ferapontov_constant_is_trivial_solution():
    g = QSeries.constant(5, trunc=24)
    g1 = g.q_derive()
    g2 = g1.q_derive()
    g3 = g2.q_derive()
    g4 = g3.q_derive()
    expr = (
        g4 * (g**2 * g2 - (g * g1**2).scale(2))
        - (g1**2 * g2**2).scale(9)
        + (g * g1 * g2 * g3).scale(2)
        + (g1**3 * g3).scale(8)
        - g**2 * g3**2
    )
    assert expr.is_zero()


def test_duke_jenkins():
    assert mf.duke_jenkins(0, 16)[:3] == (0, 0, 0)
    ell, n4, n6, series = mf.duke_jenkins(2, 16)
    assert (ell, n4, n6) == (-1, 2, 1)
    ell, n4, n6, series = mf.duke_jenkins(-2, 16)
    assert (ell, n4, n6) == (-1, 1, 1)
    expected = {0: (0, 0), 2: (2, 1), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1)}
    for k in range(-24, 26, 2):
        _, n4, n6, _ = mf.duke_jenkins(k, 12)
        assert (n4, n6) == expected[k % 12]
    with pytest.raises(OddWeight):
        mf.duke_jenkins(3)


def test_serre_derivative_and_ramanujan():
    zero = QSeries.zero(trunc=ORDER)
    assert derivations.serre_derivative(7, zero).is_zero()
    assert checks.check_identity("modforms.ramanujan", ORDER)[0]
    # D_12 Delta = 0: the logarithmic derivative of the product is E2
    delta = mf.discriminant(ORDER).series
    assert derivations.serre_derivative(12, delta).is_zero()


def test_eisenstein_power_identities():
    assert checks.check_identity("modforms.eisenstein_powers", ORDER)[0]


def test_delta_derivation():
    pref = derivations.delta_derivation_prefactor(24)
    assert [pref.coefficient(n) for n in range(5)] == [
        1, -240, -141444, -8529280, -238758390,
    ]
    j = mf.j_invariant(26).series
    assert derivations.delta_derivation(j).agrees(-(j * (j - 1728)))
    assert derivations.delta_derivation(QSeries.constant(3, trunc=24)).is_zero()


def test_delta_derivation_leibniz_sampled():
    rng = random.Random(11)
    for _ in range(4):
        a = QSeries.from_terms(
            [(rng.randint(0, 8), rng.randint(-5, 5) or 1) for _ in range(4)], trunc=24
        )
        b = QSeries.from_terms(
            [(rng.randint(0, 8), rng.randint(-5, 5) or 2) for _ in range(4)], trunc=24
        )
        lhs = derivations.delta_derivation(a * b)
        rhs = derivations.delta_derivation(a) * b + a * derivations.delta_derivation(b)
        assert lhs.agrees(rhs, min_span=8)


def test_numeric_modularity():
    value = numeric.eval_numeric
    for tau in (1j, 0.3 + 1.1j):
        for k in (4, 6):
            f = mf.eisenstein(k, 64).series
            assert abs(value(f, -1 / tau) - tau**k * value(f, tau)) < 1e-8
        e2 = mf.eisenstein(2, 64).series
        anomaly = 12 * tau / (2j * cmath.pi)
        assert abs(value(e2, -1 / tau) - (tau**2 * value(e2, tau) + anomaly)) < 1e-8


def test_s_law_residual():
    for tau in (1j, 0.3 + 1.1j):
        for name in ("E2", "E4", "E6", "Delta", "j"):
            assert numeric.s_law_residual(mf.named_form(name, 64), tau) < 1e-6, name
    # without E2's anomaly the law misses by |12 tau / (2 pi i)|
    e2 = mf.named_form("E2", 64)
    plain = mf.NamedForm("E2 without its name", 2, "Gamma(1)", e2.series)
    assert abs(numeric.s_law_residual(plain, 1j) - 6 / cmath.pi) < 1e-8
    for name in ("theta2", "eta", "lambda"):
        with pytest.raises(Unsupported, match="no S law"):
            numeric.s_law_residual(mf.named_form(name, 24), 1j)


def test_theta_transformation_laws_numeric():
    for tau in (1j, 0.3 + 1.1j):
        assert numeric.theta_transformation_residual(tau, 48) < 1e-8


def test_hauptmodul_moebius_actions_numeric():
    lam = mf.lambda_invariant(48).series
    j = mf.j_invariant(48).series
    value = numeric.eval_numeric
    for tau in (1j, 0.3 + 1.1j):
        # S acts on lambda by 1 - lambda and fixes j
        assert abs(value(lam, -1 / tau) - (1 - value(lam, tau))) < 1e-8
        assert abs(value(j, -1 / tau) - value(j, tau)) < 1e-6


def test_delta_at_i_is_positive_real():
    delta = mf.discriminant(64).series
    val = numeric.eval_numeric(delta, 1j)
    assert abs(val.imag) < 1e-12
    assert abs(val.real - 0.001785369850642) < 1e-12


def test_registry():
    form = mf.named_form("E4", 24)
    assert form.weight == 4
    assert mf.named_form("E4", 24) is form  # cached
    fk = mf.named_form("F_k:-2", 16)
    assert fk.series.valuation == -1
    with pytest.raises(UnknownForm):
        mf.named_form("nosuch", 24)


def test_registry_concurrent_readers():
    from concurrent.futures import ThreadPoolExecutor

    names = ["E4", "E6", "Delta", "j", "lambda", "theta2", "phi1", "eta"] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        forms = list(pool.map(lambda n: mf.named_form(n, 20), names))
    # same name always resolves to an identical expansion
    by_name = {}
    for name, form in zip(names, forms):
        if name in by_name:
            assert by_name[name].series.terms == form.series.terms
        else:
            by_name[name] = form
    assert by_name["j"].series.coefficient(1) == 196884
