"""Property tests of QuasiPoly: ring axioms, the Leibniz rule for d_tau,
shift_tau and the S substitution as ring homomorphisms, the S substitution
as an involution, multiplicativity of to_qseries and that no operation
changes its operands.

hypothesis is a test-only dependency.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfal.quasimodular import TAU, QuasiPoly

examples = settings(max_examples=60, deadline=None)

coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def quasipolys(draw, tau_free=False):
    """Sums of monomials tau^t E2^p E4^q E6^r s^m with small exponents."""
    small = st.integers(0, 2)
    fixed = st.just(0)
    exps = st.tuples(
        fixed if tau_free else small, small, small, small,
        fixed if tau_free else st.integers(-2, 2),
    )
    out = QuasiPoly()
    for e, c in draw(st.lists(st.tuples(exps, coeffs), max_size=5)):
        out = out + QuasiPoly.monomial(e, c)
    return out


@examples
@given(quasipolys(), quasipolys(), quasipolys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * 1 == a and a + 0 == a
    assert a * QuasiPoly.const(1) == a


@examples
@given(quasipolys(), quasipolys())
def test_d_tau_leibniz(a, b):
    assert (a * b).d_tau() == a.d_tau() * b + a * b.d_tau()
    assert (a + b).d_tau() == a.d_tau() + b.d_tau()


@examples
@given(quasipolys(), quasipolys())
def test_shift_tau_is_a_ring_homomorphism(a, b):
    assert (a + b).shift_tau() == a.shift_tau() + b.shift_tau()
    assert (a * b).shift_tau() == a.shift_tau() * b.shift_tau()
    assert QuasiPoly.const(1).shift_tau() == 1


def tau_degree(a):
    """The highest power of tau in a, 0 for a constant."""
    return max((k[0] for k in a.terms), default=0)


def test_apply_S_on_the_generators():
    # tau -> -1/tau, P -> tau^2 P + 12 tau s, Q -> tau^4 Q, R -> tau^6 R, s -> s
    P, Q, R, S = (QuasiPoly.var(name) for name in "PQRs")
    assert TAU.apply_S(1) == -1
    assert P.apply_S(0) == TAU * TAU * P + TAU * S * 12
    assert Q.apply_S(0) == TAU**4 * Q and R.apply_S(0) == TAU**6 * R
    assert S.apply_S(2) == TAU * TAU * S
    with pytest.raises(ValueError):
        TAU.apply_S(0)


@examples
@given(quasipolys(), quasipolys(), st.integers(0, 2))
def test_apply_S_is_additive(a, b, extra):
    m = max(tau_degree(a), tau_degree(b)) + extra
    assert (a + b).apply_S(m) == a.apply_S(m) + b.apply_S(m)


@examples
@given(quasipolys(), quasipolys(), st.integers(0, 2), st.integers(0, 2))
def test_apply_S_is_multiplicative(a, b, i, j):
    m, n = tau_degree(a) + i, tau_degree(b) + j
    assert (a * b).apply_S(m + n) == a.apply_S(m) * b.apply_S(n)


@examples
@given(quasipolys(), st.integers(0, 2), st.integers(0, 2))
def test_apply_S_is_an_involution(a, extra, cleared):
    """sigma(tau^m sigma(a)) = (-1)^m tau^-m a, times tau^(m + cleared); the
    terms of tau^m sigma(a) with a low power of tau meet negative powers
    that cancel in the sum."""
    m = tau_degree(a) + extra
    assert a.apply_S(m).apply_S(m + cleared) == a * TAU**cleared * (-1) ** m


@settings(max_examples=25, deadline=None)
@given(quasipolys(tau_free=True), quasipolys(tau_free=True))
def test_to_qseries_multiplicative(a, b):
    order = 8
    lhs = (a * b).to_qseries(order)
    rhs = a.to_qseries(order) * b.to_qseries(order)
    assert lhs.agrees(rhs, min_span=0)


@examples
@given(quasipolys(), quasipolys(), st.integers(0, 3), st.integers(-2, 4))
def test_operations_leave_operands_unchanged(a, b, n, k):
    before = [json.dumps(p.to_json()) for p in (a, b)]
    results = [
        a + b, a - b, -a, a * b, a + 1, 1 - a, 2 * a, a * Fraction(1, 3),
        a.scale(3), a**n, a.d_tau(), a.serre_D(k), a.shift_tau(), a == b,
        a.apply_S(tau_degree(a)),
    ]
    assert len(results) == 15
    assert [json.dumps(p.to_json()) for p in (a, b)] == before
