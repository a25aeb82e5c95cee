"""Property tests of QuasiPoly: ring axioms, the Leibniz rule for d_tau,
shift_tau as a ring homomorphism, multiplicativity of to_qseries and that
no operation changes its operands.

hypothesis is a test-only dependency.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mfal.quasimodular import QuasiPoly

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
    ]
    assert len(results) == 14
    assert [json.dumps(p.to_json()) for p in (a, b)] == before
