"""Property tests of the packed QuasiPoly exponents and of ``Sparse.dot``.

A QuasiPoly key is the one int s * 2^64 + t * 2^48 + p * 2^32 + q * 2^16 + r
with 0 <= t, p, q, r < 2^15, so a product adds keys and no field carries
into the next; a product whose tau, P, Q or R exponent would reach 2^15
raises ``OverflowError``.  ``Sparse.dot`` sums products with one canonical
step and must equal the sum of the products taken one at a time, in every
ring built on it, each cyclotomic field included, where it also reduces the
sum modulo the cyclotomic polynomial.  hypothesis is a test-only dependency.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfal.jpoly import JPoly
from mfal.loopext import CycloField, Laurent
from mfal.quasimodular import TAU, QuasiPoly, pack, unpack

examples = settings(max_examples=150, deadline=None)

LIMIT = 2**15
low = st.integers(0, LIMIT - 1)
exponents = st.tuples(low, low, low, low, st.integers(-(2**40), 2**40))
coeffs = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 5, 12)))
small = st.tuples(*[st.integers(0, 3)] * 4, st.integers(-3, 3))
quasis = st.dictionaries(small, coeffs, max_size=4).map(QuasiPoly)
laurents = st.dictionaries(st.integers(-4, 4), coeffs, max_size=4).map(Laurent)
jpolys = st.lists(coeffs, max_size=4).map(JPoly)
#: every ring on Sparse, with its elements
RINGS = [(QuasiPoly, quasis), (Laurent, laurents), (JPoly, jpolys)] + [
    (field, st.lists(coeffs, max_size=field.degree).map(field.element))
    for field in map(CycloField, (1, 3, 4, 5))]
#: a factor may be a scalar, which dot reads as a constant
scalars = st.integers(-3, 3) | coeffs


@examples
@given(exponents)
def test_pack_and_unpack_round_trip(e):
    key = pack(*e)
    assert unpack(key) == e
    assert QuasiPoly.monomial(e, 3).terms == {e: 3}


@examples
@given(exponents, exponents)
def test_a_product_adds_exponents_or_refuses_to_carry(a, b):
    total = tuple(x + y for x, y in zip(a, b))
    x, y = QuasiPoly.monomial(a), QuasiPoly.monomial(b)
    if max(total[:4]) >= LIMIT:
        with pytest.raises(OverflowError):
            x * y
        with pytest.raises(OverflowError):
            QuasiPoly.dot([(x, y)])
    else:
        assert (x * y).terms == {total: 1}
        assert QuasiPoly.dot([(x, y)]).terms == {total: 1}


@pytest.mark.parametrize("field", range(4))
def test_exponents_stop_below_two_to_the_fifteen(field):
    unit = tuple(int(i == field) for i in range(5))
    top = tuple((LIMIT - 2) * u for u in unit)
    almost = QuasiPoly.monomial(top) * QuasiPoly.monomial(unit)
    assert almost.terms == {tuple((LIMIT - 1) * u for u in unit): 1}
    with pytest.raises(OverflowError):
        almost * QuasiPoly.monomial(unit)
    with pytest.raises(OverflowError):
        QuasiPoly.monomial(tuple(LIMIT * u for u in unit))
    with pytest.raises(ValueError):
        QuasiPoly.monomial(tuple(-u for u in unit))


def test_tau_power_at_the_limit():
    assert (QuasiPoly.monomial((LIMIT - 2, 0, 0, 0, 0)) * TAU).terms == {(LIMIT - 1, 0, 0, 0, 0): 1}
    with pytest.raises(OverflowError):
        QuasiPoly.monomial((LIMIT - 1, 0, 0, 0, 0)) * TAU
    # D(R) = (PR - Q^2)/2 raises the Q exponent by two
    with pytest.raises(OverflowError):
        QuasiPoly.monomial((0, 0, LIMIT - 2, 1, 0)).d_tau()


def _fold(pairs):
    acc = None
    for x, y in pairs:
        acc = x * y if acc is None else acc + x * y
    return acc


@examples
@given(st.data(), st.sampled_from(RINGS))
def test_dot_equals_the_sum_of_its_products(data, ring):
    cls, elements = ring
    factors = elements | scalars
    pairs = data.draw(st.lists(st.tuples(factors, factors).filter(
        lambda p: isinstance(p[0], cls) or isinstance(p[1], cls)), min_size=1, max_size=6))
    got, expected = cls.dot(pairs), _fold(pairs)
    assert type(got) is cls
    assert got == expected
    assert (got.nums, got.den) == (expected.nums, expected.den)
    assert got.den > 0 and all(got.nums.values())


def test_dot_of_nothing_is_zero():
    for cls, _ in RINGS:
        # no pair, or only pairs with a zero factor, which set no denominator
        for pairs in ([], [(cls.const(Fraction(1, 3)), 0), (cls(), cls.const(2))]):
            zero = cls.dot(pairs)
            assert (zero.nums, zero.den) == ({}, 1)
