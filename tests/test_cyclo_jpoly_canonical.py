"""Property tests of the canonical CycloNumber and JPoly layouts against a
Fraction oracle.

Both rings are ``sparse.Sparse``: int numerators ``nums`` over one ``den``.
Every operation must return the one canonical layout of its value: ``den >
0`` and no factor common to ``den`` and all of ``nums``.  A CycloNumber's
``nums`` is a dict from each power of zeta below the field's degree to its
nonzero numerator; a JPoly's is a dict from each power of j (an int >= 0) to
its nonzero numerator.  So two values are equal exactly when their ``(nums,
den)`` are.
The oracles are plain tuples of Fractions and the arithmetic on them,
written out here.  hypothesis is a test-only dependency.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfal.jpoly import JPoly
from mfal.loopext import CycloField

examples = settings(max_examples=120, deadline=None)

coeffs = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 6, 7, 12)))
scalars = st.one_of(
    st.just(0), st.just(-1), st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)
FIELDS = (1, 3, 4, 5)
#: the n-th cyclotomic polynomial, lowest degree first
MODULUS = {1: (-1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1)}


# ----------------------------------------------------------------------
# CycloNumber
# ----------------------------------------------------------------------

def oracle_reduce(cs, n):
    """cs modulo the monic n-th cyclotomic polynomial, padded to its degree."""
    mod = MODULUS[n]
    deg = len(mod) - 1
    cs = [Fraction(c) for c in cs]
    for top in range(len(cs) - 1, deg - 1, -1):
        c, cs[top] = cs[top], Fraction(0)
        for i in range(deg):
            cs[top - deg + i] -= c * mod[i]
    return tuple(cs[:deg] + [Fraction(0)] * (deg - len(cs)))


def oracle_cyclo_mul(a, b, n):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return oracle_reduce(out, n)


def numbers(n):
    """Raw coordinates of any length; the field reduces them."""
    return st.lists(coeffs, max_size=2 * len(MODULUS[n]))


def assert_cyclo_canonical(x, field):
    assert type(x) is field and x.field is field
    assert isinstance(x.den, int) and x.den > 0
    assert isinstance(x.nums, dict)
    assert all(isinstance(k, int) and 0 <= k < field.degree for k in x.nums)
    assert all(isinstance(c, int) and c for c in x.nums.values())
    assert gcd(x.den, *x.nums.values()) == 1
    rebuilt = field.element(x.coeffs)
    assert (rebuilt.nums, rebuilt.den) == (x.nums, x.den)


@pytest.mark.parametrize("n", FIELDS)
@examples
@given(data=st.data())
def test_cyclo_elements_are_canonical_and_read_back(n, data):
    field = CycloField(n)
    cs = data.draw(numbers(n))
    x = field.element(cs)
    assert_cyclo_canonical(x, field)
    assert x.coeffs == oracle_reduce(cs, n)


@pytest.mark.parametrize("n", FIELDS)
@examples
@given(data=st.data())
def test_cyclo_sums_and_products_match_the_oracle(n, data):
    field = CycloField(n)
    a, b = oracle_reduce(data.draw(numbers(n)), n), oracle_reduce(data.draw(numbers(n)), n)
    x, y = field.element(a), field.element(b)
    for result, expected in (
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (x * y, oracle_cyclo_mul(a, b, n)),
    ):
        assert_cyclo_canonical(result, field)
        assert result.coeffs == expected


@pytest.mark.parametrize("n", FIELDS)
@examples
@given(data=st.data(), c=scalars)
def test_cyclo_scaling_matches_the_oracle(n, data, c):
    field = CycloField(n)
    a = oracle_reduce(data.draw(numbers(n)), n)
    x = field.element(a)
    for result in (x * c, c * x):
        assert_cyclo_canonical(result, field)
        assert result.coeffs == tuple(p * c for p in a)
    assert_cyclo_canonical(x + c, field)
    assert (x + c).coeffs == (a[0] + c, *a[1:])


@pytest.mark.parametrize("n", FIELDS)
@examples
@given(data=st.data())
def test_cyclo_inverse_matches_the_oracle(n, data):
    field = CycloField(n)
    a = oracle_reduce(data.draw(numbers(n)), n)
    assume(any(a))
    inv = field.element(a).inverse()
    assert_cyclo_canonical(inv, field)
    one = (Fraction(1),) + (Fraction(0),) * (field.degree - 1)
    assert oracle_cyclo_mul(a, inv.coeffs, n) == one


@pytest.mark.parametrize("n", FIELDS)
@examples
@given(data=st.data())
def test_cyclo_equal_values_have_equal_layouts(n, data):
    field = CycloField(n)
    x, y = (field.element(data.draw(numbers(n))) for _ in range(2))
    for u, v in ((x + y - y, x), (x * y, y * x), ((x - x) * y, field.zero),
                 (x * 3 * Fraction(1, 3), x)):
        assert u == v
        assert (u.nums, u.den) == (v.nums, v.den)
    assert (x == y) == (x.coeffs == y.coeffs) == ((x.nums, x.den) == (y.nums, y.den))


def test_cyclo_layout_by_hand():
    f4 = CycloField(4)
    # 1/2 + i/3: numerators 3 and 2 over the lcm 6
    x = f4.element([Fraction(1, 2), Fraction(1, 3)])
    assert (x.nums, x.den) == ({0: 3, 1: 2}, 6)
    # (1/2) i^2 = -1/2 reduces to a rational
    half = f4.element([0, 0, Fraction(1, 2)])
    assert (half.nums, half.den) == ({0: -1}, 2)
    # times 6 the denominator cancels; times -2/3 it stays positive
    assert ((x * 6).nums, (x * 6).den) == ({0: 3, 1: 2}, 1)
    assert ((x * Fraction(-2, 3)).nums, (x * Fraction(-2, 3)).den) == ({0: -3, 1: -2}, 9)
    # zero has no numerator and denominator 1, however it was reached
    assert ((x - x).nums, (x - x).den) == ({}, 1)
    # (1 + i)^-1 = (1 - i)/2
    inv = f4.element([1, 1]).inverse()
    assert (inv.nums, inv.den) == ({0: 1, 1: -1}, 2)
    # the pole key of loopext.RatFunc: equal numbers have equal keys,
    # however their numerators are ordered
    y = f4.zeta * Fraction(1, 3) + Fraction(1, 2)
    assert list(y.nums) == [1, 0] and y == x
    assert y.key == x.key == (frozenset({(0, 3), (1, 2)}), 6)


# ----------------------------------------------------------------------
# JPoly
# ----------------------------------------------------------------------

def oracle_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def oracle_jpoly_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return oracle_trim(Fraction(p + q) for p, q in zip(a, b))


def oracle_jpoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return oracle_trim(out)


jpoly_coeffs = st.lists(coeffs, max_size=5)


def assert_jpoly_canonical(p):
    assert type(p) is JPoly
    assert isinstance(p.den, int) and p.den > 0
    assert isinstance(p.nums, dict)
    assert all(isinstance(k, int) and k >= 0 for k in p.nums)
    assert all(isinstance(c, int) and c for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    rebuilt = JPoly(p.coeffs)
    assert (rebuilt.nums, rebuilt.den) == (p.nums, p.den)


@examples
@given(jpoly_coeffs)
def test_jpolys_are_canonical_and_read_back(cs):
    p = JPoly(cs)
    assert_jpoly_canonical(p)
    assert p.coeffs == oracle_trim(cs)


@examples
@given(jpoly_coeffs, jpoly_coeffs)
def test_jpoly_sums_and_products_match_the_oracle(a, b):
    x, y = JPoly(a), JPoly(b)
    for result, expected in (
        (x + y, oracle_jpoly_add(a, b)),
        (x - y, oracle_jpoly_add(a, [-c for c in b])),
        (x * y, oracle_jpoly_mul(a, b)),
    ):
        assert_jpoly_canonical(result)
        assert result.coeffs == expected


@examples
@given(jpoly_coeffs, scalars)
def test_jpoly_scaling_and_constants_match_the_oracle(a, c):
    x = JPoly(a)
    for result in (x * c, c * x):
        assert_jpoly_canonical(result)
        assert result.coeffs == oracle_trim(p * c for p in a)
    assert_jpoly_canonical(x + c)
    assert (x + c).coeffs == oracle_jpoly_add(a, [c])


@examples
@given(jpoly_coeffs, st.one_of(st.integers(-2000, 2000), coeffs))
def test_jpoly_value_matches_the_oracle(a, v):
    assert JPoly(a)(v) == sum((c * Fraction(v) ** i for i, c in enumerate(a)), Fraction(0))


@examples
@given(jpoly_coeffs, jpoly_coeffs)
def test_jpoly_equal_values_have_equal_layouts(a, b):
    x, y = JPoly(a), JPoly(b)
    for u, v in ((x + y - y, x), (x * y, y * x), ((x - x) * y, JPoly()),
                 (x * 3 * Fraction(1, 3), x)):
        assert u == v
        assert (u.nums, u.den) == (v.nums, v.den)
    assert (x == y) == (oracle_trim(a) == oracle_trim(b)) == (
        (x.nums, x.den) == (y.nums, y.den))


def test_jpoly_layout_by_hand():
    # 1/2 + j/3: numerators 3 and 2 over the lcm 6
    p = JPoly((Fraction(1, 2), Fraction(1, 3)))
    assert (p.nums, p.den) == ({0: 3, 1: 2}, 6)
    assert ((p * 6).nums, (p * 6).den) == ({0: 3, 1: 2}, 1)
    q = p * Fraction(-2, 3)
    assert (q.nums, q.den) == ({0: -3, 1: -2}, 9)
    # a sum that cancels the top and the denominator
    r = p + JPoly((Fraction(1, 2), Fraction(-1, 3)))
    assert (r.nums, r.den) == ({0: 1}, 1)
    assert ((p - p).nums, (p - p).den) == ({}, 1)
    # j (j - 1728), by the binomial theorem: no entry for the zero constant
    w = JPoly.j_power_form(1, 1)
    assert (w.nums, w.den) == ({1: -1728, 2: 1}, 1)
    assert JPoly.j_power_form(2, 3) == JPoly((0, 1)) ** 2 * JPoly((-1728, 1)) ** 3
