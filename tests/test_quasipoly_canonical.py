"""Property tests of the canonical QuasiPoly layout against a Fraction oracle.

A QuasiPoly stores int numerators ``nums`` ({packed exponent: int}) over
one ``den``; the key of tau^t P^p Q^q R^r s^m is s * 2^64 + t * 2^48 +
p * 2^32 + q * 2^16 + r.  Every operation must return the one canonical layout of its
value: no zero numerator, ``den > 0`` and no factor common to ``den`` and
all of ``nums``, so equal values have equal ``(nums, den)``.  The oracle
is the plain {exponent: Fraction} dict, written out here.  hypothesis is a
test-only dependency.
"""

from fractions import Fraction
from math import comb, gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from mfal.quasimodular import QuasiPoly, pack, unpack

examples = settings(max_examples=120, deadline=None)

coeffs = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 7, 12, 24)))
scalars = st.one_of(
    st.just(0), st.just(-1), st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)
exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2),
)
#: {exponent: Fraction}, zeros included: the constructor must drop them
fraction_dicts = st.dictionaries(exponents, coeffs, max_size=6)


def oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def oracle_mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def oracle_d_tau(a: dict) -> dict:
    # D(tau) = s, D(P) = (P^2 - Q)/12, D(Q) = (PQ - R)/3, D(R) = (PR - Q^2)/2
    images = {
        0: {(0, 0, 0, 0, 1): Fraction(1)},
        1: {(0, 2, 0, 0, 0): Fraction(1, 12), (0, 0, 1, 0, 0): Fraction(-1, 12)},
        2: {(0, 1, 1, 0, 0): Fraction(1, 3), (0, 0, 0, 1, 0): Fraction(-1, 3)},
        3: {(0, 1, 0, 1, 0): Fraction(1, 2), (0, 0, 2, 0, 0): Fraction(-1, 2)},
    }
    out = {}
    for key, c in a.items():
        for idx, image in images.items():
            if key[idx]:
                lowered = list(key)
                lowered[idx] -= 1
                out = oracle_add(out, oracle_mul({tuple(lowered): c * key[idx]}, image))
    return out


def oracle_shift_tau(a: dict) -> dict:
    out = {}
    for (t, p, q, r, m), c in a.items():
        out = oracle_add(out, {(i, p, q, r, m): c * comb(t, i) for i in range(t + 1)})
    return out


def nonzero(d: dict) -> dict:
    return {k: Fraction(c) for k, c in d.items() if c}


def assert_canonical(p: QuasiPoly):
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(c, int) and c for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    # every key is one int that reads back as five exponents, only s negative
    assert all(type(k) is int and pack(*unpack(k)) == k for k in p.nums)
    assert all(len(k) == 5 and min(k[:4]) >= 0 for k in p.terms)
    rebuilt = QuasiPoly(p.terms)
    assert (rebuilt.nums, rebuilt.den) == (p.nums, p.den)


@examples
@given(fraction_dicts)
def test_constructed_polys_are_canonical_and_read_back(d):
    p = QuasiPoly(d)
    assert_canonical(p)
    assert p.terms == nonzero(d)
    assert QuasiPoly.from_json(p.to_json()).terms == p.terms


@examples
@given(fraction_dicts, fraction_dicts)
def test_sums_and_products_match_the_oracle(a, b):
    x, y = QuasiPoly(a), QuasiPoly(b)
    a, b = nonzero(a), nonzero(b)
    for result, expected in (
        (x + y, oracle_add(a, b)),
        (x - y, oracle_add(a, {k: -c for k, c in b.items()})),
        (x * y, oracle_mul(a, b)),
    ):
        assert_canonical(result)
        assert result.terms == expected


@examples
@given(fraction_dicts, scalars)
def test_scaling_matches_the_oracle(a, c):
    x, a = QuasiPoly(a), nonzero(a)
    expected = {k: v * c for k, v in a.items() if c}
    for result in (x.scale(c), x * c, c * x):
        assert_canonical(result)
        assert result.terms == expected
    assert_canonical(x + c)
    assert (x + c).terms == oracle_add(a, {(0, 0, 0, 0, 0): Fraction(c)})


@examples
@given(fraction_dicts)
def test_d_tau_and_shift_tau_match_the_oracle(a):
    x, a = QuasiPoly(a), nonzero(a)
    assert_canonical(x.d_tau())
    assert x.d_tau().terms == oracle_d_tau(a)
    assert_canonical(x.shift_tau())
    assert x.shift_tau().terms == oracle_shift_tau(a)


@examples
@given(fraction_dicts, fraction_dicts)
def test_equal_values_have_equal_layouts(a, b):
    x, y = QuasiPoly(a), QuasiPoly(b)
    for u, v in ((x + y - y, x), (x * y, y * x), ((x - x) * y, QuasiPoly()), (x * 3 * Fraction(1, 3), x)):
        assert u == v
        assert (u.nums, u.den) == (v.nums, v.den)


#: the packed keys of tau and P
TAU_KEY, P_KEY = 1 << 48, 1 << 32


def test_canonical_layout_by_hand():
    # 1/2 tau + 1/3 P: numerators 3 and 2 over the lcm 6
    p = QuasiPoly({(1, 0, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0, 0): Fraction(1, 3)})
    assert (p.nums, p.den) == ({TAU_KEY: 3, P_KEY: 2}, 6)
    # scaling by 6 cancels the denominator, by -2/3 makes it positive again
    assert ((p * 6).nums, (p * 6).den) == ({TAU_KEY: 3, P_KEY: 2}, 1)
    q = p.scale(Fraction(-2, 3))
    assert (q.nums, q.den) == ({TAU_KEY: -3, P_KEY: -2}, 9)
    # a sum whose denominators differ and whose result cancels to an integer
    r = p + QuasiPoly({(1, 0, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0, 0): Fraction(2, 3)})
    assert (r.nums, r.den) == ({TAU_KEY: 1, P_KEY: 1}, 1)
    # zero has no numerators and denominator 1, however it was reached
    z = p - p
    assert (z.nums, z.den) == ({}, 1)
    assert (p.scale(0).nums, p.scale(0).den) == ({}, 1)
    # s^-1 sits one unit below the constant in the signed top field
    assert QuasiPoly.monomial((0, 0, 0, 0, -1)).nums == {-(1 << 64): 1}
    assert QuasiPoly.monomial((1, 2, 3, 4, -1)).nums == {-(1 << 64) + TAU_KEY + 2 * P_KEY + (3 << 16) + 4: 1}
