"""Property tests of the canonical QSeries layout.

A QSeries stores int numerators ``nums`` over one ``den``, ``nums[i]/den``
sitting at exponent ``(val + step*i)/denom``.  Every operation must return
the one canonical layout of its terms: nonzero end numerators, ``den > 0``
with no factor common to ``den`` and all of ``nums``, ``step`` the gcd of
the nonzero terms' offsets (0 for at most one term), gcd(denom, val, step)
== 1, and nothing at or past the truncation.  Rebuilding a result from its
own terms must then give back the same layout.  hypothesis is a test-only
dependency.
"""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfal.qseries import QSeries

examples = settings(max_examples=120, deadline=None)

coeffs = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 7, 24)))
scalars = st.one_of(
    st.just(0), st.just(-1), st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


@st.composite
def series(draw):
    """A general series, a singleton or a zero series on a 1/d lattice,
    d in {1, 2, 3, 24}, with a truncation that may cut some terms off."""
    d = draw(st.sampled_from((1, 2, 3, 24)))
    trunc = Fraction(draw(st.integers(-d, 6 * d)), d)
    kind = draw(st.sampled_from(("general", "general", "single", "zero")))
    if kind == "zero":
        return QSeries.zero(trunc)
    exps = st.integers(-2 * d, 5 * d).map(lambda k: Fraction(k, d))
    size = 1 if kind == "single" else draw(st.integers(0, 8))
    return QSeries.from_terms(draw(st.lists(st.tuples(exps, coeffs), min_size=size, max_size=size)), trunc)


def layout(s: QSeries):
    return s.denom, s.val, s.step, s.den, s.nums, s.trunc


def assert_canonical(s: QSeries):
    nums = s.nums
    assert s.den > 0
    assert gcd(s.den, *nums) == 1
    if nums:
        assert nums[0] and nums[-1]
        assert Fraction(s.val + s.step * (len(nums) - 1), s.denom) < s.trunc
    offsets = [s.step * i for i, c in enumerate(nums) if c]
    assert s.step == gcd(*offsets)
    assert (s.step == 0) == (len(offsets) <= 1)
    assert gcd(s.denom, s.val, s.step) == 1
    rebuilt = QSeries.from_terms(s.items(), s.trunc)
    assert rebuilt.to_json() == s.to_json()
    assert layout(rebuilt) == layout(s)


@examples
@given(series())
def test_constructed_series_are_canonical(a):
    assert_canonical(a)


@examples
@given(series(), series())
def test_sums_and_products_are_canonical(a, b):
    assert_canonical(a + b)
    assert_canonical(a - b)
    assert_canonical(a * b)


@examples
@given(series(), scalars, st.integers(0, 12))
def test_scaling_and_truncation_are_canonical(a, c, cut):
    assert_canonical(a.scale(c))
    assert_canonical(a * c)
    assert_canonical(a + c)
    assert_canonical(a.truncate(a.trunc - Fraction(cut, 4)))


@examples
@given(series())
def test_inverse_is_canonical(a):
    assume(a)
    assert_canonical(a.inverse())


@examples
@given(
    series(),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 5, 24))),
    st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 24))),
)
def test_calculus_and_substitutions_are_canonical(a, e, m):
    assert_canonical(a.q_derive())
    assert_canonical(a.shift_exponents(e))
    assert_canonical(a.rescale_tau(m))


def test_canonical_layout_by_hand():
    # theta-like gaps compress to the step, the common factor 1/2 leaves den
    s = QSeries.from_terms([(Fraction(1, 2), 3), (Fraction(5, 2), Fraction(-9, 2))], trunc=6)
    assert (s.denom, s.val, s.step, s.nums, s.den) == (2, 1, 4, [6, -9], 2)
    # a singleton has step 0 and the least denominator of its one exponent
    assert layout(QSeries.from_terms([(Fraction(6, 4), 5)], trunc=3)) == (2, 3, 0, 1, [5], Fraction(3))
    # the zero series keeps only its truncation
    assert layout(s.scale(0)) == (1, 0, 0, 1, [], Fraction(6))
    # a sum that cancels both ends and every odd slot
    t = QSeries.from_terms([(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)], trunc=8)
    u = QSeries.from_terms([(0, -1), (1, -1), (3, -1), (4, -1)], trunc=8)
    assert layout(t + u) == (1, 2, 0, 1, [1], Fraction(8))
    # (1 + 2q)(1 - 2q) = 1 - 4q^2: the product's zero odd slot goes
    p = QSeries.from_terms([(0, 1), (1, 2)], trunc=8) * QSeries.from_terms([(0, 1), (1, -2)], trunc=8)
    assert layout(p) == (1, 0, 2, 1, [1, -4], Fraction(8))
    # 3 + 6q scaled by 1/3 cancels to 1 + 2q over 1
    r = QSeries.from_terms([(0, 3), (1, 6)], trunc=8).scale(Fraction(1, 3))
    assert layout(r) == (1, 0, 1, 1, [1, 2], Fraction(8))
