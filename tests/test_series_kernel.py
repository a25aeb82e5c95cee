"""Property tests of the integer series kernel: ``QSeries.__mul__`` and
``QSeries.inverse`` against the schoolbook ``Fraction`` algorithms,
``qseries.kronecker_mul`` (both its binary and its decimal packing) against
``poly.mul``, and the Newton ladder ``_monic_inverse`` against the
``Fraction`` recurrence.

The schoolbook product and the slot-by-slot inverse recurrence below are
the package's former algorithms, kept here only as oracles.  Results must
match them exactly: same lattice denominator, same terms, same truncation.
hypothesis is a test-only dependency.
"""

import random
from fractions import Fraction
from math import ceil, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfal import qseries
from mfal.poly import mul
from mfal.qseries import QSeries, _monic_inverse, kronecker_mul

examples = settings(max_examples=80, deadline=None)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def aligned(x: QSeries, y: QSeries):
    d = lcm(x.denom, y.denom)
    a = {k * (d // x.denom): c for k, c in x.terms.items()}
    b = {k * (d // y.denom): c for k, c in y.terms.items()}
    return d, a, b


def schoolbook_mul(x: QSeries, y: QSeries) -> QSeries:
    d, a, b = aligned(x, y)
    trunc = min(x.trunc + y.valuation, y.trunc + x.valuation)
    bound = trunc * d
    out = {}
    b_items = sorted(b.items())
    for ka, ca in sorted(a.items()):
        for kb, cb in b_items:
            k = ka + kb
            if k >= bound:
                break
            s = out.get(k, Fraction(0)) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return QSeries.from_terms([(Fraction(k, d), c) for k, c in out.items()], trunc)


def recurrence_inverse(x: QSeries) -> QSeries:
    d = x.denom
    v = min(x.terms)
    lead = x.terms[v]
    n = ceil(x.trunc * d - v)
    unit = {k - v: c / lead for k, c in x.terms.items()}
    inv = {0: Fraction(1)}
    for slot in range(1, n):
        acc = Fraction(0)
        for k, c in unit.items():
            if 0 < k <= slot:
                r = inv.get(slot - k)
                if r is not None:
                    acc += c * r
        if acc:
            inv[slot] = -acc
    trunc = Fraction(x.trunc) - 2 * Fraction(v, d)
    out = {k - v: c / lead for k, c in inv.items() if Fraction(k - v, d) < trunc}
    return QSeries.from_terms([(Fraction(k, d), c) for k, c in out.items()], trunc)


def identical(x: QSeries, y: QSeries) -> bool:
    return (x.denom, x.terms, x.trunc) == (y.denom, y.terms, y.trunc)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

# mixed signs over unrelated denominators
coeffs = st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 5, 7, 11, 24, 97)))


@st.composite
def series(draw, denoms=(1, 2, 3, 8, 24, 120), top=3, max_terms=7, nonzero=False):
    """A sparse series on a 1/d lattice, d drawn from ``denoms``; exponents
    from -2 to ``top`` and a truncation a little past the largest of them,
    so that many products land at or past the truncation."""
    d = draw(st.sampled_from(denoms))
    exps = st.integers(-2 * d, top * d).map(lambda k: Fraction(k, d))
    pairs = draw(st.lists(st.tuples(exps, coeffs), min_size=int(nonzero), max_size=max_terms))
    highest = max((e for e, _ in pairs), default=Fraction(-3))
    trunc = highest + Fraction(draw(st.integers(1, 2 * d)), d)
    s = QSeries.from_terms(pairs, trunc=trunc)
    if nonzero:
        assume(not s.is_zero())
    return s


one_term = st.builds(
    lambda e, c, t: QSeries.from_terms([(e, c)], trunc=e + t),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 120))),
    coeffs.filter(bool),
    st.integers(1, 4),
)
zero = st.builds(QSeries.zero, st.integers(-4, 6))


# ----------------------------------------------------------------------
# product
# ----------------------------------------------------------------------

@examples
@given(series(), series())
def test_product_matches_schoolbook(a, b):
    assert identical(a * b, schoolbook_mul(a, b))


@examples
@given(st.one_of(one_term, zero, series()), st.one_of(one_term, zero, series()))
def test_product_of_one_term_and_zero_series(a, b):
    assert identical(a * b, schoolbook_mul(a, b))


def test_product_keeps_only_the_slots_below_the_truncation():
    # both products with b's far term lie past min(Ta + vb, Tb + va) = 11/4
    a = QSeries.from_terms([(-1, 3), (Fraction(5, 2), 1)], trunc=Fraction(11, 4))
    b = QSeries.from_terms([(0, Fraction(1, 7)), (5, -2)], trunc=6)
    product = a * b
    assert identical(product, schoolbook_mul(a, b))
    assert product.trunc == Fraction(11, 4)
    assert product.items() == [(Fraction(-1), Fraction(3, 7)), (Fraction(5, 2), Fraction(1, 7))]
    # a zero factor known below a negative truncation
    assert identical(QSeries.zero(trunc=-3) * b, schoolbook_mul(QSeries.zero(trunc=-3), b))


def test_sparse_product_on_a_fine_lattice():
    # exponents in (1/120)Z but on the sublattice (1/24)Z, far apart
    a = QSeries.from_terms([(Fraction(-1, 24), 1), (Fraction(23, 24), -1)], trunc=4)
    b = QSeries.from_terms([(Fraction(1, 120), 2), (Fraction(121, 120), 5)], trunc=4)
    assert identical(a * b, schoolbook_mul(a, b))
    assert identical((a * b) * (a * b), schoolbook_mul(a * b, a * b))


# ----------------------------------------------------------------------
# inverse
# ----------------------------------------------------------------------

@examples
@given(series(denoms=(1, 2, 3, 8, 24), top=2, max_terms=5, nonzero=True))
def test_inverse_matches_recurrence(a):
    assert identical(a.inverse(), recurrence_inverse(a))


@examples
@given(
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 9)),
    series(denoms=(1, 2, 3), top=2, max_terms=4),
)
def test_inverse_of_non_monic_units(lead, rest):
    # lead + (terms of positive exponent): a unit whose leading coefficient
    # is not an integer
    unit = QSeries.constant(lead, trunc=max(rest.trunc, Fraction(1, 2)))
    tail = QSeries.from_terms([(e, c) for e, c in rest.items() if e > 0], trunc=rest.trunc)
    u = unit + tail if tail.trunc > 0 else unit
    assume(u.valuation == 0)
    assert identical(u.inverse(), recurrence_inverse(u))


def test_inverse_of_delta_is_integral():
    from mfal import modforms

    delta = modforms.named_form("Delta", 40).series
    inv = delta.inverse()
    assert identical(inv, recurrence_inverse(delta))
    assert all(c.denominator == 1 for c in inv.terms.values())


# ----------------------------------------------------------------------
# kronecker_mul
# ----------------------------------------------------------------------

small = st.integers(-3, 3)
large = st.integers(-(2 ** 200), 2 ** 200)
int_lists = st.lists(st.one_of(small, large, st.just(0)), max_size=12)


def padded(a, b, n):
    return (mul(a, b, 0) + [0] * n)[:n]


@settings(max_examples=200, deadline=None)
@given(int_lists, int_lists, st.integers(0, 30))
def test_kronecker_mul_matches_mul(a, b, n):
    assert kronecker_mul(a, b, n) == padded(a, b, n)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 3), st.lists(large, min_size=1, max_size=6), st.integers(0, 3),
    st.integers(0, 3), st.lists(large, min_size=1, max_size=6), st.integers(0, 3),
)
def test_kronecker_mul_with_zero_slots_at_both_ends(la, a, ra, lb, b, rb):
    a, b = [0] * la + a + [0] * ra, [0] * lb + b + [0] * rb
    for n in (1, len(a), len(a) + len(b) - 1, len(a) + len(b) + 2):
        assert kronecker_mul(a, b, n) == padded(a, b, n)


def test_kronecker_mul_slot_width_at_the_bound():
    # every slot of the full product sums k equal extreme products
    for m in (1, 127, 128, 255, 2 ** 64 - 1, 2 ** 64):
        for k in (1, 2, 7, 8):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a, b = [sa * m] * k, [sb * m] * k
                for n in (k, 2 * k - 1):
                    assert kronecker_mul(a, b, n) == padded(a, b, n)
    assert kronecker_mul([], [1, 2], 3) == [0, 0, 0]
    assert kronecker_mul([1, 2], [3], 0) == []


# every product through the decimal packing, as big operands take it
decimal_path = mock.patch.object(qseries, "DECIMAL_BITS", 0)
# past sys.get_int_max_str_digits() (4300 by default) in decimal
huge = st.integers(-(10 ** 4400), 10 ** 4400)


@settings(max_examples=200, deadline=None)
@given(int_lists, int_lists, st.integers(0, 30))
def test_decimal_path_matches_mul(a, b, n):
    with decimal_path:
        assert kronecker_mul(a, b, n) == padded(a, b, n)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(small, huge), max_size=6), st.lists(st.one_of(small, huge), max_size=6),
       st.integers(0, 12))
def test_decimal_path_with_coefficients_past_the_str_limit(a, b, n):
    with decimal_path:
        assert kronecker_mul(a, b, n) == padded(a, b, n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(small, large), min_size=1, max_size=8),
       st.lists(st.one_of(small, large), min_size=1, max_size=8), st.integers(0, 6))
def test_decimal_path_at_and_past_the_full_product(a, b, extra):
    # n up to and past len(a) + len(b) - 1, where the top slots are empty
    with decimal_path:
        for n in (1, len(a) + len(b) - 1, len(a) + len(b) - 1 + extra):
            assert kronecker_mul(a, b, n) == padded(a, b, n)


def test_decimal_path_runs_unless_a_slot_passes_the_str_limit():
    with decimal_path, mock.patch.object(qseries, "_decimal_mul", wraps=qseries._decimal_mul) as spy:
        # the slot past n is negative, so is the product's part above slot n
        assert kronecker_mul([5, 7], [3, -9], 2) == [15, -24]
        assert spy.call_count == 1
        # a zero factor returns before any packing
        assert kronecker_mul([0], [4], 3) == [0, 0, 0]
        assert kronecker_mul([-2], [3], 1) == [-6]
        assert spy.call_count == 2
        big = 10 ** 4400
        assert kronecker_mul([big, -1], [-big, 2], 3) == [-big * big, 3 * big, -2]
        assert spy.call_count == 2
    assert qseries.DECIMAL_BITS > 0


def fraction_inverse(v, n):
    """The first n coefficients of 1/v, slot by slot."""
    out = []
    for i in range(n):
        acc = Fraction(int(i == 0))
        for k in range(1, min(i, len(v) - 1) + 1):
            acc -= v[k] * out[i - k]
        out.append(acc / v[0])
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 256, 257])
def test_monic_inverse_matches_fraction_recurrence(n):
    # every rung of the ladder n, ceil(n/2), ..., 1, odd ones included
    rng = random.Random(n)
    v = [1] + [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, n + 2))]
    assert _monic_inverse(v, n) == fraction_inverse(v, n)
    assert _monic_inverse([1, -1], n) == [1] * n
