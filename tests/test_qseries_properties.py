"""Property tests of QSeries: ring axioms, Leibniz, division, the truncation
rules, the shift tau -> tau + 1 as a ring homomorphism, evaluation at a point
as a product-preserving map, and that no operation changes its operands.

The form store shares series between callers, so an operation that changed
an operand in place would change a stored form.  hypothesis is a test-only
dependency.
"""

import cmath
import json
import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfal.numeric import eval_numeric
from mfal.qseries import QSeries

examples = settings(max_examples=60, deadline=None)


@st.composite
def series(draw, lowest=-2, nonzero=False, denoms=(1, 2, 3)):
    denom = draw(st.sampled_from(denoms))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    exps = st.integers(lowest * denom, 10 * denom).map(lambda k: Fraction(k, denom))
    pairs = draw(st.lists(st.tuples(exps, coeff), min_size=1 if nonzero else 0, max_size=8))
    trunc = draw(st.integers(6, 12)) + Fraction(draw(st.integers(0, denom - 1)), denom)
    s = QSeries.from_terms(pairs, trunc=trunc)
    if nonzero:
        assume(not s.is_zero())
    return s


def same(x, y):
    """Equal on the range where both are known."""
    return x.agrees(y, min_span=0)


@examples
@given(series(), series(), series())
def test_ring_axioms(a, b, c):
    assert same(a + b, b + a)
    assert same(a * b, b * a)
    assert same((a + b) + c, a + (b + c))
    assert same((a * b) * c, a * (b * c))
    assert same(a * (b + c), a * b + a * c)
    assert (a - a).is_zero()
    assert same(a * 1, a)


@examples
@given(series(), series())
def test_leibniz(a, b):
    assert same((a * b).q_derive(), a.q_derive() * b + a * b.q_derive())


@examples
@given(series(), series(nonzero=True))
def test_division_round_trip(a, b):
    assert same((a / b) * b, a)
    assert same(b * b.inverse(), QSeries.constant(1, trunc=b.trunc))


@examples
@given(series(), series())
def test_sum_and_product_truncation(a, b):
    assert (a + b).trunc == min(a.trunc, b.trunc)
    assert (a * b).trunc == min(a.trunc + b.valuation, b.trunc + a.valuation)


@examples
@given(series(nonzero=True))
def test_inverse_truncation(a):
    inv = a.inverse()
    assert inv.trunc == a.trunc - 2 * a.valuation
    assert inv.valuation == -a.valuation


@examples
@given(series(), series(nonzero=True), st.integers(-3, 3))
def test_operations_leave_operands_unchanged(a, b, n):
    before = [json.dumps(s.to_json()) for s in (a, b)]
    results = [
        a + b, a - b, -a, a * b, a / b, b.inverse(), b**n, a.scale(3), a.rescale_tau(2),
        a.shift_exponents(Fraction(1, 2)), a.q_derive(), a.truncate(min(a.trunc, 5)),
        a.agrees(b, min_span=0),
    ]
    assert len(results) == 13
    assert [json.dumps(s.to_json()) for s in (a, b)] == before


def shifted_termwise(a):
    """a(tau + 1) from its definition: the term c q^e picks up exp(2 pi i e),
    which is (-1)^(2e) on the half-integral lattice."""
    return QSeries.from_terms([(e, -c if 2 * e % 2 else c) for e, c in a.items()], trunc=a.trunc)


@examples
@given(series(denoms=(1, 2)), series(denoms=(1, 2)))
def test_shift_tau_is_a_ring_homomorphism(a, b):
    assert same(a.shift_tau(), shifted_termwise(a))
    assert same((a + b).shift_tau(), a.shift_tau() + b.shift_tau())
    assert same((a * b).shift_tau(), a.shift_tau() * b.shift_tau())
    assert same(QSeries.constant(1, trunc=a.trunc).shift_tau(), QSeries.constant(1, trunc=a.trunc))
    assert same(a.shift_tau().shift_tau(), a)  # exp(4 pi i e) = 1 on this lattice


def absolute_sum(a, tau):
    """sum |c| |q|^e over the terms of a: every float error of eval_numeric at
    tau is a small multiple of the unit roundoff times this."""
    r = math.exp(-2 * math.pi * tau.imag)
    return sum(abs(float(c)) * r ** float(e) for e, c in a.items())


#: the stated bound: |eval(a b) - eval(a) eval(b)| <= EVAL_BOUND |a| |b|, with
#: |.| the absolute sum.  Each value sums at most 64 terms, each term a product
#: of a few correctly rounded floats, so the error is below 10^3 unit roundoffs
#: (2^-52 each) of |a| |b|, about 2e-13.
EVAL_BOUND = 1e-12
points = st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.5, 2.0))


@examples
@given(series(lowest=0), series(lowest=0), points)
def test_eval_numeric_is_multiplicative(a, b, tau):
    # exponents stay below 11 and every truncation is at least 6 past the
    # lowest exponent, so at 30 the product keeps every term of the
    # polynomial product and the two sides differ by rounding alone
    a, b = (QSeries.from_terms(s.items(), trunc=30) for s in (a, b))
    lhs = eval_numeric(a * b, tau)
    rhs = eval_numeric(a, tau) * eval_numeric(b, tau)
    assert abs(lhs - rhs) <= EVAL_BOUND * absolute_sum(a, tau) * absolute_sum(b, tau)
    one = QSeries.constant(1, trunc=30)
    assert eval_numeric(one, tau) == 1
    # q itself is exp(2 pi i tau), and at tau = i the real number exp(-2 pi)
    assert abs(eval_numeric(QSeries.from_terms([(1, 1)], trunc=30), tau)
               - cmath.exp(2j * cmath.pi * tau)) <= 1e-15
    assert abs(eval_numeric(QSeries.from_terms([(1, 1)], trunc=30), 1j)
               - math.exp(-2 * math.pi)) <= 1e-18
