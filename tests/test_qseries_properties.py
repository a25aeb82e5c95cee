"""Property tests of QSeries: ring axioms, Leibniz, division, the truncation
rules and that no operation changes its operands.

The form store shares series between callers, so an operation that changed
an operand in place would change a stored form.  hypothesis is a test-only
dependency.
"""

import json
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfal.qseries import QSeries

examples = settings(max_examples=60, deadline=None)


@st.composite
def series(draw, lowest=-2, nonzero=False):
    denom = draw(st.sampled_from((1, 2, 3)))
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
