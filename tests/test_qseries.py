import json
import random
from fractions import Fraction

import pytest

from mfal.modforms import named_form
from mfal.numeric import NotConvergent, eval_numeric
from mfal.qseries import (
    DivisionByZeroSeries,
    NeedsCyclotomic,
    QSeries,
    TruncationError,
)


def series(pairs, trunc=64):
    return QSeries.from_terms(pairs, trunc=trunc)


def rand_series(rng, denom=1, trunc=24):
    terms = [
        (Fraction(rng.randint(0, 14), denom), Fraction(rng.randint(-9, 9) or 3, rng.randint(1, 5)))
        for _ in range(rng.randint(2, 6))
    ]
    return QSeries.from_terms(terms, trunc=trunc)


def test_add_cancellation():
    a = series([(0, 1), (1, 1)])
    b = series([(0, 1), (1, -1)])
    assert (a + b).agrees(QSeries.constant(2))


def test_half_exponent_product_reduces_denominator():
    h = series([(Fraction(1, 2), 1)])
    sq = h * h
    assert sq.agrees(series([(1, 1)]))
    assert sq.denom == 1


def test_mul_truncation_rule():
    a = series([(2, 1)], trunc=10)   # q^2, valid below 10
    b = series([(3, 1)], trunc=12)   # q^3, valid below 12
    assert (a * b).trunc == min(Fraction(10) + 3, Fraction(12) + 2)


def test_add_truncation_is_min():
    a = series([(0, 1)], trunc=10)
    b = series([(0, 1)], trunc=20)
    assert (a + b).trunc == 10


def test_div_simple():
    q = series([(1, 1)])
    assert (q / q).agrees(QSeries.constant(1))


def test_div_geometric():
    one_minus_q = series([(0, 1), (1, -1)])
    inv = QSeries.constant(1) / one_minus_q
    for n in range(20):
        assert inv.coefficient(n) == 1


def test_div_by_zero_series_raises():
    with pytest.raises(DivisionByZeroSeries):
        QSeries.constant(1) / QSeries.zero()


def test_pow_binomial():
    a = series([(0, 1), (1, 1)])
    sq = a**2
    assert [sq.coefficient(n) for n in (0, 1, 2)] == [1, 2, 1]


def test_pow_negative():
    a = series([(1, 1), (2, -1)])  # q(1 - q)
    inv = a**-1
    assert inv.valuation == -1
    assert inv.coefficient(0) == 1


def test_rescale_tau_doubles_exponents():
    a = series([(1, -24)])
    doubled = a.rescale_tau(2)
    assert doubled.coefficient(2) == -24
    assert doubled.trunc == 128


def test_rescale_identity():
    a = series([(1, 5), (Fraction(1, 2), 3)])
    assert a.rescale_tau(1) is a


def test_shift_tau_integer_unchanged():
    a = series([(0, 2), (3, 5)])
    assert a.shift_tau().agrees(a)


def test_shift_tau_half_integers_flip():
    a = series([(Fraction(1, 2), 7), (1, 3)])
    shifted = a.shift_tau()
    assert shifted.coefficient(Fraction(1, 2)) == -7
    assert shifted.coefficient(1) == 3


def test_shift_tau_needs_cyclotomic():
    a = series([(Fraction(1, 4), 1)])
    with pytest.raises(NeedsCyclotomic):
        a.shift_tau()


def test_q_derive():
    assert QSeries.constant(5).q_derive().is_zero()
    a = series([(Fraction(1, 2), 1)])
    assert a.q_derive().coefficient(Fraction(1, 2)) == Fraction(1, 2)


def test_eval_numeric_constant():
    assert eval_numeric(QSeries.constant(1), 1j) == 1


def test_eval_numeric_rejects_lower_half_plane():
    with pytest.raises(NotConvergent):
        eval_numeric(QSeries.constant(1), 1 - 1j)


def test_agrees_requires_span():
    a = series([(0, 1)], trunc=4)
    b = series([(0, 1)], trunc=4)
    with pytest.raises(TruncationError):
        a.agrees(b)


def test_json_round_trip():
    a = series([(Fraction(-1, 2), Fraction(3, 7)), (2, -5)], trunc=Fraction(33, 2))
    data = json.loads(json.dumps(a.to_json()))
    b = QSeries.from_json(data)
    assert b.denom == a.denom and b.trunc == a.trunc and b.terms == a.terms


def test_json_schema_shape():
    a = series([(Fraction(1, 2), 3)])
    payload = a.to_json()
    assert set(payload) == {"denom", "trunc", "terms"}
    assert payload["terms"] == [["1/2", "3/1"]]


# ----------------------------------------------------------------------
# invariants on sampled data
# ----------------------------------------------------------------------

def test_ring_axioms_sampled():
    rng = random.Random(1)
    for _ in range(12):
        a, b, c = (rand_series(rng, denom=rng.choice((1, 2, 3))) for _ in range(3))
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()


def test_div_mul_round_trip_sampled():
    rng = random.Random(2)
    for _ in range(8):
        a = rand_series(rng) + 1
        b = rand_series(rng) + 2
        assert ((a * b) / b).agrees(a, min_span=6)
        assert ((a / b) * b).agrees(a, min_span=6)


def test_leibniz_sampled():
    rng = random.Random(3)
    for _ in range(8):
        a, b = rand_series(rng), rand_series(rng)
        assert ((a * b).q_derive() - (a.q_derive() * b + a * b.q_derive())).is_zero()


def test_shift_tau_homomorphism_sampled():
    rng = random.Random(4)
    for _ in range(8):
        a, b = rand_series(rng, denom=2), rand_series(rng, denom=2)
        assert ((a * b).shift_tau() - a.shift_tau() * b.shift_tau()).is_zero()


def test_eval_numeric_multiplicative():
    rng = random.Random(5)
    a, b = rand_series(rng, trunc=64), rand_series(rng, trunc=64)
    lhs = eval_numeric(a * b, 1j)
    rhs = eval_numeric(a, 1j) * eval_numeric(b, 1j)
    assert abs(lhs - rhs) < 1e-10


def test_pow_keeps_the_product_depth():
    delta = named_form("Delta", 20).series
    assert (delta**-1).trunc == delta.inverse().trunc == 18
    j = named_form("j", 20).series
    assert (j**2).trunc == (j * j).trunc
    assert (j**3).trunc == (j * j * j).trunc
    one = j**0
    assert one.trunc == j.trunc and one.terms == {0: 1}
