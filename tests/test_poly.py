"""Property tests of the polynomial kernel mfal.poly: the dense operations
and the sparse ring ``Sparse`` against sympy over QQ, cancelling sums, the
one reading of rationals, and the one ``power`` against the n-fold product in
every coefficient ring of the package.

sympy and hypothesis are test-only dependencies.
"""

import operator
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mfal.alia import JPoly
from mfal.loopext import CycloField
from mfal.poly import add, add_term, horner, mul, numerators, power, trim
from mfal.sparse import Sparse
from mfal.qseries import QSeries
from mfal.quasimodular import QuasiPoly

examples = settings(max_examples=60, deadline=None)

coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
dense = st.lists(coeffs, max_size=6)
ZERO = Fraction(0)

X = sympy.Symbol("x")
GENS = sympy.symbols("t p q r s")
# exponents reach down to -SHIFT; multiplying by x^SHIFT (or s^SHIFT) makes
# both factors polynomials for sympy's Poly
SHIFT = 4


def _q(c):
    return sympy.Rational(c.numerator, c.denominator)


def _frac(c):
    return Fraction(int(c.p), int(c.q))


def dense_to_sympy(cs):
    return sympy.Poly(sum((_q(c) * X**i for i, c in enumerate(cs)), sympy.S.Zero), X, domain="QQ")


def dense_from_sympy(p):
    return trim([_frac(c) for c in reversed(p.all_coeffs())])


def sparse_from_sympy(expr, gens, shift):
    """{exponent: coefficient} of expr * shift, with shift undone."""
    p = sympy.Poly(sympy.expand(expr * shift), *gens, domain="QQ")
    return {m: _frac(c) for m, c in p.terms() if c}


@examples
@given(dense, dense)
def test_dense_add_and_mul_match_sympy(a, b):
    pa, pb = dense_to_sympy(a), dense_to_sympy(b)
    assert trim(add(a, b)) == dense_from_sympy(pa + pb)
    assert trim(mul(a, b, ZERO)) == dense_from_sympy(pa * pb)


@examples
@given(dense, coeffs)
def test_horner_matches_sympy(a, x):
    assert horner(a, x, ZERO) == _frac(dense_to_sympy(a).eval(_q(x)))


@examples
@given(dense, dense)
def test_dense_operations_leave_their_operands(a, b):
    ta, tb = list(a), tuple(b)
    add(ta, tb)
    mul(ta, tb, ZERO)
    assert ta == a and list(tb) == b


laurent = st.dictionaries(st.integers(-SHIFT, SHIFT), coeffs.filter(bool), max_size=5)


@examples
@given(laurent, laurent)
def test_sparse_laurent_mul_matches_sympy(a, b):
    ea = sum((_q(c) * X**k for k, c in a.items()), sympy.S.Zero)
    eb = sum((_q(c) * X**k for k, c in b.items()), sympy.S.Zero)
    expected = {m[0] - 2 * SHIFT: c for m, c in sparse_from_sympy(ea * eb, [X], X ** (2 * SHIFT)).items()}
    assert (Sparse(a) * Sparse(b)).terms == expected
    expected = {m[0] - SHIFT: c for m, c in sparse_from_sympy(ea + eb, [X], X**SHIFT).items()}
    assert (Sparse(a) + Sparse(b)).terms == expected


five = st.tuples(*[st.integers(0, 2)] * 4, st.integers(-SHIFT, SHIFT))
quasi = st.dictionaries(five, coeffs.filter(bool), max_size=4)


def _quasi_expr(a):
    t, p, q, r, s = GENS
    return sum(
        (_q(c) * t**e[0] * p**e[1] * q**e[2] * r**e[3] * s**e[4] for e, c in a.items()),
        sympy.S.Zero,
    )


@examples
@given(quasi, quasi)
def test_sparse_five_tuple_mul_matches_sympy(a, b):
    # QuasiPoly is the Sparse ring whose 5-tuple exponents add componentwise
    got = (QuasiPoly(a) * QuasiPoly(b)).terms
    s = GENS[-1]
    expected = {
        (*m[:4], m[4] - 2 * SHIFT): c
        for m, c in sparse_from_sympy(_quasi_expr(a) * _quasi_expr(b), GENS, s ** (2 * SHIFT)).items()
    }
    assert got == expected


@examples
@given(laurent, dense)
def test_cancelling_sums_drop_their_entries(a, b):
    p = Sparse(a)
    assert (p + Sparse({k: -c for k, c in a.items()})).terms == {}
    assert trim(add(b, [-c for c in b])) == []
    out = dict(a)
    for k, c in a.items():
        add_term(out, k, -c)
    assert out == {}
    # (1 + z)(1 - z) = 1 - z^2: the z terms cancel and leave no entry
    assert (Sparse({0: 1, 1: 1}) * Sparse({0: 1, 1: -1})).terms == {0: 1, 2: -1}
    assert all((p * p).nums.values()) and all((p + p).nums.values())


@examples
@given(st.lists(coeffs | st.integers(-9, 9), max_size=5))
def test_numerators_read_rationals_over_their_lcm(cs):
    nums, den = numerators(cs)
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == cs
    assert den == lcm(*[Fraction(c).denominator for c in cs])
    # already canonical: lowest_terms has no common factor left to divide out
    assert gcd(den, *nums) == 1


def test_numerators_read_strs_and_refuse_floats():
    assert numerators([1, Fraction(1, 2), "1/3"]) == ([6, 3, 2], 6)
    with pytest.raises(TypeError):
        numerators([0.5])


# ----------------------------------------------------------------------
# power over every ring of the package
# ----------------------------------------------------------------------

def nfold(x, n, one):
    """x * x * ... * x (n factors), ``one`` for n == 0."""
    return reduce(operator.mul, [x] * n) if n else one


exponent = st.integers(0, 6)


@examples
@given(coeffs, exponent)
def test_power_of_fractions(x, n):
    assert power(x, n, Fraction(1)) == nfold(x, n, Fraction(1)) == x**n


@examples
@given(st.lists(coeffs, max_size=3), exponent)
def test_power_of_jpolys(cs, n):
    x, one = JPoly(cs), JPoly.const(1)
    assert power(x, n, one) == nfold(x, n, one)


@examples
@given(quasi, exponent)
def test_power_of_quasipolys(terms, n):
    x, one = QuasiPoly(terms), QuasiPoly.const(1)
    assert power(x, n, one) == nfold(x, n, one) == x**n


@examples
@given(st.sampled_from((1, 3, 4, 5)), st.lists(coeffs, min_size=4, max_size=4), exponent)
def test_power_of_cyclonumbers(order, cs, n):
    field = CycloField(order)
    x = field.element(cs)
    assert power(x, n, field.one) == nfold(x, n, field.one) == x**n


@st.composite
def series(draw):
    denom = draw(st.sampled_from((1, 2, 3)))
    exps = st.integers(-2 * denom, 8 * denom).map(lambda k: Fraction(k, denom))
    trunc = draw(st.integers(6, 10))
    return QSeries.from_terms(draw(st.lists(st.tuples(exps, coeffs), max_size=5)), trunc=trunc)


def _parts(s):
    return s.denom, s.terms, s.trunc


@examples
@given(series(), exponent)
def test_power_of_qseries_keeps_the_product_truncation(x, n):
    one = QSeries.constant(1, x.trunc)
    expected = _parts(nfold(x, n, one))
    assert _parts(power(x, n, one)) == expected
    assert _parts(x**n) == expected
