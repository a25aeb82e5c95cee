"""Property tests of mfal.loopext over every polyhedral pole set, with sympy
as an independent oracle on Q and Q(i): ``residue`` for residues, also of
products, and ``subs`` for values.  ``RatFunc`` reads products, values and
residues of products off one local expansion, so the property tests among
them share that code and only sympy's routes are independent of it.

sympy and hypothesis are test-only dependencies; the package itself must
not import them.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfal import loopext
from mfal.loopext import CycloField, RatFunc

POLYHEDRAL = ("dihedral", "tetrahedral", "octahedral", "icosahedral")


def field_elements(field, spread=4):
    coeff = st.builds(Fraction, st.integers(-spread, spread), st.integers(1, 3))
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(field.element)


def atoms(field, points):
    """A polynomial of degree < 3, or c (t - a)^-k with a a preset point."""
    poly = st.lists(field_elements(field), min_size=1, max_size=3).map(
        lambda cs: RatFunc.polynomial(field, cs)
    )
    pole = st.builds(
        lambda a, k, c: RatFunc.pole_factor(field, a, k) * c,
        st.sampled_from(points), st.integers(1, 3), field_elements(field),
    )
    return poly | pole


@st.composite
def ratfuncs(draw, field, points, max_ops=2):
    f = draw(atoms(field, points))
    for op in draw(st.lists(st.sampled_from("+*d"), max_size=max_ops)):
        if op == "d":
            f = f.derivative()
        elif op == "+":
            f = f + draw(atoms(field, points))
        else:
            f = f * draw(atoms(field, points))
    return f


@pytest.mark.parametrize("preset", POLYHEDRAL)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_respects_sum_and_product(preset, data):
    field, points = loopext.pole_preset(preset)
    f = data.draw(ratfuncs(field, points))
    g = data.draw(ratfuncs(field, points))
    p = data.draw(field_elements(field))
    assume(all(p != a for a in points))
    assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)
    assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)


@pytest.mark.parametrize("preset", POLYHEDRAL)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_residue_is_additive_and_kills_derivatives(preset, data):
    field, points = loopext.pole_preset(preset)
    f = data.draw(ratfuncs(field, points))
    g = data.draw(ratfuncs(field, points))
    for a in points:
        assert loopext.residue(f + g, a) == loopext.residue(f, a) + loopext.residue(g, a)
        assert loopext.residue(f.derivative(), a).is_zero()


def several_poles(field, points):
    """sum_i c_i (t - a_i)^-k_i over two or three distinct preset points."""
    pole = st.tuples(st.integers(1, 3), field_elements(field))
    return st.dictionaries(st.integers(0, len(points) - 1), pole, min_size=2, max_size=3).map(
        lambda terms: sum((RatFunc.pole_factor(field, points[i], k) * c
                           for i, (k, c) in terms.items()), RatFunc(field, []))
    )


@pytest.mark.parametrize("preset", POLYHEDRAL)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_residue_of_product_is_the_residue_of_the_product(preset, data):
    field, points = loopext.pole_preset(preset)
    f = data.draw(ratfuncs(field, points, max_ops=3))
    g = data.draw(ratfuncs(field, points) | several_poles(field, points))
    if data.draw(st.booleans()):
        f = f * data.draw(several_poles(field, points))
    for a in points:
        assert loopext.residue_of_product(f, g, a) == loopext.residue(f * g, a)
        assert loopext.residue_of_product(g, f, a) == loopext.residue(f * g, a)


@pytest.mark.parametrize("n", [1, 3, 4, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclotomic_inverse(n, data):
    field = CycloField(n)
    x = data.draw(field_elements(field, spread=9))
    assume(x)
    assert x * x.inverse() == field.one
    assert x.inverse().inverse() == x


T = sympy.Symbol("t")
ZETA = {1: sympy.Integer(1), 4: sympy.I}


def to_sympy(x):
    zeta = ZETA[x.field.n]
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * zeta**j for j, c in enumerate(x.coeffs)),
        sympy.Integer(0),
    )


@st.composite
def paired(draw, field, points):
    """The same rational function as a RatFunc and as a sympy expression."""

    def atom():
        c = draw(field_elements(field))
        if draw(st.booleans()):
            cs = draw(st.lists(field_elements(field), min_size=1, max_size=3))
            expr = sum((to_sympy(b) * T**j for j, b in enumerate(cs)), sympy.Integer(0))
            return RatFunc.polynomial(field, cs) * c, to_sympy(c) * expr
        a = draw(st.sampled_from(points))
        k = draw(st.integers(1, 3))
        return RatFunc.pole_factor(field, a, k) * c, to_sympy(c) / (T - to_sympy(a)) ** k

    f, expr = atom()
    for op in draw(st.lists(st.sampled_from("+*d"), max_size=2)):
        if op == "d":
            f, expr = f.derivative(), sympy.diff(expr, T)
        else:
            g, gexpr = atom()
            f, expr = (f + g, expr + gexpr) if op == "+" else (f * g, expr * gexpr)
    return f, expr


@pytest.mark.parametrize("preset", ["dihedral", "octahedral"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_residue_matches_sympy(preset, data):
    field, points = loopext.pole_preset(preset)
    f, expr = data.draw(paired(field, points))
    for a in points:
        expected = sympy.residue(expr, T, to_sympy(a))
        assert sympy.simplify(expected - to_sympy(loopext.residue(f, a))) == 0


@pytest.mark.parametrize("preset", ["dihedral", "octahedral"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_evaluate_matches_sympy(preset, data):
    field, points = loopext.pole_preset(preset)
    f, expr = data.draw(paired(field, points))
    x = data.draw(field_elements(field))
    assume(all(x != a for a in points))
    expected = expr.subs(T, to_sympy(x))
    assert sympy.simplify(expected - to_sympy(f.evaluate(x))) == 0


@pytest.mark.parametrize("preset", ["dihedral", "octahedral"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_residue_of_product_matches_sympy(preset, data):
    field, points = loopext.pole_preset(preset)
    f, expr_f = data.draw(paired(field, points))
    g, expr_g = data.draw(paired(field, points))
    for a in points:
        expected = sympy.residue(expr_f * expr_g, T, to_sympy(a))
        got = loopext.residue_of_product(f, g, a)
        assert sympy.simplify(expected - to_sympy(got)) == 0
