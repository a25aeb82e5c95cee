"""Property tests of the one structure-constant table, BracketTable.

Chevalley tables over Q, the weight-zero tables over Q[j] and their fibers
at a value of j share one bracket; these check that it is antisymmetric and
bilinear on each of them, that specialising at j commutes with the bracket,
and that ``sl2_triple`` gives each positive root a standard triple.
hypothesis is a test-only dependency.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfal import alia, checks_alia, liealg
from mfal.jpoly import JPoly

examples = settings(max_examples=40, deadline=None)

TYPES = ("A1", "A2", "B2", "G2")
ORBITS = (
    ("A1", "principal"),
    ("A2", "principal"),
    ("B2", "subregular"),
    ("B2", "principal"),
    ("G2", "subregular"),
    ("G2", "principal"),
)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
jpolys = st.lists(fractions, max_size=3).map(JPoly)


@lru_cache(maxsize=None)
def table(orbit):
    return alia.alia_table(*orbit)


def vectors(dim, coeffs):
    return st.dictionaries(st.integers(0, dim - 1), coeffs, max_size=4).map(
        lambda v: {k: c for k, c in v.items() if c}
    )


def add(u, v):
    out = dict(u)
    for k, c in v.items():
        s = out[k] + c if k in out else c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def scale(v, c):
    return {k: x * c for k, x in v.items() if x * c}


def neg(v):
    return {k: -c for k, c in v.items()}


def check_antisymmetric_and_bilinear(tab, x, y, z, c):
    assert tab.bracket(x, y) == neg(tab.bracket(y, x))
    assert tab.bracket(x, x) == {}
    assert tab.bracket(add(x, z), y) == add(tab.bracket(x, y), tab.bracket(z, y))
    assert tab.bracket(x, add(y, z)) == add(tab.bracket(x, y), tab.bracket(x, z))
    assert tab.bracket(scale(x, c), y) == scale(tab.bracket(x, y), c)


@examples
@given(st.data())
@pytest.mark.parametrize("type_label", TYPES)
def test_chevalley_bracket_antisymmetric_and_bilinear(type_label, data):
    tab = liealg.chevalley(type_label)
    x, y, z = (data.draw(vectors(tab.dim, fractions)) for _ in range(3))
    check_antisymmetric_and_bilinear(tab, x, y, z, data.draw(fractions))


@examples
@given(st.data())
@pytest.mark.parametrize("orbit", ORBITS)
def test_alia_bracket_antisymmetric_and_bilinear(orbit, data):
    tab = table(orbit)
    x, y, z = (data.draw(vectors(tab.dim, jpolys)) for _ in range(3))
    check_antisymmetric_and_bilinear(tab, x, y, z, data.draw(jpolys))


@examples
@given(st.data(), fractions)
@pytest.mark.parametrize("orbit", ORBITS)
def test_specialize_commutes_with_bracket(orbit, data, j_value):
    tab = table(orbit)
    x, y = (data.draw(vectors(tab.dim, jpolys)) for _ in range(2))

    def at_j(v):
        return {k: p(j_value) for k, p in v.items() if p(j_value)}

    fiber = checks_alia.SpecializedAlgebra(tab, j_value)
    assert fiber.bracket(at_j(x), at_j(y)) == at_j(tab.bracket(x, y))


def times(v, c):
    return {k: c * x for k, x in v.items()}


@pytest.mark.parametrize("type_label", TYPES)
def test_sl2_triple_is_standard_on_every_positive_root(type_label):
    """[h, e] = 2e, [h, f] = -2f and [e, f] = h, each with its antisymmetric
    pair; in A1, the triple of the evaluation representations, h is H_0."""
    chev = liealg.chevalley(type_label)
    for root in chev.rs.positive:
        e, f, h = chev.sl2_triple(root)
        assert chev.bracket(h, e) == times(e, 2), root
        assert chev.bracket(e, h) == times(e, -2), root
        assert chev.bracket(h, f) == times(f, -2), root
        assert chev.bracket(f, h) == times(f, 2), root
        assert chev.bracket(e, f) == h, root
        assert chev.bracket(f, e) == times(h, -1), root
        for v in (h, e, f):
            assert chev.bracket(v, v) == {}, root
    if type_label == "A1":
        assert h == {chev.index["H", 0]: 1}
