"""The sparse-row kernel of ``mfal.linalg.Matrix`` against a dense oracle.

``*``, ``scale``, ``kron``, ``+`` and ``-`` skip zero entries; each entry must
still equal the dense formula's entry and have its type, so a skipped zero is
the zero of the ring the dense sum or product lands in (``Laurent({})``, not
the int 0).  Operands whose shapes do not fit are refused.  hypothesis is a
test-only dependency.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfal.alia import JPoly
from mfal.linalg import Matrix
from mfal.loopext import CycloField, Laurent
from mfal.quasimodular import QuasiPoly

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def sparse(zero, general):
    """Entries that are zero about half the time."""
    return st.just(zero) | general


def cyclo_numbers(n):
    field = CycloField(n)
    return sparse(field.zero, st.lists(
        fractions, min_size=field.degree, max_size=field.degree).map(field.element))


RINGS = {
    "Fraction": sparse(Fraction(0), fractions),
    "QuasiPoly": sparse(QuasiPoly(), st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 4, st.integers(-1, 1)),
        fractions.filter(bool), max_size=3).map(QuasiPoly)),
    "JPoly": sparse(JPoly(()), st.lists(fractions, max_size=3).map(JPoly)),
    **{f"CycloNumber{n}": cyclo_numbers(n) for n in (1, 3, 4, 5)},
    "Laurent": sparse(Laurent({}), st.dictionaries(
        st.integers(-3, 3), fractions.filter(bool), max_size=3).map(Laurent)),
}

sizes = st.integers(1, 4)


def matrices(entries, n_rows, n_cols):
    return st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows).map(Matrix)


def dense_product(a, b):
    """sum_k a_ik b_kj with every product formed, zeros included."""
    return [[sum((x * b.rows[k][j] for k, x in enumerate(row[1:], 1)), row[0] * b.rows[0][j])
             for j in range(len(b.rows[0]))] for row in a.rows]


def assert_entries(got, want):
    """Each entry equals the oracle's and has its type."""
    assert len(got.rows) == len(want)
    for row, expected in zip(got.rows, want):
        assert len(row) == len(expected)
        for x, y in zip(row, expected):
            assert type(x) is type(y) and x == y


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=sizes, k=sizes, m=sizes)
def test_kernel_matches_the_dense_formula(ring, data, n, k, m):
    entries = RINGS[ring]
    a = data.draw(matrices(entries, n, k))
    b = data.draw(matrices(entries, k, m))
    c = data.draw(matrices(entries, n, k))
    s = data.draw(entries | st.integers(-3, 3))
    assert_entries(a * b, dense_product(a, b))
    assert_entries(a.scale(s), [[s * x for x in row] for row in a.rows])
    assert_entries(a + c, [[x + y for x, y in zip(r, q)] for r, q in zip(a.rows, c.rows)])
    assert_entries(a.kron(c), [[x * y for x in r for y in q] for r in a.rows for q in c.rows])
    assert_entries(a - c, [[x - y for x, y in zip(r, q)] for r, q in zip(a.rows, c.rows)])


int_entries = st.integers(-2, 2)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=sizes, m=sizes)
def test_int_matrix_scaled_by_a_laurent(data, n, m):
    a = data.draw(matrices(int_entries, n, m))
    c = data.draw(RINGS["Laurent"])
    assert_entries(a.scale(c), [[c * x for x in row] for row in a.rows])


def test_onsager_h_holds_laurent_zeros():
    h = Matrix([[0, 1], [1, 0]]).scale(Laurent({0: 1}))
    assert_entries(h, [[Laurent({}), Laurent({0: 1})], [Laurent({0: 1}), Laurent({})]])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=sizes, m=sizes)
def test_fraction_matrix_plus_laurent_matrix(data, n, m):
    a = data.draw(matrices(RINGS["Fraction"], n, m))
    b = data.draw(matrices(RINGS["Laurent"], n, m))
    for x, y in ((a, b), (b, a)):
        assert_entries(x + y, [[p + q for p, q in zip(r, s)] for r, s in zip(x.rows, y.rows)])
        assert_entries(x - y, [[p - q for p, q in zip(r, s)] for r, s in zip(x.rows, y.rows)])


SQUARE = Matrix([[1, 2], [3, 4]])


@pytest.mark.parametrize("op, other, verb", [
    (lambda a, b: a + b, Matrix.identity(3), "add"),
    (lambda a, b: a - b, Matrix([[1, 2, 3], [4, 5, 6]]), "subtract"),
    (lambda a, b: a * b, Matrix.identity(3), "multiply"),
    (lambda a, b: a * b, Matrix([[1, 2]]), "multiply"),
])
def test_mismatched_shapes_are_refused(op, other, verb):
    with pytest.raises(ValueError, match=rf"cannot {verb} .*\(2, 2\) and \({other.size}, "):
        op(SQUARE, other)


def test_a_product_of_a_row_and_a_column():
    row, column = Matrix([[1, 2, 3]]), Matrix([[4], [5], [6]])
    assert (row * column).rows == [[32]]
    assert (column * row).rows == [[4, 8, 12], [5, 10, 15], [6, 12, 18]]
