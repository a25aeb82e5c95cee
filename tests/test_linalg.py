"""mfal.linalg against sympy as an independent oracle.

sympy and hypothesis are test-only dependencies; the package itself must
not import them.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mfal import alia, liealg, vvmf
from mfal.linalg import Matrix, _det, rank, rref, solve
from mfal.quasimodular import QuasiMatrix, QuasiPoly


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])


def from_sympy(mat):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in mat.tolist()]


def random_rows(rng, n_rows, n_cols, spread=5):
    return [
        [Fraction(rng.randint(-spread, spread), rng.randint(1, 3)) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_det_and_adjugate_match_sympy(n):
    rng = random.Random(1000 + n)
    rows = random_rows(rng, n, n)
    expected = to_sympy(rows)
    det, adj = Matrix(rows).det_adjugate()
    assert det == Matrix(rows).det() == Fraction(str(expected.det()))
    assert adj.rows == from_sympy(expected.adjugate())


def test_singular_det_and_adjugate():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(5)]]
    det, adj = Matrix(rows).det_adjugate()
    assert det == 0
    assert adj.rows == from_sympy(to_sympy(rows).adjugate())


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_adjugate_identity(rows):
    m = Matrix(rows)
    det, adj = m.det_adjugate()
    det_identity = Matrix.identity(m.size, Fraction(1)).scale(det)
    assert m * adj == det_identity and adj * m == det_identity


# entries that are zero half the time, so supports fall apart into blocks
sparse_entries = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def permuted_blocks(draw):
    """A direct sum of square blocks with random zero patterns, its rows and
    columns permuted alike: a matrix whose support graph has components."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for k in sizes:
        for i in range(start, start + k):
            for j in range(start, start + k):
                rows[i][j] = draw(sparse_entries)
        start += k
    perm = draw(st.permutations(range(n)))
    return [[rows[pi][pj] for pj in perm] for pi in perm]


def dense(entries):
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=120, deadline=None)
@given(st.one_of(permuted_blocks(), dense(rationals), dense(sparse_entries)))
def test_det_by_blocks_is_the_determinant_of_the_whole_matrix(rows):
    m = Matrix(rows)
    det = m.det()
    assert det == _det(m.charpoly())
    assert det == Fraction(str(to_sympy(rows).det()))


def test_det_by_blocks_on_the_killing_matrices_and_phi(monkeypatch):
    """The six alia Killing matrices over Q[j] fall apart into the Cartan
    block and one 2x2 block per pair of roots +-a; Phi_n is one block."""
    blocks = []
    charpoly = Matrix.charpoly

    def counted(self):
        blocks.append(self.size)
        return charpoly(self)

    monkeypatch.setattr(Matrix, "charpoly", counted)
    for key in liealg.ORBIT_LABELS:
        k = Matrix(alia.alia_table(*key).killing())
        whole = _det(k.charpoly())
        blocks.clear()
        assert k.det() == whole
        rank = liealg.chevalley(key[0]).rs.rank
        assert sorted(blocks) == sorted([rank] + [2] * ((k.size - rank) // 2))
    for n in range(7):
        m = vvmf.phi(n).matrix
        assert m.det() == _det(m.charpoly()) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(st.sampled_from([Fraction(0)] * 3 + [Fraction(k, 2) for k in range(-4, 5)]),
             min_size=c, max_size=c),
    min_size=1, max_size=6)))
def test_rref_matches_sympy(rows):
    reduced, pivots = rref(rows)
    expected, expected_pivots = to_sympy(rows).rref()
    assert pivots == list(expected_pivots)
    assert reduced == from_sympy(expected)[: len(pivots)]
    assert rank(rows) == len(pivots)


@pytest.mark.parametrize("seed", range(12))
def test_solve_matches_sympy(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
    mat = random_rows(rng, n_rows, n_cols, spread=3)
    if seed % 3 == 0 and n_rows > 1:
        mat[-1] = [a + b for a, b in zip(mat[0], mat[1 % n_rows])]  # force a dependency
    rhs = [Fraction(rng.randint(-4, 4)) for _ in range(n_rows)]
    sol = solve(mat, rhs)
    augmented = to_sympy([row + [b] for row, b in zip(mat, rhs)])
    consistent = n_cols not in augmented.rref()[1]
    assert (sol is not None) == consistent
    if consistent:
        assert [sum(a * x for a, x in zip(row, sol)) for row in mat] == rhs
        _, pivots = rref(mat)
        assert all(x == 0 for c, x in enumerate(sol) if c not in pivots)


def test_int_entries_reduce_exactly():
    # an int pivot p must divide as Fraction(1, p): the float 1 / p drops the
    # 1 in 10**17 + 1 and reads this determinant-1 matrix as rank 1
    rows = [[10**17, 10**17 + 1], [10**17 - 1, 10**17]]
    assert rank(rows) == 2
    reduced, pivots = rref(rows)
    assert reduced == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert all(type(x) is Fraction for row in reduced for x in row)
    sol = solve([[3, 1], [1, 3]], [1, 0])
    assert sol == [Fraction(3, 8), Fraction(-1, 8)]
    assert all(type(x) is Fraction for x in sol)


SYMBOLS = sympy.symbols("tau P Q R s")


def poly_to_sympy(poly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*(x**e for x, e in zip(SYMBOLS, key)))
         for key, c in poly.terms.items()),
        sympy.Integer(0),
    )


def random_quasipoly(rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = tuple(rng.randint(0, 2) for _ in range(4)) + (rng.randint(-1, 1),)
        terms[key] = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return QuasiPoly(terms)


@pytest.mark.parametrize("seed", range(4))
def test_quasipoly_det_matches_sympy(seed):
    rng = random.Random(500 + seed)
    rows = [[random_quasipoly(rng) for _ in range(4)] for _ in range(4)]
    ours = poly_to_sympy(QuasiMatrix(rows).det())
    # cofactor expansion: an algorithm independent of Berkowitz, and fast at 4x4
    expected = sympy.Matrix([[poly_to_sympy(e) for e in row] for row in rows]).det(method="laplace")
    assert sympy.expand(ours - expected) == 0


@pytest.mark.parametrize("n", [7, 8])
def test_phi_unimodular_beyond_cofactor_range(n):
    assert vvmf.phi(n).determinant() == 1


def test_phi6_inverse():
    m = vvmf.phi(6).matrix
    assert m.inverse() * m == QuasiMatrix.identity(m.size)


# h_coeffs, e_vector and f_vector of the six orbits, pinned: solve sets free
# variables to 0 in the unique reduced echelon form, so these must not move
TRIPLES = {
    ("A1", "principal"): (("1",), {2: "1"}, {1: "1"}),
    ("A2", "principal"): (("2", "2"), {5: "1", 6: "1"}, {3: "2", 4: "2"}),
    ("B2", "subregular"): (("1", "2"), {6: "1", 8: "1", 9: "1"}, {2: "1/2", 3: "1/2", 5: "1/2"}),
    ("B2", "principal"): (("3", "4"), {6: "1", 7: "1"}, {4: "3", 5: "4"}),
    ("G2", "subregular"): (("4", "2"), {9: "1", 10: "1", 11: "1", 12: "2"}, {3: "2", 4: "-2", 5: "2"}),
    ("G2", "principal"): (("10", "6"), {8: "1", 9: "1"}, {6: "10", 7: "6"}),
}


@pytest.mark.parametrize("key", sorted(TRIPLES))
def test_graded_triples_unchanged(key):
    h, e, f = TRIPLES[key]
    triple = liealg.graded_triple(*key)
    assert triple.h_coeffs == tuple(Fraction(c) for c in h)
    assert triple.e_vector == {k: Fraction(c) for k, c in e.items()}
    assert triple.f_vector == {k: Fraction(c) for k, c in f.items()}


def test_cli_import_loads_no_test_dependencies():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mfal.cli; print(sorted({'sympy', 'hypothesis'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
