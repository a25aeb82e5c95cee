import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from mfal import liealg, sl2
from mfal.liealg import NoRationalTriple, OddLabel
from mfal.linalg import Matrix
from mfal.quasimodular import QuasiMatrix, QuasiPoly


def test_root_counts():
    for t, count in (("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12)):
        rs = liealg.RootSystem(t)
        assert len(rs.roots) == count
        assert all(tuple(-x for x in r) in rs.root_set for r in rs.roots)


def test_b2_lengths():
    rs = liealg.RootSystem("B2")
    # alpha1 short, alpha2 long, per the label tables
    assert rs.inner(rs.simple[0], rs.simple[0]) == 2
    assert rs.inner(rs.simple[1], rs.simple[1]) == 4


def test_chevalley_magnitudes():
    a2 = liealg.chevalley("A2")
    assert {abs(v) for v in a2.eps.values()} == {1}
    g2 = liealg.chevalley("G2")
    assert {2, 3} <= {abs(v) for v in g2.eps.values()}


def test_chevalley_antisymmetry_conventions():
    for t in ("A2", "B2", "G2"):
        st = liealg.chevalley(t)
        for (a, b), v in st.eps.items():
            assert st.eps[(b, a)] == -v
            na = tuple(-x for x in a)
            nb = tuple(-x for x in b)
            assert st.eps[(na, nb)] == -v


def test_jacobi_all_types():
    for t in ("A1", "A2", "B2", "G2"):
        assert liealg.chevalley(t).jacobi_ok()


def test_jacobi_detects_wrong_sign():
    # build a fresh structure and flip one composite-root sign pair
    st = liealg.ChevalleyStructure(liealg.RootSystem("A2"))
    assert st.jacobi_ok()
    pair = ((1, 0), (0, 1))
    flipped = dict(st.eps)
    for p in (pair, (pair[1], pair[0])):
        flipped[p] = -flipped[p]
    # keep eps(-a,-b) = -eps(a,b) untouched: the flip is now inconsistent
    st.eps = flipped
    st._table = st._build_table()
    assert not st.jacobi_ok()


def test_killing_a1():
    a1 = liealg.chevalley("A1")
    h_idx = a1.index[("H", 0)]
    assert a1.killing()[h_idx][h_idx] == 8


def test_killing_associativity_sampled():
    rng = random.Random(31)
    for t in ("A2", "B2", "G2"):
        st = liealg.chevalley(t)
        for _ in range(6):
            x = {rng.randrange(st.dim): Fraction(rng.randint(1, 4))}
            y = {rng.randrange(st.dim): Fraction(rng.randint(-4, -1))}
            z = {rng.randrange(st.dim): Fraction(rng.randint(1, 3))}
            assert st.killing_form(st.bracket(x, y), z) == st.killing_form(
                x, st.bracket(y, z)
            )


def test_gradings_match_labels():
    gt = liealg.graded_triple("A2", "principal")
    assert gt.grading[(1, 0)] == 2 and gt.grading[(0, 1)] == 2
    assert gt.grading[(1, 1)] == 4
    gt = liealg.graded_triple("B2", "subregular")
    assert gt.grading[(1, 0)] == 0
    assert gt.grading[(0, 1)] == 2
    assert gt.grading[(1, 1)] == 2
    assert gt.grading[(2, 1)] == 2
    gt = liealg.graded_triple("G2", "subregular")
    assert gt.grading[(1, 0)] == 2 and gt.grading[(0, 1)] == 0
    assert gt.grading[(2, 3)] == 4


def test_grading_additive():
    for key in liealg.ORBIT_LABELS:
        gt = liealg.graded_triple(*key)
        rs = gt.structure.rs
        for a, b in itertools.product(rs.roots, repeat=2):
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_set:
                assert gt.grading[s] == gt.grading[a] + gt.grading[b]
        for r in rs.roots:
            assert gt.grading[tuple(-x for x in r)] == -gt.grading[r]


def test_triples_materialize():
    for key in liealg.ORBIT_LABELS:
        gt = liealg.graded_triple(*key)
        assert gt.triple_relations_hold()


def test_small_coefficient_vectors_repeat_no_candidate():
    # the six triples they find are pinned by test_linalg's TRIPLES
    for n in range(1, 5):
        stream = list(liealg._small_coefficient_vectors(n))
        assert stream[0] == (1,) * n
        assert len(set(stream)) == len(stream)


def test_trivial_labels():
    gt = liealg.GradedTriple("A2", (0, 0))
    assert gt.h_vector == {}
    assert gt.triple_relations_hold()


@pytest.mark.parametrize("name", ["h_coeffs", "h_vector", "e_vector", "f_vector"])
def test_no_rational_triple_raises_on_each_read(name):
    """The grading is built at once and the triple on the first read of h, e
    or f: with no grade-2 root, that read raises, and so does the next."""
    gt = liealg.GradedTriple("A1", (4,))
    assert gt.grading == {(-1,): -4, (1,): 4}
    for _ in range(2):
        with pytest.raises(NoRationalTriple, match="no grade-2 root vectors"):
            getattr(gt, name)


def test_odd_label_rejected():
    with pytest.raises(OddLabel):
        liealg.GradedTriple("A2", (1, 1))


def test_a1_adjoint_grading():
    gt = liealg.graded_triple("A1", "principal")
    assert sorted(gt.grading.values()) == [-2, 2]


def test_sym_rep_defining():
    rep = sl2.SymRep(1)
    assert rep.h == [[1, 0], [0, -1]]
    assert rep.e == [[0, 1], [0, 0]]
    assert rep.f == [[0, 0], [1, 0]]


def test_sym_rep_relations():
    for n in range(9):
        rep = sl2.SymRep(n)
        dim = rep.dim

        def mul(a, b):
            return [
                [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
                for i in range(dim)
            ]

        ef = mul(rep.e, rep.f)
        fe = mul(rep.f, rep.e)
        assert [[ef[i][j] - fe[i][j] for j in range(dim)] for i in range(dim)] == rep.h
        he = mul(rep.h, rep.e)
        eh = mul(rep.e, rep.h)
        assert [[he[i][j] - eh[i][j] for j in range(dim)] for i in range(dim)] == [
            [2 * x for x in row] for row in rep.e
        ]


def test_sym_rep_nilpotency_index():
    rep = sl2.SymRep(4)
    m = QuasiMatrix([[QuasiPoly.const(c) for c in row] for row in rep.e])
    p = m
    for _ in range(3):
        p = p * m
    assert not p.is_zero()  # E^4 != 0
    assert (p * m).is_zero()  # E^5 = 0


def test_exp_nilpotent_tau():
    tau = QuasiPoly.var("tau")
    upper, lower = sl2.unipotents(1, tau, tau)
    assert upper == [[QuasiPoly.const(1), tau], [QuasiPoly(), QuasiPoly.const(1)]]
    assert lower == [[QuasiPoly.const(1), QuasiPoly()], [tau, QuasiPoly.const(1)]]
    assert all(type(x) is QuasiPoly for rows in (upper, lower) for row in rows for x in row)


def _exponential_sum(gen, t):
    """sum_k (t gen)^k / k! for a nilpotent int matrix, by its matrix powers:
    the reference the closed form replaced."""
    m = Matrix(gen)
    total, power, k = Matrix.identity(m.size, t * 0 + 1), m, 1
    while not power.is_zero():
        total = total + power.scale(t ** k * Fraction(1, math.factorial(k)))
        power, k = power * m, k + 1
    return total.rows


@pytest.mark.parametrize("n", range(11))
def test_exp_nilpotent_over_fractions_is_sym_power(n):
    """exp(t E) and exp(t F) on Sym^n in closed form are Sym^n of the 2x2
    unipotents, and the finite exponential sums of t E and t F."""
    rep = sl2.SymRep(n)
    for t in (Fraction(3, 2), QuasiPoly.var("tau")):
        one, zero = t * 0 + 1, t * 0
        upper, lower = sl2.unipotents(n, t, t)
        assert upper == sl2.sym_power_matrix(n, ((one, t), (zero, one)))
        assert lower == sl2.sym_power_matrix(n, ((one, zero), (t, one)))
        assert (upper, lower) == (_exponential_sum(rep.e, t), _exponential_sum(rep.f, t))


def test_sym_power_right_column():
    tau = QuasiPoly.var("tau")
    base = (
        (QuasiPoly.const(1), tau),
        (QuasiPoly(), QuasiPoly.const(1)),
    )
    for n in (2, 3):
        mat = sl2.sym_power_matrix(n, base)
        for i in range(n + 1):
            assert mat[i][n] == tau ** (n - i)


def test_sym_power_multiplicativity():
    a = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    b = ((Fraction(1), Fraction(0)), (Fraction(3), Fraction(1)))
    ab = (
        (
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ),
        (
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ),
    )
    n = 3
    sa = sl2.sym_power_matrix(n, a)
    sb = sl2.sym_power_matrix(n, b)
    sab = sl2.sym_power_matrix(n, ab)
    dim = n + 1
    prod = [
        [sum(sa[i][k] * sb[k][j] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]
    assert prod == sab


@pytest.mark.parametrize("n", range(11))
def test_sym_power_of_an_int_matrix_is_int(n):
    """Sym^n of an int matrix has int entries, equal to the Fraction formula
    with coefficients C(n,j) C(n-j,u) C(j,v) / C(n,i)."""
    comb = math.comb
    for gamma in (((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, -3), (5, 7))):
        (a, b), (c, d) = gamma
        expected = [[0] * (n + 1) for _ in range(n + 1)]
        for j in range(n + 1):
            for u in range(n - j + 1):
                for v in range(j + 1):
                    coeff = Fraction(comb(n, j) * comb(n - j, u) * comb(j, v), comb(n, u + v))
                    expected[u + v][j] += a ** (n - j - u) * c ** u * b ** (j - v) * d ** v * coeff
        mat = sl2.sym_power_matrix(n, gamma)
        assert all(type(x) is int for row in mat for x in row)
        assert mat == expected


# sha256 of repr(sorted(chevalley(t).eps.items())), recorded from the
# backtracking sign search that Carter's recursion replaced
EPS_DIGESTS = {
    "A1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "A2": "4636e3e332daf03512e965d8ce278ac458e2eecd6681e23577b643faaa34bdae",
    "B2": "30f967bceb31e1ec90517346a600caa0441a0447c73dd7ef47139a0d798f7917",
    "G2": "d231d26f30fcd0a091a2f7abea2cd0688e0fa3c2676ccafb5f979970b3a98c3d",
}


@pytest.mark.parametrize("t", sorted(EPS_DIGESTS))
def test_chevalley_eps_digest(t):
    items = sorted(liealg.chevalley(t).eps.items())
    assert hashlib.sha256(repr(items).encode()).hexdigest() == EPS_DIGESTS[t]


@pytest.mark.parametrize("t", ["A1", "A2", "B2", "G2"])
def test_chevalley_eps_carter_relations(t):
    st = liealg.chevalley(t)
    rs = st.rs
    pairs = [
        (a, b) for a in rs.roots for b in rs.roots
        if any(x + y for x, y in zip(a, b))
        and tuple(x + y for x, y in zip(a, b)) in rs.root_set
    ]
    assert sorted(st.eps) == sorted(pairs)
    for a, b in pairs:
        # Carter (iii): |N(a, b)| = p + 1, p the length of the b-string below a
        assert abs(st.eps[(a, b)]) == rs.string_down(a, b) + 1
        # Carter (ii): a + b + c = 0 gives N(a, b)/(c, c) = N(b, c)/(a, a)
        c = tuple(-x - y for x, y in zip(a, b))
        assert Fraction(st.eps[(a, b)], rs.inner(c, c)) == Fraction(
            st.eps[(b, c)], rs.inner(a, a)
        )


def test_chevalley_extraspecial_pairs_are_positive():
    for t in ("A2", "B2", "G2"):
        st = liealg.chevalley(t)
        pos = st.rs.positive
        for xi in pos:
            split = [
                (a, tuple(x - y for x, y in zip(xi, a))) for a in pos
                if tuple(x - y for x, y in zip(xi, a)) in pos[pos.index(a) + 1:]
            ]
            if split:
                assert st.eps[split[0]] > 0, (t, xi)
