from fractions import Fraction

import pytest

from mfal import alia, checks, checks_alia, liealg, modforms
from mfal.alia import JPoly, OddGrading
from mfal.linalg import Matrix

checks.load("all")  # the rows of every suite


# ----------------------------------------------------------------------
# golden cocycle graphs: one edge set per cocycle per orbit, transcribed
# from the rank-2 root diagrams.  Vertices are roots in simple-root
# coordinates; an edge means the (symmetric) cocycle takes value 1.
# ----------------------------------------------------------------------

def _edges(pairs):
    return {frozenset(p) for p in pairs}


A2_PRINCIPAL_W4 = _edges([
    (((1, 1)), ((-1, -1))),
    (((0, 1)), ((0, -1))),
    (((1, 0)), ((-1, 0))),
    (((1, 1)), ((-1, 0))),
    (((-1, 0)), ((0, -1))),
    (((1, 1)), ((0, -1))),
])
A2_PRINCIPAL_W6 = _edges([
    (((1, 0)), ((-1, 0))),
    (((0, 1)), ((0, -1))),
    (((-1, 0)), ((0, -1))),
    (((1, 0)), ((0, 1))),
])

_B2_SUB_BOTH = [
    ((0, 1), (0, -1)),
    ((1, 1), (-1, -1)),
    ((2, 1), (-2, -1)),
    ((0, 1), (-1, -1)),
    ((1, 1), (0, -1)),
    ((1, 1), (-2, -1)),
    ((2, 1), (-1, -1)),
]
B2_SUBREGULAR_W4 = _edges(_B2_SUB_BOTH)
B2_SUBREGULAR_W6 = _edges(_B2_SUB_BOTH)

B2_PRINCIPAL_W4 = _edges([
    ((1, 0), (-1, 0)),
    ((0, 1), (0, -1)),
    ((1, 1), (-1, -1)),
    ((1, 0), (1, 1)),
    ((-1, 0), (1, 1)),
    ((-1, 0), (-1, -1)),
    ((1, 1), (0, -1)),
    ((-1, 0), (0, -1)),
])
B2_PRINCIPAL_W6 = _edges([
    ((1, 0), (-1, 0)),
    ((0, 1), (0, -1)),
    ((2, 1), (-2, -1)),
    ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((2, 1), (-1, 0)),
    ((1, 0), (-2, -1)),
])

G2_SUBREGULAR_W4 = _edges([
    ((1, 1), (-1, -2)),
    ((1, 2), (-1, -1)),
    ((-1, -1), (-1, -2)),
    ((2, 3), (-1, -3)),
    ((2, 3), (-1, 0)),
    ((-1, 0), (-1, -3)),
    ((1, 0), (-1, -1)),
    ((2, 3), (-1, -1)),
    ((2, 3), (-1, -2)),
    ((1, 3), (-1, -2)),
    ((-1, 0), (1, 1)),
    ((-1, -3), (1, 2)),
    ((1, 0), (-1, 0)),
    ((1, 1), (-1, -1)),
    ((1, 2), (-1, -2)),
    ((1, 3), (-1, -3)),
    ((2, 3), (-2, -3)),
])
G2_SUBREGULAR_W6 = _edges([
    ((1, 1), (-1, -2)),
    ((1, 2), (-1, -1)),
    ((1, 2), (1, 1)),
    ((-1, -1), (-1, -2)),
    ((1, 0), (1, 3)),
    ((-1, 0), (-1, -3)),
    ((1, 3), (-1, -2)),
    ((1, 2), (-1, -3)),
    ((1, 1), (-1, 0)),
    ((1, 0), (-1, -1)),
    ((1, 0), (-1, 0)),
    ((1, 1), (-1, -1)),
    ((1, 2), (-1, -2)),
    ((1, 3), (-1, -3)),
])

G2_PRINCIPAL_W4 = _edges([
    ((0, 1), (1, 1)),
    ((-1, -1), (0, -1)),
    ((0, -1), (1, 1)),
    ((-1, 0), (2, 3)),
    ((-1, 0), (-1, -3)),
    ((-1, -3), (2, 3)),
    ((1, 3), (0, -1)),
    ((-1, 0), (0, -1)),
    ((-1, 0), (1, 1)),
    ((-2, -3), (1, 1)),
    ((-1, -3), (0, 1)),
    ((2, 3), (-1, -1)),
    ((1, 3), (-1, -3)),
    ((0, 1), (0, -1)),
    ((-1, -1), (1, 1)),
    ((-2, -3), (2, 3)),
    ((-1, 0), (1, 0)),
])
G2_PRINCIPAL_W6 = _edges([
    ((1, 2), (0, -1)),
    ((0, 1), (-1, -2)),
    ((0, 1), (1, 2)),
    ((-1, -2), (0, -1)),
    ((2, 3), (-1, 0)),
    ((-2, -3), (1, 0)),
    ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((1, 2), (-2, -3)),
    ((2, 3), (-1, -2)),
    ((2, 3), (-2, -3)),
    ((1, 2), (-1, -2)),
    ((0, 1), (0, -1)),
    ((1, 0), (-1, 0)),
])

A1_PRINCIPAL_W4 = _edges([((1,), (-1,))])
A1_PRINCIPAL_W6 = _edges([((1,), (-1,))])

GOLDEN = {
    ("A1", "principal"): (A1_PRINCIPAL_W4, A1_PRINCIPAL_W6),
    ("A2", "principal"): (A2_PRINCIPAL_W4, A2_PRINCIPAL_W6),
    ("B2", "subregular"): (B2_SUBREGULAR_W4, B2_SUBREGULAR_W6),
    ("B2", "principal"): (B2_PRINCIPAL_W4, B2_PRINCIPAL_W6),
    ("G2", "subregular"): (G2_SUBREGULAR_W4, G2_SUBREGULAR_W6),
    ("G2", "principal"): (G2_PRINCIPAL_W4, G2_PRINCIPAL_W6),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cocycle_tables_match_golden_graphs(key):
    w4_gold, w6_gold = GOLDEN[key]
    cp = alia.alia_table(*key).cocycles
    seen_w4 = {frozenset(p) for p, v in cp.w4.items() if v == 1}
    seen_w6 = {frozenset(p) for p, v in cp.w6.items() if v == 1}
    assert seen_w4 == w4_gold
    assert seen_w6 == w6_gold


def test_residue_exponents_table():
    assert [alia.residue_exponents(k) for k in (-6, -4, -2, 0, 2, 4, 6)] == [
        (0, 1), (2, 0), (1, 1), (0, 0), (2, 1), (1, 0), (0, 1),
    ]
    with pytest.raises(OddGrading):
        alia.residue_exponents(3)


def test_a2_worked_cocycle_values():
    cp = alia.alia_table("A2", "principal").cocycles
    assert (cp.w4[((1, 0), (0, 1))], cp.w6[((1, 0), (0, 1))]) == (0, 1)
    assert (cp.w4[((1, 0), (-1, 0))], cp.w6[((1, 0), (-1, 0))]) == (1, 1)


def test_zero_grade_pairs_vanish():
    cp = alia.alia_table("B2", "subregular").cocycles
    # alpha1 has grade 0: every pair of grade-zero roots maps to (0, 0)
    assert cp.w4[((1, 0), (-1, 0))] == 0
    assert cp.w6[((1, 0), (-1, 0))] == 0


def test_cocycles_symmetric_and_cocycle_condition():
    for check_id in ("alia.cocycle_values", "alia.cocycle_condition"):
        passed, detail = checks.check_identity(check_id, 32)
        assert passed, detail


def test_tables_jacobi_over_qj():
    for key in GOLDEN:
        assert alia.alia_table(*key).jacobi_ok()


def test_a1_table_is_barrel():
    t = alia.alia_table("A1", "principal")
    idx_h = t.index[("H", 0)]
    idx_e = t.index[("A", (1,))]
    idx_f = t.index[("A", (-1,))]
    one = JPoly.const(1)
    assert t.bracket({idx_h: one}, {idx_e: one}) == {idx_e: JPoly.const(2)}
    assert t.bracket({idx_h: one}, {idx_f: one}) == {idx_f: JPoly.const(-2)}
    assert t.bracket({idx_e: one}, {idx_f: one}) == {idx_h: JPoly((0, -1728, 1))}


def test_contraction_at_orbifold_points():
    t = alia.alia_table("A1", "principal")
    for j_val in (0, 1728):
        spec = checks_alia.SpecializedAlgebra(t, j_val)
        ef = spec.bracket(
            {t.index[("A", (1,))]: Fraction(1)}, {t.index[("A", (-1,))]: Fraction(1)}
        )
        assert ef == {}
        assert spec.is_solvable(within_steps=3)
        assert Matrix(spec.killing()).det() == 0


def test_generic_fiber_nondegenerate():
    t = alia.alia_table("A1", "principal")
    assert Matrix(checks_alia.SpecializedAlgebra(t, 5).killing()).det() != 0


def test_scalar_oracle_all_orbits():
    assert checks.check_identity("alia.scalar_oracle", 32)[0]


@pytest.mark.parametrize("order", [1, 4, 8])
def test_scalar_oracle_passes_at_low_order(order):
    # exponents of Delta, E4 and E6 hold at every order: no series is truncated
    detail, _ = checks.IDENTITIES["alia.scalar_oracle"]
    assert checks.check_identity("alia.scalar_oracle", order) == (True, detail)


def _scalar_oracle_failures():
    passed, detail = checks.check_identity("alia.scalar_oracle", 24)
    assert not passed
    return detail.removeprefix("failed: ").split("; ")


def test_scalar_oracle_names_the_pair_of_a_w6_off_by_one(monkeypatch):
    """w6 of one root pair of A2 principal raised to 2 on the built
    CocyclePair, past its own {0, 1} assertion: the pair, of grades (2, 2),
    now reads F_-2 F_-2 = (j-1728)^2 F_-4."""
    build, key, pair = alia.alia_table, ("A2", "principal"), ((0, 1), (1, 0))

    def raised(*args):
        table = build(*args)
        if args == key:
            table.cocycles.w6[pair] = 2
        return table

    # the edited tables are built fresh and do not outlive this test
    monkeypatch.setattr(alia, "_TABLE_CACHE", {})
    monkeypatch.setattr(alia, "alia_table", raised)
    assert _scalar_oracle_failures() == [
        f"A2 principal: F_-2 F_-2 = j^0 (j-1728)^2 F_-4, exponent of {name}"
        for name in ("Delta", "E6")]


def test_scalar_oracle_names_each_identity_of_an_l_off_by_one(monkeypatch):
    """The row reads F_10 = E4 E6 as Delta E4 E6: every identity with F_10 on
    one side, all of G2 principal, fails its exponent of Delta, and no other."""
    _, sides = checks.IDENTITIES["alia.scalar_oracle"]
    with_f10 = [name for name, _, _ in sides(24)
                if name.endswith("Delta") and ("F_10 " in name or "F_10," in name)]
    reading = checks_alia._f_exponents
    monkeypatch.setattr(checks_alia, "_f_exponents",
                        lambda k: (reading(k)[0] + (k == 10), *reading(k)[1:]))
    assert _scalar_oracle_failures() == with_f10
    assert len(with_f10) == 7 and all(name.startswith("G2 principal: ") for name in with_f10)


# ----------------------------------------------------------------------
# the q-series oracle of alia.scalar_oracle: both sides of each identity
# F_{-a} F_{-b} = j^w4 (j-1728)^w6 F_{-a-b} as q-expansions at one order
# ----------------------------------------------------------------------

ORACLE_ORDER = 24


def scalar_identities():
    """The distinct (k(a), k(b), w4, w6) of the six tables, in the row's order."""
    return list(dict.fromkeys(
        (*sorted((grading[a], grading[b])), w4, cocycles.w6[a, b])
        for key in liealg.ORBIT_LABELS
        for cocycles in [alia.alia_table(*key).cocycles]
        for grading in [cocycles.triple.grading]
        for (a, b), w4 in cocycles.w4.items()))


def series_oracle(order=ORACLE_ORDER):
    """identity -> (F_{-a} F_{-b}, j^w4 (j-1728)^w6 F_{-a-b}) valid below
    about `order`, each distinct identity computed once.  F_k is
    ``modforms.duke_jenkins``; j is built as deep as its powers need."""
    identities = scalar_identities()
    degree = max(w4 + w6 for *_, w4, w6 in identities)
    j = modforms.j_invariant(modforms.depth(order, (-1, degree))).series

    def f(k):
        return modforms.duke_jenkins(k, order)[3]

    factors = {(w4, w6): j ** w4 * (j - 1728) ** w6
               for w4, w6 in {identity[2:] for identity in identities}}
    return {(ka, kb, w4, w6): (f(-ka) * f(-kb), factors[w4, w6] * f(-ka - kb))
            for ka, kb, w4, w6 in identities}


def test_series_oracle_agrees_on_every_identity_of_the_row():
    oracle = series_oracle()
    _, sides = checks.IDENTITIES["alia.scalar_oracle"]
    row = {name.split(": ", 1)[1].rsplit(", exponent of ", 1)[0]
           for name, _, _ in sides(ORACLE_ORDER)}
    assert row == {f"F_{-ka} F_{-kb} = j^{w4} (j-1728)^{w6} F_{-ka - kb}"
                   for ka, kb, w4, w6 in oracle}
    assert len(oracle) == 36
    for identity, (lhs, rhs) in oracle.items():
        assert lhs.agrees(rhs), identity


def test_series_oracle_keeps_the_depth_of_j():
    """j's powers start from j itself, so j^w keeps the depth of j * ... * j,
    and every comparison of the oracle reaches q^(order - 2)."""
    j = modforms.j_invariant(ORACLE_ORDER).series
    assert (j ** 1).trunc == j.trunc
    assert (j ** 2).agrees(j * j) and (j ** 2).trunc == (j * j).trunc
    for identity, (lhs, rhs) in series_oracle().items():
        assert min(lhs.trunc, rhs.trunc) >= ORACLE_ORDER - 2, identity


@pytest.mark.parametrize("k", range(-40, 41, 2))
def test_row_reads_the_duke_jenkins_exponents(k):
    assert checks_alia._f_exponents(k) == modforms.duke_jenkins(k, 1)[:3]


def test_oracle_f2_fm2_is_j_j_1728():
    # F_2 F_{-2} = Delta^-2 E4^3 E6^2 = j (j - 1728)
    f2 = modforms.duke_jenkins(2, 40)[3]
    fm2 = modforms.duke_jenkins(-2, 40)[3]
    j = modforms.j_invariant(44).series
    assert (f2 * fm2).agrees(j * (j - 1728))


def test_oracle_discriminates_wrong_exponents():
    # the series route must reject cocycle exponents that are off by one
    f2 = modforms.duke_jenkins(2, 40)[3]
    fm2 = modforms.duke_jenkins(-2, 40)[3]
    j = modforms.j_invariant(44).series
    assert not (f2 * fm2).agrees(j)                       # missing (j-1728)
    assert not (f2 * fm2).agrees(j - 1728)                # missing j
    assert not (f2 * fm2).agrees(j * j * (j - 1728))      # extra j


def test_jacobi_detects_corrupted_table():
    t = alia.alia_table("A2", "principal")
    idx_e = t.index[("A", (1, 0))]
    idx_f = t.index[("A", (-1, 0))]
    key = (min(idx_e, idx_f), max(idx_e, idx_f))
    assert t.jacobi_ok()
    original = t._table[key]
    try:
        t._table[key] = {k: p * 7 for k, p in original.items()}
        assert not t.jacobi_ok()
    finally:
        t._table[key] = original


def test_sl2_bundle_certificates():
    assert checks.check_identity("quasimodular.sl2_bundle", 64)[0]


def test_levi_dimensions():
    assert checks_alia.levi_dimensions("A1", "principal") == (1, 0)
    radical, levi = checks_alia.levi_dimensions("B2", "subregular")
    assert levi >= 3


def test_jpoly_arithmetic():
    p = JPoly((0, 1))           # j
    q = JPoly((-1728, 1))       # j - 1728
    assert (p * q) == JPoly((0, -1728, 1))
    assert JPoly.j_power_form(1, 1) == p * q
    assert p(Fraction(3)) == 3


# det K(j) = c j^a (j - 1728)^b for the Killing matrix of each table over Q[j]
KILLING_DISCRIMINANTS = {
    ("A1", "principal"): (-128, 2, 2),
    ("A2", "principal"): (-5038848, 6, 4),
    ("B2", "principal"): (3869835264, 6, 6),
    ("B2", "subregular"): (3869835264, 6, 6),
    ("G2", "principal"): (9618527719784448, 10, 8),
    ("G2", "subregular"): (9618527719784448, 10, 8),
}


@pytest.mark.parametrize("key", sorted(KILLING_DISCRIMINANTS), ids="-".join)
def test_killing_determinant_over_qj(key):
    c, a, b = KILLING_DISCRIMINANTS[key]
    table = alia.alia_table(*key)
    killing = table.killing()
    assert all(isinstance(x, JPoly) for row in killing for x in row)
    det = Matrix(killing).det()
    assert det == JPoly.j_power_form(a, b) * c
    for j in (0, 5, 1728):
        assert det(j) == Matrix(checks_alia.SpecializedAlgebra(table, j).killing()).det()
