"""Exact operation counts of the matrix kernel, the loop cocycle, the
Onsager lemmas and the q-series oracle of the scalar identities, and the
int arithmetic of the Chevalley tables.

Wall time on a shared host swings by 2x, so these pin the work itself: a
return to dense matrix products, to forming f' g for one residue, to
multiplying cyclotomic zeros or to Fraction constants, to an index sweep or
to computing a shared identity twice changes a count or a type here long
before a timing shows it.
"""

from fractions import Fraction

import pytest

from mfal import alia, checks, congruence, liealg, loopext, modforms, vvmf
from mfal.cyclotomic import CycloField, CycloNumber
from mfal.qseries import QSeries
from mfal.quasimodular import QuasiMatrix, QuasiPoly
from test_alia import series_oracle


def count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def count_dots(monkeypatch, cls):
    """For each call of ``cls.dot``, the number of pairs it visits and the
    number of those whose factors are both nonzero: the pairs it multiplies.
    A factor of the ring is read by its numerators, not its truth value, so
    the count calls no ``__bool__``."""
    sizes = []
    original = cls.dot.__func__

    def counted(ring, pairs):
        pairs = list(pairs)
        nonzero = [(x.nums if type(x) is ring else x) and (y.nums if type(y) is ring else y)
                   for x, y in pairs]
        sizes.append((len(pairs), sum(map(bool, nonzero))))
        return original(ring, pairs)

    monkeypatch.setattr(cls, "dot", classmethod(counted))
    return sizes


def count_canonical_steps(monkeypatch, cls):
    made = []
    original = cls._make.__func__

    def counted(ring, nums, den):
        if ring is cls:
            made.append(None)
        return original(ring, nums, den)

    monkeypatch.setattr(cls, "_make", classmethod(counted))
    return made


def test_phi_operator_products_touch_only_nonzero_entries(monkeypatch):
    calls = count_calls(monkeypatch, QuasiPoly, "__mul__")
    dots = count_dots(monkeypatch, QuasiPoly)
    phi = vvmf.PhiOperator(10)
    # the factors in closed form: each of the 2 x 66 entries on the
    # triangle of exp(tau E) and exp(y F) on Sym^10 is a power of tau or y
    # scaled by an int binomial, the 2 x 9 powers from the square up cost
    # one product each, and each factor makes its zero with one more; the
    # finite exponential sums of int matrix powers made 174, taking the
    # powers over QuasiPoly 308, and a kernel that scales zeros 2,598
    assert len(calls) == 152
    assert dots == [(1, 1)] * 18
    dots.clear()
    made = count_canonical_steps(monkeypatch, QuasiPoly)
    consts = count_calls(monkeypatch, QuasiPoly, "const")
    tests = count_calls(monkeypatch, QuasiPoly, "__bool__")
    phi.matrix
    # exp(tau E) is upper and exp(y F) lower triangular: each of the 121
    # entries sums the pairs of nonzero entries that meet, 506 in all, in
    # one dot and one canonical step, and one x * 0 makes the zero; a
    # product per pair makes 815 products here
    assert len(calls) == 153
    assert (len(dots), sum(m for _, m in dots)) == (121, 506)
    assert len(made) == 121 + 1
    # each dot visits the 11 pairs of a row and a column and skips a zero
    # factor by its empty numerators: no zero is read as a constant or truth
    # tested (a product per pair of nonzero entries tests each entry once,
    # 242 times, and a dot product per entry 2,057 times)
    assert sum(v for v, _ in dots) == 121 * 11
    assert (len(consts), len(tests)) == (0, 0)


def test_phi_determinant_and_inverse_make_one_canonical_step_per_dot(monkeypatch):
    det6, m5 = vvmf.PhiOperator(6).matrix, vvmf.PhiOperator(5).matrix
    made = count_canonical_steps(monkeypatch, QuasiPoly)
    assert det6.det() == 1
    # Berkowitz's dot products each make one polynomial; one per product
    # and per partial sum makes 955
    assert len(made) == 192
    made.clear()
    assert m5.inverse() * m5 == QuasiMatrix.identity(m5.size)
    # 2,628 with one canonical step per product and per partial sum
    assert len(made) == 454


@pytest.mark.parametrize("check_id, products", [
    ("loop.cocycle_monomials", 0),  # 177 if each residue forms f' g
    # the two-route lemmas form u_i' u_j once for each of the 16 ordered
    # pairs, on purpose; 72 more if each shortcut formed f' g as well
    ("loop.cocycle_properties", 16),
])
def test_cocycles_read_residues_without_products(monkeypatch, check_id, products):
    checks.load("loop")
    calls = count_calls(monkeypatch, loopext.RatFunc, "__mul__")
    assert checks.check_identity(check_id, 8)[0]
    assert len(calls) == products


def test_onsager_brackets_only_the_generic_generators(monkeypatch):
    checks.load("loop")
    calls = count_calls(monkeypatch, loopext.Laurent, "__mul__")
    dots = count_dots(monkeypatch, loopext.Laurent)
    assert checks.check_identity("loop.onsager", 8)[0]
    # three lemmas at generic indices and the Hauptmodul bracket: 61 calls
    # of `*`, 57 of them scalings, and 51 dots, 48 of them the entries of
    # 2x2 matrix products, that multiply 47 pairs (the fourth product of two
    # Laurents has a zero factor, which `*` returns as it is); with one `*`
    # per pair of a matrix product 105 calls, and the 751 relations to
    # index 10 make 8,391
    assert len(calls) == 61
    assert (len(dots), sum(m for _, m in dots)) == (51, 47)


def test_scalar_oracle_computes_each_distinct_identity_once(monkeypatch):
    # the row proves its identities on exponents; their q-series oracle is
    # test_alia.series_oracle, run on forms built fresh
    monkeypatch.setattr(modforms, "_STORE", {})
    calls = count_calls(monkeypatch, QSeries, "__mul__")
    inverses = count_calls(monkeypatch, QSeries, "inverse")
    assert len(series_oracle()) == 36
    # 21 build the forms, the 36 identities take two each and their four
    # factors j^w4 (j-1728)^w6 eight (four of them j**0 = j * 0 + 1); Delta
    # is three squarings of eta_cube(1), where E4^3 - E6^2 took three
    # products and the scalar -1 of the difference (39); the builds took 38
    # when each of the 8 monomials Delta^l E4^a E6^b with a zero exponent
    # also formed E**0 = E * 0 + 1 and multiplied by it (17 calls)
    assert len(calls) == 21 + 2 * 36 + 8
    # each F_k with k < 0 is a power of the one stored 1/Delta; 7 when each
    # monomial Delta^l E4^a E6^b inverts its own Delta
    assert len(inverses) == 1


def test_alia_suite_builds_each_graded_triple_once(monkeypatch):
    checks.load("alia")
    # the triples and tables are built fresh, as in a `verify alia` process
    monkeypatch.setattr(liealg, "_TRIPLE_CACHE", {})
    monkeypatch.setattr(alia, "_TABLE_CACHE", {})
    calls = count_calls(monkeypatch, liealg.GradedTriple, "__init__")
    assert all(passed for _, passed, _, _ in checks.run_suite("alia", 32))
    # one per orbit; 14 when the tables, the scalar oracle and the Levi
    # dimensions each build their own
    assert len(calls) == 6


def test_core_suite_builds_each_level_one_monomial_once(monkeypatch):
    checks.load("core")
    # the forms are built fresh, as in a `verify core` process
    monkeypatch.setattr(modforms, "_STORE", {})
    calls = count_calls(monkeypatch, QSeries, "inverse")
    assert all(passed for _, passed, _, _ in checks.run_suite("core", 32))
    # Delta^l E4^a E6^b comes from the form store, cut from its deepest
    # build, and for l < 0 from the store's 1/Delta, inverted only to go
    # deeper; 41 when each of the 41 requests builds its own (15 of them ask
    # for E4 E6 / Delta, 11 at one truncation for delta_derivation's
    # samples), 31 with a memo per (l, a, b, order), 29 with one inverse per
    # deepest build of each monomial
    assert len(calls) == 14


@pytest.mark.parametrize("type_label", ["A1", "A2", "B2", "G2"])
def test_chevalley_tables_compute_on_ints(type_label):
    st = liealg.chevalley(type_label)
    assert all(type(c) is int for acc in st._table.values() for c in acc.values())
    assert all(type(k) is int for row in st.killing() for k in row)
    x = {i: i + 1 for i in range(st.dim)}
    y = {i: 2 - i for i in range(st.dim)}
    assert all(type(c) is int for c in st.bracket(x, y).values())
    assert type(st.killing_form(x, y)) is int


def test_cocycle_monomials_multiply_no_cyclotomic_zero(monkeypatch):
    checks.load("loop")
    dots = count_dots(monkeypatch, CycloNumber)
    assert checks.check_identity("loop.cocycle_monomials", 8)[0]
    # the nonzero products of principal and Taylor coefficients, one per
    # lemma with m + n = 0 and K(x, y) != 0: the dots visit 236 pairs and
    # multiply these 20, skipping each pair with a zero factor
    assert (sum(n for n, _ in dots), sum(m for _, m in dots)) == (236, 20)


@pytest.mark.parametrize("check_id", [
    "loop.evaluation_rep",  # 333 with Fraction SymRep matrices and coordinates
    "loop.cocycle_monomials",  # 79 when CycloField.element wraps int coordinates
])
def test_loop_checks_make_no_fraction(monkeypatch, check_id):
    checks.load("loop")
    for t in ("A1", "A2"):
        liealg.chevalley(t)  # Carter's recursion divides; its Fractions are not counted
    calls = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(None)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert checks.check_identity(check_id, 8)[0]
    assert calls == []


@pytest.mark.parametrize("op", [lambda a, b: a * b, lambda a, b: a + b])
def test_a_zero_operand_keeps_the_field_check(op):
    f3, f4 = CycloField(3), CycloField(4)
    for a, b in ((f3.zero, f4.zeta), (f4.zeta, f3.zero), (f3.zero, f4.zero)):
        with pytest.raises(ValueError, match="arithmetic"):
            op(a, b)


@pytest.mark.parametrize("build, products", [
    # q^lead triple_product(1, 5) / eta_cube(5); 207 products, a factor
    # (1 - q^e) at a time
    (lambda: congruence.klein_form(Fraction(1, 5), 5, 512), 1),
    # q triple_product(1, 5)^5 / eta_cube(1): three products make the fifth
    # power and one the quotient; 220 through the Klein form and eta
    (lambda: congruence.gamma5_form_f(512), 4),
], ids=["klein_form", "gamma5_form_f"])
def test_klein_forms_divide_one_sum_by_another(monkeypatch, build, products):
    monkeypatch.setattr(modforms, "_STORE", {})
    calls = count_calls(monkeypatch, QSeries, "__mul__")
    inverses = count_calls(monkeypatch, QSeries, "inverse")
    build()
    assert (len(calls), len(inverses)) == (products, 1)


def test_polyhedral_cocycles_derive_each_function_once(monkeypatch):
    checks.load("loop")
    derivative = loopext.RatFunc.derivative
    taken = []

    def counted(f):
        taken.append(f._derivative is None)
        return derivative(f)

    monkeypatch.setattr(loopext.RatFunc, "derivative", counted)
    assert checks.check_identity("loop.polyhedral_cocycles", 8)[0]
    # 142 functions of the residue lemmas, and the 21 pairs of the rank
    # lemmas, whose loop_cocycle asks for f' at each of the M - 1 points,
    # 159 times; each function is derived once: 163 of 301 asks (301 when
    # every ask derives)
    assert (len(taken), sum(taken)) == (301, 163)
