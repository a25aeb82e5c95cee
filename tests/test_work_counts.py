"""Exact operation counts of the matrix kernel, the loop cocycle, the
Onsager lemmas and the scalar oracle, and the int arithmetic of the
Chevalley tables.

Wall time on a shared host swings by 2x, so these pin the work itself: a
return to dense matrix products, to forming f' g for one residue, to
multiplying cyclotomic zeros or to Fraction constants, to an index sweep or
to computing a shared identity twice changes a count or a type here long
before a timing shows it.
"""

import sys
from fractions import Fraction
from functools import partial

import pytest

from mfal import checks, liealg, loopext, modforms, vvmf
from mfal.cyclotomic import CycloField
from mfal.qseries import QSeries
from mfal.quasimodular import QuasiPoly


def count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_phi_operator_products_touch_only_nonzero_entries(monkeypatch):
    calls = count_calls(monkeypatch, QuasiPoly, "__mul__")
    phi = vvmf.PhiOperator(10)
    # the two exp_nilpotent series of 11x11 nilpotent matrices; a kernel
    # that scales zeros makes 2,598
    assert len(calls) == 308
    tests = count_calls(monkeypatch, QuasiPoly, "__bool__")
    phi.matrix
    # exp(tau E) is upper and exp(y F) lower triangular: 506 pairs of
    # nonzero entries meet, plus one x * 0 for the zero
    assert len(calls) == 815
    # each entry of either factor is tested once; a dot product per entry
    # of the result tests 2,057 times
    assert len(tests) == 242


@pytest.mark.parametrize("check_id, products", [
    ("loop.cocycle_monomials", 0),  # 676 if each cocycle forms f' g
    ("loop.cocycle_properties", 1),  # 487 likewise; the one left builds the sample u_1
])
def test_cocycles_read_residues_without_products(monkeypatch, check_id, products):
    checks.load("loop")
    calls = count_calls(monkeypatch, loopext.RatFunc, "__mul__")
    assert checks.check_identity(check_id, 8)[0]
    assert len(calls) == products


def test_onsager_brackets_only_the_generic_generators(monkeypatch):
    checks.load("loop")
    calls = count_calls(monkeypatch, loopext.Laurent, "__mul__")
    assert checks.check_identity("loop.onsager", 8)[0]
    # three lemmas at generic indices and the Hauptmodul bracket; the 751
    # relations to index 10 make 8,391
    assert len(calls) == 105


def test_scalar_oracle_computes_each_distinct_identity_once(monkeypatch):
    checks.load("alia")
    # the forms are built fresh, as in a `verify alia` process; 39 of the
    # products build them
    monkeypatch.setattr(modforms, "_STORE", {})
    calls = count_calls(monkeypatch, QSeries, "__mul__")
    assert checks.check_identity("alia.scalar_oracle", 24)[0]
    # 36 distinct identities named by 66 rows; 183 when each row computes its own
    assert len(calls) == 115


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
    made = []
    original = CycloField._make

    def counted(field, nums, den):
        made.append(sys._getframe(1).f_code.co_name)
        return original(field, nums, den)

    monkeypatch.setattr(CycloField, "_make", counted)
    assert checks.check_identity("loop.cocycle_monomials", 8)[0]
    # the nonzero products of principal and Taylor coefficients; a product
    # that multiplies its zero operands makes 2,848
    assert made.count("__mul__") == 48


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
    run = checks.CHECKS.get(check_id) or partial(checks.check_identity, check_id)
    assert run(8)[0]
    assert calls == []


@pytest.mark.parametrize("op", [lambda a, b: a * b, lambda a, b: a + b])
def test_a_zero_operand_keeps_the_field_check(op):
    f3, f4 = CycloField(3), CycloField(4)
    for a, b in ((f3.zero, f4.zeta), (f4.zeta, f3.zero), (f3.zero, f4.zero)):
        with pytest.raises(ValueError, match="arithmetic"):
            op(a, b)
