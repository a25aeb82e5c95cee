"""Exact operation counts of the matrix kernel and the loop cocycle.

Wall time on a shared host swings by 2x, so these pin the work itself: a
return to dense matrix products or to forming f' g for one residue changes
a count here long before a timing shows it.
"""

import pytest

from mfal import checks, loopext, vvmf
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
