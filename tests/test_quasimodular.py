import random
from fractions import Fraction

import pytest

from mfal.quasimodular import (
    NotInvertible,
    QuasiMatrix,
    QuasiPoly,
    Sl2Bundle,
)

TAU = QuasiPoly.var("tau")
P = QuasiPoly.var("P")
Q = QuasiPoly.var("Q")
R = QuasiPoly.var("R")
S = QuasiPoly.var("s")


def test_ramanujan_images():
    assert QuasiPoly.const(7).d_tau().is_zero()
    assert TAU.d_tau() == S
    assert P.d_tau() == (P * P - Q).scale(Fraction(1, 12))
    assert Q.d_tau() == (P * Q - R).scale(Fraction(1, 3))
    assert R.d_tau() == (P * R - Q * Q).scale(Fraction(1, 2))
    assert S.d_tau().is_zero()


def test_leibniz_on_tau_square():
    assert (TAU * TAU).d_tau() == (S * TAU).scale(2)


def test_d_tau_leibniz_sampled():
    rng = random.Random(21)
    gens = [TAU, P, Q, R, S]
    for _ in range(10):
        a = gens[rng.randrange(5)] * gens[rng.randrange(5)] + QuasiPoly.const(rng.randint(-3, 3))
        b = gens[rng.randrange(5)] * gens[rng.randrange(5)] - gens[rng.randrange(5)]
        assert ((a * b).d_tau() - (a.d_tau() * b + a * b.d_tau())).is_zero()


def test_serre_D():
    assert QuasiPoly.const(3).serre_D(0).is_zero()
    # D_1 P = (P^2 - Q)/12 - P^2/12 = -Q/12
    assert P.serre_D(1) == Q.scale(Fraction(-1, 12))


def test_shift_tau():
    assert (TAU + P).shift_tau() == TAU + P + 1
    assert (TAU * TAU).shift_tau() == TAU * TAU + TAU.scale(2) + 1
    assert P.shift_tau() == P


def test_s_inverse_cancels():
    s_inv = QuasiPoly.monomial((0, 0, 0, 0, -1))
    assert (TAU + P) * s_inv * S == TAU + P


def test_substitute_series_matches_q_derive():
    for a in (P, Q, R, P * Q + R.scale(3)):
        lhs = a.d_tau().to_qseries(32)
        rhs = a.to_qseries(32).q_derive()
        assert lhs.agrees(rhs)


def test_substitute_series_rejects_s():
    with pytest.raises(ValueError):
        S.to_qseries(16)
    with pytest.raises(ValueError):
        TAU.to_qseries(16)


def test_matrix_inverse_identity():
    m = QuasiMatrix.identity(3)
    assert (m.inverse() - m).is_zero()


def test_matrix_inverse_unitriangular():
    m = QuasiMatrix([[QuasiPoly.const(1), TAU], [QuasiPoly(), QuasiPoly.const(1)]])
    inv = m.inverse()
    assert (m * inv - QuasiMatrix.identity(2)).is_zero()


def test_matrix_not_invertible():
    m = QuasiMatrix([[P, QuasiPoly()], [QuasiPoly(), QuasiPoly.const(1)]])
    with pytest.raises(NotInvertible):
        m.inverse()


def test_det_phi1_form():
    # [[tau*y + 1, tau], [y, 1]] with y = P/(12 s) has determinant 1
    y = QuasiPoly.monomial((0, 1, 0, 0, -1), Fraction(1, 12))
    m = QuasiMatrix([[TAU * y + 1, TAU], [y, QuasiPoly.const(1)]])
    assert m.det() == QuasiPoly.const(1)


def test_json_round_trip():
    a = TAU * P.scale(Fraction(3, 2)) - Q + QuasiPoly.monomial((0, 0, 0, 0, -2), 5)
    assert QuasiPoly.from_json(a.to_json()) == a


def test_pretty_uses_paper_names():
    y = QuasiPoly.monomial((1, 1, 0, 0, -1), Fraction(1, 12))
    assert "E2" in y.pretty() and "tau" in y.pretty()


def test_constructor_drops_zero_coefficients():
    zero = QuasiPoly({(0, 0, 0, 0, 0): Fraction(0)})
    assert not zero and zero == 0 and zero == QuasiPoly()
    assert zero.pretty() == "0"
    assert QuasiPoly({(1, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): 0}) == TAU.scale(2)


def test_from_json_drops_zero_coefficients():
    assert QuasiPoly.from_json([[[0, 0, 0, 0, 0], "0/1"]]) == QuasiPoly()


def test_constructor_copies_its_dict():
    d = {(1, 0, 0, 0, 0): Fraction(1)}
    poly = QuasiPoly(d)
    d[(1, 0, 0, 0, 0)] = Fraction(5)
    assert poly == TAU and poly.pretty() == "tau"


def test_only_s_takes_a_negative_exponent():
    for key in ((-1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, -2, 0, 0), (0, 0, 0, -1, 0)):
        with pytest.raises(ValueError, match="only s"):
            QuasiPoly({key: 1})
        with pytest.raises(ValueError, match="only s"):
            QuasiPoly.monomial(key)
    assert QuasiPoly({(0, 0, 0, 0, -3): 1}) * S**3 == 1


def test_f_squares_to_zero():
    b = Sl2Bundle()
    assert (b.f * b.f).is_zero()


def test_h_and_e_traceless():
    b = Sl2Bundle()
    for m in (b.h, b.e, b.f):
        assert sum((m.rows[i][i] for i in range(m.size)), QuasiPoly()).is_zero()


def test_h_and_e_exact_entries():
    # every entry pinned as a polynomial literal; the constants i*pi/3,
    # pi^2/36 etc. are rational multiples of powers of s = 1/(2 pi i)
    def mono(exps, c):
        return QuasiPoly.monomial(exps, c)

    b = Sl2Bundle()
    tau_p_over_6s = mono((1, 1, 0, 0, -1), Fraction(1, 6))
    assert b.h[0, 0] == tau_p_over_6s + 1
    assert b.h[0, 1] == mono((2, 1, 0, 0, -1), Fraction(-1, 6)) + mono((1, 0, 0, 0, 0), -2)
    assert b.h[1, 0] == mono((0, 1, 0, 0, -1), Fraction(1, 6))
    assert b.h[1, 1] == -(tau_p_over_6s + 1)
    assert b.e[0, 0] == mono((1, 2, 0, 0, -2), Fraction(-1, 144)) + mono((0, 1, 0, 0, -1), Fraction(-1, 12))
    assert b.e[0, 1] == (
        mono((2, 2, 0, 0, -2), Fraction(1, 144))
        + mono((1, 1, 0, 0, -1), Fraction(1, 6))
        + QuasiPoly.const(1)
    )
    assert b.e[1, 0] == mono((0, 2, 0, 0, -2), Fraction(-1, 144))
    assert b.e[1, 1] == mono((1, 2, 0, 0, -2), Fraction(1, 144)) + mono((0, 1, 0, 0, -1), Fraction(1, 12))
