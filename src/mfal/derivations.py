"""The derivations of level-one forms: Serre's D_k and delta = (E4 E6/Delta) q d/dq.

D_k = q d/dq - (k/12) E2 maps weight k to weight k + 2, and with it
(E2, E4, E6) satisfy Ramanujan's system (the row `modforms.ramanujan`).
delta is a derivation of the weight-zero forms, with delta(j) = -j(j-1728)
(the row `modforms.delta_derivation`).  Both are built from the form store
of `mfal.modforms`; only `mfal verify core` imports this module, so `mfal
expand` compiles none of it.
"""

from fractions import Fraction

from .modforms import DEFAULT_ORDER, level_one_monomial, named_form
from .qseries import QSeries


def serre_derivative(k: int, f: QSeries) -> QSeries:
    """D_k f = q df/dq - (k/12) E_2 f, raising weight k to k + 2."""
    e2 = named_form("E2", f.trunc).series
    return f.q_derive() - e2 * f.scale(Fraction(k, 12))


def delta_derivation(f: QSeries) -> QSeries:
    """delta(f) = (E4 E6 / Delta) * q df/dq, a derivation of weight-zero forms."""
    return level_one_monomial(-1, 1, 1, f.trunc) * f.q_derive()


def delta_derivation_prefactor(order=DEFAULT_ORDER) -> QSeries:
    """q*E4*E6/Delta, the d/dq prefactor of the derivation; starts at 1."""
    return level_one_monomial(-1, 1, 1, Fraction(order) - 1).shift_exponents(1)
