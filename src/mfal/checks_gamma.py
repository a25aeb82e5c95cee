"""The `gamma` suite of `mfal verify`: forms on Gamma(3), Gamma(4) and
Gamma(5), and the weight-zero isomorphisms of Gamma(2) to Gamma(5).

It imports only the q-series half: `modforms` and `qseries`.
"""

from __future__ import annotations

from fractions import Fraction

from . import modforms
from .modforms import series


def check_ferapontov(order):
    if not modforms.ferapontov_ode_check(order):
        return False, "ODE failed"
    if any(t.is_zero() for t in modforms.ferapontov_ode_terms(min(order, 32))):
        return False, "an individual ODE term vanishes (degenerate check)"
    return True, "fourth-order ODE for phi1, all five terms active"


def _rel3(order):
    u, v, e4, e6 = (series(name, order) for name in ("phi1", "phi2", "E4", "E6"))
    yield "E4 = u^4 + 8 u v^3", e4, u**4 + (u * v**3).scale(8)
    yield "E6 = u^6 - 20 u^3 v^3 - 8 v^6", e6, u**6 - (u**3 * v**3).scale(20) - (v**6).scale(8)


def _mu(order):
    mu = series("mu", order)
    yield "mu has constant term 1", mu.coefficient(0), 1
    yield "the denominator of mu's exponents divides 4", 4 % mu.denom, 0


def _klein(order):
    k = modforms.klein_form(Fraction(1, 5), 5, order).series
    yield "klein(1/5; 5t) has valuation -2/5", k.valuation, Fraction(-2, 5)
    yield "klein(1/5; 5t)^5 has valuation -2", (k**5).valuation, -2
    f = series("f_gamma5", order)
    yield "Gamma(5) f has valuation 1", f.valuation, 1
    yield "Gamma(5) f has leading coefficient 1", f.coefficient(f.valuation), 1


def _weight_zero_iso(order):
    """For each principal congruence group, the nonvanishing form of its
    weight-zero isomorphism: its valuation, leading coefficient 1 and
    f f^-1 = 1, a unit at the cusp.  Nonvanishing on the upper half-plane is
    quoted, not checked."""
    order = max(24, min(order, 32))
    for group, name, f, valuation in (
        ("Gamma(2)", "theta3^4", series("theta3", order) ** 4, 0),
        ("Gamma(3)", "eta(3t)^3/eta(t)", modforms.eta_quotient([(3, 3), (1, -1)], order),
         Fraction(1, 3)),
        ("Gamma(4)", "eta(4t)^4/eta(2t)^2", modforms.eta_quotient([(4, 4), (2, -2)], order),
         Fraction(1, 2)),
        ("Gamma(5)", "eta(5t)^15 klein(1/5;5t)^5/eta(t)^3", series("f_gamma5", order), 1),
    ):
        yield f"{group} {name} has valuation {valuation}", f.valuation, valuation
        yield f"{group} {name} has leading coefficient 1", f.coefficient(f.valuation), 1
        yield f"{group} {name} f^-1 = 1", f * f.inverse(), f.scale(0) + 1


IDENTITIES = {
    "gamma.rel3": ("E4, E6 as polynomials in phi1, phi2", _rel3),
    "gamma.mu_hauptmodul": ("cusp value 1, quarter-integral lattice", _mu),
    "gamma.klein_forms": ("Klein form exponents and the Gamma(5) weight-1 form", _klein),
    "gamma.weight_zero_iso": (
        "nonvanishing forms invertible at the cusp, all four groups", _weight_zero_iso),
}

CHECKS = {"gamma.ferapontov_ode": check_ferapontov}
