"""Forms on the principal congruence groups Gamma(2) to Gamma(5).

The Gamma(2) generators F2, H2, the Gamma(3) lattice sums phi1, phi2 and
their fourth-order ODE, the Gamma(4) Hauptmodul mu, and the Klein forms with
the Gamma(5) form they make.  They are built from the level-one forms and
the sparse theta sums of `mfal.modforms`, whose store imports this module on
the first request for F2, H2, phi1, phi2, mu or f_gamma5: `mfal expand` of a
level-one form compiles none of it.  A pair's builder returns both forms and
the store files both, so this module never reads the store's layout.
"""

from fractions import Fraction
from math import ceil

from . import modforms
from .modforms import DEFAULT_ORDER, NamedForm, Unsupported
from .qseries import QSeries


# ----------------------------------------------------------------------
# Gamma(2)
# ----------------------------------------------------------------------

def gamma2_generators(order=DEFAULT_ORDER):
    """(F2, H2): F2 = 2 E2(2 tau) - E2(tau) and H2 = F2(tau/2) generate the
    Gamma(2) forms; their theta fourth-power combinations are the
    `theta.gamma2_combinations` row of the identity table."""
    wide = 2 * Fraction(order)  # F2 must be known twice as deep to halve tau
    e2 = modforms.named_form("E2", wide).series
    f2 = e2.rescale_tau(2).truncate(wide).scale(2) - e2
    h2 = f2.rescale_tau(Fraction(1, 2))
    return (
        NamedForm("F2", 2, "Gamma(2)", f2.truncate(order)),
        NamedForm("H2", 2, "Gamma(2)", h2),
    )


# ----------------------------------------------------------------------
# Gamma(3): lattice sums and the quartic/sextic relations
# ----------------------------------------------------------------------

def gamma3_generators(order=DEFAULT_ORDER):
    """(phi1, phi2): the two weight-1 generators as hexagonal lattice sums."""
    bound = ceil(2 * (ceil(order) ** 0.5)) + 2
    phi1_counts: dict[int, int] = {}
    phi2_counts: dict[int, int] = {}
    phi2_limit = order - Fraction(1, 3)  # w + 1/3 < order
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            v = x * x - x * y + y * y
            if v < order:
                phi1_counts[v] = phi1_counts.get(v, 0) + 1
            w = v + x - y
            if w < phi2_limit:
                phi2_counts[w] = phi2_counts.get(w, 0) + 1
    phi1 = QSeries.from_terms(phi1_counts.items(), trunc=order)
    phi2 = QSeries.from_terms(
        ((Fraction(1, 3) + e, c) for e, c in phi2_counts.items()), trunc=order
    )
    return (
        NamedForm("phi1", 1, "Gamma(3)", phi1),
        NamedForm("phi2", 1, "Gamma(3)", phi2),
    )


def ferapontov_ode_terms(order=DEFAULT_ORDER):
    """The five terms of the integrable-Lagrangian fourth-order ODE satisfied
    by g = phi1, which sum to zero (the row `gamma.ferapontov_ode`).

    Every term has total derivative order 6 and degree 4, so q*d/dq may
    stand in for the tau-derivative: the 2*pi*i powers cancel.
    """
    g = modforms.named_form("phi1", order).series
    g1 = g.q_derive()
    g2 = g1.q_derive()
    g3 = g2.q_derive()
    g4 = g3.q_derive()
    return [
        g4 * (g**2 * g2 - (g * g1**2).scale(2)),
        (g1**2 * g2**2).scale(-9),
        (g * g1 * g2 * g3).scale(2),
        (g1**3 * g3).scale(8),
        -(g**2 * g3**2),
    ]


# ----------------------------------------------------------------------
# Gamma(4) and Gamma(5)
# ----------------------------------------------------------------------

def mu_gamma4(order=DEFAULT_ORDER) -> NamedForm:
    """Hauptmodul mu = theta4^2 / (theta2^2 + theta3^2) for Gamma(4).

    Uses squared theta3 throughout; the cusp at infinity then lands at 1.
    """
    t2, t3, t4 = (modforms.named_form(f"theta{i}", order).series for i in (2, 3, 4))
    series = (t4**2 / (t2**2 + t3**2)).truncate(order)
    return NamedForm("mu", 0, "Gamma(4)", series)


def klein_form(r1, scale: int = 1, order=DEFAULT_ORDER) -> NamedForm:
    """Klein form k_{r1,0}(scale*tau) for rational r1 in (0,1).

    q_z^{(r1-1)/2} (q_z; qs)(qs/q_z; qs) / (qs; qs)^2 with qs = q^scale and
    q_z = q^{scale*r1}, which is one sparse sum over another (D. Kubert and
    S. Lang, Modular Units): q^lead triple_product(scale*r1, scale) /
    eta_cube(scale).  The r2 != 0 case needs cyclotomic coefficients and is
    not provided.
    """
    r1 = Fraction(r1)
    if not 0 < r1 < 1:
        raise Unsupported("r1 must lie strictly between 0 and 1")
    lead = scale * r1 * (r1 - 1) / 2  # the unit part must reach order - lead
    unit = (modforms.triple_product(r1 * scale, scale, order - lead)
            / modforms.eta_cube(scale, order - lead))
    return NamedForm(f"klein({r1};{scale}tau)", -1, f"Gamma({scale})", unit.shift_exponents(lead))


def gamma5_form_f(order=DEFAULT_ORDER) -> NamedForm:
    """eta(5 tau)^15 klein_{1/5,0}(5 tau)^5 / eta(tau)^3 for Gamma(5), weight 1.

    k^5 = q^-2 triple_product(1, 5)^5 (q^5; q^5)^-15, whose last factor cancels
    eta(5 tau)^15 = q^(25/8) (q^5; q^5)^15, and eta^3 = q^(1/8) eta_cube(1): it is
    q triple_product(1, 5)^5 / eta_cube(1), as 25/8 - 2 - 1/8 = 1.  The sums
    reach depth 1 at least, the relative precision `depth` keeps, so order 1
    gives the zero series.  Each factor is nonvanishing on the upper
    half-plane, a statement about the product formula, not this expansion.
    """
    deep = max(Fraction(order) - 1, 1)
    series = modforms.triple_product(1, 5, deep) ** 5 / modforms.eta_cube(1, deep)
    return NamedForm("f_gamma5", 1, "Gamma(5)", series.shift_exponents(1).truncate(order))


# ----------------------------------------------------------------------
# the store's builders
# ----------------------------------------------------------------------

#: name -> builder of the forms of `modforms.REGISTERED_NAMES` made here; a
#: pair's builder returns both forms, and the store keeps both
BUILDERS = {
    "mu": lambda order: mu_gamma4(order),
    "phi1": lambda order: gamma3_generators(order),
    "phi2": lambda order: gamma3_generators(order),
    "F2": lambda order: gamma2_generators(order),
    "H2": lambda order: gamma2_generators(order),
    "f_gamma5": lambda order: gamma5_form_f(order),
}
