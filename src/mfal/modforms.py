"""Named scalar modular forms and the store that builds and shares them.

Everything is an exact QSeries in q = exp(2*pi*i*tau).  Forms classically
written in the nome exp(pi*i*tau) (theta constants, lambda) live here with
half/quarter/eighth-integral exponents so that a single exponent lattice
serves the whole package.  Euler's product and the Klein forms are Jacobi's
sparse theta sums (`triple_product`, `eta_cube`).  The identities between
these forms that `mfal verify` certifies are declared once each, as rows of
the identity table `IDENTITIES` of the suite's module `mfal.checks_<suite>`,
which `mfal.checks.load` gathers into `mfal.checks.IDENTITIES`.
"""

from __future__ import annotations

import cmath
import threading
from fractions import Fraction
from functools import reduce
from math import ceil, comb, isqrt
from operator import mul

from . import RESIDUE_TABLE
from .qseries import DEFAULT_ORDER, QSeries


class OddWeight(ValueError):
    """Weight-k basis requested for odd k, where the space is zero."""


class Unsupported(ValueError):
    """Requested variant is outside the implemented family."""


class UnknownForm(KeyError):
    """Registry lookup for a name that is not defined."""


class NamedForm:
    """A q-expansion tagged with its weight and congruence group."""

    __slots__ = ("name", "weight", "group", "series")

    def __init__(self, name: str, weight, group: str, series: QSeries):
        self.name = name
        self.weight = Fraction(weight)
        self.group = group
        self.series = series

    def __repr__(self):
        return f"NamedForm({self.name!r}, weight={self.weight}, group={self.group})"


# ----------------------------------------------------------------------
# arithmetic helpers
# ----------------------------------------------------------------------

def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k for even k >= 0 (B_1 convention never needed)."""
    if k < 0 or k % 2:
        raise ValueError("only even nonnegative indices are supported")
    b = [Fraction(1)]
    for n in range(1, k + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += comb(n + 1, j) * b[j]
        b.append(-acc / (n + 1))
    return b[k]


def sigma(n: int, m: int) -> int:
    """Sum of m-th powers of the divisors of n."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**m
            e = n // d
            if e != d:
                total += e**m
    return total


def depth(order, *powers) -> Fraction:
    """How deep to build f_1, f_2, ... so prod f_i(m_i tau)**e_i is valid below `order`.

    `powers` are the triples (valuation v_i, exponent e_i, rescale m_i), or
    pairs (v_i, e_i) for m_i = 1, one for every factor, valuation 0 ones
    too.  f_i built at depth D is valid below D, so f_i(m_i tau) has
    valuation m_i v_i and relative precision m_i (D - v_i).  QSeries keeps
    the relative precision (trunc minus valuation) through ``*``,
    ``inverse`` and ``**``, so the product, of valuation
    V = sum e_i m_i v_i, is valid below V + min m_i (D - v_i) over e_i != 0.
    The least D reaching `order` is the largest (order - V) / m_i + v_i,
    which is order - V + max v_i when nothing is rescaled.  A product that
    vanishes below `order` (V >= order) still gets one unit of relative
    precision, so every factor keeps its leading term.
    """
    powers = [(Fraction(v), e, Fraction(m[0] if m else 1)) for v, e, *m in powers if e]
    if not powers:
        return Fraction(order)
    rest = max(Fraction(order) - sum(e * m * v for v, e, m in powers), Fraction(1))
    return max(rest / m + v for v, _, m in powers)


# ----------------------------------------------------------------------
# level one
# ----------------------------------------------------------------------

def eisenstein(k: int, order=DEFAULT_ORDER) -> NamedForm:
    """E_k = 1 - (2k/B_k) * sum sigma_{k-1}(n) q^n, even k >= 2."""
    if k < 2 or k % 2:
        raise ValueError("Eisenstein series defined here for even k >= 2")
    factor = Fraction(-2 * k) / bernoulli(k)
    terms = [(0, Fraction(1))]
    for n in range(1, ceil(order)):
        terms.append((n, factor * sigma(n, k - 1)))
    return NamedForm(f"E{k}", k, "Gamma(1)", QSeries.from_terms(terms, trunc=order))


def triple_product(a, s, order=DEFAULT_ORDER) -> QSeries:
    """(q^a; q^s)(q^(s-a); q^s)(q^s; q^s), 0 < a < s, by Jacobi's triple product
    (G. E. Andrews, The Theory of Partitions, Thm. 2.8): the sum over n of
    (-1)^n q^(a n + s n(n-1)/2), read as the pairs n, 1 - n, lower exponent
    first.  At (1, 3) it is Euler's pentagonal number theorem for (q; q)."""
    terms, n = [], 1
    while (low := a * (1 - n) + s * comb(n, 2)) < order:
        terms += [(low, (-1) ** (n - 1)), (low + a * (2 * n - 1), (-1) ** n)]
        n += 1
    return QSeries.from_terms(terms, trunc=order)


def eta_cube(s, order=DEFAULT_ORDER) -> QSeries:
    """(q^s; q^s)^3 by Jacobi's identity: the sum over m >= 0 of
    (-1)^m (2m + 1) q^(s m(m+1)/2)."""
    terms, m = [], 0
    while s * comb(m + 1, 2) < order:
        terms.append((s * comb(m + 1, 2), (-1) ** m * (2 * m + 1)))
        m += 1
    return QSeries.from_terms(terms, trunc=order)


def dedekind_eta(order=DEFAULT_ORDER) -> NamedForm:
    series = triple_product(1, 3, order).shift_exponents(Fraction(1, 24))
    return NamedForm("eta", Fraction(1, 2), "Gamma(1)", series)


def eta_quotient(spec, order=DEFAULT_ORDER) -> QSeries:
    """Product of eta(m*tau)^r over (m, r) pairs, m positive rational."""
    # eta built at depth D is valid below D + 1/24: it meets depth's rule for D + 1/24
    deep = depth(order, *((Fraction(1, 24), r, m) for m, r in spec)) - Fraction(1, 24)
    eta = named_form("eta", deep).series
    return reduce(mul, [eta.rescale_tau(m) ** r for m, r in spec]).truncate(order)


def discriminant(order=DEFAULT_ORDER, route: str = "jacobi") -> NamedForm:
    """Delta by one of three routes, which agree.  "jacobi", the store's, is
    q eta_cube(1)^8 = q (q; q)^24: three squarings of Jacobi's sparse sum, built
    to depth order - 1 (and 1 at least, as `gamma5_form_f`).  "eisenstein" is
    (E4^3 - E6^2)/1728 and "eta" is eta^24, Euler's product to the 24th."""
    if route == "jacobi":
        deep = max(Fraction(order) - 1, 1)
        series = (eta_cube(1, deep) ** 8).shift_exponents(1).truncate(order)
    elif route == "eisenstein":
        e4 = named_form("E4", order).series
        e6 = named_form("E6", order).series
        series = ((e4**3) - (e6**2)).scale(Fraction(1, 1728)).truncate(order)
    elif route == "eta":
        series = (named_form("eta", order).series ** 24).truncate(order)
    else:
        raise ValueError(f"unknown route {route!r}")
    return NamedForm("Delta", 12, "Gamma(1)", series)


def level_one_monomial(ell: int, n4: int, n6: int, order=DEFAULT_ORDER) -> QSeries:
    """Delta^ell E4^n4 E6^n6 from the stored factors, valid below `order`.

    The product is kept in the form store under its own name, so each
    (ell, n4, n6) is built once per deepest depth and cut below it.  For
    ell < 0 it is a power of 1/Delta, which the store keeps too: Delta built
    at depth D has inverse valid below D - 2, so the inverse is asked for
    there, with the relative precision D - 1 of Delta.
    """

    def build(name, order):
        deep = depth(order, (0, n4), (0, n6), (1, ell))
        series = named_form("E4", deep).series ** n4 * named_form("E6", deep).series ** n6
        if ell > 0:
            series = series * named_form("Delta", deep).series ** ell
        elif ell:
            series = series * _stored("1/Delta", deep - 2, _inverse_delta).series ** -ell
        return NamedForm(name, 12 * ell + 4 * n4 + 6 * n6, "Gamma(1)", series.truncate(order))

    return _stored(f"Delta^{ell}*E4^{n4}*E6^{n6}", order, build).series


def _inverse_delta(name, order) -> NamedForm:
    """1/Delta valid below `order`, from Delta valid below order + 2."""
    return NamedForm(name, -12, "Gamma(1)", named_form("Delta", order + 2).series.inverse())


def j_invariant(order=DEFAULT_ORDER) -> NamedForm:
    return NamedForm("j", 0, "Gamma(1)", level_one_monomial(-1, 3, 0, order))


def j_minus_1728(order=DEFAULT_ORDER) -> NamedForm:
    return NamedForm("j-1728", 0, "Gamma(1)", level_one_monomial(-1, 0, 2, order))


def duke_jenkins(k: int, order=DEFAULT_ORDER):
    """Generator F_k = Delta^l E4^n4 E6^n6 of the weight-k module over C[j].

    Returns (l, n4, n6, series).  The residues (n4, n6) realise the group
    isomorphism 2Z/12Z -> Z/3Z x Z/2Z.
    """
    if k % 2:
        raise OddWeight("weakly holomorphic forms of odd level-one weight vanish")
    n4, n6 = RESIDUE_TABLE[k % 12]
    ell = (k - 4 * n4 - 6 * n6) // 12
    return ell, n4, n6, level_one_monomial(ell, n4, n6, order)


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


def s_law_residual(form: NamedForm, tau: complex) -> float:
    """|f(-1/tau) - tau^k f(tau)| at `tau`, E2 carrying its anomaly 12 tau/(2 pi i).

    Raises Unsupported unless `form` has integer weight k on Gamma(1).
    """
    k = form.weight
    if form.group != "Gamma(1)" or k.denominator != 1:
        raise Unsupported(f"no S law known for {form.name} (weight {k}, {form.group}): "
                          "f(-1/tau) = tau^k f(tau) is applied only to integer weight on Gamma(1)")
    series = form.series
    expected = tau ** int(k) * series.eval_numeric(tau)
    if form.name == "E2":
        expected += 12 * tau / (2j * cmath.pi)
    return abs(series.eval_numeric(-1 / tau) - expected)


# ----------------------------------------------------------------------
# theta constants and Gamma(2)
# ----------------------------------------------------------------------

def theta(i: int, order=DEFAULT_ORDER) -> NamedForm:
    """Theta constants as base-q series: exponents (2n+1)^2/8 resp. n^2/2."""
    terms = []
    if i == 2:
        n = 0
        while Fraction((2 * n + 1) ** 2, 8) < order:
            terms.append((Fraction((2 * n + 1) ** 2, 8), 2))
            n += 1
    elif i in (3, 4):
        terms.append((0, 1))
        n = 1
        while Fraction(n * n, 2) < order:
            c = 2 if (i == 3 or n % 2 == 0) else -2
            terms.append((Fraction(n * n, 2), c))
            n += 1
    else:
        raise ValueError("theta index must be 2, 3 or 4")
    return NamedForm(f"theta{i}", Fraction(1, 2), "Gamma(2)", QSeries.from_terms(terms, trunc=order))


def gamma2_generators(order=DEFAULT_ORDER):
    """(F2, H2): F2 = 2 E2(2 tau) - E2(tau) and H2 = F2(tau/2) generate the
    Gamma(2) forms; their theta fourth-power combinations are the
    `theta.gamma2_combinations` row of the identity table."""
    wide = 2 * Fraction(order)  # F2 must be known twice as deep to halve tau
    e2 = named_form("E2", wide).series
    f2 = e2.rescale_tau(2).truncate(wide).scale(2) - e2
    h2 = f2.rescale_tau(Fraction(1, 2))
    return (
        NamedForm("F2", 2, "Gamma(2)", f2.truncate(order)),
        NamedForm("H2", 2, "Gamma(2)", h2),
    )


def lambda_invariant(order=DEFAULT_ORDER) -> NamedForm:
    t2 = named_form("theta2", order).series
    t3 = named_form("theta3", order).series
    series = (t2**4 / t3**4).truncate(order)
    return NamedForm("lambda", 0, "Gamma(2)", series)


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
    g = named_form("phi1", order).series
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
    t2, t3, t4 = (named_form(f"theta{i}", order).series for i in (2, 3, 4))
    series = (t4**2 / (t2**2 + t3**2)).truncate(order)
    return NamedForm("mu", 0, "Gamma(4)", series)


def theta_transformation_residual(tau: complex, order=DEFAULT_ORDER) -> float:
    """Numeric check of the theta T and S laws; returns the max residual.

    T: (theta2, theta3, theta4)(tau+1) = (zeta8 theta2, theta4, theta3)(tau);
    S: theta(-1/tau) = zeta8^-1 tau^(1/2) (theta4, theta3, theta2)(tau).
    Eighth roots of unity keep these outside the exact shift machinery.
    """
    t2, t3, t4 = (named_form(f"theta{i}", order).series for i in (2, 3, 4))
    zeta8 = cmath.exp(2j * cmath.pi / 8)
    vals = {i: s.eval_numeric(tau) for i, s in ((2, t2), (3, t3), (4, t4))}
    shifted = {i: s.eval_numeric(tau + 1) for i, s in ((2, t2), (3, t3), (4, t4))}
    imaged = {i: s.eval_numeric(-1 / tau) for i, s in ((2, t2), (3, t3), (4, t4))}
    root = cmath.sqrt(tau) / zeta8
    residual = max(
        abs(shifted[2] - zeta8 * vals[2]),
        abs(shifted[3] - vals[4]),
        abs(shifted[4] - vals[3]),
        abs(imaged[2] - root * vals[4]),
        abs(imaged[3] - root * vals[3]),
        abs(imaged[4] - root * vals[2]),
    )
    return residual


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
    unit = triple_product(r1 * scale, scale, order - lead) / eta_cube(scale, order - lead)
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
    series = triple_product(1, 5, deep) ** 5 / eta_cube(1, deep)
    return NamedForm("f_gamma5", 1, "Gamma(5)", series.shift_exponents(1).truncate(order))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_BUILDERS = {
    "E2": lambda order: eisenstein(2, order),
    "E4": lambda order: eisenstein(4, order),
    "E6": lambda order: eisenstein(6, order),
    "E8": lambda order: eisenstein(8, order),
    "E10": lambda order: eisenstein(10, order),
    "E14": lambda order: eisenstein(14, order),
    "Delta": lambda order: discriminant(order),
    "j": lambda order: j_invariant(order),
    "j-1728": lambda order: j_minus_1728(order),
    "eta": lambda order: dedekind_eta(order),
    "theta2": lambda order: theta(2, order),
    "theta3": lambda order: theta(3, order),
    "theta4": lambda order: theta(4, order),
    "lambda": lambda order: lambda_invariant(order),
    "mu": lambda order: mu_gamma4(order),
    "phi1": lambda order: _one_of_pair(gamma3_generators(order), 0, order),
    "phi2": lambda order: _one_of_pair(gamma3_generators(order), 1, order),
    "F2": lambda order: _one_of_pair(gamma2_generators(order), 0, order),
    "H2": lambda order: _one_of_pair(gamma2_generators(order), 1, order),
    "f_gamma5": lambda order: gamma5_form_f(order),
}

REGISTERED_NAMES = tuple(_BUILDERS)

_STORE_LOCK = threading.RLock()
#: name -> (order it was built at, {order: NamedForm}): the deepest build
#: and the cuts handed out from it
_STORE: dict = {}


def _build(name: str, order) -> NamedForm:
    if name.startswith("F_k:"):
        k = int(name[4:])
        return NamedForm(name, k, "Gamma(1)", duke_jenkins(k, order)[3])
    return _BUILDERS[name](order)


def _one_of_pair(pair, index, order) -> NamedForm:
    """Form `index` of a pair built together below `order`; the store keeps
    the other form too, so asking for it next builds nothing."""
    other = pair[1 - index]
    built, _ = _STORE.get(other.name, (None, None))
    if built is None or built < order:
        _STORE[other.name] = (order, {order: other})
    return pair[index]


def named_form(name: str, order=DEFAULT_ORDER) -> NamedForm:
    """The form `name` (a registered name or F_k:k) valid below `order`.

    This is the one store of forms.  Each name keeps its deepest build; a
    request at or below that depth is a truncation of it, so a form is
    rebuilt only to go deeper, and the same request returns the same object.
    The series are shared: nothing may mutate them.
    """
    if name.startswith("F_k:"):  # F_k:4, F_k:+4 and F_k: 4 are the one form F_k:4
        try:
            name = f"F_k:{int(name[4:])}"
        except ValueError:
            raise UnknownForm(name) from None
    elif name not in _BUILDERS:
        raise UnknownForm(name)
    return _stored(name, order, _build)


def _stored(name: str, order, build) -> NamedForm:
    """The store's form `name` valid below `order`; ``build(name, order)``
    makes it when the store holds none deep enough."""
    order = Fraction(order)
    entry = _STORE.get(name)
    if entry is not None and order in entry[1]:
        return entry[1][order]
    with _STORE_LOCK:
        built, cuts = _STORE.get(name, (None, None))
        if built is None or built < order:
            form = build(name, order)
            _STORE[name] = (order, {order: form})
            return form
        if order not in cuts:
            deepest = cuts[built]
            # keep the builder's own margin past the order (eta's is 1/24)
            series = deepest.series.truncate(order + deepest.series.trunc - built)
            cuts[order] = NamedForm(name, deepest.weight, deepest.group, series)
        return cuts[order]


def series(name: str, order=DEFAULT_ORDER) -> QSeries:
    """The q-expansion of ``named_form(name, order)``."""
    return named_form(name, order).series
