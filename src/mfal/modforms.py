"""Named scalar modular forms and the store that builds and shares them.

Everything is an exact QSeries in q = exp(2*pi*i*tau).  Forms classically
written in the nome exp(pi*i*tau) (theta constants, lambda) live here with
half/quarter/eighth-integral exponents so that a single exponent lattice
serves the whole package.  Euler's product is Jacobi's sparse theta sum
(`triple_product`, `eta_cube`).  The identities between these forms that
`mfal verify` certifies are declared once each, as rows of the identity
table `IDENTITIES` of the suite's module `mfal.checks_<suite>`, which
`mfal.checks.load` gathers into `mfal.checks.IDENTITIES`.

This module holds the level-one forms, the theta constants, lambda and the
store: `mfal expand` of j, lambda or F_k loads it with `qseries` and `poly`
and nothing else.  The forms of Gamma(2) to Gamma(5) (F2, H2, phi1, phi2, mu,
f_gamma5 and the Klein forms) live in `mfal.congruence`, which the store
imports on the first request for one of them; the Serre derivative and the
derivation delta in `mfal.derivations`; and the float laws of `mfal eval` in
`mfal.numeric`.
"""

import threading
from fractions import Fraction
from functools import reduce
from math import ceil, comb
from operator import mul

from . import J_EXPONENTS, J_MINUS_1728_EXPONENTS, f_exponents
from .qseries import DEFAULT_ORDER, QSeries, _series


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
        b.append(-sum(comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b[k]


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
    # the numerators over the denominator of the factor: the constant term,
    # then the factor's numerator times sigma_{k-1}(n), summed by a sieve
    # over the divisors d
    nums = [factor.denominator] + [0] * (ceil(order) - 1)
    for d in range(1, len(nums)):
        term = factor.numerator * d ** (k - 1)
        for n in range(d, len(nums), d):
            nums[n] += term
    return NamedForm(f"E{k}", k, "Gamma(1)", _series(1, 0, 1, nums, factor.denominator, order))


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


def discriminant(order=DEFAULT_ORDER) -> NamedForm:
    """Delta = q eta_cube(1)^8 = q (q; q)^24: three squarings of Jacobi's
    sparse sum, built to depth order - 1 (and 1 at least, as `gamma5_form_f`)."""
    deep = max(Fraction(order) - 1, 1)
    series = (eta_cube(1, deep) ** 8).shift_exponents(1).truncate(order)
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
        # only the factors of nonzero exponent are asked for: j builds no E6
        factors = [named_form(f, deep).series ** n for f, n in (("E4", n4), ("E6", n6)) if n]
        if ell > 0:
            factors.append(named_form("Delta", deep).series ** ell)
        elif ell:
            factors.append(_stored("1/Delta", deep - 2, _inverse_delta).series ** -ell)
        series = reduce(mul, factors) if factors else QSeries.constant(1, order)
        return NamedForm(name, 12 * ell + 4 * n4 + 6 * n6, "Gamma(1)", series.truncate(order))

    return _stored(f"Delta^{ell}*E4^{n4}*E6^{n6}", order, build).series


def _inverse_delta(name, order) -> NamedForm:
    """1/Delta valid below `order`, from Delta valid below order + 2."""
    return NamedForm(name, -12, "Gamma(1)", named_form("Delta", order + 2).series.inverse())


def j_invariant(order=DEFAULT_ORDER) -> NamedForm:
    return NamedForm("j", 0, "Gamma(1)", level_one_monomial(*J_EXPONENTS, order))


def j_minus_1728(order=DEFAULT_ORDER) -> NamedForm:
    return NamedForm("j-1728", 0, "Gamma(1)",
                     level_one_monomial(*J_MINUS_1728_EXPONENTS, order))


def duke_jenkins(k: int, order=DEFAULT_ORDER):
    """Generator F_k = Delta^l E4^n4 E6^n6 of the weight-k module over C[j].

    Returns (l, n4, n6, series).  The residues (n4, n6) realise the group
    isomorphism 2Z/12Z -> Z/3Z x Z/2Z.
    """
    if k % 2:
        raise OddWeight("weakly holomorphic forms of odd level-one weight vanish")
    exponents = f_exponents(k)
    return *exponents, level_one_monomial(*exponents, order)


# ----------------------------------------------------------------------
# theta constants and lambda
# ----------------------------------------------------------------------

def theta(i: int, order=DEFAULT_ORDER) -> NamedForm:
    """Theta constants as base-q series: exponents (2n+1)^2/8 resp. n^2/2."""
    if i not in (2, 3, 4):
        raise ValueError("theta index must be 2, 3 or 4")
    # theta2 sums 2 q^(n^2/8) over odd n > 0, theta3 and theta4 are
    # 1 + sum (+-2) q^(n^2/2) over n > 0, the sign (-1)^n in theta4
    terms, n, step, scale = ([], 1, 2, 8) if i == 2 else ([(0, 1)], 1, 1, 2)
    while (e := Fraction(n * n, scale)) < order:
        terms.append((e, -2 if i == 4 and n % 2 else 2))
        n += step
    return NamedForm(f"theta{i}", Fraction(1, 2), "Gamma(2)", QSeries.from_terms(terms, trunc=order))


def lambda_invariant(order=DEFAULT_ORDER) -> NamedForm:
    t2 = named_form("theta2", order).series
    t3 = named_form("theta3", order).series
    series = (t2**4 / t3**4).truncate(order)
    return NamedForm("lambda", 0, "Gamma(2)", series)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_BUILDERS = {
    **{f"E{k}": lambda order, k=k: eisenstein(k, order) for k in (2, 4, 6, 8, 10, 14)},
    "Delta": lambda order: discriminant(order),
    "j": lambda order: j_invariant(order),
    "j-1728": lambda order: j_minus_1728(order),
    "eta": lambda order: dedekind_eta(order),
    **{f"theta{i}": lambda order, i=i: theta(i, order) for i in (2, 3, 4)},
    "lambda": lambda order: lambda_invariant(order),
}

#: the forms of `mfal.congruence.BUILDERS`, imported on the first request
REGISTERED_NAMES = (*_BUILDERS, "mu", "phi1", "phi2", "F2", "H2", "f_gamma5")

_STORE_LOCK = threading.RLock()
#: name -> (order it was built at, {order: NamedForm}): the deepest build
#: and the cuts handed out from it
_STORE: dict = {}


def _build(name: str, order):
    if name.startswith("F_k:"):
        k = int(name[4:])
        return NamedForm(name, k, "Gamma(1)", duke_jenkins(k, order)[3])
    if name in _BUILDERS:
        return _BUILDERS[name](order)
    from . import congruence

    return congruence.BUILDERS[name](order)


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
    elif name not in REGISTERED_NAMES:
        raise UnknownForm(name)
    return _stored(name, order, _build)


def _stored(name: str, order, build) -> NamedForm:
    """The store's form `name` valid below `order`; ``build(name, order)``
    makes it when the store holds none deep enough.  A builder may return a
    tuple of forms built together, as a pair of generators: the store files
    each one that goes deeper than what it holds under that form's name."""
    order = Fraction(order)
    entry = _STORE.get(name)
    if entry is not None and order in entry[1]:
        return entry[1][order]
    with _STORE_LOCK:
        built, cuts = _STORE.get(name, (None, None))
        if built is None or built < order:
            forms = build(name, order)
            for form in forms if isinstance(forms, tuple) else (forms,):
                if form.name not in _STORE or _STORE[form.name][0] < order:
                    _STORE[form.name] = (order, {order: form})
            return _STORE[name][1][order]
        if order not in cuts:
            deepest = cuts[built]
            # keep the builder's own margin past the order (eta's is 1/24)
            series = deepest.series.truncate(order + deepest.series.trunc - built)
            cuts[order] = NamedForm(name, deepest.weight, deepest.group, series)
        return cuts[order]


def series(name: str, order=DEFAULT_ORDER) -> QSeries:
    """The q-expansion of ``named_form(name, order)``."""
    return named_form(name, order).series
