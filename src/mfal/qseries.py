"""Truncated q-expansions with exact rational exponents and coefficients.

A QSeries is a finite map from exponents e (rationals with a common
denominator) to nonzero rational coefficients, together with a truncation
bound: all exponents strictly below ``trunc`` are represented exactly,
anything at or above it is unknown.  All modular forms in this package are
stored in the nome q = exp(2*pi*i*tau); forms naturally written in
exp(pi*i*tau) appear here with half-integral exponents.

Products and inverses are computed over the integers: both operands are
laid out as dense int lists on their common support lattice, over one
denominator, and ``mfal.poly.kronecker_mul`` is the one product kernel
(``inverse`` runs Newton's iteration on it).  The stored coefficients stay
``Fraction`` values.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import ceil, gcd, lcm
from typing import Iterable

from .poly import Ring, kronecker_mul


class DivisionByZeroSeries(ZeroDivisionError):
    """Division by a series with no terms below its truncation."""


class NeedsCyclotomic(ValueError):
    """Exact tau -> tau+1 shift needs roots of unity beyond {+1,-1}."""


class NotConvergent(ValueError):
    """Numeric evaluation requested outside the upper half-plane."""


class TruncationError(ValueError):
    """Operands do not share enough valid range to compare."""


DEFAULT_ORDER = 64

#: Minimal shared exponent span (in units of q) needed before two series
#: may be declared equal; guards against vacuous matches of over-truncated
#: operands.
MIN_AGREE_SPAN = 16


def _to_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _dense(terms: dict, v: int, step: int, n: int):
    """The coefficients at v, v + step, ... below slot n as (ints, den)."""
    slots = {(k - v) // step: c for k, c in terms.items() if k - v < step * n}
    # star-args from lists, not generators: CPython 3.11 keeps the tuple built
    # from each generator alive on its free list (seen with tracemalloc)
    den = lcm(*[c.denominator for c in slots.values()])
    ints = [0] * (max(slots) + 1 if slots else 0)
    for i, c in slots.items():
        ints[i] = c.numerator * (den // c.denominator)
    return ints, den


def _monic_inverse(v: list, n: int) -> list:
    """The first n coefficients of 1/v for an int list v with v[0] == 1.

    Newton iteration w <- w - w*(v*w - 1), doubling the correct prefix of
    w with two products; every coefficient stays an int.
    """
    w, m = [1], 1
    while m < n:
        m2 = min(2 * m, n)
        # v*w - 1 vanishes below slot m
        err = kronecker_mul(v[:m2], w, m2)[m:]
        w += [-c for c in kronecker_mul(w, err, m2 - m)]
        m = m2
    return w


class QSeries(Ring):
    """Exact truncated series in q with exponents in (1/denom)*Z."""

    __slots__ = ("denom", "terms", "trunc")

    def __init__(self, denom: int, terms: dict, trunc):
        # terms maps scaled exponents (e*denom, an int) to Fraction coefficients
        self.denom = denom
        self.terms = terms
        self.trunc = _to_frac(trunc)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_terms(cls, pairs: Iterable, trunc=DEFAULT_ORDER) -> "QSeries":
        """Build from (exponent, coefficient) pairs of exact rationals."""
        frac_pairs = [(_to_frac(e), _to_frac(c)) for e, c in pairs]
        denom = 1
        for e, _ in frac_pairs:
            denom = lcm(denom, e.denominator)
        trunc = _to_frac(trunc)
        terms = {}
        for e, c in frac_pairs:
            if c == 0 or e >= trunc:
                continue
            key = int(e * denom)
            terms[key] = terms.get(key, Fraction(0)) + c
        return cls(denom, {k: c for k, c in terms.items() if c != 0}, trunc)._reduced()

    @classmethod
    def constant(cls, c, trunc=DEFAULT_ORDER) -> "QSeries":
        c = _to_frac(c)
        return cls(1, {} if c == 0 else {0: c}, trunc)

    @classmethod
    def zero(cls, trunc=DEFAULT_ORDER) -> "QSeries":
        return cls(1, {}, trunc)

    @classmethod
    def qpow(cls, e, c=1, trunc=DEFAULT_ORDER) -> "QSeries":
        """The monomial c * q^e."""
        return cls.from_terms([(e, c)], trunc)

    def _reduced(self) -> "QSeries":
        """Shrink denom by the gcd of all scaled exponents."""
        if self.denom == 1 or not self.terms:
            if self.denom != 1 and not self.terms:
                return QSeries(1, {}, self.trunc)
            return self
        g = self.denom
        for k in self.terms:
            g = gcd(g, k)
            if g == 1:
                return self
        return QSeries(
            self.denom // g, {k // g: c for k, c in self.terms.items()}, self.trunc
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def coefficient(self, e) -> Fraction:
        e = _to_frac(e)
        if e >= self.trunc:
            raise TruncationError(f"coefficient at {e} is beyond truncation {self.trunc}")
        scaled = e * self.denom
        if scaled.denominator != 1:
            return Fraction(0)
        return self.terms.get(int(scaled), Fraction(0))

    def exponents(self):
        return sorted(Fraction(k, self.denom) for k in self.terms)

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        return [
            (Fraction(k, self.denom), self.terms[k]) for k in sorted(self.terms)
        ]

    @property
    def valuation(self) -> Fraction:
        """Least stored exponent; equals trunc for the (known-)zero series."""
        if not self.terms:
            return self.trunc
        return Fraction(min(self.terms), self.denom)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self):
        return f"QSeries({self.pretty(max_terms=4)}, trunc={self.trunc})"

    def pretty(self, max_terms=None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.items()):
            if max_terms is not None and i >= max_terms:
                parts.append("...")
                break
            if e == 0:
                mono = str(c)
            else:
                coeff = "" if c == 1 else ("-" if c == -1 else f"{c} ")
                exp = "q" if e == 1 else f"q^{e}"
                mono = f"{coeff}{exp}"
            parts.append(mono)
        return " + ".join(parts).replace("+ -", "- ")

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _aligned(self, other: "QSeries"):
        d = lcm(self.denom, other.denom)
        fa, fb = d // self.denom, d // other.denom
        a = self.terms if fa == 1 else {k * fa: c for k, c in self.terms.items()}
        b = other.terms if fb == 1 else {k * fb: c for k, c in other.terms.items()}
        return d, a, b

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, trunc=self.trunc)
        d, a, b = self._aligned(other)
        trunc = min(self.trunc, other.trunc)
        bound = ceil(trunc * d)
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        out = {k: c for k, c in out.items() if k < bound}
        return QSeries(d, out, trunc)._reduced()

    def scale(self, c) -> "QSeries":
        c = _to_frac(c)
        if c == 0:
            return QSeries(1, {}, self.trunc)
        return QSeries(self.denom, {k: c * v for k, v in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        d, a, b = self._aligned(other)
        # product exponents above min(Ta + vb, Tb + va) are contaminated by
        # the unknown tails, so that is the honest truncation
        trunc = min(self.trunc + other.valuation, other.trunc + self.valuation)
        if not a or not b:
            return QSeries(1, {}, trunc)
        va, vb = min(a), min(b)
        # one slot per point of the support lattice, below the truncation
        step = gcd(*[k - va for k in a], *[k - vb for k in b]) or 1
        n = -((va + vb - ceil(trunc * d)) // step)
        (da, ea), (db, eb) = _dense(a, va, step, n), _dense(b, vb, step, n)
        den = ea * eb
        out = {
            va + vb + step * i: Fraction(r, den)
            for i, r in enumerate(kronecker_mul(da, db, n)) if r
        }
        return QSeries(d, out, trunc)._reduced()

    def shift_exponents(self, e) -> "QSeries":
        """Multiply by the exact monomial q^e."""
        e = _to_frac(e)
        d = lcm(self.denom, e.denominator)
        f = d // self.denom
        off = int(e * d)
        return QSeries(
            d, {k * f + off: c for k, c in self.terms.items()}, self.trunc + e
        )._reduced()

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; needs an invertible leading term."""
        if not self.terms:
            raise DivisionByZeroSeries("series has no terms below its truncation")
        d, v = self.denom, min(self.terms)
        step = gcd(*[k - v for k in self.terms]) or 1
        # q^-v over the unit part, which is valid on [0, trunc*d - v)
        n = -((v - ceil(self.trunc * d)) // step)
        unit, den = _dense(self.terms, v, step, n)
        # unit(x) = u0 * V(x / u0) with V integer and monic, so
        # 1/unit(x) = sum_i W_i x^i / u0^(i+1) for the integer W = 1/V
        powers = [1]
        for _ in range(n):
            powers.append(powers[-1] * unit[0])
        monic = [c * powers[k - 1] if k else 1 for k, c in enumerate(unit)]
        out = {
            step * i - v: Fraction(w * den, powers[i + 1])
            for i, w in enumerate(_monic_inverse(monic, n)) if w
        }
        trunc = self.trunc - 2 * Fraction(v, d)
        return QSeries(d, out, trunc)._reduced()

    # rebound here so that wrapping QSeries.__pow__ (as the per-layer
    # benchmark trace does) sees the series powers
    __pow__ = Ring.__pow__

    # ------------------------------------------------------------------
    # substitutions and calculus
    # ------------------------------------------------------------------

    def rescale_tau(self, m) -> "QSeries":
        """Substitute tau -> m*tau (m a positive rational): e -> m*e."""
        m = _to_frac(m)
        if m <= 0:
            raise ValueError("rescale factor must be positive")
        if m == 1:
            return self
        d = self.denom * m.denominator
        new = {k * m.numerator: c for k, c in self.terms.items()}
        return QSeries(d, new, self.trunc * m)._reduced()

    def shift_tau(self) -> "QSeries":
        """Substitute tau -> tau + 1 exactly.

        Only exponents with denominator dividing 2 are admissible, since the
        coefficient at e picks up exp(2*pi*i*e) which must stay rational.
        """
        out = {}
        for k, c in self.terms.items():
            two_e = Fraction(2 * k, self.denom)
            if two_e.denominator != 1:
                raise NeedsCyclotomic(
                    f"exponent {Fraction(k, self.denom)} has denominator > 2"
                )
            out[k] = -c if int(two_e) % 2 else c
        return QSeries(self.denom, out, self.trunc)

    def q_derive(self) -> "QSeries":
        """Apply q*d/dq = (1/2*pi*i) d/dtau: coefficient at e times e."""
        return QSeries(
            self.denom,
            {k: c * Fraction(k, self.denom) for k, c in self.terms.items() if k != 0},
            self.trunc,
        )

    def eval_numeric(self, tau: complex) -> complex:
        """Sum the stored terms at q = exp(2*pi*i*tau), Im(tau) > 0."""
        if tau.imag <= 0:
            raise NotConvergent(f"Im(tau) = {tau.imag} is not positive")
        total = 0j
        two_pi_i = 2j * cmath.pi
        for k, c in self.terms.items():
            e = k / self.denom
            total += complex(c) * cmath.exp(two_pi_i * e * tau)
        return total

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def truncate(self, trunc) -> "QSeries":
        trunc = _to_frac(trunc)
        if trunc > self.trunc:
            raise TruncationError("cannot extend a truncated series")
        bound = ceil(trunc * self.denom)
        return QSeries(
            self.denom, {k: c for k, c in self.terms.items() if k < bound}, trunc
        )._reduced()

    def agrees(self, other, min_span: int = MIN_AGREE_SPAN) -> bool:
        """Exact equality on the shared valid exponent range.

        Raises TruncationError when the shared range spans fewer than
        ``min_span`` units, instead of reporting a vacuous agreement.
        """
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, trunc=self.trunc)
        trunc = min(self.trunc, other.trunc)
        low = min(self.valuation, other.valuation, Fraction(0))
        if trunc - low < min_span:
            raise TruncationError(
                f"shared range [{low}, {trunc}) spans less than {min_span}"
            )
        d, a, b = self._aligned(other)
        bound = ceil(trunc * d)
        for k, c in a.items():
            if k < bound and b.get(k) != c:
                return False
        for k, c in b.items():
            if k < bound and k not in a:
                return False
        return True

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        def frac_str(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        return {
            "denom": self.denom,
            "trunc": frac_str(self.trunc),
            "terms": [
                [frac_str(e), frac_str(c)] for e, c in self.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QSeries":
        terms = [(Fraction(e), Fraction(c)) for e, c in data["terms"]]
        series = cls.from_terms(terms, trunc=Fraction(data["trunc"]))
        if series.denom != data["denom"]:
            # keep the declared lattice even when it is not minimal
            f = data["denom"] // series.denom
            series = cls(
                data["denom"], {k * f: c for k, c in series.terms.items()}, series.trunc
            )
        return series
