"""The exact polynomial ring Q[tau, P, Q, R, s, s^-1].

P, Q, R stand for the Eisenstein series E2, E4, E6 and s for 1/(2*pi*i);
these five quantities are algebraically independent over C, so identities
proved here formally hold for the actual functions.  Every constant the
weight calculus needs (i*pi/3, pi^2/36, ...) is a rational multiple of a
power of s, keeping the coefficient field Q.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from math import comb

from . import modforms
from .linalg import Matrix
from .poly import Ring, add_term, sparse_add, sparse_mul
from .qseries import QSeries, _to_frac

VARS = ("tau", "P", "Q", "R", "s")
_TAU, _P, _Q, _R, _S = range(5)


def _add_exponents(a, b):
    return tuple(map(operator.add, a, b))


class NotInvertible(ValueError):
    """Matrix inverse requested but the determinant is not a unit."""


class QuasiPoly(Ring):
    """Polynomial in tau, P, Q, R and the invertible constant s."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

    @classmethod
    def const(cls, c) -> "QuasiPoly":
        c = _to_frac(c)
        return cls({} if c == 0 else {(0, 0, 0, 0, 0): c})

    @classmethod
    def var(cls, name: str) -> "QuasiPoly":
        idx = VARS.index(name)
        key = tuple(1 if i == idx else 0 for i in range(5))
        return cls({key: Fraction(1)})

    @classmethod
    def monomial(cls, exponents, c=1) -> "QuasiPoly":
        c = _to_frac(c)
        t, p, q, r, s = exponents
        if min(t, p, q, r) < 0:
            raise ValueError("only s may carry a negative exponent")
        return cls({} if c == 0 else {(t, p, q, r, s): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuasiPoly.const(other)
        return isinstance(other, QuasiPoly) and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuasiPoly.const(other)
        return QuasiPoly(sparse_add(self.terms, other.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return QuasiPoly(sparse_mul(self.terms, other.terms, _add_exponents))

    def scale(self, c) -> "QuasiPoly":
        c = _to_frac(c)
        if c == 0:
            return QuasiPoly()
        return QuasiPoly({k: c * v for k, v in self.terms.items()})

    # ------------------------------------------------------------------
    # derivations and substitutions
    # ------------------------------------------------------------------

    def d_tau(self) -> "QuasiPoly":
        """The Ramanujan derivation D = (1/2*pi*i) d/dtau.

        D(tau) = s, D(P) = (P^2-Q)/12, D(Q) = (PQ-R)/3, D(R) = (PR-Q^2)/2,
        D(s) = 0, extended by the Leibniz rule.
        """
        out = QuasiPoly()
        images = {
            _TAU: QuasiPoly.var("s"),
            _P: (QuasiPoly.var("P") ** 2 - QuasiPoly.var("Q")).scale(Fraction(1, 12)),
            _Q: (QuasiPoly.var("P") * QuasiPoly.var("Q") - QuasiPoly.var("R")).scale(Fraction(1, 3)),
            _R: (QuasiPoly.var("P") * QuasiPoly.var("R") - QuasiPoly.var("Q") ** 2).scale(Fraction(1, 2)),
        }
        for key, c in self.terms.items():
            for idx, image in images.items():
                e = key[idx]
                if e == 0:
                    continue
                lowered = list(key)
                lowered[idx] = e - 1
                out = out + image * QuasiPoly({tuple(lowered): c * e})
        return out

    def serre_D(self, k: int) -> "QuasiPoly":
        """Weight-raising derivative D - (k/12) P."""
        return self.d_tau() - (QuasiPoly.var("P") * self).scale(Fraction(k, 12))

    def shift_tau(self) -> "QuasiPoly":
        """Substitute tau -> tau + 1; P, Q, R, s are shift-invariant."""
        out = {}
        for (t, p, q, r, s), c in self.terms.items():
            for i in range(t + 1):
                add_term(out, (i, p, q, r, s), c * comb(t, i))
        return QuasiPoly(out)

    def substitute_numeric(self, ctx: "NumericContext") -> complex:
        total = 0j
        for (t, p, q, r, s), c in self.terms.items():
            total += (
                complex(c)
                * ctx.tau**t
                * ctx.e2**p
                * ctx.e4**q
                * ctx.e6**r
                * ctx.s**s
            )
        return total

    def substitute_series(self, order) -> dict:
        """Replace P, Q, R by their expansions; keyed by remaining tau-degree.

        The result maps tau-degree to a QSeries.  Any s-dependence has no
        exact q-expansion and raises.
        """
        e2, e4, e6 = (modforms.named_form(f"E{k}", order).series for k in (2, 4, 6))
        out: dict[int, QSeries] = {}
        for (t, p, q, r, s), c in self.terms.items():
            if s != 0:
                raise ValueError("monomial carries a power of s = 1/(2*pi*i)")
            piece = QSeries.constant(c, trunc=order) * e2**p * e4**q * e6**r
            out[t] = out[t] + piece if t in out else piece
        return out

    def to_qseries(self, order) -> QSeries:
        """Exact q-expansion of a tau-free, s-free element."""
        pieces = self.substitute_series(order)
        if set(pieces) - {0}:
            raise ValueError("element depends on tau; no scalar q-expansion")
        return pieces.get(0, QSeries.zero(trunc=order))

    # ------------------------------------------------------------------
    # display / serialization
    # ------------------------------------------------------------------

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        names = ("tau", "E2", "E4", "E6", "s")
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = []
            for name, e in zip(names, key):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"QuasiPoly({self.pretty()})"

    def to_json(self):
        return [
            [list(k), f"{c.numerator}/{c.denominator}"]
            for k, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json(cls, data):
        return cls({tuple(k): Fraction(c) for k, c in data})


class NumericContext:
    """Evaluated E2, E4, E6 at a fixed tau, shared across substitutions."""

    def __init__(self, tau: complex, order=64):
        self.tau = tau
        self.order = order
        self.e2, self.e4, self.e6 = (
            modforms.named_form(f"E{k}", order).series.eval_numeric(tau) for k in (2, 4, 6)
        )
        self.s = 1 / (2j * cmath.pi)


# convenient generators
TAU = QuasiPoly.var("tau")
P = QuasiPoly.var("P")
Q = QuasiPoly.var("Q")
R = QuasiPoly.var("R")
S = QuasiPoly.var("s")
S_INV = QuasiPoly.monomial((0, 0, 0, 0, -1))


class QuasiMatrix(Matrix):
    """Dense square matrix over the quasimodular polynomial ring."""

    __slots__ = ()

    def __init__(self, rows):
        super().__init__(
            [e if isinstance(e, QuasiPoly) else QuasiPoly.const(e) for e in row]
            for row in rows
        )

    # rebound here so that wrapping these attributes of QuasiMatrix (as the
    # per-layer benchmark trace does) sees only quasimodular matrix work
    det = Matrix.det
    __mul__ = Matrix.__mul__

    def inverse(self) -> "QuasiMatrix":
        """Adjugate inverse; the determinant must be a unit +-c*s^k."""
        d, adj = self.det_adjugate()
        if len(d.terms) != 1:
            raise NotInvertible(f"determinant {d.pretty()} is not a monomial unit")
        (key, c), = d.terms.items()
        t, p, q, r, s = key
        if (t, p, q, r) != (0, 0, 0, 0):
            raise NotInvertible(f"determinant {d.pretty()} is not a unit")
        return adj.scale(QuasiPoly.monomial((0, 0, 0, 0, -s), Fraction(1) / c))

    def d_tau(self) -> "QuasiMatrix":
        return self.map(QuasiPoly.d_tau)

    def serre_D(self, k: int) -> "QuasiMatrix":
        return self.map(lambda e: e.serre_D(k))

    def shift_tau(self) -> "QuasiMatrix":
        return self.map(QuasiPoly.shift_tau)

    def substitute_numeric(self, ctx: NumericContext):
        return [[e.substitute_numeric(ctx) for e in row] for row in self.rows]

    def pretty(self) -> str:
        return "[" + "; ".join(
            ", ".join(e.pretty() for e in row) for row in self.rows
        ) + "]"

    def __repr__(self):
        return f"QuasiMatrix({self.pretty()})"
