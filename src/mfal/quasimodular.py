"""The exact polynomial ring Q[tau, P, Q, R, s, s^-1].

P, Q, R stand for the Eisenstein series E2, E4, E6 and s for 1/(2*pi*i);
these five quantities are algebraically independent over C, so identities
proved here formally hold for the actual functions.  Every constant the
weight calculus needs (i*pi/3, pi^2/36, ...) is a rational multiple of a
power of s, keeping the coefficient field Q.

A monomial tau^t P^p Q^q R^r s^m is one int key (``pack``), so the ring
is a ``sparse.Sparse`` whose products add keys: t, p, q and r stay below
2**15, and a product that would reach it raises ``OverflowError``.

SL2(Z) acts on the ring by substitution: T by ``shift_tau`` and S by
``apply_S``, so the transformation laws of Phi_n (``mfal.vvmf``) are
polynomial identities.  The ring's one q-series bridge, ``to_qseries``,
imports ``mfal.modforms`` and ``mfal.qseries`` when it is called, so the
ring and Phi_n compile no series code.
"""

from fractions import Fraction
from functools import reduce
from math import comb
from operator import or_

from .linalg import Matrix
from .poly import add_term
from .sparse import Sparse

VARS = ("tau", "P", "Q", "R", "s")

#: bit offset of the tau, P, Q, R and s fields of a packed exponent
_SHIFTS = (48, 32, 16, 0, 64)
#: exponents of tau, P, Q and R stay below 2**15 in their 16-bit fields
_LIMIT = 1 << 15
#: bit 15 of each low field: set in a sum of two valid keys exactly when
#: one of its tau, P, Q, R exponents reached 2**15
_TOP = sum(_LIMIT << shift for shift in _SHIFTS[:4])
_FIELD = 0xFFFF
#: the four low fields: zero exactly for a power of s
_LOW = (1 << 64) - 1


def pack(t: int, p: int, q: int, r: int, m: int) -> int:
    """The key of tau^t P^p Q^q R^r s^m: m * 2^64 + t * 2^48 + p * 2^32 +
    q * 2^16 + r, for 0 <= t, p, q, r < 2^15 and any int m."""
    if min(t, p, q, r) < 0:
        raise ValueError("only s may carry a negative exponent")
    if max(t, p, q, r) >= _LIMIT:
        raise OverflowError("a tau, P, Q or R exponent reaches 2**15")
    return (m << 64) + (t << 48) + (p << 32) + (q << 16) + r


def unpack(key: int) -> tuple:
    """The exponents (t, p, q, r, m) of a packed key; the floor shift reads
    the signed s field above the four low ones."""
    return (key >> 48 & _FIELD, key >> 32 & _FIELD, key >> 16 & _FIELD, key & _FIELD, key >> 64)


def _checked(p: "QuasiPoly") -> "QuasiPoly":
    """p, unless one of its tau, P, Q, R exponents reached 2**15.  The
    fields of a product's keys are sums of two exponents below 2**15, so
    none has carried into the next field yet; ORing the keys first tests
    bit 15 of every field of every key at once."""
    if reduce(or_, p.nums, 0) & _TOP:
        raise OverflowError("a tau, P, Q or R exponent reaches 2**15")
    return p


#: 12 * D on the generators tau, P, Q, R: D(tau) = s, D(P) = (P^2 - Q)/12,
#: D(Q) = (PQ - R)/3, D(R) = (PR - Q^2)/2, as (field shift, {key: int}) pairs
_D_TIMES_12 = tuple(
    (shift, {pack(*k): v for k, v in image.items()})
    for shift, image in zip(_SHIFTS, (
        {(0, 0, 0, 0, 1): 12},
        {(0, 2, 0, 0, 0): 1, (0, 0, 1, 0, 0): -1},
        {(0, 1, 1, 0, 0): 4, (0, 0, 0, 1, 0): -4},
        {(0, 1, 0, 1, 0): 6, (0, 0, 2, 0, 0): -6},
    ))
)


#: E2(-1/tau) = tau^2 E2(tau) + 12 tau s: the coefficient of tau s
_E2_S_ANOMALY = 12


class NotInvertible(ValueError):
    """Matrix inverse requested but the determinant is not a unit."""


class QuasiPoly(Sparse):
    """Polynomial in tau, P, Q, R and the invertible constant s.

    A ``sparse.Sparse`` whose int key ``pack(t, p, q, r, m)`` stands for
    tau^t P^p Q^q R^r s^m: only s may carry a negative exponent, and each of
    t, p, q, r stays below 2**15, so a product adds keys with one int
    addition and no field carries into the next.  A product that would
    reach 2**15 raises ``OverflowError``.  The constructor, ``terms``,
    printing, JSON and the substitutions read the exponents as 5-tuples.
    """

    __slots__ = ()

    def __init__(self, terms: dict | None = None):
        super().__init__({pack(*k): c for k, c in terms.items()} if terms else None)

    @classmethod
    def var(cls, name: str) -> "QuasiPoly":
        return cls._make({1 << _SHIFTS[VARS.index(name)]: 1}, 1)

    @classmethod
    def monomial(cls, exponents, c=1) -> "QuasiPoly":
        return cls({tuple(exponents): c})

    @property
    def terms(self) -> dict:
        return {unpack(k): Fraction(c, self.den) for k, c in self.nums.items()}

    # rebound here so that wrapping this attribute of QuasiPoly (as the
    # per-layer benchmark trace does) sees only quasimodular products
    __mul__ = Sparse.__mul__

    @classmethod
    def dot(cls, pairs):
        """``Sparse.dot``, refusing an exponent that reaches 2**15."""
        return _checked(super().dot(pairs))

    # ------------------------------------------------------------------
    # derivations and substitutions
    # ------------------------------------------------------------------

    def d_tau(self) -> "QuasiPoly":
        """The Ramanujan derivation D = (1/2*pi*i) d/dtau.

        D(tau) = s, D(P) = (P^2-Q)/12, D(Q) = (PQ-R)/3, D(R) = (PR-Q^2)/2,
        D(s) = 0, extended by the Leibniz rule.
        """
        out = {}
        for key, c in self.nums.items():
            for shift, image in _D_TIMES_12:
                e = key >> shift & _FIELD
                if e:
                    lowered = key - (1 << shift)
                    for k, v in image.items():
                        add_term(out, lowered + k, c * e * v)
        return _checked(self._make(out, 12 * self.den))

    def serre_D(self, k: int) -> "QuasiPoly":
        """Weight-raising derivative D - (k/12) P."""
        return self.d_tau() - (P * self).scale(Fraction(k, 12))

    def shift_tau(self) -> "QuasiPoly":
        """Substitute tau -> tau + 1; P, Q, R, s are shift-invariant."""
        out = {}
        for key, c in self.nums.items():
            t = key >> 48 & _FIELD
            rest = key - (t << 48)
            for i in range(t + 1):
                add_term(out, rest + (i << 48), c * comb(t, i))
        return self._make(out, self.den)

    def apply_S(self, m: int) -> "QuasiPoly":
        """tau^m sigma(self), for sigma the substitution of S: tau -> -1/tau,
        P -> tau^2 P + 12 tau s (the S law of E2), Q -> tau^4 Q, R -> tau^6 R,
        s -> s.  Raises ValueError when the result has a negative power of
        tau."""
        out = {}
        for key, c in self.nums.items():
            t, p, q, r, e = unpack(key)
            # P^p -> sum_j C(p, j) (tau^2 P)^j (12 tau s)^(p-j); keyed by (power
            # of tau, the rest), as a term's power of tau may be negative and
            # cancel in the sum
            for j in range(p + 1):
                add_term(out, (m - t + p + j + 4 * q + 6 * r, pack(0, j, q, r, e + p - j)),
                         (-1) ** t * comb(p, j) * _E2_S_ANOMALY ** (p - j) * c)
        return self._make({pack(t, 0, 0, 0, 0) + k: c for (t, k), c in out.items()}, self.den)

    def to_qseries(self, order) -> "QSeries":
        """Exact q-expansion of a tau-free, s-free element: P, Q, R replaced
        by the expansions of E2, E4, E6.  A power of tau or of s = 1/(2*pi*i)
        has no exact q-expansion and raises."""
        from . import modforms
        from .qseries import QSeries

        e2, e4, e6 = (modforms.named_form(f"E{k}", order).series for k in (2, 4, 6))
        total = QSeries.zero(trunc=order)
        for (t, p, q, r, s), c in self.terms.items():
            if s:
                raise ValueError("monomial carries a power of s = 1/(2*pi*i)")
            if t:
                raise ValueError("element depends on tau; no scalar q-expansion")
            total = total + QSeries.constant(c, trunc=order) * e2**p * e4**q * e6**r
        return total

    # ------------------------------------------------------------------
    # display / serialization
    # ------------------------------------------------------------------

    def pretty(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        names = ("tau", "E2", "E4", "E6", "s")
        parts = []
        for key, c in sorted(terms.items(), reverse=True):
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


# convenient generators
TAU = QuasiPoly.var("tau")
P = QuasiPoly.var("P")
Q = QuasiPoly.var("Q")
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
        if len(d.nums) != 1:
            raise NotInvertible(f"determinant {d.pretty()} is not a monomial unit")
        (key, c), = d.nums.items()
        if key & _LOW:
            raise NotInvertible(f"determinant {d.pretty()} is not a unit")
        return adj.scale(QuasiPoly.monomial((0, 0, 0, 0, -(key >> 64)), Fraction(d.den, c)))

    def d_tau(self) -> "QuasiMatrix":
        return self.map(QuasiPoly.d_tau)

    def serre_D(self, k: int) -> "QuasiMatrix":
        return self.map(lambda e: e.serre_D(k))

    def shift_tau(self) -> "QuasiMatrix":
        return self.map(QuasiPoly.shift_tau)

    def pretty(self) -> str:
        return "[" + "; ".join(
            ", ".join(e.pretty() for e in row) for row in self.rows
        ) + "]"

    def __repr__(self):
        return f"QuasiMatrix({self.pretty()})"


class Sl2Bundle:
    """The weight -2, 0, 2 matrix forms and the triple (h, e, f) they span;
    the ``quasimodular.sl2_bundle`` row of the identity table certifies
    their relations."""

    def __init__(self):
        self.a_minus2 = QuasiMatrix([[TAU, -(TAU * TAU)], [1, -TAU]])
        self.a_0 = self.a_minus2.serre_D(-2)
        self.a_2 = self.a_0.serre_D(0)
        pi_sq = QuasiPoly.monomial((0, 0, 0, 0, -2), Fraction(-1, 4))
        self.f = self.a_minus2
        self.h = self.a_0.scale(S_INV)
        self.e = self.a_minus2.scale(pi_sq * Q * Fraction(1, 36)) + self.a_2.scale(pi_sq * 2)
