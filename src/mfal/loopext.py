"""Polyhedral loop algebras: residue cocycles, Onsager realization,
evaluation representations.

Pole sets live in the cyclotomic fields Q(zeta_n), n in {1, 3, 4, 5}, of
``mfal.cyclotomic``, and every rational function is kept as its partial
fractions over that field, so a residue is read off exactly as one
coefficient.  The cocycle res_a(f' g) never forms f' g: only the principal
part of each factor at a meets the other's Taylor expansion there, so
``residue_of_product`` sums a few products of coefficients.
"""

from __future__ import annotations

from math import comb

from . import sl2
from .cyclotomic import CycloField, CycloNumber
from .linalg import Matrix, dot, rank
from .poly import Ring, add, mul, trim
from .sparse import Sparse


class PoleAtEvaluationPoint(ValueError):
    """Evaluation representation asked to evaluate at a pole."""


# ----------------------------------------------------------------------
# rational functions over a cyclotomic field, in partial fractions
# ----------------------------------------------------------------------

def _num(field: type[CycloNumber], x) -> CycloNumber:
    return x if isinstance(x, CycloNumber) else field.rational(x)


class RatFunc(Ring):
    """A rational function over a ``CycloField`` as its partial fractions.

    f = P(t) + sum_a sum_k c_(a,k) (t - a)^(-k).  ``poly`` lists P's
    coefficients, lowest degree first; ``parts`` maps the ``key`` of each
    pole a to ``(a, [c_(a,1), c_(a,2), ...])``.  Lists carry no
    trailing zeros and no part is empty, so the form is unique: a residue
    is a lookup and ``is_zero`` is exact.
    """

    __slots__ = ("field", "poly", "parts", "_derivative")

    def __init__(self, field: type[CycloNumber], poly, parts=None):
        # the lists passed in are trimmed in place and never changed afterwards
        self.field = field
        self.poly = trim(poly)
        self.parts, self._derivative = {}, None
        for key, (a, cs) in (parts or {}).items():
            if trim(cs):
                self.parts[key] = (a, cs)

    @classmethod
    def polynomial(cls, field, coeffs):
        return cls(field, [_num(field, c) for c in coeffs])

    @classmethod
    def t_power(cls, field, k: int):
        if k >= 0:
            return cls(field, [field.zero] * k + [field.one])
        return cls.pole_factor(field, field.zero, -k)

    @classmethod
    def pole_factor(cls, field, a, power: int = 1):
        """(t - a)^(-power) for power >= 1."""
        if power < 1:
            raise ValueError(f"pole order must be at least 1, got {power}")
        a = _num(field, a)
        return cls(field, [], {a.key: (a, [field.zero] * (power - 1) + [field.one])})

    def __bool__(self) -> bool:
        return bool(self.poly or self.parts)

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            # a constant: an int, a Fraction or a CycloNumber
            other = RatFunc(self.field, [_num(self.field, other)])
        parts = dict(self.parts)
        for key, (a, cs) in other.parts.items():
            _merge(parts, key, a, cs)
        return RatFunc(self.field, add(self.poly, other.poly), parts)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return RatFunc(
                self.field, [c * other for c in self.poly],
                {k: (a, [c * other for c in cs]) for k, (a, cs) in self.parts.items()},
            )
        # at each pole a, f g = (P_f + T_f)(P_g + T_g) for the principal parts
        # P and the Taylor series T of the rest: P_f P_g and the principal
        # parts of P_f T_g and P_g T_f make its principal part at a
        zero = self.field.zero
        poly = mul(self.poly, other.poly, zero)
        parts = {}
        for key, (a, cs) in self.parts.items():
            if key in other.parts:
                _merge(parts, key, a, [zero] + mul(cs, other.parts[key][1], zero))
        for f, g in ((self, other), (other, self)):
            for key, (a, cs) in f.parts.items():
                _merge(parts, key, a, _principal(cs, _taylor_at(g, key, a, len(cs)), zero))
                # c_k (t - a)^-k times g's polynomial has polynomial part c_k q_k
                for c, (_, q) in zip(cs, _divisions(a, g.poly, len(cs), zero)):
                    if c:
                        poly = add(poly, [c * x for x in q])
        return RatFunc(self.field, poly, parts)

    def derivative(self) -> "RatFunc":
        # taken once, as f never changes: ``cocycle_rank`` reads the cocycle
        # of one pair at every point
        if self._derivative is None:
            self._derivative = RatFunc(
                self.field,
                [c * i for i, c in enumerate(self.poly)][1:],
                {
                    key: (a, [self.field.zero] + [c * -k for k, c in enumerate(cs, 1)])
                    for key, (a, cs) in self.parts.items()
                },
            )
        return self._derivative

    def evaluate(self, point) -> CycloNumber:
        """f(point): the constant Taylor coefficient of f there."""
        point = _num(self.field, point)
        if point.key in self.parts:
            raise PoleAtEvaluationPoint("f has a pole at the point")
        return (_taylor_at(self, point.key, point, 1) or [self.field.zero])[0]


def _merge(parts, key, a, cs):
    """Add the principal part cs at a into parts."""
    if key in parts:
        cs = add(parts[key][1], cs)
    parts[key] = (a, cs)


def _principal(cs, taylor, zero):
    """Principal part at a of (sum_k c_k u^-k) * (sum_m taylor_m u^m), u = t - a:
    the coefficient of u^-j is sum_(k >= j) c_k taylor_(k-j)."""
    return [dot(cs[j:], taylor, zero) for j in range(len(cs))]


def _divisions(a, p, count, zero):
    """Divide p by (t - a) up to count times with Horner's rule, yielding
    (r_(k-1), q_k) for k = 1, 2, ... while q_(k-1) is nonzero:
    p = r_0 + r_1 (t - a) + ... + r_(k-1) (t - a)^(k-1) + (t - a)^k q_k, so
    r_m is the m-th Taylor coefficient of p at a.  At a = 0 each division is
    a shift."""
    q = p
    for _ in range(count):
        if not q:
            return
        if a:
            acc, q = zero, list(q)
            for i in range(len(q) - 1, -1, -1):
                acc = q[i] = acc * a + q[i]
        r, q = q[0], q[1:]
        yield r, q


# ----------------------------------------------------------------------
# residues
# ----------------------------------------------------------------------

def residue(f: RatFunc, point) -> CycloNumber:
    """Residue of f at a finite point: the coefficient c_(a,1) of 1/(t - a)."""
    part = f.parts.get(_num(f.field, point).key)
    return part[1][0] if part else f.field.zero


def residue_of_product(f: RatFunc, g: RatFunc, point) -> CycloNumber:
    """res_point(f g) without forming f g.

    With u = t - a, write f = P_f(u) + T_f(u) for its principal part at a and
    the Taylor series there of the rest (the polynomial and the other poles),
    and g likewise.  P_f P_g has only u^-2 and lower, T_f T_g no negative
    power, so res(f g) = sum_k c_k T_g[k-1] + sum_k d_k T_f[k-1] for the
    principal coefficients c_k of f and d_k of g.
    """
    key = _num(f.field, point).key
    zero = f.field.zero
    total = zero
    for h, other in ((f, g), (g, f)):
        if key in h.parts:
            a, cs = h.parts[key]
            total = total + dot(cs, _taylor_at(other, key, a, len(cs)), zero)
    return total


def _taylor_at(f: RatFunc, key, a, count):
    """First Taylor coefficients (at most count) at a of f minus its
    principal part at a, the part keyed ``key``.  A pole b contributes, with
    u = t - a and e = a - b, (u + e)^-k = sum_m (-1)^m C(k+m-1, m) e^(-k-m) u^m."""
    zero = f.field.zero
    out = [r for r, _ in _divisions(a, f.poly, count, zero)]
    for kb, (b, ds) in f.parts.items():
        if kb == key:
            continue
        inv = (a - b).inverse()
        pows = [f.field.one]  # pows[n] = e^-n
        for _ in range(len(ds) + count - 1):
            pows.append(pows[-1] * inv)
        out = add(out, [
            sum((d * pows[k + m] * ((-1) ** m * comb(k + m - 1, m))
                 for k, d in enumerate(ds, 1) if d), zero)
            for m in range(count)
        ])
    return out


def residue_at_infinity(f: RatFunc, finite_points) -> CycloNumber:
    """-(sum of finite residues); the total residue over P^1 vanishes.

    Raises ValueError when f has a pole outside ``finite_points``.
    """
    given = {_num(f.field, a).key for a in finite_points}
    for key, (a, _) in f.parts.items():
        if key not in given:
            raise ValueError(f"f has a pole at {a!r}, outside the given points")
    total = f.field.zero
    for _, cs in f.parts.values():
        total = total + cs[0]
    return -total


# ----------------------------------------------------------------------
# pole-set presets
# ----------------------------------------------------------------------

def pole_preset(name: str):
    """(field, finite pole points) for the named puncture configuration."""
    if name == "dihedral":
        field = CycloField(1)
        return field, (field.zero, field.one)
    if name == "tetrahedral":
        field = CycloField(3)
        w = field.zeta
        return field, (field.one, w, w * w)
    if name == "octahedral":
        field = CycloField(4)
        i = field.zeta
        return field, (field.zero, field.one, -field.one, i, -i)
    if name == "icosahedral":
        field = CycloField(5)
        z = field.zeta
        pts = [field.zero]
        for j in range(5):
            pts.append(z**j * (z + z**4))
            pts.append(z**j * (z**2 + z**3))
        return field, tuple(pts)
    raise ValueError(f"unknown pole preset {name!r}")


# ----------------------------------------------------------------------
# the central-extension cocycle
# ----------------------------------------------------------------------

def loop_cocycle(structure, x: dict, f: RatFunc, y: dict, g: RatFunc, point) -> CycloNumber:
    """omega(x f, y g) = K(x, y) * res_point(f' g).

    The derivative rides on the first argument so that monomials satisfy
    omega(x z^m, y z^n) = m K(x, y) delta_{m+n,0}; integration by parts
    flips the sign, matching antisymmetry.
    """
    k_val = structure.killing_form(x, y)
    if k_val == 0:
        return f.field.zero
    return residue_of_product(f.derivative(), g, point) * k_val


def cocycle_rank(structure, samples, points) -> int:
    """Rank of the matrix of cocycle values at the finite points.

    Rows are sampled pairs, columns the puncture cocycles; rank M-1 means
    the produced central extensions are independent.
    """
    return rank([[loop_cocycle(structure, x, f, y, g, p) for p in points]
                 for (x, f), (y, g) in samples])


# ----------------------------------------------------------------------
# Onsager algebra via Roan's fixed-point realization
# ----------------------------------------------------------------------

class Laurent(Sparse):
    """A Laurent polynomial in z over Q: a ``sparse.Sparse`` whose exponent is
    the power of z."""

    __slots__ = ()


def _laurent_matrix(rows) -> Matrix:
    """A 2x2 Matrix over Laurent from rows of {exponent: coefficient}."""
    return Matrix([[Laurent(e) for e in row] for row in rows])


def onsager_A(k: int) -> Matrix:
    return _laurent_matrix([[{}, {k: 1}], [{-k: 1}, {}]])


def onsager_G(m: int) -> Matrix:
    if m == 0:
        return _laurent_matrix([[{}, {}], [{}, {}]])
    return _laurent_matrix([[{m: 1, -m: -1}, {}], [{}, {m: -1, -m: 1}]])


# ----------------------------------------------------------------------
# evaluation representations
# ----------------------------------------------------------------------

class EvaluationRep:
    """Tensor-product evaluation of sl2-valued rational functions.

    ev(x (x) f) = sum_i Id (x) ... (x) psi_i(x) f(a_i) (x) ... (x) Id.
    sl2 is A1: x is a vector over the Chevalley basis of
    ``liealg.chevalley("A1")``, as in ``loop_cocycle``, and psi_i sends its
    e, f, h (``sl2_triple``, each one basis vector) to those of Sym^n.  The
    table is built with the representation, so importing this module
    compiles no root system.
    """

    def __init__(self, field: type[CycloNumber], points, rep_sizes):
        from . import liealg

        self.field = field
        self.points = [_num(field, p) for p in points]
        self.reps = [sl2.SymRep(n) for n in rep_sizes]
        self.dims = [r.dim for r in self.reps]
        self.a1 = liealg.chevalley("A1")
        self._indices = [i for (i,) in self.a1.sl2_triple((1,))]  # of e, f, h

    def _psi(self, i: int, x: dict) -> Matrix:
        rep = self.reps[i]
        mats = dict(zip(self._indices, (rep.e, rep.f, rep.h)))
        psi = sum((Matrix(mats[k]).scale(c) for k, c in x.items()),
                  Matrix([[0] * rep.dim] * rep.dim))
        return psi.map(self.field.rational)

    def _slot(self, i: int, mat: Matrix) -> Matrix:
        out = None
        for k, d in enumerate(self.dims):
            factor = mat if k == i else Matrix.identity(d, self.field.one)
            out = factor if out is None else out.kron(factor)
        return out

    def evaluate(self, x: dict, f: RatFunc) -> Matrix:
        total = None
        for i, a in enumerate(self.points):
            value = f.evaluate(a)  # raises PoleAtEvaluationPoint at a pole
            term = self._slot(i, self._psi(i, x).scale(value))
            total = term if total is None else total + term
        return total

    def homomorphism_residual(self, x: dict, f: RatFunc, y: dict, g: RatFunc):
        lhs = self.evaluate(self.a1.bracket(x, y), f * g)
        rhs = self.evaluate(x, f).commutator(self.evaluate(y, g))
        return lhs - rhs
