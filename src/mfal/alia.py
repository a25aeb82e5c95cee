"""Weight-zero bracket tables over Q[j] and their two-route certification.

The cocycle exponents (w4, w6) that place j and (j-1728) factors in the
brackets come from the weight-residue table, which makes each table the
Chevalley table in a diagonal gauge (``gauge_lemmas``, a proof of Jacobi); the
``alia.scalar_oracle`` row proves the scalar identities behind them,
F_{-a} F_{-b} = j^w4 (j-1728)^w6 F_{-a-b}, as monomials in E4, E6 and 1/Delta.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from . import RESIDUE_TABLE, liealg
from .liealg import BracketTable, ChevalleyStructure, GradedTriple
from .linalg import rank, rref
from .poly import horner, monomial_count
from .sparse import Sparse


class OddGrading(ValueError):
    """Cocycles need an even grading (rho(-Id) = id)."""


# ----------------------------------------------------------------------
# univariate polynomials in j over Q
# ----------------------------------------------------------------------

class JPoly(Sparse):
    """A polynomial in j over Q: a ``sparse.Sparse`` whose exponent is the
    power of j.

    ``JPoly(coeffs)`` reads dense coefficients, lowest degree first, and
    ``coeffs`` reads them back as Fractions up to the degree.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(dict(enumerate(coeffs)))

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(self.nums.get(i, 0), self.den) for i in range(self.degree() + 1))

    @classmethod
    def j_power_form(cls, w4: int, w6: int):
        """j^w4 (j - 1728)^w6, by the binomial theorem."""
        return cls._make({w4 + k: comb(w6, k) * (-1728) ** (w6 - k) for k in range(w6 + 1)}, 1)

    def degree(self):
        return max(self.nums, default=-1)

    def __call__(self, value):
        return horner(self.coeffs, Fraction(value), Fraction(0))

    def pretty(self):
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "j" if i == 1 else f"j^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(reversed(parts)).replace("+ -", "- ")

    def __repr__(self):
        return f"JPoly({self.pretty()})"


# ----------------------------------------------------------------------
# cocycles from the weight-residue table
# ----------------------------------------------------------------------

def residue_exponents(k: int):
    if k % 2:
        raise OddGrading(f"weight {k} is odd")
    return RESIDUE_TABLE[k % 12]


class CocyclePair:
    """Symmetric {0,1}-valued maps w4, w6 on bracket-relevant root pairs."""

    def __init__(self, triple: GradedTriple):
        rs = triple.structure.rs
        grading = triple.grading
        if any(g % 2 for g in grading.values()):
            raise OddGrading("grading must be even (rho(-Id) = id)")
        self.triple = triple
        self.w4 = {}
        self.w6 = {}
        for alpha in rs.roots:
            for beta in rs.roots:
                s = tuple(a + b for a, b in zip(alpha, beta))
                if s not in rs.root_set and any(s):
                    continue
                ka, kb = grading[alpha], grading[beta]
                n4a, n6a = residue_exponents(-ka)
                n4b, n6b = residue_exponents(-kb)
                n4s, n6s = residue_exponents(-ka - kb)
                w4, r4 = divmod(n4a - n4s + n4b, 3)
                w6, r6 = divmod(n6a - n6s + n6b, 2)
                if r4 or r6:
                    raise AssertionError("coboundary values are not integral")
                if w4 not in (0, 1) or w6 not in (0, 1):
                    raise AssertionError("cocycle value outside {0,1}")
                self.w4[(alpha, beta)] = w4
                self.w6[(alpha, beta)] = w6


# ----------------------------------------------------------------------
# the bracket table over Q[j]
# ----------------------------------------------------------------------

class AliaTable(BracketTable):
    """Free Q[j]-module on {h_i} + {a_alpha} with the cocycle brackets."""

    def __init__(self, type_label: str, orbit: str):
        self.type_label = type_label
        self.orbit = orbit
        self.triple = liealg.graded_triple(type_label, orbit)
        self.structure: ChevalleyStructure = self.triple.structure
        self.cocycles = CocyclePair(self.triple)
        self.basis = list(self.structure.basis)
        self.index = self.structure.index
        super().__init__(self.structure.dim, self._build())

    def basis_name(self, i: int) -> str:
        kind, val = self.basis[i]
        if kind == "H":
            return f"h{val + 1}"
        return "a_" + ",".join(str(x) for x in val)

    def _build(self):
        """The Chevalley table, each root-root entry times j^w4 (j-1728)^w6.

        The cocycle pairs are exactly the root pairs whose sum is a root or
        zero, so the supports of the two tables agree.
        """
        one = JPoly.const(1)
        table = {}
        for (i, j), acc in self.structure._table.items():
            (kx, vx), (ky, vy) = self.basis[i], self.basis[j]
            factor = one
            if kx == ky == "A":
                factor = JPoly.j_power_form(
                    self.cocycles.w4[(vx, vy)], self.cocycles.w6[(vx, vy)]
                )
            table[(i, j)] = {k: factor * c for k, c in acc.items()}
        return table

    # bound in AliaTable's own namespace, where perfbench's tracer looks
    jacobi_ok = BracketTable.jacobi_ok

    # ------------------------------------------------------------------
    # specialization at a numeric j
    # ------------------------------------------------------------------

    def specialize(self, j_value) -> "SpecializedAlgebra":
        return SpecializedAlgebra(self, Fraction(j_value))

    def bracket_records(self):
        """Flat listing for the CLI: one record per nonzero bracket.

        Each record is (x, y, target, eps, w4, w6) for the bracket
        [x, y] = eps j^w4 (j-1728)^w6 target.  Root-root pairs are oriented
        higher root first, so the A1 record reads [a_1, a_-1] = +j(j-1728) h1.
        """
        records = []
        for (i, j), acc in sorted(self._table.items()):
            (kx, vx), (ky, vy) = self.basis[i], self.basis[j]
            flip = kx == "A" and ky == "A"
            x, y = (j, i) if flip else (i, j)
            sign = -1 if flip else 1
            w4 = self.cocycles.w4[(vx, vy)] if flip else 0
            w6 = self.cocycles.w6[(vx, vy)] if flip else 0
            for k, poly in sorted(acc.items()):
                # j^w4 (j-1728)^w6 is monic, so eps is the leading coefficient
                records.append(
                    (self.basis_name(x), self.basis_name(y), self.basis_name(k),
                     poly.coeffs[-1] * sign, w4, w6)
                )
        return records


class SpecializedAlgebra(BracketTable):
    """The fiber of an AliaTable at a numeric value of j."""

    def __init__(self, table: AliaTable, j_value: Fraction):
        self.j_value = j_value
        consts = {}
        for key, acc in table._table.items():
            vals = {k: v for k, poly in acc.items() if (v := poly(j_value))}
            if vals:
                consts[key] = vals
        super().__init__(table.dim, consts)

    def derived_series_lengths(self, max_steps=6):
        """Dimensions of the derived series D^0 >= D^1 >= ..."""
        current = [{i: 1} for i in range(self.dim)]
        dims = [self.dim]
        for _ in range(max_steps):
            brackets = []
            for a, b in itertools.combinations(range(len(current)), 2):
                v = self.bracket(current[a], current[b])
                if v:
                    brackets.append(v)
            reduced = rref(_dense(brackets, self.dim))[0]
            basis = [{i: c for i, c in enumerate(row) if c} for row in reduced]
            dims.append(len(basis))
            if not basis or len(basis) == dims[-2]:
                break
            current = basis
        return dims

    def is_solvable(self, within_steps=3) -> bool:
        dims = self.derived_series_lengths(max_steps=within_steps + 1)
        return 0 in dims[: within_steps + 1]


def _dense(vectors, dim):
    """Rows of coefficients from index -> coefficient dicts."""
    return [[v.get(i, 0) for i in range(dim)] for v in vectors]


_TABLE_CACHE: dict[tuple, AliaTable] = {}


def alia_table(type_label: str, orbit: str) -> AliaTable:
    """The table of an orbit, built once per process: its readers only read it."""
    key = (type_label, orbit)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = AliaTable(type_label, orbit)
    return _TABLE_CACHE[key]


def _gauges():
    """Each orbit, its table and n(x) = (n4, n6) on its basis, the residue
    exponents of weight -k(x), k(h_i) = 0.  The rows below ignore their order."""
    for key in liealg.ORBIT_LABELS:
        table = alia_table(*key)
        yield key, table, {x: residue_exponents(-table.triple.grading.get(x[1], 0))
                           for x in table.basis}


def cocycle_value_lemmas(order):
    """``alia.cocycle_values``: w(a, b) = w(b, a) and w(w - 1) = 0."""
    for key, table, _ in _gauges():
        for name, w in (("w4", table.cocycles.w4), ("w6", table.cocycles.w6)):
            for (a, b), v in w.items():
                yield f"{key} {name}({a}, {b}) = {name}({b}, {a})", v, w.get((b, a))
                yield f"{key} {name}({a}, {b}) in {{0, 1}}", v * (v - 1), 0


def coboundary_lemmas(order):
    """``alia.cocycle_condition``: w4, w6 are the coboundaries of n4/3, n6/2 on
    every stored pair (n(0) = 0), and a coboundary w(a,b) = m(a) + m(b) - m(a+b)
    has w(a,b) + w(a+b,c) = m(a) + m(b) + m(c) - m(a+b+c) = w(b,c) + w(a,b+c)."""
    for key, table, n in _gauges():
        for i, (w, p) in enumerate(((table.cocycles.w4, 3), (table.cocycles.w6, 2))):
            for (a, b), v in w.items():
                s = tuple(x + y for x, y in zip(a, b))
                yield (f"{key} {p} w{4 + 2 * i}({a}, {b}) = delta n{4 + 2 * i}", p * v,
                       n["A", a][i] + n["A", b][i] - n.get(("A", s), (0, 0))[i])


def gauge_lemmas(order):
    """``alia.jacobi_tables``: the lemmas of ``liealg.jacobi`` and, on each
    Chevalley entry [x_a, x_b] = ... + c x_k + ..., n(x_a) + n(x_b) - n(x_k) =
    (3 w4, 2 w6), w4, w6 >= 0, with the table's coefficient c j^w4 (j-1728)^w6
    there and no other.  So the bracket is D^-1 [Dx, Dy] for the diagonal map
    D: x -> j^(n4/3) (j-1728)^(n6/2) x over an extension of Q(j), and its
    Jacobiator D^-1 of the Chevalley one: zero by the lemmas and antisymmetry."""
    yield from liealg.jacobi_lemmas(order)
    for key, table, n in _gauges():
        for a, b, k in sorted({(a, b, k) for t in (table.structure, table)
                               for (a, b), acc in t._table.items() for k in acc}):
            entry = f"{key} [x_{a}, x_{b}] at x_{k}"
            d4, d6 = (x + y - z for x, y, z in zip(*(n[table.basis[i]] for i in (a, b, k))))
            w4, w6 = max(d4 // 3, 0), max(d6 // 2, 0)
            yield f"{entry}: 3 | delta4 >= 0", d4, 3 * w4
            yield f"{entry}: 2 | delta6 >= 0", d6, 2 * w6
            yield (entry, table.bracket_indices(a, b).get(k, 0),
                   JPoly.j_power_form(w4, w6) * table.structure.bracket_indices(a, b).get(k, 0))


# ----------------------------------------------------------------------
# Levi decomposition bookkeeping
# ----------------------------------------------------------------------

def levi_dimensions(type_label: str, orbit: str):
    """(radical_dim, levi_dim) of the polynomial-growth weight-zero algebra.

    radical = dim z(g_0) + sum_{n>0} dim g_{-n} * dim M_n(Gamma(1));
    levi = dim of the derived subalgebra of g_0.
    """
    triple = liealg.graded_triple(type_label, orbit)
    st = triple.structure
    g0 = [st.index[("H", i)] for i in range(st.rs.rank)]
    g0 += [st.index[("A", r)] for r in st.rs.roots if triple.grading[r] == 0]
    brackets = []
    for a, b in itertools.combinations(g0, 2):
        v = st.bracket({a: 1}, {b: 1})
        if v:
            brackets.append(v)
    levi = rank(_dense(brackets, st.dim))
    centre = len(g0) - levi
    radical = centre
    negatives = {}
    for r, g in triple.grading.items():
        if g < 0:
            negatives[-g] = negatives.get(-g, 0) + 1
    for n, count in negatives.items():
        radical += count * monomial_count(n)
    return radical, levi
