"""Weight-zero bracket tables over Q[j]: the six tables `mfal alia` prints.

The cocycle exponents (w4, w6) that place j and (j-1728) factors in the
brackets come from the weight-residue table, which makes each table the
Chevalley table in a diagonal gauge.  The rows that prove it, and the fibers
at a numeric j, are `mfal.checks_alia`: this module holds only what a table
needs, so `mfal alia` compiles `alia`, `liealg`, `poly` and `sparse` and no
elimination (`linalg`).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import RESIDUE_TABLE, liealg
from .liealg import BracketTable, ChevalleyStructure, GradedTriple
from .poly import horner
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


_TABLE_CACHE: dict[tuple, AliaTable] = {}


def alia_table(type_label: str, orbit: str) -> AliaTable:
    """The table of an orbit, built once per process: its readers only read it."""
    key = (type_label, orbit)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = AliaTable(type_label, orbit)
    return _TABLE_CACHE[key]


def render(type_label: str, orbit: str, fmt: str) -> str:
    """What `mfal alia` prints: the table of the orbit as text or as JSON
    ("json"), each bracket [x, y] = eps j^w4 (j-1728)^w6 target.  Raises
    ValueError for an orbit the type lacks."""
    table = alia_table(type_label, orbit)
    basis, records = [table.basis_name(i) for i in range(table.dim)], table.bracket_records()
    if fmt == "json":
        import json

        return json.dumps({"type": type_label, "orbit": orbit, "basis": basis, "brackets": [
            {"x": x, "y": y, "target": target,
             "coeff": {"eps": int(eps) if eps.denominator == 1 else str(eps), "w4": w4, "w6": w6}}
            for x, y, target, eps, w4, w6 in records]}) + "\n"
    lines = [f"{type_label} {orbit}: basis {', '.join(basis)}"]
    for x, y, target, eps, w4, w6 in records:
        factor = ("j" if w4 else "") + ("(j-1728)" if w6 else "")
        lines.append(f"  [{x}, {y}] = {f'{eps} {factor}'.rstrip()} {target}")
    return "".join(line + "\n" for line in lines)
