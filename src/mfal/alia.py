"""Weight-zero bracket tables over Q[j]: the six tables `mfal alia` prints.

The cocycle exponents (w4, w6) that place j and (j-1728) factors in the
brackets come from the weight-residue table, which makes each table the
Chevalley table in a diagonal gauge.  `mfal alia` prints each bracket
eps j^w4 (j-1728)^w6 straight from the Chevalley constant eps and the
cocycles, so it compiles `alia`, `liealg` and `poly`: no ring Q[j]
(`jpoly`, `sparse`) and no elimination (`linalg`).  ``AliaTable``, the table
as a ``BracketTable`` over Q[j], imports `jpoly` when it is built.  The rows
that prove it, and the fibers at a numeric j, are `mfal.checks_alia`.
"""

from . import RESIDUE_TABLE, liealg
from .liealg import BracketTable, ChevalleyStructure, GradedTriple


class OddGrading(ValueError):
    """Cocycles need an even grading (rho(-Id) = id)."""


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

    def entries(self):
        """Each entry (i, j, {k: eps}), i < j, of the Chevalley table with the
        exponents (w4, w6) of its factor j^w4 (j-1728)^w6: the cocycle values
        of the root pair for [A_a, A_b], and (0, 0) when an H is bracketed.

        The cocycle pairs are exactly the root pairs whose sum is a root or
        zero, so every root-root entry has its values.
        """
        st = self.triple.structure
        for (i, j), acc in st._table.items():
            (kx, vx), (ky, vy) = st.basis[i], st.basis[j]
            if kx == ky == "A":
                yield i, j, acc, self.w4[vx, vy], self.w6[vx, vy]
            else:
                yield i, j, acc, 0, 0


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

    def _build(self):
        """The Chevalley table, each entry times j^w4 (j-1728)^w6."""
        from .jpoly import JPoly

        table = {}
        for i, j, acc, w4, w6 in self.cocycles.entries():
            factor = JPoly.j_power_form(w4, w6)
            table[i, j] = {k: factor * c for k, c in acc.items()}
        return table

    # bound in AliaTable's own namespace, where perfbench's tracer looks
    jacobi_ok = BracketTable.jacobi_ok


_TABLE_CACHE: dict[tuple, AliaTable] = {}


def alia_table(type_label: str, orbit: str) -> AliaTable:
    """The table of an orbit, built once per process: its readers only read it."""
    key = (type_label, orbit)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = AliaTable(type_label, orbit)
    return _TABLE_CACHE[key]


def render(type_label: str, orbit: str, fmt: str) -> str:
    """What `mfal alia` prints: the table of the orbit as text or as JSON
    ("json"), each bracket [x, y] = eps j^w4 (j-1728)^w6 target, read off the
    Chevalley table and the cocycles.  Root-root pairs are oriented higher
    root first, so the A1 record reads [a_1, a_-1] = +j(j-1728) h1.  Raises
    ValueError for an orbit the type lacks."""
    triple = liealg.graded_triple(type_label, orbit)
    st = triple.structure
    basis = [f"h{v + 1}" if kind == "H" else "a_" + ",".join(map(str, v)) for kind, v in st.basis]
    records = []
    for i, j, acc, w4, w6 in sorted(CocyclePair(triple).entries()):
        flip = st.basis[i][0] == st.basis[j][0] == "A"
        x, y = (j, i) if flip else (i, j)
        for k, eps in sorted(acc.items()):
            records.append((basis[x], basis[y], basis[k], -eps if flip else eps, w4, w6))
    if fmt == "json":
        import json

        return json.dumps({"type": type_label, "orbit": orbit, "basis": basis, "brackets": [
            {"x": x, "y": y, "target": target, "coeff": {"eps": eps, "w4": w4, "w6": w6}}
            for x, y, target, eps, w4, w6 in records]}) + "\n"
    lines = [f"{type_label} {orbit}: basis {', '.join(basis)}"]
    for x, y, target, eps, w4, w6 in records:
        factor = ("j" if w4 else "") + ("(j-1728)" if w6 else "")
        lines.append(f"  [{x}, {y}] = {f'{eps} {factor}'.rstrip()} {target}")
    return "".join(line + "\n" for line in lines)
