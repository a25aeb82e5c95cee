"""The `alia` suite of `mfal verify`: the weight-zero bracket tables over
Q[j], proved by a diagonal gauge and certified on q-series.

It imports `alia`, `liealg` and, for the scalar oracle, `modforms`; never
`loopext`, `quasimodular` or `vvmf`.
"""

from __future__ import annotations

from fractions import Fraction

from . import alia, liealg, modforms
from .linalg import Matrix
from .modforms import series


def check_specialization(order):
    """det K(j) = c j^a (j-1728)^b, c != 0, with (a, b) the sum of the
    cocycle exponents (w4, w6)(alpha, -alpha) over the roots: every fiber is
    nondegenerate exactly when j is not 0 or 1728."""
    found = []
    for key in liealg.ORBIT_LABELS:
        table = alia.alia_table(*key)
        cp = table.cocycles
        pairs = [(r, tuple(-x for x in r)) for r in table.structure.rs.roots]
        a, b = sum(cp.w4[p] for p in pairs), sum(cp.w6[p] for p in pairs)
        det = Matrix(table.killing()).det()
        if not det or det != alia.JPoly.j_power_form(a, b) * det.coeffs[-1]:
            return False, f"det K(j) for {key} is {det.pretty()}, not c j^{a} (j-1728)^{b}"
        found.append(f"{key[0]} {key[1]} ({a}, {b})")
    return True, "det K(j) = c j^a (j-1728)^b over Q[j], (a, b) = " + ", ".join(found)


def _scalar_oracle(order):
    """F_{-k(a)} F_{-k(b)} = j^w4 (j-1728)^w6 F_{-k(a)-k(b)} for each orbit.

    This is the modular-forms side of the bracket tables: it reads only the
    grading and the cocycle exponents, never the residue arithmetic that
    produced them.
    """
    for key in liealg.ORBIT_LABELS:
        cocycles = alia.CocyclePair(liealg.graded_triple(*key))
        grading = cocycles.triple.grading
        exponents = {}
        for (alpha, beta), w4 in cocycles.w4.items():
            pair = tuple(sorted((grading[alpha], grading[beta])))
            exponents.setdefault(pair, (w4, cocycles.w6[(alpha, beta)]))
        # j^w4 (j-1728)^w6 multiplies w4 + w6 copies of j, of valuation -1
        degree = max((w4 + w6 for w4, w6 in exponents.values()), default=0)
        j = series("j", modforms.depth(order, (-1, degree)))
        for (ka, kb), (w4, w6) in exponents.items():
            rhs = alia.JPoly.j_power_form(w4, w6).as_series(j) * series(f"F_k:{-ka - kb}", order)
            yield (f"{key[0]} {key[1]}: F_{-ka} F_{-kb} = j^{w4} (j-1728)^{w6} F_{-ka - kb}",
                   series(f"F_k:{-ka}", order) * series(f"F_k:{-kb}", order), rhs)


def _barrel_contraction(order):
    """[e, f] = j(j-1728) h in the A1 table, and its fibers at j = 0, 1728."""
    table = alia.alia_table("A1", "principal")
    idx_e = table.index[("A", (1,))]
    idx_f = table.index[("A", (-1,))]
    idx_h = table.index[("H", 0)]
    yield ("[e, f] = j(j-1728) h",
           table.bracket({idx_e: alia.JPoly.const(1)}, {idx_f: alia.JPoly.const(1)}),
           {idx_h: alia.JPoly((0, -1728, 1))})
    for j_val in (0, 1728):
        spec = table.specialize(j_val)
        yield (f"[e, f] = 0 at j={j_val}",
               spec.bracket_vectors({idx_e: Fraction(1)}, {idx_f: Fraction(1)}), {})
        yield f"solvable at j={j_val}", spec.is_solvable(within_steps=3), True


def _levi(order):
    """(radical, Levi) dimensions of two orbits."""
    for key, dims in ((("A1", "principal"), (1, 0)), (("B2", "subregular"), (1, 3))):
        radical, levi = alia.levi_dimensions(*key)
        yield f"{key[0]} {key[1]} radical dimension {dims[0]}", radical, dims[0]
        yield f"{key[0]} {key[1]} Levi dimension {dims[1]}", levi, dims[1]


IDENTITIES = {
    "alia.cocycle_values": (
        "symmetric and {{0,1}}-valued for all six orbits", alia.cocycle_value_lemmas),
    "alia.cocycle_condition": ("proved (w4, w6 are coboundaries)", alia.coboundary_lemmas),
    "alia.jacobi_tables": ("proved (Chevalley bracket in a diagonal gauge)", alia.gauge_lemmas),
    "alia.scalar_oracle": ("two-route certification for all orbits", _scalar_oracle),
    "alia.barrel_contraction": (
        "barrel bracket and solvable contractions at j=0, 1728", _barrel_contraction),
    "alia.levi_dimensions": ("dimension bookkeeping for sample orbits", _levi),
}

CHECKS = {"alia.specialization": check_specialization}
