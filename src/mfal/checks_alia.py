"""The `alia` suite of `mfal verify`: the weight-zero bracket tables over
Q[j], proved by a diagonal gauge, and their scalar factors as monomials in
E4, E6 and 1/Delta.

It imports `alia`, `liealg` and `linalg`; never `loopext`, `quasimodular`,
`vvmf` or a q-series module (`qseries`, `modforms`).
"""

from __future__ import annotations

from . import alia, liealg
from .linalg import Matrix

#: the exponents of (Delta, E4, E6) in j = E4^3/Delta and in j - 1728 = E6^2/Delta
_J, _J_MINUS_1728 = (-1, 3, 0), (-1, 0, 2)


def _f_exponents(k):
    """(l, n4, n6) of the Duke-Jenkins generator F_k = Delta^l E4^n4 E6^n6 of
    weight k: (n4, n6) from the residue table and 12 l + 4 n4 + 6 n6 = k."""
    n4, n6 = alia.residue_exponents(k)
    return (k - 4 * n4 - 6 * n6) // 12, n4, n6


def _scalar_oracle(order):
    """F_{-k(a)} F_{-k(b)} = j^w4 (j-1728)^w6 F_{-k(a)-k(b)} for each orbit,
    as an identity of monomials in Q[E4, E6, 1/Delta].

    j = E4^3/Delta, and 1728 Delta = E4^3 - E6^2 makes j - 1728 = E6^2/Delta,
    so both sides are monomials Delta^l E4^n4 E6^n6.  E4 and E6 are
    algebraically independent and Delta is prime to both in Q[E4, E6], so two
    monomials are equal exactly when their exponents of Delta, E4 and E6 are:
    three int lemmas per identity, which hold at every order.  The row reads
    the grading and the cocycle exponents of every root pair; each distinct
    (k(a), k(b), w4, w6) of an orbit is named once.
    """
    for key in liealg.ORBIT_LABELS:
        cocycles = alia.alia_table(*key).cocycles
        grading = cocycles.triple.grading
        for ka, kb, w4, w6 in dict.fromkeys(
                (*sorted((grading[a], grading[b])), w4, cocycles.w6[a, b])
                for (a, b), w4 in cocycles.w4.items()):
            identity = f"{key[0]} {key[1]}: F_{-ka} F_{-kb} = j^{w4} (j-1728)^{w6} F_{-ka - kb}"
            for name, ea, eb, es, j, j_1728 in zip(
                    ("Delta", "E4", "E6"), _f_exponents(-ka), _f_exponents(-kb),
                    _f_exponents(-ka - kb), _J, _J_MINUS_1728):
                yield f"{identity}, exponent of {name}", ea + eb, es + w4 * j + w6 * j_1728


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
               spec.bracket({idx_e: 1}, {idx_f: 1}), {})
        yield f"solvable at j={j_val}", spec.is_solvable(within_steps=3), True


def _specialization(order):
    """det K(j) = c j^a (j-1728)^b, c != 0, with (a, b) the sum of the
    cocycle exponents (w4, w6)(alpha, -alpha) over the roots: every fiber is
    nondegenerate exactly when j is not 0 or 1728."""
    for key in liealg.ORBIT_LABELS:
        table = alia.alia_table(*key)
        cp = table.cocycles
        pairs = [(r, tuple(-x for x in r)) for r in table.structure.rs.roots]
        a, b = sum(cp.w4[p] for p in pairs), sum(cp.w6[p] for p in pairs)
        det = Matrix(table.killing()).det()
        yield f"{key[0]} {key[1]}: det K(j) != 0", bool(det), True
        yield (f"{key[0]} {key[1]}: det K(j) = c j^a (j-1728)^b, (a, b) = ({a}, {b})",
               det, alia.JPoly.j_power_form(a, b) * (det.coeffs[-1] if det else 0))


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
    "alia.scalar_oracle": (
        "monomial identities in Q[E4, E6, 1/Delta] for all orbits, Delta = (E4^3-E6^2)/1728; "
        "Delta = eta^24 by modforms.delta_dual_route", _scalar_oracle),
    "alia.barrel_contraction": (
        "barrel bracket and solvable contractions at j=0, 1728", _barrel_contraction),
    "alia.specialization": (
        "det K(j) = c j^a (j-1728)^b, c != 0, over Q[j] for all six orbits", _specialization),
    "alia.levi_dimensions": ("dimension bookkeeping for sample orbits", _levi),
}
