"""The `alia` suite of `mfal verify`: the weight-zero bracket tables over
Q[j], proved by a diagonal gauge, their scalar factors as monomials in E4, E6
and 1/Delta, and their fibers at a numeric j.

The code only these rows run lives here, not in `alia`, so `mfal alia`
compiles none of it: the gauge and cocycle lemmas, `SpecializedAlgebra` (a
table at a value of j) and `levi_dimensions`.  It imports `alia`, `liealg`
and `linalg`; never `loopext`, `quasimodular`, `vvmf` or a q-series module
(`qseries`, `modforms`).
"""

from __future__ import annotations

import itertools

from . import alia, liealg
from .linalg import Matrix, rank, rref
from .poly import monomial_count

#: the exponents of (Delta, E4, E6) in j = E4^3/Delta and in j - 1728 = E6^2/Delta
_J, _J_MINUS_1728 = (-1, 3, 0), (-1, 0, 2)


def _gauges():
    """Each orbit, its table and n(x) = (n4, n6) on its basis, the residue
    exponents of weight -k(x), k(h_i) = 0.  The rows below ignore their order."""
    for key in liealg.ORBIT_LABELS:
        table = alia.alia_table(*key)
        yield key, table, {x: alia.residue_exponents(-table.triple.grading.get(x[1], 0))
                           for x in table.basis}


def _cocycle_values(order):
    """``alia.cocycle_values``: w(a, b) = w(b, a) and w(w - 1) = 0."""
    for key, table, _ in _gauges():
        for name, w in (("w4", table.cocycles.w4), ("w6", table.cocycles.w6)):
            for (a, b), v in w.items():
                yield f"{key} {name}({a}, {b}) = {name}({b}, {a})", v, w.get((b, a))
                yield f"{key} {name}({a}, {b}) in {{0, 1}}", v * (v - 1), 0


def _coboundaries(order):
    """``alia.cocycle_condition``: w4, w6 are the coboundaries of n4/3, n6/2 on
    every stored pair (n(0) = 0), and a coboundary w(a,b) = m(a) + m(b) - m(a+b)
    has w(a,b) + w(a+b,c) = m(a) + m(b) + m(c) - m(a+b+c) = w(b,c) + w(a,b+c)."""
    for key, table, n in _gauges():
        for i, (w, p) in enumerate(((table.cocycles.w4, 3), (table.cocycles.w6, 2))):
            for (a, b), v in w.items():
                s = tuple(x + y for x, y in zip(a, b))
                yield (f"{key} {p} w{4 + 2 * i}({a}, {b}) = delta n{4 + 2 * i}", p * v,
                       n["A", a][i] + n["A", b][i] - n.get(("A", s), (0, 0))[i])


def _gauge(order):
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
            yield (entry, table.bracket_indices(a, b).get(k, 0), alia.JPoly.j_power_form(w4, w6)
                   * table.structure.bracket_indices(a, b).get(k, 0))


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


class SpecializedAlgebra(liealg.BracketTable):
    """The fiber of an ``alia.AliaTable`` at a numeric value of j."""

    def __init__(self, table, j_value):
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


def _barrel_contraction(order):
    """[e, f] = j(j-1728) h in the A1 table, and its fibers at j = 0, 1728."""
    table = alia.alia_table("A1", "principal")
    # A1's e, f and h are basis vectors: their indices
    e, f, h = (i for (i,) in table.structure.sl2_triple((1,)))
    yield ("[e, f] = j(j-1728) h",
           table.bracket({e: alia.JPoly.const(1)}, {f: alia.JPoly.const(1)}),
           {h: alia.JPoly((0, -1728, 1))})
    for j_val in (0, 1728):
        spec = SpecializedAlgebra(table, j_val)
        yield f"[e, f] = 0 at j={j_val}", spec.bracket({e: 1}, {f: 1}), {}
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


def _levi(order):
    """(radical, Levi) dimensions of two orbits."""
    for key, dims in ((("A1", "principal"), (1, 0)), (("B2", "subregular"), (1, 3))):
        radical, levi = levi_dimensions(*key)
        yield f"{key[0]} {key[1]} radical dimension {dims[0]}", radical, dims[0]
        yield f"{key[0]} {key[1]} Levi dimension {dims[1]}", levi, dims[1]


IDENTITIES = {
    "alia.cocycle_values": (
        "symmetric and {{0,1}}-valued for all six orbits", _cocycle_values),
    "alia.cocycle_condition": ("proved (w4, w6 are coboundaries)", _coboundaries),
    "alia.jacobi_tables": ("proved (Chevalley bracket in a diagonal gauge)", _gauge),
    "alia.scalar_oracle": (
        "monomial identities in Q[E4, E6, 1/Delta] for all orbits, Delta = (E4^3-E6^2)/1728; "
        "Delta = eta^24 by modforms.delta_dual_route", _scalar_oracle),
    "alia.barrel_contraction": (
        "barrel bracket and solvable contractions at j=0, 1728", _barrel_contraction),
    "alia.specialization": (
        "det K(j) = c j^a (j-1728)^b, c != 0, over Q[j] for all six orbits", _specialization),
    "alia.levi_dimensions": ("dimension bookkeeping for sample orbits", _levi),
}
