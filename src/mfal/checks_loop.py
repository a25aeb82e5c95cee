"""The `loop` suite of `mfal verify`: the polyhedral loop algebras, their
residue cocycles, the Onsager algebra and evaluation representations.

It imports only the algebra half: `loopext`, `cyclotomic`, `alia`, `liealg`,
`linalg` and `poly`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial

from . import alia, liealg, loopext
from .linalg import Matrix


def check_evaluation_rep(order):
    field, points = loopext.pole_preset("octahedral")
    i = field.zeta
    ev = loopext.EvaluationRep(field, [field.rational(2), i + 1], [1, 2])
    rng = random.Random(111)
    names = ("h", "e", "f")
    funcs = [
        loopext.RatFunc.pole_factor(field, i, 1),
        loopext.RatFunc.polynomial(field, [1, 0, 1]),
        loopext.RatFunc.pole_factor(field, field.zero, 2),
    ]
    for _ in range(5):
        x = {rng.choice(names): Fraction(rng.randint(1, 3))}
        y = {rng.choice(names): Fraction(rng.randint(-3, -1))}
        f, g = rng.choice(funcs), rng.choice(funcs)
        if not ev.homomorphism_residual(x, f, y, g).is_zero():
            return False, "homomorphism residual nonzero"
    try:
        ev.evaluate({"h": Fraction(1)}, loopext.RatFunc.pole_factor(field, field.rational(2), 1))
    except loopext.PoleAtEvaluationPoint:
        pass
    else:
        return False, "evaluation at a pole did not raise"
    return True, "bracket respected on samples; pole evaluation rejected"


# ----------------------------------------------------------------------
# rows of the identity table
# ----------------------------------------------------------------------

def _residue_calculus(order):
    field = loopext.CycloField(4)
    i = field.zeta
    f = loopext.RatFunc.pole_factor(field, i, 1) * loopext.RatFunc.polynomial(field, [1, 2])
    g = loopext.RatFunc.pole_factor(field, i, 2)
    res = loopext.residue
    yield "res(f + g) = res f + res g at i", res(f + g, i), res(f, i) + res(g, i)
    yield "res (f g)' = 0 at i", res((f * g).derivative(), i), field.zero


def _total_residue(order):
    field, points = loopext.pole_preset("octahedral")
    f = loopext.RatFunc.polynomial(field, [1, 1])
    for a in points:
        f = f * loopext.RatFunc.pole_factor(field, a, 1)
    # residue at infinity of O(t^{-4}) decay is zero
    yield ("res_inf (1 + t)/prod (t - a) = 0, octahedral a",
           loopext.residue_at_infinity(f, points), field.zero)


def _cocycle_properties(order):
    """omega on all 144 ordered pairs of the loop elements x u_i, x one of e,
    f, h of A1 and u_i one of four functions, at each dihedral point a_k; then
    the rank of the puncture cocycles on three pairs."""
    st = liealg.chevalley("A1")
    field, points = loopext.pole_preset("dihedral")
    vecs = [{st.index[b]: Fraction(1)} for b in (("A", (1,)), ("A", (-1,)), ("H", 0))]
    funcs = [
        loopext.RatFunc.pole_factor(field, 0, 1),
        loopext.RatFunc.pole_factor(field, 1, 1) * loopext.RatFunc.polynomial(field, [0, 1]),
        loopext.RatFunc.polynomial(field, [2, 1]),
        loopext.RatFunc.pole_factor(field, 0, 2),
    ]
    cocycle = partial(loopext.loop_cocycle, st)
    elements = [(name, x, i, f) for name, x in zip("efh", vecs) for i, f in enumerate(funcs)]
    # f + g adds any two functions
    for (xn, x, i, f), (yn, y, j, g) in itertools.product(elements, repeat=2):
        doubled = {k: 2 * v for k, v in x.items()}
        xf, yg = f"{xn} u_{i}", f"{yn} u_{j}"
        for k, p in enumerate(points):
            omega = cocycle(x, f, y, g, p)
            yield (f"omega({xf}, {yg}) + omega({yg}, {xf}) = 0 at a_{k}",
                   omega + cocycle(y, g, x, f, p), field.zero)
            yield (f"omega({xn} (u_{i} + u_{j}), {yg}) = omega({xf}, {yg}) + "
                   f"omega({xn} u_{j}, {yg}) at a_{k}",
                   cocycle(x, f + g, y, g, p), omega + cocycle(x, g, y, g, p))
            yield (f"omega(2 {xf}, {yg}) = 2 omega({xf}, {yg}) at a_{k}",
                   cocycle(doubled, f, y, g, p), omega * 2)
    pairs = [
        ((vecs[0], funcs[0]), (vecs[1], funcs[2])),
        ((vecs[0], funcs[1]), (vecs[1], funcs[3])),
        ((vecs[2], funcs[0]), (vecs[2], funcs[2])),
    ]
    yield ("the puncture cocycles have rank M - 1",
           loopext.cocycle_rank(st, pairs, points), len(points))


def _cocycle_monomials(order):
    field = loopext.CycloField(1)
    zero = field.zero
    for t in ("A1", "A2"):
        st = liealg.chevalley(t)
        alpha = st.rs.positive[0]
        e = st.index[("A", alpha)]
        f = st.index[("A", tuple(-a for a in alpha))]
        h = st.index[("H", 0)]
        # K(e, f) and K(h, h) are nonzero, K(e, e) = 0
        for (x_name, i), (y_name, j) in ((("e", e), ("f", f)), (("h", h), ("h", h)),
                                         (("e", e), ("e", e))):
            x, y = {i: Fraction(1)}, {j: Fraction(1)}
            k_val = st.killing_form(x, y)
            for m in range(-6, 7):
                for n in range(-6, 7):
                    value = loopext.loop_cocycle(
                        st, x, loopext.RatFunc.t_power(field, m),
                        y, loopext.RatFunc.t_power(field, n), zero,
                    )
                    expect = field.rational(m * k_val) if m + n == 0 else zero
                    yield f"omega({x_name} z^{m}, {y_name} z^{n}) in {t}", value, expect


def _polyhedral_cocycles(order):
    """omega(x f, y g) = K(x, y) res_b(f' g) is a 2-cocycle on sl2 = A1 at
    every point b of the four polyhedral pole sets.

    By invariance and symmetry K([x,y],z) = K([y,z],x) = K([z,x],y) = kappa,
    so the cyclic sum is kappa res_b((fg)'h + (gh)'f + (hf)'g) = 2 kappa
    res_b((fgh)'), and a derivative has no residue.  The lemmas are A1's and
    res_b(u') = 0 for u = (t - a)^-k, a a preset point and 1 <= k <= 6, and
    u = t^m, m <= 3.  Their span holds every product of three functions with
    poles of order <= 2 at preset points and polynomial part of degree <= 1.
    """
    yield from liealg.killing_lemmas(order, ("A1",))
    for preset in ("dihedral", "tetrahedral", "octahedral", "icosahedral"):
        field, points = loopext.pole_preset(preset)
        funcs = [(f"t^{m}", loopext.RatFunc.t_power(field, m)) for m in range(4)]
        funcs += [(f"(t - a_{i})^-{k}", loopext.RatFunc.pole_factor(field, a, k))
                  for i, a in enumerate(points) for k in range(1, 7)]
        for name, u in funcs:
            du = u.derivative()
            for i, b in enumerate(points):
                yield (f"{preset}: res at a_{i} of ({name})' = 0",
                       loopext.residue(du, b), field.zero)


def _onsager(order):
    """The Onsager relations under the loop realization, to index 10, then
    the Hauptmodul bracket.

    [G_m, G_n] = 0, [G_m, A_k] = 2 A_{k+m} - 2 A_{k-m}, [A_k, A_l] = G_{k-l}
    with G_{-m} = -G_m and G_0 = 0.  The e, f prefactor is (z^2 - z^-2)/8:
    with jhat = (z^2 + 2 + z^-2)/4 this is the normalization that closes the
    bracket on jhat(jhat - 1) h.
    """
    a, g = loopext.onsager_A, loopext.onsager_G
    for m in range(1, 11):
        for n in range(1, 11):
            yield f"[G_{m}, G_{n}] = 0", g(m).commutator(g(n)), g(0)
    for m in range(1, 11):
        for k in range(-10, 11):
            yield (f"[G_{m}, A_{k}] = 2 A_{k + m} - 2 A_{k - m}",
                   g(m).commutator(a(k)), a(k + m).scale(2) - a(k - m).scale(2))
    for k in range(-10, 11):
        for n in range(-10, 11):
            g_kn = g(k - n) if k >= n else g(n - k).scale(-1)
            yield f"[A_{k}, A_{n}] = G_{k - n}", a(k).commutator(a(n)), g_kn
    c = loopext.Laurent({2: Fraction(1, 8), -2: Fraction(-1, 8)})
    e = Matrix([[1, -1], [1, -1]]).scale(c)
    f = Matrix([[1, 1], [-1, -1]]).scale(c)
    h = Matrix([[0, 1], [1, 0]]).scale(loopext.Laurent({0: 1}))
    jhat = loopext.Laurent({2: Fraction(1, 4), 0: Fraction(1, 2), -2: Fraction(1, 4)})
    yield "[h, e] = 2e", h.commutator(e), e.scale(2)
    yield "[h, f] = -2f", h.commutator(f), f.scale(-2)
    yield "[e, f] = jhat(jhat - 1) h", e.commutator(f), h.scale(jhat * (jhat - 1))


def _dolan_grady(order):
    """B0 = h and B1 = ((2j - 1728) h - 2 e + 2 f)/1728 in the A1 table,
    exactly over Q[j]."""
    table = alia.alia_table("A1", "principal")
    idx_h = table.index[("H", 0)]
    b0 = {idx_h: alia.JPoly.const(1)}
    b1 = {
        idx_h: alia.JPoly((Fraction(-1728, 1728), Fraction(2, 1728))),
        table.index[("A", (1,))]: alia.JPoly.const(Fraction(-2, 1728)),
        table.index[("A", (-1,))]: alia.JPoly.const(Fraction(2, 1728)),
    }
    for (x, y), name in (((b1, b0), "[B1, [B1, [B1, B0]]] = 4 [B1, B0]"),
                         ((b0, b1), "[B0, [B0, [B0, B1]]] = 4 [B0, B1]")):
        nested = table.bracket(x, table.bracket(x, table.bracket(x, y)))
        yield name, nested, {k: p * 4 for k, p in table.bracket(x, y).items()}


IDENTITIES = {
    "loop.residue_calculus": ("linearity and res(f') = 0 at an exact pole", _residue_calculus),
    "loop.total_residue": ("finite residues sum to zero for decaying f", _total_residue),
    "loop.cocycle_properties": (
        "bilinear and antisymmetric on all 144 pairs of 12 loop elements, "
        "independent (rank M-1)", _cocycle_properties),
    "loop.cocycle_monomials": (
        "omega(x z^m, y z^n) = m K(x,y) delta for |m|,|n| <= 6, A1 and A2", _cocycle_monomials),
    "loop.onsager": ("relations to index 10 and the Hauptmodul bracket", _onsager),
    "loop.dolan_grady": ("nested bracket relations over Q[j]", _dolan_grady),
    "loop.polyhedral_cocycles": (
        "2-cocycle proved: K invariant on A1, res(u') = 0 at every point of the four "
        "pole sets", _polyhedral_cocycles),
}

CHECKS = {"loop.evaluation_rep": check_evaluation_rep}
