"""The `loop` suite of `mfal verify`: the polyhedral loop algebras, their
residue cocycles, the Onsager algebra and evaluation representations.

It imports only the algebra half: `loopext`, `cyclotomic`, `alia`, `liealg`,
`sl2`, `linalg` and `poly`.

The cocycle rows (`loop.cocycle_properties`, `loop.cocycle_monomials`,
`loop.polyhedral_cocycles`) and `loop.onsager` are proofs from finite
lemmas, each argued in its docstring; the sampled sweeps of the cocycle laws
are the test oracles of `tests/test_loopext.py`.  `loop.evaluation_rep`
still samples.
"""

import itertools
import random
from fractions import Fraction

from . import alia, liealg, loopext
from .linalg import Matrix


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
    """omega(x f, y g) = K(x, y) R_a(f, g), R_a(f, g) = res_a(f' g), is
    bilinear and antisymmetric on the span of the 12 loop elements x u_i, x
    one of e, f, h of A1 and u_i one of four functions, at each dihedral
    point a.

    K is bilinear, the sum of x_i y_j K_ij.  R_a is bilinear: ``derivative``
    is linear, and ``residue_of_product`` sums products of one principal
    coefficient of one factor and one Taylor coefficient of the other, each
    linear in its function.  So omega is bilinear, which is additivity and
    homogeneity in each argument, and bilinearity carries antisymmetry from
    the 12 elements to their span.  On them, omega(x u_i, y u_j) =
    K(x, y) R_a(u_i, u_j) = -K(y, x) R_a(u_j, u_i) = -omega(y u_j, x u_i)
    follows from the lemmas: K = K^T on e, f, h; R_a(u_i, u_j), the shortcut
    that never forms u_i' u_j, is the residue of that product on the 16
    ordered pairs; and omega(h u_i, h u_j) + omega(h u_j, h u_i) = 0 on the
    10 unordered ones, which is R_a's antisymmetry times K(h, h), read
    through ``loop_cocycle``.  Both routes expand each function at the
    other's poles with the one ``_taylor_at``, so one value is also checked
    against its closed form: omega(h u_1, h u_3) = K(h, h) R_1(u_1, u_3) =
    8 res_1(-1/((t - 1)^2 t^2)) = 8 d/dt(-t^-2) at 1 = 16.  It fixes the
    sign of e = a - b, as the expansion of t^-2 at 1 reads an odd power of
    e, and K(h, h) != 0, without which the antisymmetry lemmas would be
    empty.
    """
    yield next(liealg.killing_lemmas(order, ("A1",)))  # K = K^T on the basis h, e, f
    st = liealg.chevalley("A1")
    field, points = loopext.pole_preset("dihedral")
    funcs = [
        loopext.RatFunc.pole_factor(field, 0, 1),
        loopext.RatFunc.pole_factor(field, 1, 1) + 1,  # t/(t - 1)
        loopext.RatFunc.polynomial(field, [2, 1]),
        loopext.RatFunc.pole_factor(field, 0, 2),
    ]
    h = st.sl2_triple((1,))[2]
    yield ("omega(h u_1, h u_3) = K(h, h) res(-1/((t - 1)^2 t^2)) = 16 at a_1",
           loopext.loop_cocycle(st, h, funcs[1], h, funcs[3], points[1]), field.rational(16))
    for (i, u), (j, v) in itertools.product(enumerate(funcs), repeat=2):
        du = u.derivative()
        product = du * v
        for k, a in enumerate(points):
            yield (f"R(u_{i}, u_{j}) = res(u_{i}' u_{j}) at a_{k}",
                   loopext.residue_of_product(du, v, a), loopext.residue(product, a))
            if i <= j:
                yield (f"omega(h u_{i}, h u_{j}) + omega(h u_{j}, h u_{i}) = 0 at a_{k}",
                       loopext.loop_cocycle(st, h, u, h, v, a)
                       + loopext.loop_cocycle(st, h, v, h, u, a), field.zero)


def _cocycle_monomials(order):
    """omega(x z^m, y z^n) = m K(x, y) delta_(m+n,0) at 0 for |m|, |n| <= 6
    and every x, y of A1 and A2.

    omega(x f, y g) = K(x, y) res_0(f' g), so the row is res_0((z^m)' z^n) =
    m delta_(m+n,0) on the 169 pairs, one ``residue_of_product`` each, and
    omega = K res_0(f' g) as ``loop_cocycle`` computes it, at m = +-1,
    n = -m for e, f; h, h; e, e (K(e, e) = 0) in each type.
    """
    field = loopext.CycloField(1)
    zero = field.zero
    powers = {m: loopext.RatFunc.t_power(field, m) for m in range(-6, 7)}
    for m, z_m in powers.items():
        dz_m = z_m.derivative()
        for n, z_n in powers.items():
            yield (f"res_0((z^{m})' z^{n}) = {m} delta",
                   loopext.residue_of_product(dz_m, z_n, zero),
                   field.rational(m) if m + n == 0 else zero)
    for t in ("A1", "A2"):
        st = liealg.chevalley(t)
        basis = dict(zip("efh", st.sl2_triple(st.rs.positive[0])))
        for (x, y), m in itertools.product(("ef", "hh", "ee"), (1, -1)):
            yield (f"omega({x} z^{m}, {y} z^{-m}) = {m} K({x}, {y}) in {t}",
                   loopext.loop_cocycle(st, basis[x], powers[m], basis[y], powers[-m], zero),
                   field.rational(m * st.killing_form(basis[x], basis[y])))


def _polyhedral_cocycles(order):
    """omega(x f, y g) = K(x, y) res_b(f' g) is a 2-cocycle on sl2 = A1 at
    every point b of the four polyhedral pole sets.

    By invariance and symmetry K([x,y],z) = K([y,z],x) = K([z,x],y) = kappa,
    so the cyclic sum is kappa res_b((fg)'h + (gh)'f + (hf)'g) = 2 kappa
    res_b((fgh)'), and a derivative has no residue.  The lemmas are A1's and
    res_b(u') = 0 for u = (t - a)^-k, a a preset point and 1 <= k <= 6, and
    u = t^m, m <= 3.  Their span holds every product of three functions with
    poles of order <= 2 at preset points and polynomial part of degree <= 1.

    The M - 1 puncture cocycles omega_b, one per finite point b, are
    independent: on the pairs (h/(t - a), h (t - a)), one per finite point a,
    omega_b = K(h, h) res_b(-1/(t - a)) = -8 delta_ab, so their matrix has
    rank M - 1.

    The expansion of (t - a)^-k at a point b != a divides by b - a, so the
    row also proves x / x = x x^-1 = 1 for every difference x = a_i - a_j of
    two points of a set: field inverses in Q, Q(zeta3), Q(i) and Q(zeta5),
    which none of the residue lemmas above can tell from wrong ones, as the
    residue of a derivative is 0 whatever its coefficients.
    """
    yield from liealg.killing_lemmas(order, ("A1",))
    st = liealg.chevalley("A1")
    h = st.sl2_triple((1,))[2]
    for preset in ("dihedral", "tetrahedral", "octahedral", "icosahedral"):
        field, points = loopext.pole_preset(preset)
        for (i, a), (j, b) in itertools.combinations(enumerate(points), 2):
            yield f"{preset}: (a_{i} - a_{j}) / (a_{i} - a_{j}) = 1", (a - b) / (a - b), field.one
        pairs = [((h, loopext.RatFunc.pole_factor(field, a, 1)),
                  (h, loopext.RatFunc.polynomial(field, [-a, 1]))) for a in points]
        yield (f"{preset}: the puncture cocycles have rank M - 1 = {len(points)}",
               loopext.cocycle_rank(st, pairs, points), len(points))
        funcs = [(f"t^{m}", loopext.RatFunc.t_power(field, m)) for m in range(4)]
        funcs += [(f"(t - a_{i})^-{k}", loopext.RatFunc.pole_factor(field, a, k))
                  for i, a in enumerate(points) for k in range(1, 7)]
        for name, u in funcs:
            du = u.derivative()
            for i, b in enumerate(points):
                yield (f"{preset}: res at a_{i} of ({name})' = 0",
                       loopext.residue(du, b), field.zero)


#: the generic indices of the Onsager lemmas: (a, b) -> a K + b M is
#: injective on a, b in {-1, 0, 1}
_K, _M = 10**6, 10**12


def _onsager(order):
    """The Onsager relations for every index, by three lemmas at generic
    indices, then the Hauptmodul bracket.

    The relations are [G_k, G_m] = 0, [G_m, A_k] = 2 A_{k+m} - 2 A_{k-m}
    and [A_k, A_m] = G_{k-m} for all integers k, m, where A_k has z^k and
    z^-k off the diagonal and G_m = diag(z^m - z^-m, z^-m - z^m).  The
    proof is the Kronecker substitution of ``qseries.kronecker_mul``.  Read
    k and m as symbols: the entries then live in Q[Z^2], with z^(a k + b m)
    the monomial of (a, b).  The map (a, b) -> a K + b M is a group
    homomorphism, so it induces a ring map Q[Z^2] -> Q[z, 1/z], and each
    lemma at (K, M) is the image of its symbolic relation.  Every bracket
    multiplies an entry in k by an entry in m, so every exponent on either
    side has |a|, |b| <= 1; the map is injective there (M > 2K), so
    equality at (K, M) is equality in Q[Z^2].  Specialising (k, m) to any
    integers is again a ring map, which gives the relations at every
    (k, m).  ``onsager_G(0)`` is the zero matrix, the formula's value at 0,
    so G_0 = 0 and G_{-m} = -G_m come for free.

    The e, f prefactor is (z^2 - z^-2)/8: with jhat = (z^2 + 2 + z^-2)/4
    this is the normalization that closes the bracket on jhat(jhat - 1) h.
    """
    a_k, a_m = loopext.onsager_A(_K), loopext.onsager_A(_M)
    g_k, g_m = loopext.onsager_G(_K), loopext.onsager_G(_M)
    yield "[G_k, G_m] = 0", g_k.commutator(g_m), loopext.onsager_G(0)
    yield ("[G_m, A_k] = 2 A_{k+m} - 2 A_{k-m}", g_m.commutator(a_k),
           loopext.onsager_A(_K + _M).scale(2) - loopext.onsager_A(_K - _M).scale(2))
    yield "[A_k, A_m] = G_{k-m}", a_k.commutator(a_m), loopext.onsager_G(_K - _M)
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
    # A1's e, f and h are basis vectors: their indices
    e, f, h = (i for (i,) in table.structure.sl2_triple((1,)))
    b0 = {h: alia.JPoly.const(1)}
    b1 = {
        h: alia.JPoly((Fraction(-1728, 1728), Fraction(2, 1728))),
        e: alia.JPoly.const(Fraction(-2, 1728)),
        f: alia.JPoly.const(Fraction(2, 1728)),
    }
    for (x, y), name in (((b1, b0), "[B1, [B1, [B1, B0]]] = 4 [B1, B0]"),
                         ((b0, b1), "[B0, [B0, [B0, B1]]] = 4 [B0, B1]")):
        nested = table.bracket(x, table.bracket(x, table.bracket(x, y)))
        yield name, nested, {k: p * 4 for k, p in table.bracket(x, y).items()}


def _evaluation_rep(order):
    field, _ = loopext.pole_preset("octahedral")
    i = field.zeta
    ev = loopext.EvaluationRep(field, [field.rational(2), i + 1], [1, 2])
    index = {name: idx for name, (idx,) in zip("efh", ev.a1.sl2_triple((1,)))}
    rng = random.Random(111)
    funcs = [
        loopext.RatFunc.pole_factor(field, i, 1),
        loopext.RatFunc.polynomial(field, [1, 0, 1]),
        loopext.RatFunc.pole_factor(field, field.zero, 2),
    ]
    for k in range(5):
        x = {index[rng.choice("hef")]: rng.randint(1, 3)}
        y = {index[rng.choice("hef")]: rng.randint(-3, -1)}
        f, g = rng.choice(funcs), rng.choice(funcs)
        yield (f"sample {k}: ev[x f, y g] = [ev(x f), ev(y g)]",
               ev.homomorphism_residual(x, f, y, g).is_zero(), True)
    refused = False
    try:
        ev.evaluate({index["h"]: 1}, loopext.RatFunc.pole_factor(field, field.rational(2), 1))
    except loopext.PoleAtEvaluationPoint:
        refused = True
    yield "evaluation at a pole raises PoleAtEvaluationPoint", refused, True


IDENTITIES = {
    "loop.residue_calculus": ("linearity and res(f') = 0 at an exact pole", _residue_calculus),
    "loop.total_residue": ("finite residues sum to zero for decaying f", _total_residue),
    "loop.cocycle_properties": (
        "proved bilinear and antisymmetric on the span of 12 loop elements: K symmetric, "
        "res(u_i' u_j) by two routes and antisymmetric at both dihedral points",
        _cocycle_properties),
    "loop.cocycle_monomials": (
        "omega(x z^m, y z^n) = m K(x,y) delta proved for |m|,|n| <= 6, A1 and A2: "
        "res_0((z^m)' z^n) on 169 pairs, omega = K res at m = +-1", _cocycle_monomials),
    "loop.onsager": (
        "relations proved for every index by three lemmas at generic indices, "
        "and the Hauptmodul bracket", _onsager),
    "loop.dolan_grady": ("nested bracket relations over Q[j]", _dolan_grady),
    "loop.polyhedral_cocycles": (
        "2-cocycle proved: K invariant on A1, res(u') = 0 at every point of the four "
        "pole sets; rank M - 1 on four presets", _polyhedral_cocycles),
    "loop.evaluation_rep": (
        "bracket respected on samples; pole evaluation rejected", _evaluation_rep),
}
