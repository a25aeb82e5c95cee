"""The table of every exact identity that `mfal verify` certifies, over
every ring of the package.

Each row of IDENTITIES is one check: it yields its identities one at a time,
each as a name and its two sides built at the working order, and
`check_identity` runs a row.  Two q-series hold when they agree on their
shared range; sides in any other ring (scalars, QuasiPoly, JPoly, Laurent,
CycloNumber, matrices over them, bracket vectors) hold when equal, exact as
each ring keeps one canonical form.  A row fails naming the identities whose
sides differ.  A row of finite lemmas gives its proof in its docstring; the
Jacobi and cocycle rows come from `mfal.liealg` and `mfal.alia`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import alia, liealg, loopext, modforms, vvmf
from .linalg import Matrix
from .poly import power
from .qseries import QSeries
from .quasimodular import QuasiMatrix, QuasiPoly, Sl2Bundle


def _series(name, order):
    return modforms.named_form(name, order).series


def _j_head(order):
    j = _series("j", order)
    for e, c in ((-1, 1), (0, 744), (1, 196884), (2, 21493760)):
        yield f"j coefficient at q^{e} = {c}", j.coefficient(Fraction(e)), c


def _delta_routes(order):
    yield ("Delta by E4, E6 = eta^24",
           _series("Delta", order), modforms.discriminant(order, "eta").series)


def _ramanujan(order):
    e2, e4, e6 = (_series(f"E{k}", order) for k in (2, 4, 6))
    yield "D1 E2 = -E4/12", modforms.serre_derivative(1, e2), e4.scale(Fraction(-1, 12))
    yield "D4 E4 = -E6/3", modforms.serre_derivative(4, e4), e6.scale(Fraction(-1, 3))
    yield "D6 E6 = -E4^2/2", modforms.serre_derivative(6, e6), (e4**2).scale(Fraction(-1, 2))


def _eisenstein_powers(order):
    """The left sides are sigma-sums, the right sides products."""
    e4, e6 = _series("E4", order), _series("E6", order)
    yield "E8 = E4^2", _series("E8", order), e4**2
    yield "E10 = E4 E6", _series("E10", order), e4 * e6
    yield "E14 = E4^2 E6", _series("E14", order), e4**2 * e6


def _expansion_commutes_with_d(order):
    p, q, r = (QuasiPoly.var(v) for v in "PQR")
    polys = {"P": p, "Q": q, "R": r, "PQ + 3R": p * q + r.scale(3), "Q^2 - PR": q * q - p * r}
    for name, a in polys.items():
        yield (f"D({name}) = q d/dq ({name})",
               a.d_tau().to_qseries(order), a.to_qseries(order).q_derive())


def _sl2_bundle(order):
    """The triple, its conjugation by Phi_1, ad(a_0) on the weight basis, the
    T-shift of a_-2 and the (2,1) entry of h, where P/(6s) = (1/3) i pi E2."""
    b = Sl2Bundle()
    h, e, f = b.h, b.e, b.f
    yield "[h, e] = 2e", h.commutator(e), e.scale(2)
    yield "[h, f] = -2f", h.commutator(f), f.scale(-2)
    yield "[e, f] = h", e.commutator(f), h
    m = vvmf.phi(1).matrix
    m_inv = m.inverse()
    for name, const, image in (("h", [[1, 0], [0, -1]], h), ("e", [[0, 1], [0, 0]], e),
                               ("f", [[0, 0], [1, 0]], f)):
        yield f"Phi_1 {name}0 Phi_1^-1 = {name}", m * QuasiMatrix(const) * m_inv, image
    s, q = QuasiPoly.var("s"), QuasiPoly.var("Q")
    yield ("[a_0, a_-2] = -2s a_-2",
           b.a_0.commutator(b.a_minus2), b.a_minus2.scale(s * Fraction(-2)))
    yield ("[a_0, a_2] = s (E4/18 a_-2 + 2 a_2)", b.a_0.commutator(b.a_2),
           b.a_minus2.scale(s * q * Fraction(1, 18)) + b.a_2.scale(s * Fraction(2)))
    t, t_inv = QuasiMatrix([[1, 1], [0, 1]]), QuasiMatrix([[1, -1], [0, 1]])
    yield "a_-2(tau+1) = T a_-2 T^-1", b.a_minus2.shift_tau(), t * b.a_minus2 * t_inv
    yield "h[2,1] = P/(6s)", h[1, 0], QuasiPoly.monomial((0, 1, 0, 0, -1), Fraction(1, 6))


def _symrep(order):
    for n in range(9):
        rep = liealg.sym_rep(n)
        e, f = Matrix(rep.e), Matrix(rep.f)
        yield f"[E, F] = H on Sym^{n}", e.commutator(f), Matrix(rep.h)
        yield f"E^{n + 1} = 0 on Sym^{n}", power(e, n + 1, Matrix.identity(n + 1)), e * 0


def _killing_invariance(order, types=("A1", "A2", "B2", "G2")):
    """K = K^T and ad(x)^T K + K ad(x) = 0 for every basis vector x of g.

    With K(u, v) = u^T K v and [x, u] = ad(x) u, the second lemma is
    K([x,y],z) + K(y,[x,z]) = 0, for every x by linearity; with the first it
    gives K([x,y],z) = -K([y,x],z) = K(x,[y,z]) on every triple.
    """
    for t in types:
        st = liealg.chevalley(t)
        k = Matrix(st.killing())
        yield f"K = K^T in {t}", Matrix(zip(*k.rows)), k
        for a in range(st.dim):
            # row i of ad_t is column i of ad(x_a): the coordinates of [x_a, x_i]
            ad_t = Matrix([[st.bracket_indices(a, i).get(j, 0) for j in range(st.dim)]
                           for i in range(st.dim)])
            yield (f"ad(x_{a})^T K + K ad(x_{a}) = 0 in {t}",
                   ad_t * k + k * Matrix(zip(*ad_t.rows)), k * 0)


def _phi_det(order):
    """Phi_n is the product of its factors exp(tau E) and exp(y F).  When the
    first is upper and the second lower unitriangular, each has determinant
    1, and so has Phi_n: O(n^2) zero tests in place of a determinant."""
    for n in range(11):
        one = QuasiMatrix.identity(n + 1)
        upper, lower = vvmf.phi(n).factors
        for m, name, keep in ((upper, "exp(tau E) is upper", operator.ge),
                              (lower, "exp(y F) is lower", operator.le)):
            # m with its entries on the side that must vanish set to zero
            kept = QuasiMatrix([[e if keep(i, j) else e * 0 for j, e in enumerate(row)]
                                for i, row in enumerate(m.rows)])
            yield f"{name} unitriangular on Sym^{n}", kept, one


def _phi_functoriality(order):
    base = vvmf.phi(1).matrix.rows
    for n in (2, 3, 4):
        yield (f"Sym^{n} Phi_1 = Phi_{n}",
               QuasiMatrix(liealg.sym_power_matrix(n, base)), vvmf.phi(n).matrix)


def _phi_T(order):
    """E2 is T-periodic, so only tau moves; T leaves the grading factor
    alone since c = 0."""
    for n in (1, 2, 3, 4):
        m = vvmf.phi(n).matrix
        rho_t = QuasiMatrix(vvmf.rho_matrix(n, vvmf.T_GAMMA))
        yield f"Phi_{n}(tau+1) = rho_{n}(T) Phi_{n}(tau)", m.shift_tau(), rho_t * m


def _thetas(order):
    return (_series(f"theta{i}", order) for i in (2, 3, 4))


def _jacobi(order):
    t2, t3, t4 = _thetas(order)
    yield "theta2^4 + theta4^4 = theta3^4", t2**4 + t4**4, t3**4


def _theta_delta(order):
    t2, t3, t4 = _thetas(order)
    yield ("theta2^8 theta3^8 theta4^8 = 256 Delta",
           t2**8 * t3**8 * t4**8, _series("Delta", order).scale(256))


def _gamma2_combinations(order):
    """The theta fourth powers, which vanish at single cusps, from F2 and H2."""
    f2, h2 = (form.series for form in modforms.gamma2_generators(order))
    for i, a, b, name in ((2, Fraction(-2, 3), Fraction(2, 3), "(2 H2 - 2 F2)/3"),
                          (3, Fraction(2, 3), Fraction(1, 3), "(2 F2 + H2)/3"),
                          (4, Fraction(4, 3), Fraction(-1, 3), "(4 F2 - H2)/3")):
        yield (f"theta{i}^4 = {name}",
               f2.scale(a) + h2.scale(b), _series(f"theta{i}", order) ** 4)


def _lambda_j(order):
    lam, j = _series("lambda", order), _series("j", order)
    yield ("j lambda^2 (lambda-1)^2 = 256 (lambda^2-lambda+1)^3",
           j * (lam**2) * ((lam - 1) ** 2), ((lam**2 - lam + 1) ** 3).scale(256))


def _lambda_shift(order):
    """The left side is the exact half-integral shift."""
    lam = _series("lambda", order)
    yield "lambda(tau+1) = lambda/(lambda-1)", lam.shift_tau(), lam / (lam - 1)


def _rel3(order):
    u, v, e4, e6 = (_series(name, order) for name in ("phi1", "phi2", "E4", "E6"))
    yield "E4 = u^4 + 8 u v^3", e4, u**4 + (u * v**3).scale(8)
    yield "E6 = u^6 - 20 u^3 v^3 - 8 v^6", e6, u**6 - (u**3 * v**3).scale(20) - (v**6).scale(8)


def _weight_zero_iso(order):
    """For each principal congruence group, the nonvanishing form of its
    weight-zero isomorphism: its valuation, leading coefficient 1 and
    f f^-1 = 1, a unit at the cusp.  Nonvanishing on the upper half-plane is
    quoted, not checked."""
    order = max(24, min(order, 32))
    for group, name, f, valuation in (
        ("Gamma(2)", "theta3^4", _series("theta3", order) ** 4, 0),
        ("Gamma(3)", "eta(3t)^3/eta(t)", modforms.eta_quotient([(3, 3), (1, -1)], order),
         Fraction(1, 3)),
        ("Gamma(4)", "eta(4t)^4/eta(2t)^2", modforms.eta_quotient([(4, 4), (2, -2)], order),
         Fraction(1, 2)),
        ("Gamma(5)", "eta(5t)^15 klein(1/5;5t)^5/eta(t)^3", _series("f_gamma5", order), 1),
    ):
        yield f"{group} {name} has valuation {valuation}", f.valuation, valuation
        yield f"{group} {name} has leading coefficient 1", f.coefficient(f.valuation), 1
        yield f"{group} {name} f^-1 = 1", f * f.inverse(), f.scale(0) + 1


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
        j = _series("j", modforms.depth(order, (-1, degree)))
        for (ka, kb), (w4, w6) in exponents.items():
            rhs = alia.JPoly.j_power_form(w4, w6).as_series(j) * _series(f"F_k:{-ka - kb}", order)
            yield (f"{key[0]} {key[1]}: F_{-ka} F_{-kb} = j^{w4} (j-1728)^{w6} F_{-ka - kb}",
                   _series(f"F_k:{-ka}", order) * _series(f"F_k:{-kb}", order), rhs)


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
    yield from _killing_invariance(order, ("A1",))
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
    table = alia.AliaTable("A1", "principal")
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


#: check id -> (detail of a pass, sides): sides(order) yields each identity
#: of the row as (name, lhs, rhs), one at a time
IDENTITIES = {
    "modforms.j_expansion": ("head coefficients exact", _j_head),
    "modforms.delta_dual_route": (
        "Eisenstein route = eta^24 route to order {order}", _delta_routes),
    "modforms.ramanujan": ("D1 E2, D4 E4, D6 E6 closed system", _ramanujan),
    "modforms.eisenstein_powers": ("E8, E10, E14 as monomials", _eisenstein_powers),
    "quasimodular.series_consistency": (
        "D and q d/dq agree through the expansion map", _expansion_commutes_with_d),
    "quasimodular.sl2_bundle": (
        "standard triple, conjugation, ad(a_0), T-shift all exact", _sl2_bundle),
    "liealg.jacobi": ("all basis triples, four types", liealg.jacobi_lemmas),
    "liealg.symrep": ("commutation and nilpotency for n <= 8", _symrep),
    "liealg.killing_associativity": (
        "K symmetric and ad-invariant on every basis vector of A1, A2, B2, G2",
        _killing_invariance),
    "vvmf.phi_det": (
        "unimodular for n <= 10: exp(tau E) upper, exp(y F) lower unitriangular", _phi_det),
    "vvmf.phi_functoriality": ("Sym^n Phi_1 = Phi_n for n <= 4", _phi_functoriality),
    "vvmf.phi_T_exact": ("exact polynomial identity for n <= 4", _phi_T),
    "theta.jacobi_identity": ("theta2^4 + theta4^4 = theta3^4", _jacobi),
    "theta.delta_product": ("theta products give 256 Delta", _theta_delta),
    "theta.gamma2_combinations": (
        "F2/H2 combinations match the theta lattice sums", _gamma2_combinations),
    "theta.lambda_j": ("j lambda^2 (lambda-1)^2 = 256 (lambda^2-lambda+1)^3", _lambda_j),
    "theta.lambda_shift": ("lambda(tau+1) = lambda/(lambda-1)", _lambda_shift),
    "gamma.rel3": ("E4, E6 as polynomials in phi1, phi2", _rel3),
    "gamma.weight_zero_iso": (
        "nonvanishing forms invertible at the cusp, all four groups", _weight_zero_iso),
    "alia.cocycle_values": (
        "symmetric and {{0,1}}-valued for all six orbits", alia.cocycle_value_lemmas),
    "alia.cocycle_condition": ("proved (w4, w6 are coboundaries)", alia.coboundary_lemmas),
    "alia.jacobi_tables": ("proved (Chevalley bracket in a diagonal gauge)", alia.gauge_lemmas),
    "alia.scalar_oracle": ("two-route certification for all orbits", _scalar_oracle),
    "loop.residue_calculus": ("linearity and res(f') = 0 at an exact pole", _residue_calculus),
    "loop.total_residue": ("finite residues sum to zero for decaying f", _total_residue),
    "loop.cocycle_monomials": (
        "omega(x z^m, y z^n) = m K(x,y) delta for |m|,|n| <= 6, A1 and A2", _cocycle_monomials),
    "loop.onsager": ("relations to index 10 and the Hauptmodul bracket", _onsager),
    "loop.dolan_grady": ("nested bracket relations over Q[j]", _dolan_grady),
    "loop.polyhedral_cocycles": (
        "2-cocycle proved: K invariant on A1, res(u') = 0 at every point of the four "
        "pole sets", _polyhedral_cocycles),
}


def check_identity(check_id, order):
    """Row `check_id` of IDENTITIES: passes when every identity in it holds.

    Two series hold when they agree on their shared range; sides in any other
    ring hold when they are equal, which is exact because each of the
    package's rings keeps one canonical form.
    """
    detail, sides = IDENTITIES[check_id]
    failed = [
        name for name, lhs, rhs in sides(order)
        if not (lhs.agrees(rhs) if isinstance(lhs, QSeries) else lhs == rhs)
    ]
    if failed:
        return False, "failed: " + "; ".join(failed)
    return True, detail.format(order=order)
