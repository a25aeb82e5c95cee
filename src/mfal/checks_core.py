"""The `core` suite of `mfal verify`: the series substrate, the quasimodular
ring, the Lie substrate and the intertwiner Phi_n.

It imports `qseries`, `modforms`, `derivations`, `numeric`, `quasimodular`,
`liealg`, `sl2` and `vvmf`, never `alia`, `congruence` or `loopext`.  The
checks that sample draw random series and quasimodular polynomials from
fixed seeds.
"""

import operator
import random
from fractions import Fraction

from . import derivations, liealg, modforms, numeric, sl2, vvmf
from .linalg import Matrix
from .modforms import series
from .poly import power
from .qseries import QSeries
from .quasimodular import QuasiMatrix, QuasiPoly, Sl2Bundle


def _random_series(rng, trunc=24, denom=1):
    terms = []
    for _ in range(rng.randint(2, 6)):
        e = Fraction(rng.randint(0, 2 * trunc // 3), denom)
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        terms.append((e, c))
    return QSeries.from_terms(terms, trunc=trunc)


def _ring_axioms(order):
    rng = random.Random(101)
    for i in range(8):
        a, b, c = (_random_series(rng, denom=rng.choice((1, 2))) for _ in range(3))
        yield f"sample {i}: (ab)c = a(bc)", (a * b) * c, a * (b * c)
        yield f"sample {i}: a(b + c) = ab + ac", a * (b + c), a * b + a * c


def _div_roundtrip(order):
    rng = random.Random(202)
    for i in range(6):
        a = _random_series(rng) + 1  # unit constant term
        b = _random_series(rng) + 2
        yield f"sample {i}: (ab)/b = a", (a * b) / b, a
        yield f"sample {i}: (a/b)b = a", (a / b) * b, a


def _q_leibniz(order):
    rng = random.Random(303)
    for i in range(6):
        a, b = _random_series(rng), _random_series(rng)
        yield (f"sample {i}: (ab)' = a' b + a b' for ' = q d/dq",
               (a * b).q_derive(), a.q_derive() * b + a * b.q_derive())


def _shift_homomorphism(order):
    rng = random.Random(404)
    for i in range(6):
        a = _random_series(rng, denom=2)
        b = _random_series(rng, denom=2)
        yield (f"sample {i}: (ab)(tau+1) = a(tau+1) b(tau+1)",
               (a * b).shift_tau(), a.shift_tau() * b.shift_tau())
        yield (f"sample {i}: (a + b)(tau+1) = a(tau+1) + b(tau+1)",
               (a + b).shift_tau(), a.shift_tau() + b.shift_tau())


def _eval_product(order):
    e4, e6 = series("E4", order), series("E6", order)
    value = numeric.eval_numeric
    err = abs(value(e4 * e6, 1j) - value(e4, 1j) * value(e6, 1j))
    yield f"|eval(E4*E6) - eval(E4)eval(E6)| = {err:.2e} < 1e-10 at tau=i", err < 1e-10, True


def _j_head(order):
    j = series("j", order)
    for e, c in ((-1, 1), (0, 744), (1, 196884), (2, 21493760)):
        yield f"j coefficient at q^{e} = {c}", j.coefficient(Fraction(e)), c


def _delta_routes(order):
    """Delta by three routes, so that no lemma compares the store's entry
    with itself: (E4^3 - E6^2)/1728, built here from the stored E4 and E6,
    against the store's q eta_cube(1)^8 and against eta^24, Euler's product
    to the 24th, raised here from the stored eta."""
    e4, e6 = series("E4", order), series("E6", order)
    eisenstein = ((e4**3) - (e6**2)).scale(Fraction(1, 1728)).truncate(order)
    yield "Delta by E4, E6 = q eta_cube(1)^8", eisenstein, series("Delta", order)
    yield "Delta by E4, E6 = eta^24", eisenstein, (series("eta", order) ** 24).truncate(order)


def _ramanujan(order):
    e2, e4, e6 = (series(f"E{k}", order) for k in (2, 4, 6))
    yield "D1 E2 = -E4/12", derivations.serre_derivative(1, e2), e4.scale(Fraction(-1, 12))
    yield "D4 E4 = -E6/3", derivations.serre_derivative(4, e4), e6.scale(Fraction(-1, 3))
    yield "D6 E6 = -E4^2/2", derivations.serre_derivative(6, e6), (e4**2).scale(Fraction(-1, 2))


def _eisenstein_powers(order):
    """The left sides are sigma-sums, the right sides products."""
    e4, e6 = series("E4", order), series("E6", order)
    yield "E8 = E4^2", series("E8", order), e4**2
    yield "E10 = E4 E6", series("E10", order), e4 * e6
    yield "E14 = E4^2 E6", series("E14", order), e4**2 * e6


def _duke_jenkins_table(order):
    expected = {0: (0, 0), 2: (2, 1), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1)}
    for k in range(-24, 26, 2):
        ell, n4, n6, f = modforms.duke_jenkins(k, 16)
        yield f"k={k}: n4", n4, expected[k % 12][0]
        yield f"k={k}: n6", n6, expected[k % 12][1]
        yield f"k={k}: 12 ell + 4 n4 + 6 n6 = k", 12 * ell + 4 * n4 + 6 * n6, k
        yield f"k={k}: valuation ell", f.valuation, ell
        yield f"k={k}: leading coefficient 1", f.coefficient(f.valuation), 1


def _delta_derivation(order):
    """delta(j) multiplies two series of valuation -1: j' and q^-1 E4 E6 / Delta.
    The Leibniz samples are compared on a shared range of 8, below a row's."""
    pref = derivations.delta_derivation_prefactor(order)
    for n, c in enumerate((1, -240, -141444, -8529280, -238758390)):
        yield f"prefactor coefficient at q^{n} = {c}", pref.coefficient(n), c
    delta = derivations.delta_derivation
    j = series("j", modforms.depth(order, (-1, 2)))
    yield "delta(j) = -j(j-1728)", delta(j), -(j * (j - 1728))
    rng = random.Random(505)
    for i in range(4):
        a, b = _random_series(rng), _random_series(rng)
        yield (f"sample {i}: delta(ab) = delta(a) b + a delta(b)",
               delta(a * b).agrees(delta(a) * b + a * delta(b), min_span=8), True)


def _numeric_s_equivariance(order):
    for name in ("E4", "E6", "E2"):
        form = modforms.named_form(name, order)
        for tau in (1j, 0.3 + 1.1j):
            err = numeric.s_law_residual(form, tau)
            yield f"{name}: S-residual {err:.2e} < 1e-8 at tau={tau}", err < 1e-8, True


def _dtau_leibniz(order):
    rng = random.Random(606)
    gens = [QuasiPoly.var(v) for v in ("tau", "P", "Q", "R", "s")]
    for i in range(6):
        a = sum(
            (g.scale(rng.randint(-3, 3)) * h for g, h in zip(gens, reversed(gens))),
            QuasiPoly.const(rng.randint(-2, 2)),
        )
        b = gens[rng.randrange(5)] * gens[rng.randrange(5)] + QuasiPoly.const(1)
        yield (f"sample {i}: d_tau(ab) = d_tau(a) b + a d_tau(b)",
               (a * b).d_tau(), a.d_tau() * b + a * b.d_tau())


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
    rep = sl2.SymRep(1)
    for name, const, image in (("h", rep.h, h), ("e", rep.e, e), ("f", rep.f, f)):
        yield f"Phi_1 {name}0 Phi_1^-1 = {name}", m * QuasiMatrix(const) * m_inv, image
    s, q = QuasiPoly.var("s"), QuasiPoly.var("Q")
    yield ("[a_0, a_-2] = -2s a_-2",
           b.a_0.commutator(b.a_minus2), b.a_minus2.scale(s * Fraction(-2)))
    yield ("[a_0, a_2] = s (E4/18 a_-2 + 2 a_2)", b.a_0.commutator(b.a_2),
           b.a_minus2.scale(s * q * Fraction(1, 18)) + b.a_2.scale(s * Fraction(2)))
    t, t_inv = QuasiMatrix([[1, 1], [0, 1]]), QuasiMatrix([[1, -1], [0, 1]])
    yield "a_-2(tau+1) = T a_-2 T^-1", b.a_minus2.shift_tau(), t * b.a_minus2 * t_inv
    yield "h[2,1] = P/(6s)", h[1, 0], QuasiPoly.monomial((0, 1, 0, 0, -1), Fraction(1, 6))


def _grading_additivity(order):
    for key in liealg.ORBIT_LABELS:
        triple = liealg.graded_triple(*key)
        rs = triple.structure.rs
        for a in rs.roots:
            for b in rs.roots:
                s = tuple(x + y for x, y in zip(a, b))
                if s in rs.root_set:
                    yield (f"{key} k({a}) + k({b}) = k({s})",
                           triple.grading[a] + triple.grading[b], triple.grading[s])
        h, e, f = triple.standard_triple()
        bracket = triple.structure.bracket
        yield f"{key} [H, E] = 2E", bracket(h, e), {k: 2 * c for k, c in e.items()}
        yield f"{key} [H, F] = -2F", bracket(h, f), {k: -2 * c for k, c in f.items()}
        yield f"{key} [E, F] = H", bracket(e, f), h


def _symrep(order):
    for n in range(9):
        rep = sl2.SymRep(n)
        e, f = Matrix(rep.e), Matrix(rep.f)
        yield f"[E, F] = H on Sym^{n}", e.commutator(f), Matrix(rep.h)
        yield f"E^{n + 1} = 0 on Sym^{n}", power(e, n + 1, Matrix.identity(n + 1)), e * 0


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
               QuasiMatrix(sl2.sym_power_matrix(n, base)), vvmf.phi(n).matrix)


def _phi_T(order):
    """E2 is T-periodic, so only tau moves; T leaves the grading factor
    alone since c = 0."""
    for n in (1, 2, 3, 4):
        m = vvmf.phi(n).matrix
        rho_t = QuasiMatrix(vvmf.rho_matrix(n, vvmf.T_GAMMA))
        yield f"Phi_{n}(tau+1) = rho_{n}(T) Phi_{n}(tau)", m.shift_tau(), rho_t * m


def _phi_s(order):
    """S acts on the ring by the substitution sigma (``QuasiPoly.apply_S``),
    so the law Phi_n(-1/tau) diag(tau^-k_j) = rho_n(S) Phi_n(tau), times
    tau^{2n}, is an identity of polynomials (``vvmf.s_law``)."""
    for n in (1, 2, 3):
        yield (f"tau^({2 * n} - k_j) Phi_{n}(-1/tau) = tau^{2 * n} rho_{n}(S) Phi_{n}(tau)",
               *vvmf.s_law(n))


def _hilbert(order):
    for n in range(0, 5):
        coeffs = vvmf.hilbert_vvmf(n, "Gamma(1)").coefficients(40)
        for k in range(-n, 41):
            yield f"n={n}, k={k}", coeffs.get(k, 0), vvmf.brute_force_vvmf_dim(n, k)


IDENTITIES = {
    "qseries.ring_axioms": ("8 sampled triples, exact", _ring_axioms),
    "qseries.div_roundtrip": ("6 sampled pairs round-trip", _div_roundtrip),
    "qseries.leibniz": ("q d/dq is a derivation on samples", _q_leibniz),
    "qseries.shift_homomorphism": (
        "algebra homomorphism on half-integral lattice", _shift_homomorphism),
    "qseries.eval_product": ("|eval(E4*E6) - eval(E4)eval(E6)| < 1e-10 at tau=i", _eval_product),
    "modforms.j_expansion": ("head coefficients exact", _j_head),
    "modforms.delta_dual_route": (
        "Eisenstein route = eta^24 route to order {order}", _delta_routes),
    "modforms.ramanujan": ("D1 E2, D4 E4, D6 E6 closed system", _ramanujan),
    "modforms.eisenstein_powers": ("E8, E10, E14 as monomials", _eisenstein_powers),
    "modforms.duke_jenkins_table": (
        "residue map verified for even k in [-24, 24]", _duke_jenkins_table),
    "modforms.delta_derivation": (
        "prefactor head, delta(j), Leibniz samples", _delta_derivation),
    "modforms.numeric_s_equivariance": (
        "S-residual < 1e-8 at 2 points (E4, E6, E2 anomaly)", _numeric_s_equivariance),
    "quasimodular.d_tau_leibniz": ("derivation property on sampled products", _dtau_leibniz),
    "quasimodular.series_consistency": (
        "D and q d/dq agree through the expansion map", _expansion_commutes_with_d),
    "quasimodular.sl2_bundle": (
        "standard triple, conjugation, ad(a_0), T-shift all exact", _sl2_bundle),
    "liealg.jacobi": ("all basis triples, four types", liealg.jacobi_lemmas),
    "liealg.grading_additivity": (
        "k additive and (H, E, F) standard for all orbits", _grading_additivity),
    "liealg.symrep": ("commutation and nilpotency for n <= 8", _symrep),
    "liealg.killing_associativity": (
        "K symmetric and ad-invariant on every basis vector of A1, A2, B2, G2",
        liealg.killing_lemmas),
    "vvmf.phi_det": (
        "unimodular for n <= 10: exp(tau E) upper, exp(y F) lower unitriangular", _phi_det),
    "vvmf.phi_functoriality": ("Sym^n Phi_1 = Phi_n for n <= 4", _phi_functoriality),
    "vvmf.phi_T_exact": ("exact polynomial identity for n <= 4", _phi_T),
    "vvmf.phi_S_numeric": ("exact polynomial identity by substitution for n <= 3", _phi_s),
    "vvmf.hilbert": ("generating function = monomial counts, n <= 4, k <= 40", _hilbert),
}
