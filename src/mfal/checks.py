"""The certification suite behind `mfal verify`.

Each check re-verifies one invariant of the package at the requested
working order and returns (passed, detail).  Checks are grouped into the
SUITES; `all` runs every suite.  Results are deterministic: the checks that
sample use fixed seeds.

Every check that is a pure exact identity, over any of the package's rings,
is a row of IDENTITIES (kept in `mfal.identities`), run by `check_identity`;
five rows there are proofs from finite lemmas.  The checks written out here
sample random series and quasimodular polynomials, run through a finite set
of loop elements, compare numbers within a tolerance, read off properties
(valuations, dimensions, a raised error) or guard their order.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import partial

from . import alia, liealg, loopext, modforms, vvmf
from .identities import IDENTITIES, check_identity
from .linalg import Matrix
from .qseries import QSeries
from .quasimodular import QuasiPoly


def _random_series(rng, trunc=24, denom=1):
    terms = []
    for _ in range(rng.randint(2, 6)):
        e = Fraction(rng.randint(0, 2 * trunc // 3), denom)
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        terms.append((e, c))
    return QSeries.from_terms(terms, trunc=trunc)


# ----------------------------------------------------------------------
# core: series substrate, quasimodular ring, Lie substrate, VVMF
# ----------------------------------------------------------------------

def check_qseries_ring_axioms(order):
    rng = random.Random(101)
    for _ in range(8):
        a, b, c = (_random_series(rng, denom=rng.choice((1, 2))) for _ in range(3))
        assoc = ((a * b) * c) - (a * (b * c))
        dist = (a * (b + c)) - (a * b + a * c)
        if not assoc.is_zero() or not dist.is_zero():
            return False, "associativity/distributivity failed on sample"
    return True, "8 sampled triples, exact"


def check_qseries_div_roundtrip(order):
    rng = random.Random(202)
    for _ in range(6):
        a = _random_series(rng) + 1  # unit constant term
        b = _random_series(rng) + 2
        if not ((a * b) / b).agrees(a, min_span=8):
            return False, "div(mul) failed"
        if not ((a / b) * b).agrees(a, min_span=8):
            return False, "mul(div) failed"
    return True, "6 sampled pairs round-trip"


def check_qseries_leibniz(order):
    rng = random.Random(303)
    for _ in range(6):
        a, b = _random_series(rng), _random_series(rng)
        lhs = (a * b).q_derive()
        rhs = a.q_derive() * b + a * b.q_derive()
        if not (lhs - rhs).is_zero():
            return False, "Leibniz failed"
    return True, "q d/dq is a derivation on samples"


def check_qseries_shift_hom(order):
    rng = random.Random(404)
    for _ in range(6):
        a = _random_series(rng, denom=2)
        b = _random_series(rng, denom=2)
        if not ((a * b).shift_tau() - a.shift_tau() * b.shift_tau()).is_zero():
            return False, "shift_tau is not multiplicative"
        if not ((a + b).shift_tau() - (a.shift_tau() + b.shift_tau())).is_zero():
            return False, "shift_tau is not additive"
    return True, "algebra homomorphism on half-integral lattice"


def check_qseries_eval_product(order):
    e4 = modforms.named_form("E4", order).series
    e6 = modforms.named_form("E6", order).series
    tau = 1j
    lhs = (e4 * e6).eval_numeric(tau)
    rhs = e4.eval_numeric(tau) * e6.eval_numeric(tau)
    err = abs(lhs - rhs)
    return err < 1e-10, f"|eval(E4*E6) - eval(E4)eval(E6)| = {err:.2e} at tau=i"


def check_duke_jenkins_table(order):
    expected = {0: (0, 0), 2: (2, 1), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1)}
    for k in range(-24, 26, 2):
        ell, n4, n6, series = modforms.duke_jenkins(k, 16)
        if (n4, n6) != expected[k % 12]:
            return False, f"residue pair wrong at k={k}"
        if 12 * ell + 4 * n4 + 6 * n6 != k:
            return False, f"weight bookkeeping wrong at k={k}"
        if series.valuation != ell or series.coefficient(series.valuation) != 1:
            return False, f"leading term wrong at k={k}"
    return True, "residue map verified for even k in [-24, 24]"


def check_delta_derivation(order):
    pref = modforms.delta_derivation_prefactor(order)
    head = [1, -240, -141444, -8529280, -238758390]
    for n, c in enumerate(head):
        if pref.coefficient(n) != c:
            return False, f"prefactor coefficient at q^{n} is {pref.coefficient(n)}"
    # delta(j) multiplies two series of valuation -1: j' and q^-1 E4 E6 / Delta
    j = modforms.named_form("j", modforms.depth(order, (-1, 2))).series
    if not modforms.delta_derivation(j).agrees(-(j * (j - 1728))):
        return False, "delta(j) != -j(j-1728)"
    rng = random.Random(505)
    for _ in range(4):
        a, b = _random_series(rng), _random_series(rng)
        lhs = modforms.delta_derivation(a * b)
        rhs = modforms.delta_derivation(a) * b + a * modforms.delta_derivation(b)
        if not lhs.agrees(rhs, min_span=8):
            return False, "delta is not a derivation on samples"
    return True, "prefactor head, delta(j), Leibniz samples"


def check_numeric_s_equivariance(order):
    worst = max(
        modforms.s_law_residual(modforms.named_form(name, order), tau)
        for tau in (1j, 0.3 + 1.1j)
        for name in ("E4", "E6", "E2")
    )
    return worst < 1e-8, f"max S-residual {worst:.2e} (E4, E6, E2 anomaly)"


def check_dtau_leibniz(order):
    rng = random.Random(606)
    gens = [QuasiPoly.var(v) for v in ("tau", "P", "Q", "R", "s")]
    for _ in range(6):
        a = sum(
            (g.scale(rng.randint(-3, 3)) * h for g, h in zip(gens, reversed(gens))),
            QuasiPoly.const(rng.randint(-2, 2)),
        )
        b = gens[rng.randrange(5)] * gens[rng.randrange(5)] + QuasiPoly.const(1)
        lhs = (a * b).d_tau()
        rhs = a.d_tau() * b + a * b.d_tau()
        if not (lhs - rhs).is_zero():
            return False, "d_tau violates Leibniz"
    return True, "derivation property on sampled products"


def check_grading_additivity(order):
    for key in liealg.ORBIT_LABELS:
        triple = liealg.graded_triple(*key)
        rs = triple.structure.rs
        for a in rs.roots:
            for b in rs.roots:
                s = tuple(x + y for x, y in zip(a, b))
                if s in rs.root_set:
                    if triple.grading[s] != triple.grading[a] + triple.grading[b]:
                        return False, f"additivity failed for {key}"
        if not triple.triple_relations_hold():
            return False, f"triple relations failed for {key}"
    return True, "k additive and (H, E, F) standard for all orbits"


def check_phi_S(order):
    worst = 0.0
    for n in (1, 2, 3):
        for tau in (1j, 0.3 + 1.1j):
            worst = max(worst, vvmf.check_gamma_equivariance(n, vvmf.S_GAMMA, tau, order))
    return worst < 1e-8, f"max S-residual {worst:.2e} for n <= 3"


def check_hilbert(order):
    for n in range(0, 5):
        h = vvmf.hilbert_vvmf(n, "Gamma(1)")
        coeffs = h.coefficients(40)
        for k in range(-n, 41):
            if coeffs.get(k, 0) != vvmf.brute_force_vvmf_dim(n, k):
                return False, f"mismatch at n={n}, k={k}"
    return True, "generating function = monomial counts, n <= 4, k <= 40"


# ----------------------------------------------------------------------
# theta / gamma suites
# ----------------------------------------------------------------------

def check_theta_transformations(order):
    worst = max(
        modforms.theta_transformation_residual(tau, order)
        for tau in (1j, 0.3 + 1.1j)
    )
    return worst < 1e-8, f"T and S laws on theta constants, residual {worst:.1e}"


def check_ferapontov(order):
    if not modforms.ferapontov_ode_check(order):
        return False, "ODE failed"
    if any(t.is_zero() for t in modforms.ferapontov_ode_terms(min(order, 32))):
        return False, "an individual ODE term vanishes (degenerate check)"
    return True, "fourth-order ODE for phi1, all five terms active"


def check_mu(order):
    mu = modforms.named_form("mu", order).series
    if mu.coefficient(0) != 1:
        return False, "mu constant term is not 1"
    if mu.denom not in (1, 2, 4):
        return False, f"mu exponents have denominator {mu.denom}"
    return True, "cusp value 1, quarter-integral lattice"


def check_klein(order):
    k = modforms.klein_form(Fraction(1, 5), 5, order).series
    if k.valuation != Fraction(-2, 5):
        return False, f"klein valuation {k.valuation}"
    if (k**5).valuation != -2:
        return False, "fifth power valuation"
    f = modforms.named_form("f_gamma5", order).series
    if f.valuation != 1 or f.coefficient(f.valuation) != 1:
        return False, "Gamma(5) form f leading term wrong"
    return True, "Klein form exponents and the Gamma(5) weight-1 form"


# ----------------------------------------------------------------------
# alia suite
# ----------------------------------------------------------------------

def check_barrel_contraction(order):
    table = alia.alia_table("A1", "principal")
    idx_e = table.index[("A", (1,))]
    idx_f = table.index[("A", (-1,))]
    idx_h = table.index[("H", 0)]
    ef = table.bracket({idx_e: alia.JPoly.const(1)}, {idx_f: alia.JPoly.const(1)})
    if set(ef) != {idx_h} or ef[idx_h] != alia.JPoly((0, -1728, 1)):
        return False, "[e,f] != j(j-1728) h"
    for j_val in (0, 1728):
        spec = table.specialize(j_val)
        if spec.bracket_vectors({idx_e: Fraction(1)}, {idx_f: Fraction(1)}):
            return False, f"[e,f] != 0 at j={j_val}"
        if not spec.is_solvable(within_steps=3):
            return False, f"not solvable at j={j_val}"
    return True, "barrel bracket and solvable contractions at j=0, 1728"


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


def check_levi(order):
    if alia.levi_dimensions("A1", "principal") != (1, 0):
        return False, "A1 principal Levi data wrong"
    radical, levi = alia.levi_dimensions("B2", "subregular")
    if levi < 3:
        return False, "B2 subregular Levi too small"
    return True, "dimension bookkeeping for sample orbits"


# ----------------------------------------------------------------------
# loop suite
# ----------------------------------------------------------------------

def check_cocycle_properties(order):
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
    # all 144 ordered pairs of the loop elements x f; f + g adds any two functions
    for (x, f), (y, g) in itertools.product(itertools.product(vecs, funcs), repeat=2):
        doubled = {k: 2 * v for k, v in x.items()}
        for p in points:
            omega = cocycle(x, f, y, g, p)
            if not (omega + cocycle(y, g, x, f, p)).is_zero():
                return False, "cocycle not antisymmetric"
            if cocycle(x, f + g, y, g, p) != omega + cocycle(x, g, y, g, p):
                return False, "cocycle not additive in the function slot"
            if cocycle(doubled, f, y, g, p) != omega * 2:
                return False, "cocycle not linear in the algebra slot"
    pairs = [
        ((vecs[0], funcs[0]), (vecs[1], funcs[2])),
        ((vecs[0], funcs[1]), (vecs[1], funcs[3])),
        ((vecs[2], funcs[0]), (vecs[2], funcs[2])),
    ]
    if loopext.cocycle_rank(st, pairs, points) != len(points):
        return False, "puncture cocycles not independent"
    return True, ("bilinear and antisymmetric on all 144 pairs of 12 loop elements, "
                  "independent (rank M-1)")


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


def _identity(check_id):
    return check_id, partial(check_identity, check_id)


# ----------------------------------------------------------------------
# suite registry
# ----------------------------------------------------------------------

SUITES = {
    "core": [
        ("qseries.ring_axioms", check_qseries_ring_axioms),
        ("qseries.div_roundtrip", check_qseries_div_roundtrip),
        ("qseries.leibniz", check_qseries_leibniz),
        ("qseries.shift_homomorphism", check_qseries_shift_hom),
        ("qseries.eval_product", check_qseries_eval_product),
        _identity("modforms.j_expansion"),
        _identity("modforms.delta_dual_route"),
        _identity("modforms.ramanujan"),
        _identity("modforms.eisenstein_powers"),
        ("modforms.duke_jenkins_table", check_duke_jenkins_table),
        ("modforms.delta_derivation", check_delta_derivation),
        ("modforms.numeric_s_equivariance", check_numeric_s_equivariance),
        ("quasimodular.d_tau_leibniz", check_dtau_leibniz),
        _identity("quasimodular.series_consistency"),
        _identity("quasimodular.sl2_bundle"),
        _identity("liealg.jacobi"),
        ("liealg.grading_additivity", check_grading_additivity),
        _identity("liealg.symrep"),
        _identity("liealg.killing_associativity"),
        _identity("vvmf.phi_det"),
        _identity("vvmf.phi_functoriality"),
        _identity("vvmf.phi_T_exact"),
        ("vvmf.phi_S_numeric", check_phi_S),
        ("vvmf.hilbert", check_hilbert),
    ],
    "theta": [
        _identity("theta.jacobi_identity"),
        _identity("theta.delta_product"),
        _identity("theta.gamma2_combinations"),
        _identity("theta.lambda_j"),
        _identity("theta.lambda_shift"),
        ("theta.transformation_laws", check_theta_transformations),
    ],
    "gamma": [
        _identity("gamma.rel3"),
        ("gamma.ferapontov_ode", check_ferapontov),
        ("gamma.mu_hauptmodul", check_mu),
        ("gamma.klein_forms", check_klein),
        _identity("gamma.weight_zero_iso"),
    ],
    "alia": [
        _identity("alia.cocycle_values"),
        _identity("alia.cocycle_condition"),
        _identity("alia.jacobi_tables"),
        _identity("alia.scalar_oracle"),
        ("alia.barrel_contraction", check_barrel_contraction),
        ("alia.specialization", check_specialization),
        ("alia.levi_dimensions", check_levi),
    ],
    "loop": [
        _identity("loop.residue_calculus"),
        _identity("loop.total_residue"),
        ("loop.cocycle_properties", check_cocycle_properties),
        _identity("loop.cocycle_monomials"),
        _identity("loop.onsager"),
        _identity("loop.dolan_grady"),
        _identity("loop.polyhedral_cocycles"),
        ("loop.evaluation_rep", check_evaluation_rep),
    ],
}


def suite_checks(name: str):
    if name == "all":
        return [entry for entries in SUITES.values() for entry in entries]
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]


def run_suite(name: str, order: int = 64):
    """Execute a suite; returns a list of (id, passed, detail, elapsed_ms)."""
    report = []
    for check_id, fn in suite_checks(name):
        start = time.perf_counter()
        try:
            passed, detail = fn(order)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed_ms = (time.perf_counter() - start) * 1e3
        report.append((check_id, bool(passed), detail, elapsed_ms))
    return report
