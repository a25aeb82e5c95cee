"""The certification suites behind `mfal verify`: their registry and runner.

Each check re-verifies one invariant of the package at the requested
working order and returns (passed, detail).  SUITES lists every check of
every suite in report order; `all` runs every suite.  Results are
deterministic: the checks that sample use fixed seeds.

A suite is the unit of import.  Its checks live in the module
`mfal.checks_<suite>`, which imports only the modules the suite runs, and
`load` imports it before `run_suite` starts the first check's timer.  So
`import mfal.checks` loads no other mfal module, and each entry of SUITES
calls its check by id: `check_identity` for a row of IDENTITIES, `run_check`
for any other check.

Every check that is a pure exact identity, over any of the package's rings,
is a row of IDENTITIES.  Each row yields its identities one at a time, each
as a name and its two sides built at the working order.  Two q-series hold
when they agree on their shared range; sides in any other ring (scalars,
QuasiPoly, JPoly, Laurent, CycloNumber, matrices over them, bracket vectors)
hold when equal, exact as each ring keeps one canonical form.  A row fails
naming the identities whose sides differ.  A row of finite lemmas gives its
proof in its docstring.  The other checks sample random series and
quasimodular polynomials, run through a finite set of loop elements, compare
numbers within a tolerance, read off properties (valuations, dimensions, a
raised error) or guard their order.
"""

from __future__ import annotations

import importlib
import time
from functools import partial

#: check id -> (detail of a pass, sides): sides(order) yields each identity
#: of the row as (name, lhs, rhs), one at a time; the rows of every loaded suite
IDENTITIES = {}
#: check id -> check(order) -> (passed, detail): the other checks of every
#: loaded suite
CHECKS = {}


def load(suite: str) -> None:
    """Import the module of `suite` ("all": of every suite) and add its rows
    to IDENTITIES and its other checks to CHECKS; an entry already there is
    kept."""
    for name in SUITES if suite == "all" else (suite,):
        module = importlib.import_module(f"mfal.checks_{name}")
        for table, entries in ((IDENTITIES, module.IDENTITIES), (CHECKS, module.CHECKS)):
            for check_id, entry in entries.items():
                table.setdefault(check_id, entry)


def check_identity(check_id, order):
    """Row `check_id` of IDENTITIES: passes when every identity in it holds.

    Two series hold when they agree on their shared range (they carry
    ``agrees``); sides in any other ring hold when they are equal, which is
    exact because each of the package's rings keeps one canonical form.
    """
    detail, sides = IDENTITIES[check_id]
    failed = [
        name for name, lhs, rhs in sides(order)
        if not (lhs.agrees(rhs) if hasattr(lhs, "agrees") else lhs == rhs)
    ]
    if failed:
        return False, "failed: " + "; ".join(failed)
    return True, detail.format(order=order)


def run_check(check_id, order):
    """The check `check_id` of CHECKS at `order`."""
    return CHECKS[check_id](order)


def _identity(check_id):
    return check_id, partial(check_identity, check_id)


def _check(check_id):
    return check_id, partial(run_check, check_id)


SUITES = {
    "core": [
        _check("qseries.ring_axioms"),
        _check("qseries.div_roundtrip"),
        _check("qseries.leibniz"),
        _check("qseries.shift_homomorphism"),
        _check("qseries.eval_product"),
        _identity("modforms.j_expansion"),
        _identity("modforms.delta_dual_route"),
        _identity("modforms.ramanujan"),
        _identity("modforms.eisenstein_powers"),
        _check("modforms.duke_jenkins_table"),
        _check("modforms.delta_derivation"),
        _check("modforms.numeric_s_equivariance"),
        _check("quasimodular.d_tau_leibniz"),
        _identity("quasimodular.series_consistency"),
        _identity("quasimodular.sl2_bundle"),
        _identity("liealg.jacobi"),
        _check("liealg.grading_additivity"),
        _identity("liealg.symrep"),
        _identity("liealg.killing_associativity"),
        _identity("vvmf.phi_det"),
        _identity("vvmf.phi_functoriality"),
        _identity("vvmf.phi_T_exact"),
        _check("vvmf.phi_S_numeric"),
        _check("vvmf.hilbert"),
    ],
    "theta": [
        _identity("theta.jacobi_identity"),
        _identity("theta.delta_product"),
        _identity("theta.gamma2_combinations"),
        _identity("theta.lambda_j"),
        _identity("theta.lambda_shift"),
        _check("theta.transformation_laws"),
    ],
    "gamma": [
        _identity("gamma.rel3"),
        _check("gamma.ferapontov_ode"),
        _check("gamma.mu_hauptmodul"),
        _check("gamma.klein_forms"),
        _identity("gamma.weight_zero_iso"),
    ],
    "alia": [
        _identity("alia.cocycle_values"),
        _identity("alia.cocycle_condition"),
        _identity("alia.jacobi_tables"),
        _identity("alia.scalar_oracle"),
        _check("alia.barrel_contraction"),
        _check("alia.specialization"),
        _check("alia.levi_dimensions"),
    ],
    "loop": [
        _identity("loop.residue_calculus"),
        _identity("loop.total_residue"),
        _check("loop.cocycle_properties"),
        _identity("loop.cocycle_monomials"),
        _identity("loop.onsager"),
        _identity("loop.dolan_grady"),
        _identity("loop.polyhedral_cocycles"),
        _check("loop.evaluation_rep"),
    ],
}


def suite_checks(name: str):
    if name == "all":
        return [entry for entries in SUITES.values() for entry in entries]
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]


def run_suite(name: str, order: int = 64):
    """Execute a suite; returns a list of (id, passed, detail, elapsed_ms).

    The suite's modules are imported first, so no check's time holds an
    import."""
    checks = suite_checks(name)
    load(name)
    report = []
    for check_id, fn in checks:
        start = time.perf_counter()
        try:
            passed, detail = fn(order)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed_ms = (time.perf_counter() - start) * 1e3
        report.append((check_id, bool(passed), detail, elapsed_ms))
    return report
