"""The certification suites behind `mfal verify`: their registry and runner.

Each check re-verifies one invariant of the package at the requested
working order and returns (passed, detail).  SUITES lists every check of
every suite in report order; `all` runs every suite.  Results are
deterministic: the checks that sample use fixed seeds.

A suite is the unit of import.  Its checks live in the module
`mfal.checks_<suite>`, which imports only the modules the suite runs, and
`load` imports it before `run_suite` starts the first check's timer.  So
`import mfal.checks` loads no other mfal module, and each entry of SUITES
calls `run` with its id.  A check's kind is declared once, by the table of
its suite's module that holds it.

42 of the 50 checks are exact identities, over any of the package's rings,
and are rows of IDENTITIES, run by `check_identity`.  Each row yields its
identities one at a time, each as a name and its two sides built at the
working order.  Two q-series hold when they agree on their shared range;
sides in any other ring (scalars, QuasiPoly, JPoly, Laurent, CycloNumber,
matrices over them, bracket vectors) hold when equal, exact as each ring
keeps one canonical form.  A row fails naming the identities whose sides
differ; a sampled row names the sample.  A row of finite lemmas gives its
proof in its docstring.

The other 8 are in CHECKS, each for a reason a row cannot carry:
`qseries.eval_product`, `modforms.numeric_s_equivariance`,
`vvmf.phi_S_numeric` and `theta.transformation_laws` compare floats within
a tolerance; `modforms.delta_derivation` compares its Leibniz samples on a
shared range of 8, below a row's; `gamma.ferapontov_ode` also requires that
no term of its ODE vanish; `alia.specialization` reports the exponents it
computed; and `loop.evaluation_rep` asserts that evaluating at a pole is
refused.
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


def run(check_id, order):
    """Check `check_id` at `order`: its row of IDENTITIES, or else its check
    in CHECKS."""
    if check_id in IDENTITIES:
        return check_identity(check_id, order)
    return CHECKS[check_id](order)


SUITES = {
    suite: [(check_id, partial(run, check_id)) for check_id in ids]
    for suite, ids in {
        "core": (
            "qseries.ring_axioms",
            "qseries.div_roundtrip",
            "qseries.leibniz",
            "qseries.shift_homomorphism",
            "qseries.eval_product",
            "modforms.j_expansion",
            "modforms.delta_dual_route",
            "modforms.ramanujan",
            "modforms.eisenstein_powers",
            "modforms.duke_jenkins_table",
            "modforms.delta_derivation",
            "modforms.numeric_s_equivariance",
            "quasimodular.d_tau_leibniz",
            "quasimodular.series_consistency",
            "quasimodular.sl2_bundle",
            "liealg.jacobi",
            "liealg.grading_additivity",
            "liealg.symrep",
            "liealg.killing_associativity",
            "vvmf.phi_det",
            "vvmf.phi_functoriality",
            "vvmf.phi_T_exact",
            "vvmf.phi_S_numeric",
            "vvmf.hilbert",
        ),
        "theta": (
            "theta.jacobi_identity",
            "theta.delta_product",
            "theta.gamma2_combinations",
            "theta.lambda_j",
            "theta.lambda_shift",
            "theta.transformation_laws",
        ),
        "gamma": (
            "gamma.rel3",
            "gamma.ferapontov_ode",
            "gamma.mu_hauptmodul",
            "gamma.klein_forms",
            "gamma.weight_zero_iso",
        ),
        "alia": (
            "alia.cocycle_values",
            "alia.cocycle_condition",
            "alia.jacobi_tables",
            "alia.scalar_oracle",
            "alia.barrel_contraction",
            "alia.specialization",
            "alia.levi_dimensions",
        ),
        "loop": (
            "loop.residue_calculus",
            "loop.total_residue",
            "loop.cocycle_properties",
            "loop.cocycle_monomials",
            "loop.onsager",
            "loop.dolan_grady",
            "loop.polyhedral_cocycles",
            "loop.evaluation_rep",
        ),
    }.items()
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
