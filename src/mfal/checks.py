"""The certification suites behind `mfal verify`: their registry and runner.

Each check re-verifies one invariant of the package at the requested
working order and returns (passed, detail).  SUITES lists every check of
every suite in report order; `all` runs every suite.  Results are
deterministic: the checks that sample use fixed seeds.

A suite is the unit of import.  Its checks live in the module
`mfal.checks_<suite>`, which imports only the modules the suite runs, and
`load` imports it before `run_suite` starts the first check's timer.  So
`import mfal.checks` loads no other mfal module, and each entry of SUITES
calls `check_identity` with its id.

Every check is a row of IDENTITIES.  Each row yields its identities one at
a time, each as a name and its two sides built at the working order.  Two
q-series hold when they agree on their shared range; sides in any other
ring (scalars, booleans, QuasiPoly, JPoly, Laurent, CycloNumber, matrices
over them, bracket vectors) hold when equal, exact as each ring keeps one
canonical form.  A row fails naming the identities whose sides differ; a
sampled row names the sample.  A row of finite lemmas gives its proof in
its docstring.

A statement that is not an equation of two exact sides is a lemma against
True: a float residual below its tolerance, named with the residual it
computed, a comparison on a range shorter than a row's, a term that must not
vanish or an error that must be raised; `tests/test_identity_table.py` pins
the seven rows that yield one.  An equation yields its two sides, never a
predicate of them.  The transformation laws of Phi_n are exact:
`vvmf.phi_T_exact` and `vvmf.phi_S_numeric` (an id kept from when the S law
was a float residual) compare polynomials after the substitutions of T and
S.
"""

import importlib
import time
from functools import partial

#: check id -> (detail of a pass, sides): sides(order) yields each identity
#: of the row as (name, lhs, rhs), one at a time; the rows of every loaded suite
IDENTITIES = {}


def load(suite: str) -> None:
    """Import the module of `suite` ("all": of every suite) and add its rows
    to IDENTITIES; a row already there is kept."""
    for name in SUITES if suite == "all" else (suite,):
        for check_id, row in importlib.import_module(f"mfal.checks_{name}").IDENTITIES.items():
            IDENTITIES.setdefault(check_id, row)


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


SUITES = {
    suite: [(check_id, partial(check_identity, check_id)) for check_id in ids]
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


def report(suite: str, order: int, fmt: str):
    """What `mfal verify` prints for `suite` at `order`, as text or as JSON
    ("json"), and the number of checks that failed.  Raises ValueError for
    an unknown suite."""
    try:
        results = run_suite(suite, order)
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}, all") from None
    n_fail = sum(not ok for _, ok, *_ in results)
    if fmt == "json":
        import json

        return json.dumps({"suite": suite, "order": order, "checks": [
            {"id": cid, "status": "pass" if ok else "fail", "detail": detail,
             "elapsed_ms": round(ms, 1)} for cid, ok, detail, ms in results]}) + "\n", n_fail
    lines = [f"[{'PASS' if ok else 'FAIL'}] {cid:<36} {ms:7.1f} ms  {detail}"
             for cid, ok, detail, ms in results]
    lines.append(f"-- {len(results)} checks, {n_fail} failures, order {order}, "
                 f"{sum(ms for *_, ms in results) / 1e3:.1f} s total")
    return "".join(line + "\n" for line in lines), n_fail
