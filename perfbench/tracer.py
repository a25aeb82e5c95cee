"""Spans around mfal's public functions, installed from outside the package.

The child process calls ``install`` after importing ``mfal.cli`` and before
the operation, then the returned recorder's ``write`` when the operation
ends.  Spans stay in memory until then.  ``run.py`` reads the span files of
one pass with ``aggregate`` and turns the totals into the per-layer metrics
with ``layer_metrics``.

A span file holds one line per span, in the order the spans closed:

    op  id  parent  name  start  end  close  nested  x1  x2

``start`` and ``end`` bound the wrapped call.  ``close`` is taken after the
tracer's own bookkeeping for the span (result statistics), so a parent's self
time excludes that bookkeeping.  ``nested`` is 1 when a span of the same name
was already open, which keeps recursion (``QuasiMatrix.det``) out of
``total_s``.  ``x1``/``x2`` are per-span statistics described in TARGETS.
"""

from __future__ import annotations

import importlib
import time

# (span name, module, attribute path, statistic kind)
#   "series"  x1 = number of result terms, x2 = largest coefficient bit length
#   "ratfunc" x1 = degree of the result's denominator
#   "build"   x1 = 1 when the same (builder, arguments) was already built
TARGETS = [
    ("qseries.mul", "mfal.qseries", "QSeries.__mul__", "series"),
    ("qseries.inverse", "mfal.qseries", "QSeries.inverse", None),
    ("qseries.pow", "mfal.qseries", "QSeries.__pow__", None),
    ("qseries.add", "mfal.qseries", "QSeries.__add__", None),
    ("qseries.agrees", "mfal.qseries", "QSeries.agrees", None),
    ("qseries.to_json", "mfal.qseries", "QSeries.to_json", None),
    ("quasimodular.det", "mfal.quasimodular", "QuasiMatrix.det", None),
    ("quasimodular.inverse", "mfal.quasimodular", "QuasiMatrix.inverse", None),
    ("quasimodular.matmul", "mfal.quasimodular", "QuasiMatrix.__mul__", None),
    ("quasimodular.poly_mul", "mfal.quasimodular", "QuasiPoly.__mul__", None),
    ("liealg.chevalley", "mfal.liealg", "chevalley", None),
    ("liealg.graded_triple", "mfal.liealg", "graded_triple", None),
    ("liealg.exp_nilpotent", "mfal.liealg", "exp_nilpotent", None),
    ("liealg.sym_power_matrix", "mfal.liealg", "sym_power_matrix", None),
    ("vvmf.phi", "mfal.vvmf", "phi", None),
    ("alia.alia_table", "mfal.alia", "alia_table", None),
    ("alia.jacobi", "mfal.alia", "AliaTable.jacobi_ok", None),
    ("alia.scalar_oracle", "mfal.alia", "scalar_oracle", None),
    ("loopext.ratfunc_add", "mfal.loopext", "RatFunc.__add__", "ratfunc"),
    ("loopext.ratfunc_mul", "mfal.loopext", "RatFunc.__mul__", "ratfunc"),
    ("loopext.residue", "mfal.loopext", "residue", None),
    ("loopext.cyclo_mul", "mfal.loopext", "CycloNumber.__mul__", None),
    ("cli.verify", "mfal.cli", "cmd_verify", None),
    ("cli.expand", "mfal.cli", "cmd_expand", None),
    ("cli.alia", "mfal.cli", "cmd_alia", None),
]

BUILDERS = (
    "eisenstein", "discriminant", "j_invariant", "j_minus_1728", "duke_jenkins",
    "dedekind_eta", "eta_quotient", "theta", "lambda_invariant",
)
TARGETS += [(f"modforms.{b}", "mfal.modforms", b, "build") for b in BUILDERS]

SUITES = ("core", "theta", "gamma", "alia", "loop")
HEAVY_CHECKS = (
    "alia.scalar_oracle", "loop.polyhedral_cocycles", "modforms.delta_derivation",
    "loop.cocycle_monomials", "theta.lambda_j", "vvmf.phi_det",
)

_clock = time.perf_counter


class Recorder:
    """The spans of one operation; one per process."""

    def __init__(self, op: str):
        self.op = op
        self.spans = []
        self.stack = [0]
        self.open = {}
        self.built = set()
        self.next_id = 1

    def wrap(self, name: str, fn, stat):
        def traced(*args, **kwargs):
            x1 = 0
            if stat == "build":
                key = (name, repr(args), repr(sorted(kwargs.items())))
                x1 = int(key in self.built)
                self.built.add(key)
            sid, parent = self.next_id, self.stack[-1]
            self.next_id += 1
            nested = self.open.get(name, 0)
            self.open[name] = nested + 1
            self.stack.append(sid)
            result = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                self.stack.pop()
                self.open[name] = nested
                x2 = 0
                if result is not None:
                    if stat == "series":
                        x1, x2 = _series_stats(result)
                    elif stat == "ratfunc":
                        x1 = _den_degree(result)
                self.spans.append(
                    (sid, parent, name, start, end, _clock(), int(nested > 0), x1, x2)
                )

        return traced

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, close, nested, x1, x2 in self.spans:
                fh.write(
                    f"{self.op}\t{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t"
                    f"{close!r}\t{nested}\t{x1}\t{x2}\n"
                )


def _series_stats(series):
    items = series.items()
    bits = 0
    for _, c in items:
        bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return len(items), bits


def _den_degree(f):
    # 0 once RatFunc no longer stores a single denominator polynomial
    den = getattr(f, "den", None)
    return len(den) - 1 if den else 0


def install(op: str) -> Recorder:
    """Wrap every target that exists; a target the program lacks reads 0."""
    rec = Recorder(op)
    for name, module_name, path, stat in TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            continue
        wrapped = rec.wrap(name, fn, stat)
        # aliases such as `__rmul__ = __mul__` hold the same function
        for key, value in list(vars(owner).items()):
            if value is fn:
                setattr(owner, key, wrapped)
    # the suites hold the check functions captured at import, so patching
    # checks.check_* would not reach what run_suite calls
    checks = importlib.import_module("mfal.checks")
    for suite, entries in checks.SUITES.items():
        entries[:] = [
            (cid, rec.wrap(f"checks.{suite}:{cid}", fn, None)) for cid, fn in entries
        ]
    return rec


class Totals:
    __slots__ = ("calls", "self_s", "total_s", "x1_sum", "x1_max", "x2_max")

    def __init__(self):
        self.calls = 0
        self.self_s = self.total_s = 0.0
        self.x1_sum = self.x1_max = self.x2_max = 0


def aggregate(paths) -> dict:
    """Per span name: calls, self time, outermost total time and statistics."""
    totals: dict[str, Totals] = {}
    for path in paths:
        covered: dict[str, float] = {}  # span id -> time covered by children
        with open(path) as fh:
            for line in fh:
                _, sid, parent, name, start, end, close, nested, x1, x2 = line.split("\t")
                start, end, close = float(start), float(end), float(close)
                t = totals.get(name)
                if t is None:
                    t = totals[name] = Totals()
                t.calls += 1
                t.self_s += (end - start) - covered.pop(sid, 0.0)
                if nested == "0":
                    t.total_s += end - start
                x1, x2 = int(x1), int(x2)
                t.x1_sum += x1
                t.x1_max = max(t.x1_max, x1)
                t.x2_max = max(t.x2_max, x2)
                if parent != "0":
                    covered[parent] = covered.get(parent, 0.0) + (close - start)
    return totals


def _sum(totals, names, field):
    return sum(getattr(totals[n], field) for n in names if n in totals)


def layer_metrics(totals: dict, stdout_bytes: int, overhead_s: float) -> dict:
    """The per-layer metrics, named <module>.<function>.<stat>, with units."""
    def get(name, field):
        t = totals.get(name)
        return getattr(t, field) if t is not None else 0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("qseries.mul.calls", get("qseries.mul", "calls"), "count")
    put("qseries.mul.self_s", get("qseries.mul", "self_s"), "s")
    put("qseries.mul.terms_out", get("qseries.mul", "x1_sum"), "count")
    put("qseries.mul.max_bits", get("qseries.mul", "x2_max"), "bits")
    for fn in ("inverse", "pow", "add", "agrees"):
        put(f"qseries.{fn}.calls", get(f"qseries.{fn}", "calls"), "count")
        put(f"qseries.{fn}.self_s", get(f"qseries.{fn}", "self_s"), "s")
    put("qseries.to_json.self_s", get("qseries.to_json", "self_s"), "s")

    builders = [f"modforms.{b}" for b in BUILDERS]
    calls = _sum(totals, builders, "calls")
    put("modforms.build.calls", calls, "count")
    put("modforms.build.self_s", _sum(totals, builders, "self_s"), "s")
    repeats = _sum(totals, builders, "x1_sum")
    put("modforms.build.repeat_ratio", repeats / calls if calls else 0.0, "ratio")
    for b in ("discriminant", "j_invariant", "duke_jenkins"):
        put(f"modforms.{b}.calls", get(f"modforms.{b}", "calls"), "count")

    put("quasimodular.det.calls", get("quasimodular.det", "calls"), "count")
    put("quasimodular.det.self_s", get("quasimodular.det", "self_s"), "s")
    put("quasimodular.det.total_s", get("quasimodular.det", "total_s"), "s")
    put("quasimodular.inverse.calls", get("quasimodular.inverse", "calls"), "count")
    put("quasimodular.inverse.total_s", get("quasimodular.inverse", "total_s"), "s")
    for fn in ("matmul", "poly_mul"):
        put(f"quasimodular.{fn}.calls", get(f"quasimodular.{fn}", "calls"), "count")
        put(f"quasimodular.{fn}.self_s", get(f"quasimodular.{fn}", "self_s"), "s")

    put("liealg.chevalley.calls", get("liealg.chevalley", "calls"), "count")
    put("liealg.graded_triple.calls", get("liealg.graded_triple", "calls"), "count")
    put("liealg.exp_nilpotent.total_s", get("liealg.exp_nilpotent", "total_s"), "s")
    put("liealg.sym_power_matrix.total_s", get("liealg.sym_power_matrix", "total_s"), "s")

    put("vvmf.phi.calls", get("vvmf.phi", "calls"), "count")
    put("vvmf.phi.total_s", get("vvmf.phi", "total_s"), "s")

    put("alia.alia_table.calls", get("alia.alia_table", "calls"), "count")
    put("alia.alia_table.total_s", get("alia.alia_table", "total_s"), "s")
    put("alia.jacobi.total_s", get("alia.jacobi", "total_s"), "s")
    put("alia.scalar_oracle.total_s", get("alia.scalar_oracle", "total_s"), "s")
    put("alia.scalar_oracle.self_s", get("alia.scalar_oracle", "self_s"), "s")

    for fn in ("ratfunc_add", "ratfunc_mul", "residue", "cyclo_mul"):
        put(f"loopext.{fn}.calls", get(f"loopext.{fn}", "calls"), "count")
        put(f"loopext.{fn}.self_s", get(f"loopext.{fn}", "self_s"), "s")
    put("loopext.den_degree_max",
        max(get("loopext.ratfunc_add", "x1_max"), get("loopext.ratfunc_mul", "x1_max")),
        "degree")

    for suite in SUITES:
        prefix = f"checks.{suite}:"
        names = [n for n in totals if n.startswith(prefix)]
        put(f"checks.{suite}.total_s", _sum(totals, names, "total_s"), "s")
    for cid in HEAVY_CHECKS:
        names = [n for n in totals if n.startswith("checks.") and n.endswith(f":{cid}")]
        put(f"checks.{cid}.total_s", _sum(totals, names, "total_s"), "s")

    for cmd in ("verify", "expand", "alia"):
        put(f"cli.{cmd}.total_s", get(f"cli.{cmd}", "total_s"), "s")
    put("cli.stdout_bytes", stdout_bytes, "bytes")
    put("trace.overhead_s", overhead_s, "s")
    return m
