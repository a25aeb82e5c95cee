"""The mfal benchmark: time-to-certificate, time-to-expansion and exact algebra.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it runs mfal from ``src/``.  Every
operation starts in a fresh process (``child.py``), one at a time, as a user
runs the ``mfal`` command.  A run repeats the workload's operations in passes
while another pass fits in ``--seconds``, runs ``reference.py`` in a fresh
process after every operation, and times processes that only import
``mfal.cli`` before the first pass and after each pass.  Every output
is checked exactly: stdout against a golden sha256 (``golden.json``), every
certification check for ``pass``, and the library operations inside the
child.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics,
times in reference seconds (see ``host_scale``):
    setup_s      median wall time of the import-only processes;
    wall_s       sum over the operations of each one's median wall time over
                 the passes, each timed from spawn to exit;
    peak_rss_mb  largest peak resident set among the operation processes.
The line ``raw wall times`` above it gives the unscaled times.
With ``--trace 1`` a run makes one untraced pass and one traced pass, and
reports the per-layer metrics of ``tracer.py`` for the traced pass.

``--size smoke`` shrinks every operation (see SIZES); ``smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
# reported times are scaled by REFERENCE_S / (median reference.py wall time of
# the run); 0.15 s is a typical reference.py time on the 2-vCPU VM where the
# baseline in trajectory.json was measured (run medians of 0.10 to 0.17 s)
REFERENCE_S = 0.15
WORKLOADS = ("certify", "expand", "algebra")
# the suites of `mfal verify all`, each certified in a process of its own
SUITES = ("core", "theta", "gamma", "alia", "loop")
SETUP_PROBES = 5
PROBES_PER_PASS = 2
# every operation must end this long after the run started, so that a run
# exits within the 180 s a run is allowed even if an operation hangs
HARD_LIMIT_S = 165.0

# The seed picks F_k from the even k in [-24, -14] whose generator is Delta^-2
# times a single Eisenstein series (E4 for -20, E6 for -18): both make the same
# series products on operands of the same lengths.  The other four differ in
# work by -20% (k = -24), +20% (-16, -14) and +60% (-22, Delta^-3), which would
# make wall_s depend on the seed.
FK_POOL = (-20, -18)
ORBITS = (
    ("A1", "principal"), ("A2", "principal"), ("B2", "subregular"),
    ("B2", "principal"), ("G2", "subregular"), ("G2", "principal"),
)
SIZES = {
    "full": {"certify_order": 32, "expand_order": 128, "phi_det": 6,
             "phi_inverse": 5, "ratfunc_terms": 12},
    "smoke": {"certify_order": 24, "expand_order": 64, "phi_det": 4,
              "phi_inverse": 4, "ratfunc_terms": 8},
}


class Op:
    """One operation: the child's arguments and the exact check of its output."""

    def __init__(self, args, check, cli=True):
        self.args = args
        self.check = check  # (exit code, stdout bytes, report) -> (attempted, failed)
        self.cli = cli
        self.label = " ".join(args[1:])


def _golden():
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def check_digest(digest):
    def check(code, out, report):
        return 1, int(code != 0 or hashlib.sha256(out).hexdigest() != digest)
    return check


def check_verify(expected_ids):
    """Each certification check is one result; any status but pass fails."""
    def check(code, out, report):
        try:
            status = {c["id"]: c["status"] for c in json.loads(out)["checks"]}
        except (ValueError, KeyError, TypeError):
            return len(expected_ids), len(expected_ids)
        ids = list(dict.fromkeys([*expected_ids, *status]))
        failed = sum(status.get(cid) != "pass" for cid in ids)
        if code != 0 and failed == 0:
            failed = len(ids)
        return len(ids), failed
    return check


def check_library(code, out, report):
    return 1, int(code != 0 or report.get("ok") is not True)


def build_ops(workload: str, seed: int, size: dict, golden: dict):
    """The workload's operations; mfal sees only these generated arguments."""
    rng = random.Random(seed)
    digests = golden["stdout_sha256"]

    def cli(*argv):
        argv = [str(a) for a in argv]
        label = " ".join(argv)
        return Op(["cli", *argv], check_digest(digests.get(label)))

    if workload == "certify":
        order = str(size["certify_order"])
        return [Op(["cli", "verify", suite, "--order", order, "--format", "json"],
                   check_verify(golden["checks"][suite]))
                for suite in SUITES]
    if workload == "expand":
        order = size["expand_order"]
        k = rng.choice(FK_POOL)
        return [cli("expand", name, "--order", order, "--format", "json")
                for name in ("j", "lambda", f"F_k:{k}")]
    if workload == "algebra":
        ops = [cli("alia", t, o, "--format", "json") for t, o in ORBITS]
        ops += [
            Op(["lib", "phi_det", str(size["phi_det"])], check_library, cli=False),
            Op(["lib", "phi_inverse", str(size["phi_inverse"])], check_library, cli=False),
            Op(["lib", "ratfunc_residues", str(rng.randrange(2**32)),
                str(size["ratfunc_terms"])], check_library, cli=False),
        ]
        return ops
    raise ValueError(workload)


class Runner:
    """Spawns and times child processes; owns the scratch directory."""

    def __init__(self, root: str, tmp: str, t0: float):
        self.tmp = tmp
        self.t0 = t0
        self.count = 0
        self.last_reference = None
        self.env = dict(os.environ)
        self.env.pop("MFAL_ORDER", None)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def spawn(self, args, trace: bool):
        """Run one child; returns (wall s, cpu s, exit code, stdout, report, spans)."""
        self.count += 1
        base = os.path.join(self.tmp, f"op{self.count}")
        report_path = base + ".json"
        timeout = HARD_LIMIT_S - (time.perf_counter() - self.t0)
        if timeout <= 0:
            return 0.0, 0.0, -1, b"", {}, None
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, base + ".out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, base + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        argv = [sys.executable, CHILD, report_path, "1" if trace else "0", *args]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = _wait(pid, timeout)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        with open(base + ".out", "rb") as fh:
            out = fh.read()
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {}
        spans = report_path + ".spans"
        if not (trace and os.path.exists(spans)):
            spans = None
        return wall, usage.ru_utime + usage.ru_stime, code, out, report, spans

    def reference(self):
        """Wall time of one fresh reference.py process.

        Past the hard limit it returns the previous time without spawning.
        """
        timeout = HARD_LIMIT_S - (time.perf_counter() - self.t0)
        if timeout > 0 or self.last_reference is None:
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, REFERENCE], self.env)
            _, status, _ = _wait(pid, max(timeout, 0.0))
            if os.waitstatus_to_exitcode(status) != 0:
                raise RuntimeError("reference.py failed")
            self.last_reference = time.perf_counter() - start
        return self.last_reference


def _wait(pid, timeout):
    """wait4 with a timeout; the child is killed when the timeout passes."""
    if hasattr(os, "pidfd_open"):
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], timeout)[0]:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(fd)
    return os.wait4(pid, 0)


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.op_walls = []
        self.scaled_walls = []
        self.reference = []
        self.attempted = self.failed = 0
        self.peak_rss_kb = 0
        self.stdout_bytes = 0
        self.spans = []
        self.lines = []


def run_pass(runner: Runner, ops, trace: bool) -> Pass:
    p = Pass()
    for op in ops:
        before = None if trace else runner.last_reference or runner.reference()
        wall, cpu, code, out, report, spans = runner.spawn(op.args, trace)
        attempted, failed = op.check(code, out, report)
        p.wall += wall
        p.op_walls.append(wall)
        if not trace:
            after = runner.reference()
            p.reference.append(after)
            p.scaled_walls.append(wall * 2 * REFERENCE_S / (before + after))
        p.attempted += attempted
        p.failed += failed
        p.peak_rss_kb = max(p.peak_rss_kb, report.get("peak_rss_kb", 0))
        if op.cli:
            p.stdout_bytes += len(out)
        if spans:
            p.spans.append(spans)
        p.lines.append(
            f"  {op.label:<48} {wall:8.3f} s wall {cpu:8.3f} s cpu "
            f"{report.get('peak_rss_kb', 0) / 1024:7.1f} MB  exit {code}  "
            f"{failed}/{attempted} failed"
        )
    return p


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "mfal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(root, args):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": _commit(root),
        "src_sha256": _src_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "loadavg_start": list(os.getloadavg()),
    }


def measure(runner, ops, seconds, t0):
    """Passes while another pass fits in the budget, with import-only probes
    before the first pass and after every pass.

    The host's speed drifts within a run, so probes spread over the run give
    a set-up time taken under the same conditions as the passes.
    """
    def probe():
        return runner.spawn(["import"], False)[0]

    probe()  # fill the bytecode cache before timing
    setup = [probe() for _ in range(SETUP_PROBES)]
    passes = []
    durations = []
    while not passes or (time.perf_counter() - t0) + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        passes.append(run_pass(runner, ops, trace=False))
        setup += [probe() for _ in range(PROBES_PER_PASS)]
        durations.append(time.perf_counter() - began)
    return setup, passes


def host_scale(passes):
    """REFERENCE_S over the run's median reference.py wall time.

    The host's speed changes up to 2x, in phases of seconds to minutes, with
    CPU time equal to wall time.  A reference.py process after every
    operation measures that speed under the same conditions, and scaling by
    it turns a time into reference seconds, which a slower host does not
    change but a slower program does.  Each operation's wall time is scaled
    by the mean of the reference times just before and just after it
    (``run_pass``), which follows the host more closely than this run-wide
    scale; the set-up probes, which run in a row, use this one.
    """
    return REFERENCE_S / statistics.median(r for p in passes for r in p.reference)


def solution_time(walls):
    """Sum over the operations of each one's median over the passes.

    ``walls`` holds one list per pass of the operations' wall times.
    """
    return sum(statistics.median(w) for w in zip(*walls))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mfal", "cli.py")):
        print("error: run from the root of an mfal checkout (src/mfal is missing)",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    env = environment(root, args)
    ops = build_ops(args.workload, args.seed, SIZES[args.size], _golden())
    tmp = os.path.join(root, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        runner = Runner(root, tmp, t0)
        if args.trace:
            plain = run_pass(runner, ops, trace=False)
            traced = run_pass(runner, ops, trace=True)
            passes = [plain, traced]
            metrics = tracer.layer_metrics(
                tracer.aggregate(traced.spans), traced.stdout_bytes,
                traced.wall - plain.wall,
            )
        else:
            setup, passes = measure(runner, ops, args.seconds, t0)
            scale = host_scale(passes)
            raw = {"setup_s": statistics.median(setup),
                   "wall_s": solution_time([p.op_walls for p in passes]),
                   "reference_s": REFERENCE_S / scale}
            metrics = {
                "setup_s": {"value": raw["setup_s"] * scale, "unit": "s"},
                "wall_s": {"value": solution_time([p.scaled_walls for p in passes]),
                           "unit": "s"},
                "peak_rss_mb": {"value": max(p.peak_rss_kb for p in passes) / 1024,
                                "unit": "MB"},
            }
            print("raw wall times, not scaled: " + json.dumps(raw, sort_keys=True))
            print(f"setup: {len(setup)} import-only processes, "
                  + " ".join(f"{s:.3f}" for s in setup) + " s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for i, p in enumerate(passes, 1):
        kind = "traced " if args.trace and i == 2 else ""
        print(f"{kind}pass {i}: {p.wall:.3f} s, {p.failed}/{p.attempted} failed")
        print("\n".join(p.lines))
    env["loadavg_end"] = list(os.getloadavg())
    env["runner_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"fail_ratio: {failed / attempted:.6f} ({failed} of {attempted} results)")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
