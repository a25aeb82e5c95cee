"""Smoke test of the benchmark at tiny sizes: output schema and metric names.

    python3 perfbench/smoke.py

Run it from the root of a checkout.  It runs ``run.py --size smoke`` (certify
at order 24, expand at order 64, algebra with phi(4)) on every workload of
BENCHMARK.json, once untraced and twice traced, and checks that

  * the last line of stdout is a JSON object with exactly the keys
    correct, attempted, failed and metrics;
  * correct is true, attempted is at least 1 and failed is 0;
  * the metrics are exactly BENCHMARK.json's end_to_end metrics (untraced) or
    per_layer metrics (traced), each a number with the declared unit;
  * every ``.calls`` count is identical in the two traced runs.

It exits 0 when all of these hold and 1 otherwise.  It adds no timing gate.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    problems = []
    if set(result) != KEYS:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit or isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name}: {m}")
    return [f"{label}: {p}" for p in problems]


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        problems += check(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        for label, result in (("traced 1", first), ("traced 2", second)):
            problems += check(result, bench["per_layer"], f"{workload} {label}")
        for name, m in first["metrics"].items():
            again = second["metrics"].get(name, {}).get("value")
            if name.endswith(".calls") and again != m["value"]:
                problems.append(f"{workload}: {name} {m['value']} then {again}")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
