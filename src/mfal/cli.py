"""Command-line surface: expansions, tables, Hilbert series, verification.

Exit codes: 0 success, 1 failed verification, 2 usage error.  The working
order of expand, eval and verify is 64; override with --order or the
MFAL_ORDER environment variable.

Each subcommand imports the modules it runs, so ``import mfal.cli`` loads no
other mfal module, ``mfal expand`` loads only modforms, qseries and poly, and
``mfal alia`` only alia, liealg, poly and sparse (no linalg: a table solves
nothing): a fresh process pays to compile nothing it does not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _parse_tau(text: str) -> complex:
    try:
        tau = complex(text.replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse tau {text!r}") from exc
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise argparse.ArgumentTypeError(f"tau {text!r} is not finite")
    return tau


def _positive_tolerance(text: str) -> float:
    """argparse type: a finite float > 0."""
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is not finite and positive")
    return tol


def _named_form(args):
    """The form ``args.form`` at ``args.order``, or None after a one-line
    message when the name is unknown or names an odd weight F_k."""
    from . import modforms

    try:
        return modforms.named_form(args.form, args.order)
    except modforms.UnknownForm:
        print(f"unknown form {args.form!r}; known: {', '.join(modforms.REGISTERED_NAMES)}, "
              "F_k:<even int>", file=sys.stderr)
    except modforms.OddWeight as exc:
        print(f"error: {args.form}: {exc}", file=sys.stderr)
    return None


def cmd_expand(args) -> int:
    form = _named_form(args)
    if form is None:
        return 2
    series = form.series
    if args.format == "json":
        payload = series.to_json()
        payload["name"] = form.name
        payload["weight"] = f"{form.weight.numerator}/{form.weight.denominator}"
        payload["group"] = form.group
        print(json.dumps(payload))
    else:
        shown = series
        if Fraction(args.order) < series.trunc:
            shown = series.truncate(args.order)
        print(f"{form.name} (weight {form.weight}, {form.group}):")
        print(f"  {shown.pretty()} + O(q^{shown.trunc})")
    return 0


def cmd_alia(args) -> int:
    from . import alia

    try:
        table = alia.alia_table(args.type, args.orbit)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = []
    for x, y, target, eps, w4, w6 in table.bracket_records():
        records.append(
            {
                "x": x,
                "y": y,
                "target": target,
                "coeff": {
                    "eps": int(eps) if eps.denominator == 1 else str(eps),
                    "w4": w4,
                    "w6": w6,
                },
            }
        )
    payload = {
        "type": args.type,
        "orbit": args.orbit,
        "basis": [table.basis_name(i) for i in range(table.dim)],
        "brackets": records,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"{args.type} {args.orbit}: basis {', '.join(payload['basis'])}")
        for rec in records:
            c = rec["coeff"]
            factor = ("j" if c["w4"] else "") + ("(j-1728)" if c["w6"] else "")
            coeff = f"{c['eps']} {factor}".rstrip() if factor else str(c["eps"])
            print(f"  [{rec['x']}, {rec['y']}] = {coeff} {rec['target']}")
    return 0


def cmd_hilbert(args) -> int:
    from . import vvmf

    group = {"Gamma1": "Gamma(1)", "Gamma(1)": "Gamma(1)",
             "Gamma2": "Gamma(2)", "Gamma(2)": "Gamma(2)"}.get(args.group)
    if group is None:
        print(f"unsupported group {args.group!r} (Gamma1 or Gamma2)", file=sys.stderr)
        return 2
    h = vvmf.hilbert_vvmf(args.n, group)
    weights = vvmf.hilbert_coeffs(h, args.kmax)
    if args.format == "json":
        print(json.dumps({"n": args.n, "group": group, "weights": [[k, d] for k, d in weights]}))
    else:
        for k, d in weights:
            print(f"  weight {k:>3}: dim {d}")
    return 0


def cmd_eval(args) -> int:
    from . import modforms
    from .qseries import NeedsCyclotomic, NotConvergent

    form = _named_form(args)
    if form is None:
        return 2
    tau, series = args.tau, form.series
    try:
        value = series.eval_numeric(tau)
        if args.check == "S":
            residual = modforms.s_law_residual(form, tau)
        elif args.check == "T":
            residual = abs(series.eval_numeric(tau + 1) - series.shift_tau().eval_numeric(tau))
    except (NotConvergent, modforms.Unsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NeedsCyclotomic as exc:
        print(f"error: exact T-check unavailable for {form.name}: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print(f"error: {form.name} at tau = {tau} overflows a float", file=sys.stderr)
        return 2
    if args.check == "none":
        print(f"{form.name}({tau}) = {value}")
        return 0
    if args.check == "S":
        print(f"{form.name}: |f(-1/tau) - tau^{form.weight} f(tau)| = {residual:.3e}")
    else:
        print(f"{form.name}: |f(tau+1) - (T f)(tau)| = {residual:.3e}")
    if residual > args.tol:
        print(f"residual exceeds tolerance {args.tol}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    from . import checks

    try:
        report = checks.run_suite(args.suite, order=args.order)
    except KeyError:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(checks.SUITES)}, all",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({
            "suite": args.suite,
            "order": args.order,
            "checks": [
                {"id": cid, "status": "pass" if ok else "fail",
                 "detail": detail, "elapsed_ms": round(ms, 1)}
                for cid, ok, detail, ms in report
            ],
        }))
    else:
        for cid, ok, detail, ms in report:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {cid:<36} {ms:7.1f} ms  {detail}")
        n_fail = sum(1 for _, ok, _, _ in report if not ok)
        total_ms = sum(ms for _, _, _, ms in report)
        print(f"-- {len(report)} checks, {n_fail} failures, order {args.order}, "
              f"{total_ms/1e3:.1f} s total")
    return 0 if all(ok for _, ok, _, _ in report) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfal",
        description="Exact modular forms, quasimodular matrices and their Lie algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=_int_at_least(1),
                        help="working truncation order (default 64 or MFAL_ORDER)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common],
                       help="print the q-expansion of a named form")
    p.add_argument("form")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("alia", help="emit a weight-zero bracket table over C[j]")
    p.add_argument("type", choices=("A1", "A2", "B2", "G2"))
    p.add_argument("orbit", choices=("principal", "subregular"))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_alia)

    p = sub.add_parser("hilbert", help="weight dimensions of the Sym^n module")
    p.add_argument("n", type=_int_at_least(0))
    p.add_argument("group")
    p.add_argument("kmax", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a form numerically, optionally checking S or T")
    p.add_argument("form")
    p.add_argument("--tau", type=_parse_tau, required=True,
                   help="point, e.g. 0.3+1.1i; write one with a leading minus as --tau=-0.5+1i")
    p.add_argument("--check", choices=("S", "T", "none"), default="none")
    p.add_argument("--tol", type=_positive_tolerance, default=1e-8)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", parents=[common],
                       help="run a certification suite")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "order" in vars(args) and args.order is None:
        try:
            args.order = _int_at_least(1)(os.environ.get("MFAL_ORDER") or "64")
        except argparse.ArgumentTypeError as exc:
            parser.error(f"MFAL_ORDER (the default of --order): {exc}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
