"""Command-line surface: expansions, tables, Hilbert series, verification.

Exit codes: 0 success, 1 failed verification, 2 usage error.  The working
order of expand, eval and verify is 64; override with --order or the
MFAL_ORDER environment variable.

Each subcommand imports the modules it runs, so ``import mfal.cli`` loads no
other mfal module, ``mfal expand`` loads only modforms, qseries and poly, and
``mfal alia`` only alia, liealg, poly and sparse (no linalg: a table solves
nothing): a fresh process pays to compile nothing it does not run.

The command line is read from one table, ``COMMANDS``, by ``_parse``: it
drives parsing, usage errors and ``--help``, so ``import mfal.cli`` loads no
argparse (nor the gettext and locale modules argparse imports).  A value may
follow its option after a space or an ``=``.  An argument that starts with
"-" is a value only when it is "-" or a number such as -3 or -.5, so write a
point like -0.5+1i as ``--tau=-0.5+1i``.  Options are spelled in full: a
prefix such as ``--ord`` is not read as ``--order``.
"""

import json
import math
import os
import re
import sys
from types import SimpleNamespace


class UsageError(ValueError):
    """A command line mfal cannot read: it is printed under the usage line, exit code 2."""


def _int_at_least(low):
    """Argument type: an int no smaller than ``low``."""

    def parse(text):
        value = int(text)
        if value < low:
            raise UsageError(f"must be >= {low}, got {value}")
        return value

    return parse


def _parse_tau(text):
    tau = complex(text.replace("i", "j"))
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise UsageError(f"tau {text!r} is not finite")
    return tau


def _positive_tolerance(text):
    """Argument type: a finite float > 0."""
    tol = float(text)
    if not 0 < tol < math.inf:
        raise UsageError(f"tolerance {text!r} is not finite and positive")
    return tol


def _fail(message, code=2):
    """Print message on stderr; the exit code of a command that stops here."""
    print(message, file=sys.stderr)
    return code


def _named_form(args):
    """The form ``args.form`` at ``args.order``, or None after a one-line
    message when the name is unknown or names an odd weight F_k."""
    from . import modforms

    try:
        return modforms.named_form(args.form, args.order)
    except modforms.UnknownForm:
        _fail(f"unknown form {args.form!r}; known: {', '.join(modforms.REGISTERED_NAMES)}, "
              "F_k:<even int>")
    except modforms.OddWeight as exc:
        _fail(f"error: {args.form}: {exc}")


def cmd_expand(args):
    form = _named_form(args)
    if form is None:
        return 2
    series = form.series
    if args.format == "json":
        print(json.dumps({**series.to_json(), "name": form.name,
                          "weight": f"{form.weight.numerator}/{form.weight.denominator}",
                          "group": form.group}))
    else:
        shown = series.truncate(args.order) if args.order < series.trunc else series
        print(f"{form.name} (weight {form.weight}, {form.group}):\n"
              f"  {shown.pretty()} + O(q^{shown.trunc})")
    return 0


def cmd_alia(args):
    from . import alia

    try:
        table = alia.alia_table(args.type, args.orbit)
    except ValueError as exc:  # an orbit the type lacks, such as A1 subregular
        return _fail(f"error: {exc}")
    basis, records = [table.basis_name(i) for i in range(table.dim)], table.bracket_records()
    if args.format == "json":
        print(json.dumps({"type": args.type, "orbit": args.orbit, "basis": basis, "brackets": [
            {"x": x, "y": y, "target": target,
             "coeff": {"eps": int(eps) if eps.denominator == 1 else str(eps), "w4": w4, "w6": w6}}
            for x, y, target, eps, w4, w6 in records]}))
        return 0
    print(f"{args.type} {args.orbit}: basis {', '.join(basis)}")
    for x, y, target, eps, w4, w6 in records:
        factor = ("j" if w4 else "") + ("(j-1728)" if w6 else "")
        print(f"  [{x}, {y}] = {f'{eps} {factor}'.rstrip()} {target}")
    return 0


def cmd_hilbert(args):
    from . import vvmf

    group = {"Gamma1": "Gamma(1)", "Gamma(1)": "Gamma(1)",
             "Gamma2": "Gamma(2)", "Gamma(2)": "Gamma(2)"}.get(args.group)
    if group is None:
        return _fail(f"unsupported group {args.group!r} (Gamma1 or Gamma2)")
    weights = vvmf.hilbert_coeffs(vvmf.hilbert_vvmf(args.n, group), args.kmax)
    if args.format == "json":
        print(json.dumps({"n": args.n, "group": group, "weights": weights}))
    else:
        for k, d in weights:
            print(f"  weight {k:>3}: dim {d}")
    return 0


def cmd_eval(args):
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
        return _fail(f"error: {exc}")
    except NeedsCyclotomic as exc:
        return _fail(f"error: exact T-check unavailable for {form.name}: {exc}")
    except OverflowError:
        return _fail(f"error: {form.name} at tau = {tau} overflows a float")
    if args.check == "none":
        print(f"{form.name}({tau}) = {value}")
        return 0
    law = (f"|f(-1/tau) - tau^{form.weight} f(tau)|" if args.check == "S"
           else "|f(tau+1) - (T f)(tau)|")
    print(f"{form.name}: {law} = {residual:.3e}")
    return _fail(f"residual exceeds tolerance {args.tol}", 1) if residual > args.tol else 0


def cmd_verify(args):
    from . import checks

    try:
        report = checks.run_suite(args.suite, args.order)
    except KeyError:
        return _fail(f"unknown suite {args.suite!r}; choose from {', '.join(checks.SUITES)}, all")
    n_fail = sum(not ok for _, ok, *_ in report)
    if args.format == "json":
        print(json.dumps({"suite": args.suite, "order": args.order, "checks": [
            {"id": cid, "status": "pass" if ok else "fail", "detail": detail,
             "elapsed_ms": round(ms, 1)} for cid, ok, detail, ms in report]}))
    else:
        for cid, ok, detail, ms in report:
            print(f"[{'PASS' if ok else 'FAIL'}] {cid:<36} {ms:7.1f} ms  {detail}")
        print(f"-- {len(report)} checks, {n_fail} failures, order {args.order}, "
              f"{sum(ms for *_, ms in report) / 1e3:.1f} s total")
    return 1 if n_fail else 0


FORMAT = ("--format", ("text", "json"), "text", "text or json")
ORDER = ("--order", _int_at_least(1), None, "working truncation order (default 64 or MFAL_ORDER)")

#: command -> (help, positionals (name, type, default), options (flag, type, default, help)).
#: A tuple type lists the choices, and a default of ... makes the argument required.
#: main runs cmd_<command>, read from the module when it runs.
COMMANDS = {
    "expand": ("print the q-expansion of a named form", [("form", str, ...)], [ORDER, FORMAT]),
    "alia": ("emit a weight-zero bracket table over C[j]",
             [("type", ("A1", "A2", "B2", "G2"), ...), ("orbit", ("principal", "subregular"), ...)],
             [FORMAT]),
    "hilbert": ("weight dimensions of the Sym^n module",
                [("n", _int_at_least(0), ...), ("group", str, ...), ("kmax", int, ...)], [FORMAT]),
    "eval": ("evaluate a form numerically, optionally checking S or T", [("form", str, ...)],
             [ORDER,
              ("--tau", _parse_tau, ...,
               "point, e.g. 0.3+1.1i; write one with a leading minus as --tau=-0.5+1i"),
              ("--check", ("S", "T", "none"), "none", "the law to check, if any"),
              ("--tol", _positive_tolerance, 1e-8, "largest residual that passes")]),
    "verify": ("run a certification suite", [("suite", str, "all")], [ORDER, FORMAT]),
}
#: the entry of plain `mfal`, whose one argument is the command
TOP = ("Exact modular forms, quasimodular matrices and their Lie algebras\n\ncommands:\n"
       + "\n".join(f"  {name:<8} {COMMANDS[name][0]}" for name in COMMANDS),
       [("command", tuple(COMMANDS), ...)], [])


#: matches an argument that is a value rather than a flag: one that does not start
#: with "-", and "-", "-3" and "-.5"; "-0.5+1i" is a flag, so --tau needs "=" for it
_is_value = re.compile(r"[^-]|$|-(\d+|\d*\.\d+)?$").match


def _read(name, kind, text):
    """kind(text), or text if it is one of the choices a tuple kind lists."""
    try:
        if not isinstance(kind, tuple):
            return kind(text)
        if text in kind:
            return text
        raise UsageError(f"invalid choice: {text!r} (choose from {', '.join(kind)})")
    except ValueError as exc:
        why = exc if isinstance(exc, UsageError) else f"invalid value: {text!r}"
        raise UsageError(f"argument {name}: {why}")


def _word(name, kind, default, *_):
    """An argument as the usage line shows it: "form", "{A1,A2,B2,G2}", "[--tol TOL]"."""
    var = isinstance(kind, tuple) and f"{{{','.join(kind)}}}"
    word = f"{name} {var or name[2:].upper()}" if name[0] == "-" else var or name
    return word if default is ... else f"[{word}]"


def _parse(command, argv):
    """The arguments of cmd_<command> read from argv.  Prints the help and exits 0
    on -h or --help; prints the usage and the error and exits 2 on a usage error."""
    prog = f"mfal {command}".rstrip()
    text, positionals, options = COMMANDS.get(command, TOP)
    args = {arg[0]: arg for arg in options + positionals}
    values = {name.lstrip("-"): arg[2] for name, arg in args.items()}
    usage = f"usage: {prog} [-h] " + " ".join(_word(*arg) for arg in args.values())
    pending, extra = (name for name, *_ in positionals), []
    try:
        while argv:
            arg = argv.pop(0)
            name, eq, value = arg.partition("=")
            if arg in ("-h", "--help"):
                print(usage, "", text, "", *(f"  {flag}: {help}" for flag, *_, help in options),
                      sep="\n")
                sys.exit(0)
            if _is_value(arg):
                name, value = next(pending, None), arg
            elif not eq and name in args:
                if not (argv and _is_value(argv[0])):
                    raise UsageError(f"argument {name}: expected one argument")
                value = argv.pop(0)
            if name in args:
                values[name.lstrip("-")] = _read(name, args[name][1], value)
            else:
                extra.append(arg)
        if values.get("order", 0) is None:
            values["order"] = _read("--order (from MFAL_ORDER)", ORDER[1],
                                    os.environ.get("MFAL_ORDER") or "64")
        missing = [name for name in args if values[name.lstrip("-")] is ...]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    except UsageError as exc:
        sys.exit(_fail(f"{usage}\n{prog}: error: {exc}"))
    return SimpleNamespace(**values)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv.pop(0) if argv and argv[0] in COMMANDS else ""
    args = _parse(command, argv)  # before the lookup: plain `mfal` has no cmd_
    return globals()[f"cmd_{command}"](args)


if __name__ == "__main__":
    sys.exit(main())
