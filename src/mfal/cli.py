"""Command-line surface: expansions, tables, Hilbert series, verification.

Exit codes: 0 success, 1 failed verification, 2 usage error.  The working
order of expand, eval and verify is 64; override with --order or the
MFAL_ORDER environment variable.

Each subcommand imports the modules it runs, and the output of alia, hilbert,
eval and verify is rendered by the module behind the command, so a fresh
process pays to compile nothing it does not run.  ``import mfal.cli`` loads
no other mfal module (and no json or re), and:
  expand  modforms, qseries and poly, with congruence for F2, H2, phi1, phi2,
          mu and f_gamma5;
  alia    alia, liealg and poly: it prints the Chevalley table and the
          cocycles, with no ring Q[j] (jpoly, sparse) and no linalg;
  hilbert vvmf and the quasimodular ring it imports;
  eval    what expand loads, and numeric, the float laws;
  verify  checks and the modules of the suite (see ``mfal.checks``).

The command line is read from one table, ``COMMANDS``, by ``_parse``: it
drives parsing, usage errors and ``--help``, so ``import mfal.cli`` loads no
argparse (nor the gettext and locale modules argparse imports).  A value may
follow its option after a space or an ``=``.  An argument that starts with
"-" is a value only when it is "-" or a number such as -3 or -.5, so write a
point like -0.5+1i as ``--tau=-0.5+1i``.  Options are spelled in full: a
prefix such as ``--ord`` is not read as ``--order``.
"""

import math
import os
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
        import json

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
        sys.stdout.write(alia.render(args.type, args.orbit, args.format))
    except ValueError as exc:  # an orbit the type lacks, such as A1 subregular
        return _fail(f"error: {exc}")
    return 0


def cmd_hilbert(args):
    from . import vvmf

    try:
        sys.stdout.write(vvmf.hilbert_report(args.n, args.group, args.kmax, args.format))
    except ValueError as exc:
        return _fail(exc)
    return 0


def cmd_eval(args):
    from . import numeric

    form = _named_form(args)
    if form is None:
        return 2
    try:
        line, passed = numeric.evaluate(form, args.tau, args.check, args.tol)
    except ValueError as exc:  # tau below the real line, no such law, or an overflow
        return _fail(f"error: {exc}")
    print(line)
    return 0 if passed else _fail(f"residual exceeds tolerance {args.tol}", 1)


def cmd_verify(args):
    from . import checks

    try:
        text, failures = checks.report(args.suite, args.order, args.format)
    except ValueError as exc:  # an unknown suite
        return _fail(exc)
    sys.stdout.write(text)
    return 1 if failures else 0


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


def _is_value(arg):
    """Whether an argument is a value rather than a flag: one that does not start
    with "-", and "-", "-3", "-.5" and "-3.5"; "-0.5+1i" is a flag, so --tau
    needs "=" for it."""
    if not arg.startswith("-") or arg == "-":
        return True
    whole, point, frac = arg[1:].partition(".")
    return (whole + frac).isdecimal() and (frac != "" or not point)


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
