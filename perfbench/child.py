"""Run one benchmark operation in this fresh process.

    python3 perfbench/child.py REPORT TRACE KIND [ARGS...]

KIND is one of
    import        import mfal.cli and exit: the set-up probe;
    cli ARGV...   mfal.cli.main(ARGV), which is what the `mfal` command runs;
    lib NAME ...  one library operation from LIBRARY_OPS, checked exactly here.

REPORT receives one JSON object: whether the library check held, and the
process's own peak resident set size (VmHWM).  The peak is read here because
the rusage that wait4 returns for a child spawned with vfork also counts the
resident set of the spawning process at exec time.

With TRACE=1 the tracer wraps mfal's public functions after the import and
before the operation, and writes the spans to REPORT.spans at exit.
"""

import json
import os
import random
import sys
from fractions import Fraction


def phi_det(n):
    """det Phi_n == 1 exactly."""
    from mfal import vvmf

    return vvmf.phi(int(n)).determinant() == 1


def phi_inverse(n):
    """Phi_n^-1 * Phi_n is the identity exactly."""
    from mfal import vvmf
    from mfal.quasimodular import QuasiMatrix

    m = vvmf.phi(int(n)).matrix
    return m.inverse() * m == QuasiMatrix.identity(m.size)


POLYHEDRAL = ("dihedral", "tetrahedral", "octahedral", "icosahedral")


def ratfunc_residues(seed, n_terms):
    """Residues of seeded sums of pole factors and polynomials are linear.

    For every polyhedral preset, sum n_terms terms c*(t-a)^-p and polynomials,
    then compare the residue of the sum with the sum of the residues at
    every preset point.  The terms' shapes are fixed, so every seed costs the
    same; the seed picks the points and the coefficients.
    """
    from mfal import loopext
    from mfal.loopext import RatFunc

    rng = random.Random(int(seed))
    for preset in POLYHEDRAL:
        field, points = loopext.pole_preset(preset)
        terms = []
        for i in range(int(n_terms)):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            if i % 4 == 3:
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
                terms.append(RatFunc.polynomial(field, coeffs) * c)
            else:
                terms.append(RatFunc.pole_factor(field, rng.choice(points), 1 + i % 2) * c)
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        for a in points:
            expected = field.zero
            for t in terms:
                expected = expected + loopext.residue(t, a)
            if not (loopext.residue(total, a) - expected).is_zero():
                return False
    return True


LIBRARY_OPS = {
    "phi_det": phi_det,
    "phi_inverse": phi_inverse,
    "ratfunc_residues": ratfunc_residues,
}


def _peak_rss_kb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    report_path, trace, kind, *args = argv
    import mfal.cli  # every operation pays this import, as the `mfal` command does

    recorder = None
    if trace == "1":
        import tracer

        recorder = tracer.install(os.path.basename(report_path))
    code, ok = 0, None
    try:
        if kind == "cli":
            try:
                code = mfal.cli.main(args)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
        elif kind == "lib":
            ok = bool(LIBRARY_OPS[args[0]](*args[1:]))
            code = 0 if ok else 1
        elif kind != "import":
            raise ValueError(f"unknown operation kind {kind!r}")
    finally:
        sys.stdout.flush()
        if recorder is not None:
            recorder.write(report_path + ".spans")
        with open(report_path, "w") as fh:
            json.dump({"ok": ok, "peak_rss_kb": _peak_rss_kb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
