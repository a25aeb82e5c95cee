"""The `theta` suite of `mfal verify`: the theta constants, Gamma(2) and the
Hauptmodul lambda.

It imports only the q-series half: `modforms`, `congruence`, `numeric` and
`qseries`.
"""

from fractions import Fraction

from . import congruence, numeric
from .modforms import series


def _thetas(order):
    return (series(f"theta{i}", order) for i in (2, 3, 4))


def _jacobi(order):
    t2, t3, t4 = _thetas(order)
    yield "theta2^4 + theta4^4 = theta3^4", t2**4 + t4**4, t3**4


def _theta_delta(order):
    t2, t3, t4 = _thetas(order)
    yield ("theta2^8 theta3^8 theta4^8 = 256 Delta",
           t2**8 * t3**8 * t4**8, series("Delta", order).scale(256))


def _gamma2_combinations(order):
    """The theta fourth powers, which vanish at single cusps, from F2 and H2."""
    f2, h2 = (form.series for form in congruence.gamma2_generators(order))
    for i, a, b, name in ((2, Fraction(-2, 3), Fraction(2, 3), "(2 H2 - 2 F2)/3"),
                          (3, Fraction(2, 3), Fraction(1, 3), "(2 F2 + H2)/3"),
                          (4, Fraction(4, 3), Fraction(-1, 3), "(4 F2 - H2)/3")):
        yield (f"theta{i}^4 = {name}",
               f2.scale(a) + h2.scale(b), series(f"theta{i}", order) ** 4)


def _lambda_j(order):
    lam, j = series("lambda", order), series("j", order)
    yield ("j lambda^2 (lambda-1)^2 = 256 (lambda^2-lambda+1)^3",
           j * (lam**2) * ((lam - 1) ** 2), ((lam**2 - lam + 1) ** 3).scale(256))


def _lambda_shift(order):
    """The left side is the exact half-integral shift."""
    lam = series("lambda", order)
    yield "lambda(tau+1) = lambda/(lambda-1)", lam.shift_tau(), lam / (lam - 1)


def _transformation_laws(order):
    for tau in (1j, 0.3 + 1.1j):
        err = numeric.theta_transformation_residual(tau, order)
        yield f"T and S laws: residual {err:.1e} < 1e-8 at tau={tau}", err < 1e-8, True


IDENTITIES = {
    "theta.jacobi_identity": ("theta2^4 + theta4^4 = theta3^4", _jacobi),
    "theta.delta_product": ("theta products give 256 Delta", _theta_delta),
    "theta.gamma2_combinations": (
        "F2/H2 combinations match the theta lattice sums", _gamma2_combinations),
    "theta.lambda_j": ("j lambda^2 (lambda-1)^2 = 256 (lambda^2-lambda+1)^3", _lambda_j),
    "theta.lambda_shift": ("lambda(tau+1) = lambda/(lambda-1)", _lambda_shift),
    "theta.transformation_laws": (
        "T and S laws on theta constants, residual < 1e-8 at 2 points", _transformation_laws),
}
