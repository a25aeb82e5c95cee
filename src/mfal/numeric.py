"""Floats: q-series summed at a point tau, and the laws checked there.

Everything else in the package is exact.  Here a truncated series is summed
at q = exp(2*pi*i*tau) (`eval_numeric`), the S law of a level-one form and
the theta T and S laws are measured as float residuals, and `evaluate` is the
body of `mfal eval`.  Only `mfal eval` and the float rows of `mfal verify`
import this module, and with it `cmath`.
"""

import cmath

from .modforms import DEFAULT_ORDER, NamedForm, Unsupported, named_form
from .qseries import NeedsCyclotomic, QSeries


class NotConvergent(ValueError):
    """Numeric evaluation requested outside the upper half-plane."""


def eval_numeric(series: QSeries, tau: complex) -> complex:
    """Sum the stored terms of `series` at q = exp(2*pi*i*tau), Im(tau) > 0."""
    if tau.imag <= 0:
        raise NotConvergent(f"Im(tau) = {tau.imag} is not positive")
    total = 0j
    two_pi_i = 2j * cmath.pi
    for e, c in series.items():
        total += complex(c) * cmath.exp(two_pi_i * float(e) * tau)
    return total


def s_law_residual(form: NamedForm, tau: complex) -> float:
    """|f(-1/tau) - tau^k f(tau)| at `tau`, E2 carrying its anomaly 12 tau/(2 pi i).

    Raises Unsupported unless `form` has integer weight k on Gamma(1).
    """
    k = form.weight
    if form.group != "Gamma(1)" or k.denominator != 1:
        raise Unsupported(f"no S law known for {form.name} (weight {k}, {form.group}): "
                          "f(-1/tau) = tau^k f(tau) is applied only to integer weight on Gamma(1)")
    series = form.series
    expected = tau ** int(k) * eval_numeric(series, tau)
    if form.name == "E2":
        expected += 12 * tau / (2j * cmath.pi)
    return abs(eval_numeric(series, -1 / tau) - expected)


def theta_transformation_residual(tau: complex, order=DEFAULT_ORDER) -> float:
    """Numeric check of the theta T and S laws; returns the max residual.

    T: (theta2, theta3, theta4)(tau+1) = (zeta8 theta2, theta4, theta3)(tau);
    S: theta(-1/tau) = zeta8^-1 tau^(1/2) (theta4, theta3, theta2)(tau).
    Eighth roots of unity keep these outside the exact shift machinery.
    """
    thetas = {i: named_form(f"theta{i}", order).series for i in (2, 3, 4)}
    zeta8 = cmath.exp(2j * cmath.pi / 8)
    vals = {i: eval_numeric(s, tau) for i, s in thetas.items()}
    shifted = {i: eval_numeric(s, tau + 1) for i, s in thetas.items()}
    imaged = {i: eval_numeric(s, -1 / tau) for i, s in thetas.items()}
    root = cmath.sqrt(tau) / zeta8
    return max(
        abs(shifted[2] - zeta8 * vals[2]),
        abs(shifted[3] - vals[4]),
        abs(shifted[4] - vals[3]),
        abs(imaged[2] - root * vals[4]),
        abs(imaged[3] - root * vals[3]),
        abs(imaged[4] - root * vals[2]),
    )


def evaluate(form: NamedForm, tau: complex, check: str, tol: float):
    """`mfal eval`: the line it prints for `form` at `tau` and whether the law
    `check` ("S", "T" or "none") holds there within `tol`.

    Raises ValueError, with the message `mfal eval` prints, when `tau` is
    not in the upper half-plane, `form` has no such law, the T law needs roots
    of unity or a value overflows a float.
    """
    series = form.series
    try:
        value = eval_numeric(series, tau)
        if check == "S":
            residual = s_law_residual(form, tau)
        elif check == "T":
            residual = abs(eval_numeric(series, tau + 1)
                           - eval_numeric(series.shift_tau(), tau))
    except NeedsCyclotomic as exc:
        raise ValueError(f"exact T-check unavailable for {form.name}: {exc}") from None
    except OverflowError:
        raise ValueError(f"{form.name} at tau = {tau} overflows a float") from None
    if check == "none":
        return f"{form.name}({tau}) = {value}", True
    law = (f"|f(-1/tau) - tau^{form.weight} f(tau)|" if check == "S"
           else "|f(tau+1) - (T f)(tau)|")
    return f"{form.name}: {law} = {residual:.3e}", not residual > tol
