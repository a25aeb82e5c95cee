"""The intertwining operator Phi_n and Hilbert series of its module.

Phi_n = exp(tau*E) exp((2*pi*i*E2/12) F) as an exact matrix over the
quasimodular ring, its two triangular factors written in closed form by
``sl2.unipotents``; the d(tau)^{k/2} grading factor never enters the matrix,
it is carried as a per-column weight and turned into the factors tau^{-k} of
the S law, proved by exact substitution (``s_law``).
"""

from fractions import Fraction
from functools import cached_property

from . import sl2
from .poly import monomial_count
from .quasimodular import TAU, QuasiMatrix, QuasiPoly


class PhiOperator:
    """Intertwiner for Sym^n, with the grading carried as column weights."""

    def __init__(self, n: int):
        self.n = n
        # y = 2*pi*i*E2/12 = P/(12 s)
        y = QuasiPoly.monomial((0, 1, 0, 0, -1), Fraction(1, 12))
        self.factors = tuple(map(QuasiMatrix, sl2.unipotents(n, TAU, y)))
        self.weights = sl2.SymRep(n).weights()

    @cached_property
    def matrix(self) -> QuasiMatrix:
        """Built on first read: ``vvmf.phi_det`` reads only the factors."""
        return self.factors[0] * self.factors[1]

    def determinant(self) -> QuasiPoly:
        return self.matrix.det()


_PHI_CACHE: dict[int, PhiOperator] = {}


def phi(n: int) -> PhiOperator:
    """Phi_n, built once per process: its readers only read it."""
    if n not in _PHI_CACHE:
        _PHI_CACHE[n] = PhiOperator(n)
    return _PHI_CACHE[n]


def rho_matrix(n: int, gamma) -> list:
    """Sym^n of an integer 2x2 matrix, as ints."""
    return sl2.sym_power_matrix(n, gamma)


T_GAMMA = ((1, 1), (0, 1))
S_GAMMA = ((0, -1), (1, 0))


def s_law(n: int) -> tuple:
    """Both sides of Phi_n(-1/tau) diag(tau^{-k_j}) = rho_n(S) Phi_n(tau),
    times tau^{2n} so that every entry is a polynomial: entry (i, j) of the
    left side is tau^{2n-k_j} sigma(Phi_n)_ij, sigma the S substitution
    ``QuasiPoly.apply_S``."""
    op = phi(n)
    lhs = QuasiMatrix([[e.apply_S(2 * n - k) for e, k in zip(row, op.weights)]
                       for row in op.matrix.rows])
    rhs = QuasiMatrix(rho_matrix(n, S_GAMMA)) * op.matrix
    return lhs, rhs.scale(TAU ** (2 * n))


# ----------------------------------------------------------------------
# Hilbert series
# ----------------------------------------------------------------------

class HilbertSeries:
    """numerator(t) / prod (1 - t^d), numerator a Laurent polynomial."""

    def __init__(self, numerator: dict, denominators: tuple):
        self.numerator = {k: v for k, v in numerator.items() if v}
        self.denominators = tuple(denominators)

    def coefficients(self, k_max: int) -> dict:
        """All coefficients for exponents <= k_max."""
        low = min(self.numerator, default=0)
        series = dict(self.numerator)
        for d in self.denominators:
            # multiply by 1/(1 - t^d) = sum t^{d m}
            out: dict[int, int] = {}
            for e, c in series.items():
                m = e
                while m <= k_max:
                    out[m] = out.get(m, 0) + c
                    m += d
            series = out
        return {e: c for e, c in series.items() if low <= e <= k_max and c}

    def coefficient(self, k: int) -> int:
        return self.coefficients(k).get(k, 0)


GROUP_RING_DEGREES = {
    # weights of a free generating set of the holomorphic forms
    "Gamma(1)": (4, 6),
    "Gamma(2)": (2, 2),
}


def hilbert_scalar(group: str) -> HilbertSeries:
    if group not in GROUP_RING_DEGREES:
        raise ValueError(f"no Hilbert series encoded for {group!r}")
    return HilbertSeries({0: 1}, GROUP_RING_DEGREES[group])


def hilbert_vvmf(n: int, group: str) -> HilbertSeries:
    """(t^-n + t^{-n+2} + ... + t^n) * H(scalar forms)."""
    base = hilbert_scalar(group)
    numerator = {}
    for k in range(-n, n + 1, 2):
        numerator[k] = numerator.get(k, 0) + 1
    return HilbertSeries(numerator, base.denominators)


def hilbert_coeffs(h: HilbertSeries, k_max: int) -> list:
    coeffs = h.coefficients(k_max)
    low = min(coeffs, default=0)
    return [(k, coeffs.get(k, 0)) for k in range(low, k_max + 1)]


#: the spellings of the groups `mfal hilbert` reads, Gamma(N) and GammaN
GROUP_NAMES = {name: group for group in GROUP_RING_DEGREES
               for name in (group, group.replace("(", "").replace(")", ""))}


def hilbert_report(n: int, group: str, k_max: int, fmt: str) -> str:
    """What `mfal hilbert` prints: the weight dimensions up to `k_max` of the
    Sym^n module over `group`, as text or as JSON ("json").  Raises
    ValueError for a group whose Hilbert series is not encoded."""
    name = GROUP_NAMES.get(group)
    if name is None:
        short = " or ".join(spelling for spelling in GROUP_NAMES if "(" not in spelling)
        raise ValueError(f"unsupported group {group!r} ({short})")
    weights = hilbert_coeffs(hilbert_vvmf(n, name), k_max)
    if fmt == "json":
        import json

        return json.dumps({"n": n, "group": name, "weights": weights}) + "\n"
    return "".join(f"  weight {k:>3}: dim {d}\n" for k, d in weights)


def brute_force_vvmf_dim(n: int, k: int, degrees=(4, 6)) -> int:
    """dim of weight-k piece by summing shifted monomial counts."""
    return sum(monomial_count(k + n - 2 * i, degrees) for i in range(n + 1))
