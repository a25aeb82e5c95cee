"""The ring Q[j] of the weight-zero bracket tables, as ``mfal.cyclotomic`` is
the fields Q(zeta_n) of the polyhedral pole sets.

Only what builds or reads a table over Q[j] imports this module:
``alia.AliaTable`` when it builds, and the rows of `mfal verify` that
bracket in a table.  `mfal alia` prints from the Chevalley table and the
cocycles, so it compiles neither this module nor ``sparse``.
"""

from fractions import Fraction
from math import comb

from .poly import horner
from .sparse import Sparse


class JPoly(Sparse):
    """A polynomial in j over Q: a ``sparse.Sparse`` whose exponent is the
    power of j.

    ``JPoly(coeffs)`` reads dense coefficients, lowest degree first, and
    ``coeffs`` reads them back as Fractions up to the degree.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(dict(enumerate(coeffs)))

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(self.nums.get(i, 0), self.den) for i in range(self.degree() + 1))

    @classmethod
    def j_power_form(cls, w4: int, w6: int):
        """j^w4 (j - 1728)^w6, by the binomial theorem."""
        return cls._make({w4 + k: comb(w6, k) * (-1728) ** (w6 - k) for k in range(w6 + 1)}, 1)

    def degree(self):
        return max(self.nums, default=-1)

    def __call__(self, value):
        return horner(self.coeffs, Fraction(value), Fraction(0))

    def pretty(self):
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "j" if i == 1 else f"j^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(reversed(parts)).replace("+ -", "- ")

    def __repr__(self):
        return f"JPoly({self.pretty()})"
