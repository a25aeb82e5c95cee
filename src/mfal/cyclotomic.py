"""The cyclotomic fields Q(zeta_n), n in {1, 3, 4, 5}, of the polyhedral pole
sets in ``mfal.loopext``.

A number keeps its coordinates in the power basis 1, zeta, ..., as int
numerators over one denominator, the layout of every exact ring of the
package; the field reduces products modulo the monic n-th cyclotomic
polynomial, so every coordinate stays an int.

A zero operand costs nothing: a sum with zero returns the other operand and
a product with zero returns the field's zero, both without arithmetic.  The
field check comes first, so an element of another field still raises
``ValueError`` when one side is zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .poly import Ring, lowest_terms, mul, numerators

#: the n-th cyclotomic polynomial, lowest degree first and monic
_CYCLOTOMIC = {
    1: (-1, 1),             # x - 1
    3: (1, 1, 1),           # x^2 + x + 1
    4: (1, 0, 1),           # x^2 + 1
    5: (1, 1, 1, 1, 1),     # x^4 + ... + 1
}


class CycloField:
    """Q(zeta_n) as Q[x] modulo the n-th cyclotomic polynomial."""

    def __init__(self, n: int):
        if n not in _CYCLOTOMIC:
            raise ValueError(f"unsupported cyclotomic order {n}")
        self.n = n
        self.modulus = _CYCLOTOMIC[n]
        self.degree = len(self.modulus) - 1
        self.zero = self.element([])
        self.one = self.element([1])

    def element(self, coeffs) -> "CycloNumber":
        """sum c_i zeta^i for rationals c_i (int, Fraction or str); ints go
        to ``_make`` as they are."""
        cs = list(coeffs)
        if all(type(c) is int for c in cs):
            return self._make(cs, 1)
        return self._make(*numerators(cs))

    def _reduce(self, nums: list) -> list:
        """The int list nums (any length) reduced in place modulo the monic
        cyclotomic polynomial: one int per power of zeta below the degree."""
        mod, deg = self.modulus, self.degree
        while len(nums) > deg:
            top = nums.pop()
            if top:
                for i in range(deg):
                    nums[len(nums) - deg + i] -= top * mod[i]
        nums += [0] * (deg - len(nums))
        return nums

    def _make(self, nums: list, den: int) -> "CycloNumber":
        """The canonical number of the int list nums (any length) over den."""
        return CycloNumber(self, *lowest_terms(tuple(self._reduce(nums)), den))

    @property
    def zeta(self):
        if self.degree == 1:
            return self.one  # zeta_1 = 1
        return self.element([0, 1])

    def rational(self, c):
        return self.element([c])

    def __repr__(self):
        return f"CycloField(zeta_{self.n})"


class CycloNumber(Ring):
    """An element of a CycloField: int numerators over one denominator.

    ``nums[i] / den`` is the coordinate at zeta^i, i < degree.  Every number
    is canonical, den > 0 and gcd(den, *nums) == 1 (``poly.lowest_terms``),
    so equal numbers have equal ``key`` = (nums, den), which hashes ints
    (``loopext.RatFunc`` keys its poles by it).  ``coeffs`` reads the
    coordinates as Fractions.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CycloField, nums: tuple, den: int):
        self.field, self.nums, self.den = field, nums, den

    @property
    def key(self) -> tuple:
        return self.nums, self.den

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def _check_field(self, other):
        if other.field.n != self.field.n:  # zeta_3 and zeta_4 are both (0, 1)
            raise ValueError(f"{other.field} element in {self.field} arithmetic")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return (isinstance(other, CycloNumber) and self.field.n == other.field.n
                and self.key == other.key)

    def __add__(self, other):
        if isinstance(other, CycloNumber):
            self._check_field(other)
        elif isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        else:
            return NotImplemented
        if not any(other.nums):
            return self
        if not any(self.nums):
            return other
        da, db = self.den, other.den
        if da == db:
            nums = tuple(a + b for a, b in zip(self.nums, other.nums))
        else:
            nums = tuple(a * db + b * da for a, b in zip(self.nums, other.nums))
            da *= db
        return CycloNumber(self.field, *lowest_terms(nums, da))

    def __mul__(self, other):
        if isinstance(other, CycloNumber):
            self._check_field(other)
            if not (any(self.nums) and any(other.nums)):
                return self.field.zero
            return self.field._make(mul(self.nums, other.nums, 0), self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not (other and any(self.nums)):
            return self.field.zero
        p = other.numerator
        return CycloNumber(self.field, *lowest_terms(tuple(a * p for a in self.nums),
                                                     self.den * other.denominator))

    def inverse(self) -> "CycloNumber":
        """The product c of the other Galois conjugates sigma_k(x), zeta ->
        zeta^k for k prime to n, over the norm x c, a rational.  On the
        numerators a = x den: x^-1 = C den / N for C the conjugates of a
        multiplied out and N = a C, both ints."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        field, n = self.field, self.field.n
        conj = [1]
        for k in range(2, n):
            if gcd(k, n) == 1:
                image = [0] * n
                for i, c in enumerate(self.nums):
                    image[i * k % n] = c
                conj = field._reduce(mul(conj, field._reduce(image), 0))
        norm = field._reduce(mul(self.nums, conj, 0))[0]
        return field._make([c * self.den for c in conj], norm)

    def __repr__(self):
        names = {1: "1", 3: "w", 4: "i", 5: "z"}
        sym = names[self.field.n]
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = sym if i == 1 else f"{sym}^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"
