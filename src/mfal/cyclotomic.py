"""The cyclotomic fields Q(zeta_n), n in {1, 3, 4, 5}, of the polyhedral pole
sets in ``mfal.loopext``.

A number is a ``sparse.Sparse`` whose int key is the power of zeta, below
the field's degree, as ``loopext.Laurent`` is one in z and ``jpoly.JPoly``
one in j.  A product is ``Sparse.dot`` reduced once modulo the monic n-th
cyclotomic polynomial, so every coordinate stays an int.

Each field is its own subclass of ``CycloNumber``, made once per n by
``CycloField``, so Sparse's same-class test is the same-field test: numbers
of two fields raise ``ValueError`` when added or multiplied, even when one
of them is zero.
"""

from fractions import Fraction
from functools import cache
from math import gcd

from .poly import numerators
from .sparse import Sparse, _nonzero

#: n -> (the degree phi(n), {r: zeta^r as {power below the degree: int}}
#: for each r from the degree up to n), read off the monic n-th cyclotomic
#: polynomial, so every coordinate of a reduced product stays an int;
#: zeta^n = 1 brings any power below n
_FIELDS = {
    1: (1, {}),                                         # x - 1: zeta = 1
    3: (2, {2: {0: -1, 1: -1}}),                        # x^2 + x + 1
    4: (2, {2: {0: -1}, 3: {1: -1}}),                   # x^2 + 1
    5: (4, {4: {0: -1, 1: -1, 2: -1, 3: -1}}),          # x^4 + ... + x + 1
}


class CycloNumber(Sparse):
    """An element of Q(zeta_n): ``nums`` maps each power of zeta below the
    field's degree to its nonzero int numerator over ``den``.

    The class of a number is its field (``CycloField``), which carries
    ``n``, ``degree``, ``high_powers``, ``zero``, ``one``, ``zeta`` and
    ``rational`` (``Sparse.const``); ``x.field`` is that class.  ``key``,
    the numerators as a frozenset of items and ``den``, is canonical and
    hashable (``loopext.RatFunc`` keys its poles by it); ``coeffs`` reads
    the coordinates as Fractions, one per power of zeta below the degree.
    """

    __slots__ = ()

    # rebound here so that wrapping this attribute (as the per-layer
    # benchmark trace does) sees only field products
    __mul__ = Sparse.__mul__

    @classmethod
    def element(cls, coeffs) -> "CycloNumber":
        """sum c_i zeta^i for rationals c_i (int, Fraction or str), as many
        as wanted: the field reduces them."""
        nums, den = numerators(coeffs)
        return cls._reduce(dict(enumerate(nums)), den)

    @classmethod
    def _reduce(cls, nums: dict, den: int) -> "CycloNumber":
        """The canonical number nums / den for ``nums`` mapping any ints >= 0
        to ints: each power of zeta is taken modulo n, and one from the
        degree up is replaced by its coordinates."""
        n, deg, high = cls.n, cls.degree, cls.high_powers
        out = {}
        for k, c in nums.items():
            k %= n
            if k < deg:
                out[k] = out.get(k, 0) + c
            else:
                for i, m in high[k].items():
                    out[i] = out.get(i, 0) + c * m
        return cls._make(_nonzero(out), den)

    @classmethod
    def dot(cls, pairs):
        """``Sparse.dot`` reduced modulo the cyclotomic polynomial."""
        p = super().dot(pairs)
        return cls._reduce(p.nums, p.den) if p.nums and max(p.nums) >= cls.degree else p

    @property
    def key(self) -> tuple:
        return frozenset(self.nums.items()), self.den

    @property
    def coeffs(self) -> tuple:
        get = self.nums.get
        return tuple([Fraction(get(i, 0), self.den) for i in range(self.degree)])

    def inverse(self) -> "CycloNumber":
        """The product c of the other Galois conjugates sigma_k(x), zeta ->
        zeta^k for k prime to n, over the norm x c, a rational.  The
        conjugates are taken of the numerators, so c has den 1, and x c =
        u / v gives x^-1 = c v / u."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        n, conj = self.n, None
        for k in range(2, n):
            if gcd(k, n) == 1:
                image = self._reduce({i * k % n: c for i, c in self.nums.items()}, 1)
                conj = image if conj is None else self.dot(((conj, image),))
        if conj is None:  # Q(zeta_1) = Q
            conj = self.one
        norm = self.dot(((self, conj),))
        return self._make({i: c * norm.den for i, c in conj.nums.items()}, norm.nums[0])

    def __repr__(self):
        sym = {1: "1", 3: "w", 4: "i", 5: "z"}[self.n]
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


@cache
def CycloField(n: int) -> type[CycloNumber]:
    """Q(zeta_n) as Q[x] modulo the n-th cyclotomic polynomial: the one
    ``CycloNumber`` subclass of the field, however often it is asked for."""
    if n not in _FIELDS:
        raise ValueError(f"unsupported cyclotomic order {n}")
    degree, high_powers = _FIELDS[n]
    field = type(f"Q(zeta_{n})", (CycloNumber,),
                 {"__slots__": (), "n": n, "degree": degree, "high_powers": high_powers})
    field.field, field.rational = field, field.const
    field.zero, field.one = field._make({}, 1), field._make({0: 1}, 1)
    field.zeta = field.element([0, 1])  # zeta_1 = 1
    return field
