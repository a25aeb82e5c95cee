"""One polynomial kernel over any ring of the ``mfal.linalg`` protocol.

Two shapes share it:

* dense: a list of coefficients, lowest degree first, used by the
  polynomial and principal parts of ``RatFunc`` (CycloNumbers); ``trim``
  drops trailing zeros;
* sparse: a dict exponent -> nonzero coefficient, used by bracket vectors
  and by ``mfal.sparse.Sparse``, the one polynomial ring over Q behind
  ``QuasiPoly``, ``loopext.Laurent``, ``alia.JPoly`` and
  ``cyclotomic.CycloNumber``; ``add_term`` drops every entry that cancels.

Every exact ring over Q keeps int numerators over one denominator:
``QSeries`` and ``Sparse`` read rational input into that layout through
``numerators`` and build each result through ``lowest_terms``, its one
canonical step.

``power`` is the one repeated-squaring loop of the package, ``_to_frac``
reads one exact rational as a Fraction, and ``Ring`` writes the protocol's
derived operations once for every coefficient ring of the package.  The
product of dense integer lists behind every q-series product,
``kronecker_mul``, lives with its only caller in ``mfal.qseries``.
"""

from fractions import Fraction
from math import gcd, lcm


def _to_frac(x) -> Fraction:
    """x as a Fraction; x is a Fraction, an int or a str."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def numerators(values) -> tuple[list, int]:
    """The exact rationals ``values`` (ints, Fractions or strs) as a list of
    int numerators over their least common denominator.  Each Fraction is in
    lowest terms, so the pair is canonical in the sense of ``lowest_terms``."""
    cs = [c if isinstance(c, int) else _to_frac(c) for c in values]
    # star-args from a list, not a generator: CPython 3.11 keeps the tuple
    # built from each generator alive on its free list (seen with tracemalloc)
    den = lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def lowest_terms(nums, den: int):
    """(nums, den) with den > 0 and gcd(den, *nums) == 1, so den == 1 when
    every numerator is 0: the one canonical layout of int numerators over one
    nonzero int denominator.  ``nums`` is a list or tuple of ints, or a dict
    of int values; it is returned as it is when already canonical, and
    otherwise rebuilt as the same type."""
    if den == 1:
        return nums, den
    g = gcd(den, *(nums.values() if isinstance(nums, dict) else nums))
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    if isinstance(nums, dict):
        return {k: c // g for k, c in nums.items()}, den // g
    return type(nums)([c // g for c in nums]), den // g


def monomial_count(k: int, degrees=(4, 6)) -> int:
    """Number of monomials of weight k in free generators of given weights."""
    if k < 0:
        return 0
    d1, d2 = degrees
    return sum(1 for a in range(k // d1 + 1) if (k - a * d1) % d2 == 0)


def trim(p):
    """Drop p's trailing zeros in place; returns p."""
    while p and not p[-1]:
        p.pop()
    return p


def add(a, b):
    """Dense a + b, not trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return out


def mul(a, b, zero):
    """Dense a * b, skipping zero coefficients; [] when a factor is empty."""
    out = [zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                if y:
                    out[i + k] = out[i + k] + x * y
    return out


def horner(p, x, zero):
    """The dense polynomial p evaluated at x."""
    acc = zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def add_term(out: dict, k, v) -> None:
    """out[k] += v, dropping the entry when the sum is zero."""
    if k in out:
        v = out[k] + v
    if v:
        out[k] = v
    else:
        out.pop(k, None)


def power(x, n: int, one):
    """x**n for n >= 0 by repeated squaring; ``one`` is returned for n == 0.

    The product starts from x itself, never from ``one``, so a factor that
    carries its own precision (a truncated QSeries) loses none to the seed.
    """
    if n < 0:
        raise ValueError(f"negative power {n}")
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return one if result is None else result


class Ring:
    """The ``mfal.linalg`` protocol from ``+``, ``*`` and a truth value.

    A subclass defines ``__add__`` and ``__mul__`` (both also with an int or
    a ``Fraction``, which ``*`` treats as a scalar and ``+`` as a constant)
    and ``__bool__``, false exactly at zero; a ring with inverses adds
    ``inverse``.  Everything else is derived here: ``-x`` is ``x * -1``, the
    one is ``x * 0 + 1``, and a scalar divisor c multiplies by ``1/c``.
    """

    __slots__ = ()
    __hash__ = None

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def is_zero(self) -> bool:
        return not self

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        return power(self, n, None) if n else self * 0 + 1

    def inverse(self):
        raise ValueError(f"{type(self).__name__} has no general inverse")
