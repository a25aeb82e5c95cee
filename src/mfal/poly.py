"""One polynomial kernel over any ring of the ``mfal.linalg`` protocol.

Two shapes share it:

* dense: a list (or tuple) of coefficients, lowest degree first, used by
  ``JPoly`` and ``CycloNumber`` (int numerators over one denominator) and
  ``RatFunc`` (CycloNumbers); ``trim`` drops trailing zeros;
* sparse: a dict exponent -> nonzero coefficient, used by ``QuasiPoly``
  (5-tuple exponents, int numerators over one denominator),
  ``loopext.Laurent`` (int exponents) and bracket vectors; sums drop every
  entry that cancels.

Every exact ring over Q but ``loopext.Laurent``, which holds Fraction
coefficients, keeps int numerators over one denominator, and
``lowest_terms`` is its one canonical step: ``QSeries``, ``QuasiPoly``,
``JPoly`` and ``CycloNumber`` build each result through it.

``power`` is the one repeated-squaring loop of the package, and
``kronecker_mul`` the one product of dense integer lists (the q-series
kernel), packed in base 2**w for CPython's Karatsuba or, once the operands
are big, in base 10**w for libmpdec's number-theoretic transform.  ``Ring``
writes the protocol's derived operations once for every coefficient ring of
the package.
"""

from __future__ import annotations

import decimal
import operator
import sys
from fractions import Fraction
from math import gcd

#: Bits in the smaller packed operand above which ``kronecker_mul`` packs in
#: decimal: libmpdec multiplies big numbers in quasi-linear time, where
#: CPython's ints use Karatsuba (README, "Big products", has the timings).
DECIMAL_BITS = 1 << 17

#: Exact integer arithmetic in decimal: no product of ints is ever rounded.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


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


def sparse_add(a: dict, b: dict) -> dict:
    """Sparse a + b."""
    out = dict(a)
    for k, v in b.items():
        add_term(out, k, v)
    return out


def sparse_mul(a: dict, b: dict, combine=operator.add) -> dict:
    """Sparse a * b; ``combine`` adds two exponents (int + by default)."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            add_term(out, combine(ka, kb), va * vb)
    return out


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


def kronecker_mul(a, b, n: int):
    """The first n coefficients of the product of the int lists a and b.

    Kronecker substitution: each list is packed into one int, one slot of
    w bits per coefficient, the two ints are multiplied once and the
    product is cut back into slots.  A slot holds its coefficient plus
    2**(w-1), so no slot borrows from its neighbour; w fits
    n * max|a| * max|b| plus that sign bit, the largest coefficient the
    first n slots can hold.  When the smaller packed operand has more than
    ``DECIMAL_BITS`` bits the same product is taken in base 10**w
    (``_decimal_mul``).
    """
    if n <= 0:
        return []
    a, b = a[:n], b[:n]
    top = max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not top:
        return [0] * n
    short = min(len(a), len(b))
    bound = top * short
    width = bound.bit_length() // 8 + 1
    if 8 * width * short > DECIMAL_BITS:
        # 10**(places - 1) > 2**bits > bound, as 0.30103 > log10(2)
        places = bound.bit_length() * 30103 // 100000 + 2
        # slots are written and read with str() and int(), which refuse
        # more digits than the interpreter's limit (0, or before Python
        # 3.10.7, none)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or places <= limit:
            return _decimal_mul(a, b, n, places)
    half = 1 << (8 * width - 1)

    def pack(cs):
        digits = b"".join((c + half).to_bytes(width, "little") for c in cs)
        return int.from_bytes(digits, "little") - _bias(width, len(cs))

    product = (pack(a) * pack(b) + _bias(width, n)) & ((1 << (8 * width * n)) - 1)
    digits = product.to_bytes(width * n, "little")
    return [
        int.from_bytes(digits[i:i + width], "little") - half
        for i in range(0, width * n, width)
    ]


def _bias(width: int, n: int) -> int:
    """2**(8*width - 1) in each of n slots of 8*width bits."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * n, "little")


def _decimal_mul(a, b, n: int, w: int):
    """``kronecker_mul`` of nonempty lists a, b (at most n long) in base 10**w.

    With h = 10**w / 2, the largest |coefficient| of a, b and of the product
    a*b is below h.  A list packs as its slots' digits, slot i holding
    c_i + h in [0, 10**w), minus h in every slot: the exact number
    sum c_i 10**(w*i).  The product P = sum p_k 10**(w*k) has len(a) +
    len(b) - 1 slots, each |p_k| < h, so P plus h in each of
    s = max(n, len(a) + len(b) - 1) slots is sum (p_k + h) 10**(w*k), every
    term in [0, 10**w): no slot borrows from its neighbour, the sum is not
    negative, and its last w*n digits are the first n slots plus h.  This
    is the binary argument in base 10, with the bias laid over every slot
    of the product instead of a wrap below 10**(w*n).
    """
    half = 5 * 10 ** (w - 1)
    fill = "5" + "0" * (w - 1)

    def pack(cs):
        text = "".join([f"{c + half:0{w}d}" for c in reversed(cs)])
        return _EXACT.subtract(decimal.Decimal(text), decimal.Decimal(fill * len(cs)))

    slots = max(n, len(a) + len(b) - 1)
    product = _EXACT.add(_EXACT.multiply(pack(a), pack(b)), decimal.Decimal(fill * slots))
    text = str(product)[-w * n:].rjust(w * n, "0")
    return [int(text[i - w:i]) - half for i in range(w * n, 0, -w)]
