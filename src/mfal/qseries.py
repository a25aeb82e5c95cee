"""Truncated q-expansions with exact rational exponents and coefficients.

A QSeries is a truncated series in the nome q = exp(2*pi*i*tau) together
with a truncation bound: all exponents strictly below ``trunc`` are
represented exactly, anything at or above it is unknown.  All modular forms
in this package are stored in q; forms naturally written in exp(pi*i*tau)
appear here with half-integral exponents.

A series is stored in the layout its kernel multiplies: int numerators
``nums`` over one positive int ``den``, ``nums[i] / den`` being the
coefficient at exponent ``(val + step*i) / denom``.  ``_series`` builds
every result in canonical form: no zero numerator at either end, no common
factor of ``nums`` and ``den`` (``mfal.poly.lowest_terms``), ``step`` the
gcd of the nonzero terms' offsets (0 for at most one term), and ``denom``
the least denominator of the exponents, so gcd(denom, val, step) == 1.
Products and inverses work on the numerators directly:
``kronecker_mul`` is the one product kernel, and ``inverse`` runs Newton's
iteration on it.  It packs each list of ints into one int, in base 2**w for
CPython's Karatsuba or, once the operands are big, in base 10**w for
libmpdec's number-theoretic transform.  It lives here, with its only
caller, so that the algebra half never compiles it.
"""

import decimal
import sys
from fractions import Fraction
from math import gcd, lcm

from .poly import Ring, _to_frac, add, lowest_terms, numerators


class DivisionByZeroSeries(ZeroDivisionError):
    """Division by a series with no terms below its truncation."""


class NeedsCyclotomic(ValueError):
    """Exact tau -> tau+1 shift needs roots of unity beyond {+1,-1}."""


class TruncationError(ValueError):
    """Operands do not share enough valid range to compare."""


DEFAULT_ORDER = 64

#: Minimal shared exponent span (in units of q) needed before two series
#: may be declared equal; guards against vacuous matches of over-truncated
#: operands.
MIN_AGREE_SPAN = 16

#: Bits in the smaller packed operand above which ``kronecker_mul`` packs in
#: decimal: libmpdec multiplies big numbers in quasi-linear time, where
#: CPython's ints use Karatsuba (README, "Big products", has the timings).
DECIMAL_BITS = 1 << 17

#: Exact integer arithmetic in decimal: no product of ints is ever rounded.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _below(trunc: Fraction, denom: int, val: int, step: int) -> int:
    """How many of the exponents (val + step*i)/denom, i >= 0, lie below trunc."""
    t, u = trunc.numerator, trunc.denominator
    return -((val * u - t * denom) // (step * u))


def _series(denom: int, val: int, step: int, nums: list, den: int, trunc) -> "QSeries":
    """The canonical QSeries of the numerators nums[i] / den at exponents
    (val + step*i) / denom (step 0 for one term), cut below trunc.  ``nums``
    is kept, not copied, when it is canonical: no series mutates its list."""
    trunc, step = _to_frac(trunc), step or 1
    n = max(_below(trunc, denom, val, step), 0)
    lo, hi = 0, min(n, len(nums))
    while lo < hi and not nums[lo]:
        lo += 1
    while hi > lo and not nums[hi - 1]:
        hi -= 1
    if lo == hi:
        denom, val, step, nums, den = 1, 0, 0, [], 1
    else:
        if lo or hi < len(nums):
            nums, val = nums[lo:hi], val + step * lo
        g = 0
        for i in range(1, len(nums)):
            if nums[i]:
                g = gcd(g, i)
                if g == 1:
                    break
        if g > 1:
            nums = nums[::g]
        step *= g
        g = gcd(denom, val, step)
        denom, val, step = denom // g, val // g, step // g
        nums, den = lowest_terms(nums, den)
    s = object.__new__(QSeries)
    s.denom, s.val, s.step, s.nums, s.den, s.trunc = denom, val, step, nums, den, trunc
    return s


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


def _monic_inverse(v: list, n: int) -> list:
    """The first n coefficients of 1/v for an int list v with v[0] == 1.

    Newton iteration w <- w - w*(v*w - 1) takes a correct prefix of m
    coefficients to one of up to 2m with two products; every coefficient
    stays an int.  The precisions are laid out from the top, n, ceil(n/2),
    ..., 1, so no step is a full-size product made for a few coefficients
    (Brent and Zimmermann, Modern Computer Arithmetic, 4.2).
    """
    ladder = []
    while n > 1:
        ladder.append(n)
        n = (n + 1) // 2
    w = [1]
    for m2 in reversed(ladder):
        m = len(w)
        # v*w - 1 vanishes below slot m
        err = kronecker_mul(v[:m2], w, m2)[m:]
        w += [-c for c in kronecker_mul(w, err, m2 - m)]
    return w


class QSeries(Ring):
    """Exact truncated series in q with exponents in (1/denom)*Z."""

    __slots__ = ("denom", "val", "step", "nums", "den", "trunc")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_terms(cls, pairs, trunc=DEFAULT_ORDER) -> "QSeries":
        """Build from (exponent, coefficient) pairs of exact rationals."""
        trunc, pairs = _to_frac(trunc), list(pairs)
        exps, denom = numerators([e for e, _ in pairs])
        coeffs, den = numerators([c for _, c in pairs])
        cut = trunc * denom
        terms = {}
        for k, c in zip(exps, coeffs):
            if k < cut:
                terms[k] = terms.get(k, 0) + c
        terms = {k: c for k, c in terms.items() if c}
        if not terms:
            return cls.zero(trunc)
        v = min(terms)
        step = gcd(*[k - v for k in terms]) or 1
        nums = [0] * ((max(terms) - v) // step + 1)
        for k, c in terms.items():
            nums[(k - v) // step] = c
        return _series(denom, v, step, nums, den, trunc)

    @classmethod
    def constant(cls, c, trunc=DEFAULT_ORDER) -> "QSeries":
        c = _to_frac(c)
        return _series(1, 0, 1, [c.numerator], c.denominator, trunc)

    @classmethod
    def zero(cls, trunc=DEFAULT_ORDER) -> "QSeries":
        return _series(1, 0, 1, [], 1, trunc)

    def _slots(self, denom: int, val: int, step: int, n: int) -> list:
        """The numerators at (val + step*i)/denom for i < n, a lattice that
        holds every exponent of this series and none below its valuation;
        the list stops at the last slot the series fills."""
        f = denom // self.denom
        off = (self.val * f - val) // step
        stride = self.step * f // step or 1
        m = min(len(self.nums), -((off - n) // stride))
        if m <= 0:
            return []
        if off == 0 and stride == 1:
            return self.nums[:m]
        out = [0] * (off + stride * (m - 1) + 1)
        out[off::stride] = self.nums[:m]
        return out

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Scaled exponent (e * denom) -> nonzero coefficient, read-only."""
        return {int(e * self.denom): c for e, c in self.items()}

    def coefficient(self, e) -> Fraction:
        e = _to_frac(e)
        if e >= self.trunc:
            raise TruncationError(f"coefficient at {e} is beyond truncation {self.trunc}")
        scaled = e * self.denom
        i, r = divmod(scaled.numerator - self.val, self.step or 1)
        if scaled.denominator != 1 or r or not 0 <= i < len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[i], self.den)

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        return [
            (Fraction(self.val + self.step * i, self.denom), Fraction(c, self.den))
            for i, c in enumerate(self.nums) if c
        ]

    @property
    def valuation(self) -> Fraction:
        """Least stored exponent; equals trunc for the (known-)zero series."""
        return Fraction(self.val, self.denom) if self.nums else self.trunc

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self):
        return f"QSeries({self.pretty(max_terms=4)}, trunc={self.trunc})"

    def pretty(self, max_terms=None) -> str:
        items, parts = self.items(), []
        for e, c in items[:max_terms]:
            if e == 0:
                parts.append(str(c))
            else:
                coeff = "" if c == 1 else ("-" if c == -1 else f"{c} ")
                parts.append(coeff + ("q" if e == 1 else f"q^{e}"))
        if len(items) > len(parts):
            parts.append("...")
        return " + ".join(parts).replace("+ -", "- ") or "0"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, trunc=self.trunc)
        trunc = min(self.trunc, other.trunc)
        if not other.nums:
            return self.truncate(trunc)
        if not self.nums:
            return other.truncate(trunc)
        d = lcm(self.denom, other.denom)
        fa, fb = d // self.denom, d // other.denom
        va, vb = self.val * fa, other.val * fb
        v = min(va, vb)
        step = gcd(self.step * fa, other.step * fb, va - v, vb - v) or 1
        n = _below(trunc, d, v, step)
        den = lcm(self.den, other.den)
        a, b = self._slots(d, v, step, n), other._slots(d, v, step, n)
        if den != self.den:
            a = [c * (den // self.den) for c in a]
        if den != other.den:
            b = [c * (den // other.den) for c in b]
        return _series(d, v, step, add(a, b), den, trunc)

    def scale(self, c) -> "QSeries":
        c = _to_frac(c)
        nums = [x * c.numerator for x in self.nums] if c else []
        return _series(self.denom, self.val, self.step, nums, self.den * c.denominator, self.trunc)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        # product exponents above min(Ta + vb, Tb + va) are contaminated by
        # the unknown tails, so that is the honest truncation
        trunc = min(self.trunc + other.valuation, other.trunc + self.valuation)
        if not self.nums or not other.nums:
            return QSeries.zero(trunc)
        d = lcm(self.denom, other.denom)
        fa, fb = d // self.denom, d // other.denom
        va, vb = self.val * fa, other.val * fb
        # one slot per point of the product's support lattice
        step = gcd(self.step * fa, other.step * fb) or 1
        n = _below(trunc, d, va + vb, step)
        a, b = self._slots(d, va, step, n), other._slots(d, vb, step, n)
        return _series(d, va + vb, step, kronecker_mul(a, b, n), self.den * other.den, trunc)

    def shift_exponents(self, e) -> "QSeries":
        """Multiply by the exact monomial q^e."""
        e = _to_frac(e)
        d = lcm(self.denom, e.denominator)
        f = d // self.denom
        val = self.val * f + e.numerator * (d // e.denominator)
        return _series(d, val, self.step * f, self.nums, self.den, self.trunc + e)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; needs an invertible leading term."""
        if not self.nums:
            raise DivisionByZeroSeries("series has no terms below its truncation")
        d, v, step, unit = self.denom, self.val, self.step or 1, self.nums
        # q^-v over the unit part, which is valid on [0, trunc*d - v)
        n = _below(self.trunc, d, v, step)
        # unit(x) = u0 * V(x / u0) with V integer and monic, so
        # 1/unit(x) = sum_i W_i x^i / u0^(i+1) for the integer W = 1/V;
        # over the one denominator u0^n slot i carries u0^(n-1-i)
        powers = [1]
        for _ in range(n):
            powers.append(powers[-1] * unit[0])
        monic = [c * powers[k - 1] if k else 1 for k, c in enumerate(unit)]
        nums = [w * self.den * powers[n - 1 - i] for i, w in enumerate(_monic_inverse(monic, n))]
        return _series(d, -v, step, nums, powers[n], self.trunc - 2 * Fraction(v, d))

    # rebound here so that wrapping QSeries.__pow__ (as the per-layer
    # benchmark trace does) sees the series powers
    __pow__ = Ring.__pow__

    # ------------------------------------------------------------------
    # substitutions and calculus
    # ------------------------------------------------------------------

    def rescale_tau(self, m) -> "QSeries":
        """Substitute tau -> m*tau (m a positive rational): e -> m*e."""
        m = _to_frac(m)
        if m <= 0:
            raise ValueError("rescale factor must be positive")
        if m == 1:
            return self
        d, f = self.denom * m.denominator, m.numerator
        return _series(d, self.val * f, self.step * f, self.nums, self.den, self.trunc * m)

    def shift_tau(self) -> "QSeries":
        """Substitute tau -> tau + 1 exactly.

        Only exponents with denominator dividing 2 are admissible, since the
        coefficient at e picks up exp(2*pi*i*e) which must stay rational.
        """
        nums = list(self.nums)
        for i, c in enumerate(nums):
            k = self.val + self.step * i
            if c and 2 * k % self.denom:
                raise NeedsCyclotomic(f"exponent {Fraction(k, self.denom)} has denominator > 2")
            if 2 * k // self.denom % 2:
                nums[i] = -c
        return _series(self.denom, self.val, self.step, nums, self.den, self.trunc)

    def q_derive(self) -> "QSeries":
        """Apply q*d/dq = (1/2*pi*i) d/dtau: coefficient at e times e."""
        nums = [c * (self.val + self.step * i) for i, c in enumerate(self.nums)]
        return _series(self.denom, self.val, self.step, nums, self.den * self.denom, self.trunc)

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def truncate(self, trunc) -> "QSeries":
        trunc = _to_frac(trunc)
        if trunc > self.trunc:
            raise TruncationError("cannot extend a truncated series")
        return _series(self.denom, self.val, self.step, self.nums, self.den, trunc)

    def agrees(self, other, min_span: int = MIN_AGREE_SPAN) -> bool:
        """Exact equality on the shared valid exponent range.

        Raises TruncationError when the shared range spans fewer than
        ``min_span`` units, instead of reporting a vacuous agreement.
        """
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, trunc=self.trunc)
        trunc = min(self.trunc, other.trunc)
        low = min(self.valuation, other.valuation, Fraction(0))
        if trunc - low < min_span:
            raise TruncationError(f"shared range [{low}, {trunc}) spans less than {min_span}")
        # the canonical form is unique, so equal series have equal layouts
        a, b = self.truncate(trunc), other.truncate(trunc)
        return (a.denom, a.val, a.step, a.den, a.nums) == (b.denom, b.val, b.step, b.den, b.nums)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        """Each term as the strings "a/b" of its exponent and coefficient in
        lowest terms, read from the numerators with no Fraction made."""
        d, den, terms = self.denom, self.den, []
        for i, c in enumerate(self.nums):
            if c:
                k = self.val + self.step * i
                g, h = gcd(k, d), gcd(c, den)
                terms.append([f"{k // g}/{d // g}", f"{c // h}/{den // h}"])
        trunc = self.trunc
        return {"denom": d, "trunc": f"{trunc.numerator}/{trunc.denominator}", "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "QSeries":
        return cls.from_terms(data["terms"], trunc=data["trunc"])
