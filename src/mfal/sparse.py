"""``Sparse``, the one polynomial ring over Q, and its fused ``dot``.

A polynomial maps int exponents to int numerators over one denominator.
``loopext.Laurent`` reads the exponent as the power of z, ``alia.JPoly`` as
the power of j and ``cyclotomic.CycloNumber`` as the power of zeta, which
its ``dot`` reduces below the field's degree; ``QuasiPoly``
(``mfal.quasimodular``) packs its five exponents into one int, so in every
ring the exponent of a product of monomials is one int addition.

Only ``quasimodular``, ``cyclotomic``, ``loopext`` and ``alia`` import this
module: a process that builds no polynomial (``mfal expand``) does not
compile it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .poly import Ring, add_term, lowest_terms, numerators


class Sparse(Ring):
    """A sparse polynomial over Q: int numerators over one denominator.

    ``nums`` maps each int exponent to a nonzero int and ``den`` is the
    common denominator.  Every polynomial is canonical, with den > 0 and
    gcd(den, *nums) == 1 (den == 1 for zero), so equal polynomials have
    equal (nums, den); ``terms`` reads the coefficients as {exponent:
    Fraction}.  The constructor reads {exponent: rational} through
    ``numerators``, copying the dict and dropping its zeros; ``_make`` keeps
    canonical int numerators as they are, not copied: no polynomial mutates
    its dict.  The constants sit at exponent 0.  A polynomial equals a
    scalar that is its constant, and never one of another subclass.  The
    scalars are ints and Fractions: ``+`` and ``*`` raise ``ValueError``
    on an element of another subclass and return NotImplemented on any
    other operand.

    ``dot`` is the fused multiply-accumulate: a sum of products pays one
    canonical step, not one per product and one per partial sum.  ``*`` of
    two nonzero polynomials is the ``dot`` of one pair, so a subclass that
    overrides ``dot`` sees every product; a zero factor, like a zero scaled
    by ``scale``, is returned as it is.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: dict | None = None):
        terms = terms or {}
        nums, self.den = numerators(terms.values())
        self.nums = {k: c for k, c in zip(terms, nums) if c}

    @classmethod
    def _make(cls, nums: dict, den: int):
        """The canonical polynomial nums / den for den > 0; ``nums`` holds no
        zero value."""
        p = object.__new__(cls)
        p.nums, p.den = lowest_terms(nums, den)
        return p

    @classmethod
    def const(cls, c):
        """The constant c, an int or a Fraction."""
        return cls._make({0: c.numerator} if c else {}, c.denominator)

    @property
    def terms(self) -> dict:
        return {k: Fraction(c, self.den) for k, c in self.nums.items()}

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(other)
        return type(other) is type(self) and self.den == other.den and self.nums == other.nums

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return self._foreign(other)
            other = self.const(other)
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if not b:
            return self
        if not a:
            return other
        if da != db:
            den = lcm(da, db)
            if den != da:
                a = {k: c * (den // da) for k, c in a.items()}
            if den != db:
                b = {k: c * (den // db) for k, c in b.items()}
            da = den
        out = dict(a)
        for k, c in b.items():
            add_term(out, k, c)
        return self._make(out, da)

    def __mul__(self, other):
        if type(other) is type(self):
            if not (self.nums and other.nums):
                return other if self.nums else self
            return self.dot(((self, other),))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._foreign(other)

    def _foreign(self, other):
        """NotImplemented for an operand of another ring, so that Python tries
        its reflected operation (``c - f`` reaches ``loopext.RatFunc``); an
        element of another subclass, a number of another cyclotomic field
        say, raises ``ValueError``, even when one side is zero."""
        if isinstance(other, Sparse):
            raise ValueError(f"{type(other).__name__} element in {type(self).__name__} arithmetic")
        return NotImplemented

    @classmethod
    def dot(cls, pairs):
        """The sum of x*y over ``pairs`` in one canonical step.

        The products are summed into one dict of numerators over the lcm
        of their denominators; a factor that is not of this class is read
        as a constant.  The first nonzero product sets the denominator.
        When every pair has a zero factor, a zero factor is the sum, with
        no canonical step.
        """
        out, den, zero = {}, 0, None
        get = out.get
        for x, y in pairs:
            if type(x) is not cls:
                x = cls.const(x)
            if type(y) is not cls:
                y = cls.const(y)
            xs, ys = x.nums, y.nums
            if not (xs and ys):
                zero = y if xs else x
                continue
            d = x.den * y.den
            if not den:
                den = d
            elif den % d:
                new = lcm(den, d)
                out = {k: c * (new // den) for k, c in out.items()}
                get, den = out.get, new
            f = den // d
            for ka, ca in xs.items():
                if f != 1:
                    ca *= f
                for kb, cb in ys.items():
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        if not den:
            return cls._make({}, 1) if zero is None else zero
        return cls._make(_nonzero(out), den)

    def scale(self, c):
        """self times the int or Fraction c; a zero polynomial is returned as
        it is."""
        if not self.nums:
            return self
        if not c:
            return self._make({}, 1)
        n = c.numerator  # an int is its own numerator over 1
        return self._make({k: n * v for k, v in self.nums.items()}, self.den * c.denominator)


def _nonzero(out: dict) -> dict:
    """``out`` without its zero values; the same dict when it holds none."""
    if 0 in out.values():
        return {k: c for k, c in out.items() if c}
    return out
