"""Exact Gaussian-rational scalars.

Every coefficient in the package is a value ``re + im*i`` with ``re`` and
``im`` arbitrary-precision rationals, so all algebraic identities can be
checked as exact equalities.  Rationals are ``fractions.Fraction`` values,
kept in lowest terms with a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction as _Q


def rational(num, den=1):
    """Exact rational from integers or a decimal-free string like '-3/7'."""
    return _Q(num, den) if den != 1 else _Q(num)


class Scalar:
    """A Gaussian rational ``re + im*i``.

    Immutable; supports exact field arithmetic including division by any
    nonzero Scalar.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is _Q else _Q(re))
        object.__setattr__(self, "im", im if type(im) is _Q else _Q(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def zero():
        return Scalar(0)

    @staticmethod
    def one():
        return Scalar(1)

    @staticmethod
    def i():
        return Scalar(0, 1)

    @staticmethod
    def from_rational_strings(re_str, im_str="0"):
        return Scalar(_Q(re_str), _Q(im_str))

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.im == 0 and other.im == 0:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("Scalar exponent must be an integer")
        if exponent < 0:
            return Scalar(1) / self ** (-exponent)
        result = Scalar(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, _Q)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        """Canonical form: '3', '-1/2', 'i', '-2/3*i', '1/2 + 3*i', '1 - i'."""
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {_imag_str(abs(self.im)).lstrip('-')}"


def _imag_str(im):
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, _Q)):
        return Scalar(value)
    raise TypeError(f"cannot coerce {value!r} to Scalar")


ZERO = Scalar.zero()
ONE = Scalar.one()
I = Scalar.i()
MINUS_I = Scalar(0, -1)
HALF = Scalar(_Q(1, 2))
