"""Exact scalar arithmetic: a rational times one radical unit.

Every scalar this package computes with is one term ``q * i^m * sqrt(r)``
where ``q`` is a rational, ``m`` is 0 or 1 and ``r`` is a squarefree
positive integer.  The radicals come only from the ladder prefactors
``sqrt((s -+ 1)/s)`` and the normalization constants, each one such term.
Terms are closed under multiplication and division, and terms sharing a
unit under addition, which is all the operator algebra ever needs, so no
floating point enters the pipeline.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

# the radical unit i^m * sqrt(r) as (r, m); (1, 0) is the rational unit
Unit = tuple[int, int]
_RATIONAL: Unit = (1, 0)

_MAX_RADICAND = 10**6
# the longest digit run parse reads: int()'s default limit, on every Python
_MAX_DIGITS = 4300

# one term; a denominator needs a nonzero digit, so "1/0" is malformed text
_TERM_RE = re.compile(r"^(i\*)?(-?)(\d+)(?:/(\d*[1-9]\d*))?(?:\*sqrt\((\d+)\))?$")


class NotRationalError(ArithmeticError):
    """The scalar has an irreducible radical or imaginary part."""


def accumulate(out: dict, items) -> dict:
    """Add each (key, value) of items into out, dropping keys that cancel to 0.

    The one accumulation loop for sums of terms: LaurentPoly addition and
    products, the weighted derivative, and the reference engine's operator
    sums.  A zero value at a new key is stored as it is; the integer forms
    drop it in their normal-form gate, ``_IntegerForm._reduced``.  items is
    a dict view or a list.  Returns out.
    """
    for k, x in items:
        t = out.get(k)
        if t is None:
            out[k] = x
        else:
            t = t + x
            if t:
                out[k] = t
            else:
                del out[k]
    return out


def _squarefree(n: int) -> tuple[int, int]:
    """Split n > 0 as a**2 * r with r squarefree; returns (a, r).

    Trial division: radicands in this package stay small.
    """
    a, r = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            a *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return a, r * n


def _sqrt_unit(x: int) -> tuple[int, Unit]:
    """sqrt(x) for a nonzero integer x as k * unit: k > 0, r squarefree, i iff x < 0."""
    k, r = _squarefree(abs(x))
    return k, (r, 1 if x < 0 else 0)


def _unit_mul(u: Unit, w: Unit) -> tuple[int, Unit]:
    """u*w as k * unit with k an integer."""
    (r1, m1), (r2, m2) = u, w
    # r1, r2 squarefree: sqrt(r1)sqrt(r2) = g*sqrt(r1r2/g^2); i*i = -1
    g = math.gcd(r1, r2)
    return (-g if m1 and m2 else g), ((r1 // g) * (r2 // g), m1 ^ m2)


class RadicalScalar:
    """One term q * i^m * sqrt(r): a rational q times the radical unit (r, m).

    Normal form: r squarefree and >= 1, m 0 or 1, and zero carries the
    rational unit (1, 0).  Two scalars are equal iff their q and unit are.
    Adding two nonzero scalars with different units raises ArithmeticError,
    as adding Laurent polynomials does.  Instances are immutable.
    """

    __slots__ = ("_q", "_unit")

    def __init__(self, value: RadicalScalar | Fraction | int = 0):
        x = _coerce(value)
        if x is NotImplemented:
            raise TypeError(f"not an int, Fraction or RadicalScalar: {value!r}")
        self._q = x._q
        self._unit = x._unit

    @classmethod
    def _raw(cls, q: Fraction, unit: Unit) -> RadicalScalar:
        # private: q and unit must already be in normal form
        self = object.__new__(cls)
        self._q = q
        self._unit = unit
        return self

    @property
    def terms(self) -> dict[Unit, Fraction]:
        """The term map {(radicand, i_exponent): coefficient}: empty for zero."""
        return {self._unit: self._q} if self._q else {}

    @property
    def is_zero(self) -> bool:
        return not self._q

    @property
    def is_rational(self) -> bool:
        return self._unit == _RATIONAL

    def as_rational(self) -> Fraction:
        """The rational value, or NotRationalError if a radical survives."""
        if self._unit != _RATIONAL:
            raise NotRationalError(f"not a rational value: {self}")
        return self._q

    def __bool__(self) -> bool:
        return bool(self._q)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalScalar):
            return self._q == other._q and self._unit == other._unit
        if isinstance(other, (int, Fraction)):
            return self._unit == _RATIONAL and self._q == other
        return NotImplemented

    def __hash__(self) -> int:
        # a rational scalar equals its Fraction (and zero equals 0), so it hashes alike
        if self._unit == _RATIONAL:
            return hash(self._q)
        return hash((self._q, self._unit))

    def __neg__(self) -> RadicalScalar:
        return RadicalScalar._raw(-self._q, self._unit)

    def __add__(self, other) -> RadicalScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._unit != other._unit:
            if not self._q:
                return other
            if not other._q:
                return self
            raise ArithmeticError("cannot add scalars with different radical units")
        q = self._q + other._q
        return RadicalScalar._raw(q, self._unit) if q else ZERO

    __radd__ = __add__

    def __sub__(self, other) -> RadicalScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RadicalScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> RadicalScalar:
        if type(other) is int:
            return RadicalScalar._raw(self._q * other, self._unit) if other and self._q else ZERO
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self._q * other._q
        if not q:
            return ZERO
        k, unit = _unit_mul(self._unit, other._unit)
        return RadicalScalar._raw(q * k if k != 1 else q, unit)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RadicalScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._q:
            raise ZeroDivisionError("division by zero scalar")
        # (q*u)^-1 = u / (q*k), where u*u = k is an integer
        u = other._unit
        k, _ = _unit_mul(u, u)
        return self * RadicalScalar._raw(_ONE / (other._q * k), u)

    def __pow__(self, n: int) -> RadicalScalar:
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __str__(self) -> str:
        q, (r, m) = self._q, self._unit
        text = str(q) if r == 1 else f"{q}*sqrt({r})"
        return "i*" + text if m else text

    def __repr__(self) -> str:
        return f"RadicalScalar({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> RadicalScalar:
        """Inverse of str(); accepts one term, e.g. '-1', '1/3*sqrt(3)', 'i*2'.

        ValueError, quoting at most 40 characters, for any other text, a run
        of over 4 300 digits (before int() reads it) or a radicand above
        10**6 (before it is factored).
        """
        m = _TERM_RE.match(text.strip())
        if m is None or max(map(len, m.groups(""))) > _MAX_DIGITS:
            raise ValueError(f"malformed scalar: {text[:40]!r}{'...' if len(text) > 40 else ''}")
        imag, sign, p, q, r = m.groups()
        q, r = Fraction(int(sign + p), int(q or 1)), int(r or 1)
        if r > _MAX_RADICAND:
            raise ValueError(f"radicand above {_MAX_RADICAND}")
        if not q or not r:
            return ZERO
        if r > 1:
            a, r = _squarefree(r)
            q *= a
        return cls._raw(q, (r, 1 if imag else 0))


def _rational(value) -> Fraction:
    """value as a Fraction; TypeError unless an int or a Fraction.

    The one check on a rational entering the exact types: a float or a
    string is refused, not rounded to a nearby rational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an int or a Fraction: {value!r}")


def _ratio(x: Fraction | int) -> tuple[int, int]:
    """x as (numerator, denominator): (x, 1) for an exact int, building no
    Fraction; TypeError through _rational unless x is an int or a Fraction."""
    x = x if type(x) is int else _rational(x)
    return x.numerator, x.denominator


def _coerce(value) -> RadicalScalar:
    """value as a scalar; NotImplemented unless an int, a Fraction or a RadicalScalar."""
    if isinstance(value, RadicalScalar):
        return value
    try:
        return RadicalScalar._raw(_rational(value), _RATIONAL)
    except TypeError:
        return NotImplemented


def sqrt_of_rational(x: Fraction | int) -> RadicalScalar:
    """Exact square root of a rational as q*i^m*sqrt(r) in normal form.

    m = 1 iff x < 0; the result squares back to x exactly.  TypeError unless
    x is an int or a Fraction.
    """
    p, q = _ratio(x)
    if not p:
        return ZERO
    # sqrt(p/q) = sqrt(p*q)/q
    k, unit = _sqrt_unit(p * q)
    return RadicalScalar._raw(Fraction(k, q), unit)


ZERO = RadicalScalar._raw(_ZERO, _RATIONAL)
ONE = RadicalScalar._raw(_ONE, _RATIONAL)
I = RadicalScalar._raw(_ONE, (1, 1))
