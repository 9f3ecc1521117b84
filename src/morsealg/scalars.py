"""Exact scalar arithmetic: rationals plus a closed radical extension.

Every scalar this package computes with is a finite sum of terms
``q * i^m * sqrt(r)`` where ``q`` is a rational, ``m`` is 0 or 1 and ``r`` is
a squarefree positive integer.  Sums of that shape are closed under addition
and multiplication, which is all the operator algebra ever needs, so no
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

_TERM_RE = re.compile(r"^(i\*)?(-?\d+(?:/\d+)?)(?:\*sqrt\((\d+)\))?$")


class NotRationalError(ArithmeticError):
    """The scalar has an irreducible radical or imaginary part."""


def accumulate(out: dict, items) -> dict:
    """Add each (key, value) of items into out, dropping keys that cancel to 0.

    The one accumulation loop of the exact algebra: scalars, polynomials and
    operators all keep their normal form (no zero stored) through it.  Values
    must be nonzero; items is a dict view or a list.  Returns out.
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
    """Finite sum of q*i^m*sqrt(r) terms in normal form.

    Normal form: radicands squarefree and >= 1, i-exponents reduced mod 2,
    no zero coefficients stored.  Two scalars are equal iff their term maps
    are identical.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, value: RadicalScalar | Fraction | int = 0):
        if isinstance(value, RadicalScalar):
            self._terms = value._terms
            return
        q = Fraction(value)
        self._terms: dict[Unit, Fraction] = {_RATIONAL: q} if q else {}

    @classmethod
    def _raw(cls, terms: dict[Unit, Fraction]) -> RadicalScalar:
        # private: terms must already be in normal form
        self = object.__new__(cls)
        self._terms = terms
        return self

    @property
    def terms(self) -> dict[Unit, Fraction]:
        """Normal-form term map {(radicand, i_exponent): coefficient}."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return not self._terms or (
            len(self._terms) == 1 and _RATIONAL in self._terms
        )

    def as_rational(self) -> Fraction:
        """The rational value, or NotRationalError if a radical survives."""
        if not self._terms:
            return _ZERO
        if len(self._terms) == 1:
            q = self._terms.get(_RATIONAL)
            if q is not None:
                return q
        raise NotRationalError(f"not a rational value: {self}")

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalScalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return not self._terms
            return self._terms == {_RATIONAL: q}
        return NotImplemented

    def __hash__(self) -> int:
        # a rational scalar equals its Fraction (and zero equals 0), so it hashes alike
        if not self._terms:
            return hash(0)
        q = self._terms.get(_RATIONAL)
        if q is not None and len(self._terms) == 1:
            return hash(q)
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> RadicalScalar:
        return RadicalScalar._raw({k: -q for k, q in self._terms.items()})

    def __add__(self, other) -> RadicalScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        return RadicalScalar._raw(accumulate(dict(self._terms), other._terms.items()))

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        # fast path: purely rational factor on either side
        if len(b) == 1 and _RATIONAL in b:
            q = b[_RATIONAL]
            return RadicalScalar._raw({k: p * q for k, p in a.items()})
        if len(a) == 1 and _RATIONAL in a:
            q = a[_RATIONAL]
            return RadicalScalar._raw({k: p * q for k, p in b.items()})
        products: list[tuple[Unit, Fraction]] = []
        for u, q1 in a.items():
            for w, q2 in b.items():
                k, unit = _unit_mul(u, w)
                products.append((unit, q1 * q2 * k))
        return RadicalScalar._raw(accumulate({}, products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> RadicalScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            raise ZeroDivisionError("division by zero scalar")
        if len(other._terms) > 1:
            raise ArithmeticError("division by multi-term radical sums is not supported")
        ((u, q),) = other._terms.items()
        # (q*u)^-1 = u / (q*k), where u*u = k is an integer
        k, _ = _unit_mul(u, u)
        return self * RadicalScalar._raw({u: _ONE / (q * k)})

    def __pow__(self, n: int) -> RadicalScalar:
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def to_complex(self) -> complex:
        """Floating-point value (complex when an i-term is present)."""
        re_part = 0.0
        im_part = 0.0
        for (r, m), q in self._terms.items():
            x = float(q) * math.sqrt(r)
            if m:
                im_part += x
            else:
                re_part += x
        return complex(re_part, im_part)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (r, m) in sorted(self._terms, key=lambda k: (k[1], k[0])):
            q = self._terms[(r, m)]
            piece = str(q) if r == 1 else f"{q}*sqrt({r})"
            if m:
                piece = "i*" + piece
            parts.append(piece)
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"RadicalScalar({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> RadicalScalar:
        """Inverse of str(); accepts e.g. '-1', '1/3*sqrt(3)', 'i*1+2*sqrt(2)'.

        A radicand above 10**6 raises ValueError before it is factored, which
        bounds the trial division; the eigenvalues in a report are rational.
        """
        out = ZERO
        for part in text.strip().split("+"):
            m = _TERM_RE.match(part.strip())
            if m is None:
                raise ValueError(f"malformed scalar term: {part!r}")
            imag, q, r = m.group(1), Fraction(m.group(2)), int(m.group(3) or 1)
            if r > _MAX_RADICAND:
                raise ValueError(f"radicand above {_MAX_RADICAND}: {r}")
            if r > 1:
                a, r = _squarefree(r)
                q *= a
            key = (r, 1 if imag else 0)
            if q and r:
                # share the one rational unit, as every other constructor does
                out = out + cls._raw({_RATIONAL if key == _RATIONAL else key: q})
        return out


def _coerce(value) -> RadicalScalar:
    if isinstance(value, RadicalScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return RadicalScalar(value)
    return NotImplemented


def sqrt_of_rational(x: Fraction | int) -> RadicalScalar:
    """Exact square root of a rational as q*i^m*sqrt(r) in normal form.

    m = 1 iff x < 0; the result squares back to x exactly.
    """
    x = Fraction(x)
    if not x:
        return ZERO
    # sqrt(p/q) = sqrt(p*q)/q
    k, unit = _sqrt_unit(x.numerator * x.denominator)
    return RadicalScalar._raw({unit: Fraction(k, x.denominator)})


ZERO = RadicalScalar._raw({})
ONE = RadicalScalar._raw({_RATIONAL: _ONE})
I = RadicalScalar._raw({(1, 1): _ONE})
