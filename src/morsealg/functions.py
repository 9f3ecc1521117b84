"""Laurent polynomials in y and the weighted family exp(-y/2) * y^s * P(y).

Both carry exact :class:`~morsealg.scalars.RadicalScalar` coefficients.  The
weight exp(-y/2)*y^s is never expanded: differentiation and multiplication by
Laurent coefficients keep a function inside the family, so every operator
application below stays exact.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from fractions import Fraction

from .scalars import ONE, ZERO, RadicalScalar, accumulate

ScalarLike = RadicalScalar | Fraction | int


def _as_scalar(c: ScalarLike) -> RadicalScalar:
    return c if isinstance(c, RadicalScalar) else RadicalScalar(c)


class Comparison(enum.Enum):
    EQUAL = "Equal"
    UNEQUAL = "Unequal"
    INCOMPARABLE = "Incomparable"


class LaurentPoly:
    """Finite sum of c*y^k terms, k any integer; zero coefficients dropped."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, ScalarLike] | None = None):
        out: dict[int, RadicalScalar] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _as_scalar(c)
                if c:
                    out[e] = c
        self._coeffs = out

    @classmethod
    def _raw(cls, coeffs: dict[int, RadicalScalar]) -> LaurentPoly:
        self = object.__new__(cls)
        self._coeffs = coeffs
        return self

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _ZERO_POLY

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE_POLY

    @classmethod
    def constant(cls, c: ScalarLike) -> LaurentPoly:
        return cls.monomial(0, c)

    @classmethod
    def monomial(cls, exponent: int, c: ScalarLike = 1) -> LaurentPoly:
        c = _as_scalar(c)
        return cls._raw({exponent: c}) if c else _ZERO_POLY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def coeff(self, exponent: int) -> RadicalScalar:
        return self._coeffs.get(exponent, ZERO)

    def items(self):
        return self._coeffs.items()

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._coeffs:
            return other
        if not other._coeffs:
            return self
        return LaurentPoly._raw(accumulate(dict(self._coeffs), other._coeffs.items()))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: LaurentPoly | ScalarLike) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return self.scaled(other)
        if not self._coeffs or not other._coeffs:
            return _ZERO_POLY
        # a product of nonzero scalars is nonzero, so every term is kept
        terms = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self._coeffs.items()
            for e2, c2 in other._coeffs.items()
        ]
        return LaurentPoly._raw(accumulate({}, terms))

    def __rmul__(self, other: ScalarLike) -> LaurentPoly:
        return self.scaled(other)

    def scaled(self, c: ScalarLike) -> LaurentPoly:
        c = _as_scalar(c)
        if not c:
            return _ZERO_POLY
        return LaurentPoly._raw({e: p * c for e, p in self._coeffs.items()})

    def shifted(self, d: int) -> LaurentPoly:
        """Multiply by y^d (shift every exponent by d)."""
        if d == 0:
            return self
        return LaurentPoly._raw({e + d: c for e, c in self._coeffs.items()})

    def derivative(self) -> LaurentPoly:
        """Termwise d/dy, valid for negative exponents too."""
        out: dict[int, RadicalScalar] = {}
        for e, c in self._coeffs.items():
            if e:
                out[e - 1] = c * e
        return LaurentPoly._raw(out)

    def evaluate(self, y: complex) -> complex:
        return sum((c.to_complex() * y**e for e, c in self._coeffs.items()), 0j)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*y")
            else:
                parts.append(f"{cs}*y^{e}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


_ZERO_POLY = LaurentPoly._raw({})
_ONE_POLY = LaurentPoly._raw({0: ONE})


@dataclass(frozen=True)
class WeightedFunction:
    """The function exp(-y/2) * y^s * poly(y) on y in (0, inf).

    Two weighted functions describe the same mathematical object whenever
    their s values differ by an integer that has been absorbed into the
    Laurent part; :meth:`compare` performs that alignment.
    """

    s: Fraction
    poly: LaurentPoly

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def derivative(self) -> WeightedFunction:
        """d/dy by the product rule; the weight exponent s is unchanged."""
        s = self.s
        items = self.poly.items()
        # -P/2 contributes at e; P' + (s/y)P contributes c*(e+s) at e-1
        out = {e: c * _MINUS_HALF for e, c in items}
        accumulate(out, [(e - 1, a) for e, c in items if (a := c * (e + s))])
        return WeightedFunction(s, LaurentPoly._raw(out))

    def __add__(self, other: WeightedFunction) -> WeightedFunction:
        if not isinstance(other, WeightedFunction):
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        d = other.s - self.s
        if d.denominator != 1:
            raise ValueError("cannot add weighted functions with non-integer weight gap")
        return WeightedFunction(self.s, self.poly + other.poly.shifted(int(d)))

    def __sub__(self, other: WeightedFunction) -> WeightedFunction:
        return self + (-other)

    def __neg__(self) -> WeightedFunction:
        return WeightedFunction(self.s, -self.poly)

    def __mul__(self, c: ScalarLike) -> WeightedFunction:
        return WeightedFunction(self.s, self.poly.scaled(c))

    __rmul__ = __mul__

    def compare(self, other: WeightedFunction) -> Comparison:
        """Exact equality after shifting any integer weight gap into the poly."""
        if self.is_zero and other.is_zero:
            return Comparison.EQUAL
        if self.is_zero or other.is_zero:
            return Comparison.UNEQUAL
        d = other.s - self.s
        if d.denominator != 1:
            return Comparison.INCOMPARABLE
        if self.poly == other.poly.shifted(int(d)):
            return Comparison.EQUAL
        return Comparison.UNEQUAL

    def evaluate(self, y: float) -> complex:
        """Numerical value at y > 0 (complex if coefficients carry an i part)."""
        if y <= 0:
            raise ValueError("weighted functions live on y > 0")
        return cmath.exp(-y / 2) * y ** float(self.s) * self.poly.evaluate(y)

    def __str__(self) -> str:
        return f"exp(-y/2) * y^({self.s}) * ({self.poly})"


_MINUS_HALF = RadicalScalar(Fraction(-1, 2))
