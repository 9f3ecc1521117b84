"""Laurent polynomials in y and the weighted family exp(-y/2) * y^s * P(y).

A polynomial is stored as integer numerators over one positive denominator,
times one radical unit i^m * sqrt(r) shared by every coefficient, so all of
its arithmetic runs on Python ints; ``coeff`` and ``items`` hand the
coefficients out as exact :class:`~morsealg.scalars.RadicalScalar` values.
No other module reads that integer form.  ``LaurentPoly._sum_of_products``
is the one kernel that adds products of polynomials, with the one check of
their radical units, and ``WeightedFunction._factor`` is the one
proportionality test.
The weight exp(-y/2)*y^s is never expanded: differentiation and
multiplication by Laurent coefficients keep a function inside the family, so
every operator application below stays exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import _ONE, _RATIONAL, ZERO, RadicalScalar, Unit, _rational, _unit_mul, accumulate

ScalarLike = RadicalScalar | Fraction | int


def _split(c: ScalarLike) -> tuple[int, int, Unit]:
    """c as numerator / denominator * unit, the denominator positive.

    TypeError unless c is an int, a Fraction or a RadicalScalar.
    """
    if isinstance(c, int):
        return c, 1, _RATIONAL
    if not isinstance(c, RadicalScalar):
        c = RadicalScalar(c)
    q = c._q
    return q.numerator, q.denominator, c._unit


class Comparison(enum.Enum):
    EQUAL = "Equal"
    UNEQUAL = "Unequal"
    INCOMPARABLE = "Incomparable"


class LaurentPoly:
    """Finite sum of c*y^k terms, k any integer; zero coefficients dropped.

    Normal form: numerators {k: int} with no zero stored, a denominator
    den > 0 with gcd(den, *numerators) == 1, and the unit (r, m) of
    i^m * sqrt(r) with r squarefree; the zero polynomial has den 1 and the
    rational unit.  Every coefficient is numerator / den * unit, so adding
    polynomials whose nonzero units differ raises ArithmeticError.
    """

    __slots__ = ("_num", "_den", "_unit")

    def __init__(self, coeffs: dict[int, ScalarLike] | None = None):
        terms: list[tuple[int, int, int]] = []
        unit = _RATIONAL
        for e, c in (coeffs or {}).items():
            a, b, u = _split(c)
            if not a:
                continue
            if terms and u != unit:
                raise ArithmeticError("coefficients carry different radical units")
            terms.append((e, a, b))
            unit = u
        # over the lcm of reduced denominators the numerators share no factor
        den = math.lcm(*(b for _, _, b in terms))
        self._num = {e: a * (den // b) for e, a, b in terms}
        self._den = den
        self._unit = unit

    @classmethod
    def _raw(cls, num: dict[int, int], den: int, unit: Unit) -> LaurentPoly:
        # private: num, den and unit must already be in normal form
        self = object.__new__(cls)
        self._num = num
        self._den = den
        self._unit = unit
        return self

    @classmethod
    def _reduced(cls, num: dict[int, int], den: int, unit: Unit) -> LaurentPoly:
        # private: num has no zero and den > 0; divides out their common factor
        if not num:
            return _ZERO_POLY
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        return cls._raw(num, den, unit)

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
        a, b, unit = _split(c)
        return cls._raw({exponent: a}, b, unit) if a else _ZERO_POLY

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def min_exponent(self) -> int:
        if not self._num:
            raise ValueError("zero polynomial has no exponents")
        return min(self._num)

    @property
    def max_exponent(self) -> int:
        if not self._num:
            raise ValueError("zero polynomial has no exponents")
        return max(self._num)

    def _scalar(self, c: int) -> RadicalScalar:
        return RadicalScalar._raw(Fraction(c, self._den), self._unit)

    def coeff(self, exponent: int) -> RadicalScalar:
        c = self._num.get(exponent)
        return ZERO if c is None else self._scalar(c)

    def items(self) -> list[tuple[int, RadicalScalar]]:
        """(exponent, coefficient) pairs, the coefficients built on demand."""
        return [(e, self._scalar(c)) for e, c in self._num.items()]

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return (
                self._den == other._den
                and self._unit == other._unit
                and self._num == other._num
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), self._den, self._unit))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({e: -c for e, c in self._num.items()}, self._den, self._unit)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        if self._unit != other._unit:
            raise ArithmeticError("cannot add polynomials with different radical units")
        d1, d2 = self._den, other._den
        if d1 == d2:
            out = accumulate(dict(self._num), other._num.items())
        else:
            g = math.gcd(d1, d2)
            a, b = d2 // g, d1 // g
            out = {e: c * a for e, c in self._num.items()}
            accumulate(out, [(e, c * b) for e, c in other._num.items()])
            d1 *= a
        return LaurentPoly._reduced(out, d1, self._unit)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: LaurentPoly | ScalarLike) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return self.scaled(other)
        if not self._num or not other._num:
            return _ZERO_POLY
        k, unit = _unit_mul(self._unit, other._unit)
        a = self._num if k == 1 else {e: c * k for e, c in self._num.items()}
        # a product of nonzero integers is nonzero, so every term is kept
        terms = [(e1 + e2, c1 * c2) for e1, c1 in a.items() for e2, c2 in other._num.items()]
        return LaurentPoly._reduced(accumulate({}, terms), self._den * other._den, unit)

    def __rmul__(self, other: ScalarLike) -> LaurentPoly:
        return self.scaled(other)

    def scaled(self, c: ScalarLike) -> LaurentPoly:
        a, b, u = _split(c)
        if not a or not self._num:
            return _ZERO_POLY
        k, unit = _unit_mul(self._unit, u)
        a *= k
        return LaurentPoly._reduced({e: p * a for e, p in self._num.items()}, self._den * b, unit)

    def shifted(self, d: int) -> LaurentPoly:
        """Multiply by y^d (shift every exponent by d)."""
        if d == 0:
            return self
        return LaurentPoly._raw({e + d: c for e, c in self._num.items()}, self._den, self._unit)

    def derivative(self) -> LaurentPoly:
        """Termwise d/dy, valid for negative exponents too."""
        out = {e - 1: c * e for e, c in self._num.items() if e}
        return LaurentPoly._reduced(out, self._den, self._unit)

    @staticmethod
    def _sum_of_products(terms: list[tuple[int, LaurentPoly, LaurentPoly]]) -> LaurentPoly:
        """The sum of m * a * g over terms (m, a, g), m a nonzero int.

        Every product is added as integer numerators over the lcm of the
        products' denominators, and the sum is reduced once.  Products with
        different radical units raise ArithmeticError.
        """
        den = math.lcm(*[a._den * g._den for _, a, g in terms])
        unit = None
        out: dict[int, int] = {}
        get = out.get
        for m, a, g in terms:
            k, u = _unit_mul(a._unit, g._unit)
            if unit is None:
                unit = u
            elif u != unit:
                raise ArithmeticError("cannot add polynomials with different radical units")
            m *= k * (den // (a._den * g._den))
            gn = g._num.items()
            for e1, c1 in a._num.items():
                c1 *= m
                for e2, c2 in gn:
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
        out = {e: c for e, c in out.items() if c}
        return LaurentPoly._reduced(out, den, unit)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for e in sorted(self._num):
            cs = str(self._scalar(self._num[e]))
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*y")
            else:
                parts.append(f"{cs}*y^{e}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


_ZERO_POLY = LaurentPoly._raw({}, 1, _RATIONAL)
_ONE_POLY = LaurentPoly._raw({0: 1}, 1, _RATIONAL)


@dataclass(frozen=True)
class WeightedFunction:
    """The function exp(-y/2) * y^s * poly(y) on y in (0, inf).

    Two weighted functions describe the same mathematical object whenever
    their s values differ by an integer that has been absorbed into the
    Laurent part; :meth:`compare` performs that alignment.
    """

    s: Fraction
    poly: LaurentPoly

    def __post_init__(self):
        # TypeError unless s is an int or a Fraction; an int becomes a Fraction
        if type(self.s) is not Fraction:
            object.__setattr__(self, "s", _rational(self.s))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def derivative(self) -> WeightedFunction:
        """d/dy by the product rule; the weight exponent s is unchanged."""
        p = self.poly
        a, b = self.s.numerator, self.s.denominator
        # over the denominator 2b*den, with s = a/b: -P/2 contributes -c*b at
        # e, and P' + (s/y)P contributes 2c*(e*b + a) at e-1
        out = {e: -c * b for e, c in p._num.items()}
        accumulate(out, [(e - 1, 2 * c * t) for e, c in p._num.items() if (t := e * b + a)])
        return WeightedFunction(self.s, LaurentPoly._reduced(out, 2 * b * p._den, p._unit))

    def jet(self, order: int) -> tuple[WeightedFunction, ...]:
        """(f, f', ..., f^(order)), each derivative taken once; DiffOp.apply
        accepts the jet in place of f, so operators can share it."""
        out = [self]
        for _ in range(order):
            out.append(out[-1].derivative())
        return tuple(out)

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

    def _aligned(self, other: WeightedFunction) -> LaurentPoly | None:
        """other's Laurent part at this function's weight, the integer weight
        gap shifted into it; None where the gap is not an integer."""
        d = other.s - self.s
        if d.denominator != 1:
            return None
        return other.poly.shifted(int(d))

    def compare(self, other: WeightedFunction) -> Comparison:
        """Exact equality after shifting any integer weight gap into the poly."""
        if self.is_zero and other.is_zero:
            return Comparison.EQUAL
        if self.is_zero or other.is_zero:
            return Comparison.UNEQUAL
        p = self._aligned(other)
        if p is None:
            return Comparison.INCOMPARABLE
        return Comparison.EQUAL if self.poly == p else Comparison.UNEQUAL

    def _factor(self, other: WeightedFunction) -> RadicalScalar | None:
        """The scalar c with other = c * self, both nonzero, or None.

        Decided on the integer numerators: after alignment the two
        polynomials must have the same exponents, and every numerator pair
        must cross-multiply equal to the pair at this function's lowest
        exponent.  The denominators and radical units are common factors,
        so only a proportional pair pays for one scalar division.
        """
        rpoly = self._aligned(other)
        if rpoly is None:
            return None
        spoly = self.poly
        rnum, snum = rpoly._num, spoly._num
        if rnum.keys() != snum.keys():
            return None
        base = min(snum)
        rb, sb = rnum[base], snum[base]
        # the base pair in lowest terms keeps one factor of each product small
        g = math.gcd(rb, sb)
        rb, sb = rb // g, sb // g
        for e, c in snum.items():
            if rnum[e] * sb != c * rb:
                return None
        # c = (rb / rden * runit) / (sb / sden * sunit); a common unit cancels
        q = Fraction(rb * spoly._den, sb * rpoly._den)
        if rpoly._unit == spoly._unit:
            return RadicalScalar(q)
        return RadicalScalar._raw(q, rpoly._unit) / RadicalScalar._raw(_ONE, spoly._unit)

    def __str__(self) -> str:
        return f"exp(-y/2) * y^({self.s}) * ({self.poly})"

