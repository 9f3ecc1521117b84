"""Laurent polynomials, weighted functions exp(-y/2) * y^s * P(y), and the
differential operators with Laurent coefficients that act on them.

A polynomial and an operator share one integer form: integer numerators over
one positive denominator, times one radical unit i^m * sqrt(r) shared by
every coefficient, so all of their arithmetic runs on Python ints.  A
polynomial keys its numerators by exponent e, an operator by the pair
(k, e) of its term y^e d^k/dy^k.  ``coeff``, ``items`` and ``terms`` hand
the coefficients out as exact :class:`~morsealg.scalars.RadicalScalar`
values and reduced polynomials; no other module reads the integer form.
``DiffOp.apply`` adds the products of an operator's terms with a jet of
derivatives in one loop, ``DiffOp._leibniz`` composes operators term pair by
term pair in one loop, and ``WeightedFunction._factor`` is the one
proportionality test.
The weight exp(-y/2)*y^s is never expanded: differentiation and
multiplication by Laurent coefficients keep a function inside the family, so
every operator application below stays exact.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Sequence
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


def _exponent(e: int) -> int:
    """e itself; TypeError unless e is an int, so y^e is a Laurent term."""
    if not isinstance(e, int):
        raise TypeError(f"not an int exponent: {e!r}")
    return e


class Comparison(enum.Enum):
    EQUAL = "Equal"
    UNEQUAL = "Unequal"
    INCOMPARABLE = "Incomparable"


class _IntegerForm:
    """Integer numerators over one denominator, times one radical unit.

    Normal form: numerators {key: int} with no zero stored, a denominator
    den > 0 with gcd(den, *numerators) == 1, and the unit (r, m) of
    i^m * sqrt(r) with r squarefree; zero has den 1 and the rational unit.
    ``_reduced`` is the one gate that makes this form, so its callers need
    not: every result that may hold a zero numerator or a common factor
    goes through it, the public constructors by way of ``_build``, and only
    values normal by construction are built with ``_raw``.  Every
    coefficient is numerator / den * unit, so adding values whose nonzero
    units differ raises ArithmeticError.  LaurentPoly keys its numerators
    by exponent, DiffOp by (derivative order, exponent); the ring
    operations below do not look inside the keys.
    """

    __slots__ = ("_num", "_den", "_unit")
    _ZERO: _IntegerForm  # each subclass's zero, set after the class

    @classmethod
    def _raw(cls, num: dict, den: int, unit: Unit):
        # private: num, den and unit must already be in normal form
        self = object.__new__(cls)
        self._num = num
        self._den = den
        self._unit = unit
        return self

    @classmethod
    def _reduced(cls, num: dict, den: int, unit: Unit):
        # private, the normal-form gate: den > 0; drops zero numerators, gives
        # the zero singleton for none left and divides out the common factor
        if 0 in num.values():
            num = {key: c for key, c in num.items() if c}
        if not num:
            return cls._ZERO
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        return cls._raw(num, den, unit)

    def _build(self, parts) -> None:
        """Set self to the sum of numerator / denominator * unit at each key,
        over (key, numerator, denominator, unit) parts with distinct keys and
        positive denominators; zero parts are skipped.  ArithmeticError when
        two nonzero parts carry different radical units."""
        terms = []
        unit = _RATIONAL
        for key, a, b, u in parts:
            if not a:
                continue
            if terms and u != unit:
                raise ArithmeticError("coefficients carry different radical units")
            terms.append((key, a, b))
            unit = u
        den = math.lcm(*[b for _, _, b in terms])
        r = self._reduced({key: a * (den // b) for key, a, b in terms}, den, unit)
        self._num, self._den, self._unit = r._num, r._den, r._unit

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return (
                self._den == other._den
                and self._unit == other._unit
                and self._num == other._num
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), self._den, self._unit))

    def __neg__(self):
        return self._raw({e: -c for e, c in self._num.items()}, self._den, self._unit)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        if self._unit != other._unit:
            raise ArithmeticError("cannot add terms with different radical units")
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        a, b = d2 // g, d1 // g
        out = {e: c * a for e, c in self._num.items()}
        accumulate(out, [(e, c * b) for e, c in other._num.items()])
        return self._reduced(out, d1 * a, self._unit)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scaled(self, c: ScalarLike):
        a, b, u = _split(c)
        k, unit = _unit_mul(self._unit, u)
        a *= k
        return self._reduced({e: p * a for e, p in self._num.items()}, self._den * b, unit)


class LaurentPoly(_IntegerForm):
    """Finite sum of c*y^k terms, k any integer; zero coefficients dropped.

    The integer form of :class:`_IntegerForm`, numerators keyed by exponent.
    """

    __slots__ = ()

    def __init__(self, coeffs: dict[int, ScalarLike] | None = None):
        """TypeError unless every exponent is an int and every coefficient
        an int, a Fraction or a RadicalScalar.  ArithmeticError when two
        nonzero coefficients carry different radical units."""
        self._build((_exponent(e), *_split(c)) for e, c in (coeffs or {}).items())

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
        exponent = _exponent(exponent)
        a, b, unit = _split(c)
        return cls._raw({exponent: a}, b, unit) if a else _ZERO_POLY

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

    def __mul__(self, other: LaurentPoly | ScalarLike) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return self.scaled(other)
        k, unit = _unit_mul(self._unit, other._unit)
        a = self._num if k == 1 else {e: c * k for e, c in self._num.items()}
        terms = [(e1 + e2, c1 * c2) for e1, c1 in a.items() for e2, c2 in other._num.items()]
        return LaurentPoly._reduced(accumulate({}, terms), self._den * other._den, unit)

    def __rmul__(self, other: ScalarLike) -> LaurentPoly:
        return self.scaled(other)

    def shifted(self, d: int) -> LaurentPoly:
        """Multiply by y^d (shift every exponent by d); TypeError unless d is an int."""
        if not isinstance(d, int):
            raise TypeError(f"not an int exponent: {d!r}")
        if d == 0:
            return self
        return LaurentPoly._raw({e + d: c for e, c in self._num.items()}, self._den, self._unit)

    def derivative(self) -> LaurentPoly:
        """Termwise d/dy, valid for negative exponents too."""
        out = {e - 1: c * e for e, c in self._num.items()}
        return LaurentPoly._reduced(out, self._den, self._unit)

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
LaurentPoly._ZERO = _ZERO_POLY


class WeightedFunction(namedtuple("WeightedFunction", "s poly")):
    """The function exp(-y/2) * y^s * poly(y) on y in (0, inf).

    Two weighted functions describe the same mathematical object whenever
    their s values differ by an integer that has been absorbed into the
    Laurent part; :meth:`compare` performs that alignment.  An immutable
    NamedTuple: it equals the plain tuple (s, poly), and the check on s
    holds for the constructor and for _replace alike.
    """

    __slots__ = ()
    s: Fraction
    poly: LaurentPoly

    def __new__(cls, s: Fraction | int, poly: LaurentPoly) -> WeightedFunction:
        # TypeError unless s is an int or a Fraction; an int becomes a Fraction
        if type(s) is not Fraction:
            s = _rational(s)
        return tuple.__new__(cls, (s, poly))

    @classmethod
    def _make(cls, iterable) -> WeightedFunction:
        # _replace builds its copy through _make, so through the check on s
        return cls(*iterable)

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
        accumulate(out, [(e - 1, 2 * c * (e * b + a)) for e, c in p._num.items()])
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


class DiffOp(_IntegerForm):
    """Finite sum of c * y^e * d^k/dy^k terms, k >= 0 and e any integer.

    The integer form of :class:`_IntegerForm`, numerators keyed by (k, e):
    an operator has one denominator and one radical unit for all of its
    coefficients.  ``terms`` gives the coefficient of each order as a
    reduced LaurentPoly.
    """

    __slots__ = ()

    def __init__(self, terms: dict[int, LaurentPoly] | None = None):
        """TypeError unless every order is an int and every coefficient a
        LaurentPoly: no float or bare number enters the exact core.
        ArithmeticError when two nonzero coefficients carry different
        radical units."""
        terms = terms or {}
        for k, p in terms.items():
            if not isinstance(k, int) or not isinstance(p, LaurentPoly):
                raise TypeError(f"not an int order and a LaurentPoly: {k!r}: {p!r}")
            if k < 0:
                raise ValueError("derivative order must be non-negative")
        self._build(
            ((k, e), c, p._den, p._unit) for k, p in terms.items() for e, c in p._num.items()
        )

    @classmethod
    def zero(cls) -> DiffOp:
        return _ZERO_OP

    @classmethod
    def identity(cls) -> DiffOp:
        return _IDENTITY_OP

    @classmethod
    def multiplication(cls, poly: LaurentPoly) -> DiffOp:
        return cls._raw({(0, e): c for e, c in poly._num.items()}, poly._den, poly._unit)

    @classmethod
    def derivative(cls, order: int = 1) -> DiffOp:
        if not isinstance(order, int):
            raise TypeError(f"not an int order: {order!r}")
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        return cls._raw({(order, 0): 1}, 1, _RATIONAL)

    @property
    def terms(self) -> dict[int, LaurentPoly]:
        by_order: dict[int, dict[int, int]] = {}
        for (k, e), c in self._num.items():
            by_order.setdefault(k, {})[e] = c
        den, unit = self._den, self._unit
        return {k: LaurentPoly._reduced(num, den, unit) for k, num in sorted(by_order.items())}

    @property
    def max_order(self) -> int:
        return max([k for k, _ in self._num], default=0)

    def coeff(self, order: int) -> LaurentPoly:
        num = {e: c for (k, e), c in self._num.items() if k == order}
        return LaurentPoly._reduced(num, self._den, self._unit)

    def apply(self, f: WeightedFunction | Sequence[WeightedFunction]) -> WeightedFunction:
        """Exact action on a weighted function; the weight exponent s survives.

        f is the function, or its jet (f, f', f'', ...) from
        WeightedFunction.jet, whose derivatives are used instead of taken
        again; a jet shorter than the operator's order is extended.  Every
        product of a term c * y^e d^k/dy^k with a numerator of f^(k) is
        added over one common denominator in one loop; the jet carries f's
        unit, so the sum has one unit.
        """
        jet = [f] if isinstance(f, WeightedFunction) else list(f)
        s = jet[0].s
        p0 = jet[0].poly
        top = self.max_order
        while len(jet) <= top:
            jet.append(jet[-1].derivative())
        polys = [g.poly for g in jet[: top + 1]]
        den = math.lcm(*[p._den for p in polys])
        m, unit = _unit_mul(self._unit, p0._unit)
        # f^(k) over den, times the unit factor m
        scaled = [(m * (den // p._den), p._num.items()) for p in polys]
        out: dict[int, int] = {}
        get = out.get
        for (k, e1), c1 in self._num.items():
            a, g = scaled[k]
            c1 *= a
            for e2, c2 in g:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return WeightedFunction(s, LaurentPoly._reduced(out, self._den * den, unit))

    def compose(self, other: DiffOp) -> DiffOp:
        """Exact composition self after other, by the Leibniz expansion."""
        return DiffOp._leibniz([(1, self, other)])

    @staticmethod
    def _leibniz(pairs: list[tuple[int, DiffOp, DiffOp]], first: int = 0) -> DiffOp:
        """The sum of sign * (a after b) over pairs (sign, a, b), in normal form.

        By the Leibniz rule c1 y^e1 d^j (c2 y^e2 d^k) is the sum over i of
        C(j, i) * e2(e2-1)...(e2-i+1) * c1 c2 y^(e1+e2-i) d^(j-i+k); only the
        terms with i >= first are kept, first being 0 or 1, and the sum over
        i stops at the first zero falling factorial.  Every product is added
        as an integer numerator over the lcm of the pairs' denominators, and
        the sum is reduced once.  Nonzero pairs whose radical units differ
        raise ArithmeticError.
        """
        work = []
        unit = None
        for sign, a, b in pairs:
            if not a._num or not b._num:
                continue
            k, u = _unit_mul(a._unit, b._unit)
            if unit is None:
                unit = u
            elif u != unit:
                raise ArithmeticError("cannot add operators with different radical units")
            work.append((sign * k, a._den * b._den, a._num.items(), b._num.items()))
        den = math.lcm(*[d for _, d, _, _ in work])
        comb = math.comb
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for m, d, an, bn in work:
            m *= den // d
            for (j, e1), c1 in an:
                if j < first:
                    continue
                c1 *= m
                for (k, e2), c2 in bn:
                    c = c1 * c2
                    o, e = j + k, e1 + e2
                    if not first:
                        key = (o, e)
                        out[key] = get(key, 0) + c
                    for i in range(1, j + 1):
                        # c1 c2 e2(e2-1)...(e2-i+1), zero from its first zero factor on
                        c *= e2 - i + 1
                        if not c:
                            break
                        key = (o - i, e - i)
                        out[key] = get(key, 0) + comb(j, i) * c
        return DiffOp._reduced(out, den, unit)

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for k, poly in terms.items():
            p = f"({poly})"
            if k == 1:
                parts.append(f"{p}*d/dy")
            elif k > 1:
                parts.append(f"{p}*d{k}/dy{k}")
            else:
                parts.append(p)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DiffOp({str(self)!r})"


_ZERO_OP = DiffOp._raw({}, 1, _RATIONAL)
_IDENTITY_OP = DiffOp._raw({(0, 0): 1}, 1, _RATIONAL)
DiffOp._ZERO = _ZERO_OP
