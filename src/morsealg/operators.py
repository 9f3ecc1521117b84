"""Differential operators with Laurent coefficients, and the Morse family.

A DiffOp is a finite sum a_k(y) * d^k/dy^k with exact Laurent-polynomial
coefficients.  Applying one to a weighted function stays inside the weighted
family, so ladder relations, commutators and eigenvalue checks all reduce to
exact polynomial identities.

Ladder-operator constructors fold their scalar radical prefactor directly
into the coefficients; the radical cancellations of the parameter-shifted
commutator then happen through ordinary multiplication.  Application,
composition, the commutator and the composed shifted commutator only
collect products of coefficients; ``LaurentPoly._sum_of_products`` adds
them and checks their radical units.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from fractions import Fraction

from .functions import LaurentPoly, ScalarLike, WeightedFunction
from .scalars import (
    _RATIONAL,
    ZERO,
    RadicalScalar,
    Unit,
    _rational,
    _sqrt_unit,
    _unit_mul,
    accumulate,
)


class UndefinedOperatorError(ZeroDivisionError):
    """A constructor's radical prefactor divides by zero at these parameters."""


class OpClass(enum.Enum):
    PROPER = "Proper"
    ZERO = "Zero"
    UNDEFINED = "Undefined"


class DiffOp:
    """Finite map {derivative order k >= 0: coefficient LaurentPoly}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, LaurentPoly] | None = None):
        """TypeError unless every order is an int and every coefficient a
        LaurentPoly: no float or bare number enters the exact core."""
        out: dict[int, LaurentPoly] = {}
        if terms:
            for k, p in terms.items():
                if not isinstance(k, int) or not isinstance(p, LaurentPoly):
                    raise TypeError(f"not an int order and a LaurentPoly: {k!r}: {p!r}")
                if k < 0:
                    raise ValueError("derivative order must be non-negative")
                if p:
                    out[k] = p
        self._terms = out

    @classmethod
    def _raw(cls, terms: dict[int, LaurentPoly]) -> DiffOp:
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> DiffOp:
        return _ZERO_OP

    @classmethod
    def identity(cls) -> DiffOp:
        return _IDENTITY_OP

    @classmethod
    def multiplication(cls, poly: LaurentPoly) -> DiffOp:
        return cls._raw({0: poly}) if poly else _ZERO_OP

    @classmethod
    def derivative(cls, order: int = 1) -> DiffOp:
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        return cls._raw({order: LaurentPoly.one()})

    @property
    def terms(self) -> dict[int, LaurentPoly]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def max_order(self) -> int:
        return max(self._terms, default=0)

    def coeff(self, order: int) -> LaurentPoly:
        return self._terms.get(order, LaurentPoly.zero())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DiffOp):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> DiffOp:
        return DiffOp._raw({k: -p for k, p in self._terms.items()})

    def __add__(self, other: DiffOp) -> DiffOp:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return DiffOp._raw(accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other: DiffOp) -> DiffOp:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def scaled(self, c: ScalarLike) -> DiffOp:
        c = c if isinstance(c, RadicalScalar) else RadicalScalar(c)
        if not c:
            return _ZERO_OP
        return DiffOp._raw({k: p.scaled(c) for k, p in self._terms.items()})

    def apply(self, f: WeightedFunction | Sequence[WeightedFunction]) -> WeightedFunction:
        """Exact action on a weighted function; the weight exponent s survives.

        f is the function, or its jet (f, f', f'', ...) from
        WeightedFunction.jet, whose derivatives are used instead of taken
        again; a jet shorter than the operator's order is extended.  The
        terms a_k * f^(k) are added by LaurentPoly._sum_of_products, so
        terms with different radical units raise ArithmeticError.
        """
        jet = [f] if isinstance(f, WeightedFunction) else list(f)
        s = jet[0].s
        if not self._terms or jet[0].is_zero:
            return WeightedFunction(s, LaurentPoly.zero())
        while len(jet) <= self.max_order:
            jet.append(jet[-1].derivative())
        terms = [(1, a, jet[k].poly) for k, a in self._terms.items()]
        return WeightedFunction(s, LaurentPoly._sum_of_products(terms))

    def compose(self, other: DiffOp) -> DiffOp:
        """Exact composition self after other, by the Leibniz expansion."""
        return _leibniz([(1, self, other)])

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms):
            p = f"({self._terms[k]})"
            if k == 1:
                parts.append(f"{p}*d/dy")
            elif k > 1:
                parts.append(f"{p}*d{k}/dy{k}")
            else:
                parts.append(p)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DiffOp({str(self)!r})"


_ZERO_OP = DiffOp._raw({})
_IDENTITY_OP = DiffOp._raw({0: LaurentPoly.one()})


def _leibniz(pairs: list[tuple[int, DiffOp, DiffOp]], first: int = 0) -> DiffOp:
    """The sum of sign * (a after b) over pairs (sign, a, b), in normal form.

    By the Leibniz rule a_j d^j (b_k d^k) = sum_i C(j, i) a_j b_k^(i)
    d^(j - i + k); only the terms with i >= first are kept.  The terms of
    one output order are added by LaurentPoly._sum_of_products; terms of
    one order with different radical units raise ArithmeticError.
    """
    by_order: dict[int, list] = {}
    for sign, a, b in pairs:
        top = a.max_order
        for k, bk in b._terms.items():
            # b_k, b_k', ..., b_k^(top), cut at the first zero derivative
            ders = [bk]
            while len(ders) <= top and (d := ders[-1].derivative()):
                ders.append(d)
            for j, aj in a._terms.items():
                for i in range(first, min(j, len(ders) - 1) + 1):
                    by_order.setdefault(j - i + k, []).append((sign * math.comb(j, i), aj, ders[i]))
    out = {}
    for o, terms in by_order.items():
        p = LaurentPoly._sum_of_products(terms)
        if p:
            out[o] = p
    return DiffOp._raw(out)


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a compose b - b compose a, in normal form.

    The Leibniz terms with i = 0, a_j b_k d^(j+k), are the same in both
    products and cancel exactly, so only the terms with i >= 1 are added.
    """
    return _leibniz([(1, a, b), (-1, b, a)], first=1)


def _ratio(x: Fraction | int) -> tuple[int, int]:
    """x as (numerator, denominator), the denominator positive; TypeError
    unless x is an int or a Fraction."""
    x = _rational(x)
    return x.numerator, x.denominator


def _op(terms: dict[int, dict[int, int]], den: int, unit: Unit) -> DiffOp:
    """The operator sum_k (terms[k] / den * unit)(y) d^k/dy^k in normal form.

    terms maps a derivative order to integer numerators by exponent; zero
    numerators are dropped, and each coefficient is reduced on its own.
    """
    out: dict[int, LaurentPoly] = {}
    for k, num in terms.items():
        num = {e: c for e, c in num.items() if c}
        if num:
            out[k] = LaurentPoly._reduced(num, den, unit)
    return DiffOp._raw(out)


def _ladder(sigma: int, s: Fraction, v: Fraction | int) -> DiffOp:
    """sqrt((s - sigma)/s) * [sigma(2s - sigma) d/dy + s(2s - sigma)/y - v/2].

    k_plus at sigma = 1 and k_minus at sigma = -1, from integer numerators:
    with s = a/b and v = c/e the bracket is over 2b^2e, and (s - sigma)/s is
    p/a with p = a - sigma*b, already in lowest terms, so the prefactor is
    sqrt(pa)/|a| = k * unit / |a| with (k, unit) = _sqrt_unit(pa).
    """
    a, b = s.numerator, s.denominator
    p = a - sigma * b
    if not p:
        return _ZERO_OP
    k, unit = _sqrt_unit(p * a)
    c, e = _ratio(v)
    t = 2 * a - sigma * b
    return _op(
        {1: {0: sigma * t * 2 * b * e * k}, 0: {-1: a * t * 2 * e * k, 0: -c * b * b * k}},
        2 * b * b * e * abs(a),
        unit,
    )


def k_minus(s: Fraction, v: Fraction | int) -> DiffOp:
    """Lowering operator at weight s and depth v, prefactor folded in.

    -sqrt((s+1)/s) * [(2s+1) d/dy - s(2s+1)/y + v/2]; undefined at s = 0.
    """
    s = _rational(s)
    if s == 0:
        raise UndefinedOperatorError("lowering operator undefined at s = 0")
    return _ladder(-1, s, v)


def k_plus(s: Fraction, v: Fraction | int) -> DiffOp:
    """Raising operator at weight s and depth v, prefactor folded in.

    sqrt((s-1)/s) * [(2s-1) d/dy + s(2s-1)/y - v/2]; undefined at s = 0.
    """
    s = _rational(s)
    if s == 0:
        raise UndefinedOperatorError("raising operator undefined at s = 0")
    return _ladder(1, s, v)


def schrodinger_diff(s: Fraction, v: Fraction | int) -> DiffOp:
    """The operator y d2/dy2 + d/dy - s^2/y - y/4 + v/2, which kills the state."""
    s = _rational(s)
    a, b = s.numerator, s.denominator
    c, e = _ratio(v)
    # over 4b^2e, with s = a/b and v = c/e
    d = 4 * b * b * e
    return _op(
        {2: {1: d}, 1: {0: d}, 0: {-1: -4 * a * a * e, 1: -b * b * e, 0: 2 * b * b * c}},
        d,
        _RATIONAL,
    )


def k0_diff(s: Fraction, n: Fraction | int) -> DiffOp:
    """Diagonal operator y d2/dy2 + d/dy - s^2/y - y/4 + (n + 1/2).

    The stationary-equation operator at depth v = 2n + 1.
    """
    return schrodinger_diff(s, 2 * n + 1)


def k0_prime_simplified(s: Fraction, v: Fraction | int) -> DiffOp:
    """Closed-form shifted commutator s*(-8 d2/dy2 - (8/y) d/dy + 8s^2/y^2 - 4v/y).

    The zero operator exactly at s = 0.
    """
    s = _rational(s)
    if s == 0:
        return DiffOp.zero()
    a, b = s.numerator, s.denominator
    c, e = _ratio(v)
    # over b^3e, with s = a/b and v = c/e
    m = -8 * a * b * b * e
    return _op(
        {2: {0: m}, 1: {-1: m}, 0: {-2: 8 * a**3 * e, -1: -4 * a * b * b * c}},
        b**3 * e,
        _RATIONAL,
    )


def k0_prime_composed(s: Fraction, v: Fraction | int) -> DiffOp:
    """Shifted commutator built from ladder compositions.

    k_plus(s+1, v) after k_minus(s, v), minus k_minus(s-1, v) after
    k_plus(s, v): the left factors live at the intermediate state's weight.
    Undefined at s in {-1, 0, 1} where a constituent prefactor divides by
    zero.
    """
    s = _rational(s)
    if s in (-1, 0, 1):
        raise UndefinedOperatorError(f"composed form undefined at s = {s}")
    return _shifted_commutator(k_plus(s + 1, v), k_minus(s, v), k_minus(s - 1, v), k_plus(s, v))


def _shifted_commutator(
    plus_above: DiffOp, minus: DiffOp, minus_below: DiffOp, plus: DiffOp
) -> DiffOp:
    """plus_above after minus, minus minus_below after plus: the composed
    shifted commutator from its four ladder factors k_plus(s+1, v),
    k_minus(s, v), k_minus(s-1, v) and k_plus(s, v)."""
    return _leibniz([(1, plus_above, minus), (-1, minus_below, plus)])


def naive_commutator(s: Fraction, v: Fraction | int) -> DiffOp:
    """Commutator of raising and lowering taken at one fixed (s, v).

    Collapses to a pure 1/y^2 multiplication operator; see
    naive_commutator_coefficient for its exact coefficient.
    """
    s = _rational(s)
    if s == 0:
        raise UndefinedOperatorError("ladder operators undefined at s = 0")
    return commutator(k_plus(s, v), k_minus(s, v))


def naive_commutator_coefficient(s: Fraction) -> RadicalScalar:
    """Exact 1/y^2 coefficient of naive_commutator, any s != 0.

    2s(1 - 4s^2) * sqrt((s-1)/s) * sqrt((s+1)/s) in radical normal form.
    For s > 1 the radical product collapses to sqrt(s^2-1)/s and the value
    agrees with the closed form 2*sqrt(s^2-1)*(1-4s^2); for s < -1 complex
    square-root semantics flip the product's sign relative to that form.
    """
    s = _rational(s)
    if s == 0:
        raise UndefinedOperatorError("ladder operators undefined at s = 0")
    a, b = s.numerator, s.denominator
    # with s = a/b: sqrt((s -/+ 1)/s) = sqrt((a -/+ b)a)/|a| and
    # 2s(1 - 4s^2) = 2a(b^2 - 4a^2)/b^3; zero at s = +/-1 and s = +/-1/2
    q = 2 * (b * b - 4 * a * a)
    if not q or a * a == b * b:
        return ZERO
    k1, u1 = _sqrt_unit((a - b) * a)
    k2, u2 = _sqrt_unit((a + b) * a)
    g, unit = _unit_mul(u1, u2)
    return RadicalScalar._raw(Fraction(q * k1 * k2 * g, a * b**3), unit)

