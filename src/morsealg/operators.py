"""The Morse ladder, stationary and commutator operators.

The operators are :class:`~morsealg.functions.DiffOp` values, finite sums
c * y^e * d^k/dy^k with exact coefficients; ``DiffOp`` lives in
``functions`` with the integer form it shares with ``LaurentPoly`` and is
re-exported here.  Applying one to a weighted function stays inside the
weighted family, so ladder relations, commutators and eigenvalue checks all
reduce to exact polynomial identities.

Each constructor writes its operator as integer numerators keyed by
(order, exponent) over one denominator and one radical unit, and ladder
constructors fold their scalar radical prefactor into that unit; the radical
cancellations of the parameter-shifted commutator then happen through
ordinary multiplication.  The numerators go straight to ``DiffOp._reduced``,
the normal-form gate, which drops those that vanish at the given parameters:
the -v/2, v/2 and -4v/y terms at v = 0 and the bracket terms at s = +-1/2.
Composition, the commutator and the composed shifted commutator are one
Leibniz loop over term pairs, ``DiffOp._leibniz``, which checks the radical
unit once per pair.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .functions import DiffOp
from .scalars import _RATIONAL, ZERO, RadicalScalar, _ratio, _rational, _sqrt_unit, _unit_mul


class UndefinedOperatorError(ZeroDivisionError):
    """A constructor's radical prefactor divides by zero at these parameters."""


class OpClass(enum.Enum):
    PROPER = "Proper"
    ZERO = "Zero"
    UNDEFINED = "Undefined"


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a compose b - b compose a, in normal form.

    The Leibniz terms with i = 0, a_j b_k d^(j+k), are the same in both
    products and cancel exactly, so only the terms with i >= 1 are added.
    """
    return DiffOp._leibniz([(1, a, b), (-1, b, a)], first=1)


def _ladder(sigma: int, s: Fraction | int, v: Fraction | int) -> DiffOp:
    """sqrt((s - sigma)/s) * [sigma(2s - sigma) d/dy + s(2s - sigma)/y - v/2].

    k_plus at sigma = 1 and k_minus at sigma = -1, from integer numerators:
    with s = a/b and v = c/e the bracket is over 2b^2e, and (s - sigma)/s is
    p/a with p = a - sigma*b, already in lowest terms, so the prefactor is
    sqrt(pa)/|a| = k * unit / |a| with (k, unit) = _sqrt_unit(pa).  Both
    are undefined at s = 0.
    """
    a, b = _ratio(s)
    if not a:
        name = "raising" if sigma > 0 else "lowering"
        raise UndefinedOperatorError(f"{name} operator undefined at s = 0")
    p = a - sigma * b
    if not p:
        return DiffOp.zero()
    k, unit = _sqrt_unit(p * a)
    c, e = _ratio(v)
    t = 2 * a - sigma * b
    return DiffOp._reduced(
        {(1, 0): sigma * t * 2 * b * e * k, (0, -1): a * t * 2 * e * k, (0, 0): -c * b * b * k},
        2 * b * b * e * abs(a),
        unit,
    )


def k_minus(s: Fraction, v: Fraction | int) -> DiffOp:
    """Lowering operator at weight s and depth v, prefactor folded in.

    -sqrt((s+1)/s) * [(2s+1) d/dy - s(2s+1)/y + v/2]; undefined at s = 0.
    """
    return _ladder(-1, s, v)


def k_plus(s: Fraction, v: Fraction | int) -> DiffOp:
    """Raising operator at weight s and depth v, prefactor folded in.

    sqrt((s-1)/s) * [(2s-1) d/dy + s(2s-1)/y - v/2]; undefined at s = 0.
    """
    return _ladder(1, s, v)


def schrodinger_diff(s: Fraction, v: Fraction | int) -> DiffOp:
    """The operator y d2/dy2 + d/dy - s^2/y - y/4 + v/2, which kills the state."""
    a, b = _ratio(s)
    c, e = _ratio(v)
    # over 4b^2e, with s = a/b and v = c/e
    d = 4 * b * b * e
    return DiffOp._reduced(
        {(2, 1): d, (1, 0): d, (0, -1): -4 * a * a * e, (0, 1): -b * b * e, (0, 0): 2 * b * b * c},
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
    a, b = _ratio(s)
    c, e = _ratio(v)
    # over b^3e, with s = a/b and v = c/e
    m = -8 * a * b * b * e
    return DiffOp._reduced(
        {(2, 0): m, (1, -1): m, (0, -2): 8 * a**3 * e, (0, -1): -4 * a * b * b * c},
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
    return DiffOp._leibniz([(1, plus_above, minus), (-1, minus_below, plus)])


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
    a, b = _ratio(s)
    if not a:
        raise UndefinedOperatorError("ladder operators undefined at s = 0")
    # with s = a/b: sqrt((s -/+ 1)/s) = sqrt((a -/+ b)a)/|a| and
    # 2s(1 - 4s^2) = 2a(b^2 - 4a^2)/b^3; zero at s = +/-1 and s = +/-1/2
    q = 2 * (b * b - 4 * a * a)
    if not q or a * a == b * b:
        return ZERO
    k1, u1 = _sqrt_unit((a - b) * a)
    k2, u2 = _sqrt_unit((a + b) * a)
    g, unit = _unit_mul(u1, u2)
    return RadicalScalar._raw(Fraction(q * k1 * k2 * g, a * b**3), unit)

