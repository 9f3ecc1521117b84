"""Morse-oscillator model data: the weight exponent, Laguerre polynomials, states.

The bound states live on an integer grid (n, v) with derived weight exponent
s = (v - 2n - 1)/2.  Commands build states unnormalized (``wavefunction``)
and compute ``normalization`` only where they need it, since every eigenvalue
computation cancels it; ``make_state`` pairs the two in a cache that no
command reads, only the tests and the benchmark harness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .functions import LaurentPoly, WeightedFunction
from .scalars import _RATIONAL, RadicalScalar, _rational, sqrt_of_rational


class NonBoundError(ValueError):
    """The requested level is not bound for the given physical constants."""


class PhysicalParams(NamedTuple):
    """Well depth, inverse width, particle mass and hbar, in consistent units.

    An immutable NamedTuple: it equals the plain tuple of its fields.
    """

    v0: float
    beta: float
    mass: float
    hbar: float


class MorseState(NamedTuple):
    """A grid state: unnormalized wavefunction and normalization.

    The wavefunction is exp(-y/2) * y^s * L_n^{2s}(y) without the
    normalization factor, and carries s = weight_exponent(n, v) as its
    weight; ``normalization`` is None on cells where the defining square
    root is zero or imaginary (non-normalizable cells).  An immutable
    NamedTuple: it equals the plain tuple (wavefunction, normalization).
    """

    wavefunction: WeightedFunction
    normalization: RadicalScalar | None


def weight_exponent(n: int, v: int) -> Fraction:
    """s = (v - 2n - 1)/2 for grid cell (n, v); negative s is permitted.

    s >= 0 exactly on the physical half-plane v >= 2n + 1, where the state
    is normalizable.
    """
    if n < 0 or v < 0:
        raise ValueError("n and v must be non-negative")
    return Fraction(v - 2 * n - 1, 2)


def laguerre(n: int, alpha: Fraction | int) -> LaurentPoly:
    """Associated Laguerre polynomial L_n^alpha as an exact polynomial.

    Any rational alpha = p/q works, including the negative integers that
    arise on cells with s < 0.  The coefficient of y^k is
    (-1)^k * C(n, k) * q^k * prod_{j=k+1..n} (p + q*j) / (n! * q^n), an
    integer over one common denominator; it expands the generalized binomial
    of L_n^a(y) = sum_k (-1)^k * C(n+a, n-k) * y^k / k!.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    alpha = _rational(alpha)
    p, q = alpha.numerator, alpha.denominator
    num: dict[int, int] = {}
    prod = 1  # prod_{j=k+1..n} (p + q*j), built from k=n downward
    for k in range(n, -1, -1):
        if not prod:
            break  # a zero factor zeroes every lower coefficient too
        c = math.comb(n, k) * q**k * prod
        num[k] = -c if k % 2 else c
        prod *= p + q * k
    return LaurentPoly._reduced(num, math.factorial(n) * q**n, _RATIONAL)


def normalization(n: int, v: int) -> RadicalScalar | None:
    """The state's normalization constant, or None where it is undefined.

    Equals sqrt((v - 2n - 1) * n! / (v - n - 1)!); that expression needs a
    positive radicand, v - 2n - 1 > 0, which on the integer grid means
    v >= 2n + 2 (and implies the factorial argument v - n - 1 >= 0).
    """
    if n < 0 or v < 0:
        raise ValueError("n and v must be non-negative")
    if v - 2 * n - 1 <= 0:
        return None
    return sqrt_of_rational(
        Fraction((v - 2 * n - 1) * math.factorial(n), math.factorial(v - n - 1))
    )


def wavefunction(n: int, v: int) -> WeightedFunction:
    """The unnormalized state at (n, v): exp(-y/2) * y^s * L_n^{2s}(y).

    Built afresh on every call, with no normalization constant; grid passes
    that only need the wavefunction use this and let it go with the cell.
    """
    s = weight_exponent(n, v)
    return WeightedFunction(s, laguerre(n, 2 * s))


@lru_cache(maxsize=None)
def make_state(n: int, v: int) -> MorseState:
    """The grid state at (n, v), with normalization attached when defined.

    Cached without bound, and read by no command: the tests and the
    benchmark harness use it, and the harness checks that the cache is
    empty before each timed run and reports its hits and misses.
    """
    return MorseState(wavefunction(n, v), normalization(n, v))


def physical_map(params: PhysicalParams, n: int = 0) -> tuple[float, float, float]:
    """Map physical constants to (v, s, E) for level n, in floating point.

    v = sqrt(8 * mass * v0) / (beta * hbar), s follows the grid relation,
    and E = -beta^2 * hbar^2 * s^2 / (2 * mass).  Raises NonBoundError when
    s < 0, i.e. when level n does not fit in the well, and ValueError when a
    constant, v, s or E is not finite.
    """
    constants = (params.v0, params.beta, params.mass, params.hbar)
    if not all(math.isfinite(x) and x > 0 for x in constants):
        raise ValueError("physical constants must be positive and finite")
    if n < 0:
        raise ValueError("n must be non-negative")
    scale = params.beta * params.hbar  # 0.0 when the product underflows
    v = math.sqrt(8.0 * params.mass * params.v0) / scale if scale else math.inf
    if not math.isfinite(v):
        raise ValueError(f"v is not finite (v = {v!r})")
    # compares the int n with the float v exactly, so a huge n is never
    # converted to a float
    if 2 * n + 1 > v:
        raise NonBoundError(f"level n={n} is not bound (v = {v:.6g} < 2n + 1)")
    s = (v - 2 * n - 1) / 2
    e = -((scale * s) ** 2) / (2.0 * params.mass)
    if not math.isfinite(e):
        raise ValueError(f"E is not finite (s = {s!r}, E = {e!r})")
    return v, s, e
