"""Shared hypothesis strategies for exact-arithmetic property tests."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from morsealg import DiffOp, LaurentPoly, RadicalScalar, WeightedFunction, sqrt_of_rational

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)

nonzero_fractions = small_fractions.filter(lambda q: q != 0)


# i^m * sqrt(r) up to a rational factor: sqrt of a nonzero integer in [-30, 30]
units = st.integers(-30, 30).filter(bool).map(sqrt_of_rational)

# one unit for every draw from it within a single test case
shared_unit = st.shared(units, key="unit")


@st.composite
def radical_scalars(draw, unit=units) -> RadicalScalar:
    """One term q * i^m * sqrt(r), its unit drawn from ``unit``.

    Scalars add only when they share a unit (or one is zero), so summands
    are drawn with ``shared_unit``.
    """
    return draw(unit) * draw(small_fractions)


@st.composite
def laurent_polys(
    draw, min_exp: int = -4, max_exp: int = 5, max_terms: int = 4, unit=units
) -> LaurentPoly:
    """Rational coefficients times one radical unit drawn from ``unit``.

    A polynomial carries a single unit, so sums of two polynomials need them
    drawn with the same unit (pass ``shared_unit``).
    """
    u = draw(unit)
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        coeffs[draw(st.integers(min_exp, max_exp))] = u * draw(small_fractions)
    return LaurentPoly(coeffs)


@st.composite
def weighted_functions(draw, unit=units) -> WeightedFunction:
    s = Fraction(draw(st.integers(-5, 5)), 2)
    return WeightedFunction(s, draw(laurent_polys(unit=unit)))


@st.composite
def diff_ops(draw, max_order: int = 2, unit=units) -> DiffOp:
    """One unit for all coefficients, so that an application can sum them."""
    u = st.just(draw(unit))
    terms = {}
    for order in range(max_order + 1):
        if draw(st.booleans()):
            terms[order] = draw(laurent_polys(min_exp=-2, max_exp=2, max_terms=2, unit=u))
    return DiffOp(terms)
