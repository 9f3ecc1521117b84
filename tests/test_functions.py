"""Laurent polynomials and the weighted family exp(-y/2) y^s P(y)."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsealg import (
    Comparison,
    LaurentPoly,
    RadicalScalar,
    WeightedFunction,
    k_minus,
    laguerre,
    make_state,
    schrodinger_diff,
    sqrt_of_rational,
)

from _numeric import poly_value, weighted_value
from _strategies import diff_ops, laurent_polys, shared_unit, weighted_functions


def test_poly_product_with_negative_exponent():
    p = LaurentPoly({0: 2, 1: -1})
    assert p * LaurentPoly({-1: 1}) == LaurentPoly({-1: 2, 0: -1})


def test_poly_additive_identity():
    p = LaurentPoly({2: Fraction(1, 3), -1: 5})
    assert p + LaurentPoly.zero() == p
    assert p - p == LaurentPoly.zero()


def test_poly_difference_of_squares():
    one_plus = LaurentPoly({0: 1, 1: 1})
    one_minus = LaurentPoly({0: 1, 1: -1})
    assert one_plus * one_minus == LaurentPoly({0: 1, 2: -1})


def test_poly_derivative():
    assert LaurentPoly({2: 1}).derivative() == LaurentPoly({1: 2})
    assert LaurentPoly({-1: 1}).derivative() == LaurentPoly({-2: -1})
    assert LaurentPoly({0: 7}).derivative() == LaurentPoly.zero()


def test_poly_shift_and_scale():
    p = LaurentPoly({0: 1, 1: 2})
    assert p.shifted(-2) == LaurentPoly({-2: 1, -1: 2})
    assert p.scaled(0) == LaurentPoly.zero()
    assert p.scaled(sqrt_of_rational(2)) * LaurentPoly({0: sqrt_of_rational(2)}) == p.scaled(2)


def test_poly_str():
    p = LaurentPoly({-1: Fraction(1, 2), 1: -1})
    assert str(p) == "1/2*y^-1 + -1*y"
    assert str(LaurentPoly.zero()) == "0"


def test_poly_evaluate():
    p = LaurentPoly({-1: 2, 2: 1})
    assert poly_value(p, 2.0) == pytest.approx(1.0 + 4.0)


def test_weighted_derivative_half_weight():
    f = WeightedFunction(Fraction(1, 2), LaurentPoly.one())
    df = f.derivative()
    assert df.s == Fraction(1, 2)
    assert df.poly == LaurentPoly({-1: Fraction(1, 2), 0: Fraction(-1, 2)})


def test_weighted_derivative_zero_weight():
    f = WeightedFunction(Fraction(0), LaurentPoly.one())
    assert f.derivative().poly == LaurentPoly({0: Fraction(-1, 2)})


def test_weighted_derivative_of_zero():
    f = WeightedFunction(Fraction(3, 2), LaurentPoly.zero())
    assert f.derivative().is_zero


def test_weighted_derivative_matches_plain_derivative_at_zero_weight():
    # d/dy [e^(-y/2) P] = e^(-y/2) (P' - P/2)
    p = LaurentPoly({0: 3, 2: Fraction(1, 4), 5: -2})
    f = WeightedFunction(Fraction(0), p)
    expected = p.derivative() + p.scaled(Fraction(-1, 2))
    assert f.derivative().poly == expected


def test_compare_shifts_integer_weight_gap():
    a = WeightedFunction(Fraction(1, 2), LaurentPoly({1: 1}))
    b = WeightedFunction(Fraction(3, 2), LaurentPoly.one())
    assert a.compare(b) is Comparison.EQUAL
    assert b.compare(a) is Comparison.EQUAL


def test_compare_incomparable_weights():
    a = WeightedFunction(Fraction(0), LaurentPoly.one())
    b = WeightedFunction(Fraction(1, 2), LaurentPoly.one())
    assert a.compare(b) is Comparison.INCOMPARABLE


def test_compare_unequal():
    a = WeightedFunction(Fraction(1), LaurentPoly.one())
    b = WeightedFunction(Fraction(1), LaurentPoly({0: 2}))
    assert a.compare(b) is Comparison.UNEQUAL


def test_compare_zero_functions_of_any_weight():
    a = WeightedFunction(Fraction(1, 2), LaurentPoly.zero())
    b = WeightedFunction(Fraction(-2), LaurentPoly.zero())
    assert a.compare(b) is Comparison.EQUAL
    c = WeightedFunction(Fraction(-2), LaurentPoly.one())
    assert a.compare(c) is Comparison.UNEQUAL


def test_weighted_add_aligns_weights():
    a = WeightedFunction(Fraction(1, 2), LaurentPoly.one())
    b = WeightedFunction(Fraction(3, 2), LaurentPoly.one())
    total = a + b
    assert total.compare(WeightedFunction(Fraction(1, 2), LaurentPoly({0: 1, 1: 1}))) is Comparison.EQUAL
    with pytest.raises(ValueError):
        a + WeightedFunction(Fraction(1, 4), LaurentPoly.one())


def test_weighted_str():
    f = WeightedFunction(Fraction(-3, 2), LaurentPoly({0: -2, 1: -1}))
    assert str(f) == "exp(-y/2) * y^(-3/2) * (-2 + -1*y)"


def test_weighted_evaluate_rejects_non_positive_y():
    f = WeightedFunction(Fraction(1, 2), LaurentPoly.one())
    with pytest.raises(ValueError):
        weighted_value(f, 0.0)
    assert weighted_value(f, 1.0) == pytest.approx(math.exp(-0.5))


@settings(max_examples=60, deadline=None)
@given(laurent_polys(unit=shared_unit), laurent_polys(unit=shared_unit), laurent_polys())
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_derivative_is_a_derivation(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@settings(max_examples=40, deadline=None)
@given(weighted_functions())
def test_weighted_derivative_matches_finite_differences(f):
    h = 1e-6
    for y in (0.5, 1.0, 2.0):
        exact = weighted_value(f.derivative(), y)
        approx = (weighted_value(f, y + h) - weighted_value(f, y - h)) / (2 * h)
        scale = max(1.0, abs(exact), abs(weighted_value(f, y)))
        assert abs(exact - approx) / scale < 1e-6


@settings(max_examples=60, deadline=None)
@given(weighted_functions(), weighted_functions())
def test_compare_is_symmetric(a, b):
    assert a.compare(b) is b.compare(a)


def _assert_normal_form(p: LaurentPoly) -> None:
    """The stored integer form: one reduced denominator, one squarefree unit."""
    num, den, (r, m) = p._num, p._den, p._unit
    assert den > 0
    assert all(num.values())
    assert math.gcd(den, *num.values()) == 1
    assert m in (0, 1) and r >= 1
    assert all(r % (d * d) for d in range(2, math.isqrt(r) + 1))
    if not num:
        assert (den, r, m) == (1, 1, 0)


SQRT2 = sqrt_of_rational(2)


def test_constructor_skips_zero_coefficients():
    assert LaurentPoly({0: 0, 1: 2}) == LaurentPoly.monomial(1, 2)
    zero = LaurentPoly({0: 0, 3: Fraction(0), -1: 0 * SQRT2})
    assert zero == LaurentPoly.zero()
    for p in [LaurentPoly({0: 0, 1: 2}), zero, LaurentPoly({0: Fraction(2, 4), 1: Fraction(4, 6)})]:
        _assert_normal_form(p)


@pytest.mark.parametrize("n, v", [(0, 0), (1, 0), (0, 3), (0, 4), (2, 9), (3, 0)])
def test_state_paths_are_in_normal_form(n, v):
    f = make_state(n, v).wavefunction
    jet = f.jet(2)
    polys = [laguerre(n, 2 * f.s), *(g.poly for g in jet)]
    annihilated = schrodinger_diff(f.s, v).apply(jet).poly
    assert annihilated.is_zero
    polys.append(annihilated)
    if n == 0 and f.s > 0:
        # the lowering operator carries a radical unit and kills the ground state
        lowered = k_minus(f.s, v).apply(f).poly
        assert lowered.is_zero
        polys.append(lowered)
    for p in polys:
        _assert_normal_form(p)


@settings(max_examples=60, deadline=None)
@given(
    laurent_polys(unit=shared_unit),
    laurent_polys(unit=shared_unit),
    laurent_polys(),
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    st.integers(-30, 30).filter(bool),
    st.integers(-3, 3),
    diff_ops(),
    diff_ops(),
)
def test_stored_form_is_normal(a, b, c, q, r, d, op, op2):
    f = WeightedFunction(Fraction(d, 2), a)
    results = [a, a + b, a - b, a - a, (a + b) - b, a * b, a * c, -a, a.shifted(d)]
    results += [a.scaled(q), a.scaled(sqrt_of_rational(r)), a.derivative()]
    results += [f.derivative().poly, op.apply(f).poly, *op.compose(op2).terms.values()]
    for p in results:
        _assert_normal_form(p)


@settings(max_examples=60, deadline=None)
@given(laurent_polys(unit=shared_unit), laurent_polys(unit=shared_unit), laurent_polys())
def test_equal_values_by_different_routes_hash_equal(a, b, c):
    for x, y in [
        ((a + b) - b, a),
        (a * c, c * a),
        (a.scaled(Fraction(2, 3)).scaled(Fraction(3, 2)), a),
        (a.scaled(SQRT2).scaled(SQRT2), a.scaled(2)),
        ((a + b).shifted(2), a.shifted(2) + b.shifted(2)),
    ]:
        assert x == y and hash(x) == hash(y)


def test_equal_values_by_different_routes_examples():
    half_sqrt2 = SQRT2 * Fraction(1, 2)
    routes = [
        LaurentPoly({-1: half_sqrt2, 2: -SQRT2}),
        LaurentPoly({-1: Fraction(1, 2), 2: -1}).scaled(SQRT2),
        LaurentPoly({-1: 3, 2: -6}).scaled(sqrt_of_rational(Fraction(1, 18))),
        LaurentPoly.monomial(-1, half_sqrt2) + LaurentPoly.monomial(2, -SQRT2),
        LaurentPoly({-1: SQRT2}) * LaurentPoly({0: Fraction(1, 2), 3: -1}),
    ]
    for p in routes:
        assert p == routes[0] and hash(p) == hash(routes[0])
    assert str(routes[0]) == "1/2*sqrt(2)*y^-1 + -1*sqrt(2)*y^2"
    zero = routes[0] - routes[3]
    assert zero == LaurentPoly.zero() and hash(zero) == hash(LaurentPoly.zero())


def test_coefficients_are_radical_scalars():
    i_half = sqrt_of_rational(-1) * Fraction(1, 2)
    p = LaurentPoly({0: i_half, 3: -3 * sqrt_of_rational(-1)})
    assert p.coeff(0) == i_half and isinstance(p.coeff(0), RadicalScalar)
    assert p.coeff(1) == RadicalScalar(0)
    assert dict(p.items()) == {0: i_half, 3: -3 * sqrt_of_rational(-1)}
    assert str(p) == "i*1/2 + i*-3*y^3"
    assert p * p == LaurentPoly({0: Fraction(-1, 4), 3: 3, 6: -9})


def test_multi_term_coefficient_raises():
    # a two-term coefficient such as 1 + sqrt(2) cannot be formed: the sum itself
    # raises before any polynomial entry point sees it
    for build in (
        lambda c: LaurentPoly({0: c}),
        lambda c: LaurentPoly.monomial(2, c),
        lambda c: LaurentPoly.one().scaled(c),
    ):
        with pytest.raises(ArithmeticError):
            build(RadicalScalar(1) + SQRT2)


def test_mixed_units_raise():
    with pytest.raises(ArithmeticError):
        LaurentPoly({0: SQRT2}) + LaurentPoly({1: 1})
    with pytest.raises(ArithmeticError):
        LaurentPoly({0: SQRT2}) - LaurentPoly({0: sqrt_of_rational(-2)})
    with pytest.raises(ArithmeticError):
        LaurentPoly({0: SQRT2, 1: sqrt_of_rational(3)})
    with pytest.raises(ArithmeticError):
        WeightedFunction(Fraction(0), LaurentPoly.one()) + WeightedFunction(
            Fraction(1), LaurentPoly({0: SQRT2})
        )
    # a zero summand carries no unit
    assert LaurentPoly.zero() + LaurentPoly({0: SQRT2}) == LaurentPoly({0: SQRT2})

