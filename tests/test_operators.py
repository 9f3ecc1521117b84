"""Differential operators: application, composition, the ladder family."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsealg import (
    DiffOp,
    LaurentPoly,
    RadicalScalar,
    UndefinedOperatorError,
    WeightedFunction,
    commutator,
    k0_diff,
    k0_prime_composed,
    k0_prime_simplified,
    k_minus,
    k_plus,
    make_state,
    naive_commutator,
    naive_commutator_coefficient,
    schrodinger_diff,
    sqrt_of_rational,
)
from morsealg import operators as operators_module
from morsealg.operators import _shifted_commutator

from _reference import (
    apply_reference,
    commutator_reference,
    compose_reference,
    k0_prime_composed_reference,
    naive_commutator_coefficient_reference,
    naive_commutator_reference,
)
from _strategies import diff_ops, laurent_polys, radical_scalars, shared_unit, weighted_functions


def test_identity_application():
    f = WeightedFunction(Fraction(1, 2), LaurentPoly({0: 2, 3: -1}))
    applied = DiffOp.identity().apply(f)
    assert applied.s == f.s and applied.poly == f.poly


def test_derivative_application_matches_weighted_derivative():
    f = WeightedFunction(Fraction(1, 2), LaurentPoly.one())
    applied = DiffOp.derivative().apply(f)
    assert applied.poly == LaurentPoly({-1: Fraction(1, 2), 0: Fraction(-1, 2)})


def test_zero_operator_application():
    f = WeightedFunction(Fraction(1, 2), LaurentPoly.one())
    assert DiffOp.zero().apply(f).is_zero


def test_compose_derivative_with_reciprocal():
    d = DiffOp.derivative()
    inv_y = DiffOp.multiplication(LaurentPoly({-1: 1}))
    assert commutator(d, inv_y) == DiffOp.multiplication(LaurentPoly({-2: -1}))
    inv_y2 = DiffOp.multiplication(LaurentPoly({-2: 1}))
    assert commutator(d, inv_y2) == DiffOp.multiplication(LaurentPoly({-3: -2}))


def test_compose_euler_operator_squared():
    y_d = DiffOp({1: LaurentPoly({1: 1})})
    assert y_d.compose(y_d) == DiffOp({2: LaurentPoly({2: 1}), 1: LaurentPoly({1: 1})})


def test_compose_with_identity():
    op = DiffOp({2: LaurentPoly({1: 1}), 0: LaurentPoly({-1: 3})})
    assert DiffOp.identity().compose(op) == op
    assert op.compose(DiffOp.identity()) == op


def test_commutator_with_itself_vanishes():
    op = DiffOp({1: LaurentPoly({0: 1, 1: 2}), 0: LaurentPoly({-1: 1})})
    assert commutator(op, op).is_zero


@pytest.mark.parametrize(
    "order, exponent, expected",
    [
        # d^3 y^2 = y^2 d^3 + 6y d^2 + 6 d: the terms i > 2 carry the factor 0
        (3, 2, {3: (2, 1), 2: (1, 6), 1: (0, 6)}),
        # d^2 y^-1 = y^-1 d^2 - 2y^-2 d + 2y^-3: no falling factor vanishes
        (2, -1, {2: (-1, 1), 1: (-2, -2), 0: (-3, 2)}),
    ],
)
def test_compose_derivative_after_monomial(order, exponent, expected):
    op = DiffOp.derivative(order).compose(DiffOp.multiplication(LaurentPoly.monomial(exponent)))
    assert op == DiffOp({k: LaurentPoly.monomial(e, c) for k, (e, c) in expected.items()})


def _assert_normal_form(op: DiffOp) -> None:
    """No zero numerator, gcd(den, *nums) == 1, the rational unit for zero,
    and the same operator rebuilt from its coefficients."""
    nums = list(op._num.values())
    assert all(nums) and op._den > 0
    assert math.gcd(op._den, *nums) == 1
    if not nums:
        assert op._unit == (1, 0)
    assert DiffOp(op.terms) == op


@settings(max_examples=100, deadline=None)
@given(
    diff_ops(max_order=3, unit=shared_unit),
    diff_ops(max_order=3, unit=shared_unit),
    diff_ops(max_order=2),
    radical_scalars(),
)
def test_operator_results_are_in_normal_form(a, b, c, q):
    results = [a, a + b, a - b, a - a, (a + b) - b, -a, a.scaled(q), a.scaled(0)]
    results += [a.compose(c), c.compose(a), a.compose(a - a), commutator(a, c), commutator(a, a)]
    for op in results:
        _assert_normal_form(op)


def test_constructor_skips_zero_coefficients():
    op = DiffOp({0: LaurentPoly.zero(), 1: LaurentPoly({0: Fraction(4, 6), 2: 0})})
    assert op == DiffOp.derivative().scaled(Fraction(2, 3))
    for op in [op, DiffOp({0: LaurentPoly.zero()}), DiffOp({2: LaurentPoly({-1: 0, 1: 6})})]:
        _assert_normal_form(op)


# v = 0 zeroes the -v/2, v/2 and -4v/y numerators, s = +-1/2 the ladder
# brackets' d/dy and 1/y numerators, s = +-1 a ladder prefactor
@pytest.mark.parametrize("v", [0, 1, 4])
@pytest.mark.parametrize(
    "s", [Fraction(-1, 2), Fraction(1, 2), -1, 1, Fraction(-3, 2), Fraction(5, 2), 0]
)
def test_gate_results_are_in_normal_form(s, v):
    s = Fraction(s)
    ops = [schrodinger_diff(s, v), k0_diff(s, v), k0_prime_simplified(s, v)]
    if s:
        ops += [k_plus(s, v), k_minus(s, v), naive_commutator(s, v)]
    for op in ops:
        _assert_normal_form(op)
    if s == -1 or s == 1:
        assert (k_plus if s == 1 else k_minus)(s, v).is_zero


def test_lowering_construction_at_half():
    op = k_minus(Fraction(1, 2), 2)
    r3 = sqrt_of_rational(3)
    assert op == DiffOp(
        {
            1: LaurentPoly({0: -2 * r3}),
            0: LaurentPoly({-1: r3, 0: -r3}),
        }
    )


def test_lowering_degenerates_to_zero_operator():
    assert k_minus(Fraction(-1, 2), 0).is_zero


def test_raising_construction_at_three_halves():
    op = k_plus(Fraction(3, 2), 4)
    pref = sqrt_of_rational(Fraction(1, 3))
    assert op == DiffOp(
        {
            1: LaurentPoly({0: 2 * pref}),
            0: LaurentPoly({-1: 3 * pref, 0: -2 * pref}),
        }
    )


def test_raising_degenerates_to_scalar():
    op = k_plus(Fraction(1, 2), 2)
    i = sqrt_of_rational(-1)
    assert op == DiffOp({0: LaurentPoly({0: -i})})


def test_ladder_constructors_undefined_at_zero():
    with pytest.raises(UndefinedOperatorError):
        k_minus(Fraction(0), 5)
    with pytest.raises(UndefinedOperatorError):
        k_plus(Fraction(0), 5)


# The paper's literal forms of the four Morse constructors: Fraction
# coefficients, each ladder coefficient multiplied by its RadicalScalar
# prefactor.  They share no code with the integer-built constructors.
def _k_plus_reference(s: Fraction, v) -> DiffOp:
    if s == 0:
        raise UndefinedOperatorError("raising operator undefined at s = 0")
    pref = sqrt_of_rational((s - 1) / s)
    return DiffOp(
        {
            1: LaurentPoly({0: pref * (2 * s - 1)}),
            0: LaurentPoly({-1: pref * (s * (2 * s - 1)), 0: pref * Fraction(-v, 2)}),
        }
    )


def _k_minus_reference(s: Fraction, v) -> DiffOp:
    if s == 0:
        raise UndefinedOperatorError("lowering operator undefined at s = 0")
    pref = -sqrt_of_rational((s + 1) / s)
    return DiffOp(
        {
            1: LaurentPoly({0: pref * (2 * s + 1)}),
            0: LaurentPoly({-1: pref * (-s * (2 * s + 1)), 0: pref * Fraction(v, 2)}),
        }
    )


def _schrodinger_reference(s: Fraction, v) -> DiffOp:
    return DiffOp(
        {
            2: LaurentPoly({1: 1}),
            1: LaurentPoly({0: 1}),
            0: LaurentPoly({-1: -s * s, 1: Fraction(-1, 4), 0: Fraction(v) / 2}),
        }
    )


def _k0_prime_simplified_reference(s: Fraction, v) -> DiffOp:
    return DiffOp(
        {
            2: LaurentPoly({0: -8 * s}),
            1: LaurentPoly({-1: -8 * s}),
            0: LaurentPoly({-2: 8 * s**3, -1: -4 * s * Fraction(v)}),
        }
    )


_REFERENCES = [
    (k_plus, _k_plus_reference),
    (k_minus, _k_minus_reference),
    (schrodinger_diff, _schrodinger_reference),
    (k0_prime_simplified, _k0_prime_simplified_reference),
]


def _assert_matches_reference(s: Fraction, v) -> None:
    for built, reference in _REFERENCES:
        try:
            expected = reference(s, v)
        except UndefinedOperatorError as e:
            with pytest.raises(UndefinedOperatorError, match=re.escape(str(e))):
                built(s, v)
            continue
        op = built(s, v)
        assert op == expected and str(op) == str(expected), (built.__name__, s, v)


def test_constructors_match_the_literal_forms_at_half_integer_weights():
    # every weight s = a/2 with |a| <= 600 at two depths that cycle through
    # 0..40, and every depth 0..40 across the band |s| <= 20
    for a in range(-600, 601):
        s = Fraction(a, 2)
        for v in range(41) if abs(a) <= 40 else (a % 41, Fraction(a % 41, 3)):
            _assert_matches_reference(s, v)


def test_constructors_match_the_literal_forms_at_rational_parameters():
    rng = random.Random(8)
    weights = [Fraction(rng.randint(-300, 300), rng.randint(1, 7)) for _ in range(50)]
    depths = [*range(41), Fraction(1, 3), Fraction(-7, 2), Fraction(22, 7), Fraction(40, 6), -5]
    for s in weights:
        for v in depths:
            _assert_matches_reference(s, v)


def test_constructors_at_degenerate_points():
    for v in (0, 3, Fraction(5, 2)):
        # the ladder constructors raise with the reference's message
        _assert_matches_reference(Fraction(0), v)
        assert k0_prime_simplified(Fraction(0), v).is_zero
        # the prefactor sqrt((s - 1)/s) or sqrt((s + 1)/s) vanishes
        assert k_plus(Fraction(1), v).is_zero and k_minus(Fraction(-1), v).is_zero
        for s in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)):
            _assert_matches_reference(s, v)
    # at s = 1/2 (k_plus) and s = -1/2 (k_minus) the factor 2s -/+ 1 drops d/dy
    assert k_plus(Fraction(1, 2), 3).max_order == 0
    assert k_minus(Fraction(-1, 2), 3).max_order == 0
    assert k_plus(Fraction(-1, 2), 3).max_order == k_minus(Fraction(1, 2), 3).max_order == 1
    # at v = 0 no constant term is stored
    for build in (k_plus, k_minus, schrodinger_diff):
        assert build(Fraction(5, 2), 0).coeff(0).coeff(0) == 0
        assert build(Fraction(5, 2), 1).coeff(0).coeff(0) != 0
    assert k0_prime_simplified(Fraction(5, 2), 0).coeff(0).coeff(-1) == 0


def test_constructors_stay_on_the_integer_path(monkeypatch):
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # the prefactors come from integer square roots, never sqrt_of_rational
    assert not hasattr(operators_module, "sqrt_of_rational")
    counting(RadicalScalar, "__mul__")
    counting(RadicalScalar, "__rmul__")
    counting(DiffOp, "scaled")
    cells = [(Fraction(v - 2 * n - 1, 2), v) for n in range(20) for v in range(50)]
    for s, v in cells:
        schrodinger_diff(s, v), k0_prime_simplified(s, v)
        if s:
            k_plus(s, v), k_minus(s, v), naive_commutator_coefficient(s)
    assert len(cells) == 1000 and calls == []
    # the wrappers count: the reference pays a radical product per coefficient
    _k_plus_reference(Fraction(5, 2), 3)
    assert calls


def test_diagonal_operator_form():
    op = k0_diff(Fraction(1, 2), 0)
    assert op == DiffOp(
        {
            2: LaurentPoly({1: 1}),
            1: LaurentPoly({0: 1}),
            0: LaurentPoly({-1: Fraction(-1, 4), 1: Fraction(-1, 4), 0: Fraction(1, 2)}),
        }
    )
    assert k0_diff(Fraction(0), 0).coeff(0).coeff(-1) == RadicalScalar(0)


# every cell (n, v) with n <= 20, v <= 40, as (n, v, s)
GRID = [(n, v, Fraction(v - 2 * n - 1, 2)) for n in range(21) for v in range(41)]


def test_stationary_minus_diagonal_is_scalar():
    for n, v, s in GRID:
        delta = schrodinger_diff(s, v) - k0_diff(s, n)
        expected = Fraction(v, 2) - n - Fraction(1, 2)
        assert delta == DiffOp({0: LaurentPoly({0: expected})}), (n, v)


def test_simplified_commutator_is_scaled_stationary_operator():
    # k0' = -(8s/y) o (stationary operator) - 2s: the closed form and the
    # stationary operator are written independently, so this ties them exactly
    for n, v, s in GRID:
        lhs = DiffOp.multiplication(LaurentPoly({-1: -8 * s})).compose(schrodinger_diff(s, v))
        lhs = lhs - DiffOp.multiplication(LaurentPoly.constant(2 * s))
        assert k0_prime_simplified(s, v) == lhs, (n, v)


def test_stationary_operator_annihilates_states():
    for n, v in [(0, 2), (0, 1), (1, 4), (2, 9), (3, 0)]:
        state = make_state(n, v)
        assert schrodinger_diff(state.wavefunction.s, v).apply(state.wavefunction).is_zero


def test_simplified_commutator_zero_at_s_zero():
    assert k0_prime_simplified(Fraction(0), 7).is_zero


def test_simplified_commutator_form_at_half():
    op = k0_prime_simplified(Fraction(1, 2), 2)
    assert op == DiffOp(
        {
            2: LaurentPoly({0: -4}),
            1: LaurentPoly({-1: -4}),
            0: LaurentPoly({-2: 1, -1: -4}),
        }
    )


def test_composed_commutator_matches_simplified_outside_unit_band():
    for s, v in [(Fraction(3, 2), 6), (Fraction(5, 2), 9), (Fraction(-3, 2), 0), (Fraction(-7, 2), 11), (Fraction(2), 4), (Fraction(-2), 7)]:
        assert k0_prime_composed(s, v) == k0_prime_simplified(s, v)


def test_composed_commutator_undefined_inside_unit_band():
    for s in (Fraction(-1), Fraction(0), Fraction(1)):
        with pytest.raises(UndefinedOperatorError):
            k0_prime_composed(s, 5)


def test_composed_commutator_extra_constant_at_half_weights():
    # at s = 1/2 and s = -1/2 one prefactor product is i*i = -1, which turns
    # a cancellation into a doubling: composed - simplified = s*v^2 exactly
    for s in (Fraction(1, 2), Fraction(-1, 2)):
        for v in (0, 1, 2, 3, 7, 12):
            diff = k0_prime_composed(s, v) - k0_prime_simplified(s, v)
            expected = LaurentPoly({0: s * v * v})
            assert diff == DiffOp.multiplication(expected), (s, v)


def test_composed_equals_simplified_at_minus_half_zero_depth():
    assert k0_prime_composed(Fraction(-1, 2), 0) == k0_prime_simplified(Fraction(-1, 2), 0)


def test_naive_commutator_is_pure_multiplication():
    op = naive_commutator(Fraction(2), 5)
    coeff = RadicalScalar(-30) * sqrt_of_rational(3)
    assert op == DiffOp.multiplication(LaurentPoly({-2: coeff}))
    # depth independence
    assert naive_commutator(Fraction(2), 99) == op


def test_naive_commutator_zero_cases():
    assert naive_commutator(Fraction(1), 4).is_zero
    assert naive_commutator(Fraction(-1), 4).is_zero
    assert naive_commutator(Fraction(1, 2), 3).is_zero
    assert naive_commutator(Fraction(-1, 2), 8).is_zero


def test_naive_commutator_undefined_at_zero():
    with pytest.raises(UndefinedOperatorError):
        naive_commutator(Fraction(0), 3)


def test_naive_coefficient_matches_closed_form_for_large_positive_s():
    for s in (Fraction(3, 2), Fraction(2), Fraction(7, 2), Fraction(10)):
        literal = sqrt_of_rational(s * s - 1) * (2 * (1 - 4 * s * s))
        assert naive_commutator_coefficient(s) == literal


def test_naive_coefficient_flips_sign_for_large_negative_s():
    for s in (Fraction(-3, 2), Fraction(-2), Fraction(-9, 2)):
        literal = sqrt_of_rational(s * s - 1) * (2 * (1 - 4 * s * s))
        assert naive_commutator_coefficient(s) == -literal


def test_naive_coefficient_agrees_with_operator():
    for s, v in [(Fraction(3, 2), 4), (Fraction(-5, 2), 9), (Fraction(3), 1)]:
        expected = DiffOp.multiplication(LaurentPoly({-2: naive_commutator_coefficient(s)}))
        assert naive_commutator(s, v) == expected


def test_operator_rendering():
    op = k0_prime_simplified(Fraction(1, 2), 2)
    assert str(op) == "(1*y^-2 + -4*y^-1) + (-4*y^-1)*d/dy + (-4)*d2/dy2"
    assert str(DiffOp.zero()) == "0"


def test_rejects_negative_order():
    with pytest.raises(ValueError):
        DiffOp({-1: LaurentPoly.one()})


@settings(max_examples=50, deadline=None)
@given(diff_ops(), weighted_functions(unit=shared_unit), st.integers(-2, 2), st.data())
def test_linearity(op, f, offset, data):
    g = WeightedFunction(f.s + offset, data.draw(laurent_polys(unit=shared_unit)))
    lhs = op.apply(f + g)
    rhs = op.apply(f) + op.apply(g)
    assert lhs.compare(rhs).name == "EQUAL"


@settings(max_examples=50, deadline=None)
@given(diff_ops(max_order=2), diff_ops(max_order=2), weighted_functions())
def test_composition_soundness(a, b, f):
    assert a.compose(b).apply(f).compare(a.apply(b.apply(f))).name == "EQUAL"


def _assert_no_zero_coefficient(x):
    """Normal form all the way down: no stored coefficient is zero."""
    if isinstance(x, WeightedFunction):
        x = x.poly
    if isinstance(x, DiffOp):
        for p in x.terms.values():
            assert p
            _assert_no_zero_coefficient(p)
    elif isinstance(x, LaurentPoly):
        for _, c in x.items():
            assert c
            _assert_no_zero_coefficient(c)
    else:
        assert all(x.terms.values())


@settings(max_examples=50, deadline=None)
@given(
    laurent_polys(unit=shared_unit),
    laurent_polys(unit=shared_unit),
    diff_ops(unit=shared_unit),
    diff_ops(unit=shared_unit),
    st.data(),
)
def test_no_zero_coefficient_is_stored(p, q, a, b, data):
    results = [p + q, p - q, p - p, (p + q) - q, p * q, p.derivative()]
    results += [a + b, a - b, a - a, (a + b) - b, a.compose(b), commutator(a, a)]
    # at weight s = -e the product rule's c*(e+s) term vanishes for exponent e
    exps = sorted(e for e, _ in p.items()) or [0]
    f = WeightedFunction(Fraction(-data.draw(st.sampled_from(exps))), p)
    results += [f.derivative(), (f - f).derivative(), a.apply(f)]
    for x in results:
        _assert_no_zero_coefficient(x)


# a few units, so that independently drawn coefficients sometimes share one
_few_units = st.sampled_from([1, 2, -2]).map(sqrt_of_rational)


@st.composite
def _mixed_unit_terms(draw, max_order: int = 3) -> dict[int, LaurentPoly]:
    """Each order's coefficient with its own unit: DiffOp may refuse them."""
    terms = {}
    for order in range(max_order + 1):
        if draw(st.booleans()):
            terms[order] = draw(laurent_polys(min_exp=-2, max_exp=2, max_terms=2, unit=_few_units))
    return terms


def _unit(p: LaurentPoly) -> tuple[int, int]:
    """The radical unit every coefficient of p carries; p != 0."""
    _, c = p.items()[0]
    (unit,) = c.terms
    return unit


def _op_or_none(terms: dict[int, LaurentPoly]) -> DiffOp | None:
    """DiffOp(terms), or None where two nonzero coefficients differ in unit,
    which must be exactly where the constructor raises ArithmeticError."""
    if len({_unit(p) for p in terms.values() if p}) > 1:
        with pytest.raises(ArithmeticError):
            DiffOp(terms)
        return None
    return DiffOp(terms)


@settings(max_examples=150, deadline=None)
@given(diff_ops(max_order=3), weighted_functions(), st.integers(0, 4))
def test_apply_matches_reference(op, f, jet_order):
    expected = apply_reference(op, f)
    assert op.apply(f) == expected
    # a jet of any length gives the same result, shorter ones extended
    assert op.apply(f.jet(jet_order)) == expected


@settings(max_examples=150, deadline=None)
@given(_mixed_unit_terms(), weighted_functions(unit=_few_units))
def test_apply_with_mixed_units_matches_reference(terms, f):
    # an operator has one unit, so its application sums whatever f's unit
    op = _op_or_none(terms)
    if op is not None:
        assert op.apply(f) == apply_reference(op, f)
        assert op.apply(f.jet(op.max_order)) == apply_reference(op, f)


def test_apply_raises_on_terms_with_different_units():
    sqrt2 = LaurentPoly.constant(sqrt_of_rational(2))
    # coefficients of different units make no operator, in any order
    with pytest.raises(ArithmeticError):
        DiffOp({0: LaurentPoly.one(), 1: sqrt2})
    with pytest.raises(ArithmeticError):
        DiffOp({1: sqrt2, 0: LaurentPoly.one()})
    with pytest.raises(ArithmeticError):
        DiffOp.identity() + DiffOp({1: sqrt2})
    # a zero coefficient carries no unit
    assert DiffOp({0: LaurentPoly.zero(), 1: sqrt2}) == DiffOp({1: sqrt2})
    # one unit for the operator and another for f: the sum has their product
    f = WeightedFunction(Fraction(1, 2), LaurentPoly.constant(sqrt_of_rational(-3)))
    op = DiffOp({0: sqrt2, 1: sqrt2})
    assert op.apply(f) == apply_reference(op, f)
    assert op.apply(f.jet(1)) == apply_reference(op, f)
    assert op.apply(WeightedFunction(Fraction(1, 2), LaurentPoly.zero())).is_zero


def _outcome(fn, *args):
    """fn(*args), or the type of the ArithmeticError it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(diff_ops(max_order=3), diff_ops(max_order=3))
def test_compose_matches_reference(a, b):
    # a and b draw their radical units independently
    assert _outcome(a.compose, b) == _outcome(compose_reference, a, b)
    assert _outcome(b.compose, a) == _outcome(compose_reference, b, a)


@settings(max_examples=150, deadline=None)
@given(diff_ops(max_order=3), diff_ops(max_order=3))
def test_commutator_matches_reference(a, b):
    expected = commutator_reference(a, b)
    assert commutator(a, b) == expected
    assert commutator(a, b) == a.compose(b) - b.compose(a)
    assert commutator(b, a) == -expected


def _shifted_reference(a: DiffOp, b: DiffOp, c: DiffOp, d: DiffOp) -> DiffOp:
    return compose_reference(a, b) - compose_reference(c, d)


@settings(max_examples=150, deadline=None)
@given(_mixed_unit_terms(), _mixed_unit_terms(), diff_ops(max_order=2, unit=_few_units), st.data())
def test_compose_with_mixed_units_matches_reference(a_terms, b_terms, c, data):
    a, b = _op_or_none(a_terms), _op_or_none(b_terms)
    if a is None or b is None:
        return
    assert a.compose(b) == compose_reference(a, b)
    assert commutator(a, b) == commutator_reference(a, b)
    # two pairs: their units multiply pair by pair, and a difference raises
    d = data.draw(diff_ops(max_order=2, unit=_few_units))
    shifted = _outcome(_shifted_commutator, a, b, c, d)
    assert shifted == _outcome(_shifted_reference, a, b, c, d)


def test_compose_raises_on_terms_with_different_units():
    sqrt2 = LaurentPoly.constant(sqrt_of_rational(2))
    with pytest.raises(ArithmeticError):
        DiffOp({0: LaurentPoly.one(), 1: sqrt2})
    # d after sqrt(2) and 1 after 1: the pairs' units differ
    a, b = DiffOp.derivative(), DiffOp.multiplication(sqrt2)
    one = DiffOp.identity()
    with pytest.raises(ArithmeticError):
        _shifted_commutator(a, b, one, one)
    with pytest.raises(ArithmeticError):
        _shifted_reference(a, b, one, one)
    # pairs with one unit product, sqrt(2) * sqrt(2) and 2, are added
    assert _shifted_commutator(b, b, one, one.scaled(2)).is_zero
    # a zero pair adds nothing, whatever the unit of its other factor
    assert _shifted_commutator(a, b, DiffOp.zero(), one) == a.compose(b)


def _beyond_grid_weights() -> list[tuple[Fraction, Fraction | int]]:
    """(s, v) of cells sampled up to n = 300, v = 650, plus non-grid rationals."""
    rng = random.Random(14)
    out = []
    for _ in range(40):
        n, v = rng.randint(0, 300), rng.randint(0, 650)
        out.append((Fraction(v - 2 * n - 1, 2), v))
    for s in (Fraction(1, 3), Fraction(-1, 3), Fraction(2, 5), Fraction(-7, 9)):
        out += [(s, 4), (s, Fraction(7, 3)), (s, 0)]
    out += [(Fraction(5, 3), Fraction(-2, 7)), (Fraction(-11, 4), Fraction(9, 5))]
    return out


def test_composed_and_naive_commutators_match_reference_beyond_the_grid():
    for s, v in _beyond_grid_weights():
        if s not in (-1, 0, 1):
            assert k0_prime_composed(s, v) == k0_prime_composed_reference(s, v), (s, v)
        if s != 0:
            assert naive_commutator(s, v) == naive_commutator_reference(s, v), (s, v)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-400, max_value=400, max_denominator=12).filter(bool))
def test_naive_coefficient_matches_reference(s):
    assert naive_commutator_coefficient(s) == naive_commutator_coefficient_reference(s)


def test_naive_coefficient_matches_reference_at_its_zeros_and_the_grid():
    weights = [Fraction(k, 2) for k in range(-801, 802) if k]
    weights += [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
    for s in weights:
        assert naive_commutator_coefficient(s) == naive_commutator_coefficient_reference(s), s


def test_jet_takes_each_derivative_once():
    f = make_state(3, 10).wavefunction
    jet = f.jet(2)
    assert jet == (f, f.derivative(), f.derivative().derivative())
    assert f.jet(0) == (f,)
