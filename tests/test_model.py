"""Weight exponent, Laguerre polynomials, normalization, states, constants."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsealg import (
    LaurentPoly,
    NonBoundError,
    PhysicalParams,
    RadicalScalar,
    laguerre,
    make_state,
    normalization,
    physical_map,
    sqrt_of_rational,
    weight_exponent,
)
from morsealg.model import wavefunction


def test_quantum_numbers_examples():
    assert weight_exponent(0, 2) == Fraction(1, 2)
    assert weight_exponent(0, 1) == 0
    assert weight_exponent(50, 0) == Fraction(-101, 2)


def test_quantum_numbers_reject_negative_indices():
    with pytest.raises(ValueError):
        weight_exponent(-1, 0)
    with pytest.raises(ValueError):
        weight_exponent(0, -3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100))
def test_physical_flag_matches_half_plane(n, v):
    s = weight_exponent(n, v)
    assert 2 * s == v - 2 * n - 1
    assert (s >= 0) == (v >= 2 * n + 1)


def test_laguerre_examples():
    assert laguerre(0, Fraction(7, 3)) == LaurentPoly.one()
    assert laguerre(1, 1) == LaurentPoly({0: 2, 1: -1})
    assert laguerre(2, -3) == LaurentPoly({0: 1, 1: 1, 2: Fraction(1, 2)})


def test_laguerre_rejects_negative_degree():
    with pytest.raises(ValueError):
        laguerre(-1, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(101, 160), st.integers(-321, 160))
def test_laguerre_of_an_int_equals_laguerre_of_its_fraction(n, k):
    # the int path builds no Fraction; beyond the grid, 2s = v - 2n - 1
    # spans -2n - 1 .. v - 1, and so does k
    assert laguerre(n, k) == laguerre(n, Fraction(k))


@settings(max_examples=40, deadline=None)
@given(st.integers(101, 160), st.integers(101, 160))
def test_wavefunction_takes_2s_as_an_int(n, v):
    s = weight_exponent(n, v)
    assert wavefunction(n, v) == (s, laguerre(n, 2 * s))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10), st.fractions(min_value=-10, max_value=10, max_denominator=6))
def test_laguerre_degree_and_leading_coefficient(n, alpha):
    p = laguerre(n, alpha)
    assert p.max_exponent == n
    lead = Fraction((-1) ** n)
    for k in range(1, n + 1):
        lead /= k
    assert p.coeff(n) == lead


def _laguerre_reference(n: int, alpha: Fraction) -> LaurentPoly:
    """L_n^alpha by the Fraction sum formula with generalized binomials:
    sum_k (-1)^k * C(n+alpha, n-k) * y^k / k!."""
    coeffs = {}
    binom = Fraction(1)  # C(n+alpha, n-k), built from k=n downward
    kfact = math.factorial(n)
    for k in range(n, -1, -1):
        c = binom / kfact
        coeffs[k] = -c if k % 2 else c
        if k:
            binom = binom * (alpha + k) / (n - k + 1)
            kfact //= k
    return LaurentPoly(coeffs)


def test_laguerre_matches_fraction_sum_formula():
    # every integer alpha the grid can reach at degree n (2s >= -2n - 1),
    # then seeded rational alpha; the reference shares no code with laguerre
    for n in range(41):
        for alpha in range(-2 * n - 1, 2 * n + 41):
            assert laguerre(n, alpha) == _laguerre_reference(n, Fraction(alpha)), (n, alpha)
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(0, 40)
        alpha = Fraction(rng.randint(-200, 200), rng.randint(1, 12))
        assert laguerre(n, alpha) == _laguerre_reference(n, alpha), (n, alpha)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.fractions(min_value=-10, max_value=10, max_denominator=6))
def test_laguerre_three_term_recurrence(n, alpha):
    lhs = laguerre(n + 1, alpha).scaled(n + 1)
    middle = LaurentPoly({0: 2 * n + 1 + alpha, 1: -1}) * laguerre(n, alpha)
    rhs = middle - laguerre(n - 1, alpha).scaled(n + alpha)
    assert lhs == rhs


def test_normalization_examples():
    assert normalization(0, 2) == RadicalScalar(1)
    assert normalization(1, 5) == sqrt_of_rational(Fraction(1, 3))
    assert str(normalization(1, 5)) == "1/3*sqrt(3)"
    assert normalization(2, 5) is None


def test_normalization_undefined_on_factorial_pole():
    assert normalization(3, 2) is None
    assert normalization(0, 0) is None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40))
def test_normalization_defined_exactly_on_ladder_domain(n, v):
    defined = normalization(n, v) is not None
    assert defined == (v >= 2 * n + 2)


def test_make_state_examples():
    st02 = make_state(0, 2)
    assert st02.wavefunction.s == Fraction(1, 2)
    assert st02.wavefunction.poly == LaurentPoly.one()
    assert st02.normalization == RadicalScalar(1)

    st14 = make_state(1, 4)
    assert st14.wavefunction.s == Fraction(1, 2)
    assert st14.wavefunction.poly == LaurentPoly({0: 2, 1: -1})

    st10 = make_state(1, 0)
    assert st10.wavefunction.s == Fraction(-3, 2)
    assert st10.wavefunction.poly == LaurentPoly({0: -2, 1: -1})
    assert st10.normalization is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30))
def test_state_poly_degree_is_n(n, v):
    state = make_state(n, v)
    assert state.wavefunction.poly.max_exponent == n
    if state.normalization is not None:
        assert state.wavefunction.poly.coeff(0) != 0


def test_physical_map_well_depth_for_two_levels():
    params = PhysicalParams(v0=0.5, beta=1.0, mass=1.0, hbar=1.0)
    v, s, e = physical_map(params, 0)
    assert v == pytest.approx(2.0)
    assert s == pytest.approx(0.5)
    assert e == pytest.approx(-0.125)


def test_physical_map_threshold_level_has_zero_energy():
    # constants putting v exactly at 2n + 1
    params = PhysicalParams(v0=9.0 / 8.0, beta=1.0, mass=1.0, hbar=1.0)
    v, s, e = physical_map(params, 1)
    assert v == pytest.approx(3.0)
    assert s == pytest.approx(0.0)
    assert e == pytest.approx(0.0)


def test_physical_map_non_bound_level():
    params = PhysicalParams(v0=0.5, beta=1.0, mass=1.0, hbar=1.0)
    with pytest.raises(NonBoundError):
        physical_map(params, 1)


@pytest.mark.parametrize(
    "v0, beta, mass, error, message",
    [
        (1.0, 1.0, 1.0, NonBoundError, "not bound"),
        # v overflows to inf: rejected as not finite before n is compared
        (1e308, 1e-308, 1e308, ValueError, "finite"),
    ],
)
def test_physical_map_rejects_a_level_beyond_float_range(v0, beta, mass, error, message):
    params = PhysicalParams(v0=v0, beta=beta, mass=mass, hbar=1.0)
    with pytest.raises(error, match=message):
        physical_map(params, 10**400)


def test_physical_map_rejects_bad_constants():
    with pytest.raises(ValueError):
        physical_map(PhysicalParams(v0=-1.0, beta=1.0, mass=1.0, hbar=1.0), 0)
    with pytest.raises(ValueError):
        physical_map(PhysicalParams(v0=1.0, beta=0.0, mass=1.0, hbar=1.0), 0)


@pytest.mark.parametrize(
    "v0, beta, mass, hbar",
    [
        (math.nan, 1.0, 1.0, 1.0),
        (math.inf, 1.0, 1.0, 1.0),
        (1.0, 1.0, math.inf, 1.0),
        (1.0, 1.0, 1.0, -math.inf),
        (1e308, 1e-308, 1e308, 1.0),  # finite constants, v overflows to inf
        (1.0, 1e-170, 1.0, 1e-170),  # beta * hbar underflows to 0.0
    ],
)
def test_physical_map_rejects_non_finite_values(v0, beta, mass, hbar):
    with pytest.raises(ValueError, match="finite") as exc:
        physical_map(PhysicalParams(v0=v0, beta=beta, mass=mass, hbar=hbar), 0)
    assert not isinstance(exc.value, NonBoundError)
