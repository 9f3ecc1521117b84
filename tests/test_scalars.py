"""Exact scalar layer: radicals, normal form, serialization."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsealg import (
    DiffOp,
    LaurentPoly,
    NotRationalError,
    RadicalScalar,
    WeightedFunction,
    k0_diff,
    k0_prime_composed,
    k0_prime_simplified,
    k_minus,
    k_plus,
    laguerre,
    naive_commutator,
    naive_commutator_coefficient,
    schrodinger_diff,
    sqrt_of_rational,
)
from morsealg.scalars import _ratio, _sqrt_unit, accumulate

from _numeric import to_complex
from _strategies import nonzero_fractions, radical_scalars, shared_unit, small_fractions


def test_sqrt_of_perfect_square_is_rational():
    assert sqrt_of_rational(Fraction(9, 4)) == RadicalScalar(Fraction(3, 2))
    assert sqrt_of_rational(Fraction(9, 4)).is_rational


def test_sqrt_of_minus_one_is_imaginary_unit():
    i = sqrt_of_rational(-1)
    assert i.terms == {(1, 1): Fraction(1)}
    assert i * i == RadicalScalar(-1)


def test_sqrt_of_one_third():
    x = sqrt_of_rational(Fraction(1, 3))
    assert str(x) == "1/3*sqrt(3)"
    assert x * x == Fraction(1, 3)


def test_sqrt_of_zero():
    assert sqrt_of_rational(0) == RadicalScalar(0)
    assert not sqrt_of_rational(0)


def test_product_of_equal_radicals():
    r3 = sqrt_of_rational(3)
    assert r3 * r3 == RadicalScalar(3)


def test_product_of_reciprocal_radicals():
    assert sqrt_of_rational(Fraction(1, 2)) * sqrt_of_rational(2) == RadicalScalar(1)


def test_squarefree_extraction_in_products():
    # sqrt(6) * sqrt(10) = 2 sqrt(15)
    prod = sqrt_of_rational(6) * sqrt_of_rational(10)
    assert prod.terms == {(15, 0): Fraction(2)}


def test_addition_collects_matching_radicands():
    r3 = sqrt_of_rational(3)
    assert r3 + r3 * 2 == r3 * 3
    assert sqrt_of_rational(2) - sqrt_of_rational(2) == RadicalScalar(0)
    assert RadicalScalar(Fraction(1, 2)) + Fraction(1, 3) == Fraction(5, 6)


def test_as_rational():
    assert RadicalScalar(3).as_rational() == 3
    assert RadicalScalar(0).as_rational() == 0
    with pytest.raises(NotRationalError):
        sqrt_of_rational(3).as_rational()
    with pytest.raises(NotRationalError):
        sqrt_of_rational(-4).as_rational()


def test_mixed_int_and_fraction_operands():
    x = sqrt_of_rational(2)
    assert 2 * x - x == x
    assert Fraction(1, 2) * x == x * Fraction(1, 2) == x / 2
    y = RadicalScalar(Fraction(1, 3))
    assert 1 + y == y + 1
    assert (1 - y) + (y - 1) == RadicalScalar(0)
    assert Fraction(2, 3) - y == y


def test_division_by_single_term():
    b = sqrt_of_rational(3) * Fraction(2, 3)
    for a in (sqrt_of_rational(3) * Fraction(5, 7), RadicalScalar(2), sqrt_of_rational(-6)):
        assert (a / b) * b == a
    i = sqrt_of_rational(-1)
    assert (i / i) == RadicalScalar(1)


def test_division_by_multi_term_sum_unsupported():
    with pytest.raises(ArithmeticError):
        RadicalScalar(1) / (RadicalScalar(1) + sqrt_of_rational(2))


def test_sum_of_different_units_raises():
    r2 = sqrt_of_rational(2)
    for a, b in [(RadicalScalar(1), r2), (r2, sqrt_of_rational(3)), (r2, sqrt_of_rational(-2))]:
        with pytest.raises(ArithmeticError):
            a + b
        with pytest.raises(ArithmeticError):
            b - a
    with pytest.raises(ArithmeticError):
        1 + r2
    with pytest.raises(ArithmeticError):
        r2 - Fraction(1, 2)
    # zero carries the rational unit and adds to any scalar
    assert RadicalScalar(0) + r2 == r2 + 0 == r2
    assert (r2 - r2).is_rational and r2 - r2 == 0 and hash(r2 - r2) == hash(0)


@pytest.mark.parametrize("value", [0.1, "1/2"])
@pytest.mark.parametrize(
    "call",
    [
        RadicalScalar,
        lambda x: LaurentPoly({0: x}),
        lambda x: LaurentPoly.one().scaled(x),
        lambda x: LaurentPoly.one() * x,
        lambda x: DiffOp.identity().scaled(x),
        lambda x: WeightedFunction(Fraction(0), LaurentPoly.one()) * x,
        lambda x: WeightedFunction(x, LaurentPoly.one()),
        lambda x: WeightedFunction(Fraction(0), LaurentPoly.one())._replace(s=x),
        sqrt_of_rational,
        lambda x: laguerre(2, x),
        lambda x: k_plus(x, 2),
        lambda x: k_minus(x, 2),
        lambda x: k_plus(Fraction(3, 2), x),
        lambda x: schrodinger_diff(x, 2),
        lambda x: schrodinger_diff(2, x),
        lambda x: k0_diff(x, 2),
        lambda x: k0_diff(2, x),
        lambda x: k0_prime_simplified(x, 2),
        lambda x: k0_prime_simplified(2, x),
        lambda x: k0_prime_composed(x, 2),
        lambda x: naive_commutator(x, 2),
        naive_commutator_coefficient,
        _ratio,
    ],
    ids=[
        "scalar", "poly", "poly-scaled", "poly-mul", "op-scaled", "weighted-mul",
        "weighted-s", "weighted-replace", "sqrt", "laguerre", "k_plus", "k_minus",
        "k_plus-v", "schrodinger", "schrodinger-v", "k0_diff", "k0_diff-n",
        "k0_prime_simplified", "k0_prime_simplified-v", "k0_prime_composed",
        "naive_commutator", "naive_coefficient", "ratio",
    ],
)
def test_exact_types_refuse_floats_and_strings(call, value):
    with pytest.raises(TypeError):
        call(value)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RadicalScalar(1) / RadicalScalar(0)


def test_power():
    x = sqrt_of_rational(-2) * Fraction(3, 2)
    assert x**0 == RadicalScalar(1)
    assert x**2 == x * x
    assert x**3 == x * x * x


def test_str_format():
    assert str(RadicalScalar(0)) == "0"
    assert str(RadicalScalar(Fraction(-1, 2))) == "-1/2"
    assert str(sqrt_of_rational(12)) == "2*sqrt(3)"
    assert str(sqrt_of_rational(-1)) == "i*1"
    assert str(sqrt_of_rational(-7) * Fraction(-2, 5)) == "i*-2/5*sqrt(7)"


def test_parse_round_trip_examples():
    for text in ["0", "-1", "1/3*sqrt(3)", "i*1", "i*-2/5*sqrt(7)"]:
        assert str(RadicalScalar.parse(text)) == text


def test_parse_rejects_garbage():
    bad_texts = ["sqrt(x)", "1+", "2**3", "sqrt(2)*sqrt(3)", "1/0x2", ""]
    # a zero denominator, and a sum: a scalar is one term
    bad_texts += ["1/0", "i*1/0*sqrt(2)", "-1+1*sqrt(2)", "1+2"]
    for bad in bad_texts:
        with pytest.raises(ValueError):
            RadicalScalar.parse(bad)


def test_parse_tolerates_surrounding_spaces():
    assert RadicalScalar.parse("  3 ") == RadicalScalar(3)
    assert RadicalScalar.parse(" i*1/2*sqrt(3)\n") == sqrt_of_rational(-3) / 2


def test_parse_reduces_radicands_to_normal_form():
    assert RadicalScalar.parse("1*sqrt(8)") == 2 * sqrt_of_rational(2)
    assert RadicalScalar.parse("i*3*sqrt(12)") == 6 * sqrt_of_rational(-3)
    assert RadicalScalar.parse("2*sqrt(0)") == 0
    assert RadicalScalar.parse("1*sqrt(1000000)") == 1000


def test_parse_rejects_oversized_radicand_before_factoring():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="radicand"):
        RadicalScalar.parse("1*sqrt(1000000000000000000000007)")  # a 25-digit prime
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "text",
    ["1" * 4301, "-" + "1" * 4301, "1/" + "3" * 4301, "2*sqrt(" + "1" * 4301 + ")", "i*" + "9" * 10**5],
    ids=["numerator", "negative", "denominator", "radicand", "imaginary"],
)
def test_parse_refuses_a_digit_run_over_4300_digits_and_caps_the_echo(text):
    with pytest.raises(ValueError) as raised:
        RadicalScalar.parse(text)
    message = str(raised.value)
    assert message == f"malformed scalar: {text[:40]!r}..."
    assert len(message) < 80


def test_parse_reads_4300_digit_runs():
    p, q = int("7" * 4300), int("3" * 4299 + "1")
    assert RadicalScalar.parse(f"-{p}/{q}*sqrt({'0' * 4299}2)") == -Fraction(p, q) * sqrt_of_rational(2)


@pytest.mark.parametrize("t", [0, 1, -1, 2, 10**6, -(10**30)])
def test_ratio_takes_an_int_apart_without_a_fraction(t):
    assert _ratio(t) == (t, 1) and type(_ratio(t)[0]) is int
    assert _ratio(Fraction(t, 6)) == (Fraction(t, 6).numerator, Fraction(t, 6).denominator)


@settings(max_examples=200, deadline=None)
@given(radical_scalars() | st.just(RadicalScalar(0)), st.integers(-10**6, 10**6) | st.just(0))
def test_mul_by_an_int_matches_mul_by_its_fraction(a, k):
    # the int fast path of __mul__ against the general path through _coerce
    expected = a * Fraction(k)
    for got in (a * k, k * a):
        assert got == expected and got.terms == expected.terms
        assert got._unit == expected._unit
    assert (a * k).is_zero == (not a or not k)


@settings(max_examples=150, deadline=None)
@given(st.booleans(), small_fractions, st.integers(0, 10**6))
def test_parse_matches_sqrt_of_rational(imag, q, r):
    text = f"{'i*' if imag else ''}{q}*sqrt({r})"
    expected = q * sqrt_of_rational(r) * (sqrt_of_rational(-1) if imag else 1)
    assert RadicalScalar.parse(text) == expected


def test_to_complex():
    z = to_complex(sqrt_of_rational(2))
    assert z.real == pytest.approx(math.sqrt(2)) and z.imag == 0.0
    z = to_complex(sqrt_of_rational(-9))
    assert z.real == 0.0 and z.imag == pytest.approx(3.0)


@settings(max_examples=100, deadline=None)
@given(small_fractions)
def test_sqrt_squares_back(q):
    assert sqrt_of_rational(q) ** 2 == q


@settings(max_examples=100, deadline=None)
@given(st.fractions(), st.integers())
def test_rational_scalar_hashes_as_the_number_it_equals(q, k):
    for x in (q, k, Fraction(k)):
        scalar = RadicalScalar(x)
        assert scalar == x and hash(scalar) == hash(x)
        assert len({scalar, x}) == 1


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), radical_scalars())
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), radical_scalars(), radical_scalars())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), radical_scalars(unit=shared_unit), radical_scalars(unit=shared_unit))
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(radical_scalars(unit=shared_unit), radical_scalars(unit=shared_unit), radical_scalars())
def test_normal_form_invariants(a, b, c):
    for x in (a, a + b, a - a, (a + b) - b, a * b, a * c):
        # zero carries the rational unit
        assert x or x.is_rational
        for (r, m), q in x.terms.items():
            assert r >= 1
            assert m in (0, 1)
            assert q != 0
            # radicand squarefree: no prime square divides it
            d = 2
            while d * d <= r:
                assert r % (d * d) != 0
                d += 1


@settings(max_examples=60, deadline=None)
@given(radical_scalars())
def test_str_parse_round_trip(a):
    assert RadicalScalar.parse(str(a)) == a


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), radical_scalars())
def test_to_complex_consistent_with_mul(a, b):
    za, zb, zab = to_complex(a), to_complex(b), to_complex(a * b)
    assert zab == pytest.approx(za * zb, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), st.integers(1, 30))
def test_division_inverts_multiplication(a, r):
    b = sqrt_of_rational(r) * Fraction(3, 2)
    assert (a * b) / b == a


# The unit rules written out in full, one copy per operation and with their
# own factoring: the reference that _unit_mul and _sqrt_unit are held to.
# Each works on term maps {(r, m): q}.
def _mul_reference(a: dict, b: dict) -> dict:
    products = []
    for (r1, m1), q1 in a.items():
        for (r2, m2), q2 in b.items():
            q = q1 * q2
            if m1 and m2:
                q = -q  # i*i = -1
            if r1 == r2:
                key = (1, (m1 + m2) % 2)
                q *= r1
            else:
                # r1, r2 squarefree: sqrt(r1)sqrt(r2) = g*sqrt(r1r2/g^2)
                g = math.gcd(r1, r2)
                key = ((r1 // g) * (r2 // g), (m1 + m2) % 2)
                q *= g
            products.append((key, q))
    return accumulate({}, products)


def _div_reference(a: dict, b: dict) -> dict:
    ((r, m), q) = next(iter(b.items()))
    # (q * i^m * sqrt(r))^-1 = (-1)^m / (q*r) * i^m * sqrt(r)
    inv_q = Fraction(1) / (q * r)
    if m:
        inv_q = -inv_q
    return _mul_reference(a, {(r, m): inv_q})


def _sqrt_reference(x: Fraction) -> dict:
    if not x:
        return {}
    m = 0
    if x < 0:
        x = -x
        m = 1
    # sqrt(p/q) = sqrt(p*q)/q, with p*q split as a**2 * r by trial division
    n, a, d = x.numerator * x.denominator, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            a *= d
        d += 1
    return {(n, m): Fraction(a, x.denominator)}


@settings(max_examples=200, deadline=None)
@given(radical_scalars(), radical_scalars())
def test_mul_matches_reference(a, b):
    assert (a * b).terms == _mul_reference(a.terms, b.terms)


@settings(max_examples=200, deadline=None)
@given(radical_scalars(), nonzero_fractions, st.integers(-30, 30).filter(bool))
def test_div_by_single_term_matches_reference(a, q, x):
    b = sqrt_of_rational(x) * q
    assert (a / b).terms == _div_reference(a.terms, b.terms)


@settings(max_examples=200, deadline=None)
@given(small_fractions)
def test_sqrt_of_rational_matches_reference(x):
    assert sqrt_of_rational(x).terms == _sqrt_reference(x)


def test_sqrt_unit_normal_form():
    limit = 5000
    squarefree = [True] * (limit + 1)
    for d in range(2, math.isqrt(limit) + 1):
        squarefree[d * d :: d * d] = [False] * len(squarefree[d * d :: d * d])
    for x in range(-limit, limit + 1):
        if x:
            k, (r, m) = _sqrt_unit(x)
            assert k > 0 and squarefree[r] and k * k * r == abs(x)
            assert m == (1 if x < 0 else 0)
