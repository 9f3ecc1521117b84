"""Earlier, plainer bodies of the exact hot paths, kept as test references.

``DiffOp.apply`` now adds every term over one common denominator in one
pass, and ``extract_eigenvalue`` decides proportionality on integer
numerators.  ``compose``, ``commutator`` and ``k0_prime_composed`` now share
one Leibniz loop over the integer terms c * y^e * d^k of an operator pair,
which never builds a derivative polynomial.  The bodies below are the ones
they replaced: a derivative chain with one ``LaurentPoly`` product and one sum
per order, a comparison of two scaled polynomials, and a Leibniz expansion
with one ``LaurentPoly`` product, scaling and sum per term.
``naive_commutator_coefficient`` now works on the integers of s = a/b; its
reference multiplies two ``sqrt_of_rational`` prefactors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from morsealg import (
    DiffOp,
    EigenResult,
    EigenStatus,
    LaurentPoly,
    RadicalScalar,
    UndefinedOperatorError,
    WeightedFunction,
    ZeroStateError,
    k0_diff,
    k0_prime_simplified,
    k_minus,
    k_plus,
    make_state,
    sqrt_of_rational,
)
from morsealg.scalars import accumulate

_ZERO = RadicalScalar(0)


def apply_reference(op: DiffOp, f: WeightedFunction) -> WeightedFunction:
    if op.is_zero or f.is_zero:
        return WeightedFunction(f.s, LaurentPoly.zero())
    out = LaurentPoly.zero()
    df = f
    for k in range(op.max_order + 1):
        p = op.terms.get(k)
        if p is not None:
            out = out + p * df.poly
        if k < op.max_order:
            df = df.derivative()
    return WeightedFunction(f.s, out)


def compose_reference(a: DiffOp, b: DiffOp) -> DiffOp:
    """a after b by the Leibniz expansion, one polynomial sum per term."""
    terms: list[tuple[int, LaurentPoly]] = []
    for j, aj in a.terms.items():
        for k, bk in b.terms.items():
            bder = bk
            for i in range(j + 1):
                c = aj * bder
                if math.comb(j, i) != 1:
                    c = c.scaled(math.comb(j, i))
                terms.append((j - i + k, c))
                if i < j:
                    bder = bder.derivative()
                    if not bder:
                        break
    return DiffOp(accumulate({}, terms))


def commutator_reference(a: DiffOp, b: DiffOp) -> DiffOp:
    return compose_reference(a, b) - compose_reference(b, a)


def k0_prime_composed_reference(s: Fraction, v: Fraction | int) -> DiffOp:
    if s in (-1, 0, 1):
        raise UndefinedOperatorError(f"composed form undefined at s = {s}")
    lowering_then_raise = compose_reference(k_plus(s + 1, v), k_minus(s, v))
    raising_then_lower = compose_reference(k_minus(s - 1, v), k_plus(s, v))
    return lowering_then_raise - raising_then_lower


def naive_commutator_coefficient_reference(s: Fraction) -> RadicalScalar:
    pref = sqrt_of_rational(Fraction(s - 1, s)) * sqrt_of_rational(Fraction(s + 1, s))
    return pref * (2 * s * (1 - 4 * s * s))


def naive_commutator_reference(s: Fraction, v: Fraction | int) -> DiffOp:
    return commutator_reference(k_plus(s, v), k_minus(s, v))


def extract_reference(result: WeightedFunction, state: WeightedFunction) -> EigenResult:
    if state.is_zero:
        raise ZeroStateError("cannot extract an eigenvalue against the zero function")
    if result.is_zero:
        return EigenResult(_ZERO, EigenStatus.TRIVIAL_ZERO)
    gap = result.s - state.s
    if gap.denominator != 1:
        return EigenResult(_ZERO, EigenStatus.NOT_EIGENFUNCTION)
    rpoly = result.poly.shifted(int(gap))
    spoly = state.poly
    base = spoly.min_exponent
    num = rpoly.coeff(base)
    den = spoly.coeff(base)
    if not num:
        return EigenResult(_ZERO, EigenStatus.NOT_EIGENFUNCTION)
    if rpoly.scaled(den) != spoly.scaled(num):
        return EigenResult(_ZERO, EigenStatus.NOT_EIGENFUNCTION)
    return EigenResult(num / den, EigenStatus.PROPER)


def _action_reference(op: DiffOp, state: WeightedFunction) -> EigenResult:
    if op.is_zero:
        return EigenResult(_ZERO, EigenStatus.TRIVIAL_ZERO)
    r = extract_reference(apply_reference(op, state), state)
    if r.status is EigenStatus.TRIVIAL_ZERO:
        return EigenResult(_ZERO, EigenStatus.PROPER)
    return r


def cell_eigenvalues_reference(n: int, v: int) -> tuple[EigenResult, EigenResult]:
    """ev1 and ev2 of the (n, v) state, each operator applied to the state alone."""
    state = make_state(n, v)
    s, f = state.wavefunction.s, state.wavefunction
    ev1 = _action_reference(k0_prime_simplified(s, v), f)
    ev2 = _action_reference(k0_diff(s, n), f)
    if ev2.status is EigenStatus.PROPER:
        ev2 = EigenResult(ev2.value * 2, EigenStatus.PROPER)
    return ev1, ev2
