"""Earlier, plainer bodies of the cell's hot path, kept as test references.

``DiffOp.apply`` now adds every term over one common denominator in one
pass, and ``extract_eigenvalue`` decides proportionality on integer
numerators.  The bodies below are the ones they replaced: a derivative chain
with one ``LaurentPoly`` product and one sum per order, and a comparison of
two scaled polynomials.
"""

from __future__ import annotations

from morsealg import (
    DiffOp,
    EigenResult,
    EigenStatus,
    LaurentPoly,
    RadicalScalar,
    WeightedFunction,
    ZeroStateError,
    k0_diff,
    k0_prime_simplified,
    make_state,
)

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
