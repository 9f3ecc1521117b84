"""Exact eigenvalue extraction and verification of the ladder relations.

Eigenvalues are found by polynomial proportionality, never by numerics:
``extract_eigenvalue`` asks ``WeightedFunction._factor`` for the scalar that
carries the state onto the result, which that test reads off one coefficient
pair and checks against every other, so a Proper result is a proof of the
eigenrelation for that cell.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .functions import Comparison, WeightedFunction
from .model import normalization, wavefunction
from .operators import (
    DiffOp,
    UndefinedOperatorError,
    k0_diff,
    k0_prime_composed,
    k0_prime_simplified,
    k_minus,
    k_plus,
)
from .scalars import ZERO, RadicalScalar, sqrt_of_rational


class ZeroStateError(ValueError):
    """Eigenvalue extraction against the zero function is meaningless."""


class EigenStatus(enum.Enum):
    PROPER = "Proper"
    TRIVIAL_ZERO = "TrivialZero"
    NOT_EIGENFUNCTION = "NotEigenfunction"
    OPERATOR_UNDEFINED = "OperatorUndefined"


class LadderOutcome(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    OUT_OF_DOMAIN = "OutOfDomain"


@dataclass(frozen=True)
class EigenResult:
    """An extracted eigenvalue plus how it was obtained.

    Proper means result = value * state exactly; TrivialZero means the
    applied operator returned the zero function (and value is 0).
    """

    value: RadicalScalar
    status: EigenStatus


_TRIVIAL = EigenResult(ZERO, EigenStatus.TRIVIAL_ZERO)
_NOT_EIGEN = EigenResult(ZERO, EigenStatus.NOT_EIGENFUNCTION)
_UNDEFINED = EigenResult(ZERO, EigenStatus.OPERATOR_UNDEFINED)
_PROPER_ZERO = EigenResult(ZERO, EigenStatus.PROPER)

# psi_j's jet (psi_j, psi_j'), N_j and sqrt(j(v - j)), or None where N_j is
# undefined; a column maps j to its entry, by list index or dict key
_Entry = tuple[tuple[WeightedFunction, ...], RadicalScalar, RadicalScalar] | None
_Column = Sequence[_Entry] | dict[int, _Entry]


def extract_eigenvalue(result: WeightedFunction, state: WeightedFunction) -> EigenResult:
    """Exact lambda with result = lambda * state, or why there is none;
    proportionality is decided by WeightedFunction._factor."""
    if state.is_zero:
        raise ZeroStateError("cannot extract an eigenvalue against the zero function")
    if result.is_zero:
        return _TRIVIAL
    lam = state._factor(result)
    return _NOT_EIGEN if lam is None else EigenResult(lam, EigenStatus.PROPER)


def _action(op: DiffOp, jet: Sequence[WeightedFunction]) -> EigenResult:
    """op's eigenvalue on the state jet[0], applied through the jet: TrivialZero
    for the zero operator, Proper(0) where a nonzero op annihilates the
    state, else extract_eigenvalue's."""
    if op.is_zero:
        return _TRIVIAL
    r = extract_eigenvalue(op.apply(jet), jet[0])
    return _PROPER_ZERO if r.status is EigenStatus.TRIVIAL_ZERO else r


def cell_step(
    n: int, v: int
) -> tuple[EigenResult, EigenResult, tuple[WeightedFunction, ...], DiffOp]:
    """ev1 and ev2 of the (n, v) state, the jet they share and ev1's operator.

    The state is built afresh, without a normalization constant, and its
    first and second derivatives are taken once; the two operators are
    still built and applied separately.  The jet (f, f', f'') and the
    closed-form shifted commutator are returned so that the invariant suite
    can check the same cell without taking them again.
    """
    f = wavefunction(n, v)
    s, jet = f.s, f.jet(2)
    shifted = k0_prime_simplified(s, v)
    ev1 = _action(shifted, jet)
    ev2 = _action(k0_diff(s, n), jet)
    if ev2.status is EigenStatus.PROPER:
        ev2 = EigenResult(ev2.value * 2, EigenStatus.PROPER)
    return ev1, ev2, jet, shifted


def cell_eigenvalues(n: int, v: int) -> tuple[EigenResult, EigenResult]:
    """ev1 and ev2 of the (n, v) state, sharing one jet (see cell_step).

    ev1 is the action of the closed-form shifted commutator: TrivialZero
    exactly on the s = 0 cells, where that operator vanishes identically;
    elsewhere Proper(2n - v + 1).  ev2 is the doubled action of the diagonal
    operator, reported on the same scale; that operator is never the zero
    operator, so at s = 0, where its eigenvalue is 0, ev2 is Proper(0), not
    TrivialZero.
    """
    ev1, ev2, _, _ = cell_step(n, v)
    return ev1, ev2


def eigenvalue_three(n: int, v: int) -> Fraction:
    """The algebraic prediction 2n - v + 1 (equal to -2s)."""
    if n < 0 or v < 0:
        raise ValueError("n and v must be non-negative")
    return Fraction(2 * n - v + 1)


def eigenvalue_composed(n: int, v: int) -> EigenResult:
    """Action of the composition-built shifted commutator on the (n, v) state.

    OperatorUndefined where a constituent ladder prefactor divides by zero
    (s in {-1, 0, 1}).
    """
    f = wavefunction(n, v)
    try:
        op = k0_prime_composed(f.s, v)
    except UndefinedOperatorError:
        return _UNDEFINED
    return _action(op, (f,))


def _entry(j: int, v: int) -> _Entry:
    """psi_j's column entry: its jet (psi_j, psi_j'), N_j and sqrt(j(v - j)),
    or None, without building psi_j, where N_j is undefined."""
    norm = normalization(j, v)
    if norm is None:
        return None
    return wavefunction(j, v).jet(1), norm, sqrt_of_rational(Fraction(j * (v - j)))


def _ladder_relation(sigma: int, n: int, v: int, column: _Column) -> LadderOutcome:
    """Check N_n * K psi_n = sqrt(k(v-k)) * N_m * psi_m, m = n + sigma, k = max(n, m).

    K is the lowering operator for sigma = -1 and the raising one for
    sigma = +1; it is applied to psi_n's jet, and the root is the one kept
    in the upper state's entry, column[k].  In domain when both entries
    exist; m = -1 instead requires K to annihilate the ground state.
    """
    entry = column[n]
    if entry is None:
        return LadderOutcome.OUT_OF_DOMAIN
    jet, norm, _ = entry
    m = n + sigma
    target = column[m] if m >= 0 else None
    if m >= 0 and target is None:
        return LadderOutcome.OUT_OF_DOMAIN
    applied = (k_plus if sigma > 0 else k_minus)(jet[0].s, v).apply(jet)
    if m < 0:
        return LadderOutcome.HOLDS if applied.is_zero else LadderOutcome.FAILS
    target_jet, norm_m, _ = target
    factor = column[max(n, m)][2] * norm_m
    cmp = (applied * norm).compare(target_jet[0] * factor)
    return LadderOutcome.HOLDS if cmp is Comparison.EQUAL else LadderOutcome.FAILS


def ladder_column(v: int) -> list[tuple[LadderOutcome, LadderOutcome]]:
    """(lowering, raising) at (n, v) for n = 0 .. v // 2, in that order.

    The column holds one entry for each n <= v // 2 + 1: normalization(n, v)
    is computed once, and each state whose constant exists is built once,
    outside the make_state cache, with its first derivative; the lowering
    and the raising relation both apply their operators to that jet.  The
    states go with the column.
    """
    column = [_entry(n, v) for n in range(v // 2 + 2)]
    return [
        (_ladder_relation(-1, n, v, column), _ladder_relation(1, n, v, column))
        for n in range(v // 2 + 1)
    ]


def verify_lowering(n: int, v: int) -> LadderOutcome:
    """Check N_n * (lowering op) psi_n = sqrt(n(v-n)) * N_{n-1} * psi_{n-1}.

    In domain when both normalization constants exist (v >= 2n + 2); the
    n = 0 branch instead requires exact annihilation of the ground state.
    Only the entries of psi_n and psi_{n-1} are built.
    """
    return _ladder_relation(-1, n, v, {j: _entry(j, v) for j in {n, max(n - 1, 0)}})


def verify_raising(n: int, v: int) -> LadderOutcome:
    """Check N_n * (raising op) psi_n = sqrt((n+1)(v-n-1)) * N_{n+1} * psi_{n+1}.

    In domain when both normalization constants exist (v >= 2n + 4).
    Only the entries of psi_n and psi_{n+1} are built.
    """
    return _ladder_relation(1, n, v, {j: _entry(j, v) for j in (n, n + 1)})
