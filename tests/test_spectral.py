"""Eigenvalue extraction and ladder-relation verification."""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morsealg import (
    Comparison,
    EigenStatus,
    LadderOutcome,
    LaurentPoly,
    RadicalScalar,
    WeightedFunction,
    ZeroStateError,
    cell_eigenvalues,
    eigenvalue_composed,
    eigenvalue_three,
    extract_eigenvalue,
    k0_prime_simplified,
    k_minus,
    k_plus,
    laguerre,
    make_state,
    naive_commutator,
    normalization,
    sqrt_of_rational,
    verify_lowering,
    verify_raising,
)
from morsealg import operators
from morsealg.cli import run as cli_run
from morsealg.spectral import ladder_column

from _counting import count_calls, count_derivatives
from _reference import extract_reference
from _strategies import nonzero_fractions, units, weighted_functions


def _psi(n: int, v: int) -> WeightedFunction:
    return make_state(n, v).wavefunction


def test_extract_proper_eigenvalue():
    psi = _psi(0, 2)
    applied = k0_prime_simplified(Fraction(1, 2), 2).apply(psi)
    r = extract_eigenvalue(applied, psi)
    assert r.status is EigenStatus.PROPER
    assert r.value == RadicalScalar(-1)


def test_extract_trivial_zero():
    psi = _psi(0, 2)
    zero = WeightedFunction(psi.s, LaurentPoly.zero())
    r = extract_eigenvalue(zero, psi)
    assert r.status is EigenStatus.TRIVIAL_ZERO
    assert r.value == RadicalScalar(0)


def test_extract_rejects_zero_state():
    zero = WeightedFunction(Fraction(1, 2), LaurentPoly.zero())
    with pytest.raises(ZeroStateError):
        extract_eigenvalue(zero, zero)


def test_extract_not_eigenfunction_for_unshifted_commutator():
    psi = _psi(0, 5)
    applied = naive_commutator(psi.s, 5).apply(psi)
    assert extract_eigenvalue(applied, psi).status is EigenStatus.NOT_EIGENFUNCTION


def test_extract_not_eigenfunction_on_partial_match():
    # candidate from the lowest coefficient fits, later coefficients do not
    state = WeightedFunction(Fraction(1, 2), LaurentPoly({0: 1, 1: 1}))
    result = WeightedFunction(Fraction(1, 2), LaurentPoly({0: 2, 1: 3}))
    assert extract_eigenvalue(result, state).status is EigenStatus.NOT_EIGENFUNCTION


def test_extract_incomparable_weights():
    state = WeightedFunction(Fraction(1, 2), LaurentPoly.one())
    result = WeightedFunction(Fraction(1, 4), LaurentPoly.one())
    assert extract_eigenvalue(result, state).status is EigenStatus.NOT_EIGENFUNCTION


def test_extract_aligns_integer_weight_gap():
    state = WeightedFunction(Fraction(1, 2), LaurentPoly.one())
    result = WeightedFunction(Fraction(3, 2), LaurentPoly({-1: 3}))
    r = extract_eigenvalue(result, state)
    assert r.status is EigenStatus.PROPER
    assert r.value == RadicalScalar(3)


def test_extract_radical_eigenvalue():
    state = WeightedFunction(Fraction(1, 2), LaurentPoly({0: 2, 1: 1}))
    lam = sqrt_of_rational(5)
    result = WeightedFunction(Fraction(1, 2), state.poly.scaled(lam))
    r = extract_eigenvalue(result, state)
    assert r.status is EigenStatus.PROPER
    assert r.value == lam


def test_eigenvalue_one_examples():
    r = cell_eigenvalues(0, 2)[0]
    assert (r.status, r.value) == (EigenStatus.PROPER, RadicalScalar(-1))
    r = cell_eigenvalues(0, 1)[0]
    assert (r.status, r.value) == (EigenStatus.TRIVIAL_ZERO, RadicalScalar(0))
    r = cell_eigenvalues(3, 10)[0]
    assert (r.status, r.value) == (EigenStatus.PROPER, RadicalScalar(-3))


def test_eigenvalue_two_examples():
    r = cell_eigenvalues(0, 2)[1]
    assert (r.status, r.value) == (EigenStatus.PROPER, RadicalScalar(-1))
    r = cell_eigenvalues(0, 1)[1]
    assert (r.status, r.value) == (EigenStatus.PROPER, RadicalScalar(0))
    r = cell_eigenvalues(5, 3)[1]
    assert (r.status, r.value) == (EigenStatus.PROPER, RadicalScalar(8))


def test_eigenvalue_three_examples():
    assert eigenvalue_three(0, 2) == -1
    assert eigenvalue_three(0, 1) == 0
    assert eigenvalue_three(3, 10) == -3
    with pytest.raises(ValueError):
        eigenvalue_three(-1, 0)


def test_three_computations_agree_on_sample_cells():
    for n, v in [(0, 0), (0, 7), (4, 4), (2, 40), (10, 3), (6, 25)]:
        (e1, e2), e3 = cell_eigenvalues(n, v), eigenvalue_three(n, v)
        assert e2.value == e3 == 2 * n - v + 1
        if (v - 2 * n - 1) != 0:
            assert e1.status is EigenStatus.PROPER and e1.value == e3
        else:
            assert e1.status is EigenStatus.TRIVIAL_ZERO


def test_eigenvalue_composed_undefined_band():
    for n, v in [(0, 1), (0, 3), (1, 1)]:
        # s = 0, 1, -1 respectively
        assert eigenvalue_composed(n, v).status is EigenStatus.OPERATOR_UNDEFINED


def test_eigenvalue_composed_extra_constant_at_half_weight():
    # composed - simplified = s v^2, so the eigenvalue shifts by it
    r = eigenvalue_composed(0, 2)
    assert r.status is EigenStatus.PROPER
    assert r.value == RadicalScalar(1)


def test_eigenvalue_composed_agrees_outside_unit_band():
    for n, v in [(0, 6), (1, 9), (3, 0)]:
        r = eigenvalue_composed(n, v)
        assert r.status is EigenStatus.PROPER
        assert r.value == eigenvalue_three(n, v)


def test_verify_lowering_examples():
    assert verify_lowering(1, 4) is LadderOutcome.HOLDS
    assert verify_lowering(0, 5) is LadderOutcome.HOLDS
    assert verify_lowering(2, 5) is LadderOutcome.OUT_OF_DOMAIN


def test_verify_raising_examples():
    assert verify_raising(0, 4) is LadderOutcome.HOLDS
    assert verify_raising(0, 6) is LadderOutcome.HOLDS
    assert verify_raising(1, 5) is LadderOutcome.OUT_OF_DOMAIN


def test_ground_state_annihilation_along_depth_axis():
    for v in range(2, 12):
        psi = _psi(0, v)
        assert k_minus(psi.s, v).apply(psi).is_zero


# The two ladder checks as separate bodies, each computing its normalization
# constants afresh: the reference the shared implementation is held to.
def _lowering_reference(n: int, v: int) -> LadderOutcome:
    norm_n = normalization(n, v)
    if norm_n is None:
        return LadderOutcome.OUT_OF_DOMAIN
    state = make_state(n, v)
    applied = k_minus(state.wavefunction.s, v).apply(state.wavefunction)
    if n == 0:
        return LadderOutcome.HOLDS if applied.is_zero else LadderOutcome.FAILS
    norm_prev = normalization(n - 1, v)
    if norm_prev is None:
        return LadderOutcome.OUT_OF_DOMAIN
    lhs = applied * norm_n
    factor = sqrt_of_rational(Fraction(n * (v - n))) * norm_prev
    rhs = make_state(n - 1, v).wavefunction * factor
    if lhs.compare(rhs) is Comparison.EQUAL:
        return LadderOutcome.HOLDS
    return LadderOutcome.FAILS


def _raising_reference(n: int, v: int) -> LadderOutcome:
    norm_n = normalization(n, v)
    norm_next = normalization(n + 1, v)
    if norm_n is None or norm_next is None:
        return LadderOutcome.OUT_OF_DOMAIN
    state = make_state(n, v)
    applied = k_plus(state.wavefunction.s, v).apply(state.wavefunction)
    lhs = applied * norm_n
    factor = sqrt_of_rational(Fraction((n + 1) * (v - n - 1))) * norm_next
    rhs = make_state(n + 1, v).wavefunction * factor
    if lhs.compare(rhs) is Comparison.EQUAL:
        return LadderOutcome.HOLDS
    return LadderOutcome.FAILS


def test_ladder_checks_match_reference_and_normalize_once_per_state(monkeypatch):
    # count normalization calls made through every morsealg namespace that
    # binds it; the reference bodies above keep the uncounted original
    calls = 0

    def counted(n, v):
        nonlocal calls
        calls += 1
        return normalization(n, v)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "morsealg":
            if vars(module).get("normalization") is normalization:
                monkeypatch.setattr(module, "normalization", counted)
    # v = 2n .. 2n + 3 and n = 0 are the out-of-domain and ground-state edges
    for v in range(71):
        # every check of the column runs before the reference bodies, which
        # fill make_state and normalize through it; each check computes the
        # constants of its at most two states and leaves make_state empty
        make_state.cache_clear()
        got = []
        for n in range(v // 2 + 3):
            for check in (verify_lowering, verify_raising):
                calls = 0
                got.append(check(n, v))
                assert calls <= 2, (check.__name__, n, v)
        assert make_state.cache_info().currsize == 0, v
        expected = []
        for n in range(v // 2 + 3):
            expected += [_lowering_reference(n, v), _raising_reference(n, v)]
        assert got == expected, v


@pytest.mark.parametrize("columns", [range(71), [101, 150]], ids=["v<=70", "v=101,150"])
def test_ladder_column_matches_the_reference_bodies(columns):
    # a column holds n = 0 .. v // 2, so v <= 70 covers the ground state and
    # the v = 2n .. 2n + 3 edges of every n <= 34; 101 and 150 lie beyond
    # the benchmark grid
    for v in columns:
        got = ladder_column(v)
        assert len(got) == v // 2 + 1, v
        for n, (low, high) in enumerate(got):
            assert low is _lowering_reference(n, v), (n, v)
            assert high is _raising_reference(n, v), (n, v)


def test_ladder_sweep_builds_and_differentiates_each_state_once():
    # counted through every morsealg namespace that binds each name: one
    # closed-form constant per (n, v) with n <= v // 2 + 1, and one state
    # and one derivative per cell whose constant exists (v >= 2n + 2), the
    # only states a relation reads
    v_max = 40
    make_state.cache_clear()
    with contextlib.ExitStack() as stack:
        norms = count_calls(stack, normalization)
        polys = count_calls(stack, laguerre)
        d = count_derivatives(stack)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_run(["ladder", "--v-max", str(v_max)]) == 0
    cells = [(n, v) for v in range(v_max + 1) for n in range(v // 2 + 2)]
    assert sorted(c.args for c in norms.call_args_list) == sorted(cells)
    normalizable = [(n, v) for n, v in cells if v >= 2 * n + 2]
    assert sorted(c.args[0] for c in polys.call_args_list) == sorted(n for n, _ in normalizable)
    assert d.call_count == len(normalizable)
    assert make_state.cache_info().currsize == 0


def test_single_cell_paths_leave_make_state_empty():
    # (3, 11) has both relations in domain and a defined composed operator;
    # (0, 1) has s = 0, where it is undefined
    make_state.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        for n, v in ((3, 11), (0, 1)):
            assert cli_run(["cell", "--n", str(n), "--v", str(v), "--verbose"]) == 0
            assert cli_run(["ladder", "--n", str(n), "--v", str(v)]) == 0
    assert eigenvalue_composed(3, 11).status is EigenStatus.PROPER
    assert eigenvalue_composed(0, 1).status is EigenStatus.OPERATOR_UNDEFINED
    assert make_state.cache_info().currsize == 0


def _in_domain(v_max: int) -> tuple[set[str], set[str]]:
    """The lowering relations with n >= 1 and the raising relations whose
    two normalization constants exist, named as the sweep prints them."""
    cells = [(n, v) for v in range(v_max + 1) for n in range(v // 2 + 1)]
    return (
        {f"FAIL lowering ({n}, {v})" for n, v in cells if n >= 1 and v >= 2 * n + 2},
        {f"FAIL raising ({n}, {v})" for n, v in cells if v >= 2 * n + 4},
    )


@pytest.mark.parametrize("wrong", ["normalization", "raising bracket"])
def test_ladder_reports_a_wrong_constant(monkeypatch, wrong):
    lowering, raising = _in_domain(20)
    if wrong == "normalization":
        # N_n * (n + 1): the sides of every relation between two states now
        # differ by (n + 1)/(m + 1); only the ground-state annihilation holds.
        # Patched in every morsealg namespace that binds it, so that the
        # sweep and the single-cell check both build their column entries
        # with it
        def wrong_normalization(n, v):
            c = normalization(n, v)
            return None if c is None else c * (n + 1)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "morsealg":
                if vars(module).get("normalization") is normalization:
                    monkeypatch.setattr(module, "normalization", wrong_normalization)
        expected = lowering | raising
    else:
        # v/2 in the raising bracket read as (v + 1)/2: K+ psi_n gains a
        # nonzero multiple of psi_n on every in-domain cell (s >= 3/2)
        ladder = operators._ladder
        monkeypatch.setattr(
            operators, "_ladder", lambda sigma, s, v: ladder(sigma, s, v + 1 if sigma > 0 else v)
        )
        expected = raising
    make_state.cache_clear()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_run(["ladder", "--v-max", "20"]) == 1
            assert cli_run(["ladder", "--n", "2", "--v", "9"]) == 1
        lines = out.getvalue().splitlines()
        assert {line for line in lines if line.startswith("FAIL ")} == expected
        assert f"fails: {len(expected)}" in lines
    finally:
        make_state.cache_clear()


_states = weighted_functions().filter(lambda f: not f.is_zero)
_ratios = st.builds(lambda u, q: u * q, units, nonzero_fractions)


def _assert_extract(result: WeightedFunction, state: WeightedFunction, status: EigenStatus):
    got = extract_eigenvalue(result, state)
    assert got == extract_reference(result, state)
    assert got.status is status


@settings(max_examples=100, deadline=None)
@given(_states, _ratios, st.integers(-3, 3))
def test_extract_proportional_pairs_match_reference(state, lam, gap):
    # lam * state, written at a weight `gap` above the state's
    result = WeightedFunction(state.s + gap, state.poly.scaled(lam).shifted(-gap))
    _assert_extract(result, state, EigenStatus.PROPER)
    assert extract_eigenvalue(result, state).value == lam


@settings(max_examples=100, deadline=None)
@given(_states, _ratios, nonzero_fractions.filter(lambda q: q != -1), st.data())
def test_extract_same_support_not_proportional_matches_reference(state, lam, q, data):
    assume(len(state.poly.items()) >= 2)
    # lam * state with one coefficient scaled by 1 + q, so its support is kept
    e = data.draw(st.sampled_from([e for e, _ in state.poly.items()]))
    poly = state.poly.scaled(lam) + LaurentPoly.monomial(e, state.poly.coeff(e) * lam * q)
    _assert_extract(WeightedFunction(state.s, poly), state, EigenStatus.NOT_EIGENFUNCTION)


@settings(max_examples=100, deadline=None)
@given(_states, _ratios, st.integers(-6, 6), st.booleans())
def test_extract_different_supports_match_reference(state, lam, e, drop):
    poly = state.poly.scaled(lam)
    exps = [x for x, _ in state.poly.items()]
    if drop and len(exps) >= 2:
        # one coefficient removed
        poly = poly - LaurentPoly.monomial(exps[0], poly.coeff(exps[0]))
    else:
        # one exponent added, with the unit the others carry
        assume(e not in exps)
        poly = poly + LaurentPoly.monomial(e, poly.coeff(exps[0]))
    _assert_extract(WeightedFunction(state.s, poly), state, EigenStatus.NOT_EIGENFUNCTION)


@settings(max_examples=50, deadline=None)
@given(_states, _ratios, st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)]))
def test_extract_non_integer_gap_matches_reference(state, lam, gap):
    result = WeightedFunction(state.s + gap, state.poly.scaled(lam))
    _assert_extract(result, state, EigenStatus.NOT_EIGENFUNCTION)


@settings(max_examples=50, deadline=None)
@given(_states, st.integers(-3, 3))
def test_extract_zero_result_matches_reference(state, gap):
    result = WeightedFunction(state.s + gap, LaurentPoly.zero())
    _assert_extract(result, state, EigenStatus.TRIVIAL_ZERO)
