"""End-to-end acceptance checks over the full 101 x 101 parameter grid.

Each criterion prints a single `ACCEPTANCE <n> <name>: PASS|FAIL (...)` line
before asserting, so `pytest -v` shows the verdicts inline.  The grid scan
runs once, serially, in a module-scoped fixture.  The scan keeps no state,
so criteria 3 and 5 build their own states through `make_state`: they stay
recomputations independent of the scan's per-cell step.
"""

from __future__ import annotations

import lzma
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from _numeric import weighted_value
from morsealg.functions import LaurentPoly, WeightedFunction
from morsealg.model import laguerre, make_state
from morsealg.operators import (
    DiffOp,
    UndefinedOperatorError,
    k0_prime_composed,
    k0_prime_simplified,
    k_minus,
    naive_commutator,
    naive_commutator_coefficient,
    schrodinger_diff,
)
from morsealg.plot import render_plot
from morsealg.scalars import I, RadicalScalar, sqrt_of_rational
from morsealg.scan import SignClass, read_report, scan, write_report
from morsealg.spectral import (
    EigenStatus,
    LadderOutcome,
    extract_eigenvalue,
    verify_lowering,
    verify_raising,
)

N_MAX = 100
V_MAX = 100
GRID_CELLS = (N_MAX + 1) * (V_MAX + 1)
GOLDEN = Path(__file__).parent / "golden"
REPORT_FIXTURES = Path(__file__).parent.parent / "perfbench" / "fixtures"


@pytest.fixture(scope="module")
def full_grid():
    start = time.perf_counter()
    report = scan(N_MAX, V_MAX)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {num} ({name}): {detail}"


def test_criterion_1_grid_equality(full_grid):
    report, elapsed = full_grid
    bad: list[tuple[int, int]] = []
    for c in report.cells:
        expected = Fraction(2 * c.n - c.v + 1)
        if c.s != 0:
            cell_ok = (
                c.ev1.status is EigenStatus.PROPER
                and c.ev2.status is EigenStatus.PROPER
                and c.ev1.value == expected
                and c.ev2.value == expected
                and c.ev3 == expected
            )
        else:
            cell_ok = (
                c.ev1.status is EigenStatus.TRIVIAL_ZERO
                and c.ev1.value == 0
                and c.ev3 == 0
            )
        if not cell_ok:
            bad.append((c.n, c.v))
    ok = len(report.cells) == GRID_CELLS and not bad and elapsed < 300.0
    _verdict(
        1,
        "grid-equality",
        ok,
        f"cells={len(report.cells)}/{GRID_CELLS}, unequal={len(bad)}, "
        f"scan={elapsed:.1f}s",
    )


def _dots_by_fill(path: Path) -> dict[str, set[tuple[int, int]]]:
    """Invert the plot geometry: map each dot back to its (n, v) cell."""
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    size = int(root.get("width"))
    plot_w = size - 72 - 24
    plot_h = size - 48 - 64
    pitch_x = plot_w / (N_MAX + 1)
    pitch_y = plot_h / (V_MAX + 1)
    out: dict[str, set[tuple[int, int]]] = {}
    for group in root.findall(f"{ns}g"):
        cells = set()
        for dot in group.findall(f"{ns}circle"):
            n = round((float(dot.get("cx")) - 72) / pitch_x - 0.5)
            v = round((48 + plot_h - float(dot.get("cy"))) / pitch_y - 0.5)
            cells.add((n, v))
        out[group.get("fill")] = cells
    return out


def test_criterion_2_sign_boundary(full_grid, tmp_path_factory):
    report, _ = full_grid
    flag_bad = sum(
        (c.s_sign is SignClass.NON_NEGATIVE) != (c.v >= 2 * c.n + 1)
        for c in report.cells
    )
    path = tmp_path_factory.mktemp("acceptance") / "sign_full.svg"
    render_plot(report, "sign", path, size=900)
    dots = _dots_by_fill(path)
    half_plane = {
        (n, v)
        for n in range(N_MAX + 1)
        for v in range(V_MAX + 1)
        if v >= 2 * n + 1
    }
    rest = {
        (n, v) for n in range(N_MAX + 1) for v in range(V_MAX + 1)
    } - half_plane
    green = dots.get("#2CA02C", set())
    yellow = dots.get("#FFD700", set())
    ok = flag_bad == 0 and green == half_plane and yellow == rest
    _verdict(
        2,
        "sign-boundary",
        ok,
        f"misflagged={flag_bad}, green={len(green)}/{len(half_plane)}, "
        f"yellow={len(yellow)}/{len(rest)}",
    )


def test_criterion_3_stationary_annihilation(full_grid):
    failures: list[tuple[int, int]] = []
    for n in range(N_MAX + 1):
        for v in range(V_MAX + 1):
            state = make_state(n, v)
            applied = schrodinger_diff(state.wavefunction.s, v).apply(state.wavefunction)
            if not applied.is_zero:
                failures.append((n, v))
    _verdict(
        3,
        "schrodinger-annihilation",
        not failures,
        f"annihilated={GRID_CELLS - len(failures)}/{GRID_CELLS}",
    )


def test_criterion_4_ladder_relations(full_grid):
    v_cap = 40
    fails: list[tuple[int, int, str]] = []
    holds_lower = holds_raise = 0
    for v in range(v_cap + 1):
        for n in range(N_MAX + 1):
            low = verify_lowering(n, v)
            high = verify_raising(n, v)
            if low is LadderOutcome.FAILS:
                fails.append((n, v, "lowering"))
            if high is LadderOutcome.FAILS:
                fails.append((n, v, "raising"))
            holds_lower += low is LadderOutcome.HOLDS
            holds_raise += high is LadderOutcome.HOLDS
    expected_lower = sum(
        1
        for v in range(v_cap + 1)
        for n in range(N_MAX + 1)
        if v >= 2 * n + 2
    )
    expected_raise = sum(
        1
        for v in range(v_cap + 1)
        for n in range(N_MAX + 1)
        if v >= 2 * n + 4
    )
    annihilated = 0
    ground_domain = [v for v in range(v_cap + 1) if v != 1]
    for v in ground_domain:
        state = make_state(0, v)
        if k_minus(state.wavefunction.s, v).apply(state.wavefunction).is_zero:
            annihilated += 1
    ok = (
        not fails
        and holds_lower == expected_lower
        and holds_raise == expected_raise
        and annihilated == len(ground_domain)
    )
    _verdict(
        4,
        "ladder-relations",
        ok,
        f"failures={len(fails)}, lowering={holds_lower}/{expected_lower}, "
        f"raising={holds_raise}/{expected_raise}, "
        f"ground annihilated={annihilated}/{len(ground_domain)}",
    )


def test_criterion_5_unshifted_commutator(full_grid):
    report, _ = full_grid
    excluded = {Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)}
    bad_form: list[tuple[int, int]] = []
    bad_eigen: list[tuple[int, int]] = []
    checked = skipped = 0
    for c in report.cells:
        s = c.s
        if s in excluded:
            skipped += 1
            continue
        checked += 1
        coeff = naive_commutator_coefficient(s)
        op = naive_commutator(s, c.v)
        literal = sqrt_of_rational(s * s - 1) * (2 * (1 - 4 * s * s))
        form_ok = (
            op == DiffOp.multiplication(LaurentPoly.monomial(-2, coeff))
            and coeff * coeff == 4 * (s * s - 1) * (1 - 4 * s * s) ** 2
            and coeff == (literal if s > 1 else -literal)
        )
        if not form_ok:
            bad_form.append((c.n, c.v))
            continue
        state = make_state(c.n, c.v)
        r = extract_eigenvalue(op.apply(state.wavefunction), state.wavefunction)
        if r.status is not EigenStatus.NOT_EIGENFUNCTION:
            bad_eigen.append((c.n, c.v))
    ok = not bad_form and not bad_eigen
    _verdict(
        5,
        "unshifted-commutator",
        ok,
        f"checked={checked}, bad form={len(bad_form)}, "
        f"still eigen={len(bad_eigen)}, excluded s values={skipped}",
    )


def test_criterion_6_shifted_commutator_consistency(full_grid):
    report, _ = full_grid
    unequal: list[tuple[int, int]] = []
    matched = undefined = 0
    offset_cells = offset_constant = 0
    domain_mismatch: list[tuple[int, int]] = []
    for c in report.cells:
        s = c.s
        if s in (0, 1, -1):
            undefined += 1
            with pytest.raises(UndefinedOperatorError):
                k0_prime_composed(s, c.v)
            continue
        radicands = (s / (s + 1), (s + 1) / s, s / (s - 1), (s - 1) / s)
        in_domain = all(r >= 0 for r in radicands)
        if in_domain != (abs(s) > 1):
            domain_mismatch.append((c.n, c.v))
        composed = k0_prime_composed(s, c.v)
        simplified = k0_prime_simplified(s, c.v)
        if in_domain:
            if composed == simplified:
                matched += 1
            else:
                unequal.append((c.n, c.v))
        else:
            # reported, not asserted: with a negative radicand the two forms
            # differ by the constant s * v**2 times the identity
            offset_cells += 1
            diff = composed - simplified
            if diff == DiffOp.identity().scaled(s * c.v * c.v):
                offset_constant += 1
    ok = not unequal and not domain_mismatch
    _verdict(
        6,
        "shifted-commutator-consistency",
        ok,
        f"termwise equal={matched}, unequal={len(unequal)}, "
        f"negative-radicand cells={offset_cells} "
        f"(constant offset s*v^2 in {offset_constant}), undefined={undefined}",
    )


def _random_fraction(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _random_unit(rng: random.Random) -> RadicalScalar:
    """i^m * sqrt(r) up to a rational factor."""
    unit = sqrt_of_rational(rng.randint(1, 20))
    return unit * I if rng.random() < 0.3 else unit


def _random_poly(rng: random.Random) -> LaurentPoly:
    poly = LaurentPoly.zero()
    for _ in range(rng.randint(1, 3)):
        poly = poly + LaurentPoly.monomial(
            rng.randint(-2, 3), _random_fraction(rng, 6, 4)
        )
    return poly


def _random_op(rng: random.Random) -> DiffOp:
    op = DiffOp.zero()
    for order in range(rng.randint(1, 3)):
        op = op + DiffOp.derivative(order).compose(
            DiffOp.multiplication(_random_poly(rng))
        )
    return op


def test_criterion_7_property_suites(full_grid, tmp_path):
    rng = random.Random(20260826)
    problems: list[str] = []

    for _ in range(200):
        q = _random_fraction(rng, 50, 20)
        if sqrt_of_rational(q) ** 2 != q:
            problems.append(f"sqrt({q})^2 != {q}")
    if I * I != RadicalScalar(-1) or sqrt_of_rational(-1) ** 2 != -1:
        problems.append("i^2 != -1")
    for _ in range(120):
        # scalars add only within one unit, so b and c share theirs
        a = _random_unit(rng) * _random_fraction(rng, 9, 6)
        unit = _random_unit(rng)
        b, c = (unit * _random_fraction(rng, 9, 6) for _ in range(2))
        if a * (b + c) != a * b + a * c:
            problems.append("distributivity failed")
            break

    for _ in range(80):
        n = rng.randint(1, 9)
        alpha = _random_fraction(rng, 10, 4)
        lhs = laguerre(n + 1, alpha).scaled(n + 1)
        three_term = LaurentPoly.constant(2 * n + 1 + alpha) - LaurentPoly.monomial(1)
        rhs = three_term * laguerre(n, alpha) - laguerre(n - 1, alpha).scaled(n + alpha)
        if lhs != rhs:
            problems.append(f"recurrence failed at n={n}, alpha={alpha}")
            break

    for _ in range(60):
        a, b = _random_op(rng), _random_op(rng)
        f = WeightedFunction(Fraction(rng.randint(-5, 5), 2), _random_poly(rng))
        if a.compose(b).apply(f) != a.apply(b.apply(f)):
            problems.append("composition soundness failed")
            break

    spot_cells = [(0, 2), (1, 6), (2, 9), (3, 12), (1, 0)]
    worst = 0.0
    for n, v in spot_cells:
        state = make_state(n, v)
        op = k0_prime_simplified(state.wavefunction.s, v)
        lam = complex(2 * n - v + 1)
        applied = op.apply(state.wavefunction)
        for y in (Fraction(1, 2), Fraction(1), Fraction(2)):
            lhs = weighted_value(applied, y)
            rhs = lam * weighted_value(state.wavefunction, y)
            rel = abs(lhs - rhs) / max(1.0, abs(rhs))
            worst = max(worst, rel)
    if worst > 1e-9:
        problems.append(f"spot evaluation error {worst:.2e}")

    report = scan(4, 6)
    deterministic = True
    for mode in ("sign", "equality"):
        golden = (GOLDEN / f"{mode}_4x6_300.svg").read_bytes()
        for attempt in range(2):
            out = tmp_path / f"{mode}_{attempt}.svg"
            render_plot(report, mode, out, size=300)
            if out.read_bytes() != golden:
                deterministic = False
    if not deterministic:
        problems.append("golden SVG bytes differ")

    _verdict(
        7,
        "property-suites",
        not problems,
        "; ".join(problems) if problems else
        f"ring laws, recurrence, composition, spot error {worst:.1e}, golden bytes ok",
    )


def test_full_grid_report_bytes_match_fixtures(full_grid, tmp_path):
    # not a numbered criterion: the full-grid JSON and CSV reports must stay
    # byte-identical to the committed ones that the benchmark reads, and the
    # strict reader must accept every row of them
    report, _ = full_grid
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        write_report(report, fmt, out)
        expected = lzma.decompress((REPORT_FIXTURES / f"report.{fmt}.xz").read_bytes())
        assert out.read_bytes() == expected, fmt
        fixture = tmp_path / f"fixture.{fmt}"
        fixture.write_bytes(expected)
        assert read_report(fixture) == report, fmt
