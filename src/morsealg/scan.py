"""Grid scan over (n, v), cell classification, and report persistence.

Every cell is computed exactly and independently; the report is always
assembled in (n, v) order so identical inputs give identical files no matter
how the work was scheduled.
"""

from __future__ import annotations

import enum
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .functions import LaurentPoly
from .model import make_quantum_numbers, make_state
from .operators import (
    DiffOp,
    OpClass,
    k0_prime_composed,
    k0_prime_simplified,
    naive_commutator,
    naive_commutator_coefficient,
    schrodinger_diff,
)
from .scalars import RadicalScalar
from .spectral import EigenResult, EigenStatus, eigenvalue_one, eigenvalue_three, eigenvalue_two


class SignClass(enum.Enum):
    NON_NEGATIVE = "NonNegative"
    NEGATIVE = "Negative"


CSV_HEADER = "n,v,s,s_sign,op_class,ev1,ev1_status,ev2,ev2_status,ev3,equal_12,equal_13,all_equal"


@dataclass(frozen=True)
class CellRecord:
    """One grid cell: classification, the three eigenvalues, equality flags.

    ev1 is the closed-form shifted commutator's action, ev2 the doubled
    diagonal-operator action, ev3 the algebraic prediction 2n - v + 1.
    """

    n: int
    v: int
    s: Fraction
    s_sign: SignClass
    op_class: OpClass
    ev1: EigenResult
    ev2: EigenResult
    ev3: Fraction
    equal_12: bool
    equal_13: bool
    all_equal: bool

    @property
    def k0(self) -> Fraction:
        """The undoubled diagonal eigenvalue, kept in reports for transparency."""
        return self.ev3 / 2


@dataclass(frozen=True)
class Summary:
    """Counts per classification and equality outcome, plus mismatch cells."""

    total: int
    op_class_counts: dict[str, int]
    sign_counts: dict[str, int]
    all_equal_proper: int
    all_equal_trivial: int
    mismatches: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ScanReport:
    n_max: int
    v_max: int
    cells: tuple[CellRecord, ...]
    summary: Summary


def compute_cell(n: int, v: int) -> CellRecord:
    """Classify cell (n, v) and compare its three eigenvalue computations."""
    qn = make_quantum_numbers(n, v)
    s = qn.s
    sign = SignClass.NON_NEGATIVE if s >= 0 else SignClass.NEGATIVE
    # k0_prime_simplified is the zero operator exactly at s = 0
    op_class = OpClass.ZERO if s == 0 else OpClass.PROPER
    ev1 = eigenvalue_one(n, v)
    ev2 = eigenvalue_two(n, v)
    ev3 = eigenvalue_three(n, v)
    equal_12 = ev1.value == ev2.value
    equal_13 = ev1.value == ev3
    return CellRecord(
        n=n,
        v=v,
        s=s,
        s_sign=sign,
        op_class=op_class,
        ev1=ev1,
        ev2=ev2,
        ev3=ev3,
        equal_12=equal_12,
        equal_13=equal_13,
        all_equal=equal_12 and equal_13,
    )


def summarize(cells: tuple[CellRecord, ...]) -> Summary:
    """Recount every classification; used at scan time and as a consistency check."""
    op_counts = {c.value: 0 for c in OpClass}
    sign_counts = {c.value: 0 for c in SignClass}
    proper = 0
    trivial = 0
    mismatches: list[tuple[int, int]] = []
    for cell in cells:
        op_counts[cell.op_class.value] += 1
        sign_counts[cell.s_sign.value] += 1
        if cell.all_equal:
            if cell.op_class is OpClass.PROPER:
                proper += 1
            else:
                trivial += 1
        else:
            mismatches.append((cell.n, cell.v))
    return Summary(
        total=len(cells),
        op_class_counts=op_counts,
        sign_counts=sign_counts,
        all_equal_proper=proper,
        all_equal_trivial=trivial,
        mismatches=tuple(mismatches),
    )


def _row_cells(n: int, v_max: int) -> list[CellRecord]:
    return [compute_cell(n, v) for v in range(v_max + 1)]


def scan(n_max: int, v_max: int, workers: int | None = None) -> ScanReport:
    """Compute every cell of the [0, n_max] x [0, v_max] grid.

    workers > 1 spreads rows of constant n over that many processes, but
    never more than there are rows or CPUs; the result is identical either
    way because cells are reassembled in (n, v) order.
    """
    if n_max < 0 or v_max < 0:
        raise ValueError("n_max and v_max must be non-negative")
    cells: list[CellRecord] = []
    workers = min(workers or 1, n_max + 1, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for row in pool.map(partial(_row_cells, v_max=v_max), range(n_max + 1)):
                cells.extend(row)
    else:
        for n in range(n_max + 1):
            cells.extend(_row_cells(n, v_max))
    cells_t = tuple(cells)
    return ScanReport(n_max, v_max, cells_t, summarize(cells_t))


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def _cell_to_json(cell: CellRecord) -> dict:
    return {
        "n": cell.n,
        "v": cell.v,
        "s": str(cell.s),
        "s_sign": cell.s_sign.value,
        "op_class": cell.op_class.value,
        "ev1": str(cell.ev1.value),
        "ev1_status": cell.ev1.status.value,
        "ev2": str(cell.ev2.value),
        "ev2_status": cell.ev2.status.value,
        "ev3": str(cell.ev3),
        "k0": str(cell.k0),
        "equal_12": cell.equal_12,
        "equal_13": cell.equal_13,
        "all_equal": cell.all_equal,
    }


def _cell_to_csv(cell: CellRecord) -> str:
    return ",".join(
        (
            str(cell.n),
            str(cell.v),
            str(cell.s),
            cell.s_sign.value,
            cell.op_class.value,
            str(cell.ev1.value),
            cell.ev1.status.value,
            str(cell.ev2.value),
            cell.ev2.status.value,
            str(cell.ev3),
            _bool_str(cell.equal_12),
            _bool_str(cell.equal_13),
            _bool_str(cell.all_equal),
        )
    )


def write_report(report: ScanReport, format: str, path) -> None:
    """Persist a report as JSON (full) or CSV (fixed header, no k0 column).

    I/O problems surface as the interpreter's usual OSError.
    """
    if format == "json":
        doc = {
            "n_max": report.n_max,
            "v_max": report.v_max,
            "beta": "1",  # scans run at unit inverse width
            "summary": {
                "total": report.summary.total,
                "op_class": report.summary.op_class_counts,
                "s_sign": report.summary.sign_counts,
                "all_equal_proper": report.summary.all_equal_proper,
                "all_equal_trivial": report.summary.all_equal_trivial,
                "mismatches": [list(m) for m in report.summary.mismatches],
            },
            "cells": [_cell_to_json(c) for c in report.cells],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for cell in report.cells:
                fh.write(_cell_to_csv(cell) + "\n")
    else:
        raise ValueError(f"unknown report format: {format!r}")


def _eigen_from_strings(value: str, status: str) -> EigenResult:
    return EigenResult(RadicalScalar.parse(value), EigenStatus(status))


def _cell_from_json(doc: dict) -> CellRecord:
    return CellRecord(
        n=int(doc["n"]),
        v=int(doc["v"]),
        s=Fraction(doc["s"]),
        s_sign=SignClass(doc["s_sign"]),
        op_class=OpClass(doc["op_class"]),
        ev1=_eigen_from_strings(doc["ev1"], doc["ev1_status"]),
        ev2=_eigen_from_strings(doc["ev2"], doc["ev2_status"]),
        ev3=Fraction(doc["ev3"]),
        equal_12=bool(doc["equal_12"]),
        equal_13=bool(doc["equal_13"]),
        all_equal=bool(doc["all_equal"]),
    )


def _cell_from_csv(line: str) -> CellRecord:
    parts = line.split(",")
    if len(parts) != 13:
        raise ValueError(f"malformed report row: {line!r}")
    return CellRecord(
        n=int(parts[0]),
        v=int(parts[1]),
        s=Fraction(parts[2]),
        s_sign=SignClass(parts[3]),
        op_class=OpClass(parts[4]),
        ev1=_eigen_from_strings(parts[5], parts[6]),
        ev2=_eigen_from_strings(parts[7], parts[8]),
        ev3=Fraction(parts[9]),
        equal_12=parts[10] == "true",
        equal_13=parts[11] == "true",
        all_equal=parts[12] == "true",
    )


def read_report(path) -> ScanReport:
    """Load a report written by write_report, sniffing JSON versus CSV.

    The summary and k0 are derived from the cells, never read from the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        cells = tuple(_cell_from_json(c) for c in doc["cells"])
        return ScanReport(int(doc["n_max"]), int(doc["v_max"]), cells, summarize(cells))
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a recognized report file")
    cells = tuple(_cell_from_csv(ln) for ln in lines[1:])
    n_max = max((c.n for c in cells), default=0)
    v_max = max((c.v for c in cells), default=0)
    return ScanReport(n_max, v_max, cells, summarize(cells))


@dataclass(frozen=True)
class InvariantResult:
    name: str
    passed: bool
    detail: str


def _format_failures(failures: list[tuple[int, int]]) -> str:
    shown = ", ".join(f"({n},{v})" for n, v in failures[:5])
    more = "" if len(failures) <= 5 else f" and {len(failures) - 5} more"
    return f"failing cells: {shown}{more}"


def run_invariant_suite(n_max: int, v_max: int) -> list[InvariantResult]:
    """Grid-wide checks behind the `verify` command, one result per check.

    Covers annihilation by the stationary-equation operator, equality of the
    three eigenvalue computations, agreement of the composed and closed-form
    shifted commutators where all radicands are non-negative, the collapsed
    form of the unshifted commutator, and the sign boundary v >= 2n + 1.
    """
    results: list[InvariantResult] = []

    schro_fail: list[tuple[int, int]] = []
    eigen_fail: list[tuple[int, int]] = []
    composed_fail: list[tuple[int, int]] = []
    composed_checked = 0
    composed_skipped = 0
    naive_fail: list[tuple[int, int]] = []
    sign_fail: list[tuple[int, int]] = []

    for n in range(n_max + 1):
        for v in range(v_max + 1):
            s = Fraction(v - 2 * n - 1, 2)
            state = make_state(n, v)
            if not schrodinger_diff(s, v).apply(state.wavefunction).is_zero:
                schro_fail.append((n, v))
            cell = compute_cell(n, v)
            if not cell.all_equal:
                eigen_fail.append((n, v))
            if (cell.s_sign is SignClass.NON_NEGATIVE) != (v >= 2 * n + 1):
                sign_fail.append((n, v))
            if abs(s) > 1:
                composed_checked += 1
                if k0_prime_composed(s, v) != k0_prime_simplified(s, v):
                    composed_fail.append((n, v))
            else:
                composed_skipped += 1
            if s != 0:
                expected = DiffOp.multiplication(
                    LaurentPoly({-2: naive_commutator_coefficient(s)})
                )
                if naive_commutator(s, v) != expected:
                    naive_fail.append((n, v))

    total = (n_max + 1) * (v_max + 1)
    results.append(
        InvariantResult(
            "schrodinger-annihilation",
            not schro_fail,
            f"{total - len(schro_fail)}/{total} states annihilated exactly"
            + ("" if not schro_fail else "; " + _format_failures(schro_fail)),
        )
    )
    results.append(
        InvariantResult(
            "eigenvalue-equality",
            not eigen_fail,
            f"{total - len(eigen_fail)}/{total} cells with all three eigenvalues equal"
            + ("" if not eigen_fail else "; " + _format_failures(eigen_fail)),
        )
    )
    results.append(
        InvariantResult(
            "composed-vs-simplified",
            not composed_fail,
            f"{composed_checked - len(composed_fail)}/{composed_checked} cells agree termwise"
            f" ({composed_skipped} cells with |s| <= 1 skipped)"
            + ("" if not composed_fail else "; " + _format_failures(composed_fail)),
        )
    )
    results.append(
        InvariantResult(
            "unshifted-commutator-form",
            not naive_fail,
            "collapses to its 1/y^2 multiplication form on every s != 0 cell"
            + ("" if not naive_fail else "; " + _format_failures(naive_fail)),
        )
    )
    results.append(
        InvariantResult(
            "sign-boundary",
            not sign_fail,
            "s >= 0 exactly on v >= 2n + 1"
            + ("" if not sign_fail else "; " + _format_failures(sign_fail)),
        )
    )
    return results
