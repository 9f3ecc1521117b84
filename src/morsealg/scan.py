"""Grid scan over (n, v), cell records, report persistence, invariant suite.

Every cell is computed exactly and independently; the report is always
assembled in (n, v) order so identical inputs give identical files no matter
how the work was scheduled.  A scan on more than one process forks its
shares with os.fork and reads each child's cells back, pickled, through a
pipe (``_in_processes``).

A cell's row is defined once.  ``_record`` derives every field from (n, v)
and the two computed eigenvalues, ``_row`` lays the fields out in
CSV_HEADER order for both report formats, and ``read_report`` rebuilds rows
through ``_record`` and rejects a file whose rows or grid differ from what
``write_report`` would write.  Every column after n and v depends on a cell
only through v - 2n and its two eigenvalues, so both keep one memo entry
per diagonal v - 2n: a row whose columns after n and v equal its entry's is
neither derived again on read nor encoded again on write, and any other
row takes the full path and replaces the entry, so each row costs at most
one derivation or encoding.  The ``verify`` suite visits
each cell once: it builds the cell's record as ``scan`` does and runs its
operator checks on the same state.
"""

from __future__ import annotations

import enum
import functools
import json
import operator
import os
from collections.abc import Callable, Sequence
from fractions import Fraction
from typing import BinaryIO, NamedTuple, TypeVar

from .functions import LaurentPoly
from .model import weight_exponent
from .operators import (
    DiffOp,
    OpClass,
    _shifted_commutator,
    commutator,
    k_minus,
    k_plus,
    naive_commutator_coefficient,
    schrodinger_diff,
)
from .scalars import RadicalScalar
from .spectral import EigenResult, EigenStatus, cell_eigenvalues, cell_step, eigenvalue_three


class SignClass(enum.Enum):
    NON_NEGATIVE = "NonNegative"
    NEGATIVE = "Negative"


CSV_HEADER = "n,v,s,s_sign,op_class,ev1,ev1_status,ev2,ev2_status,ev3,equal_12,equal_13,all_equal"


class CellRecord(NamedTuple):
    """One grid cell: classification, the three eigenvalues, equality flags.

    ev1 is the closed-form shifted commutator's action, ev2 the doubled
    diagonal-operator action, ev3 the algebraic prediction 2n - v + 1.
    Only ev1 and ev2 are computed; _record derives every other field.
    A record is an immutable tuple of these fields: it equals the plain
    tuple of its values, and _replace gives a copy with fields changed.
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


class Summary(NamedTuple):
    """Counts per classification and equality outcome, plus mismatch cells.

    An immutable NamedTuple, like CellRecord.
    """

    total: int
    op_class_counts: dict[str, int]
    sign_counts: dict[str, int]
    all_equal_proper: int
    all_equal_trivial: int
    mismatches: tuple[tuple[int, int], ...]


class ScanReport(NamedTuple):
    """A scanned grid n <= n_max, v <= v_max: its cells in (n, v) order and
    their summary; an immutable NamedTuple, like CellRecord."""

    n_max: int
    v_max: int
    cells: tuple[CellRecord, ...]
    summary: Summary


def _record(n: int, v: int, ev1: EigenResult, ev2: EigenResult) -> CellRecord:
    """The cell (n, v) with every other field derived from its two computed eigenvalues."""
    s = weight_exponent(n, v)
    ev3 = eigenvalue_three(n, v)
    equal_12 = ev1.value == ev2.value
    equal_13 = ev1.value == ev3
    return CellRecord(
        n,
        v,
        s,
        SignClass.NON_NEGATIVE if s >= 0 else SignClass.NEGATIVE,
        # k0_prime_simplified is the zero operator exactly at s = 0
        OpClass.ZERO if s == 0 else OpClass.PROPER,
        ev1,
        ev2,
        ev3,
        equal_12,
        equal_13,
        equal_12 and equal_13,
    )


def compute_cell(n: int, v: int) -> CellRecord:
    """Classify cell (n, v) and compare its three eigenvalue computations."""
    return _record(n, v, *cell_eigenvalues(n, v))


def summarize(cells: tuple[CellRecord, ...]) -> Summary:
    """Recount every classification; used at scan time and as a consistency check.

    Members are counted by identity (list.count compares with `is` first)
    and named by their values once, in definition order.
    """
    op_classes = [cell.op_class for cell in cells]
    signs = [cell.s_sign for cell in cells]
    proper = 0
    trivial = 0
    mismatches: list[tuple[int, int]] = []
    for cell in cells:
        if cell.all_equal:
            if cell.op_class is OpClass.PROPER:
                proper += 1
            else:
                trivial += 1
        else:
            mismatches.append((cell.n, cell.v))
    return Summary(
        total=len(cells),
        op_class_counts={c.value: op_classes.count(c) for c in OpClass},
        sign_counts={c.value: signs.count(c) for c in SignClass},
        all_equal_proper=proper,
        all_equal_trivial=trivial,
        mismatches=tuple(mismatches),
    )


def _usable_cpus() -> int | None:
    """The CPUs this process may run on, or None if unknown.

    The affinity mask where the platform has one (taskset, a CPU-pinned
    container), else the host's count.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def _deal(n_max: int, shares: int) -> list[list[int]]:
    """Deal the rows 0..n_max into `shares` lists of about equal cost.

    A row costs more as n grows, so the rows are dealt by stride: share i
    takes rows i, i + shares, i + 2 * shares, ... (two shares get 0, 2, 4,
    ... and 1, 3, 5, ...), which keeps each share's sum of n within n_max + 1
    of the mean.  Each share lists its rows in increasing order.
    """
    return [list(range(i, n_max + 1, shares)) for i in range(shares)]


_Share = TypeVar("_Share")
_Result = TypeVar("_Result")


def _rows(ns: Sequence[int], v_max: int) -> list[list[CellRecord]]:
    """The cells of the rows ns, one list per row, each in increasing v."""
    return [[compute_cell(n, v) for v in range(v_max + 1)] for n in ns]


def _in_processes(fn: Callable[[_Share], _Result], shares: Sequence[_Share]) -> list[_Result]:
    """fn(share) for each share, in order: the first here, each other in a forked child.

    A child sends back (True, result) or (False, exception), pickled into
    its own pipe, and leaves with os._exit, so no stdio buffer or atexit
    handler of this process runs twice.  This process closes each pipe's
    write end before the next fork, computes its own share, then reads and
    reaps the children in share order: a child's exception is raised here,
    and a child that sends nothing raises RuntimeError with its wait status.
    Every child is reaped before this returns or raises, so its CPU time and
    peak RSS count in RUSAGE_CHILDREN.  With one share, or where there is
    no fork, every share runs here and nothing more is imported.
    """
    if len(shares) == 1 or not hasattr(os, "fork"):
        return [fn(share) for share in shares]
    import pickle
    import signal

    children: list[tuple[int, BinaryIO]] = []  # (pid, read end), not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as out:
                        try:
                            sent = (True, fn(share))
                        except BaseException as exc:
                            sent = (False, exc)
                        pickle.dump(sent, out, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [fn(shares[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError) as exc:  # nothing or a cut message
                    ok, value = None, exc
            _, status = os.waitpid(pid, 0)
            del children[0]
            if ok is None:
                raise RuntimeError(
                    f"share {len(results)} sent no result: its process ended with wait status "
                    f"{status} (exit code {os.waitstatus_to_exitcode(status)})"
                ) from value
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def scan(n_max: int, v_max: int, workers: int | None = None) -> ScanReport:
    """Compute every cell of the [0, n_max] x [0, v_max] grid.

    workers > 1 runs the scan on that many processes, this one included,
    but never more than there are rows or CPUs this process may use.  The
    rows are dealt by stride into one share per process; this process
    computes the first share while children forked with os.fork compute the
    others (where the platform has no fork, this process computes them all
    in turn).  Row n is row n // workers of share n % workers, so the cells
    are reassembled in (n, v) order and the result is identical either way.
    """
    if n_max < 0 or v_max < 0:
        raise ValueError("n_max and v_max must be non-negative")
    workers = min(workers or 1, n_max + 1, _usable_cpus() or 1)
    shares = _in_processes(functools.partial(_rows, v_max=v_max), _deal(n_max, workers))
    cells = tuple(c for n in range(n_max + 1) for c in shares[n % workers][n // workers])
    return ScanReport(n_max, v_max, cells, summarize(cells))


_COLUMNS = tuple(CSV_HEADER.split(","))
# a JSON cell also carries k0 (= ev3 / 2), right after ev3
_K0_AT = _COLUMNS.index("ev3") + 1
_JSON_KEYS = _COLUMNS[:_K0_AT] + ("k0",) + _COLUMNS[_K0_AT:]

_Row = tuple[int, int, str, str, str, str, str, str, str, str, bool, bool, bool]


def _row(cell: CellRecord) -> _Row:
    """The cell's stored values, in CSV_HEADER order; both formats write this row."""
    return (
        cell.n,
        cell.v,
        str(cell.s),
        cell.s_sign.value,
        cell.op_class.value,
        str(cell.ev1.value),
        cell.ev1.status.value,
        str(cell.ev2.value),
        cell.ev2.status.value,
        str(cell.ev3),
        cell.equal_12,
        cell.equal_13,
        cell.all_equal,
    )


def _csv_values(values: tuple) -> tuple[str, ...]:
    """How a CSV report writes row values; a JSON report writes them as they are."""
    return tuple(("true" if x else "false") if isinstance(x, bool) else str(x) for x in values)


def write_report(report: ScanReport, format: str, path) -> None:
    """Persist a report as JSON (full) or CSV (fixed header, no k0 column).

    The bytes are those of json.dump(doc, indent=1) + "\n" and of the CSV
    header plus one comma-joined row per cell.  The columns after n and v
    depend on a cell only through v - 2n and its two eigenvalues, so the
    text of a row tail (every column after n and v) is kept per diagonal:
    the memo maps v - 2n to the fields after n and v of the last cell
    encoded there and their text.  A cell whose fields equal the entry's
    is written as its own n and v followed by that text, without _row; any
    other cell is encoded through _row and replaces the entry, so a
    diagonal whose rows alternate encodes each of them, at most one _row
    per cell.  The records read_report builds share their field objects,
    so for them the comparison ends on identity.  The JSON k0 column is
    derived only on encoding: k0 is ev3 / 2 and str(Fraction) is
    canonical, so an equal ev3 means an equal k0.  Like the 1 == True
    limit of _json_cells, the hit test holds for fields of the types _record
    gives them: a hand-built record whose ev3 is an int, whose s is a
    float or whose flag is 1 would share the text of one with a Fraction
    or a bool.  I/O problems surface as the interpreter's usual OSError.
    """
    encoded: dict[int, tuple[tuple, str]] = {}
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
            "cells": [],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            # the document without cells ends in '"cells": []\n}'
            fh.write(json.dumps(doc, indent=1)[:-3])
            separator = ""
            for cell in report.cells:
                n, v = cell.n, cell.v
                fields = cell[2:]
                entry = encoded.get(v - 2 * n)
                if entry is None or entry[0] != fields:
                    tail = _row(cell)[2:]
                    values = tail[: _K0_AT - 2] + (str(cell.k0),) + tail[_K0_AT - 2 :]
                    # a cell sits at depth 2; drop the tail's opening brace
                    tail_text = json.dumps(dict(zip(_JSON_KEYS[2:], values)), indent=1)
                    entry = encoded[v - 2 * n] = (fields, tail_text.replace("\n", "\n  ")[1:])
                fh.write(f'{separator}\n  {{\n   "n": {n},\n   "v": {v},{entry[1]}')
                separator = ","
            fh.write("\n ]\n}\n" if report.cells else "]\n}\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for cell in report.cells:
                n, v = cell.n, cell.v
                fields = cell[2:]
                entry = encoded.get(v - 2 * n)
                if entry is None or entry[0] != fields:
                    tail_text = ",".join(_csv_values(_row(cell)[2:]))
                    entry = encoded[v - 2 * n] = (fields, tail_text)
                fh.write(f"{n},{v},{entry[1]}\n")
    else:
        raise ValueError(f"unknown report format: {format!r}")


def _cell_from_row(
    n: int,
    v: int,
    stored: tuple,
    tail: str | tuple,
    written: Callable[[tuple], tuple],
    checked: dict[int, tuple],
) -> CellRecord:
    """Rebuild cell (n, v) from its stored row and make it its diagonal's memo entry.

    Every column but n, v and the two eigenvalues is derived; ValueError
    unless written(_row(cell)), the row write_report would store for the
    rebuilt cell, equals stored.  The columns after n and v depend on
    (n, v) only through v - 2n, so checked maps v - 2n to the tail of the
    last row on that diagonal that passed this check and to the fields
    after n and v of its cell.  tail is the row after n and v in the form
    the reader compares: the CSV text after the second comma, or the tuple
    of JSON values.  A later row whose tail equals the entry's and whose n
    and v are stored as write_report stores them is that cell at its own n
    and v, and _json_cells and _csv_cells build it from the entry's fields
    without coming here.  Every other row comes here and replaces the
    entry, so a diagonal whose rows alternate rebuilds each of them, at
    most once per row.
    """
    _, _, _, _, _, ev1, ev1_status, ev2, ev2_status = stored[:9]
    cell = _record(
        n,
        v,
        EigenResult(RadicalScalar.parse(ev1), EigenStatus(ev1_status)),
        EigenResult(RadicalScalar.parse(ev2), EigenStatus(ev2_status)),
    )
    if written(_row(cell)) != stored:
        raise ValueError(f"inconsistent report row for cell ({n}, {v})")
    checked[v - 2 * n] = (tail, cell[2:])
    return cell


_json_tail = operator.itemgetter(*_COLUMNS[2:])


def _json_cells(cells: list) -> list[CellRecord]:
    """The records of a JSON report's cells, in order.

    Every cell must have each CSV_HEADER column, n and v must be ints and
    the three flags bools, as write_report writes them: 1 == 1.0 == True,
    so comparing rows, or a row tail with the read memo's, cannot tell them
    apart.  The other columns are strings, which equal only strings.  A
    row hits the memo when its tail, the tuple of its values after n and
    v, equals the one remembered for its v - 2n.
    """
    checked: dict[int, tuple] = {}
    records = []
    for i, cell in enumerate(cells):
        try:
            n, v, tail = cell["n"], cell["v"], _json_tail(cell)
        except KeyError as e:
            raise ValueError(f"report cells[{i}] has no {e.args[0]!r} column") from None
        if (
            type(n) is not int
            or type(v) is not int
            or type(tail[8]) is not bool
            or type(tail[9]) is not bool
            or type(tail[10]) is not bool
        ):
            raise ValueError(f"report row for cell ({n!r}, {v!r}) stores a value of the wrong type")
        known = checked.get(v - 2 * n)
        if known is not None and known[0] == tail:
            records.append(CellRecord._make((n, v) + known[1]))
        else:
            # JSON stores the row values as they are
            records.append(_cell_from_row(n, v, (n, v) + tail, tail, tuple, checked))
    return records


def _csv_cells(lines: list[str]) -> list[CellRecord]:
    """The records of a CSV report's rows, lines[1:] (line 0 is the header).

    A row must have one field per column and an integer n and v.  It hits
    the memo when its text after the second comma equals the text
    remembered for its v - 2n and its n and v are the canonical text of
    the ints read (01, +1 and " 1" are not).
    """
    # the header, line 0, has one field per column, so line i is row i
    for i, ln in enumerate(lines):
        if ln.count(",") != len(_COLUMNS) - 1:
            fields = ln.count(",") + 1
            raise ValueError(f"report row {i} has {fields} fields, not {len(_COLUMNS)}")
    checked: dict[int, tuple] = {}
    records = []
    for i, ln in enumerate(lines[1:], 1):
        n_text, v_text, tail = ln.split(",", 2)
        try:
            n, v = int(n_text), int(v_text)
        except ValueError:
            nv = f"{n_text!r}, {v_text!r}"
            raise ValueError(f"report row {i} stores n and v as {nv}, not integers") from None
        known = checked.get(v - 2 * n)
        if known is not None and known[0] == tail and n_text == str(n) and v_text == str(v):
            records.append(CellRecord._make((n, v) + known[1]))
        else:
            records.append(_cell_from_row(n, v, tuple(ln.split(",")), tail, _csv_values, checked))
    return records


def read_report(path) -> ScanReport:
    """Load a report written by write_report, sniffing JSON versus CSV.

    Each cell is rebuilt from n, v and its two eigenvalues, and its stored
    row must be the one write_report writes for it; the JSON summary and
    k0 are ignored and re-derived.  A row whose tail repeats the last one
    checked on its diagonal v - 2n is not derived again (_cell_from_row).
    A JSON cell must have every column, a CSV row one field per column and
    an integer n and v, and the cells must fill the (n, v) grid in order.
    Anything else raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
            cells = tuple(_json_cells(doc["cells"]))
            n_max, v_max = doc["n_max"], doc["v_max"]
            if type(n_max) is not int or type(v_max) is not int:
                raise ValueError(f"report bounds are not integers: {n_max!r}, {v_max!r}")
        else:
            lines = [ln for ln in text.split("\n") if ln]
            if not lines or lines[0] != CSV_HEADER:
                raise ValueError("not a recognized report file")
            cells = tuple(_csv_cells(lines))
            # an empty CSV report fails the grid check below
            n_max, v_max = (cells[-1].n, cells[-1].v) if cells else (0, 0)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError, OverflowError, RecursionError) as e:
        raise ValueError(f"malformed report: {type(e).__name__}: {e}") from e
    if (
        n_max < 0
        or v_max < 0
        or len(cells) != (n_max + 1) * (v_max + 1)
        or any((c.n, c.v) != divmod(i, v_max + 1) for i, c in enumerate(cells))
    ):
        raise ValueError(f"report cells do not fill the grid n <= {n_max}, v <= {v_max} in order")
    return ScanReport(n_max, v_max, cells, summarize(cells))


class InvariantResult(NamedTuple):
    """One check of the verify suite: its name, verdict and detail text;
    an immutable NamedTuple, like CellRecord."""

    name: str
    passed: bool
    detail: str


def _invariant(name: str, failures: Sequence[tuple[int, int]], detail: str) -> InvariantResult:
    """The result of one check, naming up to five of its failing cells."""
    if failures:
        shown = ", ".join(f"({n},{v})" for n, v in failures[:5])
        more = "" if len(failures) <= 5 else f" and {len(failures) - 5} more"
        detail += f"; failing cells: {shown}{more}"
    return InvariantResult(name, not failures, detail)


def run_invariant_suite(n_max: int, v_max: int) -> list[InvariantResult]:
    """Grid-wide checks behind the `verify` command, one result per check.

    Visits every cell of the [0, n_max] x [0, v_max] grid once.  A cell's
    record comes from cell_step, as in scan, and gives the equality of the
    three eigenvalue computations and the sign boundary v >= 2n + 1.  In
    the same visit the cell checks annihilation by the stationary-equation
    operator, applied to the jet that ev1 and ev2 used, agreement of the
    composed shifted commutator with the closed form that ev1 applied,
    where all radicands are non-negative, and the collapsed form of the
    unshifted commutator.  Each state is let go when its cell is done.

    The cells are visited one v column at a time.  Within a column the
    cell at n has weight s and its neighbours at n -/+ 1 have s +/- 1, so
    each k_plus(s, v) and k_minus(s, v) is built once and serves the
    composed and the naive form of up to three cells; the memo ends with
    its column.  Cells and failures are listed in (n, v) order.
    """
    if n_max < 0 or v_max < 0:
        raise ValueError("n_max and v_max must be non-negative")
    columns: list[list[CellRecord]] = []
    schro_fail: list[tuple[int, int]] = []
    composed_fail: list[tuple[int, int]] = []
    composed_checked = 0
    naive_fail: list[tuple[int, int]] = []
    for v in range(v_max + 1):
        plus = functools.cache(functools.partial(k_plus, v=v))
        minus = functools.cache(functools.partial(k_minus, v=v))
        column: list[CellRecord] = []
        for n in range(n_max + 1):
            ev1, ev2, jet, shifted = cell_step(n, v)
            column.append(_record(n, v, ev1, ev2))
            s = jet[0].s
            if not schrodinger_diff(s, v).apply(jet).is_zero:
                schro_fail.append((n, v))
            if abs(s) > 1:
                composed_checked += 1
                composed = _shifted_commutator(plus(s + 1), minus(s), minus(s - 1), plus(s))
                if composed != shifted:
                    composed_fail.append((n, v))
            if s != 0:
                expected = DiffOp.multiplication(LaurentPoly({-2: naive_commutator_coefficient(s)}))
                if commutator(plus(s), minus(s)) != expected:
                    naive_fail.append((n, v))
        columns.append(column)
    # zip(*columns) gives the rows of constant n
    cells = tuple(cell for row in zip(*columns) for cell in row)
    schro_fail.sort()
    composed_fail.sort()
    naive_fail.sort()
    summary = summarize(cells)
    sign_fail = [
        (c.n, c.v)
        for c in cells
        if (c.s_sign is SignClass.NON_NEGATIVE) != (c.v >= 2 * c.n + 1)
    ]
    total = summary.total
    mismatches = summary.mismatches
    return [
        _invariant(
            "schrodinger-annihilation",
            schro_fail,
            f"{total - len(schro_fail)}/{total} states annihilated exactly",
        ),
        _invariant(
            "eigenvalue-equality",
            mismatches,
            f"{total - len(mismatches)}/{total} cells with all three eigenvalues equal",
        ),
        _invariant(
            "composed-vs-simplified",
            composed_fail,
            f"{composed_checked - len(composed_fail)}/{composed_checked} cells agree termwise"
            f" ({total - composed_checked} cells with |s| <= 1 skipped)",
        ),
        _invariant(
            "unshifted-commutator-form",
            naive_fail,
            "collapses to its 1/y^2 multiplication form on every s != 0 cell",
        ),
        _invariant("sign-boundary", sign_fail, "s >= 0 exactly on v >= 2n + 1"),
    ]
