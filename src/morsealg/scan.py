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
one derivation or encoding.  ``read_report`` reads the rows in one walk
over the grid positions its bounds give, so a row at its position is
checked against the entry in one comparison and no later pass checks the
order.  JSON text that re-encodes to itself byte for byte is read from one
decoded row per diagonal instead (``_canonical_json``); any other text
takes the walk.  ``scan`` keeps one entry per diagonal too, so the cells of
a diagonal share their field objects.  The ``verify`` suite visits each
cell once: it builds the cell's record as ``scan`` does, runs its operator
checks on the same state and keeps only the cells that fail a check, so its
memory does not grow with the grid.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import operator
import os
import re
from collections.abc import Callable, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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


# CellRecord._make without its length check, for (n, v) followed by the
# nine fields after n and v of another record, whose objects it shares
_sharing = functools.partial(tuple.__new__, CellRecord)


def compute_cell(n: int, v: int) -> CellRecord:
    """Classify cell (n, v) and compare its three eigenvalue computations."""
    return _record(n, v, *cell_eigenvalues(n, v))


def summarize(cells: tuple[CellRecord, ...]) -> Summary:
    """Recount every classification; used at scan time and as a consistency check.

    The counts run in C: members are counted by identity (list.count
    compares with `is` first) and named by their values once, in definition
    order.  Only the cells whose three eigenvalues are not all equal, none
    in a correct report, are visited in Python.
    """
    # op_class, s_sign and all_equal are fields 4, 3 and 10
    op_classes = list(map(operator.itemgetter(4), cells))
    signs = list(map(operator.itemgetter(3), cells))
    unequal = list(itertools.filterfalse(operator.itemgetter(10), cells))
    proper = op_classes.count(OpClass.PROPER)
    unequal_proper = [c.op_class for c in unequal].count(OpClass.PROPER)
    return Summary(
        total=len(cells),
        op_class_counts={c.value: op_classes.count(c) for c in OpClass},
        sign_counts={c.value: signs.count(c) for c in SignClass},
        all_equal_proper=proper - unequal_proper,
        all_equal_trivial=len(cells) - proper - len(unequal) + unequal_proper,
        mismatches=tuple((c.n, c.v) for c in unequal),
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
    """The cells of the rows ns, one list per row, each in increasing v.

    The fields after n and v depend on a cell only through v - 2n and its
    eigenvalues, so a cell whose fields equal those of the first cell kept
    on its diagonal takes that cell's field objects: the rows hold, and a
    share pickled back from a child process sends, each diagonal's fields once.
    """
    kept: dict[int, tuple] = {}

    def shared(cell: CellRecord) -> CellRecord:
        fields = kept.setdefault(cell.v - 2 * cell.n, cell[2:])
        return _sharing(cell[:2] + fields) if fields == cell[2:] else cell

    return [[shared(compute_cell(n, v)) for v in range(v_max + 1)] for n in ns]


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
# how each JSON cell begins, and how a JSON report with cells ends
_JSON_CELL = '\n  {\n   "n": '
_JSON_END = "\n ]\n}\n"

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


def _json_head(report: ScanReport) -> str:
    """The JSON text before the first cell: json.dumps(doc, indent=1) of the
    document without cells, up to the opening bracket of "cells"."""
    summary = report.summary
    doc = {
        "n_max": report.n_max,
        "v_max": report.v_max,
        "beta": "1",  # scans run at unit inverse width
        "summary": {
            "total": summary.total,
            "op_class": summary.op_class_counts,
            "s_sign": summary.sign_counts,
            "all_equal_proper": summary.all_equal_proper,
            "all_equal_trivial": summary.all_equal_trivial,
            "mismatches": [list(m) for m in summary.mismatches],
        },
        "cells": [],
    }
    # the document without cells ends in '"cells": []\n}'
    return json.dumps(doc, indent=1)[:-3]


# how each JSON column after n and v begins its line in a cell, at depth 2
_JSON_TAIL_KEYS = tuple(f'\n   "{key}": ' for key in _JSON_KEYS[2:])


def _json_value(x) -> str:
    """x as json.dumps writes it within a document: a string escaped by
    encode_basestring_ascii, True and False (by identity, as 1 == True) as
    true and false, and any other value, such as a hand-built record's int
    flag or float s, by json.dumps itself."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is True or x is False:
        return "true" if x else "false"
    return json.dumps(x)


def _json_tail_text(tail: tuple, k0: str) -> str:
    """The JSON text of a cell after its "v" line, from its row after n and v
    (_row(cell)[2:]) and the text of its k0: the lines json.dump(doc,
    indent=1) gives the cell, built without the indent encoder, which is
    pure Python."""
    values = tail[: _K0_AT - 2] + (k0,) + tail[_K0_AT - 2 :]
    return ",".join([key + _json_value(x) for key, x in zip(_JSON_TAIL_KEYS, values)]) + "\n  }"


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
    and so do the cells one scan process computes on a diagonal, so for
    them the comparison ends on identity.  The JSON k0 column is
    derived only on encoding: k0 is ev3 / 2 and str(Fraction) is
    canonical, so an equal ev3 means an equal k0.  Like the 1 == True
    limit of _json_cells, the hit test holds for fields of the types _record
    gives them: a hand-built record whose ev3 is an int, whose s is a
    float or whose flag is 1 would share the text of one with a Fraction
    or a bool.  The JSON head is one indented json.dumps (_json_head); each
    row tail is built in the same layout by _json_tail_text, which runs no
    indent encoder, and _canonical_json reads a text back with both.  I/O
    problems surface as the interpreter's usual OSError.
    """
    encoded: dict[int, tuple[tuple, str]] = {}
    if format == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_json_head(report))
            separator = ""
            for cell in report.cells:
                n, v = cell.n, cell.v
                fields = cell[2:]
                entry = encoded.get(v - 2 * n)
                if entry is None or entry[0] != fields:
                    entry = encoded[v - 2 * n] = (fields, _json_tail_text(_row(cell)[2:], str(cell.k0)))
                fh.write(f'{separator}{_JSON_CELL}{n},\n   "v": {v},{entry[1]}')
                separator = ","
            fh.write(_JSON_END if report.cells else "]\n}\n")
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

    Every column but n, v and the two eigenvalues is derived; ValueError,
    naming the cell, for a malformed eigenvalue or unless
    written(_row(cell)), the row write_report would store, equals stored.
    The columns after n and v depend on (n, v) only through v - 2n, so
    checked maps v - 2n to the tail of the last row on that diagonal that
    passed this check and to the fields after n and v of its cell.  tail is
    the row after n and v in the form the reader compares: the CSV text
    after the second comma, or the tuple of JSON values.  A later row at
    its grid position on that diagonal that stores the entry's tail, and n
    and v as write_report writes them, is that cell, and _json_cells and
    _csv_cells build it from the entry's fields without coming here.  Every
    other row comes here and replaces the entry, so a diagonal whose rows
    alternate rebuilds each of them, at most once per row.
    """
    ev1, ev1_status, ev2, ev2_status = stored[5:9]
    try:
        ev1 = EigenResult(RadicalScalar.parse(ev1), EigenStatus(ev1_status))
        ev2 = EigenResult(RadicalScalar.parse(ev2), EigenStatus(ev2_status))
    except ValueError:
        raise ValueError(f"report row for cell ({n}, {v}) stores a malformed eigenvalue") from None
    cell = _record(n, v, ev1, ev2)
    if written(_row(cell)) != stored:
        raise ValueError(f"inconsistent report row for cell ({n}, {v})")
    checked[v - 2 * n] = (tail, cell[2:])
    return cell


def _grid(n_max, v_max, rows: int):
    """The positions (n, v) of the grid n <= n_max, v <= v_max in order, or
    None unless both bounds are non-negative ints and the grid has `rows` cells."""
    if type(n_max) is type(v_max) is int and min(n_max, v_max) >= 0 and (n_max + 1) * (v_max + 1) == rows:
        return itertools.product(range(n_max + 1), range(v_max + 1))
    return None


_json_tail = operator.itemgetter(*_COLUMNS[2:])
# the types of a row as write_report writes it: two ints, eight strings, three bools
_JSON_TYPES = (int, int) + (str,) * 8 + (bool,) * 3


def _json_cells(cells: list, grid) -> tuple[list[CellRecord], bool]:
    """The records of a JSON report's cells, in order, and whether each sat at its grid position.

    grid gives the cells' positions (n, v) in order, as _grid does, or is
    None.  A cell at its position is a memo hit when its n and v are ints,
    its three flags bools and its tail, the tuple of its values after n and
    v, equals its diagonal's entry's: 1 == 1.0 == True, so equality alone
    cannot tell those types apart, and the other columns are strings, which
    equal only strings.  Any other cell must be an object with each
    CSV_HEADER column, of the types write_report writes, and is rebuilt by
    _cell_from_row.
    """
    checked: dict[int, tuple] = {}
    records = []
    in_place = grid is not None
    for i, (cell, at) in enumerate(zip(cells, grid or itertools.repeat(None))):
        try:
            n, v, tail = cell["n"], cell["v"], _json_tail(cell)
        except KeyError as e:
            raise ValueError(f"report cells[{i}] has no {e.args[0]!r} column") from None
        except TypeError:
            raise ValueError(f"report cells[{i}] is not an object") from None
        known = checked.get(v - 2 * n) if (n, v) == at else None
        if (
            known
            and known[0] == tail
            and type(n) is type(v) is int
            and type(tail[8]) is type(tail[9]) is type(tail[10]) is bool
        ):
            records.append(_sharing(at + known[1]))
            continue
        if tuple(map(type, (n, v) + tail)) != _JSON_TYPES:
            raise ValueError(f"report row for cell ({n!r}, {v!r}) stores a value of the wrong type")
        in_place = in_place and (n, v) == at
        # JSON stores the row values as they are
        records.append(_cell_from_row(n, v, (n, v) + tail, tail, tuple, checked))
    return records, in_place


def _csv_cells(lines: list[str], grid) -> tuple[list[CellRecord], bool]:
    """The records of a CSV report's rows, lines[1:] (line 0 is the header),
    and whether each sat at its grid position.

    grid gives the rows' positions (n, v) in order, as _grid does, or is
    None.  A row at its position is a memo hit when it is n and v, as
    write_report writes them, followed by its diagonal's entry's text after
    the second comma.  Any other row must have one field per column and an
    integer n and v, and is rebuilt by _cell_from_row.
    """
    checked: dict[int, tuple] = {}
    records = []
    in_place = grid is not None
    # the header, line 0, has one field per column, so line i is row i
    for i, (ln, at) in enumerate(zip(lines[1:], grid or itertools.repeat(None)), 1):
        known = at and checked.get(at[1] - 2 * at[0])
        if known and ln == f"{at[0]},{at[1]},{known[0]}":
            records.append(_sharing(at + known[1]))
            continue
        if ln.count(",") != len(_COLUMNS) - 1:
            raise ValueError(f"report row {i} has {ln.count(',') + 1} fields, not {len(_COLUMNS)}")
        n_text, v_text, tail = ln.split(",", 2)
        try:
            n, v = int(n_text), int(v_text)
        except ValueError:
            nv = f"{n_text!r}, {v_text!r}"
            raise ValueError(f"report row {i} stores n and v as {nv}, not integers") from None
        in_place = in_place and (n, v) == at
        records.append(_cell_from_row(n, v, tuple(ln.split(",")), tail, _csv_values, checked))
    return records, in_place


# what read_report turns into "malformed report"
_MALFORMED = (KeyError, TypeError, AttributeError, ZeroDivisionError, OverflowError, RecursionError)
# a bound of more digits spans more cells than any file holds
_JSON_BOUNDS = re.compile(r'\{\n "n_max": ([0-9]{1,20}),\n "v_max": ([0-9]{1,20}),\n')


def _decoded_json_tail(n: int, v: int, text: str) -> tuple[tuple, str] | None:
    """The fields after n and v of cell (n, v) and their text, or None.

    text is the cell's JSON after its "v" line.  It is decoded and its row
    checked by _cell_from_row; None if it does not decode to an object
    with every column, of the types write_report writes, or the check fails
    or raises anything read_report reports, so the row-by-row reader gives
    the verdict.
    """
    try:
        tail = _json_tail(json.loads("{" + text))
        if tuple(map(type, tail)) != _JSON_TYPES[2:]:
            return None
        cell = _cell_from_row(n, v, (n, v) + tail, tail, tuple, {})
    except (ValueError, *_MALFORMED):
        return None
    # _cell_from_row proved tail equal to _row(cell)[2:]
    return cell[2:], _json_tail_text(tail, str(cell.k0))


def _canonical_json(text: str) -> ScanReport | None:
    """The report that write_report writes as exactly text, or None for any other text.

    The bounds are read from the head, and text must hold one cell per grid
    position before the grid is walked.  The walk decodes the first row of
    each diagonal v - 2n (_decoded_json_tail) and builds every other cell
    from that row's fields.  Each cell's text, its n and v followed by the
    text written for its diagonal, must stand at its place in text, and the
    head written from the derived summary and the closing text must stand
    around the cells.  So a diagonal whose rows differ, an edited summary
    and any layout but write_report's give None.
    """
    bounds = _JSON_BOUNDS.match(text)
    if bounds is None:
        return None
    n_max, v_max = int(bounds[1]), int(bounds[2])
    if text.count(_JSON_CELL) != (n_max + 1) * (v_max + 1):
        return None
    head_end = at = text.find(_JSON_CELL)
    kept: dict[int, tuple[tuple, str]] = {}
    cells = []
    separator = ""
    for n, v in itertools.product(range(n_max + 1), range(v_max + 1)):
        entry = kept.get(v - 2 * n)
        if entry is None:
            start = at + len(f'{separator}{_JSON_CELL}{n},\n   "v": {v},')
            # the tail runs to its cell's closing brace
            entry = _decoded_json_tail(n, v, text[start : text.find("\n  }", start) + 4])
            if entry is None:
                return None
            kept[v - 2 * n] = entry
        piece = f'{separator}{_JSON_CELL}{n},\n   "v": {v},{entry[1]}'
        if not text.startswith(piece, at):
            return None
        at += len(piece)
        cells.append(_sharing((n, v) + entry[0]))
        separator = ","
    if len(text) - at != len(_JSON_END) or not text.endswith(_JSON_END):
        return None
    cells = tuple(cells)
    report = ScanReport(n_max, v_max, cells, summarize(cells))
    head = _json_head(report)
    if head_end != len(head) or not text.startswith(head):
        return None
    return report


def _json_int(digits: str):
    """A JSON integer literal as an int, or as an exact Decimal where int() refuses its length."""
    try:
        return int(digits)
    except ValueError:
        from decimal import Decimal

        return Decimal(digits)


def read_report(path) -> ScanReport:
    """Load a report written by write_report, sniffing JSON versus CSV.

    Each cell is rebuilt from n, v and its two eigenvalues, and its stored
    row must be the one write_report writes for it; the JSON summary and
    k0 are ignored and re-derived.  The rows are read in one walk over the
    grid positions (n, v) that the bounds give (_grid): the JSON n_max and
    v_max, or the n and v of the last CSV line.  A row that is what
    write_report writes at its position for the tail last checked on its
    diagonal v - 2n is not derived again; every other row is checked on its
    own (_cell_from_row), and one off its position marks the grid out of
    order.  A JSON cell must be an object with every column, each of the
    type write_report writes, and a CSV row must have one field per column
    and an integer n and v.  Anything else raises ValueError, the first bad
    row's before the bounds' or the grid's.  JSON text that is exactly what
    write_report writes for the report it holds is read without parsing
    each cell (_canonical_json); every other text, and every error, comes
    from the row-by-row reader.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    report = _canonical_json(text)
    if report is not None:
        return report
    try:
        if text.lstrip().startswith("{"):
            try:
                doc = json.loads(text)
            except ValueError:
                # a number too long for int() becomes a Decimal, so the cell
                # that stores it fails its type check by name; a decoding
                # error is raised again
                doc = json.loads(text, parse_int=_json_int)
            del text  # the walk needs only the parsed document
            rows, n_max, v_max = doc["cells"], doc.get("n_max"), doc.get("v_max")
            cells, in_place = _json_cells(rows, _grid(n_max, v_max, len(rows)))
            n_max, v_max = doc["n_max"], doc["v_max"]
            if type(n_max) is not int or type(v_max) is not int:
                raise ValueError(f"report bounds are not integers: {n_max!r}, {v_max!r}")
        else:
            lines = [ln for ln in text.split("\n") if ln]
            del text
            if not lines or lines[0] != CSV_HEADER:
                raise ValueError("not a recognized report file")
            try:
                n_max, v_max = map(int, lines[-1].split(",", 2)[:2])
            except ValueError:
                # the last row's own check rejects it, or the grid check the header alone
                n_max, v_max = 0, 0
            cells, in_place = _csv_cells(lines, _grid(n_max, v_max, len(lines) - 1))
    except _MALFORMED as e:
        raise ValueError(f"malformed report: {type(e).__name__}: {e}") from e
    if not in_place:
        raise ValueError(f"report cells do not fill the grid n <= {n_max}, v <= {v_max} in order")
    cells = tuple(cells)
    return ScanReport(n_max, v_max, cells, summarize(cells))


class InvariantResult(NamedTuple):
    """One check of the verify suite: its name, verdict, detail text and
    the number of cells it ran on; an immutable NamedTuple, like CellRecord.
    A check that ran on no cell has no failures, so it is passed, but
    `verify` reports it as skipped, not as a pass."""

    name: str
    passed: bool
    detail: str
    checked: int


def _invariant(
    name: str, failures: Sequence[tuple[int, int]], checked: int, detail: str
) -> InvariantResult:
    """The result of one check on `checked` cells, naming up to five of its failing cells."""
    if failures:
        shown = ", ".join(f"({n},{v})" for n, v in sorted(failures)[:5])
        more = "" if len(failures) <= 5 else f" and {len(failures) - 5} more"
        detail += f"; failing cells: {shown}{more}"
    return InvariantResult(name, not failures, detail, checked)


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

    The cells are visited one v column at a time, keyed by the int
    2s = v - 2n - 1.  Each k_plus(s, v) and k_minus(s, v) is built once per
    column and serves up to three cells, and the collapsed form of the naive
    commutator once per s.  A cell's record is checked in its visit and then
    dropped: only the failing cells of each check are kept, and _invariant
    names them in (n, v) order.
    """
    if n_max < 0 or v_max < 0:
        raise ValueError("n_max and v_max must be non-negative")
    total = (n_max + 1) * (v_max + 1)
    schro_fail, mismatches, composed_fail, naive_fail, sign_fail = [], [], [], [], []
    composed_checked = naive_checked = 0
    expected = functools.cache(
        lambda t: DiffOp.multiplication(LaurentPoly({-2: naive_commutator_coefficient(Fraction(t, 2))}))
    )
    for v in range(v_max + 1):
        # called only within this column
        plus = functools.cache(lambda t: k_plus(Fraction(t, 2), v))
        minus = functools.cache(lambda t: k_minus(Fraction(t, 2), v))
        for n in range(n_max + 1):
            ev1, ev2, jet, shifted = cell_step(n, v)
            cell = _record(n, v, ev1, ev2)
            if not cell.all_equal:
                mismatches.append((n, v))
            if (cell.s_sign is SignClass.NON_NEGATIVE) != (v >= 2 * n + 1):
                sign_fail.append((n, v))
            t = v - 2 * n - 1
            if not schrodinger_diff(jet[0].s, v).apply(jet).is_zero:
                schro_fail.append((n, v))
            if abs(t) > 2:
                composed_checked += 1
                if _shifted_commutator(plus(t + 2), minus(t), minus(t - 2), plus(t)) != shifted:
                    composed_fail.append((n, v))
            if t:
                naive_checked += 1
                if commutator(plus(t), minus(t)) != expected(t):
                    naive_fail.append((n, v))
    # only n_max = 0, v_max <= 3 has no cell with |s| > 1
    agreed = (
        f"{composed_checked - len(composed_fail)}/{composed_checked} cells agree termwise"
        if composed_checked
        else "no cell has |s| > 1"
    )
    return [
        _invariant(
            "schrodinger-annihilation",
            schro_fail,
            total,
            f"{total - len(schro_fail)}/{total} states annihilated exactly",
        ),
        _invariant(
            "eigenvalue-equality",
            mismatches,
            total,
            f"{total - len(mismatches)}/{total} cells with all three eigenvalues equal",
        ),
        _invariant(
            "composed-vs-simplified",
            composed_fail,
            composed_checked,
            f"{agreed} ({total - composed_checked} cells with |s| <= 1 skipped)",
        ),
        _invariant(
            "unshifted-commutator-form",
            naive_fail,
            naive_checked,
            "collapses to its 1/y^2 multiplication form on every s != 0 cell",
        ),
        _invariant("sign-boundary", sign_fail, total, "s >= 0 exactly on v >= 2n + 1"),
    ]
