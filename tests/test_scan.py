"""Grid scan, cell records, report round-trips, invariant suite."""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import json
import lzma
import os
import pstats
import random
import signal
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsealg import (
    CSV_HEADER,
    CellRecord,
    DiffOp,
    EigenResult,
    EigenStatus,
    LaurentPoly,
    OpClass,
    RadicalScalar,
    ScanReport,
    SignClass,
    compute_cell,
    k0_prime_composed,
    k0_prime_simplified,
    laguerre,
    make_state,
    naive_commutator,
    naive_commutator_coefficient,
    read_report,
    run_invariant_suite,
    scan,
    schrodinger_diff,
    sqrt_of_rational,
    summarize,
    write_report,
)
from morsealg.cli import run as cli_run
from morsealg.model import weight_exponent
from morsealg.scan import _JSON_KEYS, _K0_AT, _row
from morsealg.spectral import cell_step, eigenvalue_three

from _counting import count_calls, count_derivatives
from _reference import cell_eigenvalues_reference

# the package's `scan` attribute is the function, so fetch the module itself
scan_module = importlib.import_module("morsealg.scan")

REPORT_FIXTURES = Path(__file__).parent.parent / "perfbench" / "fixtures"


def test_cell_record_physical_example():
    cell = compute_cell(0, 2)
    assert cell.s == Fraction(1, 2)
    assert cell.s_sign is SignClass.NON_NEGATIVE
    assert cell.op_class is OpClass.PROPER
    assert cell.ev1.status is EigenStatus.PROPER and cell.ev1.value == -1
    assert cell.ev2.status is EigenStatus.PROPER and cell.ev2.value == -1
    assert cell.ev3 == -1
    assert cell.k0 == Fraction(-1, 2)
    assert cell.equal_12 and cell.equal_13 and cell.all_equal


def test_cell_record_trivial_example():
    cell = compute_cell(0, 1)
    assert cell.s == 0
    assert cell.op_class is OpClass.ZERO
    assert cell.ev1.status is EigenStatus.TRIVIAL_ZERO
    assert cell.ev2.status is EigenStatus.PROPER
    assert cell.ev3 == 0 and cell.all_equal


def _cells_beyond_the_grid() -> list[tuple[int, int]]:
    """25 cells with n, v <= 300, each outside the 101 x 101 report grid."""
    fixed = [
        (149, 299),  # s = 0
        (120, 241),  # s = 0
        (150, 300),  # s = -1/2
        (149, 300),  # s = 1/2
        (101, 300),  # s = 97/2
        (0, 300),  # s = 299/2
        (300, 300),  # s = -301/2
        (300, 0),  # s = -601/2
        (250, 299),  # s = -101
    ]
    rng = random.Random(300)
    cells = set(fixed)
    while len(cells) < 25:
        n, v = rng.randint(0, 300), rng.randint(0, 300)
        if max(n, v) > 100:
            cells.add((n, v))
    return sorted(cells)


def test_cells_beyond_the_grid():
    cells = _cells_beyond_the_grid()
    signs = {(v > 2 * n + 1) - (v < 2 * n + 1) for n, v in cells}
    assert signs == {-1, 0, 1}
    assert any((v - 2 * n - 1) % 2 for n, v in cells)  # half-integer s
    for n, v in cells:
        cell = compute_cell(n, v)
        expected = Fraction(2 * n - v + 1)
        if cell.s == 0:
            assert cell.op_class is OpClass.ZERO, (n, v)
            assert cell.ev1.status is EigenStatus.TRIVIAL_ZERO, (n, v)
        else:
            assert cell.op_class is OpClass.PROPER, (n, v)
            assert cell.ev1.status is EigenStatus.PROPER, (n, v)
        assert cell.ev2.status is EigenStatus.PROPER, (n, v)
        assert cell.ev1.value == cell.ev2.value == cell.ev3 == expected, (n, v)
        assert cell.all_equal, (n, v)
        state = make_state(n, v)
        assert state.wavefunction.poly.max_exponent == n, (n, v)
        assert schrodinger_diff(cell.s, v).apply(state.wavefunction).is_zero, (n, v)


@pytest.mark.parametrize("n,v", [(150, 300), (300, 300), (300, 650)])
def test_cell_matches_the_reference_path_beyond_the_grid(n, v):
    # the reference applies each operator to the bare state with the earlier
    # apply and extract bodies; compute_cell shares one jet between them
    cell = compute_cell(n, v)
    assert (cell.ev1, cell.ev2) == cell_eigenvalues_reference(n, v)
    assert cell.all_equal


@settings(max_examples=60, deadline=None)
@given(st.integers(101, 160), st.integers(101, 160))
def test_cell_step_matches_the_reference_beyond_the_grid(n, v):
    # the int Laguerre parameter, the shared weight object and the int
    # doubling of ev2 against the reference bodies, off the 100 x 100 grid
    ev1, ev2, _, _ = cell_step(n, v)
    try:
        assert (ev1, ev2) == cell_eigenvalues_reference(n, v)
    finally:
        make_state.cache_clear()


def test_cell_step_makes_at_most_four_fractions():
    # a cell keeps its weight s and its two eigenvalues; ev2 is doubled from
    # one more, so no other Fraction is built (fewer where Fraction
    # arithmetic bypasses __new__, as from Python 3.12 on)
    cells = [(n, v) for n in range(7) for v in range(31)]
    profile = cProfile.Profile()
    profile.runcall(lambda: [cell_step(n, v) for n, v in cells])
    made = sum(
        stat[1]
        for (path, _, name), stat in pstats.Stats(profile).stats.items()
        if name == "__new__" and path.endswith("fractions.py")
    )
    assert 0 < made <= 4 * len(cells)


@pytest.mark.parametrize("n,v", [(1, 0), (2, 9), (5, 30), (30, 30), (3, 7), (0, 4)])
def test_cell_builds_one_state_and_differentiates_it_twice(n, v):
    # one Laguerre polynomial and the two derivatives f', f'' per cell,
    # counted through every morsealg namespace that binds laguerre; the
    # state is built outside the make_state cache; (3, 7) has s = 0, where
    # the shifted commutator is the zero operator
    make_state.cache_clear()
    with contextlib.ExitStack() as stack:
        counted = count_calls(stack, laguerre)
        d = count_derivatives(stack)
        cell = compute_cell(n, v)
    assert cell.all_equal
    assert counted.call_count == 1
    assert d.call_count == 2
    assert make_state.cache_info().currsize == 0


def test_csv_rows_are_pinned(tmp_path):
    path = tmp_path / "report.csv"
    write_report(scan(0, 2), "csv", path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[2] == "0,1,0,NonNegative,Zero,0,TrivialZero,0,Proper,0,true,true,true"
    assert lines[3] == "0,2,1/2,NonNegative,Proper,-1,Proper,-1,Proper,-1,true,true,true"


def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "n,v,s,s_sign,op_class,ev1,ev1_status,ev2,ev2_status,ev3,"
        "equal_12,equal_13,all_equal"
    )


def test_scan_smallest_grid():
    report = scan(0, 0)
    assert report.summary.total == 1
    (cell,) = report.cells
    assert (cell.n, cell.v) == (0, 0)
    assert cell.s == Fraction(-1, 2)
    assert cell.ev3 == 1
    assert cell.s_sign is SignClass.NEGATIVE


def test_scan_two_cells():
    report = scan(0, 1)
    assert report.summary.total == 2
    trivial = report.cells[1]
    assert (trivial.n, trivial.v) == (0, 1)
    assert trivial.op_class is OpClass.ZERO
    assert trivial.ev1.status is EigenStatus.TRIVIAL_ZERO
    assert trivial.ev3 == 0


def test_scan_rejects_negative_bounds():
    with pytest.raises(ValueError):
        scan(-1, 5)


def test_scan_cells_sorted_and_complete():
    report = scan(3, 5)
    assert [(c.n, c.v) for c in report.cells] == [(n, v) for n in range(4) for v in range(6)]
    assert report.summary.total == 24


def test_scan_summary_matches_recount():
    report = scan(5, 9)
    assert summarize(report.cells) == report.summary
    assert report.summary.all_equal_proper + report.summary.all_equal_trivial + len(
        report.summary.mismatches
    ) == report.summary.total


def test_scan_equality_flags_hold_on_small_grid():
    report = scan(8, 12)
    assert not report.summary.mismatches
    for cell in report.cells:
        assert cell.all_equal
        assert (cell.op_class is OpClass.ZERO) == (cell.s == 0)
        assert (cell.s_sign is SignClass.NON_NEGATIVE) == (cell.v >= 2 * cell.n + 1)


def test_workers_produce_identical_report():
    assert scan(4, 7, workers=3) == scan(4, 7)


@pytest.mark.parametrize("workers", [1, 2])
def test_cells_on_one_diagonal_share_their_field_objects(workers):
    # (1, 6) and (3, 10) lie on v - 2n = 4 and in the same share of two
    report = scan(3, 10, workers=workers)
    assert report == scan(3, 10)
    at = {(c.n, c.v): c for c in report.cells}
    first, later = at[1, 6], at[3, 10]
    assert first[2:] == later[2:]
    assert all(a is b for a, b in zip(first[2:], later[2:]))
    # cells on different diagonals share nothing computed
    assert at[1, 5].s is not first.s and at[1, 5].ev1 is not first.ev1


@pytest.fixture
def forks(monkeypatch):
    """Runs every share in-process; lists how many children each scan would fork."""
    counts: list[int] = []

    def in_process(fn, shares):
        counts.append(len(shares) - 1)
        return [fn(share) for share in shares]

    monkeypatch.setattr(scan_module, "_in_processes", in_process)
    return counts


@pytest.mark.parametrize(
    "workers, n_max, cpus, processes",
    [
        (100_000, 3, 8, 4),  # capped by the rows
        (100_000, 10, 2, 2),  # capped by the CPUs
        (3, 10, 8, 3),
        (100_000, 10, None, None),  # CPU count unknown: serial, no child
        (5, 0, 8, None),  # a single row runs serially
    ],
)
def test_pool_size_is_capped_before_any_process_starts(
    monkeypatch, forks, workers, n_max, cpus, processes
):
    # cpus is the size of the process's affinity mask, which the host count
    # (64 here) must not override; an unknown count means a platform with no
    # affinity call and no known host count; the caller is one of the
    # processes, so the pool forks one fewer
    if cpus is None:
        monkeypatch.delattr(scan_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(scan_module.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(
            scan_module.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 64)
    report = scan(n_max, 2, workers=workers)
    assert forks == [(processes or 1) - 1]
    assert report == scan(n_max, 2)


@pytest.mark.parametrize("cpus, processes", [(2, 2), (8, 3)])
def test_pool_size_falls_back_to_the_host_cpu_count(monkeypatch, forks, cpus, processes):
    # a platform without an affinity call caps the processes by the host's
    # count; the pool forks all but the caller
    monkeypatch.delattr(scan_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: cpus)
    scan(10, 2, workers=3)
    assert forks == [processes - 1]


@pytest.mark.parametrize("shares", [1, 2, 3, 4])
def test_rows_are_dealt_into_shares_of_about_equal_cost(shares):
    # a row costs more as n grows, so a contiguous split would leave one
    # share far more than its mean; a stride deal keeps each share's sum of n
    # within n_max + 1 of it (at n_max = 30, two shares sum to 240 and 225)
    for n_max in range(41):
        dealt = scan_module._deal(n_max, shares)
        assert len(dealt) == shares
        assert sorted(n for share in dealt for n in share) == list(range(n_max + 1))
        assert all(share == sorted(share) for share in dealt)
        sizes = [len(share) for share in dealt]
        assert max(sizes) - min(sizes) <= 1, (n_max, sizes)
        sums = [sum(share) for share in dealt]
        mean = sum(sums) / shares
        assert all(abs(total - mean) <= n_max + 1 for total in sums), (n_max, sums)
    assert [sum(share) for share in scan_module._deal(30, 2)] == [240, 225]


def test_the_caller_computes_the_first_share(monkeypatch):
    # with the real pool: a forked child inherits the wrapper but appends to
    # its own copy of the list, so `computed` holds the cells of this
    # process only
    monkeypatch.setattr(scan_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    computed = []
    compute = scan_module.compute_cell

    def recording(n, v):
        computed.append((n, v))
        return compute(n, v)

    monkeypatch.setattr(scan_module, "compute_cell", recording)
    report = scan(5, 3, workers=2)
    assert computed == [(n, v) for n in (0, 2, 4) for v in range(4)]
    monkeypatch.undo()
    assert report == scan(5, 3)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block runs longer than seconds."""

    def timed_out(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_process():
    # every child this process forked has been reaped: none running, no zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patch_in_children(monkeypatch, in_child=None, in_caller=None):
    """Two processes; each cell first runs in_child in a forked child, in_caller here."""
    monkeypatch.setattr(scan_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller = os.getpid()
    compute = scan_module.compute_cell

    def patched(n, v):
        hook = in_caller if os.getpid() == caller else in_child
        if hook is not None:
            hook(n, v)
        return compute(n, v)

    monkeypatch.setattr(scan_module, "compute_cell", patched)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="only a forked child inherits the patch")
def test_a_failure_in_a_child_share_is_raised_by_scan(monkeypatch):
    def failing(n, v):
        raise ArithmeticError(f"cell ({n}, {v})")

    _patch_in_children(monkeypatch, failing)
    with _deadline(60):
        # the child's share starts at row 1
        with pytest.raises(ArithmeticError, match=r"^cell \(1, 0\)$"):
            scan(5, 3, workers=2)
    _assert_no_child_process()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="only a forked child inherits the patch")
def test_a_child_that_dies_without_a_result_fails_loudly(monkeypatch):
    _patch_in_children(monkeypatch, lambda n, v: os._exit(3))
    with _deadline(60):
        no_result = r"^share 1 sent no result: .* wait status \d+ \(exit code 3\)$"
        with pytest.raises(RuntimeError, match=no_result):
            scan(5, 3, workers=2)
    _assert_no_child_process()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs a forked child")
def test_a_failure_in_the_callers_share_propagates_unchanged(monkeypatch):
    # the child may still be computing when the caller fails; it is killed
    # and reaped before scan raises
    raised = []

    def failing(n, v):
        raised.append(ArithmeticError(f"cell ({n}, {v})"))
        raise raised[-1]

    _patch_in_children(monkeypatch, in_caller=failing)
    with _deadline(60):
        with pytest.raises(ArithmeticError, match=r"^cell \(0, 0\)$") as excinfo:
            scan(5, 3, workers=2)
    assert excinfo.value is raised[0]
    _assert_no_child_process()


def test_without_fork_the_shares_run_serially(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert scan(4, 7, workers=3) == scan(4, 7)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked children")
def test_two_children_at_once(monkeypatch):
    # the affinity mask of 4 CPUs lets workers=3 fork two children, whose
    # pipes are open at the same time
    cpus = {0, 1, 2, 3}
    monkeypatch.setattr(scan_module.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    with _deadline(60):
        report = scan(6, 5, workers=3)
    assert len(set(forked)) == 2
    _assert_no_child_process()
    monkeypatch.undo()
    assert report == scan(6, 5)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked children")
def test_results_larger_than_a_pipe_buffer_arrive_in_share_order():
    # each child blocks on its full pipe until this process reads it
    with _deadline(60):
        sizes = [1, 1 << 20, 3 << 19]
        assert scan_module._in_processes(bytes, sizes) == [bytes(k) for k in sizes]
    _assert_no_child_process()


def test_json_round_trip(tmp_path):
    report = scan(3, 6)
    path = tmp_path / "report.json"
    write_report(report, "json", path)
    assert read_report(path) == report


def test_read_report_rederives_json_summary_and_k0(tmp_path):
    report = scan(3, 6)
    path = tmp_path / "report.json"
    write_report(report, "json", path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["summary"] = {
        "total": 999,
        "op_class": {"Proper": 0, "Zero": 0, "Undefined": 7},
        "s_sign": {"NonNegative": 1, "Negative": 1},
        "all_equal_proper": 0,
        "all_equal_trivial": 0,
        "mismatches": [[0, 0]],
    }
    doc["cells"][5]["k0"] = "123"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = read_report(path)
    assert loaded.summary == report.summary == summarize(loaded.cells)
    assert loaded.cells[5].k0 == loaded.cells[5].ev3 / 2 == report.cells[5].k0
    assert loaded == report


@functools.cache
def _report_texts() -> dict[str, str]:
    """The JSON and CSV reports of scan(3, 6), as written."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("json", "csv"):
            path = Path(tmp) / f"report.{fmt}"
            write_report(scan(3, 6), fmt, path)
            texts[fmt] = path.read_text(encoding="utf-8")
    return texts


def _flip(row: dict, key: str) -> None:
    row[key] = not row[key]


def _without_n_and_v(row: dict) -> dict:
    return {k: x for k, x in row.items() if k not in ("n", "v")}


# each edits the scan(3, 6) report as {"n_max", "v_max", "cells": [row dicts]};
# cell 2 is (0, 2) with s = 1/2, cell 4 is (0, 4) with s = 3/2, cell 12 is
# (1, 5) with s = 1
_INCONSISTENT = {
    "flipped-all_equal": lambda doc: _flip(doc["cells"][4], "all_equal"),
    "flipped-equal_13": lambda doc: _flip(doc["cells"][4], "equal_13"),
    "wrong-s": lambda doc: doc["cells"][4].update(s="5/2"),
    "non-canonical-s": lambda doc: doc["cells"][2].update(s="2/4"),
    "wrong-s_sign": lambda doc: doc["cells"][4].update(s_sign="Negative"),
    "wrong-ev3": lambda doc: doc["cells"][4].update(ev3="-2"),
    "duplicated-row": lambda doc: doc["cells"].__setitem__(5, doc["cells"][4]),
    "missing-row": lambda doc: doc["cells"].pop(5),
    "extra-row": lambda doc: doc["cells"].append(doc["cells"][-1]),
    "swapped-rows": lambda doc: doc["cells"].insert(5, doc["cells"].pop(4)),
    # a row tail already checked at v - 2n = 4, now at v - 2n = 3
    "tail-of-another-v-2n": lambda doc: doc["cells"][12].update(_without_n_and_v(doc["cells"][4])),
}


def _csv_text(doc: dict) -> str:
    flags = ("equal_12", "equal_13", "all_equal")
    rows = [
        ",".join(str(cell[k]).lower() if k in flags else str(cell[k]) for k in CSV_HEADER.split(","))
        for cell in doc["cells"]
    ]
    return "\n".join([CSV_HEADER, *rows, ""])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("corruption", sorted(_INCONSISTENT))
def test_read_report_rejects_inconsistent_rows(tmp_path, fmt, corruption):
    doc = json.loads(_report_texts()["json"])
    assert _csv_text(doc) == _report_texts()["csv"]
    _INCONSISTENT[corruption](doc)
    path = tmp_path / f"report.{fmt}"
    path.write_text(json.dumps(doc) if fmt == "json" else _csv_text(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        read_report(path)


@pytest.mark.parametrize(
    "n_max, v_max, cells",
    [
        (2, 6, 28),  # n_max too small for the cells
        (3, 7, 28),  # v_max too large
        (-1, 6, 0),  # negative bound, no cells
        (0, -1, 0),
        (10**30, 6, 28),  # huge bound: rejected by the count alone
    ],
)
def test_read_report_rejects_json_bounds_that_do_not_match_the_cells(tmp_path, n_max, v_max, cells):
    doc = json.loads(_report_texts()["json"])
    doc.update(n_max=n_max, v_max=v_max, cells=doc["cells"][:cells])
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="grid"):
        read_report(path)


_ODD_VALUES = (None, True, False, 0, -1, 2.5, 10**30, "", "x", "1/0", "2/4", "1*sqrt(8)", [], [1], {})


@st.composite
def _corrupted_reports(draw) -> str:
    """The JSON or CSV report of scan(3, 6) with one corruption applied."""
    fmt = draw(st.sampled_from(["json", "csv"]))
    text = _report_texts()[fmt]
    how = draw(st.sampled_from(["truncate", "edit", "rows", "field", "top"]))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "edit":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(st.characters(codec="utf-8")) + text[i + 1 :]
    if fmt == "json":
        doc = json.loads(text)
        cells = doc["cells"]
    else:
        header, *lines = text.split("\n")[:-1]
        cells = [line.split(",") for line in lines]
    i = draw(st.integers(0, len(cells) - 1))
    j = draw(st.integers(0, len(cells) - 1))
    if how == "rows":
        edit = draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if edit == "drop":
            del cells[i]
        elif edit == "duplicate":
            cells.insert(i, cells[j])
        else:
            cells[i], cells[j] = cells[j], cells[i]
    elif how == "field" or fmt == "csv":
        cell = cells[i]
        edit = draw(st.sampled_from(["delete", "retype", "flip"]))
        if edit == "flip":
            flags = ["equal_12", "equal_13", "all_equal"] if fmt == "json" else [10, 11, 12]
            key = draw(st.sampled_from(flags))
            cell[key] = {True: False, False: True, "true": "false", "false": "true"}[cell[key]]
        else:
            key = draw(st.sampled_from(sorted(cell) if fmt == "json" else range(len(cell))))
            if edit == "delete":
                del cell[key]
            else:
                value = draw(st.sampled_from(_ODD_VALUES))
                cell[key] = value if fmt == "json" else str(value)
    else:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(st.sampled_from(_ODD_VALUES))
    if fmt == "json":
        # write_report ends its text with a newline, so only a draw that
        # adds one keeps the layout _canonical_json reads
        return json.dumps(doc, indent=1) + draw(st.sampled_from(["", "\n"]))
    return "\n".join([header, *(",".join(cell) for cell in cells), ""])


def _csv_prefix(rows: int) -> str:
    """The CSV report of scan(3, 6) cut after its first `rows` cells."""
    return "".join(_report_texts()["csv"].splitlines(keepends=True)[: rows + 1])


def _read(text: str) -> tuple[ScanReport | None, str | None]:
    """read_report of a file holding text, and None; or None and the message of its ValueError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report"
        path.write_text(text, encoding="utf-8")
        try:
            return read_report(path), None
        except ValueError as e:
            return None, str(e)


def _read_or_none(text: str):
    """read_report of a file holding text, or None when it raises ValueError."""
    return _read(text)[0]


def _read_row_by_row(text: str) -> tuple[ScanReport | None, str | None]:
    """_read with an empty read memo for every row and no canonical JSON
    path: each row derived and checked on its own."""
    cell_from_row = scan_module._cell_from_row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan_module, "_canonical_json", lambda text: None)
        # a row that passes is remembered in a throwaway memo, so none hits
        mp.setattr(
            scan_module,
            "_cell_from_row",
            lambda n, v, stored, tail, written, checked: cell_from_row(n, v, stored, tail, written, {}),
        )
        return _read(text)


# A CSV report stores no bounds, so a prefix that ends on a row closing a
# smaller grid is, byte for byte, the report of that grid: (0, 0) closes
# scan(0, 0) and (0, 6) closes scan(0, 6).
@settings(max_examples=300, deadline=None)
@given(_corrupted_reports())
@example(_csv_prefix(1))
@example(_csv_prefix(7))
def test_corrupted_reports_are_rejected_or_read_unchanged(text):
    start = time.perf_counter()
    loaded = _read_or_none(text)
    elapsed = time.perf_counter() - start
    if loaded is not None and loaded != scan(3, 6):
        assert _report_texts()["csv"].startswith(text)
        assert loaded == scan(loaded.n_max, loaded.v_max)
    assert elapsed < 1.0


def _read_general(text: str) -> tuple[ScanReport | None, str | None]:
    """_read with _canonical_json declining every text, so every JSON text takes the memo walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan_module, "_canonical_json", lambda text: None)
        return _read(text)


def _fixture_text(fmt: str) -> str:
    """The full-grid report perfbench reads, 101 x 101 cells, as write_report wrote it."""
    return lzma.decompress((REPORT_FIXTURES / f"report.{fmt}.xz").read_bytes()).decode("utf-8")


def test_canonical_json_reads_only_what_write_report_writes():
    text = _report_texts()["json"]
    assert scan_module._canonical_json(text) == scan(3, 6)
    doc = json.loads(text)
    for other in (json.dumps(doc), json.dumps(doc, indent=1), json.dumps(doc, indent=2) + "\n", text + "\n"):
        assert scan_module._canonical_json(other) is None
        assert _read(other) == (scan(3, 6), None)


def test_an_edited_summary_alone_still_reads_to_the_scan():
    report = scan(3, 6)
    doc = json.loads(_report_texts()["json"])
    doc["summary"]["total"] = 999
    doc["summary"]["mismatches"] = [[0, 0]]
    text = json.dumps(doc, indent=1) + "\n"
    assert text != _report_texts()["json"]
    assert scan_module._canonical_json(text) is None
    assert _read(text) == (report, None) == _read_general(text)


@pytest.mark.parametrize("bound", [10**5, 10**30])
def test_a_header_claiming_a_huge_grid_is_rejected_in_bounded_time(bound):
    doc = json.loads(_report_texts()["json"])
    doc.update(n_max=bound, v_max=bound, cells=doc["cells"][:3])
    text = json.dumps(doc, indent=1) + "\n"
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        decoded = count_calls(stack, scan_module._decoded_json_tail)
        # the header claims more cells than the text holds, so no row is decoded
        assert scan_module._canonical_json(text) is None
        assert decoded.call_count == 0
    assert _read(text) == (None, f"report cells do not fill the grid n <= {bound}, v <= {bound} in order")
    assert time.perf_counter() - start < 1.0


@settings(max_examples=300, deadline=None)
@given(_corrupted_reports())
@example(_csv_prefix(1))
@example(_report_texts()["json"])
def test_memo_matches_row_by_row_reads(text):
    # the same report, or the same first error, with the canonical JSON
    # path, with the memo walk alone and with each row on its own
    assert _read(text) == _read_general(text) == _read_row_by_row(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_memo_matches_row_by_row_reads_on_the_full_grid(fmt):
    text = _fixture_text(fmt)
    loaded, error = _read(text)
    assert error is None and (loaded.n_max, loaded.v_max) == (100, 100)
    # the JSON fixture is what write_report writes, so it takes the canonical path
    assert scan_module._canonical_json(text) == (loaded if fmt == "json" else None)
    assert (loaded, error) == _read_general(text) == _read_row_by_row(text)


# in the scan(3, 6) CSV report line 0 is the header and line i holds row i:
# rows 4 and 5 are cells (0, 3) and (0, 4), row 12 is cell (1, 4)
@pytest.mark.parametrize(
    "swap, flip, error",
    [
        (True, False, "report cells do not fill the grid n <= 3, v <= 6 in order"),
        # each swapped row is self-consistent, so a later bad row's error wins
        (True, True, "inconsistent report row for cell (1, 4)"),
        (False, True, "inconsistent report row for cell (1, 4)"),
    ],
)
def test_a_bad_row_wins_over_the_grid_error(swap, flip, error):
    lines = _report_texts()["csv"].split("\n")
    assert lines[4].startswith("0,3,") and lines[5].startswith("0,4,")
    assert lines[12].startswith("1,4,1/2,NonNegative,Proper,-1,Proper,-1,Proper,-1,true,")
    if swap:
        lines[4], lines[5] = lines[5], lines[4]
    if flip:
        lines[12] = lines[12].replace(",true,", ",false,", 1)
    text = "\n".join(lines)
    assert _read(text)[1] == error
    assert _read(text) == _read_row_by_row(text)


@pytest.mark.parametrize("v_max", ["6", 6.0, None])
def test_a_bad_row_wins_over_json_bounds_of_another_type(v_max):
    doc = json.loads(_report_texts()["json"])
    doc["v_max"] = v_max
    assert _read(json.dumps(doc))[1] == f"report bounds are not integers: 3, {v_max!r}"
    doc["cells"][9]["all_equal"] = False
    # cell 9 is (1, 2)
    assert _read(json.dumps(doc))[1] == "inconsistent report row for cell (1, 2)"
    assert _read(json.dumps(doc)) == _read_row_by_row(json.dumps(doc))


def test_row_tail_depends_on_n_and_v_only_through_v_minus_2n():
    # read_report checks each (v - 2n, row tail) once; this fails if a
    # column after n and v ever depends on n or v alone
    tails: dict[tuple, set] = {}
    for cell in scan(6, 12).cells:
        tails.setdefault((cell.v - 2 * cell.n, cell.ev1, cell.ev2), set()).add(_row(cell)[2:])
    assert all(len(t) == 1 for t in tails.values())
    assert len(tails) < 7 * 13


# in the scan(3, 6) report cell 4 is (0, 4) and cell 13 is (1, 6): both have
# v - 2n = 4 and the same row tail, so row 13 repeats the key of row 4
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_read_report_rejects_a_duplicated_row_by_the_grid_check(tmp_path, fmt):
    doc = json.loads(_report_texts()["json"])
    assert _without_n_and_v(doc["cells"][4]) == _without_n_and_v(doc["cells"][13])
    doc["cells"][13] = dict(doc["cells"][4])
    path = tmp_path / f"report.{fmt}"
    path.write_text(json.dumps(doc) if fmt == "json" else _csv_text(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="grid"):
        read_report(path)


# cell (0, 2) of the 0 x 2 grid with ev1 a sum of two terms: ev1 != ev2 =
# ev3, so the three false flags agree with the values, and only the
# eigenvalue grammar (one term q * i^m * sqrt(r)) rejects the row
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_read_report_rejects_an_eigenvalue_sum(tmp_path, capsys, fmt):
    path = tmp_path / f"report.{fmt}"
    write_report(scan(0, 2), "json", path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["cells"][2].update(ev1="-1+1*sqrt(2)", equal_12=False, equal_13=False, all_equal=False)
    path.write_text(json.dumps(doc) if fmt == "json" else _csv_text(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        read_report(path)
    code = cli_run(["plot", "--in", str(path), "--mode", "sign", "--out", str(tmp_path / "x.svg")])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: report row for cell (0, 2) stores a malformed eigenvalue\n"


# cell (0, 2) moved to (-1, 0) keeps v - 2n = 2, so every column after n and
# v is the row a cell at (-1, 0) would have; the index checks on n reject it
# before the grid check can
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_read_report_rejects_a_negative_index(tmp_path, capsys, fmt):
    path = tmp_path / f"report.{fmt}"
    write_report(scan(0, 2), "json", path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["cells"][0] = dict(doc["cells"][2], n=-1, v=0)
    path.write_text(json.dumps(doc) if fmt == "json" else _csv_text(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="non-negative"):
        read_report(path)
    code = cli_run(["plot", "--in", str(path), "--mode", "sign", "--out", str(tmp_path / "x.svg")])
    assert code == 2 and capsys.readouterr().err == "error: n and v must be non-negative\n"
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("written_n", ["01", "+1", " 1"])
def test_read_report_rejects_a_non_canonical_n_on_a_repeated_key(tmp_path, written_n):
    lines = _report_texts()["csv"].split("\n")
    # line 0 is the header, so cell i is on line i + 1
    assert lines[5].startswith("0,4,") and lines[14].startswith("1,6,")
    assert lines[5][4:] == lines[14][4:]
    lines[14] = written_n + lines[14][1:]
    path = tmp_path / "report.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=r"row for cell \(1, 6\)"):
        read_report(path)


# write_report writes n and v as JSON integers and the flags as JSON booleans.
# 1 == 1.0 == True, so each edit below keeps the value and changes only its
# type.  Cell 4, (0, 4), is the first row of its key, and cell 13, (1, 6),
# repeats that key, so both the derived and the remembered row are checked.
@pytest.mark.parametrize("cell", [4, 13])
@pytest.mark.parametrize(
    "key, retype",
    [
        ("n", bool),
        ("n", float),
        ("v", float),
        ("equal_12", int),
        ("equal_13", int),
        ("equal_13", float),
        ("all_equal", float),
    ],
)
def test_read_report_rejects_json_numbers_and_flags_of_another_type(tmp_path, cell, key, retype):
    doc = json.loads(_report_texts()["json"])
    row = doc["cells"][cell]
    assert retype(row[key]) == row[key] and type(retype(row[key])) is not type(row[key])
    row[key] = retype(row[key])
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="wrong type"):
        read_report(path)


@pytest.mark.parametrize("bounds", [{"n_max": 3.0}, {"v_max": 6.0}, {"n_max": "3"}, {"v_max": "6"}])
def test_read_report_rejects_json_bounds_of_another_type(tmp_path, bounds):
    doc = json.loads(_report_texts()["json"])
    doc.update(bounds)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="not integers"):
        read_report(path)


def test_read_report_parses_each_distinct_row_once(monkeypatch, tmp_path):
    parses = []
    parse = RadicalScalar.parse

    def counting(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(RadicalScalar, "parse", counting)
    path = tmp_path / "report.json"
    path.write_bytes(lzma.decompress((REPORT_FIXTURES / "report.json.xz").read_bytes()))
    loaded = read_report(path)
    # v - 2n takes 301 values on the 101 x 101 grid; two eigenvalues each
    assert len(loaded.cells) == 101 * 101
    assert len(parses) <= 2 * 301


def _reference_text(report: ScanReport, fmt: str) -> str:
    """The report as the stdlib writes it whole: json.dumps(doc, indent=1), or joined CSV rows."""
    rows = [_row(cell) for cell in report.cells]
    if fmt == "csv":
        lines = [",".join(str(x).lower() if isinstance(x, bool) else str(x) for x in row) for row in rows]
        return "\n".join([CSV_HEADER, *lines]) + "\n"
    columns = CSV_HEADER.split(",")
    at = columns.index("ev3") + 1
    keys = [*columns[:at], "k0", *columns[at:]]
    summary = report.summary
    doc = {
        "n_max": report.n_max,
        "v_max": report.v_max,
        "beta": "1",
        "summary": {
            "total": summary.total,
            "op_class": summary.op_class_counts,
            "s_sign": summary.sign_counts,
            "all_equal_proper": summary.all_equal_proper,
            "all_equal_trivial": summary.all_equal_trivial,
            "mismatches": [list(m) for m in summary.mismatches],
        },
        "cells": [
            dict(zip(keys, (*row[:at], str(cell.k0), *row[at:])))
            for row, cell in zip(rows, report.cells)
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def _tail_sharing_report() -> ScanReport:
    """Cells (0, 4), (1, 6), (2, 8): one v - 2n and one ev1, ev2, but (1, 6) has all_equal flipped."""
    cells = (compute_cell(0, 4), compute_cell(1, 6)._replace(all_equal=False), compute_cell(2, 8))
    assert len({(c.v - 2 * c.n, c.ev1, c.ev2) for c in cells}) == 1
    return ScanReport(2, 8, cells, summarize(cells))


# an eigenvalue no cell of these grids has
_OTHER_EV1 = EigenResult(RadicalScalar.parse("1/3"), EigenStatus.PROPER)


def _ev1_differing_report() -> ScanReport:
    """Cells (0, 4), (1, 6), (2, 8): one v - 2n, and (1, 6) differs from the others only in ev1."""
    cells = (compute_cell(0, 4), compute_cell(1, 6)._replace(ev1=_OTHER_EV1), compute_cell(2, 8))
    assert cells[0][2:] == cells[2][2:] != cells[1][2:]
    return ScanReport(2, 8, cells, summarize(cells))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "report",
    [
        pytest.param(lambda: scan(0, 0), id="scan(0,0)"),
        pytest.param(lambda: scan(3, 6), id="scan(3,6)"),
        pytest.param(lambda: scan(30, 30), id="scan(30,30)"),
        pytest.param(lambda: ScanReport(0, 0, (), summarize(())), id="empty"),
        pytest.param(_tail_sharing_report, id="shared-tail-flipped-flag"),
        pytest.param(_ev1_differing_report, id="shared-diagonal-other-ev1"),
    ],
)
def test_written_bytes_equal_the_stdlib_reference(tmp_path, fmt, report):
    report = report()
    path = tmp_path / f"report.{fmt}"
    write_report(report, fmt, path)
    assert path.read_bytes().decode("utf-8") == _reference_text(report, fmt)


# on the diagonal v - 2n = 0 of scan(3, 6), the cells (1, 2) and (3, 6) get
# another ev1 and the flags _record derives from it, so the diagonal's rows
# alternate between two tails, each the one write_report writes for its cell
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rows_alternating_on_one_diagonal_read_and_rewrite_unchanged(tmp_path, fmt):
    cells = tuple(
        scan_module._record(c.n, c.v, _OTHER_EV1, c.ev2) if c.v == 2 * c.n and c.n % 2 else c
        for c in scan(3, 6).cells
    )
    diagonal = [_row(c)[2:] for c in cells if c.v == 2 * c.n]
    assert diagonal[0] == diagonal[2] != diagonal[1] == diagonal[3]
    report = ScanReport(3, 6, cells, summarize(cells))
    path = tmp_path / f"report.{fmt}"
    write_report(report, fmt, path)
    text = path.read_text(encoding="utf-8")
    assert text == _reference_text(report, fmt)
    # a diagonal whose rows differ is read row by row
    assert scan_module._canonical_json(text) is None
    loaded = _read_or_none(text)
    assert (loaded, None) == (report, None) == _read_row_by_row(text)
    write_report(loaded, fmt, path)
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_report_encodes_each_distinct_row_tail_once(monkeypatch, tmp_path, fmt):
    fixture = lzma.decompress((REPORT_FIXTURES / f"report.{fmt}.xz").read_bytes())
    path = tmp_path / f"report.{fmt}"
    path.write_bytes(fixture)
    report = read_report(path)
    # a JSON tail is encoded by _json_tail_text, a CSV tail converted by _csv_values
    name = "_json_tail_text" if fmt == "json" else "_csv_values"
    encode = getattr(scan_module, name)
    tails = []

    def counting(*args):
        tails.append(args)
        return encode(*args)

    monkeypatch.setattr(scan_module, name, counting)
    write_report(report, fmt, path)
    monkeypatch.undo()
    # v - 2n takes 301 values on the 101 x 101 grid
    assert len(report.cells) == 101 * 101
    assert 0 < len(tails) <= 301
    assert path.read_bytes() == fixture


def _indented_json_tail_text(tail: tuple, k0: str) -> str:
    """A cell's text after its "v" line as one indented json.dumps of the cell writes it."""
    values = tail[: _K0_AT - 2] + (k0,) + tail[_K0_AT - 2 :]
    return json.dumps(dict(zip(_JSON_KEYS[2:], values)), indent=1).replace("\n", "\n  ")[1:]


def _status_rows():
    """Row tails with each eigenvalue status, a radical and an imaginary
    eigenvalue, and hand-built records and tails of other types."""
    cell = compute_cell(3, 7)
    radical = RadicalScalar.parse("i*2*sqrt(3)")
    records = [
        cell._replace(ev1=EigenResult(cell.ev1.value, status), ev2=EigenResult(radical, status))
        for status in EigenStatus
    ]
    records.append(cell._replace(ev1=EigenResult(RadicalScalar.parse("1/4*sqrt(6)"), EigenStatus.PROPER)))
    # a hand-built record: int flags, a float s (which _row writes as text)
    records.append(cell._replace(s=2.5, equal_12=1, equal_13=0, all_equal=1))
    tails = [(_row(c)[2:], str(c.k0)) for c in records]
    # values that only a hand-built row holds go through json.dumps
    tail = _row(cell)[2:]
    tails.append(((2.5, None, 10**30, "caf\u00e9 \"q\"\\", *tail[4:-3], 1, 0.0, -1), "-1/2"))
    return tails


def test_json_tail_text_matches_an_indented_json_dumps():
    fixture = lzma.decompress((REPORT_FIXTURES / "report.json.xz").read_bytes())
    cells = scan_module._canonical_json(fixture.decode("utf-8")).cells
    distinct = {(_row(c)[2:], str(c.k0)) for c in cells}
    # v - 2n takes 301 values on the 101 x 101 grid
    assert len(distinct) == 301
    rows = _status_rows()
    assert {"TrivialZero", "NotEigenfunction", "OperatorUndefined"} <= {t[4] for t, _ in rows}
    for tail, k0 in [*distinct, *rows]:
        assert scan_module._json_tail_text(tail, k0) == _indented_json_tail_text(tail, k0), tail


def test_write_report_derives_k0_once_per_distinct_row_tail(monkeypatch, tmp_path):
    fixture = lzma.decompress((REPORT_FIXTURES / "report.json.xz").read_bytes())
    path = tmp_path / "report.json"
    path.write_bytes(fixture)
    report = read_report(path)
    k0 = CellRecord.k0
    evaluations = []

    def counting(cell):
        evaluations.append((cell.n, cell.v))
        return k0.fget(cell)

    monkeypatch.setattr(CellRecord, "k0", property(counting))
    write_report(report, "json", path)
    monkeypatch.undo()
    # v - 2n takes 301 values on the 101 x 101 grid
    assert len(report.cells) == 101 * 101
    assert 0 < len(evaluations) <= 301
    assert path.read_bytes() == fixture


def test_csv_read_converts_each_distinct_row_once(monkeypatch, tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(lzma.decompress((REPORT_FIXTURES / "report.csv.xz").read_bytes()))
    csv_values = scan_module._csv_values
    conversions = []

    def counting(values):
        conversions.append(values)
        return csv_values(values)

    monkeypatch.setattr(scan_module, "_csv_values", counting)
    loaded = read_report(path)
    monkeypatch.undo()
    # a repeated row compares only its n and v text, without _csv_values
    assert len(loaded.cells) == 101 * 101
    assert 0 < len(conversions) <= 301


def test_csv_round_trip_preserves_cells(tmp_path):
    report = scan(3, 6)
    path = tmp_path / "report.csv"
    write_report(report, "csv", path)
    loaded = read_report(path)
    assert loaded.cells == report.cells
    assert loaded.summary == report.summary
    assert (loaded.n_max, loaded.v_max) == (report.n_max, report.v_max)


def test_csv_layout(tmp_path):
    report = scan(1, 2)
    path = tmp_path / "report.csv"
    write_report(report, "csv", path)
    raw = path.read_bytes().decode("utf-8")
    lines = raw.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6 + 1  # header, six cells, trailing LF
    assert raw.endswith("\n") and "\r" not in raw


def test_write_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_report(scan(0, 0), "xml", tmp_path / "x")


def test_write_report_propagates_io_errors(tmp_path):
    with pytest.raises(OSError):
        write_report(scan(0, 0), "json", tmp_path / "missing" / "x.json")


def test_read_report_rejects_unknown_content(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_report(path)


def test_determinism_of_written_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(scan(2, 5), "json", a)
    write_report(scan(2, 5), "json", b)
    assert a.read_bytes() == b.read_bytes()


def test_invariant_suite_passes_on_small_grid():
    results = run_invariant_suite(6, 10)
    names = [r.name for r in results]
    assert names == [
        "schrodinger-annihilation",
        "eigenvalue-equality",
        "composed-vs-simplified",
        "unshifted-commutator-form",
        "sign-boundary",
    ]
    for r in results:
        assert r.passed, (r.name, r.detail)
    # the composed form skips the 25 cells with |s| <= 1, the unshifted
    # form the 5 with s = 0 (v = 2n + 1)
    assert [r.checked for r in results] == [77, 77, 52, 72, 77]


def test_invariant_suite_names_failing_cells(monkeypatch):
    monkeypatch.setattr(scan_module, "schrodinger_diff", lambda s, v: DiffOp.identity())
    result = run_invariant_suite(6, 10)[0]
    assert result.name == "schrodinger-annihilation" and not result.passed
    assert result.detail == (
        "0/77 states annihilated exactly; "
        "failing cells: (0,0), (0,1), (0,2), (0,3), (0,4) and 72 more"
    )


def _failing_cells(failures: list[tuple[int, int]]) -> str:
    shown = ", ".join(f"({n},{v})" for n, v in failures[:5])
    more = "" if len(failures) <= 5 else f" and {len(failures) - 5} more"
    return f"; failing cells: {shown}{more}"


def test_invariant_suite_reports_a_wrong_ladder_in_grid_order(monkeypatch):
    operators_module = importlib.import_module("morsealg.operators")
    ladder = operators_module._ladder

    def wrong_ladder(sigma, s, v):
        # the bracket's 1/y coefficient s(2s - sigma) read as s(2s - sigma) + 1
        extra = LaurentPoly.monomial(-1, sqrt_of_rational((s - sigma) / s))
        return ladder(sigma, s, v) + DiffOp.multiplication(extra)

    monkeypatch.setattr(operators_module, "_ladder", wrong_ladder)
    n_max, v_max = 6, 10
    # each cell on its own, in (n, v) order, with freshly built ladders
    composed_fail, naive_fail = [], []
    checked = 0
    for n in range(n_max + 1):
        for v in range(v_max + 1):
            s = Fraction(v - 2 * n - 1, 2)
            if abs(s) > 1:
                checked += 1
                if k0_prime_composed(s, v) != k0_prime_simplified(s, v):
                    composed_fail.append((n, v))
            if s:
                naive = DiffOp.multiplication(LaurentPoly({-2: naive_commutator_coefficient(s)}))
                if naive_commutator(s, v) != naive:
                    naive_fail.append((n, v))
    # column order would list these cells differently
    for fails in (composed_fail, naive_fail):
        assert len(fails) > 5
        assert fails[:5] != sorted(fails, key=lambda c: (c[1], c[0]))[:5]
    results = {r.name: r for r in run_invariant_suite(n_max, v_max)}
    composed = results["composed-vs-simplified"]
    assert not composed.passed
    assert composed.detail == (
        f"{checked - len(composed_fail)}/{checked} cells agree termwise"
        f" ({77 - checked} cells with |s| <= 1 skipped)" + _failing_cells(composed_fail)
    )
    naive = results["unshifted-commutator-form"]
    assert not naive.passed
    assert naive.detail == (
        "collapses to its 1/y^2 multiplication form on every s != 0 cell"
        + _failing_cells(naive_fail)
    )
    for name in ("schrodinger-annihilation", "eigenvalue-equality", "sign-boundary"):
        assert results[name].passed, name


def test_invariant_suite_reports_wrong_signs_and_eigenvalues_in_grid_order(monkeypatch):
    def wrong_sign(n, v):
        return (n + 2 * v) % 7 == 3

    def wrong_ev3(n, v):
        return (2 * n + v) % 5 == 1

    def flipped_weight(n, v):
        s = weight_exponent(n, v)
        if wrong_sign(n, v):
            return Fraction(-1) if s >= 0 else Fraction(1)
        return s

    def shifted_ev3(n, v):
        return eigenvalue_three(n, v) + wrong_ev3(n, v)

    monkeypatch.setattr(scan_module, "weight_exponent", flipped_weight)
    monkeypatch.setattr(scan_module, "eigenvalue_three", shifted_ev3)
    n_max, v_max = 6, 10
    cells = [(n, v) for n in range(n_max + 1) for v in range(v_max + 1)]
    sign_fail = [c for c in cells if wrong_sign(*c)]
    mismatches = [c for c in cells if wrong_ev3(*c)]
    # column order would list these cells differently
    for fails in (sign_fail, mismatches):
        assert len(fails) > 5
        assert fails[:5] != sorted(fails, key=lambda c: (c[1], c[0]))[:5]
    results = {r.name: r for r in run_invariant_suite(n_max, v_max)}
    equality = results["eigenvalue-equality"]
    assert not equality.passed
    assert equality.detail == (
        f"{77 - len(mismatches)}/77 cells with all three eigenvalues equal" + _failing_cells(mismatches)
    )
    sign = results["sign-boundary"]
    assert not sign.passed
    assert sign.detail == "s >= 0 exactly on v >= 2n + 1" + _failing_cells(sign_fail)
    for name in ("schrodinger-annihilation", "composed-vs-simplified", "unshifted-commutator-form"):
        assert results[name].passed, name


def test_invariant_suite_keeps_no_record_past_its_visit(monkeypatch):
    records = []
    record = scan_module._record

    def kept(*args):
        # the suite may still hold the last record while it builds the next
        if len(records) >= 2:
            # counted outside the assert, whose rewriting would hold it too
            refs = sys.getrefcount(records[-2])
            assert refs == 2  # the list and the argument
        records.append(record(*args))
        return records[-1]

    monkeypatch.setattr(scan_module, "_record", kept)
    assert all(r.passed for r in run_invariant_suite(4, 8))
    assert len(records) == 45


@pytest.mark.parametrize(
    "module, name, failing",
    [
        # ev2's diagonal operator and the stationary operator are built apart
        ("morsealg.spectral", "k0_diff", "eigenvalue-equality"),
        ("morsealg.scan", "schrodinger_diff", "schrodinger-annihilation"),
    ],
)
def test_invariant_suite_checks_ev2_and_the_stationary_equation_apart(
    monkeypatch, module, name, failing
):
    # 1 added to the constant term of one of the two operators fails its
    # own check on every cell and no other
    target = importlib.import_module(module)
    build = getattr(target, name)
    monkeypatch.setattr(target, name, lambda s, x: build(s, x) + DiffOp.identity())
    results = {r.name: r for r in run_invariant_suite(6, 10)}
    assert not results[failing].passed
    assert results[failing].detail.startswith("0/77 ")
    for other in set(results) - {failing}:
        assert results[other].passed, other


def test_invariant_suite_builds_and_differentiates_each_state_once():
    # the verify-grid grid: one Laguerre polynomial, the two derivatives
    # f', f'' and one closed-form shifted commutator per cell, no state kept
    make_state.cache_clear()
    with contextlib.ExitStack() as stack:
        polys = count_calls(stack, laguerre)
        simplified = count_calls(stack, k0_prime_simplified)
        d = count_derivatives(stack)
        results = run_invariant_suite(6, 100)
    assert all(r.passed for r in results)
    assert polys.call_count == 707
    assert d.call_count == 1414
    assert simplified.call_count == 707
    assert make_state.cache_info().currsize == 0


def test_invariant_suite_builds_each_collapsed_commutator_once_per_s():
    # the expected 1/y^2 form depends on s alone, so each distinct s != 0
    # of the grid builds it once; each cell still composes its own commutator
    with contextlib.ExitStack() as stack:
        coefficient = count_calls(stack, naive_commutator_coefficient)
        results = run_invariant_suite(6, 30)
    assert all(r.passed for r in results)
    twice_s = {v - 2 * n - 1 for n in range(7) for v in range(31)} - {0}
    built = sorted(call.args[0] for call in coefficient.call_args_list)
    assert built == sorted(Fraction(t, 2) for t in twice_s)


@pytest.mark.parametrize("n_max, v_max", [(-1, 3), (3, -1)])
def test_invariant_suite_rejects_negative_bounds(n_max, v_max):
    with pytest.raises(ValueError, match="non-negative"):
        run_invariant_suite(n_max, v_max)
