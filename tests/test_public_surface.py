"""The package's public names and the shape of a grid state."""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import morsealg
from morsealg import (
    CellRecord,
    LaurentPoly,
    PhysicalParams,
    ScanReport,
    WeightedFunction,
    compute_cell,
    make_state,
    run_invariant_suite,
    summarize,
    weight_exponent,
    write_report,
)

MODULES = ("cli", "functions", "model", "operators", "plot", "scalars", "scan", "spectral")


def test_every_exported_name_resolves():
    assert len(morsealg.__all__) == len(set(morsealg.__all__))
    for name in morsealg.__all__:
        assert hasattr(morsealg, name), name


@pytest.mark.parametrize(
    "name", ["QuantumNumbers", "make_quantum_numbers", "eigenvalue_one", "eigenvalue_two"]
)
def test_removed_names_stay_removed(name):
    assert not hasattr(morsealg, name)
    for mod in MODULES:
        assert not hasattr(importlib.import_module(f"morsealg.{mod}"), name), mod


# the integer form of a LaurentPoly and a RadicalScalar
INTEGER_FORM = {"_num", "_den", "_unit", "_q"}
PACKAGE = Path(morsealg.__file__).parent


@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ("functions.py", "scalars.py"))
)
def test_only_functions_and_scalars_read_the_integer_form(path):
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    reads = [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in INTEGER_FORM
    ]
    assert reads == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names tree's import statements bind that no other line reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse((PACKAGE / path).read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("n, v", [(0, 0), (0, 1), (3, 7), (5, 3), (150, 300)])
def test_state_carries_the_weight_exponent_once(n, v):
    state = make_state(n, v)
    assert list(state._fields) == ["wavefunction", "normalization"]
    assert state.wavefunction.s == weight_exponent(n, v)


CELL_FIELDS = (
    "n",
    "v",
    "s",
    "s_sign",
    "op_class",
    "ev1",
    "ev2",
    "ev3",
    "equal_12",
    "equal_13",
    "all_equal",
)


def test_cell_record_fields_in_order():
    assert CellRecord._fields == CELL_FIELDS


@pytest.mark.parametrize("field", CELL_FIELDS)
def test_cell_record_is_immutable(field):
    cell = compute_cell(3, 7)
    with pytest.raises(AttributeError):
        setattr(cell, field, getattr(cell, field))


def _report():
    cells = (compute_cell(3, 7), compute_cell(3, 8))
    return ScanReport(3, 8, cells, summarize(cells))


# one instance of each record besides CellRecord, built as the package builds it
RECORDS = {
    "EigenResult": lambda: compute_cell(3, 7).ev1,
    "PhysicalParams": lambda: PhysicalParams(1.0, 1.0, 1.0, 1.0),
    "MorseState": lambda: make_state(3, 7),
    "WeightedFunction": lambda: make_state(3, 7).wavefunction,
    "Summary": lambda: _report().summary,
    "ScanReport": _report,
    "InvariantResult": lambda: run_invariant_suite(1, 2)[0],
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_tuples_of_their_fields(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert record == tuple(getattr(record, f) for f in record._fields)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # every record is a NamedTuple, so no command pays for dataclasses and
    # the inspect, ast, dis and tokenize modules it brings; -S keeps site
    # .pth files from preloading either
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import morsealg.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_weighted_function_takes_an_int_s_as_a_fraction():
    poly = LaurentPoly.one()
    for f in (WeightedFunction(2, poly), WeightedFunction(Fraction(0), poly)._replace(s=2)):
        assert type(f.s) is Fraction and f == (Fraction(2), poly)


@pytest.mark.parametrize("n, v", [(0, 0), (3, 7), (5, 3), (150, 300)])
def test_cell_record_k0_is_half_of_ev3(n, v):
    cell = compute_cell(n, v)
    assert cell.k0 == cell.ev3 / 2
    assert cell == tuple(getattr(cell, f) for f in CELL_FIELDS)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n, v", [(150, 300), (120, 41), (200, 407)])
def test_read_memo_hit_builds_the_computed_record(monkeypatch, tmp_path, fmt, n, v):
    # (n - 1, v - 2) has the same v - 2n, so its row tail is the same and
    # its derivation serves (n, v), read at its own position, from the memo
    scan_module = importlib.import_module("morsealg.scan")
    cells = (compute_cell(n - 1, v - 2), compute_cell(n, v))
    path = tmp_path / f"report.{fmt}"
    write_report(ScanReport(n, v, cells, summarize(cells)), fmt, path)
    text = path.read_text(encoding="utf-8")
    record = scan_module._record
    derived = []

    def counting(*args):
        derived.append(args[:2])
        return record(*args)

    monkeypatch.setattr(scan_module, "_record", counting)
    positions = iter([(n - 1, v - 2), (n, v)])
    if fmt == "json":
        (first, cell), in_place = scan_module._json_cells(json.loads(text)["cells"], positions)
    else:
        (first, cell), in_place = scan_module._csv_cells(text.split("\n")[:-1], positions)
    monkeypatch.undo()
    assert in_place
    assert derived == [(n - 1, v - 2)]
    assert type(cell) is CellRecord
    assert cell == compute_cell(n, v)
    assert cell[2:] == first[2:]
