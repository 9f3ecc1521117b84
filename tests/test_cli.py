"""Command-line interface: flags, outputs, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from morsealg import CSV_HEADER
from morsealg.cli import run

ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"

def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_help_exits_zero():
    code, out, _ = _run(["--help"])
    assert code == 0
    assert "scan" in out and "physical" in out


def test_missing_subcommand_is_usage_error():
    code, _, _ = _run([])
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    code, _, _ = _run(["frobnicate"])
    assert code == 2


def test_scan_writes_json_and_summary(tmp_path):
    out_path = tmp_path / "r.json"
    code, out, err = _run(["scan", "--n-max", "4", "--v-max", "6", "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()
    assert "cells: 35" in out
    assert "mismatches: 0" in out
    assert f"wrote {out_path}" in err


def test_scan_csv_format(tmp_path):
    out_path = tmp_path / "r.csv"
    code, _, _ = _run(
        ["scan", "--n-max", "2", "--v-max", "2", "--format", "csv", "--out", str(out_path)]
    )
    assert code == 0
    first = out_path.read_text(encoding="utf-8").split("\n", 1)[0]
    assert first.startswith("n,v,s,s_sign,op_class,ev1")


def test_scan_rejects_bad_bounds(tmp_path):
    code, _, err = _run(["scan", "--n-max", "-2", "--out", str(tmp_path / "x.json")])
    assert code == 2 and "non-negative" in err


def test_scan_rejects_bad_threads(tmp_path):
    code, _, _ = _run(
        ["scan", "--n-max", "1", "--v-max", "1", "--threads", "0", "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_scan_unwritable_destination_is_io_error(tmp_path):
    code, _, err = _run(
        ["scan", "--n-max", "0", "--v-max", "0", "--out", str(tmp_path / "no_dir" / "x.json")]
    )
    assert code == 3 and "error:" in err


def test_scan_threads_flag_matches_serial_output(tmp_path):
    serial, threaded = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(["scan", "--n-max", "3", "--v-max", "4", "--out", str(serial)])[0] == 0
    assert (
        _run(
            ["scan", "--n-max", "3", "--v-max", "4", "--threads", "2", "--out", str(threaded)]
        )[0]
        == 0
    )
    assert serial.read_bytes() == threaded.read_bytes()


def test_plot_from_json_and_csv(tmp_path):
    json_report = tmp_path / "r.json"
    csv_report = tmp_path / "r.csv"
    _run(["scan", "--n-max", "3", "--v-max", "5", "--out", str(json_report)])
    _run(["scan", "--n-max", "3", "--v-max", "5", "--format", "csv", "--out", str(csv_report)])
    for report, mode in ((json_report, "equality"), (csv_report, "sign")):
        svg = tmp_path / f"{mode}.svg"
        code, _, _ = _run(["plot", "--in", str(report), "--mode", mode, "--out", str(svg)])
        assert code == 0
        ET.fromstring(svg.read_text(encoding="utf-8"))


def test_plot_missing_input_is_io_error(tmp_path):
    code, _, _ = _run(
        ["plot", "--in", str(tmp_path / "nope.json"), "--mode", "sign", "--out", str(tmp_path / "x.svg")]
    )
    assert code == 3


def test_plot_malformed_report_is_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a report\n", encoding="utf-8")
    code, _, _ = _run(["plot", "--in", str(bad), "--mode", "sign", "--out", str(tmp_path / "x.svg")])
    assert code == 2


def _set_cell(key, value):
    def corrupt(doc):
        doc["cells"][0][key] = value

    return corrupt


def _drop_ev2(doc):
    del doc["cells"][0]["ev2"]


def _cell_as_list(doc):
    doc["cells"][0] = list(doc["cells"][0].values())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc.update(cells=5),
        _cell_as_list,
        _set_cell("ev1", "1/0"),
        _drop_ev2,
        _set_cell("all_equal", False),
        _set_cell("ev1", "1*sqrt(1000000000000000000000007)"),
        lambda doc: doc.update(n_max=-1, cells=[]),
        lambda doc: doc.update(n_max=float("inf")),
        CSV_HEADER + "\n",
        '{"cells": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=[
        "cells-not-a-list", "cell-as-list", "ev1-divides-by-zero", "missing-ev2",
        "flipped-all_equal", "huge-radicand", "negative-n_max", "infinite-n_max",
        "csv-header-only", "deep-nesting",
    ],
)
def test_plot_rejects_malformed_or_inconsistent_report(tmp_path, corrupt):
    report, svg = tmp_path / "r.json", tmp_path / "x.svg"
    if isinstance(corrupt, str):
        report.write_text(corrupt, encoding="utf-8")
    else:
        _run(["scan", "--n-max", "1", "--v-max", "2", "--out", str(report)])
        doc = json.loads(report.read_text(encoding="utf-8"))
        corrupt(doc)
        report.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = _run(["plot", "--in", str(report), "--mode", "sign", "--out", str(svg)])
    assert code == 2 and err.startswith("error: ")
    assert not svg.exists()


def test_plot_rejects_unknown_mode(tmp_path):
    code, _, _ = _run(
        ["plot", "--in", str(tmp_path / "r.json"), "--mode", "rainbow", "--out", str(tmp_path / "x.svg")]
    )
    assert code == 2


def test_cell_output():
    code, out, _ = _run(["cell", "--n", "0", "--v", "2"])
    assert code == 0
    for line in (
        "cell (0, 2)",
        "s: 1/2",
        "s_sign: NonNegative",
        "op_class: Proper",
        "ev1: -1 (Proper)",
        "ev2: -1 (Proper)",
        "ev3: -1",
        "k0: -1/2",
        "all_equal: true",
    ):
        assert line in out


def test_cell_trivial_output():
    code, out, _ = _run(["cell", "--n", "0", "--v", "1"])
    assert code == 0
    assert "op_class: Zero" in out
    assert "ev1: 0 (TrivialZero)" in out
    assert "ev2: 0 (Proper)" in out


def test_cell_verbose_sections():
    code, out, _ = _run(["cell", "--n", "0", "--v", "2", "--verbose"])
    assert code == 0
    assert "state: exp(-y/2) * y^(1/2) * (1)" in out
    assert "normalization: 1" in out
    assert "shifted commutator (closed form):" in out
    assert "composed action: 1 (Proper)" in out
    assert "stationary operator action: zero function" in out
    assert "lowering: Holds" in out


def test_cell_verbose_undefined_branches():
    code, out, _ = _run(["cell", "--n", "0", "--v", "1", "--verbose"])
    assert code == 0
    assert "normalization: undefined" in out
    assert "shifted commutator (composed): undefined" in out
    assert "unshifted commutator: undefined at s = 0" in out


def test_cell_rejects_negative():
    code, _, _ = _run(["cell", "--n", "-1", "--v", "0"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ladder", "--n", "-1", "--v", "3"], "--n"),
        (["ladder", "--v-max", "-1"], "--v-max"),
        (["verify", "--n-max", "-1"], "--n-max"),
        (["verify", "--v-max", "-1"], "--v-max"),
    ],
    ids=["ladder-n", "ladder-v-max", "verify-n-max", "verify-v-max"],
)
def test_negative_bounds_are_usage_errors(argv, flag):
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err


def test_plot_rejects_a_small_size_before_reading(tmp_path):
    svg = tmp_path / "x.svg"
    code, out, err = _run(
        ["plot", "--in", str(tmp_path / "nope.json"), "--mode", "sign", "--size", "199",
         "--out", str(svg)]
    )
    assert code == 2 and out == ""
    assert "--size" in err
    assert list(tmp_path.iterdir()) == []


def test_ladder_single_cell():
    code, out, _ = _run(["ladder", "--n", "1", "--v", "4"])
    assert code == 0
    assert "lowering (1, 4): Holds" in out
    assert "raising (1, 4): OutOfDomain" in out


def test_ladder_requires_both_coordinates():
    code, _, _ = _run(["ladder", "--n", "1"])
    assert code == 2


def test_ladder_sweep():
    code, out, _ = _run(["ladder", "--v-max", "12"])
    assert code == 0
    assert "fails: 0" in out


def test_verify_small_grid():
    code, out, _ = _run(["verify", "--n-max", "6", "--v-max", "10"])
    assert code == 0
    assert out == (
        "PASS schrodinger-annihilation: 77/77 states annihilated exactly\n"
        "PASS eigenvalue-equality: 77/77 cells with all three eigenvalues equal\n"
        "PASS composed-vs-simplified: 52/52 cells agree termwise"
        " (25 cells with |s| <= 1 skipped)\n"
        "PASS unshifted-commutator-form: collapses to its 1/y^2 multiplication form"
        " on every s != 0 cell\n"
        "PASS sign-boundary: s >= 0 exactly on v >= 2n + 1\n"
    )


def test_physical_output():
    code, out, _ = _run(
        ["physical", "--v0", "0.5", "--beta", "1", "--mass", "1", "--hbar", "1"]
    )
    assert code == 0
    assert "v = 2.0" in out
    assert "s = 0.5" in out
    assert "E = -0.125" in out


def test_physical_non_bound_level():
    code, _, err = _run(
        ["physical", "--v0", "0.5", "--beta", "1", "--mass", "1", "--hbar", "1", "--n", "1"]
    )
    assert code == 1
    assert "not bound" in err


def test_physical_level_beyond_float_range_is_not_bound():
    constants = ["--v0", "1", "--beta", "1", "--mass", "1", "--hbar", "1"]
    code, out, err = _run(["physical", *constants, "--n", "1" + "0" * 400])
    assert code == 1 and out == ""
    assert err.startswith("error: level n=1000") and "not bound" in err


def test_physical_rejects_bad_constants():
    code, _, _ = _run(
        ["physical", "--v0", "-1", "--beta", "1", "--mass", "1", "--hbar", "1"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "constants",
    [
        ["--v0", "nan", "--beta", "1", "--mass", "1", "--hbar", "1"],
        ["--v0", "inf", "--beta", "1", "--mass", "1", "--hbar", "1"],
        ["--v0", "1e308", "--beta", "1e-308", "--mass", "1e308", "--hbar", "1"],
        # beta * hbar underflows to 0.0
        ["--v0", "1", "--beta", "1e-170", "--mass", "1", "--hbar", "1e-170"],
    ],
)
def test_physical_rejects_non_finite_values(constants):
    code, out, err = _run(["physical", *constants])
    assert code == 2 and out == ""
    assert "finite" in err


def test_stdout_is_deterministic():
    first = _run(["cell", "--n", "2", "--v", "9", "--verbose"])
    second = _run(["cell", "--n", "2", "--v", "9", "--verbose"])
    assert first == second


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "morsealg.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "morsealg" in proc.stdout


def _modules_added_by_importing_the_cli():
    # only the modules the import adds count, since a site .pth file may
    # preload some
    code = (
        "import sys; before = set(sys.modules); import morsealg.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "morsealg.plot" in added
    assert "morsealg.scan" in added
    return added


def test_importing_the_cli_loads_no_xml_or_http_stack():
    # plot escapes its legend labels itself, so no command loads xml.sax and,
    # through it, urllib.request, http.client, email and ssl
    heavy = [
        name
        for name in _modules_added_by_importing_the_cli()
        if name.split(".")[0] in ("xml", "http", "email") or name in ("urllib.request", "ssl")
    ]
    assert heavy == []


def test_importing_the_cli_loads_no_process_pool_or_pickle():
    # scan forks its shares itself and imports pickle only when it forks, so
    # no command loads concurrent.futures, multiprocessing or pickle
    heavy = [
        name
        for name in _modules_added_by_importing_the_cli()
        if name.split(".")[0] in ("concurrent", "multiprocessing", "pickle")
    ]
    assert heavy == []


# (argv, golden stdout file, exit code), recorded before the two ladder
# checks were folded into one body; the verify file before its checks shared
# ladder operators within a column
GOLDEN_RUNS = [
    (["ladder", "--v-max", "40"], "ladder_v40.txt", 0),
    (["verify", "--n-max", "12", "--v-max", "40"], "verify_n12_v40.txt", 0),
    *(
        (["cell", "--verbose", "--n", str(n), "--v", str(v)], f"cell_verbose_{n}_{v}.txt", 0)
        for n, v in [(3, 11), (2, 3), (4, 2), (0, 1), (0, 2)]
    ),
]


@pytest.mark.parametrize(
    "argv,golden,expected_code", GOLDEN_RUNS, ids=[g for _, g, _ in GOLDEN_RUNS]
)
def test_stdout_matches_golden(argv, golden, expected_code):
    code, out, _ = _run(argv)
    assert code == expected_code
    assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def _readme_examples():
    """Each `$ morsealg ...` line in a README code block, with the lines it prints."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(\$ .*?)^```$", text, re.DOTALL | re.MULTILINE):
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((shlex.split(line)[2:], []))
            else:
                examples[-1][1].append(line)
    return examples


def test_readme_examples_match_cli():
    examples = _readme_examples()
    assert {"cell", "verify", "physical"} <= {argv[0] for argv, _ in examples}
    for argv, lines in examples:
        code, out, _ = _run(argv)
        assert code == 0, argv
        assert out.splitlines() == lines, argv
