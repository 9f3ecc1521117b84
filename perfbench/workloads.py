"""The four benchmark workloads: inputs from a seed, and their output checks.

A workload is a list of steps that one repetition runs inside the timed
region.  A step is either a ``morsealg`` command line, run through
``morsealg.cli.run``, or a report rewrite (``read_report`` then
``write_report``), which has no command of its own.  Seed 0 gives the
canonical inputs named in the README; other seeds vary only choices that do
not change the amount of work, so run-to-run spread stays machine noise.

This module imports nothing from ``morsealg``: the parent process uses it for
workload names and operation counts without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
FIXTURE_DIR = os.path.join(HERE, "fixtures")

# Canonical sizes (seed 0).  A repetition takes 1-3 s on a 2-vCPU machine,
# so a 25-second run holds about ten or more and reports their median.
SCAN_N = 30  # scan-grid: square grid [0, 30]^2, 961 cells
SCAN_THREADS = 2  # scan-grid: worker processes of the timed scan
VERIFY_N = 6  # verify-grid: n <= 6 ...
VERIFY_V = 100  # ... and v <= 100 (+ a seeded shift of at most 1)
VERIFY_V_SHIFTS = (-1, 0, 1)
LADDER_V = 60  # ladder-sweep: every (n, v) with v <= 60, n <= v // 2
PLOT_SIZES = (600, 900, 1200)
PLOT_MODES = ("equality", "sign")
FULL_GRID = 100  # report-io: the full 101 x 101 report


@dataclass(frozen=True)
class Step:
    """One operation: a CLI command line, or a rewrite of ``src`` into ``dst``."""

    argv: tuple[str, ...] = ()
    fmt: str = ""
    src: str = ""
    dst: str = ""


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Base: ``steps`` are timed; ``serial_steps`` are what the traced and
    counting passes run (the same problem without a process pool)."""

    name = ""
    ops = 1

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.steps: list[Step] = []
        self.cells = 0

    @property
    def serial_steps(self) -> list[Step]:
        return self.steps

    def prepare(self, expected: dict) -> None:
        """Write any input files the steps read; part of set-up."""

    def check(self, outs: list[tuple[int, str]], expected: dict) -> list[str]:
        raise NotImplementedError

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _check_cli(label: str, out: tuple[int, str], want_stdout: str) -> list[str]:
    rc, stdout = out
    if rc != 0:
        return [f"{label}: exit code {rc}"]
    if stdout != want_stdout:
        return [f"{label}: stdout differs from the recorded output"]
    return []


class ScanGrid(Workload):
    """``scan --threads SCAN_THREADS`` on [0, SCAN_N]^2; the seed picks
    the report format.  The report must equal the recorded serial report."""

    name = "scan-grid"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.fmt = "json" if seed == 0 else self.rng.choice(("json", "csv"))
        self.out = self._path(f"scan.{self.fmt}")
        self.base_argv = (
            "scan", "--n-max", str(SCAN_N), "--v-max", str(SCAN_N),
            "--format", self.fmt, "--out", self.out,
        )
        self.steps = [Step(argv=self.base_argv + ("--threads", str(SCAN_THREADS)))]
        self.cells = (SCAN_N + 1) ** 2

    @property
    def serial_steps(self) -> list[Step]:
        return [Step(argv=self.base_argv)]

    def check(self, outs, expected):
        want = expected[self.name][self.fmt]
        errors = _check_cli("scan", outs[0], want["stdout"])
        if not errors and sha256_file(self.out) != want["sha256"]:
            errors.append(f"scan: {self.fmt} report differs from the recorded serial report")
        return errors


class VerifyGrid(Workload):
    """``verify`` on n <= VERIFY_N, v <= VERIFY_V + shift: wide in v, shallow
    in n, so the per-cell invariants (composed and naive commutators)
    weigh more than in a square grid."""

    name = "verify-grid"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        shift = 0 if seed == 0 else self.rng.choice(VERIFY_V_SHIFTS)
        self.v_max = VERIFY_V + shift
        self.steps = [Step(argv=("verify", "--n-max", str(VERIFY_N), "--v-max", str(self.v_max)))]
        self.cells = (VERIFY_N + 1) * (self.v_max + 1)

    def check(self, outs, expected):
        return _check_cli("verify", outs[0], expected[self.name][str(self.v_max)])


class LadderSweep(Workload):
    """``ladder --v-max LADDER_V``.  The sweep's only input is its bound and
    its cost grows about as v_max^4, so every seed runs the same sweep."""

    name = "ladder-sweep"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.steps = [Step(argv=("ladder", "--v-max", str(LADDER_V)))]
        self.cells = sum(v // 2 + 1 for v in range(LADDER_V + 1))  # (n, v) pairs swept

    def check(self, outs, expected):
        return _check_cli("ladder", outs[0], expected[self.name][str(LADDER_V)])


class ReportIO(Workload):
    """Read the full-grid report in JSON and CSV, plot each, and write each
    back.  The seed picks the canvas size and which format feeds which plot
    mode."""

    name = "report-io"
    ops = 4

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        size = 900 if seed == 0 else self.rng.choice(PLOT_SIZES)
        modes = PLOT_MODES if seed == 0 or self.rng.random() < 0.5 else PLOT_MODES[::-1]
        self.json_in = self._path("report.json")
        self.csv_in = self._path("report.csv")
        self.svgs = []
        for src, mode in ((self.json_in, modes[0]), (self.csv_in, modes[1])):
            svg = self._path(f"{mode}.svg")
            self.svgs.append((f"{mode}-{size}", svg))
            self.steps.append(
                Step(argv=("plot", "--in", src, "--mode", mode, "--size", str(size), "--out", svg))
            )
        self.rewrites = [
            Step(fmt="json", src=self.json_in, dst=self._path("rewrite.json")),
            Step(fmt="csv", src=self.csv_in, dst=self._path("rewrite.csv")),
        ]
        self.steps += self.rewrites
        self.cells = (FULL_GRID + 1) ** 2

    def prepare(self, expected: dict) -> None:
        """Unpack the full-grid report fixtures into the work directory."""
        for path in (self.json_in, self.csv_in):
            name = os.path.basename(path)
            with lzma.open(os.path.join(FIXTURE_DIR, name + ".xz"), "rb") as src:
                data = src.read()
            if hashlib.sha256(data).hexdigest() != expected[self.name][name]:
                raise RuntimeError(f"fixture {name}.xz does not match its recorded digest")
            with open(path, "wb") as dst:
                dst.write(data)

    def check(self, outs, expected):
        want = expected[self.name]
        errors = []
        for (key, svg), out in zip(self.svgs, outs):
            rc = out[0]
            if rc != 0:
                errors.append(f"plot {key}: exit code {rc}")
            elif sha256_file(svg) != want["svg"][key]:
                errors.append(f"plot {key}: SVG differs from the recorded one")
        for step in self.rewrites:
            if sha256_file(step.dst) != sha256_file(step.src):
                errors.append(f"rewrite {step.fmt}: not byte-identical to the report read")
        return errors


WORKLOADS = {w.name: w for w in (ScanGrid, VerifyGrid, LadderSweep, ReportIO)}


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
