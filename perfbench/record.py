"""Record the expected outputs and the report fixtures the benchmark checks.

    python3 perfbench/record.py

Runs every workload variant serially, with no process pool, and writes
``expected.json`` (report digests, command output, SVG digests) and
``fixtures/report.{json,csv}.xz`` (the full 101 x 101 report, written by the
program).  Run it only when the program's outputs are meant to change; the
benchmark itself never writes these files.  It takes about two minutes on
two cores.
"""

import contextlib
import hashlib
import io
import json
import lzma
import os
import sys
import tempfile

import workloads as w

sys.path.insert(0, os.path.join(os.path.dirname(w.HERE), "src"))

from morsealg import cli  # noqa: E402
from morsealg.scan import scan, write_report  # noqa: E402


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def main() -> None:
    expected: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        entry = expected["scan-grid"] = {}
        for fmt in ("json", "csv"):
            out = os.path.join(tmp, f"scan.{fmt}")
            argv = ["scan", "--n-max", str(w.SCAN_N), "--v-max", str(w.SCAN_N)]
            stdout = run(argv + ["--format", fmt, "--out", out])
            entry[fmt] = {"sha256": w.sha256_file(out), "stdout": stdout}

        entry = expected["verify-grid"] = {}
        for shift in w.VERIFY_V_SHIFTS:
            v_max = w.VERIFY_V + shift
            entry[str(v_max)] = run(["verify", "--n-max", str(w.VERIFY_N), "--v-max", str(v_max)])

        expected["ladder-sweep"] = {str(w.LADDER_V): run(["ladder", "--v-max", str(w.LADDER_V)])}

        entry = expected["report-io"] = {"svg": {}}
        report = scan(w.FULL_GRID, w.FULL_GRID, workers=2)
        os.makedirs(w.FIXTURE_DIR, exist_ok=True)
        for fmt in ("json", "csv"):
            path = os.path.join(tmp, f"report.{fmt}")
            write_report(report, fmt, path)
            with open(path, "rb") as fh:
                data = fh.read()
            entry[f"report.{fmt}"] = hashlib.sha256(data).hexdigest()
            with lzma.open(os.path.join(w.FIXTURE_DIR, f"report.{fmt}.xz"), "wb", preset=9) as fh:
                fh.write(data)
        for mode in w.PLOT_MODES:
            for size in w.PLOT_SIZES:
                digests = set()
                for fmt in ("json", "csv"):
                    svg = os.path.join(tmp, f"{mode}-{size}-{fmt}.svg")
                    report_path = os.path.join(tmp, f"report.{fmt}")
                    run(["plot", "--in", report_path, "--mode", mode, "--size", str(size), "--out", svg])
                    digests.add(w.sha256_file(svg))
                if len(digests) != 1:
                    raise SystemExit(f"{mode}-{size}: JSON and CSV reports plot differently")
                entry["svg"][f"{mode}-{size}"] = digests.pop()

    with open(w.EXPECTED_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
