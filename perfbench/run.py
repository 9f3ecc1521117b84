"""The morsealg benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (rep.py), so it starts with an empty ``make_state`` cache and
pays the import, as a command-line user does.

--trace 0  set-up probes, then timed repetitions for --seconds seconds; the
           end-to-end metrics are medians over the repetitions.
--trace 1  pairs of untraced and traced serial repetitions for --seconds
           seconds, one untraced run of the timed command for the process
           pool figures, and two counting passes under cProfile that must
           give identical counts; prints the per-layer metrics.

Every output is checked against the values in expected.json.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics, the
metric names and units being those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")  # work files and span dumps
SETUP_PROBES = 7  # extra set-up-only processes, so setup_s is a median of >= 10
MIN_REPS = 3
DEADLINE_S = 170.0  # a run must end within 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str, started: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = started
        self.ops = workloads.WORKLOADS[workload].ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, mode: str) -> dict | None:
        """One rep.py process; None (and its operations failed) if it fails."""
        argv = [sys.executable, os.path.join(HERE, "rep.py"), mode, self.workload,
                str(self.seed), self.workdir]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            stdout, stderr = "", "timed out"
        ops = 1 if mode == "setup" else self.ops
        self.attempted += ops
        try:
            rec = json.loads(stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            rec = None
        if rec is None:
            self.failed += ops
            self.errors.append(f"{mode}: exit {proc.returncode}: {stderr.strip()[-500:]}")
            return None
        self.failed += rec.get("failed", 0)
        self.errors.extend(f"{mode}: {e}" for e in rec.get("errors", []))
        return rec

    def repeat(self, modes: tuple[str, ...], seconds: float) -> dict[str, list[dict]]:
        """Rounds of ``modes`` until the next round would pass ``seconds``."""
        recs: dict[str, list[dict]] = {m: [] for m in modes}
        start = time.monotonic()
        rounds: list[float] = []
        while True:
            t = time.monotonic()
            for mode in modes:
                rec = self.spawn(mode)
                if rec is not None:
                    recs[mode].append(rec)
            rounds.append(time.monotonic() - t)
            elapsed = time.monotonic() - start
            nxt = statistics.median(rounds)
            enough = len(rounds) >= MIN_REPS or len(modes) > 1
            if (enough and elapsed + nxt > seconds) or self.left() < 2 * nxt:
                return recs


def median(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs) if recs else 0.0


def end_to_end(run: Runner, seconds: float) -> dict[str, float]:
    setup = [run.spawn("setup") for _ in range(SETUP_PROBES)]
    reps = run.repeat(("time",), seconds)["time"]
    setups = [r["setup_s"] for r in setup + reps if r is not None]
    wall = median(reps, "wall_s")
    cells = reps[0]["cells"] if reps else 0
    run.notes.append(
        f"{len(reps)} repetitions; raw wall_s median {median(reps, 'raw_wall_s'):.6g} s;"
        f" speed factor median {median(reps, 'factor'):.4g}"
    )
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": wall,
        "cells_per_s": cells / wall if wall else 0.0,
        "cpu_s": median(reps, "cpu_s"),
        "peak_rss_mb": median(reps, "peak_rss_mb"),
        "ok_ratio": 1 - run.failed / run.attempted,
    }


def per_layer(run: Runner, seconds: float) -> dict[str, float]:
    timed = [run.spawn("time")] if run.workload == "scan-grid" else []
    recs = run.repeat(("serial", "trace"), seconds)
    counts = [run.spawn("count") for _ in range(2)]
    run.attempted += 1
    if None in counts or counts[0]["counts"] != counts[1]["counts"]:
        run.failed += 1
        run.errors.append("counting pass: the two passes gave different counts")
    else:
        run.notes.append("counting passes identical: " + json.dumps(counts[0]["counts"], sort_keys=True))
    out: dict[str, float] = {}
    traced = recs["trace"]
    if traced:
        for key in traced[0]["layers"]:
            out[key] = statistics.median(r["layers"][key] for r in traced)
    out["trace.wall_s"] = median(traced, "wall_s")
    out["trace.overhead_s"] = out["trace.wall_s"] - median(recs["serial"], "wall_s")
    pool = [r for r in timed if r is not None]
    busy, wall = median(pool, "busy_s"), median(pool, "wall_s")
    out["scan.pool.busy_s"] = busy
    out["scan.pool.utilisation"] = busy / (workloads.SCAN_THREADS * wall) if wall else 0.0
    c = counts[0]["counts"] if counts[0] is not None else {}
    out["scalars.fraction_ops"] = sum(c.get(k, 0) for k in ("fraction_add", "fraction_mul", "fraction_new"))
    out["scalars.radical_add"] = c.get("radical_add", 0)
    out["scalars.radical_mul"] = c.get("radical_mul", 0)
    return out


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "morsealg", "cli.py")):
        return fail(f"no morsealg sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(spec_path):
        return fail(f"{spec_path} is missing")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    run = Runner(args.workload, args.seed, workdir, started)
    try:
        measure = per_layer if args.trace else end_to_end
        values = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} operations)")
    for note in run.notes:
        print(note)
    for err in run.errors:
        print(f"FAILED {err}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
