"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py MODE WORKLOAD SEED WORKDIR

A fresh process per repetition means every repetition starts with an empty
``make_state`` cache, as every command-line user does.  MODE is one of

    setup   import morsealg and prepare the inputs, then stop
    time    run the workload's steps once, untraced (the timed run)
    serial  the same with the scan run serially (the traced run's baseline)
    trace   the serial steps with span wrappers (see spans.py)
    count   the serial steps under cProfile, for exact arithmetic call counts

and the process prints one JSON object on stdout.  Its times are rescaled to
reference speed (speed.py): set-up by the reference loops run before the
import and after set-up, everything else by those run just before and after
the timed steps.  The program is imported from ``src/`` of the checkout this
file sits in, and from nowhere else.
"""

# Only these are imported before the program, so that set-up time covers
# everything importing morsealg pulls in (bar ``fractions``, which the
# reference loop needs first).
import os
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# cProfile entries summed into each counter: (file name, function name)
COUNTED = {
    "fraction_add": ("fractions.py", "_add"),
    "fraction_mul": ("fractions.py", "_mul"),
    "fraction_new": ("fractions.py", "__new__"),
    "radical_add": ("scalars.py", "__add__"),
    "radical_mul": ("scalars.py", "__mul__"),
}


def run_steps(steps, cli_run, scan_mod) -> list[tuple[int, str]]:
    """Run each step; a command's stdout is kept for the output check."""
    import contextlib
    import io

    outs = []
    for step in steps:
        if step.argv:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli_run(list(step.argv))
            outs.append((rc, buf.getvalue()))
        else:
            report = scan_mod.read_report(step.src)
            scan_mod.write_report(report, step.fmt, step.dst)
            outs.append((0, ""))
    return outs


def count_calls(profile) -> dict:
    import pstats

    counts = dict.fromkeys(COUNTED, 0)
    for (path, _, func), stat in pstats.Stats(profile).stats.items():
        for key, (file_name, func_name) in COUNTED.items():
            if func == func_name and os.path.basename(path) == file_name:
                counts[key] += stat[1]
    return counts


def main() -> int:
    mode, name, seed, workdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, SRC)
    ref0 = speed.reference_s()
    t0 = time.perf_counter()
    import morsealg.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(morsealg.__file__).startswith(SRC + os.sep):
        print(f"morsealg imported from {morsealg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import json
    import resource

    import workloads

    expected = workloads.load_expected()
    t1 = time.perf_counter()
    load = workloads.make(name, seed, workdir)
    load.prepare(expected)
    setup_s = import_s + time.perf_counter() - t1
    ref1 = speed.reference_s()
    result = {
        "mode": mode,
        "setup_s": speed.scale(setup_s, ref0, ref1),
        "ops": load.ops,
        "cells": load.cells,
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    scan_mod = sys.modules["morsealg.scan"]
    make_state = sys.modules["morsealg.model"].make_state
    if make_state.cache_info().currsize:
        print("make_state cache is not empty before the timed call", file=sys.stderr)
        return 1
    steps = load.steps if mode == "time" else load.serial_steps
    cli_run = morsealg.cli.run
    tracer = profile = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install(morsealg)
        cli_run = tracer.wrap("cli", cli_run)
    elif mode == "count":
        import cProfile

        profile = cProfile.Profile()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    outs = run_steps(steps, cli_run, scan_mod)
    if profile is not None:
        profile.disable()
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    ref2 = speed.reference_s()

    busy = (child1.ru_utime + child1.ru_stime) - (child0.ru_utime + child0.ru_stime)
    own = (self1.ru_utime + self1.ru_stime) - (self0.ru_utime + self0.ru_stime)
    errors = load.check(outs, expected)
    factor = speed.scale(1.0, ref1, ref2)
    result.update(
        wall_s=wall * factor,
        cpu_s=(own + busy) * factor,
        busy_s=busy * factor,
        raw_wall_s=wall,
        factor=factor,
        peak_rss_mb=(self1.ru_maxrss + child1.ru_maxrss) / 1024,
        failed=min(len(errors), load.ops),
        errors=errors,
    )
    if tracer is not None:
        layers = result["layers"] = tracer.metrics()
        for key in layers:
            if key.endswith(("_s", "_ms")):
                layers[key] *= factor
        out_dir = os.path.dirname(os.path.abspath(workdir))
        tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.tsv"))
    if profile is not None:
        result["counts"] = count_calls(profile)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
