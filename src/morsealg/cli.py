"""Command-line interface: scan, plot, cell, ladder, verify, physical.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Results go to standard output or the requested files; diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import sys

from .model import NonBoundError, PhysicalParams, normalization, physical_map, wavefunction
from .operators import (
    UndefinedOperatorError,
    k0_diff,
    k0_prime_composed,
    k0_prime_simplified,
    naive_commutator_coefficient,
    schrodinger_diff,
)
from .plot import render_plot
from .scan import compute_cell, read_report, run_invariant_suite, scan, write_report
from .spectral import (
    LadderOutcome,
    eigenvalue_composed,
    ladder_column,
    verify_lowering,
    verify_raising,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsealg",
        description="Exact ladder-operator algebra and parameter-space scans "
        "for the Morse oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="compute the (n, v) grid and write a report")
    p.add_argument("--n-max", type=int, default=100, help="largest n (default 100)")
    p.add_argument("--v-max", type=int, default=100, help="largest v (default 100)")
    p.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    p.add_argument("--out", default="report.json", help="output file path")
    p.add_argument("--threads", type=int, default=None, help="processes, this one included")

    p = sub.add_parser("plot", help="render a scatter plot from a report file")
    p.add_argument("--in", dest="in_path", required=True, help="report file to read")
    p.add_argument(
        "--mode",
        choices=("equality", "sign"),
        required=True,
        help="color by eigenvalue agreement or by the sign of s",
    )
    p.add_argument("--out", required=True, help="SVG file to write")
    p.add_argument("--size", type=int, default=900, help="canvas side in pixels")

    p = sub.add_parser("cell", help="inspect a single grid cell")
    p.add_argument("--n", type=int, required=True, help="level index n")
    p.add_argument("--v", type=int, required=True, help="well-depth parameter v")
    p.add_argument(
        "--verbose", action="store_true", help="also print the state and operators"
    )

    p = sub.add_parser("ladder", help="verify raising/lowering relations")
    p.add_argument("--n", type=int, default=None, help="single cell: level index n")
    p.add_argument("--v", type=int, default=None, help="single cell: parameter v")
    p.add_argument(
        "--v-max", type=int, default=40, help="sweep bound when no cell is given"
    )

    p = sub.add_parser("verify", help="run the grid-wide invariant suite")
    p.add_argument("--n-max", type=int, default=100, help="largest n (default 100)")
    p.add_argument("--v-max", type=int, default=100, help="largest v (default 100)")

    p = sub.add_parser("physical", help="map physical constants to (v, s, E)")
    p.add_argument("--v0", type=float, required=True, help="well depth")
    p.add_argument("--beta", type=float, required=True, help="inverse width")
    p.add_argument("--mass", type=float, required=True, help="particle mass")
    p.add_argument("--hbar", type=float, required=True, help="reduced Planck constant")
    p.add_argument("--n", type=int, default=0, help="level index (default 0)")
    return parser


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.n_max < 0 or args.v_max < 0:
        return _fail_usage("--n-max and --v-max must be non-negative")
    if args.threads is not None and args.threads < 1:
        return _fail_usage("--threads must be at least 1")
    report = scan(args.n_max, args.v_max, workers=args.threads)
    write_report(report, args.format, args.out)
    s = report.summary
    print(f"cells: {s.total}")
    print(
        "op_class: "
        + " ".join(f"{k}={c}" for k, c in sorted(s.op_class_counts.items()))
    )
    print("s_sign: " + " ".join(f"{k}={c}" for k, c in sorted(s.sign_counts.items())))
    print(
        f"all_equal: {s.all_equal_proper + s.all_equal_trivial} "
        f"(proper {s.all_equal_proper}, trivial {s.all_equal_trivial})"
    )
    print(f"mismatches: {len(s.mismatches)}")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    if args.size < 200:
        return _fail_usage("--size must be at least 200")
    try:
        report = read_report(args.in_path)
    except ValueError as e:
        return _fail_usage(str(e))
    render_plot(report, args.mode, args.out, size=args.size)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_cell(args: argparse.Namespace) -> int:
    if args.n < 0 or args.v < 0:
        return _fail_usage("--n and --v must be non-negative")
    n, v = args.n, args.v
    cell = compute_cell(n, v)
    print(f"cell ({n}, {v})")
    print(f"s: {cell.s}")
    print(f"s_sign: {cell.s_sign.value}")
    print(f"op_class: {cell.op_class.value}")
    print(f"ev1: {cell.ev1.value} ({cell.ev1.status.value})")
    print(f"ev2: {cell.ev2.value} ({cell.ev2.status.value})")
    print(f"ev3: {cell.ev3}")
    print(f"k0: {cell.k0}")
    print(f"equal_12: {str(cell.equal_12).lower()}")
    print(f"equal_13: {str(cell.equal_13).lower()}")
    print(f"all_equal: {str(cell.all_equal).lower()}")
    if not args.verbose:
        return 0
    f, norm = wavefunction(n, v), normalization(n, v)
    s = f.s
    print(f"state: {f}")
    print(f"normalization: {norm if norm is not None else 'undefined'}")
    print(f"shifted commutator (closed form): {k0_prime_simplified(s, v)}")
    try:
        print(f"shifted commutator (composed): {k0_prime_composed(s, v)}")
    except UndefinedOperatorError as e:
        print(f"shifted commutator (composed): undefined ({e})")
    composed = eigenvalue_composed(n, v)
    print(f"composed action: {composed.value} ({composed.status.value})")
    print(f"diagonal operator: {k0_diff(s, n)}")
    applied = schrodinger_diff(s, v).apply(f)
    print(f"stationary operator action: {'zero function' if applied.is_zero else applied}")
    if s != 0:
        print(f"unshifted commutator 1/y^2 coefficient: {naive_commutator_coefficient(s)}")
    else:
        print("unshifted commutator: undefined at s = 0")
    print(f"lowering: {verify_lowering(n, v).value}")
    print(f"raising: {verify_raising(n, v).value}")
    return 0


def _cmd_ladder(args: argparse.Namespace) -> int:
    if (args.n is None) != (args.v is None):
        return _fail_usage("--n and --v must be given together")
    if args.n is not None:
        if args.n < 0 or args.v < 0:
            return _fail_usage("--n and --v must be non-negative")
        low = verify_lowering(args.n, args.v)
        high = verify_raising(args.n, args.v)
        print(f"lowering ({args.n}, {args.v}): {low.value}")
        print(f"raising ({args.n}, {args.v}): {high.value}")
        return 1 if LadderOutcome.FAILS in (low, high) else 0
    if args.v_max < 0:
        return _fail_usage("--v-max must be non-negative")
    holds = fails = 0
    failing: list[str] = []
    for v in range(args.v_max + 1):
        for n, (low, high) in enumerate(ladder_column(v)):
            for kind, outcome in (("lowering", low), ("raising", high)):
                if outcome is LadderOutcome.HOLDS:
                    holds += 1
                elif outcome is LadderOutcome.FAILS:
                    fails += 1
                    failing.append(f"{kind} ({n}, {v})")
    print(f"in-domain relations checked: {holds + fails}")
    print(f"holds: {holds}")
    print(f"fails: {fails}")
    for item in failing:
        print(f"FAIL {item}")
    return 1 if fails else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 0 or args.v_max < 0:
        return _fail_usage("--n-max and --v-max must be non-negative")
    results = run_invariant_suite(args.n_max, args.v_max)
    failed = False
    for r in results:
        # a check that ran on no cell is neither passed nor failed
        tag = "FAIL" if not r.passed else "PASS" if r.checked else "SKIP"
        failed = failed or not r.passed
        print(f"{tag} {r.name}: {r.detail}")
    return 1 if failed else 0


def _cmd_physical(args: argparse.Namespace) -> int:
    try:
        params = PhysicalParams(args.v0, args.beta, args.mass, args.hbar)
        v, s, e = physical_map(params, args.n)
    except NonBoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        return _fail_usage(str(e))
    print(f"v = {v!r}")
    print(f"s = {s!r}")
    print(f"E = {e!r}")
    return 0


_DISPATCH = {
    "scan": _cmd_scan,
    "plot": _cmd_plot,
    "cell": _cmd_cell,
    "ladder": _cmd_ladder,
    "verify": _cmd_verify,
    "physical": _cmd_physical,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to the exit-code policy."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        if e.code is None:
            return 0
        return e.code if isinstance(e.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry_point()
