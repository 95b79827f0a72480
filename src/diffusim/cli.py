"""Command-line entry point.

Subcommands: simulate, bounds, divergence, verify.
Exit codes: 0 success, 1 usage error, 2 validation error, 3 verification failure.
"""
from __future__ import annotations

import argparse
import sys

from .analysis import PSI_TOL_DEFAULT
from .discrete import ALGORITHMS
from .errors import DiffusimError
from .harness import ExperimentSpec, bounds_report, divergence_report, simulate_to_csv
from .verify import SUITES, run_suites


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="diffusim",
                     description="Randomized diffusion load balancing: simulate and analyze.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run seeded trials and write a CSV")
    sim.add_argument("--graph", required=True,
                     help="cycle:N | hypercube:DIM | star:N | complete:N | torus:A:B | "
                          "random-regular:N:D:SEED | file:PATH")
    sim.add_argument("--matrix", default=ExperimentSpec.matrix, help="lazy-rw | metropolis | file:PATH")
    sim.add_argument("--algorithm", default=ExperimentSpec.algorithm, help=" | ".join(ALGORITHMS))
    sim.add_argument("--loads", default=ExperimentSpec.loads,
                     help="point:M | uniform:M | random:M:SEED | file:PATH")
    sim.add_argument("--steps", default=ExperimentSpec.steps, help="step count or 'auto'")
    sim.add_argument("--trials", type=int, default=ExperimentSpec.trials)
    sim.add_argument("--seed", type=int, default=ExperimentSpec.seed)
    sim.add_argument("--stride", type=int, default=ExperimentSpec.stride,
                     help="record every STRIDE steps (0: only t=0 and t=T)")
    sim.add_argument("--jobs", type=int, default=ExperimentSpec.jobs)
    sim.add_argument("--out", required=True, help="output CSV path")

    bnd = sub.add_parser("bounds", help="print spectral stats and theorem bounds")
    bnd.add_argument("--graph", required=True)
    bnd.add_argument("--matrix", default=ExperimentSpec.matrix)

    div = sub.add_parser("divergence", help="compute the local p-divergence")
    div.add_argument("--graph", default="")
    div.add_argument("--matrix", default=ExperimentSpec.matrix)
    div.add_argument("--p", type=int, default=2, choices=(1, 2))
    div.add_argument("--tol", type=float, default=PSI_TOL_DEFAULT)
    div.add_argument("--t-max", type=int, default=None)

    ver = sub.add_parser("verify", help="run the invariant-verification suites")
    ver.add_argument("--suite", action="append", choices=sorted(SUITES),
                     help="run only this suite (repeatable); default: all")
    ver.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "simulate":
            spec = ExperimentSpec(
                graph=args.graph, matrix=args.matrix, algorithm=args.algorithm,
                loads=args.loads, steps=args.steps, trials=args.trials,
                seed=args.seed, stride=args.stride, jobs=args.jobs,
            )
            unavailable: dict[str, str] = {}
            rows = simulate_to_csv(spec, args.out, unavailable)
            for name, reason in unavailable.items():
                sys.stderr.write(f"diffusim: {name} unavailable: {reason}\n")
            print(f"wrote {rows} rows to {args.out}")
            return 0
        if args.command == "bounds":
            for line in bounds_report(args.graph, args.matrix):
                print(line)
            return 0
        if args.command == "divergence":
            for line in divergence_report(args.graph, args.matrix, args.p,
                                          args.tol, args.t_max):
                print(line)
            return 0
        if args.command == "verify":
            results = run_suites(args.suite, seed=args.seed)
            failed = [r for r in results if not r.passed]
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                print(f"[{status}] {r.name}: {r.detail} ({r.checks} checks)")
            return 3 if failed else 0
    except (DiffusimError, ValueError, OSError) as exc:
        sys.stderr.write(f"diffusim: error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
