#!/usr/bin/env python3
"""Run the three headline discrepancy experiments and summarize violations.

Writes one CSV per experiment into --out-dir and prints, per experiment, the
fraction of trials whose final-step statistic stayed under its bound, the
seconds the experiment took and its sampler rounds per second
(trials x T / seconds):

  regular      lazy random walk sampler on a random 4-regular graph,
               discrepancy vs 18 sqrt(d ln N)
  irregular    Metropolis sampler on a seeded irregular graph,
               discrepancy vs 16 sqrt(d_max ln N)
  oracle-gap   deviation from the continuous oracle on the cycle,
               vs 4 psi2 sqrt(ln N)
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diffusim.graphs import edge_list_text  # noqa: E402
from diffusim.harness import CSV_HEADER, ExperimentSpec, simulate_to_csv  # noqa: E402
from diffusim.verify import seeded_irregular_graph  # noqa: E402


def final_fraction_ok(path: Path, col: int) -> tuple[float, int]:
    lines = path.read_text().splitlines()
    parsed = [r.split(",") for r in lines[lines.index(CSV_HEADER) + 1:]]
    t_final = max(int(r[1]) for r in parsed)
    finals = [r for r in parsed if int(r[1]) == t_final]
    ok = sum(1 for r in finals if r[col] == "0")
    return ok / len(finals), t_final


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", help="directory for the CSVs")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20240803)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    irregular = seeded_irregular_graph()
    irregular_path = out_dir / "irregular.edges"
    irregular_path.write_text(edge_list_text(irregular))

    experiments = [
        ("regular", ExperimentSpec(
            graph="random-regular:128:4:20240801", matrix="lazy-rw",
            algorithm="alg2-batch", loads="point:1280", steps="auto",
            trials=args.trials, seed=args.seed, stride=0, jobs=args.jobs), 7),
        ("irregular", ExperimentSpec(
            graph=f"file:{irregular_path}", matrix="metropolis",
            algorithm="alg2-batch", loads="point:1280", steps="auto",
            trials=args.trials, seed=args.seed + 1, stride=0, jobs=args.jobs), 7),
        ("oracle-gap", ExperimentSpec(
            graph="cycle:64", matrix="lazy-rw",
            algorithm="alg2-batch", loads="point:1000", steps="auto",
            trials=args.trials, seed=args.seed + 2, stride=0, jobs=args.jobs), 6),
    ]

    all_ok = True
    for name, spec, viol_col in experiments:
        start = time.perf_counter()
        path = out_dir / f"{name}.csv"
        simulate_to_csv(spec, path)
        seconds = time.perf_counter() - start
        frac, t_final = final_fraction_ok(path, viol_col)
        all_ok &= frac >= 0.95
        print(f"{name:11s} T={t_final:5d} trials={args.trials} "
              f"fraction under bound={frac:.3f} {seconds:.2f}s "
              f"{args.trials * t_final / seconds:.0f} rounds/s -> {path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
