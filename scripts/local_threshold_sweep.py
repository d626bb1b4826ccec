#!/usr/bin/env python3
"""Sweep the 1-local inclusion threshold p and report trimmed densities.

The balanced value (1/2) min(p/gamma, exp(-d p)/(1-gamma)) is maximized at the
root of p = exp(-d p); the sweep shows the measured trimmed density peaking at
the grid point nearest that root.

Usage:
    python scripts/local_threshold_sweep.py [--n 20000] [--d 10] [--trials 5]
        [--seed 7] [--csv sweep.csv]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from bipbis.analysis import optimal_local_threshold
from bipbis.experiments import ExperimentConfig, sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--d", type=float, default=10.0)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--p-grid", default="0.05:0.30:0.05")
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    start, stop, step = (float(x) for x in args.p_grid.split(":"))
    grid = [round(v, 10) for v in np.arange(start, stop + 1e-12, step)]
    config = ExperimentConfig("local", {
        "n": args.n, "d": args.d, "p": grid[0], "gamma": 0.5,
        "trials": args.trials, "seed": args.seed, "csv": args.csv,
    })
    record = sweep(config, {"p": grid})

    by_p: dict[float, list[float]] = {}
    for row in record.rows:
        _, n, _, p, _, _, _, trimmed_size, _ = row
        by_p.setdefault(p, []).append(trimmed_size / (2 * n))
    p_star = optimal_local_threshold(args.d)
    print(f"# n={args.n} d={args.d} trials/cell={args.trials} "
          f"optimal threshold p* = {p_star:.5f}")
    print(f"{'p':>6}  {'trimmed density':>16}  {'balanced value':>14}")
    best_p = None
    best = -1.0
    for p in grid:
        measured = float(np.mean(by_p[p]))
        predicted = min(p, math.exp(-args.d * p))
        marker = ""
        if measured > best:
            best, best_p = measured, p
        print(f"{p:6.2f}  {measured:16.5f}  {predicted:14.5f}{marker}")
    print(f"# peak at p = {best_p} (grid point nearest p* = {p_star:.4f})")
    if args.csv:
        print(f"# rows written to {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
