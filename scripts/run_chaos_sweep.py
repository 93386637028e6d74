#!/usr/bin/env python3
"""Mean-field convergence sweep: distance of the one-particle marginal from
the NLS projector as the particle count grows, across interaction scalings.

Writes runs/chaos_sweep/sweep.csv with one row per (beta, N).
"""

import argparse
from pathlib import Path

import numpy as np

from quintlab.grids import GridSpec, TorusField
from quintlab.io import write_csv
from quintlab.manybody import ManyBodyConfig
from quintlab.marginals import chaos_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--T", type=float, default=0.2)
    ap.add_argument("--betas", type=float, nargs="+", default=[0.0, 0.05, 0.1])
    ap.add_argument("--Ns", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--out", type=str, default="runs/chaos_sweep")
    args = ap.parse_args()

    grid = GridSpec(1, args.n)
    rng = np.random.default_rng(args.seed)
    phi0 = TorusField.random_band_limited(grid, 2, rng, decay=2.0)
    phi0 = phi0 * (1.0 / phi0.l2_norm())

    rows = []
    for beta in args.betas:
        configs = [ManyBodyConfig(grid, N, beta) for N in args.Ns]
        for r in chaos_experiment(configs, phi0, args.T):
            rows.append([beta, r.N, r.distance, r.energy_per_particle, r.coupling])
            print(f"beta={beta:<5} N={r.N}: distance {r.distance:.4e}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "sweep.csv",
              ["beta", "N", "trace_distance", "energy_per_particle", "coupling"],
              rows)
    print(f"wrote {out / 'sweep.csv'}")


if __name__ == "__main__":
    main()
