#!/usr/bin/env python3
"""Run every inequality probe at its default sampling schedule and collect
the reports under runs/probes/."""

import argparse
from pathlib import Path

from quintlab.io import write_csv, write_json
from quintlab.probes import PROBE_RUNNERS, run_probe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=str, default="runs/probes")
    ap.add_argument("--lemmas", type=str, nargs="+", default=sorted(PROBE_RUNNERS))
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for lemma in args.lemmas:
        report = run_probe(lemma, seed=args.seed)
        write_json(out / f"{lemma}.json", report.to_dict())
        write_csv(
            out / f"{lemma}.csv",
            ["parameters", "max_ratio"],
            [[k, v] for k, v in sorted(report.ratio_table.items())],
        )
        print(
            f"{lemma:<18} max ratio {report.max_ratio:.4e} "
            f"stability x{report.stability_factor:.3f}"
        )
    print(f"reports in {out}/")


if __name__ == "__main__":
    main()
