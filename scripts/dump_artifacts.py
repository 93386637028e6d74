#!/usr/bin/env python3
"""Write the artifacts of every configs/*.json, of `lab couplings --k K` for
K = 2..11 and of the seed-1 batch of each benchmark workload under OUT, so
that two checkouts compare by `diff -r`.

Layout: OUT/configs/<config name>/, OUT/couplings/k<K>/ and
OUT/<workload>/e<NN>/, one directory per run.  The configs and couplings
parts are the baseline that tests/baseline holds and Tier-1 compares with.
Each report.json is rewritten without wall_time_s and with its artifact
paths relative to the run's directory, the two fields that differ between
identical runs.  The benchmark's files are only read.

Usage:  python scripts/dump_artifacts.py OUT
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import workloads  # noqa: E402
from quintlab.cli import ExperimentConfig, run_experiment  # noqa: E402
from quintlab.io import write_json  # noqa: E402


def dump(cfg: ExperimentConfig, out: Path) -> None:
    run_experiment(cfg, out)
    path = out / "report.json"
    report = json.loads(path.read_text())
    del report["wall_time_s"]
    report["artifacts"] = [os.path.relpath(a, out) for a in report["artifacts"]]
    write_json(path, report)


def baseline_runs():
    """(directory under OUT, config) of each run of the configs and couplings parts."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield Path("configs", path.stem), ExperimentConfig.from_file(path)
    for k in range(2, 12):  # the config `lab couplings --k K` builds
        yield (Path("couplings", f"k{k}"),
               ExperimentConfig.from_dict({"kind": "couplings", "params": {"k": k}, "seed": 0}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    out = ap.parse_args().out
    for rel, cfg in baseline_runs():
        dump(cfg, out / rel)
    for workload in sorted(workloads.WORKLOADS):
        for i, raw in enumerate(workloads.batch(workload, 1)):
            dump(ExperimentConfig.from_dict(raw), out / workload / f"e{i:02d}")
    print(f"wrote {sum(1 for p in out.rglob('*') if p.is_file())} files under {out}")


if __name__ == "__main__":
    main()
