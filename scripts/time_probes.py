#!/usr/bin/env python3
"""Time each lemma's probe at the spectral workload's options, each run in a
fresh process, for this checkout and optionally a base checkout.

The probe configs are the spectral workload's probe cases in
perfbench/workloads.py (lemma, samples and options), at config seed 0.
Every timed run is one `quintlab.cli.run_experiment` of that config in a
new interpreter with one BLAS thread, as the benchmark runs, after one
untimed run of the benchmark's probe warm-up config; its artifacts go to
a temporary directory.  With a base checkout the two alternate which
goes first from one repeat to the next.  Printed per lemma: the median
wall seconds of each checkout over the repeats and, with a base, the
relative change of this checkout against it.

Usage:  python scripts/time_probes.py [BASE_CHECKOUT] [--repeats R]
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as it is

from workloads import WARMUPS, WORKLOADS  # noqa: E402

RUN = """
import sys, tempfile, time
sys.path.insert(0, {src!r})
from quintlab.cli import ExperimentConfig, run_experiment
with tempfile.TemporaryDirectory() as out:
    run_experiment(ExperimentConfig.from_dict({warmup!r}), out + "/warmup")
    cfg = ExperimentConfig.from_dict({config!r})
    t0 = time.perf_counter()
    run_experiment(cfg, out + "/run")
    print(time.perf_counter() - t0)
"""


def probe_configs() -> dict[str, dict]:
    """The spectral workload's probe configs, by lemma."""
    return {params["lemma"]: {"kind": "probe", "seed": 0, "params": params}
            for kind, params, *_ in WORKLOADS["spectral"] if kind == "probe"}


def time_run(checkout: Path, config: dict) -> float:
    code = RUN.format(src=str(checkout / "src"), config=config,
                      warmup={"kind": "probe", "seed": 1, "params": WARMUPS["probe"]})
    env = {**os.environ, **{var: "1" for var in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    return float(out.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", type=Path, help="a checkout to compare this one against")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    checkouts = ([args.base.resolve()] if args.base else []) + [ROOT]
    configs = probe_configs()
    times = {(lemma, c): [] for lemma in configs for c in checkouts}
    for r in range(args.repeats):
        for lemma, config in configs.items():
            for c in checkouts[::-1] if r % 2 else checkouts:
                times[lemma, c].append(time_run(c, config))
    for i, c in enumerate(checkouts):
        print(f"[{i}] {c}")
    print(f"{'lemma':<16}" + "".join(f"{f'[{i}] s':>10}" for i in range(len(checkouts)))
          + (f"{'[1]/[0]-1':>11}" if len(checkouts) == 2 else ""))
    for lemma in configs:
        med = [statistics.median(times[lemma, c]) for c in checkouts]
        print(f"{lemma:<16}" + "".join(f"{m:>10.4f}" for m in med)
              + (f"{med[1] / med[0] - 1:>+11.1%}" if len(med) == 2 else ""))


if __name__ == "__main__":
    main()
