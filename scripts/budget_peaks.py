#!/usr/bin/env python3
"""Set what each many-body run's build pass charges against what the run holds.

Each shape below runs in a fresh process: first the same kind at n = 4 (chaos
with Ns = [2, 3]), so
that lazy imports and first calls are not counted, then the config's build
pass with every `check_entries` of quintlab recorded, and then the run
under tracemalloc.  For
each run, print its exit (pass, fail or the rejecting message), the complex
entries its build pass charged in all, the run's tracemalloc peak divided by
16 bytes (one complex entry) and the ratio of the two.  A ratio above 1 is a
run that holds more than its build pass charged.  A shape with its own
potential prints its sigma; the others run the default one.  The artifacts go to a
temporary directory.

Usage:  python scripts/budget_peaks.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_DATUM = {"kind": "random_band", "band": 2, "scale": 1.0}
_RES = {"d": 1, "beta": 0.05, "spacings": [0.02, 0.01], "initial": _DATUM}
_MB = {"d": 1, "beta": 0.05, "T": 0.1, "initial": _DATUM}
SHAPES = [  # the benchmark's many-body shapes, then larger ones, where the arrays dominate
    ("manybody-run", {**_MB, "n": 16, "N": 4}),
    ("manybody-run", {**_MB, "n": 8, "N": 5}),
    ("manybody-run", {**_MB, "n": 16, "N": 3, "stability": [[1, 0.5], [2, 0.5]]}),
    ("chaos", {**_MB, "n": 8, "T": 0.2, "Ns": [2, 3, 4, 5]}),
    ("residuals", {**_RES, "n": 8, "N": 5, "k": 2}),
    ("residuals", {**_RES, "n": 16, "N": 3, "k": 1}),
    ("manybody-run", {**_MB, "n": 32, "N": 4}),
    ("manybody-run", {**_MB, "n": 64, "N": 3, "stability": [[1, 0.5], [2, 0.5]]}),
    ("manybody-run", {**_MB, "n": 24, "N": 4, "dump_state": True}),
    ("manybody-run", {**_MB, "n": 16, "N": 5, "dump_state": True}),  # streamed by slab
    ("manybody-run", {**_MB, "n": 16, "N": 6, "dump_state": True}),
    ("chaos", {**_MB, "n": 16, "Ns": [2, 3, 4, 5]}),
    ("chaos", {**_MB, "n": 8, "beta": 0.0, "T": 0.2, "Ns": [2, 4, 6, 8, 10, 12]}),
    ("chaos", {**_MB, "d": 2, "n": 64, "beta": 0.0, "Ns": [1]}),  # past the 1-marginal's budget
    ("residuals", {**_RES, "n": 24, "N": 4, "k": 1}),
    ("residuals", {**_RES, "n": 12, "N": 5, "k": 2}),
    ("residuals", {**_RES, "n": 32, "N": 4, "k": 1}),
    ("manybody-run", {**_MB, "n": 16, "N": 4, "stability": [[4, 0.5]]}),  # B_4: a full gather
    ("residuals", {**_RES, "n": 16, "N": 7, "k": 1}),  # past the full tensor's budget
    ("residuals", {**_RES, "n": 8, "N": 12, "k": 2}),
    # shapes whose m^3 triple table once outgrew an H-apply's scratch (m = n^d)
    ("manybody-run", {**_MB, "d": 2, "n": 12, "N": 3}),
    ("manybody-run", {**_MB, "d": 3, "n": 4, "N": 3}),
    # 150 distinct times, each with its own table of series coefficients
    ("residuals", {**_RES, "n": 16, "N": 3, "k": 1, "spacings": [i / 2 for i in range(1, 101)]}),
    # the same over a wider potential, whose interval the parameters' bound widens
    ("residuals", {**_RES, "n": 16, "N": 3, "k": 1, "spacings": [i / 2 for i in range(1, 101)],
                   "potential": {"kind": "gaussian", "sigma": 1.2}}),
]

RUN = """
import json, sys, tempfile, tracemalloc
sys.path.insert(0, {src!r})
import quintlab.cli as cli
from quintlab import grids
with tempfile.TemporaryDirectory() as out:  # the lazy imports and first calls
    warm = cli.ExperimentConfig.from_dict({{"kind": {kind!r}, "params": {warm!r}}})
    cli.run_experiment(warm, out)
charged, check = [], grids.check_entries
def record(what, entries, name=None):
    charged.append(entries)
    return check(what, entries, name)
for module in [m for k, m in sys.modules.items() if k.startswith("quintlab")]:
    if getattr(module, "check_entries", None) is check:
        module.check_entries = record
try:
    cfg = cli.ExperimentConfig.from_dict({{"kind": {kind!r}, "params": {params!r}}})
except cli.ValidationError as exc:
    print(json.dumps({{"exit": "; ".join(exc.errors), "charged": sum(charged)}}))
    raise SystemExit
build = sum(charged)
with tempfile.TemporaryDirectory() as out:
    tracemalloc.start()
    report = cli.run_experiment(cfg, out)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(json.dumps({{"exit": "pass" if report.passed else "fail", "charged": build,
                  "peak": peak / 16}}))
"""


def shape(params: dict) -> str:
    keys = ("n", "N", "Ns", "k")
    extra = [key for key in ("stability", "dump_state") if params.get(key)]
    extra += [f"d={params['d']}"] if params["d"] != 1 else []
    extra += [f"sigma={params['potential']['sigma']}"] if "potential" in params else []
    return " ".join([f"{key}={params[key]}".replace(" ", "") for key in keys if key in params]
                    + extra)


def main():
    print(f"{'kind':<13} {'shape':<38} {'exit':<5} {'charged':>11} {'peak/16B':>11} {'ratio':>6}")
    for kind, params in SHAPES:
        warm = {**params, "n": 4, **({"Ns": [2, 3]} if kind == "chaos" else {})}
        code = RUN.format(src=str(ROOT / "src"), kind=kind, params=params, warm=warm)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        row = json.loads(done.stdout.splitlines()[-1])
        if "peak" not in row:
            print(f"{kind:<13} {shape(params):<38} {row['exit']}")
            continue
        print(f"{kind:<13} {shape(params):<38} {row['exit']:<5} {row['charged']:>11,} "
              f"{row['peak']:>11,.0f} {row['peak'] / row['charged']:>6.2f}")


if __name__ == "__main__":
    main()
