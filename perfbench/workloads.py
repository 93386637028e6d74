"""Seeded experiment batches for the benchmark workloads.

A workload is a fixed list of `lab` experiment cases.  The workload seed
draws one config seed per experiment (which fixes its random initial data
and probe samples) and the order in which the experiments run; the cases'
sizes do not depend on the seed.  quintlab only ever sees the generated
config dicts.

Why each workload exists:

* ``spectral``: NLS runs and inequality probes.  Field transforms, the
  Strang stepper and the probe time quadrature carry the time; working sets
  run from kilobytes (d=1 n=256) to 4 MB (d=3 n=64).  It never reaches the
  few-body, marginal or coupling code, so it is the bypass workload for
  changes there.
* ``fewbody``: few long Krylov propagations of N-body states plus the
  propagation-of-chaos experiment.  Hamiltonian applies dominate; the NLS
  stepper appears only as chaos's mean-field side.
* ``hierarchy``: hierarchy residuals, frequency-localization traces of
  dense marginals and the couplings enumeration.  Dense marginals of up to
  268 MB make memory visible, and the residuals run many short
  propagations, unlike ``fewbody``.
"""

from __future__ import annotations

import numpy as np


def _datum(band: int) -> dict:
    return {"kind": "random_band", "band": band, "decay": 2.0, "scale": 1.0}


# (kind, params, repetitions per batch, overrides for the tiny variant).
# Repetitions put the median experiment time in the middle of one group of
# repeated experiments, not in a gap between groups.  In `fewbody` and
# `hierarchy` that group is a case whose time follows the host's speed
# swings less than the shorter cases do, so exp_s.p50 stays steadier.
WORKLOADS: dict[str, list[tuple[str, dict, int, dict]]] = {
    "spectral": [
        ("nls-run", {"d": 3, "n": 32, "b0": 1.0, "dt": 0.005, "T": 0.05,
                     "snapshot_every": 5, "initial": _datum(4)},
         2, {"n": 8, "initial": _datum(2)}),
        ("nls-run", {"d": 3, "n": 64, "b0": 1.0, "dt": 0.005, "T": 0.05, "dealias": False,
                     "snapshot_every": 5, "initial": _datum(6)},
         2, {"n": 8, "initial": _datum(2)}),
        ("nls-run", {"d": 2, "n": 64, "b0": 1.0, "dt": 0.002, "T": 0.4,
                     "snapshot_every": 50, "initial": _datum(6)},
         4, {"n": 8, "T": 0.02, "snapshot_every": 5, "initial": _datum(2)}),
        ("nls-run", {"d": 1, "n": 256, "b0": 1.0, "dt": 0.001, "T": 1.0,
                     "snapshot_every": 200, "initial": _datum(12)},
         2, {"n": 16, "T": 0.02, "snapshot_every": 5, "initial": _datum(2)}),
        ("probe", {"lemma": "strichartz", "samples": 6,
                   "options": {"ms": [2, 4, 8], "nt": 40, "n": 16}},
         2, {"samples": 2, "options": {"ms": [2], "nt": 32, "n": 8}}),
        ("probe", {"lemma": "multilinear", "samples": 6},
         2, {"samples": 2, "options": {"nt": 8, "n": 4}}),
        ("probe", {"lemma": "bilinear", "samples": 4, "options": {"m1s": [4, 8]}},
         2, {"samples": 2, "options": {"m1s": [4], "nt": 8}}),
        ("probe", {"lemma": "approx_identity", "samples": 20},
         2, {"samples": 2, "options": {"n": 128, "band": 10, "alphas": [0.5, 0.25]}}),
    ],
    "fewbody": [
        ("manybody-run", {"d": 1, "n": 16, "N": 4, "beta": 0.05, "T": 0.1,
                          "initial": _datum(2)},
         2, {"n": 8, "N": 2, "T": 0.01}),
        ("manybody-run", {"d": 1, "n": 12, "N": 4, "beta": 0.05, "T": 0.1,
                          "initial": _datum(2)},
         1, {"n": 8, "N": 2, "T": 0.01}),
        ("manybody-run", {"d": 1, "n": 16, "N": 3, "beta": 0.05, "T": 0.3,
                          "initial": _datum(2), "moments": [1, 2],
                          "stability": [[1, 0.5], [2, 0.5]]},
         1, {"n": 8, "T": 0.01}),
        ("manybody-run", {"d": 2, "n": 8, "N": 2, "beta": 0.05, "T": 0.3,
                          "initial": _datum(2)},
         1, {"n": 4, "T": 0.01, "initial": _datum(1)}),
        ("manybody-run", {"d": 1, "n": 8, "N": 5, "beta": 0.05, "T": 0.1,
                          "initial": _datum(2)},
         5, {"N": 2, "T": 0.01}),
        ("chaos", {"d": 1, "n": 8, "beta": 0.1, "T": 0.2, "Ns": [2, 3, 4],
                   "initial": _datum(2)},
         2, {"T": 0.02, "Ns": [2, 3]}),
        ("chaos", {"d": 1, "n": 8, "beta": 0.0, "T": 0.2, "Ns": [2, 3, 4, 5],
                   "initial": _datum(2)},
         3, {"T": 0.02, "Ns": [2, 3]}),
    ],
    "hierarchy": [
        ("residuals", {"d": 1, "n": 8, "N": 4, "beta": 0.05, "k": 2,
                       "spacings": [0.02, 0.01], "initial": _datum(2)},
         2, {"N": 3, "k": 1}),
        ("residuals", {"d": 1, "n": 8, "N": 5, "beta": 0.05, "k": 2,
                       "spacings": [0.02, 0.01], "initial": _datum(2)},
         1, {"N": 3, "k": 1}),
        ("residuals", {"d": 1, "n": 12, "N": 4, "beta": 0.05, "k": 1,
                       "spacings": [0.02, 0.01], "initial": _datum(2)},
         1, {"n": 8, "N": 3}),
        ("residuals", {"d": 1, "n": 16, "N": 3, "beta": 0.05, "k": 1,
                       "spacings": [0.02, 0.01], "initial": _datum(2)},
         5, {"n": 8}),
        ("hufl", {"d": 1, "n": 16, "M": 2, "eps": 0.9, "ks": [1, 2, 3],
                  "initial": _datum(6)},
         1, {"n": 8, "ks": [1, 2], "initial": _datum(3)}),
        ("hufl", {"d": 2, "n": 8, "M": 2, "eps": 0.9, "ks": [1, 2],
                  "initial": _datum(3)},
         1, {"n": 4, "M": 1, "initial": _datum(2)}),
        ("hufl", {"d": 1, "n": 32, "M": 4, "eps": 0.9, "ks": [1, 2],
                  "initial": _datum(10)},
         2, {"n": 8, "M": 1, "initial": _datum(3)}),
        ("couplings", {"k": 6}, 3, {"k": 3}),
        ("couplings", {"k": 7}, 1, {"k": 4}),
    ],
}

# One small experiment per kind, run untimed before the first batch so that
# lazy imports and first-call costs do not land in the timed batch.
WARMUPS = {
    "nls-run": {"d": 1, "n": 16, "b0": 1.0, "dt": 0.01, "T": 0.02, "initial": _datum(2)},
    "probe": {"lemma": "approx_identity", "samples": 2,
              "options": {"n": 128, "band": 10, "alphas": [0.5, 0.25]}},
    "manybody-run": {"d": 1, "n": 8, "N": 2, "beta": 0.05, "T": 0.01, "initial": _datum(2)},
    "chaos": {"d": 1, "n": 8, "beta": 0.1, "T": 0.02, "Ns": [2], "initial": _datum(2)},
    "residuals": {"d": 1, "n": 8, "N": 3, "beta": 0.05, "k": 1,
                  "spacings": [0.02, 0.01], "initial": _datum(2)},
    "hufl": {"d": 1, "n": 8, "M": 1, "eps": 0.9, "ks": [1], "initial": _datum(3)},
    "couplings": {"k": 3},
}


def _merge(params: dict, overrides: dict) -> dict:
    out = dict(params)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **val}
        else:
            out[key] = val
    return out


def batch(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's experiment configs, in the order they run."""
    rng = np.random.default_rng([seed, 20180322])
    configs = []
    for kind, params, reps, small in WORKLOADS[workload]:
        for _ in range(reps):
            configs.append({
                "kind": kind,
                "seed": int(rng.integers(2**31)),
                "params": _merge(params, small) if tiny else params,
            })
    return [configs[i] for i in rng.permutation(len(configs))]


def warmups(workload: str) -> list[dict]:
    kinds = dict.fromkeys(kind for kind, *_ in WORKLOADS[workload])
    return [{"kind": kind, "seed": 1, "params": WARMUPS[kind]} for kind in kinds]
