"""Correctness checks run outside the timed batches.

`check_report` tests one experiment's outputs against facts that do not
come from the code path that produced them.  The `*_oracles` functions
recompute small problems against independent references.  Each check
returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.linalg import expm

from quintlab.cli import build_initial_field
from quintlab.grids import GridSpec, TorusField, sobolev_norm
from quintlab.manybody import BosonicState, ManyBodyConfig, apply_hamiltonian_raw, propagate
from quintlab.nls import NlsConfig, evolve, plane_wave_solution

# Hierarchy residuals are second order in the spacing, so halving it
# divides them by about 4 (measured 3.97-4.00).
RATIO_RANGE = (3.5, 4.5)
HUFL_POWER_TOL = 1e-12
PLANE_WAVE_TOL = 1e-10
# A dealiased d=1 n=32 run of a band-6 datum against a resolved n=512 one.
# The same run without dealiasing is the control: it must come out at least
# DEALIAS_GAIN times worse, so that the check tells dealiasing from none
# (over 150 seeds: dealiased error at most 0.0019, control 7-40 times worse).
DEALIAS_TOL = 0.0039
DEALIAS_GAIN = 3.0
EXPM_TOL = 1e-11


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def check_report(raw: dict, report) -> list[str]:
    kind, p = raw["kind"], raw["params"]
    s = report.summary
    problems = []
    if kind == "residuals":
        for key in ("bbgky_ratio", "gp_ratio"):
            if not RATIO_RANGE[0] <= s[key] <= RATIO_RANGE[1]:
                problems.append(f"{key}={s[key]:.4g} outside {RATIO_RANGE}")
    elif kind == "hufl":
        path = next(a for a in report.artifacts if a.endswith("hufl.csv"))
        with open(path) as fh:
            lhs = {int(r["k"]): float(r["left_side"]) for r in csv.DictReader(fh)}
        # The left side is a trace of weighted terms whose sum, without the
        # frequency cut, is ||<grad> phi||^(2k) >= 1 for the unit datum phi;
        # that sets the scale of its rounding error.
        phi = build_initial_field(GridSpec(p["d"], p["n"]), p["initial"], raw["seed"])
        weighted = (sobolev_norm(phi, 1.0) / phi.l2_norm()) ** 2
        if 1 in lhs:
            for k, v in lhs.items():
                want = lhs[1] ** k
                if abs(v - want) > HUFL_POWER_TOL * weighted**k:
                    problems.append(f"hufl k={k}: {v!r} is not the k-th power {want!r}")
    elif kind == "couplings":
        k = p["k"]
        if s["map_count"] != _double_factorial(2 * k - 1):
            problems.append(f"map_count {s['map_count']} != (2k-1)!! for k={k}")
        if 2 <= k <= 7 and s["min_unclogged"]["min_count"] < math.ceil(4 * (k - 1) / 5):
            problems.append(f"min_count {s['min_unclogged']['min_count']} below its floor")
    return problems


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def spectral_oracles(seed: int) -> dict[str, list[str]]:
    rng = np.random.default_rng([seed, 1])
    grid = GridSpec(2, 16)
    xi = tuple(int(x) for x in rng.integers(-4, 5, size=2))
    amp, b0, T = 0.8, 1.0, 0.5
    u = evolve(TorusField.plane_wave(grid, xi, amp), T, NlsConfig(grid, b0, 0.01),
               snapshot_every=50).states[-1]
    exact = plane_wave_solution(grid, xi, amp, b0, T)
    err_pw = _rel(u.coefficients, exact.coefficients)

    coarse, fine = GridSpec(1, 32), GridSpec(1, 512)
    f = TorusField.random_band_limited(coarse, 6, rng)
    f = f * (2.0 / f.l2_norm())
    ref = evolve(f.resample(512), 0.5, NlsConfig(fine, 1.0, 1e-3, dealias=False),
                 snapshot_every=500).states[-1].resample(32)
    err_da, err_raw = (
        _rel(evolve(f, 0.5, NlsConfig(coarse, 1.0, 1e-3, dealias=dealias),
                    snapshot_every=500).states[-1].coefficients, ref.coefficients)
        for dealias in (True, False))
    dealias = [f"dealias error {err_da:.3g}"] if err_da > DEALIAS_TOL else []
    if err_raw < DEALIAS_GAIN * err_da:
        dealias.append(f"error without dealias {err_raw:.3g} is not {DEALIAS_GAIN:g} "
                       f"times the dealiased {err_da:.3g}")
    return {
        "plane_wave": [] if err_pw <= PLANE_WAVE_TOL else [f"plane wave error {err_pw:.3g}"],
        "dealias_vs_n512": dealias,
    }


def fewbody_oracles(seed: int) -> dict[str, list[str]]:
    rng = np.random.default_rng([seed, 2])
    config = ManyBodyConfig(GridSpec(1, 8), 3, 0.05)
    phi = TorusField.random_band_limited(config.grid, 2, rng, decay=2.0)
    psi0 = BosonicState.factorized(config, phi)
    dim = psi0.amps.size
    H = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        H[:, j] = apply_hamiltonian_raw(config, e.reshape(config.state_shape)).reshape(-1)
    T = 0.5
    ref = expm(-1j * T * H) @ psi0.amps.reshape(-1)
    err = _rel(propagate(psi0, T).amps.reshape(-1), ref)
    return {"propagate_vs_expm": [] if err <= EXPM_TOL else [f"Krylov vs expm {err:.3g}"]}


RUN_ORACLES = {"spectral": spectral_oracles, "fewbody": fewbody_oracles}
