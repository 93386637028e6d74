"""Split-step pseudospectral solver for the defocusing quintic NLS on T^d.

The equation solved is i d/dt phi = -Lap phi + b0 |phi|^4 phi, integrated by
Strang splitting: a half-step of the exact pointwise nonlinear phase rotation,
a full linear step (exact Fourier multiplier), and a second half rotation.
Both substeps are unitary, so mass is conserved to rounding.  The module also
carries the low/high energy decomposition at a frequency cutoff and the
frequency-localization diagnostics used by the marginal-hierarchy experiments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import (
    GridSpec,
    ParameterError,
    TorusField,
    _abs2,
    _freq_components,
    check_cutoff,
    project_gt,
    project_leq,
    project_lt,
    dyadic_levels,
)


class BlowUpError(RuntimeError):
    """Raised when the state develops non-finite values during evolution."""


@dataclass(frozen=True)
class NlsConfig:
    grid: GridSpec
    b0: float
    dt: float
    dealias: bool = True

    def __post_init__(self):
        if self.b0 < 0:
            raise ParameterError("b0", "defocusing coupling requires b0 >= 0")
        if self.dt <= 0:
            raise ParameterError("dt", "dt must be positive")


@dataclass
class Trajectory:
    """Uniformly spaced snapshots of an evolution, times[0] = 0."""

    times: np.ndarray
    states: list[TorusField]
    config: NlsConfig

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states disagree in length")
        if len(self.times) and self.times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if len(self.times) > 2:
            gaps = np.diff(self.times)
            if not np.allclose(gaps, gaps[0], rtol=1e-9):
                raise ValueError("snapshots must be uniformly spaced")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def free_propagate(f: TorusField, t: float) -> TorusField:
    """exp(it Lap): multiply each coefficient by exp(-i t |xi|^2).

    The multiplier is the outer product of the d one-axis phases
    exp(-i t xi_j^2), so a call evaluates d*n exponentials, not n^d.
    """
    phases = [np.exp(-1j * t * ax**2) for ax in _freq_components(f.grid.d, f.grid.n)]
    return f.multiply_coefficients(functools.reduce(np.multiply, phases))


def _phase_rotation(f: TorusField, b0: float, tau: float, dealias: bool) -> TorusField:
    """Exact nonlinear substep phi -> exp(-i b0 |phi|^4 tau) phi.

    With dealias=True the rotation is evaluated on a zero-padded grid of 3n/2
    points (rounded up to an even count) and truncated back, which removes the
    quadratic-product aliases of |phi|^4.
    """
    if b0 == 0.0 or tau == 0.0:
        return f
    fine = f.resample(2 * ((3 * f.grid.n + 3) // 4)) if dealias else f
    v = fine.values
    rotated = TorusField.from_values(fine.grid, np.exp(-1j * b0 * tau * _abs2(v) ** 2) * v)
    return rotated.resample(f.grid.n) if dealias else rotated


def strang_step(f: TorusField, cfg: NlsConfig) -> TorusField:
    """One second-order step: N(dt/2) L(dt) N(dt/2)."""
    if f.grid != cfg.grid:
        raise ValueError("field grid does not match solver configuration")
    g = _phase_rotation(f, cfg.b0, cfg.dt / 2.0, cfg.dealias)
    g = free_propagate(g, cfg.dt)
    return _phase_rotation(g, cfg.b0, cfg.dt / 2.0, cfg.dealias)


def check_step_count(T: float, dt: float, snapshot_every: int = 1) -> int:
    """The number of steps T/dt, which must be an integer multiple of snapshot_every."""
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ParameterError("T", f"T={T} is not an integer multiple of dt={dt}")
    if steps % max(snapshot_every, 1) != 0:
        raise ParameterError("snapshot_every", f"does not divide the step count {steps}")
    return steps


def evolve(
    f0: TorusField,
    T: float,
    cfg: NlsConfig,
    snapshot_every: int = 1,
) -> Trajectory:
    """Advance f0 to time T = k*dt, recording every snapshot_every steps.

    The step count must be a multiple of snapshot_every so snapshots stay
    uniformly spaced and include the final state.
    """
    steps = check_step_count(T, cfg.dt, snapshot_every)
    states = [f0]
    times = [0.0]
    f = f0
    for s in range(1, steps + 1):
        f = strang_step(f, cfg)
        if s % snapshot_every == 0:
            if not np.all(np.isfinite(f.coefficients)):
                raise BlowUpError(
                    f"non-finite state at t={s * cfg.dt:.6g} "
                    f"(max |coeff| so far {np.abs(states[-1].coefficients).max():.3e})"
                )
            states.append(f)
            times.append(s * cfg.dt)
    return Trajectory(np.array(times), states, cfg)


def plane_wave_solution(grid: GridSpec, xi, amplitude: float, b0: float, t: float) -> TorusField:
    """Exact solution A exp(i(xi.x - w t)) with w = |xi|^2 + b0 A^4."""
    xi = (xi,) if isinstance(xi, int) else tuple(xi)
    omega = float(sum(x * x for x in xi)) + b0 * amplitude**4
    return TorusField.plane_wave(grid, xi, amplitude * np.exp(-1j * omega * t))


# -- conserved quantities and the low/high energy split ------------------


def energy_nls(f: TorusField, b0: float) -> float:
    """E(phi) = int |grad phi|^2 + (b0/3) int |phi|^6.

    Gradient term spectral, sextic term by grid quadrature.
    """
    sextic = float(np.sum(np.abs(f.values) ** 6) * f.grid.cell_volume)
    return f.gradient_l2_sq() + (b0 / 3.0) * sextic


def energy_split(
    f: TorusField,
    m: float,
    b0: float,
    grad_term: str = "low",
) -> tuple[float, float]:
    """Split E into (E_L, E_H) at the cutoff m, with E_L + E_H = E exactly.

    E_L collects the gradient term plus the terms of the binomial expansion of
    |phi_L + phi_H|^6 that carry at most two high-frequency factors.  With
    a = |phi_L|^2 and z = conj(phi_L) phi_H they sum to

        a^3 + 6 a^2 Re z + 9 a^2 |phi_H|^2 + 6 a Re z^2

    grad_term selects which kinetic piece sits in E_L: "low" (default) puts
    ||grad phi_L||^2 there, so E_H starts with the high kinetic energy; the
    variant "high" puts ||grad phi_H||^2 in E_L instead, exposed only for
    comparison of the two bookkeeping conventions.
    """
    if grad_term not in ("low", "high"):
        raise ValueError("grad_term must be 'low' or 'high'")
    fl = project_leq(f, m)
    fh = project_gt(f, m)
    vl = fl.values
    vh = fh.values
    a = _abs2(vl)
    z = np.conj(vl) * vh
    # 9 a^2 |phi_H|^2 = 9 a |z|^2, and Re z^2 = Re(z)^2 - Im(z)^2
    combo = a * (a * (a + 6.0 * z.real) + 15.0 * z.real**2 + 3.0 * z.imag**2)
    sextic_low = float(np.sum(combo) * f.grid.cell_volume)
    grad_low = fl.gradient_l2_sq() if grad_term == "low" else fh.gradient_l2_sq()
    e_low = grad_low + (b0 / 3.0) * sextic_low
    e_high = energy_nls(f, b0) - e_low
    return e_low, e_high


def check_diagnostic_cutoffs(m: float, r: float) -> None:
    """frequency_diagnostics needs cutoffs 0 < m <= r."""
    check_cutoff(m)
    if m > r:
        raise ValueError(f"requires m <= r, got m={m}, r={r}")


def frequency_diagnostics(f: TorusField, m: float, r: float) -> dict[str, float]:
    """High and intermediate kinetic energies at cutoffs m <= r.

    high_kinetic = ||P_{>M} grad f||^2;
    intermediate_kinetic = ||grad P_{<R} P_{>M} f||^2.
    """
    check_diagnostic_cutoffs(m, r)
    high = project_gt(f, m)
    mid = project_lt(high, r)
    return {
        "high_kinetic": high.gradient_l2_sq(),
        "intermediate_kinetic": mid.gradient_l2_sq(),
    }


def utfl_probe(traj: Trajectory, eps: float) -> int | None:
    """Smallest dyadic M with sup_t ||P_{>M} grad u(t)|| <= eps.

    Candidates run over 1, 2, ..., n/4.  If even the outermost candidate
    fails, the trajectory is under-resolved for this eps and None is
    returned (the cutoff at the Nyquist frequency passes vacuously and is
    not reported as a localization scale).
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    grid = traj.config.grid
    candidates = [m for m in dyadic_levels(grid) if m <= grid.nyquist // 2]
    for m in candidates:
        worst = max(
            np.sqrt(frequency_diagnostics(u, m, grid.nyquist)["high_kinetic"])
            for u in traj.states
        )
        if worst <= eps:
            return m
    return None


def energy_low_drift(traj: Trajectory, m: float, grad_term: str = "low") -> dict[str, float]:
    """Finite-difference rate of change of E_L along a trajectory.

    max_rate is the largest centred-difference |dE_L/dt| over interior
    snapshots; fitted_C divides it by C1^10 M^2 where
    C1 = max(sup_t ||grad u(t)||, 1), so a sweep in M probes the M^2 scaling
    of the local-in-time low-energy control bound.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 snapshots")
    b0 = traj.config.b0
    e_low = np.array([energy_split(u, m, b0, grad_term)[0] for u in traj.states])
    h = traj.spacing
    rates = np.abs((e_low[2:] - e_low[:-2]) / (2.0 * h))
    c1 = max(max(np.sqrt(u.gradient_l2_sq()) for u in traj.states), 1.0)
    max_rate = float(rates.max())
    return {
        "max_rate": max_rate,
        "fitted_C": max_rate / (c1**10 * m**2),
        "c1": c1,
    }
