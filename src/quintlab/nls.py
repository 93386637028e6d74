"""Split-step pseudospectral solver for the defocusing quintic NLS on T^d.

The equation solved is i d/dt phi = -Lap phi + b0 |phi|^4 phi, integrated by
Strang splitting: a half-step of the exact pointwise nonlinear phase rotation,
a full linear step (exact Fourier multiplier), and a second half rotation.
Both substeps are unitary, so mass is conserved to rounding.  The rotation
keeps |phi|, so `evolve` merges the half rotations that meet between two
snapshots and advances each snapshot interval in one raw-array kernel on the
samples.  With dealiasing they lie on a 3n/2 grid, where the free phase, zero
outside the n-band, is also the dealias projection.  `free_sample` gives the
free evolution's samples on a finer grid by per-axis matrix products, for
the probes' time quadratures.  The module also carries
the low/high energy decomposition at a frequency cutoff and the
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
    _fftn,
    _freq_components,
    _ifftn,
    check_cutoff,
    check_entries,
    project_gt,
    project_leq,
    project_lt,
    dyadic_levels,
    sample,
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
        if self.grid is not None and self.dealias:  # else the rotation grid is the field grid
            m = _rotation_n(self.grid.n, True)
            check_entries("rotation grid", m**self.grid.d, "n")


@dataclass
class Trajectory:
    """Uniformly spaced snapshots of an evolution, times[0] = 0."""

    times: np.ndarray
    states: list[TorusField]
    config: NlsConfig

    def __len__(self) -> int:
        return len(self.states)

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def _free_phase(d: int, n: int, t: float) -> np.ndarray:
    """exp(-i t |xi|^2) as the outer product of the d one-axis phases: d*n exponentials."""
    return functools.reduce(np.multiply, [np.exp(-1j * t * a**2) for a in _freq_components(d, n)])


def free_propagate(f: TorusField, t: float) -> TorusField:
    """exp(it Lap): multiply each coefficient by exp(-i t |xi|^2)."""
    return f.multiply_coefficients(_free_phase(f.grid.d, f.grid.n, t))


@functools.lru_cache(maxsize=None)
def _synthesis_matrix(s: int, n: int) -> np.ndarray:
    """The (n, s) matrix exp(i x_a xi_k): x_a the n-grid points, xi_k the s-grid
    labels in FFT layout (edge label -s/2), the argument reduced mod 2*pi exactly."""
    xi = _freq_components(1, s)[0]
    e = np.exp((2j * np.pi / n) * (np.multiply.outer(np.arange(n), xi) % n))
    e.flags.writeable = False
    return e


def free_sample(f: TorusField, t: float, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """sample(free_propagate(f, t), n, out), without a transform.

    The free phase factors over the axes, so each axis is one matrix product
    with the synthesis matrix whose columns carry the one-axis phase
    exp(-i t xi^2): the last axis first, then d-2, ..., 0, the axis-0
    product written into `out` (C-contiguous, shape (n,)*d) when given.
    For the small band grids of the probe time loops this beats the pruned
    transforms of `sample` and forms no new field per time.
    """
    s, d = f.grid.n, f.grid.d
    if n < s:
        raise ValueError(f"cannot sample an n={s} field on {n} points per axis")
    if out is None:
        out = np.empty((n,) * d, dtype=np.complex128)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    e = _synthesis_matrix(s, n) * np.exp(-1j * t * _freq_components(1, s)[0] ** 2)
    b = f.coefficients
    if d > 1:
        b = b.reshape(-1, s) @ e.T
    for j in range(d - 2, 0, -1):
        b = np.matmul(e, b.reshape(s**j, s, -1))
    np.matmul(e, b.reshape(s, -1), out=out.reshape(n, -1))
    return out


def _rotate(v: np.ndarray, rate, tau: float, z: np.ndarray) -> None:
    """v *= exp(-i tau rate(|v|^2)) in place, the phase written as cos/sin into the scratch z."""
    theta = rate(_abs2(v))
    theta *= -tau
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    v *= z


def _rotation_n(n: int, dealias: bool) -> int:
    """Points per axis of the rotation grid: n, or 3n/2 rounded up to an even size."""
    return 2 * ((3 * n + 3) // 4) if dealias else n


def _split_steps(f: TorusField, dt: float, steps: int, rate, dealias: bool) -> TorusField:
    """steps Strang steps of i u_t = -Lap u + rate(|u|^2) u on raw arrays, as
    N(dt/2) [L(dt) N(dt)]^(steps-1) L(dt) N(dt/2): N keeps |u|, so the half
    rotations that meet merge.  rate returns a real array and may overwrite
    its argument.  The state is the samples on the rotation grid, n points
    per axis, or 2*ceil(3n/4) with dealias; the free phase is zero outside
    the n-band, so multiplying by it also projects out the modes the rotation
    spills there.  One FFT pair per step."""
    grid = f.grid
    m = _rotation_n(grid.n, dealias)
    phase = TorusField(grid, _free_phase(grid.d, grid.n, dt)).resample(m).coefficients
    v = sample(f, m, out=np.empty((m,) * grid.d, dtype=np.complex128))
    z = np.empty_like(v)
    for i in range(steps + 1 if steps else 0):
        if i:
            _fftn(v, out=v)
            v *= phase
            _ifftn(v, out=v)
        _rotate(v, rate, dt if 0 < i < steps else dt / 2.0, z)
    return TorusField.from_values(GridSpec(grid.d, m), v).resample(grid.n)


def strang_step(f: TorusField, cfg: NlsConfig, *, steps: int = 1) -> TorusField:
    """steps Strang steps N(dt/2) L(dt) N(dt/2), with N(tau) = exp(-i tau b0 |u|^4) and L
    the free flow; the half rotations that meet between two steps are applied as one."""
    if f.grid != cfg.grid:
        raise ValueError("field grid does not match solver configuration")

    def quintic(a):  # b0 |u|^4 from a = |u|^2, in place
        return np.multiply(np.square(a, out=a), cfg.b0, out=a)

    return _split_steps(f, cfg.dt, steps, quintic, cfg.dealias)


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
    """Advance f0 to time T, recording every snapshot_every steps (check_step_count)."""
    steps = check_step_count(T, cfg.dt, snapshot_every)
    times = [s * cfg.dt for s in range(0, steps + 1, snapshot_every)]
    states = [f0]
    for t in times[1:]:
        f = strang_step(states[-1], cfg, steps=snapshot_every)
        if not np.all(np.isfinite(f.coefficients)):
            raise BlowUpError(
                f"non-finite state at t={t:.6g} "
                f"(max |coeff| so far {np.abs(states[-1].coefficients).max():.3e})"
            )
        states.append(f)
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


def energy_split(f: TorusField, m: float, b0: float) -> tuple[float, float]:
    """Split E into (E_L, E_H) at the cutoff m, with E_L + E_H = E exactly.

    E_L collects ||grad phi_L||^2, so E_H starts with the high kinetic energy,
    plus the terms of the binomial expansion of |phi_L + phi_H|^6 that carry
    at most two high-frequency factors.  With a = |phi_L|^2 and
    z = conj(phi_L) phi_H they sum to

        a^3 + 6 a^2 Re z + 9 a^2 |phi_H|^2 + 6 a Re z^2
    """
    fl = project_leq(f, m)
    fh = project_gt(f, m)
    vl = fl.values
    vh = fh.values
    a = _abs2(vl)
    z = np.conj(vl) * vh
    # 9 a^2 |phi_H|^2 = 9 a |z|^2, and Re z^2 = Re(z)^2 - Im(z)^2
    combo = a * (a * (a + 6.0 * z.real) + 15.0 * z.real**2 + 3.0 * z.imag**2)
    sextic_low = float(np.sum(combo) * f.grid.cell_volume)
    e_low = fl.gradient_l2_sq() + (b0 / 3.0) * sextic_low
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


def energy_low_drift(traj: Trajectory, m: float) -> dict[str, float]:
    """Finite-difference rate of change of E_L along a trajectory.

    max_rate is the largest centred-difference |dE_L/dt| over interior
    snapshots; fitted_C divides it by C1^10 M^2 where
    C1 = max(sup_t ||grad u(t)||, 1), so a sweep in M probes the M^2 scaling
    of the local-in-time low-energy control bound.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 snapshots")
    b0 = traj.config.b0
    e_low = np.array([energy_split(u, m, b0)[0] for u in traj.states])
    h = traj.spacing
    rates = np.abs((e_low[2:] - e_low[:-2]) / (2.0 * h))
    c1 = max(max(np.sqrt(u.gradient_l2_sq()) for u in traj.states), 1.0)
    max_rate = float(rates.max())
    return {
        "max_rate": max_rate,
        "fitted_C": max_rate / (c1**10 * m**2),
        "c1": c1,
    }
