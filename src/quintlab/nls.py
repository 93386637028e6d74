"""Split-step pseudospectral solver for the defocusing quintic NLS on T^d.

The equation solved is i d/dt phi = -Lap phi + b0 |phi|^4 phi, integrated by
Strang splitting: a half-step of the exact pointwise nonlinear phase rotation,
a full linear step (exact Fourier multiplier), and a second half rotation.
Both substeps are unitary, so without dealiasing mass is conserved to
rounding.  With dealiasing it is not: the projection onto the n-band removes
the mass the rotation moves past it (at d=1 n=6, b0 = 1, dt = 0.01 and a
band-2 datum, 2.2e-8 of it by T = 0.02).  The rotation keeps |phi|, so
`evolve` merges the half rotations that meet between two snapshots and
advances each snapshot interval in one raw-array kernel on the samples.
With dealiasing they lie on a 3n/2 grid, where the free phase, zero outside
the n-band, is also the dealias projection.  The rotation takes its phase
exp(i theta) from one tangent of the half angle, t = tan(theta/2):
cos theta = 2/(1+t^2) - 1 and sin theta = 2t/(1+t^2).  `free_sample` gives the free evolution's samples
on a finer grid by per-axis matrix products, for the probes' time
quadratures.  A dealiased run starts from one inverse transform of the
coefficients resampled to the 3n/2 grid: a synthesis matrix there would
hold 3n^2/2 entries at d = 1.  The module also carries the low/high energy
decomposition at a frequency cutoff and the frequency-localization
diagnostics used by the marginal-hierarchy experiments.  `snapshot_row` gives
an `nls-run` snapshot's mass, energy, energy split and high kinetic energies
in one pass, with one inverse transform beyond the snapshot's samples.  Of
E_L and E_H it sums the one of smaller size directly (E_H from the terms with
three or more high-frequency factors) and takes the other as E minus it.
`timeseries` gives an `nls-run`'s rows bit for bit as `evolve` and
`snapshot_row` would, but streams: it owns the Strang kernel's three buffers
(the samples, a complex and a real scratch) for the whole run and sums each
row from them, with phi_L transformed in place in the complex scratch, so it
holds no state beside them and drops the initial field once its samples are
taken.  `evolve` keeps every state of the same flow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import (
    GridSpec,
    ParameterError,
    TorusField,
    _fftn,
    _freq_components,
    _ifftn,
    _mask_leq,
    _resampled,
    _xi_squared,
    check_cutoff,
    check_entries,
    project_gt,
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
    """free_propagate(f, t).resample(n).values, into `out` when given, without a transform.

    The free phase factors over the axes, so each axis is one matrix product
    with the synthesis matrix whose columns carry the one-axis phase
    exp(-i t xi^2): the last axis first, then d-2, ..., 0, the axis-0
    product written into `out` (C-contiguous, shape (n,)*d) when given.
    It forms no new field per time; at t = 0 it is the plain upsample of the
    refined-Sobolev probe.  The (n, s) matrix is checked against the budget:
    at d = 1 it is the one array larger than the samples.
    """
    s, d = f.grid.n, f.grid.d
    if n < s:
        raise ValueError(f"cannot sample an n={s} field on {n} points per axis")
    check_entries("synthesis matrix", n * s, "n")
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


def _rotate(v: np.ndarray, rate, tau: float, z: np.ndarray, a: np.ndarray | None = None) -> None:
    """v *= exp(i theta) in place, theta = -tau rate(|v|^2), the phase written
    into the scratch z from t = tan(theta/2): with w = 2/(1+t^2),
    cos theta = w - 1 and sin theta = t w, one vectorized tan instead of cos
    and sin, finite for every finite theta.  |v|^2 is formed in the real
    scratch a (a new array when None) with z.real as its second term."""
    a = np.square(v.real, out=a)
    a += np.square(v.imag, out=z.real)
    t = rate(a)
    t *= -0.5 * tau
    np.tan(t, out=t)
    w = np.square(t, out=z.real)
    w += 1.0
    np.divide(2.0, w, out=w)
    np.multiply(t, w, out=z.imag)
    w -= 1.0
    v *= z


def _rotation_n(n: int, dealias: bool) -> int:
    """Points per axis of the rotation grid: n, or 3n/2 rounded up to an even size."""
    return 2 * ((3 * n + 3) // 4) if dealias else n


def _strang(v: np.ndarray, z: np.ndarray, a: np.ndarray, n: int, dt: float, steps: int,
            rate) -> None:
    """steps Strang steps of i u_t = -Lap u + rate(|u|^2) u on the samples v, in
    place, as N(dt/2) [L(dt) N(dt)]^(steps-1) L(dt) N(dt/2): N keeps |u|, so
    the half rotations that meet merge.  rate returns a real array and may
    overwrite its argument.  v lies on the rotation grid of an n-point field,
    n points per axis or 2*ceil(3n/4) with dealias; the free phase, built
    here and freed on return, is zero outside the n-band, so multiplying by
    it also projects out the modes the rotation spills there.  One FFT pair
    per step in the complex scratch z and the real scratch a of |v|^2; the
    last forward transform goes into z, as the coefficients of v."""
    phase = _resampled(_free_phase(v.ndim, n, dt), v.shape[0])
    for i in range(steps + 1 if steps else 0):
        if i:
            _fftn(v, out=v)
            v *= phase
            _ifftn(v, out=v)
        _rotate(v, rate, dt if 0 < i < steps else dt / 2.0, z, a)
    _fftn(v, out=z)
    z /= v.size


def _split_steps(f: TorusField, dt: float, steps: int, rate, dealias: bool) -> TorusField:
    """f after _strang's steps on the rotation grid of f's grid, or of its 3n/2
    grid with dealias.  The new field takes the last forward transform as its
    coefficients and, without dealias, the samples as its values."""
    grid = f.grid
    m = _rotation_n(grid.n, dealias)
    v = f.values.copy() if m == grid.n else _ifftn(_resampled(f.coefficients, m), norm="forward")
    z, a = np.empty_like(v), np.empty(v.shape)
    _strang(v, z, a, grid.n, dt, steps, rate)
    if m == grid.n:
        return TorusField._from_pair(grid, z, v)
    del v, a  # freed before the copy to the n-grid
    return TorusField(grid, _resampled(z, grid.n))


def _quintic(b0: float):
    """The quintic rate b0 |u|^4 from a = |u|^2, in place."""
    def quintic(a):
        return np.multiply(np.square(a, out=a), b0, out=a)

    return quintic


def strang_step(f: TorusField, cfg: NlsConfig, *, steps: int = 1) -> TorusField:
    """steps Strang steps N(dt/2) L(dt) N(dt/2), with N(tau) = exp(-i tau b0 |u|^4) and L
    the free flow; the half rotations that meet between two steps are applied as one."""
    if f.grid != cfg.grid:
        raise ValueError("field grid does not match solver configuration")
    return _split_steps(f, cfg.dt, steps, _quintic(cfg.b0), cfg.dealias)


def check_step_count(T: float, dt: float, snapshot_every: int = 1) -> int:
    """The number of steps T/dt, which must be an integer multiple of snapshot_every."""
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ParameterError("T", f"T={T} is not an integer multiple of dt={dt}")
    if steps % max(snapshot_every, 1) != 0:
        raise ParameterError("snapshot_every", f"does not divide the step count {steps}")
    return steps


def _snapshots(f0: TorusField, T: float, cfg: NlsConfig, snapshot_every: int = 1):
    """Yield (t, state) every snapshot_every steps from t = 0 to T, keeping only
    the current state (check_step_count)."""
    steps = check_step_count(T, cfg.dt, snapshot_every)
    f = f0
    for s in range(0, steps + 1, snapshot_every):
        if s:
            u = strang_step(f, cfg, steps=snapshot_every)
            if not np.all(np.isfinite(u.coefficients)):
                raise BlowUpError(
                    f"non-finite state at t={s * cfg.dt:.6g} "
                    f"(max |coeff| so far {np.abs(f.coefficients).max():.3e})"
                )
            f = u
        yield s * cfg.dt, f


def evolve(
    f0: TorusField,
    T: float,
    cfg: NlsConfig,
    snapshot_every: int = 1,
) -> Trajectory:
    """Advance f0 to time T, recording every snapshot_every steps (check_step_count)."""
    times, states = zip(*_snapshots(f0, T, cfg, snapshot_every))
    return Trajectory(np.array(times), list(states), cfg)


def _head(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading entries of the contiguous array buf as a C-contiguous array of `shape`."""
    return buf.reshape(-1)[:np.prod(shape)].reshape(shape)


def _zero_past_band(z: np.ndarray, n: int) -> None:
    """Zero the coefficients that resampling z to n points per axis drops, so z
    becomes _resampled(_resampled(z, n), len(z)): every entry with an index
    in [n/2, len(z) - n/2) on some axis."""
    h = n // 2
    for j in range(z.ndim):
        z[(slice(None),) * j + (slice(h, z.shape[j] - h),)] = 0


def timeseries(
    f0: TorusField,
    T: float,
    cfg: NlsConfig,
    snapshot_every: int,
    split_m: float,
    diag_ms,
) -> list[list[float]]:
    """[t] + snapshot_row(u, split_m, diag_ms, cfg.b0) for each snapshot (t, u)
    of evolve(f0, T, cfg, snapshot_every), bit for bit.

    The run owns _strang's buffers v, z and a and sums each row from them:
    the row's coefficients are z itself, or with dealias z resampled to the
    n-grid, with their samples transformed into v's memory; the next
    interval restarts v from z projected to the n-band.  f0's samples are
    taken into v without caching them on f0, and f0 is dropped before the
    first row, so a caller that passes its last reference holds no field
    through the run."""
    steps = check_step_count(T, cfg.dt, snapshot_every)
    g, rate = f0.grid, _quintic(cfg.b0)
    m = _rotation_n(g.n, cfg.dealias)
    z = np.array(f0.coefficients) if m == g.n else _resampled(f0.coefficients, m)
    v, a = np.empty_like(z), np.empty(z.shape)
    vn, an = _head(v, g.shape), _head(a, g.shape)
    c = z if m == g.n else np.array(f0.coefficients)
    f0._samples(out=vn)
    del f0
    rows = []
    for s in range(0, steps + 1, snapshot_every):
        if s:
            if m != g.n:
                _zero_past_band(z, g.n)
                _ifftn(z, out=v, norm="forward")
            _strang(v, z, a, g.n, cfg.dt, snapshot_every, rate)
            c = z if m == g.n else _resampled(z, g.n)
            if not np.all(np.isfinite(c)):
                raise BlowUpError(f"non-finite state at t={s * cfg.dt:.6g} "
                                  f"(mass {rows[-1][1]:.3e} at t={rows[-1][0]:.6g})")
            if m != g.n:
                _ifftn(c, out=vn)
                vn *= g.size
        rows.append([s * cfg.dt] + _row(g, c, vn, an, split_m, diag_ms, cfg.b0))
    return rows


def plane_wave_solution(grid: GridSpec, xi, amplitude: float, b0: float, t: float) -> TorusField:
    """Exact solution A exp(i(xi.x - w t)) with w = |xi|^2 + b0 A^4."""
    xi = (xi,) if isinstance(xi, int) else tuple(xi)
    omega = float(sum(x * x for x in xi)) + b0 * amplitude**4
    return TorusField.plane_wave(grid, xi, amplitude * np.exp(-1j * omega * t))


# -- conserved quantities and the low/high energy split ------------------


def _kinetic_density(g: GridSpec, c: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|c|^2 |xi|^2 into the real buffer w, with t as scratch: its sum times
    the volume is ||grad f||^2 for the field f with coefficients c."""
    np.square(c.real, out=w)
    w += np.square(c.imag, out=t)
    w *= _xi_squared(g.d, g.n)
    return w


def _energy(g: GridSpec, w: np.ndarray, v: np.ndarray, t: np.ndarray, b0: float) -> float:
    """E from the kinetic density w and the samples v.  |v|^6 is summed as
    (|v|^2)^3, with |v|^2 formed in w's memory once w is summed and its
    square in the real buffer t."""
    kinetic = g.volume * float(np.sum(w))
    s = np.square(v.real, out=w)
    s += np.square(v.imag, out=t)
    return kinetic + b0 / 3.0 * g.cell_volume * float(np.vdot(s, np.multiply(s, s, out=t)))


def energy_nls(f: TorusField, b0: float) -> float:
    """E(phi) = int |grad phi|^2 + (b0/3) int |phi|^6.

    Gradient term spectral, sextic term by grid quadrature; snapshot_row's
    E_NLS is the same sum, bit for bit.
    """
    g = f.grid
    w, t = np.empty(g.shape), np.empty(g.shape)
    return _energy(g, _kinetic_density(g, f.coefficients, w, t), f.values, t, b0)


def _halves(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The memory of the contiguous complex array c as two real arrays of its shape."""
    flat = c.reshape(-1).view(np.float64)
    return flat[:c.size].reshape(c.shape), flat[c.size:].reshape(c.shape)


def _sextic_sums(g: GridSpec, vl: np.ndarray, v: np.ndarray, low: np.ndarray, a: np.ndarray,
                 r: np.ndarray) -> tuple[float, float]:
    """Grid sums of the low and high parts of |phi|^6 at the sharp cutoff
    whose mask is `low`, for the field phi with coefficients vl and samples
    v; phi_L costs one inverse transform, in place in vl, and
    phi_H = phi - phi_L is the one new array.

    With a = |phi_L|^2, r = 2 Re conj(phi_L) phi_H and h = |phi_H|^2,
    |phi|^2 = a + r + h.  Counting r as one high-frequency factor and h as
    two, the terms of (a + r + h)^3 with at most two of them are the low part

        a^3 + 3 a^2 r + 3 a^2 h + 3 a r^2 = a (a (a + 3q) + 3 r^2),   q = r + h,

    and the rest the high part

        h (6ar + 3ah + 3r^2 + 3rh + h^2) + r^3 = h (3a (r + q) + 3rq + h^2) + r^3.

    The sums run in six real buffers: phi_L and phi_H take four, the real
    buffers r and a the other two, and h, q and the two polynomials' scratch
    reuse the first four.
    """
    vl *= low
    _ifftn(vl, out=vl)
    vl *= g.size
    vh = np.subtract(v, vl)
    np.multiply(vl.real, vh.real, out=r)
    np.multiply(vl.imag, vh.imag, out=a)  # a scratch here, |phi_L|^2 below
    r += a
    r *= 2.0
    np.square(vl.real, out=a)
    a += np.square(vl.imag, out=vl.imag)
    h, q, x, y = _halves(vl) + _halves(vh)  # phi_L's memory, then phi_H's, each past its last read
    np.square(vh.real, out=h)
    h += np.square(vh.imag, out=q)
    np.add(r, h, out=q)
    r2 = np.multiply(r, r, out=x)
    r3 = np.vdot(r2, r)
    low_part = np.multiply(q, 3.0, out=y)
    low_part += a
    low_part *= a
    r2 *= 3.0
    low_part += r2
    sextic_low = np.vdot(a, low_part)
    high_part = np.multiply(a, 3.0, out=x)
    high_part *= np.add(r, q, out=y)
    high_part += np.multiply(np.multiply(r, 3.0, out=y), q, out=y)
    high_part += np.multiply(h, h, out=y)
    return float(sextic_low), float(np.vdot(h, high_part) + r3)


def _row(g: GridSpec, z: np.ndarray, v: np.ndarray, a: np.ndarray, split_m: float, diag_ms,
         b0: float) -> list[float]:
    """snapshot_row of the field with coefficients z and samples v.  z and the
    real buffer a are overwritten; the real r and phi_H are the new arrays.
    Mass and the kinetic sums are read from z first, then _sextic_sums
    transforms phi_L in place in z."""
    for m in (split_m, *diag_ms):
        check_cutoff(m)
    low = _mask_leq(g.d, g.n, split_m)
    mass = float(np.sqrt(g.volume * np.sum(np.square(np.abs(z, out=a), out=a))))
    r = np.empty(g.shape)
    w = _kinetic_density(g, z, a, r)

    def kinetic(mask):
        return g.volume * float(np.sum(w, where=mask))

    k_low, k_high = kinetic(low), kinetic(~low)
    high_kinetic = [kinetic(~_mask_leq(g.d, g.n, m)) for m in diag_ms]
    e = _energy(g, w, v, r, b0)
    sextic_low, sextic_high = _sextic_sums(g, z, v, low, a, r)
    c = b0 / 3.0 * g.cell_volume
    e_low, e_high = k_low + c * sextic_low, k_high + c * sextic_high
    if abs(e_low) <= abs(e_high):
        e_high = e - e_low
    else:
        e_low = e - e_high
    return [mass, e, e_low, e_high] + high_kinetic


def snapshot_row(f: TorusField, split_m: float, diag_ms, b0: float) -> list[float]:
    """[mass, E_NLS, E_L, E_H] and ||P_{>M} grad f||^2 for each M of diag_ms.

    One pass: the kinetic parts are masked sums of |fhat|^2 |xi|^2, formed
    once, and the sextic parts come from _sextic_sums.  Of E_L and E_H, the
    one of smaller size is summed directly and the other is E minus it: so
    E_H keeps its relative accuracy when the band above split_m is nearly
    empty, E_L when the band below it is, and E_L + E_H = E to the rounding
    of one subtraction.
    """
    g = f.grid
    return _row(g, np.array(f.coefficients), f.values, np.empty(g.shape), split_m, diag_ms, b0)


def energy_split(f: TorusField, m: float, b0: float) -> tuple[float, float]:
    """Split E into (E_L, E_H) at the cutoff m, as snapshot_row does.

    E_L is ||grad phi_L||^2 plus the sextic terms of |phi_L + phi_H|^6 with
    at most two high-frequency factors, E_H ||grad phi_H||^2 plus the rest
    (see _sextic_sums); the smaller is summed directly and the larger is
    energy_nls(f) minus it.
    """
    e_low, e_high = snapshot_row(f, m, (), b0)[2:]
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
