"""Split-step pseudospectral solver for the defocusing quintic NLS on T^d.

The equation solved is i d/dt phi = -Lap phi + b0 |phi|^4 phi, integrated by
Strang splitting: a half-step of the exact pointwise nonlinear phase rotation,
a full linear step (exact Fourier multiplier), and a second half rotation.
Both substeps are unitary, so without dealiasing mass is conserved to
rounding; with dealiasing the rotation runs on the 3n/2 grid, and the
projection onto the n-band removes the mass it moves past the band.  The
module also carries the energy, its low/high split at a frequency cutoff
and the frequency-localization diagnostics.
"""

from __future__ import annotations

import functools
import math
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

MAX_POINT_STEPS = 2**32  # check_flow_work: 1,600 times the largest flow of configs/ and perfbench
_NON_FINITE = "non-finite state at t={:.6g}"  # the one BlowUpError message of a flow


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


def _free_phase(d: int, n: int, t: float, m: int, rows: slice = slice(None),
                out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i t |xi|^2) of an n-point grid, placed on m points per axis as by
    _resampled, at `rows` of the first axis: the outer product of the d
    one-axis phases, d*n exponentials, as (p_i p_j) p_k at d = 3 for every
    choice of rows, into out when given."""
    phase = _resampled(np.exp(-1j * t * _freq_components(1, n)[0] ** 2), m)
    if d > 1:
        head = functools.reduce(np.multiply.outer, [phase[rows]] + [phase] * (d - 2))
        return np.multiply.outer(head, phase, out=out)
    if out is None:
        return phase[rows]
    out[...] = phase[rows]
    return out


def free_propagate(f: TorusField, t: float) -> TorusField:
    """exp(it Lap): multiply each coefficient by exp(-i t |xi|^2)."""
    return f.multiply_coefficients(_free_phase(f.grid.d, f.grid.n, t, f.grid.n))


@functools.lru_cache(maxsize=None)
def _synthesis_matrix(s: int, n: int) -> np.ndarray:
    """The (n, s) matrix exp(i x_a xi_k): x_a the n-grid points, xi_k the s-grid
    labels in FFT layout (edge label -s/2), the argument reduced mod 2*pi exactly."""
    xi = _freq_components(1, s)[0]
    e = np.exp((2j * np.pi / n) * (np.multiply.outer(np.arange(n), xi) % n))
    e.flags.writeable = False
    return e


@functools.lru_cache(maxsize=None)
def _pair_map(s: int) -> np.ndarray:
    """The (s+1, s) map q of one axis's coefficients c to its +-xi pairs: rows
    c_k + c_-k, k = 0..s/2, then i (c_k - c_-k), k = 1..s/2, with c_0 and the
    edge label -s/2 alone; _cos_sin(s, n) @ q is _synthesis_matrix(s, n)."""
    xi = _freq_components(1, s)[0]
    q = np.zeros((s + 1, s), dtype=np.complex128)
    q[np.abs(xi), np.arange(s)] = 1.0
    q[s // 2 + np.abs(xi[1:]), np.arange(1, s)] = 1j * np.sign(xi[1:])
    q.flags.writeable = False
    return q


@functools.lru_cache(maxsize=None)
def _cos_sin(s: int, n: int) -> np.ndarray:
    """The real (n, s+1) matrix of cos(x_a k), k = 0..s/2, then sin(x_a k), k = 1..s/2,
    x_a the n-grid points, the argument reduced exactly to [-pi, pi]."""
    ak = np.multiply.outer(np.arange(n), np.arange(s // 2 + 1)) % n
    theta = (2 * np.pi / n) * np.where(2 * ak > n, ak - n, ak)
    r = np.concatenate([np.cos(theta), np.sin(theta[:, 1:])], axis=1)
    r.flags.writeable = False
    return r


def _paired(f: TorusField) -> np.ndarray:
    """f's coefficients with _pair_map along each axis but the last: a factor of _free_product."""
    s, d, b = f.grid.n, f.grid.d, f.coefficients
    for j in range(d - 1):
        b = np.matmul(_pair_map(s), b.reshape((s + 1,) * j + (s, -1)))
    return b.reshape((s + 1,) * (d - 1) + (s,))


def free_sample(f: TorusField, t: float, n: int) -> np.ndarray:
    """free_propagate(f, t).resample(n).values, as a new array, without a
    transform.  Its matrices are charged: the (n, s) synthesis matrix, at d = 1 the one
    array larger than the samples, and past d = 1 the real (n, s+1) one beside it."""
    s, d = f.grid.n, f.grid.d
    if n < s:
        raise ValueError(f"cannot sample an n={s} field on {n} points per axis")
    check_entries("synthesis matrices", n * (2 * s + 1 if d > 1 else s), "n")
    return _free_product([_paired(f)], t, n, np.empty((n,) * d, dtype=np.complex128))


def _free_product(factors: list[np.ndarray], t: float, n: int, out: np.ndarray,
                  buf: np.ndarray | None = None, stages: dict | None = None) -> np.ndarray:
    """The product of free_sample(f, t, n) over the fields f of the factors _paired(f), into
    out, unchecked; buf, like out, takes each further factor.  The free phase, even in xi,
    scales the pairs; the last axis takes the synthesis matrix times the one-axis phase,
    each other one _cos_sin on the float64 view.  Factors of one size share matrices and
    two stage buffers, kept in `stages` across calls when given."""
    mats, stages = {}, {} if stages is None else stages
    for i, c in enumerate(factors):
        s, d = c.shape[-1], c.ndim
        if s not in mats:  # the one-axis phase on the labels, and on the pairs of d - 1 axes
            p, h = _free_phase(1, s, t, s), s // 2
            pairs = [np.concatenate([p[:h + 1], p[1:h + 1]])] * (d - 1)
            mats[s] = _synthesis_matrix(s, n) * p, functools.reduce(np.multiply.outer, pairs, 1.0)
        (e, phase), dst = mats[s], buf if i else out
        if d > 1:  # the last axis into y, then each other one into x, the first last
            if s not in stages:
                stages[s] = (np.empty(max(c.size, (s + 1) * n**(d - 1)), np.complex128),
                             np.empty((s + 1)**(d - 1) * n, np.complex128))
            x, y = stages[s]
            c = np.multiply(c, phase[..., None], out=x[:c.size].reshape(c.shape)).reshape(-1, s)
            c = np.matmul(c, e.T, out=y.reshape(-1, n)).view(np.float64)
            e = _cos_sin(s, n)
            for j in range(d - 2, 0, -1):
                c = c.reshape((s + 1)**j, s + 1, -1)
                o = x.view(np.float64)[:len(c) * n * c.shape[-1]]
                c = np.matmul(e, c, out=o.reshape(len(c), n, -1))
            dst = dst.view(np.float64)
        np.matmul(e, c.reshape(e.shape[1], -1), out=dst.reshape(n, -1))
        if i:
            out *= buf
    return out


def _rotate(v: np.ndarray, rate, tau: float, z: np.ndarray, a: np.ndarray | None = None,
            b: np.ndarray | None = None) -> None:
    """v *= exp(i theta) in place, theta = -tau rate(|v|^2), the phase written
    into the scratch z from t = tan(theta/2): with w = 2/(1+t^2),
    cos theta = w - 1 and sin theta = t w, one vectorized tan instead of cos
    and sin, finite for every finite theta.  |v|^2 and w are formed in the
    contiguous real scratch a and b (new arrays when None)."""
    a = np.square(v.real, out=a)
    a += np.square(v.imag, out=b)
    t = rate(a)
    t *= -0.5 * tau
    np.tan(t, out=t)
    w = np.square(t, out=b)
    w += 1.0
    np.divide(2.0, w, out=w)
    np.multiply(t, w, out=z.imag)
    np.subtract(w, 1.0, out=z.real)
    v *= z


def _rotation_n(n: int, dealias: bool) -> int:
    """Points per axis of the rotation grid: n, or 3n/2 rounded up to an even size."""
    return 2 * ((3 * n + 3) // 4) if dealias else n


# Grids of more than _SPLIT entries run the free phase and a row's sums in chunks of
# first-axis rows of at least _CHUNK entries, a smaller grid in one chunk with the
# arithmetic of whole-array sums; the rotation runs in blocks of about _CHUNK entries.
_SPLIT = 2**17
_CHUNK = 2**13


# Dealiased rotation grids of at most this many points per axis take the
# free step as per-axis products with one dense propagator (see _strang):
# below the dense/FFT crossover measured for d = 1, 2, 3 (CHANGES.md).
_DENSE_FREE_MAX_M = 48


@functools.lru_cache(maxsize=8)
def _propagator(n: int, m: int, dt: float) -> np.ndarray:
    """The free step exp(i dt Lap) on one axis of the m-point rotation grid of
    an n-point field, projected to the n-band, as the (m, m) matrix
    e diag(exp(-i dt xi^2)) e^H / m, e = _synthesis_matrix(n, m): it maps
    samples to samples as the FFT pair with the free phase between does."""
    e = _synthesis_matrix(n, m)
    p = (e * _free_phase(1, n, dt, n)) @ e.conj().T
    p /= m
    p.flags.writeable = False
    return p


def _chunked(shape: tuple[int, ...], *dtypes, parts: int | None = None):
    """(rows, scratch...) for each chunk of a grid of this shape: rows is a
    slice of its first axis, of ceil(len / parts) rows with parts, else the whole
    axis up to _SPLIT entries, else ceil(_CHUNK / row) rows; the scratch is one
    array per dtype, of the chunk's shape, each a view of one buffer the size
    of the largest chunk."""
    row = math.prod(shape[1:])
    k = shape[0] if row * shape[0] <= _SPLIT else -(-_CHUNK // row)
    k = k if parts is None else -(-shape[0] // parts)
    bufs = [np.empty((min(k, shape[0]),) + tuple(shape[1:]), dt) for dt in dtypes]
    for i in range(0, shape[0], k):
        rows = slice(i, min(i + k, shape[0]))
        yield (rows, *(b[:rows.stop - i] for b in bufs))


def _pairwise(parts: list):
    """The sum of the chunks' partial sums, neighbours first, level by level,
    as numpy adds the halves of one array: a power-of-two grid's chunks then
    give its plain np.sum bit for bit."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1:]
    return parts[0]


def _strang(v: np.ndarray, z: np.ndarray, n: int, dt: float, steps: int, rate) -> None:
    """steps Strang steps of i u_t = -Lap u + rate(|u|^2) u on the samples v, in
    place, as N(dt/2) [L(dt) N(dt)]^(steps-1) L(dt) N(dt/2): N keeps |u|, so
    the half rotations that meet merge.  N runs over ceil(size / _CHUNK) blocks
    of first-axis rows, with two real scratch arrays of one block.  rate returns
    a real array and may overwrite its argument; it sees one block at a time,
    the whole grid up to _CHUNK entries, so past that it must be pointwise.
    v lies on the rotation grid of an n-point field (_rotation_n), where the
    free phase, zero outside the n-band, also projects out the modes the
    rotation spills there.  A dealiased grid of at most _DENSE_FREE_MAX_M
    points per axis takes L as one _propagator product per axis, each written
    into the other of v and z, so v is left as scratch; any other grid takes
    one FFT pair per step.  z is the rotation's scratch until the last forward
    transform writes the coefficients of the samples into it."""
    d, m, coefficients = v.ndim, v.shape[0], z
    p = _propagator(n, m, dt) if m != n and m <= _DENSE_FREE_MAX_M else None
    blocks = list(_chunked(v.shape, np.float64, np.float64, parts=-(-v.size // _CHUNK)))
    chunks = list(_chunked(v.shape, np.complex128)) if p is None else []
    whole = _free_phase(d, n, dt, m, out=chunks[0][1]) if len(chunks) == 1 else None
    for i in range(steps + 1 if steps else 0):
        if i and p is not None:  # p along each axis, the last first, into the other buffer
            np.matmul(v.reshape(-1, m), p.T, out=z.reshape(-1, m))
            for j in range(d - 2, -1, -1):
                v, z = z, v
                np.matmul(p, v.reshape(m**j, m, -1), out=z.reshape(m**j, m, -1))
            v, z = z, v
        elif i:
            _fftn(v, out=v)
            for rows, phase in chunks:
                v[rows] *= _free_phase(d, n, dt, m, rows, phase) if whole is None else whole
            _ifftn(v, out=v)
        for rows, a, b in blocks:
            _rotate(v[rows], rate, dt if 0 < i < steps else dt / 2.0, z[rows], a, b)
    _fftn(v, out=coefficients)
    coefficients /= v.size


def _zero_past_band(z: np.ndarray, n: int) -> None:
    """Zero the coefficients that resampling z to n points per axis drops, so z
    becomes _resampled(_resampled(z, n), len(z)): every entry with an index
    in [n/2, len(z) - n/2) on some axis."""
    h = n // 2
    for j in range(z.ndim):
        z[(slice(None),) * j + (slice(h, z.shape[j] - h),)] = 0


def _flow(g: GridSpec, c: np.ndarray, samples: np.ndarray | None, dt: float, steps: int,
          every: int, rate, dealias: bool):
    """_strang's flow of the field with n-grid coefficients c and samples (None: the
    inverse transform of c), which it takes over and writes, on the rotation grid, whose
    samples v and coefficients z it holds from start to end: yields (coefficients, v) at
    t = 0, c itself, and after each `every` of `steps` steps, valid until it resumes.
    With dealias, v is scratch at each yield, c is only read and samples is not used, and
    each interval starts from z projected to the n-band.  BlowUpError at the first
    non-finite yield."""
    z = _resampled(c, _rotation_n(g.n, dealias))
    v = np.empty_like(z) if dealias or samples is None else samples
    if not dealias and samples is None:
        _ifftn(c, out=v)
        v *= g.size
    del samples
    yield c, v
    for s in range(every, steps + 1, every):
        if dealias:
            _zero_past_band(z, g.n)
            _ifftn(z, out=v, norm="forward")
        _strang(v, z, g.n, dt, every, rate)
        c = _resampled(z, g.n)
        if not np.all(np.isfinite(c)):
            raise BlowUpError(_NON_FINITE.format(s * dt))
        yield c, v


def _advance(f: TorusField, dt: float, steps: int, rate, dealias: bool) -> TorusField:
    """f after steps Strang steps of rate: the last yield of _flow, which writes no array of f."""
    c = f.coefficients if dealias else np.array(f.coefficients)
    *_, (c, v) = _flow(f.grid, c, None if dealias else f._samples(), dt, steps, max(steps, 1),
                       rate, dealias)
    return TorusField(f.grid, c) if dealias else TorusField._from_pair(f.grid, c, v)


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
    return _advance(f, cfg.dt, steps, _quintic(cfg.b0), cfg.dealias)


def check_step_count(T: float, dt: float, snapshot_every: int = 1) -> int:
    """The number of steps T/dt: finite, >= 0 and an integer multiple of snapshot_every >= 1."""
    if not math.isfinite(T / dt):
        raise ParameterError("T", f"T/dt = {T / dt} is not a finite step count")
    if T < 0:
        raise ParameterError("T", "must be >= 0")
    if snapshot_every < 1:
        raise ParameterError("snapshot_every", "must be > 0")
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ParameterError("T", f"T={T} is not an integer multiple of dt={dt}")
    if steps % snapshot_every != 0:
        raise ParameterError("snapshot_every", f"does not divide the step count {steps}")
    return steps


def check_flow_work(steps: int, grid: GridSpec, dealias: bool) -> None:
    """The work rule: steps x rotation-grid points of a flow within MAX_POINT_STEPS."""
    if steps * _rotation_n(grid.n, dealias) ** grid.d > MAX_POINT_STEPS:
        raise ValueError(f"{float(steps):.3g} steps x grid points pass the cap {MAX_POINT_STEPS}")


def evolve(f0: TorusField, T: float, cfg: NlsConfig, snapshot_every: int = 1) -> Trajectory:
    """Advance f0 to time T, recording every snapshot_every steps (check_step_count):
    one strang_step per snapshot, its BlowUpError restated at the time of the run."""
    steps = check_step_count(T, cfg.dt, snapshot_every)
    times, states = [0.0], [f0]
    for s in range(snapshot_every, steps + 1, snapshot_every):
        try:
            states.append(strang_step(states[-1], cfg, steps=snapshot_every))
        except BlowUpError:
            raise BlowUpError(_NON_FINITE.format(s * cfg.dt)) from None
        times.append(s * cfg.dt)
    return Trajectory(np.array(times), states, cfg)


def timeseries(
    f0: TorusField,
    T: float,
    cfg: NlsConfig,
    snapshot_every: int,
    split_m: float,
    diag_ms,
    *,
    take: bool = False,
) -> list[list[float]]:
    """[t] + snapshot_row(u, split_m, diag_ms, cfg.b0) for each snapshot (t, u)
    of evolve(f0, T, cfg, snapshot_every), bit for bit, from the yields of _flow,
    which holds its samples v and coefficients z for the whole run; with dealias
    each row's samples are formed in v's memory.  f0 is copied and never
    written, unless take is set: then the run takes f0's own coefficient array
    and cached samples and writes them, so the caller must hold no other
    reference to f0."""
    steps = check_step_count(T, cfg.dt, snapshot_every)
    g = f0.grid
    c, samples = f0._take() if take else (np.array(f0.coefficients), f0._samples())
    del f0
    flow = _flow(g, c, samples, cfg.dt, steps, snapshot_every, _quintic(cfg.b0), cfg.dealias)
    rows = []
    for i, (c, v) in enumerate(flow):
        if cfg.dealias:  # the row's samples in v's memory, the datum's own at t = 0
            head = v.reshape(-1)[:g.size].reshape(g.shape)
            v = TorusField._from_pair(g, c, samples)._samples(head)
        samples = None
        rows.append([i * snapshot_every * cfg.dt] + _row(g, c, v, split_m, diag_ms, cfg.b0))
    return rows


def plane_wave_solution(grid: GridSpec, xi, amplitude: float, b0: float, t: float) -> TorusField:
    """Exact solution A exp(i(xi.x - w t)) with w = |xi|^2 + b0 A^4."""
    xi = (xi,) if isinstance(xi, int) else tuple(xi)
    omega = float(sum(x * x for x in xi)) + b0 * amplitude**4
    return TorusField.plane_wave(grid, xi, amplitude * np.exp(-1j * omega * t))


# -- conserved quantities and the low/high energy split ------------------


def _energy(g: GridSpec, z: np.ndarray, v: np.ndarray, b0: float,
            wheres=lambda rows: ()) -> tuple[float, list[float]]:
    """E of the field with coefficients z and samples v, and its kinetic
    energy over each mask that wheres(rows) gives for a chunk's rows; |v|^6
    is summed as (|v|^2)^3."""
    parts = []
    for rows, w, t in _chunked(g.shape, np.float64, np.float64):
        np.square(z[rows].real, out=w)
        w += np.square(z[rows].imag, out=t)
        x = _freq_components(g.d, g.n)[0][rows]  # |xi|^2 is an integer: exact in any order
        w *= np.add(x * x, _xi_squared(g.d - 1, g.n) if g.d > 1 else 0, out=t)
        sums = [np.sum(w, where=mask) for mask in wheres(rows)] + [np.sum(w)]
        s = np.square(v[rows].real, out=w)
        s += np.square(v[rows].imag, out=t)
        parts.append(np.array(sums + [np.vdot(s, np.multiply(s, s, out=t))]))
    *masked, kinetic, sextic = _pairwise(parts)
    e = g.volume * float(kinetic) + b0 / 3.0 * g.cell_volume * float(sextic)
    return e, [g.volume * float(k) for k in masked]


def energy_nls(f: TorusField, b0: float) -> float:
    """E(phi) = int |grad phi|^2 + (b0/3) int |phi|^6.

    Gradient term spectral, sextic term by grid quadrature; snapshot_row's
    E_NLS is the same sum, bit for bit.
    """
    return _energy(f.grid, f.coefficients, f.values, b0)[0]


def _halves(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The memory of the contiguous complex array c as two real arrays of its shape."""
    flat = c.reshape(-1).view(np.float64)
    return flat[:c.size].reshape(c.shape), flat[c.size:].reshape(c.shape)


def _sextic_sums(g: GridSpec, z: np.ndarray, v: np.ndarray, low: np.ndarray) -> tuple[float, float]:
    """Grid sums of the low and high parts of |phi|^6 at the sharp cutoff
    whose mask is `low`, for the field phi with coefficients z and samples
    v; phi_L costs one inverse transform, in place in z, and phi_H = phi -
    phi_L is formed chunk by chunk.

    With a = |phi_L|^2, r = 2 Re conj(phi_L) phi_H and h = |phi_H|^2,
    |phi|^2 = a + r + h.  Counting r as one high-frequency factor and h as
    two, the terms of (a + r + h)^3 with at most two of them are the low part

        a^3 + 3 a^2 r + 3 a^2 h + 3 a r^2 = a (a (a + 3q) + 3 r^2),   q = r + h,

    and the rest the high part

        h (6ar + 3ah + 3r^2 + 3rh + h^2) + r^3 = h (3a (r + q) + 3rq + h^2) + r^3.
    """
    z *= low
    _ifftn(z, out=z)
    z *= g.size
    parts = []
    for rows, vh, r, a in _chunked(g.shape, np.complex128, np.float64, np.float64):
        vl = z[rows]
        np.subtract(v[rows], vl, out=vh)
        np.multiply(vl.real, vh.real, out=r)
        np.multiply(vl.imag, vh.imag, out=a)  # a scratch here, |phi_L|^2 below
        r += a
        r *= 2.0
        np.square(vl.real, out=a)
        a += np.square(vl.imag, out=vl.imag)
        h, q, x, y = _halves(vl) + _halves(vh)  # phi_L's, then phi_H's memory, each past its use
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
        parts.append(np.array([sextic_low, np.vdot(h, high_part) + r3]))
    sextic_low, sextic_high = _pairwise(parts)
    return float(sextic_low), float(sextic_high)


def _row(g: GridSpec, z: np.ndarray, v: np.ndarray, split_m: float, diag_ms,
         b0: float) -> list[float]:
    """snapshot_row of the field with coefficients z and samples v; z is
    overwritten by _sextic_sums, after the mass and kinetic sums read it."""
    for m in (split_m, *diag_ms):
        check_cutoff(m)
    low, *highs = (_mask_leq(g.d, g.n, m) for m in (split_m, *diag_ms))
    mass = _pairwise([np.sum(np.square(np.abs(z[rows], out=a), out=a))
                      for rows, a in _chunked(g.shape, np.float64)])
    e, (k_low, k_high, *high_kinetic) = _energy(
        g, z, v, b0, lambda rows: [low[rows], ~low[rows]] + [~mask[rows] for mask in highs])
    sextic_low, sextic_high = _sextic_sums(g, z, v, low)
    c = b0 / 3.0 * g.cell_volume
    e_low, e_high = k_low + c * sextic_low, k_high + c * sextic_high
    if abs(e_low) <= abs(e_high):
        e_high = e - e_low
    else:
        e_low = e - e_high
    return [float(np.sqrt(g.volume * mass)), e, e_low, e_high] + high_kinetic


def snapshot_row(f: TorusField, split_m: float, diag_ms, b0: float) -> list[float]:
    """[mass, E_NLS, E_L, E_H] and ||P_{>M} grad f||^2 for each M of diag_ms.

    Of E_L and E_H, the one of smaller size is summed directly and the other
    is E minus it: so each keeps its relative accuracy when its band is
    nearly empty, and E_L + E_H = E to the rounding of one subtraction.
    """
    return _row(f.grid, np.array(f.coefficients), f.values, split_m, diag_ms, b0)


def energy_split(f: TorusField, m: float, b0: float) -> tuple[float, float]:
    """(E_L, E_H) at the cutoff m, as snapshot_row gives them: E_L is
    ||grad phi_L||^2 plus the sextic terms with at most two high-frequency
    factors (_sextic_sums), E_H the rest."""
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
