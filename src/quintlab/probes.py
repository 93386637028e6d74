"""Empirical-constant measurement for the inequality lemmas.

Each probe evaluates the ratio (left side)/(right side) of one estimate on
concrete fields, by spectral evaluation in space and trapezoid quadrature in
time.  Probes return 0 on zero inputs or a zero right side, and are
homogeneous of degree zero under rescaling of all their field arguments.
Each lemma's probe (PROBE_RUNNERS) samples one ratio over random fields.  Its
keyword parameters, annotated with their JSON types, are the options of a
probe config; up to its first yield it passes each parameter tuple and the
widest band of its random data to its lemma's `_<lemma>_grid`, which its ratio
calls too: the lemma's checks, then its evaluation grid charged to the memory
budget.  `run_probe` runs one to its report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .grids import (
    FrequencyCube,
    GridSpec,
    ParameterError,
    TorusField,
    _dot,
    _fftn,
    _wrapped_relative_coords,
    _xi_squared,
    apply_S,
    check_cutoff,
    check_entries,
    convolve,
    cube_project,
    dyadic_project,
    project_gt,
    project_leq,
    project_lt,
    sobolev_norm,
)
# free_propagate is unused here; perfbench's tracing test asserts it is bound to nls.free_propagate
from .nls import _free_product, _paired, free_propagate, free_sample  # noqa: F401

_MAX_PROBE_WORK = 2**28  # _check_probe_work: 1.2 times the default bilinear probe, the largest
_GRID_FLOOR = 2**13  # _grid_work: the fewest points a grid counts
_DRAW_COST = 3  # _grid_work: what a drawn field point counts, in evaluated points


def _trapezoid_times(T: float, nt: int) -> tuple[np.ndarray, np.ndarray]:
    ts = np.linspace(0.0, T, nt)
    w = np.full(nt, T / (nt - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return ts, w


def _free_product_integral(fields: list[TorusField], T: float, nt: int, n: int,
                           integrand) -> float:
    """The trapezoid sum over nt times in [0, T] of integrand(v), with v the
    samples on the (n, n, n) grid of the product of the fields' free evolutions.

    v is one complex grid, which integrand may overwrite; a second one, only
    for more than one field, takes each further factor's samples.  Each field
    is paired (nls._paired), and the synthesis's stage buffers are allocated, once."""
    ts, w = _trapezoid_times(T, nt)
    factors, stages = [_paired(f) for f in fields], {}
    v = np.empty((n,) * 3, dtype=np.complex128)
    buf = np.empty_like(v) if len(fields) > 1 else None
    acc = 0.0
    for t, wt in zip(ts, w):
        acc += wt * integrand(_free_product(factors, t, n, v, buf, stages))
    return acc


def _next_even(x: float) -> int:
    """The smallest even 11-smooth integer >= x, a fast FFT length."""
    n = 2 * max(1, int(np.ceil(x / 2)))
    while pow(2310, n.bit_length(), n):  # n is 11-smooth iff it divides 2310^(bit length of n)
        n += 2
    return n


def _label_extent(f: TorusField) -> tuple[int, int]:
    """The least and the largest per-axis label of a nonzero coefficient, each taken with 0."""
    nz, d = f.coefficients != 0, f.grid.d
    labels = np.concatenate([f.grid.axis_frequencies()[nz.any(axis=tuple(set(range(d)) - {j}))]
                             for j in range(d)])
    return int(labels.min(initial=0)), int(labels.max(initial=0))


def _field_band(f: TorusField) -> int:
    """Largest per-axis |xi| carrying a nonzero coefficient."""
    lo, hi = _label_extent(f)
    return max(hi, -lo)


def _exact_grid(band: float, power: int, floor_n: int) -> int:
    """The fewest points per axis (at least floor_n and 4, of any parity) on which the grid
    sum of a product of `power` factors of per-axis band `band` is its exact integral."""
    return max(4, floor_n, math.floor(power * band) + 1)


def _band_grid(f: TorusField) -> TorusField:
    """f on the (2h)^d grid of labels -h..h-1, h = max(hi + 1, -lo, 2) for its labels lo..hi:
    its FFT layout is the coefficient cube, and each mode keeps its label."""
    lo, hi = _label_extent(f)
    return f.resample(2 * max(hi + 1, -lo, 2))


def _grid_work(nt: int, grids: list[tuple[int, int]]) -> int:
    """A 3-D probe's work per sample, summed over its parameter tuples' (evaluation-grid
    points, points of the fields a sample draws): nt x the first (nt = 1 without a time
    quadrature) + _DRAW_COST x the second, each at least _GRID_FLOOR, as a sample's draws,
    projections and set-up and each time's own overhead cost about that on any grid."""
    return sum(nt * max(p, _GRID_FLOOR) + _DRAW_COST * max(q, _GRID_FLOOR) for p, q in grids)


def _check_probe_work(samples: int, work: int) -> None:
    """The sample and work rules: at least one sample per parameter tuple, and samples x
    the work of one sample (_grid_work) within _MAX_PROBE_WORK."""
    if not samples >= 1:
        raise ParameterError("samples", f"samples must be >= 1, got {samples}")
    if samples * work > _MAX_PROBE_WORK:
        raise ParameterError("samples", f"{float(samples * work):.3g} samples x times x grid "
                             f"points pass the cap {_MAX_PROBE_WORK}")


def check_time_window(T: float, nt: int, min_nt: int = 2) -> None:
    """A time quadrature on [0, T] needs T >= 0, at least min_nt points and
    its times and weights, two arrays of nt, charged."""
    if not T >= 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if nt < min_nt:
        raise ValueError(f"use at least {min_nt} time-quadrature points")
    check_entries("the time-quadrature times and weights", 2 * nt)


def _strichartz_grid(m: float, p: float, T: float, nt: int, band: int) -> int:
    """strichartz_ratio's rule, a cutoff m > 0, p > 10/3, T >= 0 and nt >= 32, and its
    evaluation grid for a datum of this band, charged: exact for |v|^p at even p <= 8
    (p is capped at 8) and at least the datum's band grid."""
    check_cutoff(m)
    if p <= 10.0 / 3.0:
        raise ValueError("requires p > 10/3")
    check_time_window(T, nt, 32)
    n = _exact_grid(band, int(np.ceil(min(p, 8.0))), max(8, 2 * band + 2))
    check_entries("the strichartz evaluation grid", n**3)
    return n


def _bilinear_grid(m1: float, m2: float, delta: float, T: float, nt: int, n: int) -> int:
    """bilinear_strichartz_ratio's rule, dyadic levels 2 <= m2 <= m1, 0 < delta <= 1/22,
    T >= 0 and nt >= 2, and its evaluation grid for fields on n points per axis,
    charged: exact for |u1 u2|^2; two buffers of it are held."""
    if m2 > m1:
        raise ValueError("requires m2 <= m1")
    if m2 < 2:
        raise ValueError("dyadic projection is defined for M >= 2")
    if not 0.0 < delta <= 1.0 / 22.0:
        raise ValueError("delta must lie in (0, 1/22]")
    check_time_window(T, nt)
    n_eval = _exact_grid(m1 + m2, 2, n)
    check_entries("the bilinear evaluation buffers", 2 * n_eval**3)
    return n_eval


def _refined_sobolev_grid(m: float, r: float, which: int, band: int) -> int:
    """refined_sobolev_ratio's rule, cutoffs 0 < m <= r and which in 1, 2, 3, and its
    evaluation grid for a datum of this band, charged: exact for the sextic."""
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2 or 3")
    check_cutoff(m)
    if r < m:
        raise ValueError("requires r >= m")
    n = _exact_grid(band, 6, 8)
    check_entries("the refined-Sobolev evaluation grid", n**3)
    return n


MULTILINEAR_VARIANTS = ("MLFL1", "MLFL2", "Old1", "Old2")


def _multilinear_grid(variant: str, m0: float, T: float, nt: int, band: int) -> int:
    """multilinear_ratio's rule, a variant in MULTILINEAR_VARIANTS, T >= 0 and nt >= 2,
    and m0 > 0 for the MLFL variants, which split at m0; and its evaluation grid for
    factors of this band, charged: an FFT length on which the quintic product is
    alias-free; two buffers of it are held."""
    if variant not in MULTILINEAR_VARIANTS:
        raise ValueError(f"variant must be one of {MULTILINEAR_VARIANTS}")
    if variant.startswith("MLFL") and not m0 > 0:
        raise ValueError(f"m0 must be > 0, got {m0}")
    check_time_window(T, nt)
    n = max(4, _next_even(10 * band + 2))
    check_entries("the multilinear evaluation buffers", 2 * n**3)
    return n


def check_alphas(alphas: list[float], grid: GridSpec) -> None:
    """approx_identity_rate resolves a mollifier scale alpha only at >= 4 grid spacings."""
    for a in alphas:
        if a < 4.0 * grid.dx:
            raise ValueError(f"alpha={a} is under-resolved (grid spacing {grid.dx:.3g})")


def strichartz_ratio(
    f: TorusField,
    m: float,
    p: float,
    T: float,
    nt: int = 64,
    cube: FrequencyCube | None = None,
) -> float:
    """Space-time L^p mass of a frequency-localized free evolution against
    M^(3/2 - 5/p) times the localized datum's L^2 norm.

    Requires d = 3 (the exponent is dimension-specific) and p > 10/3 (the
    bound fails at and below that exponent).  A frequency cube may replace
    the centred cutoff; the Galilean shift leaves the ratio invariant.
    """
    if f.grid.d != 3:
        raise ValueError("the exponent 3/2 - 5/p is specific to d = 3")
    g = cube_project(f, cube) if cube is not None else project_leq(f, m)
    n_eval = _strichartz_grid(m, p, T, nt, _field_band(g))
    denom = g.l2_norm()
    if denom == 0.0:
        return 0.0
    r = np.empty((n_eval,) * 3)

    def lp_mass(v):  # sum |v|^p = sum (|v|^(p/2))^2, one pass
        nonlocal r
        np.square(v.real, out=r)
        r += np.square(v.imag, out=v.imag)
        if p != 4.0:
            r **= p / 4.0
        return _dot(r, r)

    acc = _free_product_integral([_band_grid(g)], T, nt, n_eval, lp_mass)
    lhs = (acc * (2.0 * np.pi / n_eval) ** 3) ** (1.0 / p)
    return lhs / (m ** (1.5 - 5.0 / p) * denom)


def bilinear_strichartz_ratio(
    f1: TorusField,
    f2: TorusField,
    m1: float,
    m2: float,
    delta: float,
    T: float,
    nt: int = 64,
) -> float:
    """Space-time L^2 mass of a product of two shell-localized free
    evolutions against M2^(1/2) (M2/M1 + 1/M2)^delta times the datum norms.
    Requires d = 3, where the estimate and its sample grid live.
    """
    for f in (f1, f2):
        if f.grid.d != 3:
            raise ValueError(f"the bilinear estimate is specific to d = 3, got d = {f.grid.d}")
    n_eval = _bilinear_grid(m1, m2, delta, T, nt, f1.grid.n)
    u1 = dyadic_project(f1, m1)
    u2 = dyadic_project(f2, m2)
    n1, n2 = u1.l2_norm(), u2.l2_norm()
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    # discrete Parseval: the product's L2 norm from its samples, no transform
    acc = _free_product_integral([_band_grid(u1), _band_grid(u2)], T, nt, n_eval,
                                 lambda v: _dot(v, v))
    lhs = np.sqrt(acc * (2.0 * np.pi / n_eval) ** 3)
    rhs = np.sqrt(m2) * (m2 / m1 + 1.0 / m2) ** delta * n1 * n2
    return float(lhs / rhs)


def refined_sobolev_ratio(phi: TorusField, m: float, r: float, which: int) -> float:
    """Sextic high/low pairing against the gradient-split right side.

    which = 1, 2, 3 pairs (P_H phi)^(6-w) with (P_L phi)^w for w = 4 - which,
    and divides by g_all^w (g_mid^2 g_high^(4-w) + (M/R)^(w/2) g_high^(6-w)),
    with g_all = ||grad phi||, g_high = ||grad P_H phi|| and g_mid the
    intermediate-band gradient norm ||grad P_{<R} P_H phi||.
    """
    n_eval = _refined_sobolev_grid(m, r, which, _field_band(phi))
    w = 4 - which  # the power of the low part
    ph = project_gt(phi, m)
    pl = project_leq(phi, m)
    if ph.l2_norm() == 0.0:
        return 0.0
    vh = free_sample(_band_grid(ph), 0.0, n_eval)
    vl = free_sample(_band_grid(pl), 0.0, n_eval)
    prod = vl.copy()  # repeated products: np.power is several times slower on complex arrays
    for v in [vl] * (w - 1) + [vh] * (6 - w):
        prod *= v
    cell = (2 * np.pi / n_eval) ** phi.grid.d
    lhs = abs(np.sum(prod) * cell)
    g_all = np.sqrt(phi.gradient_l2_sq())
    g_high = np.sqrt(ph.gradient_l2_sq())
    g_mid = np.sqrt(project_lt(ph, r).gradient_l2_sq())
    rhs = g_all**w * (g_mid**2 * g_high ** (4 - w) + (m / r) ** (w / 2) * g_high ** (6 - w))
    if rhs == 0.0:
        return 0.0
    return float(lhs / rhs)


def multilinear_ratio(
    fs: list[TorusField],
    m0: float,
    T: float,
    variant: str,
    nt: int = 32,
) -> float:
    """Quintic product of free evolutions in L^1_T H^s against the
    frequency-split right side.

    MLFL1/Old1 measure the product in H^(-1) and put the first factor in
    H^(-1); MLFL2/Old2 measure in H^1 with all factors in H^1.  The MLFL
    variants split their first H^1 factor at m0 with the weight
    T^(5/22) m0^(5/11) on the low part; the Old variants are the m0 = 0
    reductions.
    """
    if len(fs) != 5:
        raise ValueError("need exactly five fields")
    if any(f.grid.d != 3 for f in fs):
        raise ValueError("the exponents are specific to d = 3")
    fine = GridSpec(3, _multilinear_grid(variant, m0, T, nt, max(map(_field_band, fs))))
    s_out = -1.0 if variant.endswith("1") else 1.0
    norms = [sobolev_norm(fs[0], s_out)] + [sobolev_norm(f, 1.0) for f in fs[1:]]
    if variant.startswith("MLFL"):
        j = 1 if s_out < 0 else 0  # the first factor in H^1
        norms[j] = (T ** (5.0 / 22.0) * m0 ** (5.0 / 11.0) * norms[j]
                    + project_gt(apply_S(fs[j], 1.0), m0).l2_norm())
    rhs = math.prod(norms)
    if rhs == 0.0:  # a zero field, or an MLFL variant at T = 0 on fields within m0
        return 0.0
    # sobolev_norm of the product's field: the unnormalized transform of its samples
    # times the square root of the H^s weight, in place, then one pass
    root = (1.0 + _xi_squared(3, fine.n)) ** (s_out / 2.0) * (np.sqrt(fine.volume) / fine.size)

    def hs_norm(v):
        np.multiply(_fftn(v, out=v), root, out=v)
        return np.sqrt(_dot(v, v))

    # free evolution keeps each mode's label, so it commutes with resampling
    acc = _free_product_integral([_band_grid(f) for f in fs], T, nt, fine.n, hs_norm)
    return float(acc / rhs)


def approx_identity_rate(phi: TorusField, alphas: list[float]) -> dict:
    """Fit the decay exponent of the smoothing error of a two-variable
    approximate identity tested against a factorized three-particle state.

    The mollifier is a product bump rho_alpha(u, v) = b_alpha(u) b_alpha(v)
    of exact unit grid mass, so the error at scale alpha is

        err(alpha) = | int conj(J phi) phi [ (b_alpha * |phi|^2)^2 - |phi|^4 ] dx |

    with J = <grad>^-2 a fixed smoothing observable.  Returns the
    least-squares slope of log err against log alpha (expected >= 1/2 for
    H^1 data; smoother data decays faster) together with the error table.
    """
    grid = phi.grid
    check_alphas(alphas, grid)
    if phi.l2_norm() == 0.0:
        return {"slope": 0.0, "alphas": list(alphas), "errors": [0.0] * len(alphas)}
    psi = apply_S(phi, -2.0)  # J phi
    dens = TorusField.from_values(grid, np.abs(phi.values) ** 2)
    weight = (np.conj(psi.values) * phi.values).reshape(-1)
    errors = []
    r2 = sum(c**2 for c in _wrapped_relative_coords(grid).T).reshape(grid.shape)
    for a in alphas:
        bump = np.where(np.sqrt(r2) <= a, np.exp(-r2 / (2.0 * (a / 2.0) ** 2)), 0.0)
        bump_field = TorusField.from_values(grid, bump)
        mass = float(np.real(bump_field.coefficients[(0,) * grid.d])) * grid.volume
        bump_field = bump_field * (1.0 / mass)  # exact unit grid mass
        smoothed = convolve(bump_field, dens)
        g = smoothed.values.reshape(-1)
        err = abs(
            np.sum(weight * (g**2 - (np.abs(phi.values.reshape(-1)) ** 2) ** 2))
            * grid.cell_volume
        )
        errors.append(float(err))
    scale = phi.l2_norm() ** 6
    if len(alphas) < 2 or max(errors) <= 1e-14 * scale:
        return {"slope": 0.0, "alphas": list(alphas), "errors": errors}
    logs = np.log(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(np.log(alphas), logs, 1)[0])
    return {"slope": slope, "alphas": list(alphas), "errors": errors}


# -- sampling drivers -------------------------------------------------------


@dataclass
class ProbeReport:
    lemma_id: str
    samples: int
    seed: int
    parameter_grid: list[tuple]
    ratio_table: dict[str, float] = field(default_factory=dict)
    max_ratio: float = 0.0
    half_max_ratio: float = 0.0

    @property
    def stability_factor(self) -> float:
        """Growth of the running maximum from half to full sample count (an
        unbounded constant would keep growing)."""
        if self.half_max_ratio == 0.0:
            return 1.0
        return self.max_ratio / self.half_max_ratio

    def to_dict(self) -> dict:
        return {**asdict(self), "stability_factor": self.stability_factor}


def _collect(lemma_id, seed, samples, grid_tuples, ratio_fn) -> ProbeReport:
    report = ProbeReport(lemma_id, samples, seed, grid_tuples)
    overall = []
    for idx, tup in enumerate(grid_tuples):
        rng = np.random.default_rng([seed, idx])
        vals = [ratio_fn(rng, *tup) for _ in range(samples)]
        report.ratio_table[str(tup)] = max(vals)
        overall.append(vals)
    per_sample = [max(col) for col in zip(*overall)] if overall else []
    running = np.maximum.accumulate(per_sample) if per_sample else [0.0]
    report.max_ratio = float(running[-1])
    report.half_max_ratio = float(running[max(len(running) // 2 - 1, 0)])
    return report


def _strichartz_probe(seed: int, /, *, samples: int = 100, ms: list[float] = (2, 4, 8),
                      p: float = 4.0, T: float = 1.0, nt: int = 40, n: int = 16):
    grid = GridSpec(3, n)
    sides = [_strichartz_grid(m, p, T, nt, min(int(m), grid.nyquist)) for m in ms]
    _check_probe_work(samples, _grid_work(nt, [(s**3, grid.size) for s in sides]))
    yield

    def fn(rng, m):
        f = TorusField.random_band_limited(grid, grid.nyquist, rng)
        return strichartz_ratio(f, m, p, T, nt)

    yield _collect("strichartz_t3", seed, samples, [(m,) for m in ms], fn)


def _bilinear_probe(seed: int, /, *, samples: int = 12, m1s: list[float] = (4, 8, 16, 32),
                    m2: float = 4, delta: float = 0.02, T: float = 1.0, nt: int = 33, n: int = 16):
    grids, points = {}, []
    for m1 in m1s:  # the field grid at shell m1: at least n, and holding the shell
        side = max(n, 2 * m1 + 4)
        # charged before the 11-smooth search; a side past 2^24 is over budget, and its cube finite
        check_entries("field grid", min(side, 2**24) ** 3)
        grids[m1] = GridSpec(3, _next_even(side))
        points.append((_bilinear_grid(m1, m2, delta, T, nt, grids[m1].n) ** 3, 2 * grids[m1].size))
    _check_probe_work(samples, _grid_work(nt, points))
    yield

    def fn(rng, m1):
        g = grids[m1]
        f1, f2 = (TorusField.random_band_limited(g, g.nyquist, rng) for _ in range(2))
        return bilinear_strichartz_ratio(f1, f2, m1, m2, delta, T, nt)

    yield _collect("bilinear_strichartz_t3", seed, samples, [(m1,) for m1 in m1s], fn)


def _refined_sobolev_probe(seed: int, /, *, samples: int = 40, ms: list[float] = (4, 8),
                           rs: list[float] = (16, 32), which: int = 3, n: int = 32, band: int = 12):
    grid = GridSpec(3, n)
    grid_tuples = [(m, r) for m in ms for r in rs]
    sides = [_refined_sobolev_grid(m, r, which, min(band, grid.nyquist)) for m, r in grid_tuples]
    _check_probe_work(samples, _grid_work(1, [(s**3, grid.size) for s in sides]))
    yield

    def fn(rng, m, r):
        f = TorusField.random_band_limited(grid, band, rng, decay=1.0)
        return refined_sobolev_ratio(f, m, r, which)

    yield _collect(f"refined_sobolev_{which}", seed, samples, grid_tuples, fn)


def _multilinear_probe(seed: int, /, *, samples: int = 50, variant: str = "Old1",
                       m0: float = 4.0, T: float = 1.0, nt: int = 32, n: int = 8):
    grid = GridSpec(3, n)
    band = max(2, n // 4)  # at most the Nyquist mode, as n >= 4
    _check_probe_work(samples, _grid_work(nt, [(_multilinear_grid(variant, m0, T, nt, band) ** 3,
                                                5 * grid.size)]))
    yield

    def fn(rng, _):
        fields = [TorusField.random_band_limited(grid, band, rng) for _ in range(5)]
        return multilinear_ratio(fields, m0, T, variant, nt)

    yield _collect(f"multilinear_{variant}", seed, samples, [(variant,)], fn)


def _approx_identity_probe(seed: int, /, *, samples: int = 20, n: int = 512, band: int = 40,
                           alphas: list[float] = (0.25, 0.125, 0.0625)):
    grid = GridSpec(1, n)
    check_alphas(alphas, grid)
    # a 1-D point counts 16, as it costs more than a 3-D one, and a grid at least 1,024 points
    _check_probe_work(samples, 16 * len(alphas) * max(n, 1024))
    yield

    def fn(rng, *_):
        f = TorusField.random_band_limited(grid, band, rng, decay=1.5)
        f = f * (1.0 / f.l2_norm())
        return approx_identity_rate(f, list(alphas))["slope"]

    yield _collect("approx_identity", seed, samples, [tuple(alphas)], fn)


PROBE_RUNNERS = {
    "strichartz": _strichartz_probe,
    "bilinear": _bilinear_probe,
    "refined_sobolev": _refined_sobolev_probe,
    "multilinear": _multilinear_probe,
    "approx_identity": _approx_identity_probe,
}


def probe_runner(lemma: str):
    """The probe of `lemma`, a key of PROBE_RUNNERS."""
    if lemma not in PROBE_RUNNERS:
        raise ValueError(f"must be one of {sorted(PROBE_RUNNERS)}")
    return PROBE_RUNNERS[lemma]


def run_probe(lemma: str, seed: int = 0, **options) -> ProbeReport:
    """The probe of `lemma` run to its report; a bad option raises before any sample."""
    probe = probe_runner(lemma)(seed, **options)
    next(probe)  # the checks
    return next(probe)
