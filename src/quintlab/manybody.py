"""Exact few-body bosonic dynamics on a torus grid with a rescaled
three-body interaction.

The Hamiltonian is

    H = sum_j (-Lap_j) + (1/N^2) sum_{i<j<k} V_scaled(x_i, x_j, x_k)

where V_scaled is the periodic extension of N^(2 d beta) V(N^beta u, N^beta v)
in the relative coordinates, symmetrised over the choice of centre particle so
that H maps the bosonic sector to itself.  V is a product kappa g(|u|) g(|v|),
tabulated as one (n^d)-vector (build_potential); the diagonal and the Hartree rate
come from one (n^d)^2 pair table (_pair_table).  A BosonicState is its sector
vector (see the bosonic sector below), and every run path works on that
vector, marginals, the hierarchy right side and the Sobolev weights included;
only amps and random_symmetric form the dense tensor over (grid)^N (check_budget),
and dump_state and a state file stream it by slab (_slabs, check_file_budget).
propagate sums one Chebyshev series of exp(-i t H) over H's a-priori interval
[0, 2 r] (_radius_bound), one three-term recurrence of H-applies for every requested time.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    GridSpec, ParameterError, TorusField, _abs2, _dot, _fftn, _ifftn,
    _wrapped_relative_coords, _xi_squared, check_entries,
)

_DENSE_KINETIC_MAX_N = 96  # _kinetic's route: a dense matrix on axes up to this length
_SERIES_TOL = 1e-11  # propagate's target for each series' tail, relative to ||psi||
_MAX_APPLY_WORK = 2**31  # check_run_budget's work rule: 1.5 times budget_peaks' 150-time row


class UnderResolvedError(ParameterError):
    """The rescaled interaction is narrower than the grid can represent."""

    def __init__(self, message: str):
        super().__init__("beta", message)


class PropagationToleranceError(RuntimeError):
    pass


def _bump(r2: np.ndarray, radius: float) -> np.ndarray:
    """Classic mollifier factor exp(1 - 1/(1 - (r/radius)^2)) inside the ball,
    zero outside; C-infinity with compact support, equal to 1 at r = 0."""
    out = np.zeros_like(r2, dtype=np.float64)
    s = r2 / radius**2
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
    return out


@dataclass(frozen=True)
class GaussianPotential:
    """Smoothly truncated Gaussian product profile on R^d x R^d:

        V(u, v) = c * g(|u|) g(|v|),  g(r) = exp(-r^2 / (2 sigma^2)) bump(r)

    where bump is a mollifier vanishing to all orders at r = 3 sigma, so V is
    genuinely smooth and compactly supported.  c defaults to the value making
    the continuum mass integral V du dv equal to one.  Symmetric in (u, v)
    and nonnegative by construction; build_potential tabulates kappa = c and g.
    """

    sigma: float = 0.5
    amplitude: float | None = None

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterError("potential", f"sigma must be > 0, got {self.sigma}")
        if self.amplitude is not None and not self.amplitude >= 0:
            raise ParameterError(
                "potential", f"amplitude must be >= 0 (defocusing), got {self.amplitude}"
            )

    @property
    def support_radius(self) -> float:
        return 3.0 * self.sigma

    def _radial(self, r2: np.ndarray) -> np.ndarray:
        return np.exp(-r2 / (2.0 * self.sigma**2)) * _bump(r2, self.support_radius)

    def ball_integral(self, d: int) -> float:
        """integral over R^d of the radial factor (_ball_integrals)."""
        return _ball_integrals(self.sigma)[d - 1]

    def normalization(self, d: int) -> float:
        if self.amplitude is not None:
            return self.amplitude
        return 1.0 / self.ball_integral(d) ** 2


@functools.cache
def _ball_integrals(sigma: float) -> tuple[float, float, float]:
    """The integrals over R^d, d = 1, 2, 3, of GaussianPotential(sigma)'s radial factor, by
    the 128-point Gauss-Legendre rule in r on [0, 3 sigma], where V is flat: one rule per
    sigma, memoized, as every normalization reads it."""
    pot = GaussianPotential(sigma)
    x, w = np.polynomial.legendre.leggauss(128)
    r = 0.5 * pot.support_radius * (x + 1.0)
    radial = pot._radial(r * r)
    return tuple(float(0.5 * pot.support_radius * surface * (w @ (r ** (d - 1) * radial)))
                 for d, surface in ((1, 2.0), (2, 2.0 * np.pi), (3, 4.0 * np.pi)))


@dataclass(frozen=True)
class ConstantPotential:
    """V identically equal to a constant on the torus (test fixture; already
    periodic, so no rescaling or lattice sum applies): kappa = value, g = 1."""

    value: float = 1.0

    def __post_init__(self):
        if not self.value >= 0:
            raise ParameterError("potential", f"value must be >= 0 (defocusing), got {self.value}")


@dataclass(frozen=True)
class ManyBodyConfig:
    grid: GridSpec
    N: int
    beta: float
    potential: GaussianPotential | ConstantPotential = field(default_factory=GaussianPotential)

    def __post_init__(self):
        if self.N < 1:
            raise ParameterError("N", "particle count must be >= 1")
        if self.beta < 0:
            raise ParameterError("beta", "beta must be nonnegative")
        if isinstance(self.potential, GaussianPotential):
            # N ** -beta underflows to 0 where N ** beta would overflow
            radius = self.potential.support_radius * float(self.N) ** -self.beta
            if radius < self.grid.dx / 2.0:
                raise UnderResolvedError(
                    f"rescaled support radius {radius:.3g} is below "
                    f"half a grid spacing {self.grid.dx / 2.0:.3g}"
                )
        if self.N > 20:  # the sector's occupation factorials, up to N!, fit in int64
            raise ParameterError("N", f"particle count must be <= 20, got {self.N}")

    @property
    def state_shape(self) -> tuple[int, ...]:
        return self.grid.shape * self.N

    def check_budget(self):
        """Caps the two that hold the full tensor, (n^d)^N entries: amps and
        random_symmetric, whose draws take a tensor and a half of scratch."""
        check_entries("state tensor and scratch", 5 * self.grid.size**self.N // 2)

    def check_file_budget(self):
        """The file rule of the paths that stream the full tensor by slab (_slabs):
        its (n^d)^N entries, which, as n^d >= 4, bound their tables and scratch."""
        check_entries("state file", self.grid.size**self.N, "N")

    def check_run_budget(self, times: Sequence[float], applies: int = 0):
        """All that every run to `times` holds at once: the (n^d)^2 interaction
        table, the sector tables with their scratch (see _sector_entries), which
        its energies build even at t = 0, and, when a time is > 0, propagate's
        series: the state, T_{k-1}, T_k, T_{k+1} and a product's temporary, and per
        distinct time s > 0 a sector vector and K + 1 coefficients, K = _table_degree
        of s r, r the _radius_bound that _propagate sums over, capped at _SERIES_TOL's
        rounding floor (past it _propagate raises first), with the FFT of the largest table,
        4 K.  Tables that break the budget alone name N; else the total names its
        caller's key, as does the work rule: the summed K and `applies` further
        H-applies (energy moments), each m p gathered entries, within _MAX_APPLY_WORK.
        No full tensor: see check_budget and check_file_budget."""
        m = self.grid.size
        check_entries("interaction table", m**2, "N")
        later, tables = {float(t) for t in times if t > 0}, _sector_entries(self)
        check_entries("sector tables", tables, "N")
        floor, radius = _SERIES_TOL / np.finfo(np.float64).eps, _radius_bound(self)
        degrees = [_table_degree(np.fmin(s * radius, floor)) for s in later]
        work = (sum(degrees) + applies) * m * _sector_dim(m, self.N - 1)
        if work > _MAX_APPLY_WORK:
            raise ValueError(f"{float(work):.3g} H-apply entries pass the cap {_MAX_APPLY_WORK}")
        if later:
            vectors = (5 + len(later)) * _sector_dim(m, self.N)
            check_entries("Chebyshev recurrence, coefficients, returned states and sector tables",
                          vectors + sum(degrees) + len(degrees) + 4 * max(degrees) + tables)

    def check_factor_budget(self, k: int, factors: int, marginals: int = 0):
        """What a k-particle quantity of a state forms beside the run: `factors` arrays of
        B_k's shape (_annihilate; at k = N a full tensor) and `marginals` (m^k)^2 matrices."""
        m = self.grid.size
        check_entries(f"{k}-particle factors ({factors}) and {k}-marginals ({marginals})",
                      factors * m**k * _sector_dim(m, self.N - k) + marginals * m ** (2 * k))


@functools.lru_cache(maxsize=None)
def _relative_index_table(d: int, n: int) -> np.ndarray:
    """rel[a, b] = flat grid index of the offset x_a - x_b folded to [0, pi] on
    each axis, where w is read (w is even); shape (n^d, n^d), symmetric."""
    multi = np.array(np.unravel_index(np.arange(n**d), (n,) * d))  # (d, m)
    diff = np.abs(multi[:, :, None] - multi[:, None, :])  # (d, m, m)
    return np.ravel_multi_index(tuple(np.minimum(diff, n - diff)), (n,) * d)


def build_potential(config: ManyBodyConfig) -> tuple[np.ndarray, float]:
    """Tabulate the rescaled, periodised interaction as the product it is.

    Returns (w, kappa): w of shape (n^d,), w[a] = N^(d beta) g(N^beta |x_a|)
    summed over the 2 pi-periodic copies of the relative offset x_a, and the
    constant kappa, so that W[a, b] = kappa w[a] w[b] is the interaction at
    relative offsets (x_a, x_b).  Every potential of the package is such a
    product (GaussianPotential, ConstantPotential).  The scaling exponent
    N^(2 d beta) of W preserves its total mass integral at the continuum level.
    """
    grid, pot = config.grid, config.potential
    if isinstance(pot, ConstantPotential):
        return np.ones(grid.size), float(pot.value)
    scale = float(config.N) ** config.beta
    rel = _wrapped_relative_coords(grid)  # (m, d)
    w = np.zeros(grid.size)
    for shift in np.array(list(itertools.product((-1, 0, 1), repeat=grid.d))) * 2 * np.pi:
        u = scale * (rel + shift)  # (m, d)
        w += pot._radial(np.sum(u * u, axis=-1))
    return scale**grid.d * w, pot.normalization(grid.d)


@functools.lru_cache(maxsize=16)
def _cached_potential_table(config: ManyBodyConfig) -> tuple[np.ndarray, float]:
    return build_potential(config)


def _pair_table(config: ManyBodyConfig) -> tuple[np.ndarray, float]:
    """P[a, b] = w(x_a - x_b), symmetric, and kappa (build_potential): the
    (n^d)^2 table from which the sector diagonal and the Hartree rate are derived."""
    check_entries("interaction table", config.grid.size**2)
    w, kappa = _cached_potential_table(config)
    return w[_relative_index_table(config.grid.d, config.grid.n)], kappa


def potential_mass(config: ManyBodyConfig) -> float:
    """b0: the grid quadrature of the tabulated interaction, kappa (sum w)^2
    dx^(2d), reused downstream as the mean-field coupling."""
    w, kappa = _cached_potential_table(config)
    return float(kappa * w.sum() ** 2 * config.grid.cell_volume**2)


def _on_slot(table: np.ndarray, slot: int, nslots: int) -> np.ndarray:
    """A one-slot table reshaped to broadcast over nslots slots of table.ndim
    axes each, occupying slot `slot`."""
    ones = (1,) * table.ndim
    return table.reshape(ones * slot + table.shape + ones * (nslots - 1 - slot))


def _triple_diagonal(config: ManyBodyConfig, x) -> np.ndarray:
    """(1/N^2) sum over slot triples of Vbar(x_i, x_j, x_l), x[s] the flat grid indices
    of slot s: aranges broadcast over a full tensor's slots, or row s of the sector's
    transposed sorted tuples.  Vbar averages kappa P[x_c, .] P[x_c, .] over the centre c
    (_pair_table), so the sum is kappa/3 sum_c sum_{j<l} P[x_c, x_j] P[x_c, x_l]: one gather
    per slot pair times the running sums of both its slots, with no term < 0 to cancel."""
    pair, kappa = _pair_table(config)
    N = config.N
    sums, out = [0.0] * N, 0.0
    for i, j in itertools.combinations(range(N), 2):
        p = pair[x[i], x[j]]
        out = out + p * (sums[i] + sums[j])
        sums[i], sums[j] = sums[i] + p, sums[j] + p
    return out * (kappa / (3 * N**2))


@functools.lru_cache(maxsize=None)
def _kinetic_matrix(n: int) -> np.ndarray:
    """D = F^-1 diag(xi^2) F on one axis of n points."""
    # circulant D[x, y] = c[x - y], c = F^-1 xi^2 even; folding |x - y| keeps D symmetric
    c = np.fft.ifft(_xi_squared(1, n)).real
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return c[np.minimum(gap, n - gap)]


def _kinetic(a: np.ndarray, naxes: int) -> np.ndarray:
    """sum_j K_j a, a new complex array: K = -Lap along each of the leading
    naxes axes of a, all of one length n, with the trailing axes a batch.

    K is D (_kinetic_matrix), applied by real matmul on the float64 view,
    while n <= _DENSE_KINETIC_MAX_N, and one FFT pair over the naxes axes
    beyond."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n > _DENSE_KINETIC_MAX_N:
        axes = tuple(range(naxes))
        kin = functools.reduce(np.add.outer, [_xi_squared(1, n)] * naxes)
        g = _fftn(a, axes=axes)
        g *= kin.reshape(kin.shape + (1,) * (a.ndim - naxes))
        return _ifftn(g, out=g, axes=axes)
    dmat = _kinetic_matrix(n)
    af, g = a.view(np.float64), np.empty_like(a)
    gf = g.view(np.float64)
    np.matmul(dmat, af.reshape(n, -1), out=gf.reshape(n, -1))
    for ax in range(1, naxes):
        view = (n**ax, n, af.size // n ** (ax + 1))
        gf.reshape(view)[...] += np.matmul(dmat, af.reshape(view))
    return g


@functools.lru_cache(maxsize=8)
def _cached_tables(config: ManyBodyConfig) -> np.ndarray | None:
    """The symmetrised three-body values on the full state grid, the diagonal
    of apply_hamiltonian_raw; None below three particles."""
    config.check_budget()
    N = config.N
    if N < 3:
        return None
    flat = [_on_slot(np.arange(config.grid.size), s, N) for s in range(N)]
    return _triple_diagonal(config, flat).reshape(config.state_shape)


# -- the bosonic sector ------------------------------------------------------
#
# A symmetric psi is stored as c(s) = sqrt(N! / prod_y m_y!) psi(s) on the
# C(m + N - 1, N) sorted tuples s of flat grid indices (m = n^d, m_y the number
# of entries of s equal to y), so that inner products and norms of c equal those of
# psi.  Tuples are ranked in colex order by the combinatorial number system,
# rank(s) = sum_i C(s_i + i, i + 1).  On c, H = A^dagger (K x 1) A + V: A is the
# level-N annihilation table of _insertion, the gather that B_k (_annihilate)
# and the full tensor's slabs (_slabs) share, and A^dagger is its scatter-add.

_SYMMETRY_TOL = 1e-12  # largest round-trip miss of a state, relative to max |psi|


def _sector_dim(m: int, k: int) -> int:
    """The number of sorted k-tuples over m sites."""
    return math.comb(m + k - 1, k)


def _sector_entries(config: ManyBodyConfig) -> int:
    """Complex-entry equivalents (16 bytes) of what the sector path holds
    besides its vectors: the colex tuples up to level N (under N C(m + N, N)
    8-byte entries), _insertion's level-N table and the scatter index (m p
    each), the scale and the diagonal, the diagonal's contiguous copy of the
    level-N tuples (N dim 8-byte entries), and an H-apply's scratch (b, g,
    _kinetic's matmul temporary, the bincount result, V c), which the build's
    temporaries (the diagonal's N real pair sums among them) and a
    1-marginal's gather stay within.  No full tensor: see check_run_budget."""
    m, N = config.grid.size, config.N
    dim, mp = _sector_dim(m, N), m * _sector_dim(m, N - 1)
    return N * (_sector_dim(m + 1, N) + dim) // 2 + 5 * mp + 3 * dim


@dataclass(frozen=True)
class _Sector:
    """The tables of one config's sector (see _sector), the expand index apart."""

    scale: np.ndarray  # (dim,) sqrt(N! / prod m_y!)
    scatter: np.ndarray  # (2 m p,) 2 rank(r + e_y) + (0, 1): A^dagger's bincount on float64
    diag: np.ndarray | None  # (dim,) the potential, None below three particles


@functools.lru_cache(maxsize=32)
def _colex_levels(m: int, k: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """binom[i, v] = C(v + i, i + 1) for i <= k, v <= m, and the sorted
    j-tuples over m sites in colex order, shape (C(m+j-1, j), j), for j = 0..k.
    Memoized, each on those below it: one build serves _sector and _insertion.

    Those ending in v follow every tuple ending below v, and their first j - 1
    entries are the first C(v + j - 1, j - 1) sorted (j-1)-tuples."""
    if k == 0:
        return np.arange(m + 1)[None], (np.zeros((1, 0), dtype=np.int64),)
    binom, levels = _colex_levels(m, k - 1)
    starts = binom[k - 1, :m]  # C(v + k - 1, k), the first rank ending in v
    counts = np.diff(binom[k - 1])
    rows = np.arange(binom[k - 1, m]) - np.repeat(starts, counts)
    tuples = np.column_stack([levels[-1][rows], np.repeat(np.arange(m), counts)])
    # row k is the running sum of row k - 1
    return np.vstack([binom, np.cumsum(binom[k - 1])]), (*levels, tuples)


@functools.lru_cache(maxsize=32)
def _insertion(m: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The annihilation table of level j, from sorted j-tuples over m sites:
    ins[y, r], the rank of r + e_y, and its weight sqrt(r_y + 1), for site y
    and sorted (j-1)-tuple r; shape (m, C(m + j - 2, j - 1)) each.  a_y c is
    the gather w[y] c[ins[y]], and a_y^dagger its scatter-add."""
    binom, levels = _colex_levels(m, j - 1)
    y = np.arange(m)[:, None]
    pos, count, rank = (np.zeros((m, len(levels[-1])), dtype=np.int64) for _ in range(3))
    for i, ri in enumerate(levels[-1].T):
        # y goes after the entries <= y, which keep their place i; the others move to i + 1
        stays = ri <= y
        pos += stays
        count += ri == y
        rank += np.where(stays, binom[i, ri], binom[i + 1, ri])
    return rank + binom[pos, y], np.sqrt(count + 1.0)


def _annihilate(c: np.ndarray, config: ManyBodyConfig, k: int) -> np.ndarray:
    """B_k = a_{x_1}..a_{x_k} c / sqrt(N!/(N-k)!), shape (m^k, C(m + N - k - 1, N - k)):
    row (x_1..x_k) is the sector vector over the last N - k slots of
    psi(x_1..x_k, .), so psi's k-marginal is dx^(dN) B_k B_k^dagger.  k gathers,
    at level j = N..N-k+1 by _insertion, and the factorial once at the end."""
    m, N, b = config.grid.size, config.N, c
    for j in range(N, N - k, -1):  # rows gain a slot, columns lose a particle
        ins, w = _insertion(m, j)
        b = np.take(b.reshape(-1, b.shape[-1]), ins, axis=1)  # C order, unlike [:, ins]
        b *= w
    b /= math.sqrt(math.perm(N, k))
    return b.reshape(-1, b.shape[-1])


@functools.lru_cache(maxsize=8)
def _sector(config: ManyBodyConfig) -> _Sector:
    """Tabulate the sector of config: the normalization, the scatter index of
    the creation step (_apply_sector), and the potential."""
    check_entries("sector tables", _sector_entries(config))
    m, N = config.grid.size, config.N
    scatter = (2 * _insertion(m, N)[0][..., None] + np.arange(2)).reshape(-1)
    tuples = _colex_levels(m, N)[1][N]
    diag = _triple_diagonal(config, np.ascontiguousarray(tuples.T)) if N >= 3 else None
    earlier = np.ones_like(tuples)  # earlier[:, i]: entries of s equal to s_i, up to i
    for i in range(N - 1):
        earlier[:, i + 1 :] += tuples[:, i + 1 :] == tuples[:, i : i + 1]
    return _Sector(
        scale=np.sqrt(math.factorial(N) / np.prod(earlier, axis=1)),
        scatter=scatter,
        diag=diag,
    )


@functools.lru_cache(maxsize=8)
def _expand_index(m: int, k: int) -> np.ndarray:
    """(m^k,) the rank of the sorted tuple of each flat index of k slots over
    m sites; _slabs's index of the last N - 1 slots, built past its caller's charge."""
    expand = np.zeros(1, dtype=np.int64)
    for j in range(1, k + 1):
        # prepending x_0 to a tuple of rank r gives rank ins[x_0, r]
        expand = np.take(_insertion(m, j)[0], expand, axis=1).reshape(-1)  # C order
    return expand


def _slabs(config: ManyBodyConfig, u: np.ndarray):
    """Slabs x_0 = 0..m-1 of the flat full tensor whose sorted tuple of rank r
    holds u[r]: u[ins[x_0][expand]], ins the level-N annihilation table and expand
    the ranks of the last N - 1 slots.  The one way to the full tensor."""
    m, N = config.grid.size, config.N
    ins, expand = _insertion(m, N)[0], _expand_index(m, N - 1)
    for row in ins:
        yield u[row[expand]]


def _compress(config: ManyBodyConfig, amps) -> np.ndarray:
    """The entries u at the sorted tuples of the symmetric tensor amps, any array of state_shape
    (a memory map too), with no sector table (c is u times _sector's scale); ValueError
    unless each slab of the tensor of u (_slabs) is that of amps to _SYMMETRY_TOL * max |amps|."""
    config.check_file_budget()
    m, N = config.grid.size, config.N
    at = _colex_levels(m, N)[1][N] @ m ** np.arange(N - 1, -1, -1)  # the sorted tuples
    u = np.asarray(np.ravel(amps)[at], dtype=np.complex128)
    miss = top = 0.0
    for slab, want in zip(np.reshape(amps, (m, -1)), _slabs(config, u)):
        miss = max(miss, np.abs(want - slab).max())
        top = max(top, np.abs(slab).max())
    if miss > _SYMMETRY_TOL * top:
        raise ValueError("the state is not symmetric under exchange of particles")
    return u


def _expand(config: ManyBodyConfig, c: np.ndarray) -> np.ndarray:
    """The full symmetric tensor of the sector vector c, past check_budget."""
    config.check_budget()
    return np.concatenate([*_slabs(config, c / _sector(config).scale)]).reshape(config.state_shape)


def _apply_sector(config: ManyBodyConfig, c: np.ndarray) -> np.ndarray:
    """H c on the sector (see the bosonic sector above): A gathers b[y, r] =
    sqrt(r_y + 1) c[rank(r + e_y)], K acts on b's d grid axes (_kinetic), and
    A^dagger scatter-adds the weighted result onto the ranks in one bincount."""
    sec, ins, w = _sector(config), *_insertion(config.grid.size, config.N)
    d, n = config.grid.d, config.grid.n
    b = c[ins]
    b *= w
    g = _kinetic(b.reshape((n,) * d + (-1,)), d).reshape(w.shape)
    g *= w
    out = np.bincount(sec.scatter, g.view(np.float64).reshape(-1), 2 * c.size)
    out = out.view(np.complex128)
    if sec.diag is not None:
        out += sec.diag * c
    return out


def _unit_values(phi: TorusField) -> np.ndarray:
    """The flat grid values of phi, scaled to unit L2 norm."""
    v = phi.values.reshape(-1)
    return v / np.sqrt(np.sum(np.abs(v) ** 2) * phi.grid.cell_volume)


def _tensor_power(v: np.ndarray, k: int) -> np.ndarray:
    """v^(x)k as a flat vector."""
    vk = v
    for _ in range(k - 1):
        vk = np.multiply.outer(vk, v).reshape(-1)
    return vk


class BosonicState:
    """A symmetric N-particle state on (grid)^N, held as its sector vector c
    (see the bosonic sector above).  Given a tensor amps instead of c, the
    constructor compresses it once, with a ValueError if the sector cannot
    hold it.  amps, of shape grid.shape * N with slot j on axes [j*d, (j+1)*d),
    is expanded from c slab by slab on first read, past check_budget, and cached read-only,
    so exchange partners agree bit for bit; c is never changed in place, so amps stays that of c.
    """

    def __init__(self, config: ManyBodyConfig, amps: np.ndarray | None = None, *,
                 c: np.ndarray | None = None):
        self.config = config
        self.c = c if c is not None else (
            _compress(config, np.reshape(amps, config.state_shape)) * _sector(config).scale)

    # -- constructors ----------------------------------------------------

    @classmethod
    def factorized(cls, config: ManyBodyConfig, phi: TorusField) -> "BosonicState":
        """phi^(x)N, phi normalized: c(s) = scale(s) prod_i v[s_i], with no full tensor."""
        scale = _sector(config).scale  # charged before the colex tuples are read
        tuples = np.ascontiguousarray(_colex_levels(config.grid.size, config.N)[1][config.N].T)
        c = np.prod(_unit_values(phi)[tuples], axis=0)  # C order, for the product's loop
        return cls(config, c=c * scale)

    @classmethod
    def random_symmetric(
        cls, config: ManyBodyConfig, rng: np.random.Generator, band: int | None = None
    ) -> "BosonicState":
        """A random tensor, band-limited when band is given, averaged over the N!
        slot permutations into c (orbit sums over scale) and normalized."""
        config.check_budget()  # the tensor is charged before it is drawn
        grid = config.grid
        shape = config.state_shape
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if band is not None:
            _fftn(raw, out=raw)
            mask_1 = np.abs(grid.axis_frequencies()) <= band
            for ax in range(grid.d * config.N):
                raw *= _on_slot(mask_1, ax, grid.d * config.N)
            _ifftn(raw, out=raw)
        c = np.zeros(_sector_dim(grid.size, config.N), dtype=np.complex128)
        for slab, ranks in zip(raw.reshape(grid.size, -1), _slabs(config, np.arange(c.size))):
            np.add.at(c, ranks, slab)
        c /= _sector(config).scale
        return cls(config, c=c / cls(config, c=c).norm())

    # -- structure --------------------------------------------------------

    @functools.cached_property
    def amps(self) -> np.ndarray:
        amps = _expand(self.config, self.c)
        amps.flags.writeable = False
        return amps

    def norm(self) -> float:
        return float(np.sqrt(_dot(self.c, self.c) * self.config.grid.cell_volume**self.config.N))

    def inner(self, other: "BosonicState") -> complex:
        return complex(np.einsum("i,i->", self.c.conj(), other.c)
                       * self.config.grid.cell_volume**self.config.N)


# -- Hamiltonian --------------------------------------------------------


def apply_hamiltonian_raw(config: ManyBodyConfig, amps: np.ndarray) -> np.ndarray:
    """H amps on the full tensor, matrix-free: _kinetic over all d N axes plus
    the diagonal potential.  No run path calls it; it is the oracle of
    _apply_sector."""
    diag = _cached_tables(config)
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    s = _kinetic(amps, amps.ndim)
    if diag is not None:
        s += diag * amps
    return s


def apply_hamiltonian(psi: BosonicState) -> np.ndarray:
    return apply_hamiltonian_raw(psi.config, psi.amps)


def energy(psi: BosonicState) -> float:
    c = psi.c
    return _dot(c, _apply_sector(psi.config, c)) * psi.config.grid.cell_volume**psi.config.N


def energy_per_particle(psi: BosonicState) -> float:
    return energy(psi) / psi.config.N


def check_moment_order(k: int, config: ManyBodyConfig) -> None:
    """energy_moment needs k >= 0 and a finite (2 r / N + 1)^k, the bound of
    (H/N + 1)^k on H's interval [0, 2 r] (_radius_bound)."""
    if k < 0:
        raise ValueError(f"moment order must be nonnegative, got {k}")
    top = 2.0 * _radius_bound(config) / config.N + 1.0
    if k * math.log(top) > math.log(np.finfo(np.float64).max):
        raise ValueError(f"(2 r/N + 1)^k = {top:.4g}^{k} is past the largest float")


def energy_moment(psi: BosonicState, k: int) -> float:
    """<psi, (H/N + 1)^k psi>, by repeated application of H."""
    check_moment_order(k, psi.config)
    c = v = psi.c
    for _ in range(k):
        v = _apply_sector(psi.config, v) / psi.config.N + v
    return _dot(c, v) * psi.config.grid.cell_volume**psi.config.N


# -- Chebyshev propagation -------------------------------------------------


def _radius_bound(config: ManyBodyConfig) -> float:
    """The radius r of H's interval [0, 2 r] from the potential's parameters alone: the
    kinetic part lies in [0, N d (n/2)^2], as |xi| <= n/2 on each axis, and the potential in
    [0, C(N, 3) / N^2 max W], W = kappa w w^T >= 0 the interaction table (build_potential),
    so max W = kappa max w^2, at most amplitude * (copies * N^beta)^(2 d): per axis at most 3
    and floor(3 sigma N^-beta / pi) + 1 of the 2 pi-periodic copies of a relative coordinate
    meet the rescaled support, and g <= 1."""
    grid, N, pot = config.grid, config.N, config.potential
    if isinstance(pot, ConstantPotential):
        top = pot.value
    else:
        scale = np.float64(N) ** config.beta
        copies = min(3.0, np.floor(pot.support_radius / scale / np.pi) + 1.0)
        top = pot.normalization(grid.d) * (copies * scale) ** (2 * grid.d)
    return N * grid.d * (grid.n / 2) ** 2 / 2 + math.comb(N, 3) / (2 * N**2) * top


def _table_degree(z: float) -> int:
    """K = z + 20 z^(1/3) + 40, rounded up: |J_K(z)| < 1e-40."""
    return math.ceil(z + 20.0 * z ** (1 / 3) + 40.0)


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """a_k of exp(-i z x) = sum_k a_k T_k(x) on [-1, 1], z >= 0: a_0 = J_0(z) and
    a_k = 2 (-i)^k J_k(z), read off the Fourier coefficients (-i)^k J_k(z) of
    exp(-i z cos theta) (Jacobi-Anger) on 2 K points, K = _table_degree(z), so no
    coefficient aliases."""
    K = _table_degree(z)
    a = np.fft.fft(np.exp(-1j * z * np.cos(np.pi / K * np.arange(2 * K))))[: K + 1] / (2 * K)
    a[1:] *= 2.0
    return a


def _degree(a: np.ndarray, target: float) -> int:
    """The least K whose tail bound sum_{k>K} |a_k| = 2 sum_{k>K} |J_k| is within target."""
    tails = np.append(np.cumsum(np.abs(a[:0:-1]))[::-1], 0.0)
    return int(np.argmax(tails <= target))


def _chebyshev(config: ManyBodyConfig, c: np.ndarray, times, radius: float) -> list[np.ndarray]:
    """exp(-i s H) c at each time s (Tal-Ezer & Kosloff, J. Chem. Phys. 1984):
    with X = H / radius - 1, whose spectrum lies in [-1, 1] as H's lies in [0, 2 radius],
    exp(-i s H) = exp(-i s radius) sum_k a_k(s radius) T_k(X), each series cut at
    its _degree for _SERIES_TOL.  One three-term recurrence T_{k+1} = 2 X T_k - T_{k-1}
    serves every time, at one H-apply per degree up to the largest, and no
    inner product; each time sums its own coefficients."""
    coeffs = []
    for s in times:
        a = _chebyshev_coefficients(s * radius)
        coeffs.append(a[: _degree(a, _SERIES_TOL) + 1].copy())  # not a view that keeps the table
    sums = [a[0] * c for a in coeffs]
    prev, cur = None, c
    for k in range(1, max(a.size for a in coeffs)):
        nxt = _apply_sector(config, cur)
        nxt -= radius * cur
        if prev is None:
            nxt /= radius
        else:
            nxt *= 2.0 / radius
            nxt -= prev
        prev, cur = cur, nxt
        for u, a in zip(sums, coeffs):
            if k < a.size:
                u += a[k] * cur
    for u, s in zip(sums, times):
        u *= np.exp(-1j * s * radius)
    return sums


def propagate(psi: BosonicState, t: float | Sequence[float]) -> BosonicState | list[BosonicState]:
    """exp(-i t H) psi for a finite t >= 0, or the list of exp(-i s H) psi for
    a non-decreasing sequence of such times s (equal times share one state).
    A zero time, or any time for the zero state, gives psi itself.  Other t
    raise ValueError up front.

    Every time comes from one Chebyshev series (_chebyshev) over the a-priori
    interval [0, 2 r] of H (_radius_bound), each cut where its tail bound is
    within 1e-11 (_SERIES_TOL), which bounds its truncation error relative to
    ||psi||, and is held as a sector vector.  Double precision resolves the phase
    t H only to about eps * T r, T the largest time: where that passes 1e-11,
    PropagationToleranceError is raised before any H-apply.
    """
    times = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not (times.ndim == 1 and np.all(np.isfinite(times) & (np.diff(times, prepend=0.0) >= 0.0))):
        raise ValueError(f"propagate needs finite times >= 0 in non-decreasing order; got t={t!r}")
    states = _propagate(psi, times)
    return states[0] if np.ndim(t) == 0 else states


def _propagate(psi: BosonicState, times: np.ndarray):
    """propagate at the checked times; its budget, rounding floor and series cut all
    take _SERIES_TOL."""
    config = psi.config
    config.check_run_budget(times)
    span = float(times[-1]) if times.size else 0.0
    if span == 0.0 or not psi.c.any():
        return [psi] * times.size
    radius = _radius_bound(config)
    degree = span * radius + 1  # a lower bound of the degree of the series
    if degree * np.finfo(np.float64).eps > _SERIES_TOL:
        raise PropagationToleranceError(
            f"the series to t = {span:.3g} needs a degree past {degree:.3g}, "
            f"whose rounding double precision cannot hold within {_SERIES_TOL:.3g}"
        )
    later = times[times > 0.0]
    later = later[np.diff(later, prepend=0.0) > 0.0].tolist()  # np.unique loads numpy.ma
    sums = _chebyshev(config, psi.c, later, radius)
    served = {0.0: psi, **{s: BosonicState(config, c=u) for s, u in zip(later, sums)}}
    return [served[s] for s in times.tolist()]


# -- energy-moment inequality probe ----------------------------------------


def weighted_sobolev_norm_sq(psi: BosonicState, orders: list[float]) -> float:
    """|| prod_j <grad_j>^{orders[j]} psi ||^2 = dx^(dN) / m^k sum_xi W(xi) |F B_k|^2,
    F the transform of B_k's rows (_annihilate), k the last weighted slot, and
    W(xi) = prod_j (1+|xi_j|^2)^orders[j] multiplied into the sum over B_k's columns."""
    config, grid = psi.config, psi.config.grid
    k = max((s + 1 for s, a in enumerate(orders) if a != 0.0), default=1)
    config.check_factor_budget(k, 2)
    b = _annihilate(psi.c, config, k).reshape(grid.shape * k + (-1,))
    p = _abs2(_fftn(b, out=b, axes=tuple(range(grid.d * k)))).sum(axis=-1)
    one = 1.0 + _xi_squared(grid.d, grid.n)
    for s, a in enumerate(orders[:k]):
        p *= _on_slot(one ** a, s, k)
    return float(grid.cell_volume**config.N / grid.size**k * np.sum(p))


def check_stability_order(k: int, c1: float, N: int) -> None:
    """stability_check needs 1 <= k <= N and 0 <= c1 <= 1."""
    if not 0.0 <= c1 <= 1.0:
        raise ValueError(f"c1 must lie in [0, 1], got {c1}")
    if not 1 <= k <= N:
        raise ValueError(f"requires 1 <= k <= N, got k={k}, N={N}")


def stability_check(psi: BosonicState, k: int, c1: float) -> dict:
    """Compare the k-th energy moment with the weighted Sobolev lower bound.

    lhs = <psi, (H/N + 1)^k psi>;
    rhs = c1^k ( ||S^(1,k) psi||^2 + (1/N) ||S_1 S^(1,k-1) psi||^2 )
    where S^(1,k) weights slots 1..k by <grad> and S_1 adds one more power
    on slot 1.  The bound is a large-N statement: at desk-scale N the
    satisfied flag is reported, not asserted.
    """
    N = psi.config.N
    check_stability_order(k, c1, N)
    lhs = energy_moment(psi, k)
    term_a = weighted_sobolev_norm_sq(psi, [1.0] * k)
    term_b = weighted_sobolev_norm_sq(psi, [1.0] if k == 1 else [2.0] + [1.0] * (k - 2))
    rhs = c1**k * (term_a + term_b / N)
    return {"lhs": lhs, "rhs": rhs, "satisfied": bool(lhs >= rhs)}
