"""Periodic grids, spectral transforms, and sharp frequency projectors.

Everything downstream (the NLS solver, the few-body engine, the inequality
probes) is built on the objects in this module.  Conventions, fixed once:

* the torus has period 2*pi per axis; sample points are x_m = 2*pi*m/n;
* a field is represented by its Fourier coefficients with the expansion
  f(x) = sum_xi fhat(xi) exp(i xi . x), xi an integer tuple, so that
  Parseval reads  integral |f|^2 dx = (2*pi)^d * sum |fhat|^2;
* all frequency cutoffs are sharp characteristic functions on the
  componentwise (infinity-ball) region |xi_j| <= M, which keeps every
  projector idempotent and makes complements exact.

Every transform in the package goes through the pair `_fftn`/`_ifftn`, and
every dense array is checked against the one budget by `check_entries`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

MEMORY_BUDGET = 2**24  # max complex entries in any dense array of the package


class ParameterError(ValueError):
    """A constructor argument is out of range; `name` is the argument's name."""

    def __init__(self, name: str | None, message: str):
        super().__init__(message)
        self.name = name


class MemoryBudgetError(ParameterError):
    """A dense array would exceed MEMORY_BUDGET; `name` is the argument to blame, if known."""


def check_entries(what: str, entries: int, name: str | None = None) -> None:
    """The one budget rule: a dense array holds at most MEMORY_BUDGET entries."""
    if entries > MEMORY_BUDGET:
        raise MemoryBudgetError(
            name, f"{what} would hold {entries} entries (budget {MEMORY_BUDGET})"
        )


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the d-torus with period 2*pi per axis."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ParameterError("d", f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise ParameterError("n", f"points per axis must be even and >= 4, got {self.n}")
        check_entries("field grid", self.n**self.d, "n")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one grid cell, dx^d."""
        return self.dx**self.d

    @property
    def volume(self) -> float:
        return (2.0 * np.pi) ** self.d

    @property
    def nyquist(self) -> int:
        return self.n // 2

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def axis_frequencies(self) -> np.ndarray:
        """Integer frequencies in FFT layout: 0, 1, ..., n/2-1, -n/2, ..., -1."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _freq_components(d: int, n: int) -> tuple[np.ndarray, ...]:
    ax = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    return tuple(
        ax.reshape((1,) * j + (n,) + (1,) * (d - 1 - j)) for j in range(d)
    )


@functools.lru_cache(maxsize=None)
def _xi_squared(d: int, n: int) -> np.ndarray:
    return sum(c.astype(np.float64) ** 2 for c in _freq_components(d, n))


@functools.lru_cache(maxsize=None)
def _mask_leq(d: int, n: int, m: float) -> np.ndarray:
    """Characteristic function of the region |xi_j| <= m for every axis j."""
    return functools.reduce(np.logical_and, [np.abs(c) <= m for c in _freq_components(d, n)])


def _fftn(a, out=None, **kw) -> np.ndarray:
    """np.fft.fftn into one complex array, `out` or a new one; without `out`,
    numpy allocates a new array for every axis pass.  Looked up on np.fft at
    call time, as are all transforms of the package."""
    return np.fft.fftn(a, out=np.empty(np.shape(a), np.complex128) if out is None else out, **kw)


def _ifftn(a, out=None, **kw) -> np.ndarray:
    """np.fft.ifftn into one complex array, `out` or a new one (see _fftn)."""
    return np.fft.ifftn(a, out=np.empty(np.shape(a), np.complex128) if out is None else out, **kw)


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 as re^2 + im^2, without the square root of np.abs."""
    return v.real**2 + v.imag**2


def _resampled(c: np.ndarray, n_new: int) -> np.ndarray:
    """The coefficient array c as TorusField.resample places it on an n_new
    grid: a new array, or c itself at its own size."""
    n = c.shape[0]
    if n_new == n:
        return c
    c_new = np.zeros((n_new,) * c.ndim, dtype=np.complex128)
    h = min(n, n_new) // 2
    for block in itertools.product((slice(None, h), slice(-h, None)), repeat=c.ndim):
        c_new[block] = c[block]
    return c_new


class TorusField:
    """Complex scalar field on a periodic grid, stored spectrally.

    Instances are immutable values: operations return new fields and never
    mutate the coefficient array.  Physical samples are computed lazily and
    cached.
    """

    __slots__ = ("grid", "_coeffs", "_values")

    def __init__(self, grid: GridSpec, coefficients: np.ndarray):
        if coefficients.shape != grid.shape:
            raise ValueError(
                f"coefficient array shape {coefficients.shape} does not match grid {grid.shape}"
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_coeffs", np.asarray(coefficients, dtype=np.complex128))
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise AttributeError("TorusField is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_values(cls, grid: GridSpec, values: np.ndarray) -> "TorusField":
        values = np.asarray(values, dtype=np.complex128).reshape(grid.shape)
        coeffs = _fftn(values)
        coeffs /= grid.size
        return cls._from_pair(grid, coeffs, values.copy())

    @classmethod
    def _from_pair(cls, grid: GridSpec, coeffs: np.ndarray, values: np.ndarray) -> "TorusField":
        """The field with these coefficients and their samples, both taken over, not copied."""
        f = cls(grid, coeffs)
        object.__setattr__(f, "_values", values)
        return f

    @classmethod
    def zero(cls, grid: GridSpec) -> "TorusField":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def constant(cls, grid: GridSpec, value: complex = 1.0) -> "TorusField":
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[(0,) * grid.d] = value
        return cls(grid, c)

    @classmethod
    def from_modes(cls, grid: GridSpec, modes: dict[tuple[int, ...], complex]) -> "TorusField":
        """Field with prescribed coefficients, e.g. {(3,): 1.0} for exp(3ix)."""
        c = np.zeros(grid.shape, dtype=np.complex128)
        for xi, amp in modes.items():
            xi = (xi,) if isinstance(xi, int) else tuple(xi)
            if len(xi) != grid.d:
                raise ValueError(f"mode {xi} has wrong dimension for d={grid.d}")
            if any(abs(x) > grid.nyquist for x in xi):
                raise ValueError(f"mode {xi} exceeds the representable band +-{grid.nyquist}")
            c[tuple(x % grid.n for x in xi)] += amp
        return cls(grid, c)

    @classmethod
    def plane_wave(cls, grid: GridSpec, xi, amplitude: complex = 1.0) -> "TorusField":
        xi = (xi,) if isinstance(xi, int) else tuple(xi)
        return cls.from_modes(grid, {xi: amplitude})

    @classmethod
    def random_band_limited(
        cls,
        grid: GridSpec,
        band: int,
        rng: np.random.Generator,
        decay: float = 0.0,
    ) -> "TorusField":
        """Seeded random field supported on |xi_j| <= band.

        Coefficients are complex standard normals damped by (1+|xi|^2)^(-decay/2),
        so decay > 0 yields smoother samples.
        """
        mask = _mask_leq(grid.d, grid.n, band)
        c = np.zeros(grid.shape, dtype=np.complex128)
        m = int(mask.sum())
        c[mask] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        if decay:
            c *= (1.0 + _xi_squared(grid.d, grid.n)) ** (-decay / 2.0)
        return cls(grid, c)

    # -- representations ----------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        out = self._coeffs.view()
        out.flags.writeable = False
        return out

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            object.__setattr__(self, "_values", self._samples())
        out = self._values.view()
        out.flags.writeable = False
        return out

    def _samples(self, out: np.ndarray | None = None) -> np.ndarray:
        """The samples in `out` or a new array: the cached ones copied, else
        one inverse transform, which is not cached."""
        if out is None:
            out = np.empty(self.grid.shape, dtype=np.complex128)
        if self._values is not None:
            out[...] = self._values
        else:
            _ifftn(self._coeffs, out=out)
            out *= self.grid.size
        return out

    # -- arithmetic ----------------------------------------------------

    def _check_same_grid(self, other: "TorusField"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "TorusField") -> "TorusField":
        self._check_same_grid(other)
        return TorusField(self.grid, self._coeffs + other._coeffs)

    def __sub__(self, other: "TorusField") -> "TorusField":
        self._check_same_grid(other)
        return TorusField(self.grid, self._coeffs - other._coeffs)

    def __mul__(self, scalar: complex) -> "TorusField":
        return TorusField(self.grid, self._coeffs * scalar)

    __rmul__ = __mul__

    def multiply_coefficients(self, weights: np.ndarray) -> "TorusField":
        """New field with coefficients fhat(xi) * weights(xi) (Fourier multiplier)."""
        return TorusField(self.grid, self._coeffs * weights)

    # -- norms and pairings ---------------------------------------------

    def l2_norm(self) -> float:
        return float(
            np.sqrt(self.grid.volume * np.sum(np.abs(self._coeffs) ** 2))
        )

    def inner(self, other: "TorusField") -> complex:
        """L2 pairing <f, g> = integral conj(f) g dx, computed spectrally."""
        self._check_same_grid(other)
        return complex(self.grid.volume * np.vdot(self._coeffs, other._coeffs))

    def lp_norm(self, p: float) -> float:
        """L^p norm by grid quadrature (p = inf gives the grid maximum)."""
        a = np.abs(self.values)
        if np.isinf(p):
            return float(a.max(initial=0.0))
        return float((np.sum(a**p) * self.grid.cell_volume) ** (1.0 / p))

    def gradient_l2_sq(self) -> float:
        """|| grad f ||_{L2}^2, computed spectrally."""
        w = _xi_squared(self.grid.d, self.grid.n)
        return float(self.grid.volume * np.sum(w * np.abs(self._coeffs) ** 2))

    def spectral_tail(self, band: float) -> float:
        """l2 mass of coefficients outside the box |xi_j| <= band (resolution check)."""
        mask = ~_mask_leq(self.grid.d, self.grid.n, band)
        return float(np.sqrt(np.sum(np.abs(self._coeffs[mask]) ** 2)))

    def resample(self, n_new: int) -> "TorusField":
        """Same spectral content represented on an n_new-per-axis grid.

        Modes outside the new band are dropped; the stored integer label of
        each mode (FFT layout, edge mode labelled -n/2) is preserved.  With
        h = min(n, n_new)/2, each axis keeps its first h and last h entries,
        so the copy is 2^d contiguous blocks.  On downsampling the -n_new/2
        label is kept and +n_new/2 is dropped.  At the field's own size the
        field itself is returned.
        """
        if n_new == self.grid.n:
            return self
        return TorusField(GridSpec(self.grid.d, n_new), _resampled(self._coeffs, n_new))


def pointwise_product(*fields: TorusField, pad_to: int | None = None) -> TorusField:
    """Pointwise product of fields, optionally evaluated on a padded grid.

    With pad_to >= sum of the factors' bandwidths the result is alias-free.
    The returned field lives on the padded grid when padding is requested.
    """
    ups = fields if pad_to is None else [f.resample(pad_to) for f in fields]
    vals = ups[0].values.copy()
    for f in ups[1:]:
        vals = vals * f.values
    return TorusField.from_values(ups[0].grid, vals)


# -- projectors ---------------------------------------------------------


@dataclass(frozen=True)
class FrequencyCube:
    """Cube of side 2*radius centred at an integer frequency tuple."""

    center: tuple[int, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def mask(self, grid: GridSpec) -> np.ndarray:
        if len(self.center) != grid.d:
            raise ValueError("cube center has wrong dimension")
        comps = _freq_components(grid.d, grid.n)
        return functools.reduce(
            np.logical_and, [np.abs(c - x0) <= self.radius for c, x0 in zip(comps, self.center)]
        )


def check_cutoff(m: float) -> None:
    """Every sharp frequency cutoff must be positive."""
    if m <= 0:
        raise ValueError("cutoff must be positive")


def project_leq(f: TorusField, m: float) -> TorusField:
    """Keep coefficients with |xi_j| <= m on every axis; zero the rest."""
    check_cutoff(m)
    return f.multiply_coefficients(_mask_leq(f.grid.d, f.grid.n, m))


def project_gt(f: TorusField, m: float) -> TorusField:
    """Complement of project_leq: identity minus the sharp cutoff."""
    check_cutoff(m)
    return f.multiply_coefficients(~_mask_leq(f.grid.d, f.grid.n, m))


def project_lt(f: TorusField, m: float) -> TorusField:
    """Strict variant: keep |xi_j| < m on every axis, i.e. |xi_j| <= ceil(m) - 1."""
    check_cutoff(m)
    return f.multiply_coefficients(_mask_leq(f.grid.d, f.grid.n, np.ceil(m) - 1.0))


def dyadic_project(f: TorusField, m: float) -> TorusField:
    """Shell projection at dyadic level m: project_leq(f, m) - project_leq(f, m/2).

    Defined for m >= 2 only; the lowest shell is covered by project_leq(f, 1).
    """
    if m < 2:
        raise ValueError("dyadic projection is defined for M >= 2")
    mask = _mask_leq(f.grid.d, f.grid.n, m) & ~_mask_leq(f.grid.d, f.grid.n, m / 2.0)
    return f.multiply_coefficients(mask)


def cube_project(f: TorusField, q: FrequencyCube) -> TorusField:
    """Sharp projection onto a (possibly noncentred) frequency cube.

    Equals the modulation conjugate of the centred projection:
    cube_project(f, Q) = exp(i xi0.x) * project_leq(exp(-i xi0.x) f, M).
    """
    return f.multiply_coefficients(q.mask(f.grid))


def dyadic_levels(grid: GridSpec) -> list[int]:
    """Dyadic cutoffs representable on the grid: 1, 2, 4, ..., n/2."""
    return [2**j for j in range(grid.nyquist.bit_length())]


# -- kernels -------------------------------------------------------------


def dirichlet_kernel(grid: GridSpec, m: float) -> TorusField:
    """Sharp-cutoff convolution kernel K_M(x) = prod_j sum_{|xi_j|<=M} exp(i x_j xi_j).

    Computed by direct summation of the defining series; (2*pi)^(-d) times
    convolution with this kernel reproduces project_leq.
    """
    if m > grid.nyquist:
        raise ValueError("kernel level exceeds the representable band")
    mi = int(np.floor(m))
    x = grid.axis_points()
    axis = np.zeros(grid.n, dtype=np.complex128)
    for xi in range(-mi, mi + 1):
        axis += np.exp(1j * xi * x)
    vals = axis
    for _ in range(grid.d - 1):
        vals = np.multiply.outer(vals, axis)
    return TorusField.from_values(grid, vals)


def convolve(f: TorusField, kernel: TorusField) -> TorusField:
    """Periodic convolution (f * kernel)(x) = integral f(y) kernel(x-y) dy."""
    f._check_same_grid(kernel)
    return TorusField(f.grid, f.grid.volume * f.coefficients * kernel.coefficients)


# -- Sobolev machinery ----------------------------------------------------


def sobolev_norm(f: TorusField, s: float) -> float:
    """H^s norm ((2*pi)^d sum (1+|xi|^2)^s |fhat|^2)^(1/2)."""
    w = (1.0 + _xi_squared(f.grid.d, f.grid.n)) ** s
    return float(np.sqrt(f.grid.volume * np.sum(w * np.abs(f.coefficients) ** 2)))


def apply_S(f: TorusField, s: float) -> TorusField:
    """Inhomogeneous derivative weight <grad>^s: multiply by (1+|xi|^2)^(s/2)."""
    w = (1.0 + _xi_squared(f.grid.d, f.grid.n)) ** (s / 2.0)
    return f.multiply_coefficients(w)


def bernstein_ratio(f: TorusField, m: float, p: float, q: float) -> float:
    """|| P_{<=M} f ||_{L^q} / (M^{d(1/p-1/q)} || f ||_{L^p}).

    The low/high norm comparison behind the ratio is the standard sharp-cutoff
    bound; the ratio is reported so sweeps can exhibit a uniform constant.
    Returns 0 on the zero field.
    """
    if q < p:
        raise ValueError("requires q >= p")
    denom_norm = f.lp_norm(p)
    if denom_norm == 0.0:
        return 0.0
    num = project_leq(f, m).lp_norm(q)
    scale = m ** (f.grid.d * (1.0 / p - 1.0 / q))
    return num / (scale * denom_norm)
