"""Few-body engine: potential tabulation, Hamiltonian action, propagation,
energy moments."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special
from scipy.linalg import expm

from quintlab import grids, manybody, marginals
from quintlab.grids import GridSpec, MemoryBudgetError, ParameterError, TorusField
from quintlab.io import check_state_file, dump_state, load_state
from quintlab.manybody import (
    BosonicState,
    ConstantPotential,
    GaussianPotential,
    ManyBodyConfig,
    PropagationToleranceError,
    UnderResolvedError,
    apply_hamiltonian,
    apply_hamiltonian_raw,
    build_potential,
    energy,
    energy_moment,
    energy_per_particle,
    potential_mass,
    propagate,
    stability_check,
    weighted_sobolev_norm_sq,
)
from quintlab.marginals import bbgky_rhs, marginal
from quintlab.nls import free_propagate


def smooth_phi(grid, seed=0, band=2):
    rng = np.random.default_rng(seed)
    f = TorusField.random_band_limited(grid, band, rng, decay=2.0)
    return f * (1.0 / f.l2_norm())


def symmetry_residual(psi: BosonicState) -> float:
    """Largest L2 change of psi under an adjacent slot swap, relative to ||psi||."""
    d, N = psi.config.grid.d, psi.config.N
    worst = 0.0
    for s in range(N - 1):
        perm = list(range(N))
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
        diff = psi.amps - psi.amps.transpose([a for j in perm for a in range(j * d, (j + 1) * d)])
        worst = max(worst, float(np.linalg.norm(diff) / np.linalg.norm(psi.amps)))
    return worst


def shift_pair_table(cfg: ManyBodyConfig) -> np.ndarray:
    """The oracle of the interaction table, as (n^d, n^d) W: V(u, v) at the relative
    offsets (x_a, x_b) summed over every pair of shifts to their 2 pi-periodic copies."""
    grid, pot = cfg.grid, cfg.potential
    if isinstance(pot, ConstantPotential):
        return np.full((grid.size, grid.size), float(pot.value))
    scale = float(cfg.N) ** cfg.beta
    rel = grids._wrapped_relative_coords(grid)
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=grid.d))) * 2 * np.pi
    W = np.zeros((grid.size, grid.size))
    for su, sv in itertools.product(shifts, shifts):
        u, v = scale * (rel + su), scale * (rel + sv)
        ru2, rv2 = np.sum(u * u, axis=-1), np.sum(v * v, axis=-1)
        W += pot.normalization(grid.d) * pot._radial(ru2)[:, None] * pot._radial(rv2)[None, :]
    return scale ** (2 * grid.d) * W


def triple_value_table(cfg: ManyBodyConfig) -> np.ndarray:
    """The oracle of Vbar, (n^d, n^d, n^d): W (shift_pair_table) at the offsets of the
    other two points from each point of a triple, averaged over the three centres."""
    W, n, d, m = shift_pair_table(cfg), cfg.grid.n, cfg.grid.d, cfg.grid.size
    multi = np.array(np.unravel_index(np.arange(m), (n,) * d))
    rel = np.ravel_multi_index(tuple((multi[:, :, None] - multi[:, None, :]) % n), (n,) * d)
    a, b, c = np.ix_(np.arange(m), np.arange(m), np.arange(m))
    return (W[rel[a, b], rel[a, c]] + W[rel[b, a], rel[b, c]] + W[rel[c, a], rel[c, b]]) / 3.0


def triple_diagonal(vbar: np.ndarray, N: int, x) -> np.ndarray:
    """(1/N^2) sum over slot triples of vbar[x_i, x_j, x_l], x[s] the indices of slot s."""
    return sum(vbar[x[i], x[j], x[l]] for i, j, l in itertools.combinations(range(N), 3)) / N**2


class TestBuildPotential:
    def test_beta_zero_independent_of_N(self):
        g = GridSpec(1, 16)
        tables = [build_potential(ManyBodyConfig(g, N, 0.0)) for N in (2, 4, 8)]
        for w, kappa in tables[1:]:
            assert np.abs(w - tables[0][0]).max() == 0.0 and kappa == tables[0][1]

    def test_mass_independent_of_scaling(self):
        # the rescaling preserves the total interaction mass; on a resolving
        # grid the quadrature agrees with the continuum value to 1e-6
        g = GridSpec(1, 128)
        vals = []
        for N, beta in [(2, 0.0), (4, 0.05), (8, 0.1), (4, 0.2)]:
            cfg = ManyBodyConfig(g, N, beta)
            vals.append(potential_mass(cfg))
        for v in vals:
            assert abs(v - 1.0) <= 1e-6  # unit-mass normalization
        ref = vals[0]
        for v in vals[1:]:
            assert abs(v - ref) <= 1e-6 * max(abs(ref), 1.0)

    def test_peak_growth_with_scaling(self):
        # closed-form rescaling: W(0,0) = N^(2 d beta) V(0,0) once resolved
        g = GridSpec(1, 64)
        pot = GaussianPotential()
        v00 = pot.normalization(1)
        for N, beta in [(4, 0.1), (16, 0.1)]:
            w, kappa = build_potential(ManyBodyConfig(g, N, beta, pot))
            want = float(N) ** (2 * g.d * beta) * v00
            assert kappa * w[0] ** 2 == pytest.approx(want, rel=1e-12)

    def test_under_resolved_rejected(self):
        g = GridSpec(1, 8)
        with pytest.raises(UnderResolvedError):
            build_potential(ManyBodyConfig(g, 1000, 2.0))

    def test_symmetry_and_sign(self):
        # w is even, w(-x) = w(x): the folded pair table relies on it
        g = GridSpec(1, 16)
        w, kappa = build_potential(ManyBodyConfig(g, 3, 0.1))
        assert np.all(w >= 0.0) and kappa >= 0.0
        assert np.abs(w - w[-np.arange(16) % 16]).max() <= 1e-12


# the product path against the oracle tables: d = 1, 2, 3 and N = 3..12, with kappa != 1
_AGREEMENT = [
    *[(1, 8, N, 0.05, GaussianPotential()) for N in range(3, 13)],
    (1, 16, 4, 0.1, GaussianPotential(sigma=1.2)),  # the support meets three copies
    *[(2, 4, N, 0.05, GaussianPotential()) for N in (3, 5, 7)],
    (2, 6, 3, 0.0, ConstantPotential(2.0)),
    (3, 4, 3, 0.05, GaussianPotential()),
]


class TestProductForm:
    @pytest.mark.parametrize("d,n,N,beta,pot", _AGREEMENT)
    def test_pair_table_path_matches_the_triple_table(self, monkeypatch, d, n, N, beta, pot):
        cfg = ManyBodyConfig(GridSpec(d, n), N, beta, pot)
        m, dv = cfg.grid.size, cfg.grid.cell_volume
        W, vbar = shift_pair_table(cfg), triple_value_table(cfg)
        w, kappa = build_potential(cfg)
        assert np.abs(kappa * np.outer(w, w) - W).max() <= 1e-15 * W.max()
        assert potential_mass(cfg) == pytest.approx(W.sum() * dv**2, rel=1e-13, abs=0)
        # the sector diagonal, and the full tensor's where it fits
        tuples = manybody._colex_levels(m, N)[1][N].T
        want = triple_diagonal(vbar, N, tuples)
        assert np.abs(manybody._sector(cfg).diag - want).max() <= 1e-13 * want.max()
        if m**N <= 2**15:
            flat = [manybody._on_slot(np.arange(m), s, N) for s in range(N)]
            want = triple_diagonal(vbar, N, flat).reshape(cfg.state_shape)
            assert np.abs(manybody._cached_tables(cfg) - want).max() <= 1e-13 * want.max()
        # the Hartree rate of mean_field_flow, read off the call of nls._advance
        rates = []
        monkeypatch.setattr(marginals, "_advance", lambda *args, **kw: rates.append(args[3]))
        marginals.mean_field_flow(smooth_phi(cfg.grid, seed=N), 0.01, 0.01, cfg)
        rho = np.random.default_rng(N).random(m)
        want = 0.5 * np.einsum("xyz,y,z->x", vbar, rho, rho) * dv**2
        got = rates[0](rho.reshape(cfg.grid.shape)).reshape(-1)
        assert np.abs(got - want).max() <= 1e-13 * want.max()


class TestBallIntegral:
    @pytest.mark.parametrize("sigma", [0.05, 0.2, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_adaptive_quadrature(self, sigma, d):
        pot = GaussianPotential(sigma)
        radial = lambda r: r ** (d - 1) * float(pot._radial(np.array([r * r]))[0])
        val, _ = integrate.quad(radial, 0.0, pot.support_radius, epsabs=0, epsrel=1e-13,
                                limit=200)
        want = (2.0, 2.0 * np.pi, 4.0 * np.pi)[d - 1] * val
        assert pot.ball_integral(d) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_is_the_128_point_gauss_legendre_sum(self, d):
        # the rule is built on first use, and is still leggauss(128) bit for bit
        pot = GaussianPotential()
        x, w = np.polynomial.legendre.leggauss(128)
        r = 0.5 * pot.support_radius * (x + 1.0)
        scale = 0.5 * pot.support_radius * (2.0, 2.0 * np.pi, 4.0 * np.pi)[d - 1]
        want = float(scale * (w @ (r ** (d - 1) * pot._radial(r * r))))
        assert pot.ball_integral(d).hex() == want.hex()


class TestPotentialSpec:
    @pytest.mark.parametrize("build", [
        lambda: ConstantPotential(-1.0),
        lambda: GaussianPotential(amplitude=-1.0),
        lambda: GaussianPotential(sigma=0.0),
    ], ids=["constant_negative", "gaussian_negative", "gaussian_zero_width"])
    def test_only_defocusing_potentials(self, build):
        with pytest.raises(ParameterError) as exc:
            build()
        assert exc.value.name == "potential"


class TestMemoryBudget:
    def test_oversized_state_rejected(self):
        cfg = ManyBodyConfig(GridSpec(3, 8), 3, 0.0)
        with pytest.raises(MemoryBudgetError):
            BosonicState.factorized(cfg, TorusField.constant(GridSpec(3, 8)))

    def test_budget_is_checked_before_the_tensor_power(self, monkeypatch):
        def refuse(v, k):
            raise AssertionError("the tensor power was formed")

        monkeypatch.setattr(manybody, "_tensor_power", refuse)
        cfg = ManyBodyConfig(GridSpec(3, 8), 3, 0.0)
        with pytest.raises(MemoryBudgetError):
            BosonicState.factorized(cfg, TorusField.constant(GridSpec(3, 8)))

    def test_random_state_is_checked_before_drawing(self):
        class NoDraws:
            def standard_normal(self, shape):
                raise AssertionError("a state-sized array was drawn")

        with pytest.raises(MemoryBudgetError):
            BosonicState.random_symmetric(ManyBodyConfig(GridSpec(3, 8), 3, 0.0), NoDraws())

    def test_chebyshev_recurrence_is_checked_before_propagating(self, monkeypatch):
        # a 512-entry state and its sector tables (2,047 entries) within the budget,
        # whose recurrence beside the tables (3,118) is not
        psi = BosonicState.factorized(ManyBodyConfig(GridSpec(1, 8), 3, 0.0),
                                      TorusField.constant(GridSpec(1, 8)))
        monkeypatch.setattr(grids, "MEMORY_BUDGET", 2500)
        monkeypatch.setattr(manybody, "_apply_sector", None)  # never reached
        with pytest.raises(MemoryBudgetError, match="Chebyshev recurrence"):
            propagate(psi, 0.1)

    @pytest.mark.parametrize("entry", ["factorized", "random_symmetric", "amps", "dump_state",
                                       "check_state_file", "load_state", "propagate", "marginal",
                                       "bbgky_rhs", "weighted_sobolev_norm_sq"])
    def test_each_path_charges_before_it_allocates(self, tmp_path, monkeypatch, entry):
        # d=1 n=16 N=5 (a 16^5-entry tensor, 16 MiB) from cold memos, past a budget of
        # 2^10 entries: each path raises having held at most 1 MiB and memoized nothing
        memos = (manybody._colex_levels, manybody._insertion, manybody._sector,
                 manybody._expand_index)
        for memo in memos:
            memo.cache_clear()
        cfg = ManyBodyConfig(GridSpec(1, 16), 5, 0.05)
        phi, path = TorusField.constant(cfg.grid), tmp_path / "psi.qls"
        rng = np.random.default_rng(1)
        if entry not in ("factorized", "random_symmetric"):
            psi = BosonicState.factorized(cfg, phi)
            dump_state(psi, path)
        call = {
            "factorized": lambda: BosonicState.factorized(cfg, phi),
            "random_symmetric": lambda: BosonicState.random_symmetric(cfg, rng),
            "amps": lambda: psi.amps,
            "dump_state": lambda: dump_state(psi, tmp_path / "again.qls"),
            "check_state_file": lambda: check_state_file(cfg, path),
            "load_state": lambda: load_state(cfg, path),
            "propagate": lambda: propagate(psi, 0.1),
            "marginal": lambda: marginal(psi, 2),
            "bbgky_rhs": lambda: bbgky_rhs(cfg, psi, 2),
            "weighted_sobolev_norm_sq": lambda: weighted_sobolev_norm_sq(psi, [1.0, 1.0]),
        }[entry]
        sizes = [memo.cache_info().currsize for memo in memos]
        monkeypatch.setattr(grids, "MEMORY_BUDGET", 2**10)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        assert [memo.cache_info().currsize for memo in memos] == sizes


class TestApplyHamiltonian:
    def test_single_particle_plane_wave_eigenvector(self):
        g = GridSpec(1, 16)
        cfg = ManyBodyConfig(g, 1, 0.0)
        psi = BosonicState.factorized(cfg, TorusField.plane_wave(g, 3))
        out = apply_hamiltonian(psi)
        assert np.abs(out - 9.0 * psi.amps).max() <= 1e-11

    def test_constant_potential_three_particles(self):
        g = GridSpec(1, 8)
        c = 2.5
        cfg = ManyBodyConfig(g, 3, 0.0, ConstantPotential(c))
        psi = BosonicState.factorized(cfg, TorusField.constant(g))
        out = apply_hamiltonian(psi)  # kinetic part vanishes on the constant
        assert np.abs(out - (c / 9.0) * psi.amps).max() <= 1e-12

    def test_no_triples_below_three_particles(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 2, 0.1)
        psi = BosonicState.factorized(cfg, smooth_phi(g))
        out = apply_hamiltonian(psi)
        kin_only = np.fft.ifftn(
            np.fft.fftn(psi.amps)
            * (np.add.outer(np.fft.fftfreq(8, 1 / 8) ** 2, np.fft.fftfreq(8, 1 / 8) ** 2))
        )
        assert np.abs(out - kin_only).max() <= 1e-11

    def test_hermiticity(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.05)
        rng = np.random.default_rng(1)
        a = BosonicState.random_symmetric(cfg, rng)
        b = BosonicState.random_symmetric(cfg, rng)
        hb = BosonicState(cfg, apply_hamiltonian(b))
        ha = BosonicState(cfg, apply_hamiltonian(a))
        lhs = a.inner(hb)
        rhs = np.conj(b.inner(ha))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_preserves_symmetry(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 4, 0.1)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(2))
        out = BosonicState(cfg, apply_hamiltonian(psi))
        assert symmetry_residual(out) <= 1e-10

    def test_nonnegative_energy(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.1)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(3))
        assert energy(psi) >= 0.0

    # every (d, n, N) of the grid below with at most 2^20 entries (16 MiB)
    ORACLE_CASES = [
        (d, n, N)
        for d in (1, 2, 3)
        for n in (4, 6, 8, 12, 16, 32)
        for N in (1, 2, 3, 4)
        if n ** (d * N) <= 2**20
    ]

    @pytest.mark.parametrize("d,n,N", ORACLE_CASES)
    def test_matches_fft_oracle(self, d, n, N):
        # the kinetic part against one FFT pair with sum_j |xi_j|^2 on the
        # full grid, on a random non-symmetric tensor and on a datum with
        # weight on the -n/2 (Nyquist) label of every axis
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        shape = cfg.state_shape
        rng = np.random.default_rng(d * 100 + n * 10 + N)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        nyquist = (1 + 2j) * (-1.0) ** np.indices(shape).sum(axis=0) + 0.1 * a
        xi2 = np.fft.fftfreq(n, 1.0 / n) ** 2
        kin = np.zeros(shape)
        for ax in range(d * N):
            kin += xi2.reshape([n if i == ax else 1 for i in range(d * N)])
        diag = manybody._cached_tables(cfg)
        for datum in (a, nyquist):
            want = np.fft.ifftn(np.fft.fftn(datum) * kin)
            if diag is not None:
                want += diag * datum
            got = apply_hamiltonian_raw(cfg, datum)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @staticmethod
    def _count_transforms(monkeypatch):
        calls = []
        for name in ("fftn", "ifftn"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *a, _f=real, **kw: calls.append(1) or _f(*a, **kw)
            )
        return calls

    def test_short_axes_make_no_transforms(self, monkeypatch):
        cfg = ManyBodyConfig(GridSpec(1, 16), 4, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid))
        apply_hamiltonian(psi)  # tabulate outside the count
        calls = self._count_transforms(monkeypatch)
        apply_hamiltonian(psi)
        assert calls == []

    def test_long_axes_take_the_fft_route(self, monkeypatch):
        g = GridSpec(1, 128)
        cfg = ManyBodyConfig(g, 2, 0.05)
        k1, k2 = 5, -64
        x = g.axis_points()
        amps = np.multiply.outer(np.exp(1j * k1 * x), np.exp(1j * k2 * x))
        calls = self._count_transforms(monkeypatch)
        out = apply_hamiltonian_raw(cfg, amps)
        assert len(calls) == 2
        lam = k1**2 + k2**2
        assert np.abs(out - lam * amps).max() <= 1e-11 * lam

    def test_views_and_real_input_match_contiguous_copies(self):
        cfg = ManyBodyConfig(GridSpec(2, 4), 3, 0.05)
        shape = cfg.state_shape
        rng = np.random.default_rng(11)
        view = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).transpose(
            4, 5, 0, 1, 2, 3)
        assert not view.flags.c_contiguous
        assert np.array_equal(
            apply_hamiltonian_raw(cfg, view), apply_hamiltonian_raw(cfg, view.copy())
        )
        real = rng.standard_normal(shape)
        assert np.array_equal(
            apply_hamiltonian_raw(cfg, real), apply_hamiltonian_raw(cfg, real.astype(complex))
        )


class TestSector:
    """The sector storage and H-apply against the full-tensor oracle apply_hamiltonian_raw."""

    # the full-tensor oracle's cases, a longer axis for D, one past
    # _DENSE_KINETIC_MAX_N for the FFT route, and five and six particles
    CASES = TestApplyHamiltonian.ORACLE_CASES + [(1, 64, 2), (1, 128, 2), (1, 6, 5), (1, 4, 6),
                                                 (1, 6, 6)]

    @staticmethod
    def symmetric(cfg, seed):
        """A random tensor averaged over the N! permutations of its slots."""
        d, N, shape = cfg.grid.d, cfg.N, cfg.state_shape
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        perms = itertools.permutations(range(N))
        axes = ([s * d + i for s in perm for i in range(d)] for perm in perms)
        return sum(np.transpose(raw, ax) for ax in axes) / math.factorial(N)

    @staticmethod
    def normalized(cfg, amps):
        return amps / np.sqrt(np.sum(np.abs(amps) ** 2) * cfg.grid.cell_volume**cfg.N)

    @pytest.mark.parametrize("d,n,N", [(1, 6, 2), (1, 6, 3), (2, 4, 3), (1, 4, 4)])
    def test_symmetrized_is_the_normalized_permutation_average(self, d, n, N):
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.0)
        want = self.normalized(cfg, self.symmetric(cfg, 7))
        got = BosonicState.random_symmetric(cfg, np.random.default_rng(7)).amps  # the same draws
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("d,n,N", CASES)
    def test_apply_matches_the_full_tensor_oracle(self, d, n, N):
        # a random symmetric tensor, and the Nyquist datum of test_matches_fft_oracle
        # (symmetric as it stands) plus a tenth of it
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        a = self.symmetric(cfg, d * 100 + n * 10 + N)
        nyquist = (1 + 2j) * (-1.0) ** np.indices(cfg.state_shape).sum(axis=0) + 0.1 * a
        for datum in (a, nyquist):
            want = apply_hamiltonian_raw(cfg, datum)
            got = manybody._expand(cfg, manybody._apply_sector(cfg, BosonicState(cfg, datum).c))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n,N", [(8, 12), (16, 7)])
    def test_apply_is_hermitian_past_the_full_tensor(self, n, N):
        # <a, H b> = conj <b, H a> on random sector vectors, at shapes whose
        # full tensors (8^12, 16^7 entries) no oracle can form
        cfg = ManyBodyConfig(GridSpec(1, n), N, 0.05)
        rng = np.random.default_rng(n + N)
        a, b = ([1, 1j] @ rng.standard_normal((2, math.comb(n + N - 1, N))) for _ in range(2))
        ha, hb = manybody._apply_sector(cfg, a), manybody._apply_sector(cfg, b)
        scale = np.linalg.norm(a) * np.linalg.norm(hb)
        assert abs(np.vdot(a, hb) - np.conj(np.vdot(b, ha))) <= 1e-14 * scale

    @pytest.mark.parametrize("n,transforms", [(96, 0), (128, 2)])
    def test_the_sector_takes_the_fft_route_past_the_dense_axes(self, monkeypatch, n, transforms):
        cfg = ManyBodyConfig(GridSpec(1, n), 2, 0.05)
        c = BosonicState(cfg, self.symmetric(cfg, 5)).c  # tabulate outside the count
        calls = TestApplyHamiltonian._count_transforms(monkeypatch)
        manybody._apply_sector(cfg, c)
        assert len(calls) == transforms

    @pytest.mark.parametrize("d,n,N", [(1, 8, 1), (1, 8, 2), (1, 16, 4), (1, 8, 5), (2, 4, 3),
                                       (3, 4, 2), (1, 64, 2)])
    def test_round_trip_keeps_the_state_and_its_norm(self, d, n, N):
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        psi = self.symmetric(cfg, 3)
        c = BosonicState(cfg, psi).c
        assert c.size == math.comb(n**d + N - 1, N)
        assert np.abs(manybody._expand(cfg, c) - psi).max() <= 1e-14 * np.abs(psi).max()
        assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(psi), rel=1e-14)
        back = BosonicState(cfg, manybody._expand(cfg, c)).c
        assert np.abs(back - c).max() <= 1e-14 * np.abs(c).max()

    @pytest.mark.parametrize("d,n,N", [(1, 16, 1), (1, 8, 2), (1, 8, 3), (1, 16, 4), (2, 4, 3),
                                       (1, 64, 2)])
    def test_energy_and_moments_match_full_tensor_sums(self, d, n, N):
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        psi = BosonicState(cfg, self.normalized(cfg, self.symmetric(cfg, 4)))
        dv = cfg.grid.cell_volume**N
        h = apply_hamiltonian_raw(cfg, psi.amps)
        assert energy(psi) == pytest.approx(np.vdot(psi.amps, h).real * dv, rel=1e-13)
        v = psi.amps
        for k in range(4):
            want = np.vdot(psi.amps, v).real * dv
            assert energy_moment(psi, k) == pytest.approx(want, rel=1e-13)
            v = apply_hamiltonian_raw(cfg, v) / N + v

    @pytest.mark.parametrize("call", [
        lambda psi: propagate(psi, 0.1),
        lambda psi: propagate(psi, [0.0, 0.1]),
        energy,
        lambda psi: energy_moment(psi, 2),
    ], ids=["propagate", "dense_output", "energy", "energy_moment"])
    def test_a_state_the_sector_cannot_hold_is_rejected(self, call):
        # one entry off its exchange partners by 1e-10 max |psi| is not a
        # bosonic state; 1e-14 is rounding, and passes
        cfg = ManyBodyConfig(GridSpec(1, 8), 3, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid))
        for shift, rejected in [(1e-10, True), (1e-14, False)]:
            amps = psi.amps.copy()
            amps[0, 1, 2] += shift * np.abs(amps).max()
            if rejected:
                with pytest.raises(ValueError, match="not symmetric"):
                    call(BosonicState(cfg, amps))
            else:
                call(BosonicState(cfg, amps))

    @pytest.mark.parametrize("d,n,N", [(1, 8, 1), (1, 8, 2), (1, 8, 5), (1, 12, 4), (1, 16, 4),
                                       (2, 4, 3), (2, 8, 2), (3, 4, 2)])
    def test_factorized_is_the_compressed_tensor_power(self, d, n, N, monkeypatch):
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        phi = smooth_phi(cfg.grid, seed=n + N)
        want = BosonicState(cfg, manybody._tensor_power(manybody._unit_values(phi), N)).c

        def refuse(v, k):
            raise AssertionError("the tensor power was formed")

        monkeypatch.setattr(manybody, "_tensor_power", refuse)
        assert np.array_equal(BosonicState.factorized(cfg, phi).c, want)

    def test_propagate_returns_states_it_did_not_expand(self, monkeypatch):
        cfg = ManyBodyConfig(GridSpec(1, 8), 3, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid))

        def refuse(config, c):
            raise AssertionError("a state was expanded")

        with monkeypatch.context() as m:
            m.setattr(manybody, "_expand", refuse)
            states = propagate(psi, [0.0, 0.1, 0.2])
        assert states[0] is psi
        assert all("amps" not in vars(state) for state in states)
        amps = states[1].amps
        assert "amps" in vars(states[1]) and states[1].amps is amps

    @pytest.mark.parametrize("d,n,N", [(1, 8, 3), (2, 4, 3), (1, 6, 4)])
    def test_amps_is_read_only_with_equal_exchange_partners(self, d, n, N):
        # a propagated state, and one built from a tensor 1e-14 max |psi| off symmetric
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(d + n + N), band=2)
        near = psi.amps.copy()
        near[(0,) * (d * N - 1) + (1,)] *= 1.0 + 1e-14
        for state in (propagate(psi, 0.1), BosonicState(cfg, near)):
            amps = state.amps
            with pytest.raises(ValueError, match="read-only"):
                amps[(0,) * amps.ndim] = 1.0
            for s in range(N - 1):
                axes = list(range(d * N))
                swap = axes[(s + 1) * d : (s + 2) * d] + axes[s * d : (s + 1) * d]
                axes[s * d : (s + 2) * d] = swap
                assert np.array_equal(amps, amps.transpose(axes))

    def test_states_peak_below_a_few_full_tensors(self):
        # d=1 n=16 N=4 (a full tensor is 1 MiB, the sector vector 61 KiB), warm
        # tables: factorized forms no tensor power (0.36 tensors; 1.31 when it
        # compressed one), and propagate to three times expands none of its
        # states (2.19 tensors, the expand index and a compress's scratch; 4.43
        # when it expanded each)
        cfg = ManyBodyConfig(GridSpec(1, 16), 4, 0.05)
        phi = smooth_phi(cfg.grid, seed=9)
        full = 16 * cfg.grid.size**cfg.N
        energy(propagate(BosonicState.factorized(cfg, phi), 0.05))  # tabulate outside

        def peak(call):
            tracemalloc.start()
            try:
                out = call()
                return out, tracemalloc.get_traced_memory()[1] / full
            finally:
                tracemalloc.stop()

        psi, built = peak(lambda: BosonicState.factorized(cfg, phi))
        _, propagated = peak(lambda: propagate(psi, [0.05, 0.1, 0.15]))
        assert built <= 0.5
        assert propagated <= 3.0

    def test_cold_tables_build_no_expand_index(self):
        # d=1 n=8 N=7: the 8^7-entry expand index (16 MiB) is left to the full-tensor edge
        cfg = ManyBodyConfig(GridSpec(1, 8), 7, 0.0)
        manybody._sector.cache_clear()
        tracemalloc.start()
        try:
            manybody._sector(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_run_path_builds_no_expand_index(self):
        cfg = ManyBodyConfig(GridSpec(1, 16), 4, 0.05)
        manybody._expand_index.cache_clear()
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid, seed=9))
        energy(psi)
        energy(propagate(psi, [0.05, 0.1])[-1])
        assert manybody._expand_index.cache_info().currsize == 0

    def test_budget_bounds_the_peak_of_propagate(self, monkeypatch):
        # the fewbody shape d=1 n=16 N=4, from cold sector tables: the entries
        # check_run_budget charges bound what propagate allocates
        cfg = ManyBodyConfig(GridSpec(1, 16), 4, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid, seed=9))
        potential_mass(cfg)  # the interaction table has a budget line of its own
        charged, check = [], manybody.check_entries

        def spy(what, entries, name=None):
            if what.startswith("Chebyshev recurrence"):
                charged.append(entries)
            check(what, entries, name)

        monkeypatch.setattr(manybody, "check_entries", spy)
        manybody._sector.cache_clear()
        tracemalloc.start()
        try:
            propagate(psi, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(charged) == 1
        assert peak <= 16 * charged[0]


class TestPropagate:
    def test_identity_at_t0(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 2, 0.0)
        psi = BosonicState.factorized(cfg, smooth_phi(g))
        out = propagate(psi, 0.0)
        assert np.array_equal(out.amps, psi.amps)

    def test_zero_time_returns_the_state_itself(self):
        cfg = ManyBodyConfig(GridSpec(1, 8), 2, 0.0)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid))
        assert propagate(psi, 0.0) is psi
        zero, later = propagate(psi, [0.0, 0.1])
        assert zero is psi and later is not psi
        null = BosonicState(cfg, np.zeros(cfg.state_shape))
        assert propagate(null, [0.1, 0.2]) == [null, null]

    def test_free_factorized_matches_tensor_power(self):
        g = GridSpec(1, 16)
        cfg = ManyBodyConfig(g, 3, 0.0, GaussianPotential(amplitude=0.0))
        phi = smooth_phi(g, seed=4, band=3)
        psi = BosonicState.factorized(cfg, phi)
        t = 0.3
        out = propagate(psi, t)
        want = BosonicState.factorized(cfg, free_propagate(phi, t))
        err = np.abs(out.amps - want.amps).max()
        assert err <= 1e-9

    def test_norm_and_symmetry_preserved(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(5), band=2)
        out = propagate(psi, 0.4)
        assert abs(out.norm() - psi.norm()) <= 1e-10
        assert symmetry_residual(out) <= 1e-10

    def test_energy_drift_self_consistency(self):
        # energy is conserved, and two half flows agree with one flow beyond the tolerance
        g = GridSpec(1, 16)
        cfg = ManyBodyConfig(g, 3, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(g, seed=6))
        e0 = energy(psi)
        out = propagate(psi, 0.7)
        drift = abs(energy(out) - e0) / max(abs(e0), 1.0)
        assert drift <= 1e-8
        out2 = propagate(propagate(psi, 0.35), 0.35)
        assert np.abs(out.amps - out2.amps).max() <= 1e-8

    @pytest.fixture(scope="class")
    def dense_case(self):
        # d=1 n=8 N=3: dim 512, small enough for a dense matrix exponential
        cfg = ManyBodyConfig(GridSpec(1, 8), 3, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(8), band=3)
        eye = np.eye(psi.amps.size, dtype=np.complex128)
        H = np.stack(
            [apply_hamiltonian_raw(cfg, e.reshape(cfg.state_shape)).reshape(-1) for e in eye],
            axis=1,
        )
        return psi, H

    def test_meets_tol_against_dense_expm_d2(self):
        # d=2 n=6 N=2: dim 1,296, the kinetic part summed over both axes of each slot
        cfg = ManyBodyConfig(GridSpec(2, 6), 2, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(12), band=2)
        eye = np.eye(psi.amps.size, dtype=np.complex128)
        H = np.stack(
            [apply_hamiltonian_raw(cfg, e.reshape(cfg.state_shape)).reshape(-1) for e in eye],
            axis=1,
        )
        want = expm(-1j * 0.1 * H) @ psi.amps.reshape(-1)
        got = propagate(psi, 0.1).amps.reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_uncertifiable_series_raises_before_any_work(self, dense_case, monkeypatch):
        # T = 10^6 needs a degree past 1e-11 / eps: no H-apply, no coefficient array
        psi, _ = dense_case

        def refuse(*args):
            raise AssertionError("the series was started")

        monkeypatch.setattr(manybody, "_apply_sector", refuse)
        monkeypatch.setattr(manybody, "_chebyshev_coefficients", refuse)
        with pytest.raises(PropagationToleranceError):
            propagate(psi, 1e6)

    def test_an_earlier_time_equals_its_own_propagation(self, dense_case):
        psi, _ = dense_case
        inside, alone = propagate(psi, [0.37, 1.0])[0], propagate(psi, 0.37)
        assert np.linalg.norm(inside.c - alone.c) <= 1e-11 * np.linalg.norm(psi.c)

    @pytest.mark.parametrize("d,n,N,potential", [
        (1, 8, 1, GaussianPotential()),
        (1, 8, 2, GaussianPotential()),
        (1, 8, 3, GaussianPotential()),
        (2, 4, 2, GaussianPotential()),
        (1, 6, 3, ConstantPotential(2.0)),  # hi is the eigenvalue of the Nyquist mode
    ], ids=["N1", "N2", "N3", "d2", "constant"])
    def test_spectral_bounds_hold_the_sector_spectrum(self, d, n, N, potential):
        # the interval [0, 2 r] that the series sums over holds H's spectrum
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05, potential)
        dim = manybody._sector_dim(cfg.grid.size, N)
        H = np.stack([manybody._apply_sector(cfg, e) for e in np.eye(dim, dtype=np.complex128)],
                     axis=1)
        evals = np.linalg.eigvalsh(H)
        high = 2 * manybody._radius_bound(cfg)
        assert -1e-12 * high <= evals[0] and evals[-1] <= high * (1 + 1e-12)
        if isinstance(potential, ConstantPotential):
            assert evals[-1] == pytest.approx(high, rel=1e-12)

    @pytest.mark.parametrize("d,n,N,beta,potential", [
        (1, 8, 3, 0.05, GaussianPotential()),
        (1, 16, 5, 0.5, GaussianPotential()),
        (2, 8, 3, 0.05, GaussianPotential()),
        (3, 4, 3, 0.05, GaussianPotential()),
        (1, 8, 4, 0.0, GaussianPotential(sigma=3.0)),  # the support meets three copies
        (1, 8, 4, 0.3, ConstantPotential(2.0)),
    ], ids=["d1", "beta", "d2", "d3", "wide", "constant"])
    def test_radius_bound_holds_the_tabulated_radius(self, d, n, N, beta, potential):
        # [0, 2 r] holds the range of the tabulated diagonal plus the kinetic part
        cfg = ManyBodyConfig(GridSpec(d, n), N, beta, potential)
        diag = manybody._sector(cfg).diag
        low, high = diag.min(), N * d * (n / 2) ** 2 + diag.max()
        assert 0.0 <= low and high <= 2 * manybody._radius_bound(cfg) * (1 + 1e-12)

    @pytest.mark.parametrize("z", [0.5, 5.0, 50.0, 500.0, 5000.0])
    def test_cut_is_within_one_term_of_the_exact_tail(self, z):
        # the tail bound of the FFT coefficients against that of scipy's J_k(z)
        a = manybody._chebyshev_coefficients(z)
        k = np.arange(a.size)
        exact = np.where(k == 0, 1.0, 2.0) * np.abs(special.jv(k, z))
        want = manybody._degree(exact, 1e-11)
        assert want <= manybody._degree(a, 1e-11) <= want + 1

    @pytest.mark.parametrize("z", [0.0, 0.5, 5.0, 50.0, 500.0])
    def test_coefficients_match_the_bessel_functions(self, z):
        a = manybody._chebyshev_coefficients(z)
        k = np.arange(a.size)
        want = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * special.jv(k, z)
        assert np.abs(a - want).max() <= 4 * np.finfo(float).eps * (1.0 + z)
        assert abs(want[-1]) <= 1e-40  # the series is resolved past its last coefficient

    @pytest.fixture(scope="class")
    def dense_times(self, dense_case):
        # random sorted times in [0, 1] with 0 and a duplicate, and expm at each
        psi, H = dense_case
        times = np.sort(np.random.default_rng(17).uniform(0.0, 1.0, 5))
        times = np.concatenate([[0.0], times[:2], times[1:], [1.0]])
        return times, [expm(-1j * s * H) @ psi.amps.reshape(-1) for s in times]

    def test_dense_output_meets_tol_against_dense_expm(self, dense_case, dense_times):
        psi, _ = dense_case
        times, wants = dense_times
        got = propagate(psi, times)
        assert len(got) == len(times)
        for state, want in zip(got, wants):
            assert np.linalg.norm(state.amps.reshape(-1) - want) <= 1e-11 * np.linalg.norm(want)
        assert np.array_equal(propagate(psi, 0.6).amps, propagate(psi, [0.6])[-1].amps)

    @staticmethod
    def forbid_bases(monkeypatch):
        def build(*args):
            raise AssertionError("a series was summed")

        monkeypatch.setattr(manybody, "_chebyshev", build)

    @pytest.mark.parametrize("times", [
        [0.5, 0.2], [-0.1, 0.2], [[0.1, 0.2]],
        np.nan, np.inf, -np.inf, -0.1, [0.1, np.nan], [0.1, np.inf], [-np.inf, 0.1],
    ])
    def test_dense_output_needs_sorted_nonnegative_times(self, dense_case, times, monkeypatch):
        # scalars too: each time must be finite and >= 0, checked before any basis
        psi, _ = dense_case
        self.forbid_bases(monkeypatch)
        with pytest.raises(ValueError, match="finite times"):
            propagate(psi, times)

    @pytest.fixture(scope="class")
    def exhausted_case(self):
        # d=1 n=4 N=3: dim 64, a sector of 20 that the series runs far past
        cfg = ManyBodyConfig(GridSpec(1, 4), 3, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid, band=2))
        H = np.stack(
            [apply_hamiltonian_raw(cfg, e.reshape(cfg.state_shape)).reshape(-1)
             for e in np.eye(psi.amps.size, dtype=np.complex128)],
            axis=1,
        )
        return psi, H

    @pytest.mark.parametrize("case,T", [("dense_case", 0.1), ("dense_case", 1.0),
                                        ("dense_case", 3.0), ("exhausted_case", 0.1),
                                        ("exhausted_case", 1.0)])
    def test_one_series_meets_tol_against_dense_expm(self, request, case, T):
        psi, H = request.getfixturevalue(case)
        want = expm(-1j * T * H) @ psi.amps.reshape(-1)
        got = propagate(psi, T).amps.reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_cost_guard(self, monkeypatch):
        # d=1 n=16 N=4 (dim 65,536, sector dim 3,876), T=0.1: at most 100
        # H-applies (33 here), and a peak under 32 MiB: the flow forms no dense
        # operator, as the sector H alone would hold 229 MiB; the call peaks at 0.8 MiB
        g = GridSpec(1, 16)
        cfg = ManyBodyConfig(g, 4, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(g, seed=9))
        energy(psi)  # tabulate the Hamiltonian outside the measurement
        calls, apply = [], manybody._apply_sector

        def counting(*args, **kwargs):
            calls.append(1)
            return apply(*args, **kwargs)

        monkeypatch.setattr(manybody, "_apply_sector", counting)
        tracemalloc.start()
        try:
            propagate(psi, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) <= 100
        assert peak < 32 * 2**20


class TestEnergyMoment:
    def test_k0_is_normalization(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 2, 0.0)
        psi = BosonicState.factorized(cfg, smooth_phi(g, seed=7))
        assert energy_moment(psi, 0) == pytest.approx(1.0, abs=1e-12)

    def test_single_particle_plane_wave(self):
        g = GridSpec(1, 16)
        cfg = ManyBodyConfig(g, 1, 0.0)
        psi = BosonicState.factorized(cfg, TorusField.plane_wave(g, 2))
        for k in (1, 2, 3):
            assert energy_moment(psi, k) == pytest.approx(5.0**k, rel=1e-12)

    def test_k2_is_squared_norm(self):
        # dual route: <(H/N+1)^2> must equal ||(H/N+1) psi||^2
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(8), band=2)
        m2 = energy_moment(psi, 2)
        v = apply_hamiltonian(psi) / cfg.N + psi.amps
        direct = float(np.sum(np.abs(v) ** 2) * g.cell_volume**cfg.N)
        assert m2 == pytest.approx(direct, rel=1e-10)


class TestStability:
    def test_single_particle_free_equality(self):
        # for N=1, V=0 the first moment is exactly the weighted Sobolev norm
        g = GridSpec(1, 16)
        cfg = ManyBodyConfig(g, 1, 0.0, GaussianPotential(amplitude=0.0))
        psi = BosonicState.factorized(cfg, smooth_phi(g, seed=9))
        lhs = energy_moment(psi, 1)
        s1 = weighted_sobolev_norm_sq(psi, [1.0])
        assert lhs == pytest.approx(s1, rel=1e-12)

    def test_k1_satisfied_for_moderate_c1(self):
        g = GridSpec(1, 8)
        rng = np.random.default_rng(10)
        for beta in (0.0, 0.05, 0.1):
            cfg = ManyBodyConfig(g, 3, beta)
            for _ in range(10):
                psi = BosonicState.random_symmetric(cfg, rng, band=2)
                rec = stability_check(psi, 1, 0.5)
                assert rec["satisfied"]

    def test_k2_sampling_at_small_N(self):
        # sampling oracle at fixed small N; the large-N theorem is only
        # probed, so the minimum margin is reported via the record values
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.05)
        rng = np.random.default_rng(11)
        worst = np.inf
        for _ in range(50):
            psi = BosonicState.random_symmetric(cfg, rng, band=2)
            rec = stability_check(psi, 2, 0.5)
            assert rec["satisfied"]
            worst = min(worst, rec["lhs"] / rec["rhs"])
        assert worst >= 1.0


def _full_tensor_weighted_sobolev_norm_sq(psi, orders):
    """The weighted Sobolev norm as a full weight tensor times the full |c|^2."""
    grid, N = psi.config.grid, psi.config.N
    one = 1.0 + grids._xi_squared(grid.d, grid.n)
    w = np.ones(psi.config.state_shape)
    for s, a in enumerate(orders):
        if a:
            w = w * manybody._on_slot(one, s, N) ** (a / 2.0)
    coeffs = np.fft.fftn(psi.amps) / grid.size**N
    return float(grid.volume**N * np.sum(w**2 * np.abs(coeffs) ** 2))


def _spectral_weighted_sobolev_norm_sq(psi, orders):
    """The weighted Sobolev norm on the full tensor: each slot's weight
    (1+|xi_j|^2)^orders[j] multiplied in place into one real |c|^2."""
    grid, N = psi.config.grid, psi.config.N
    coeffs = np.fft.fftn(psi.amps)
    coeffs /= grid.size**N
    p = np.abs(coeffs)
    del coeffs
    np.square(p, out=p)
    one = 1.0 + grids._xi_squared(grid.d, grid.n)
    for s, a in enumerate(orders):
        if a != 0.0:
            p *= manybody._on_slot(one ** a, s, N)
    return float(grid.volume**N * np.sum(p))


class TestWeightedSobolevNorm:
    @pytest.mark.parametrize("d,n,N", [(1, 8, 1), (1, 8, 2), (1, 8, 3), (1, 16, 4), (1, 6, 5),
                                       (2, 4, 3), (2, 6, 2), (3, 4, 2)])
    def test_matches_the_spectral_full_tensor(self, d, n, N):
        # every last weighted slot k <= N, for stability_check's two order sets
        # and one of fractional orders
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.0)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(N + n), band=2)
        for k in range(1, N + 1):
            for orders in ([1.0] * k, [2.0] + [1.0] * (k - 1), [0.5] * (k - 1) + [3.0]):
                orders = orders + [0.0] * (N - k)
                want = _spectral_weighted_sobolev_norm_sq(psi, orders)
                assert weighted_sobolev_norm_sq(psi, orders) == pytest.approx(want, rel=1e-13,
                                                                              abs=0.0)

    @pytest.fixture
    def psi(self):
        cfg = ManyBodyConfig(GridSpec(1, 16), 4, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(3), band=4)
        psi.amps  # expanded before measuring
        return psi

    @pytest.mark.parametrize("orders", [[1.0, 1.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
                                        [1.0, 0.5, 0.25, 3.0]])
    def test_matches_the_full_weight_tensor(self, psi, orders):
        want = _full_tensor_weighted_sobolev_norm_sq(psi, orders)
        assert weighted_sobolev_norm_sq(psi, orders) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_holds_one_and_a_half_tensors(self, psi):
        # the transform and |c|^2 in one real half-tensor; the slot weights
        # broadcast, so no weight tensor is formed
        weighted_sobolev_norm_sq(psi, [2.0, 1.0, 0.0, 0.0])  # fills the memo tables
        tracemalloc.start()
        try:
            weighted_sobolev_norm_sq(psi, [2.0, 1.0, 0.0, 0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * psi.amps.nbytes


class TestFactorizedEnergyCombinatorics:
    def test_exact_per_particle_identity(self):
        # <H>/N for phi^(x)N equals kinetic + (N-1)(N-2)/(6 N^2) <Vbar>_phi;
        # the triple count per particle over N^2 fixes the 1/6 coefficient
        g = GridSpec(1, 8)
        phi = smooth_phi(g, seed=12)
        v = phi.values.reshape(-1)
        v = v / np.sqrt(np.sum(np.abs(v) ** 2) * g.cell_volume)
        dens = np.abs(v) ** 2 * g.cell_volume
        for N in (3, 4, 5):
            cfg = ManyBodyConfig(g, N, 0.0)
            vbar = triple_value_table(cfg)
            triple = float(np.einsum("a,b,c,abc->", dens, dens, dens, vbar))
            psi = BosonicState.factorized(cfg, phi)
            want = phi.gradient_l2_sq() + (N - 1) * (N - 2) / (6.0 * N**2) * triple
            assert energy_per_particle(psi) == pytest.approx(want, rel=1e-10)

    def test_per_particle_energy_converges(self):
        g = GridSpec(1, 8)
        phi = smooth_phi(g, seed=13)
        vals = []
        for N in (3, 4, 5):
            cfg = ManyBodyConfig(g, N, 0.0)
            vals.append(energy_per_particle(BosonicState.factorized(cfg, phi)))
        diffs = np.abs(np.diff(vals))
        assert diffs[1] < diffs[0]  # O(1/N) approach to the mean-field value
