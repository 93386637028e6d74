"""NLS solver: exactness on plane waves, conservation, energy bookkeeping."""

import tracemalloc

import numpy as np
import pytest

from quintlab import grids, nls
from quintlab.grids import (
    MEMORY_BUDGET, GridSpec, MemoryBudgetError, TorusField, _xi_squared, project_gt, project_leq,
)
from quintlab.nls import (
    BlowUpError,
    NlsConfig,
    Trajectory,
    energy_low_drift,
    energy_nls,
    energy_split,
    evolve,
    free_propagate,
    free_sample,
    frequency_diagnostics,
    plane_wave_solution,
    snapshot_row,
    strang_step,
    utfl_probe,
)


def smooth_random(grid, seed, band=None, scale=1.0):
    rng = np.random.default_rng(seed)
    band = band if band is not None else max(2, grid.n // 4)
    f = TorusField.random_band_limited(grid, band, rng, decay=2.0)
    return f * (scale / f.l2_norm())


class TestFreePropagate:
    def test_identity_at_t0(self):
        f = smooth_random(GridSpec(1, 16), 0)
        g = free_propagate(f, 0.0)
        assert np.array_equal(g.coefficients, f.coefficients)

    def test_eigenfunction(self):
        g = GridSpec(3, 8)
        f = TorusField.plane_wave(g, (2, 1, 0))
        t = 0.37
        got = free_propagate(f, t)
        want = np.exp(-1j * t * 5.0)
        assert abs(got.coefficients[2, 1, 0] - want) <= 1e-13

    def test_unitary(self):
        f = smooth_random(GridSpec(2, 16), 1)
        for t in (0.1, 1.0, 10.0):
            assert abs(free_propagate(f, t).l2_norm() - f.l2_norm()) <= 1e-13

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 8), (3, 16)])
    def test_per_axis_phases_match_dense_exponential(self, d, n):
        # oracle: one complex exponential per coefficient; at d = 1 the same
        # numbers are computed, otherwise only the rounding of the phase
        # argument t |xi|^2 differs (it stays below 50 here)
        f = smooth_random(GridSpec(d, n), 4, band=n // 2)
        for t in (0.005, 0.37):
            dense = f.coefficients * np.exp(-1j * t * _xi_squared(d, n))
            got = free_propagate(f, t).coefficients
            if d == 1:
                assert np.array_equal(got, dense)
            else:
                assert np.all(np.abs(got - dense) <= 1e-14 * np.abs(dense))

    @pytest.mark.parametrize("d,n", [(1, 8), (1, 10), (2, 6), (2, 16), (3, 8), (3, 10)])
    def test_phase_on_the_rotation_grid_is_the_resampled_phase(self, d, n):
        # the dealiased rotation grid, 2 ceil(3n/4) points, n = 0 and 2 (mod 4)
        m = 2 * ((3 * n + 3) // 4)
        for t in (0.005, 0.37):
            want = grids._resampled(nls._free_phase(d, n, t, n), m)
            assert np.array_equal(nls._free_phase(d, n, t, m), want)

    def test_band_kinetic_invariance(self):
        f = smooth_random(GridSpec(1, 32), 2, band=12)
        before = frequency_diagnostics(f, 4, 16)["high_kinetic"]
        after = frequency_diagnostics(free_propagate(f, 0.77), 4, 16)["high_kinetic"]
        assert abs(after - before) <= 1e-12 * max(before, 1.0)


def _all_complex_product(fields, t, n):
    """The product of free_sample(f, t, n) over the fields by one complex (n, s)
    matrix product per axis, the last first: the reference for the paired route."""
    out = 1.0
    for f in fields:
        s, d = f.grid.n, f.grid.d
        e = nls._synthesis_matrix(s, n) * nls._free_phase(1, s, t, s)
        b = f.coefficients
        if d > 1:
            b = b.reshape(-1, s) @ e.T
        for j in range(d - 2, 0, -1):
            b = np.matmul(e, b.reshape(s**j, s, -1))
        out = out * (e @ b.reshape(s, -1)).reshape((n,) * d)
    return out


class TestPairedSynthesis:
    """The +-xi pairs through the real cos/sin matrix against the all-complex
    per-axis products; both evaluate exp(i theta) at arguments below 2 pi,
    each to a few units of rounding of 2 pi."""

    @pytest.mark.parametrize("s", range(4, 36, 2))
    def test_cos_sin_times_pair_map_is_the_synthesis_matrix(self, s):
        # the synthesis matrix's +-xi columns are conjugate only to 1.1e-15,
        # so no real matrix meets it much closer than that
        for n in (s, s + 1, 2 * s + 1, 4 * s + 1):
            got = nls._cos_sin(s, n) @ nls._pair_map(s)
            assert np.abs(got - nls._synthesis_matrix(s, n)).max() <= 8 * np.finfo(float).eps
            h = s // 2  # label k and label -k (column s - k) are exact conjugates
            assert np.array_equal(got[:, 1:h], got[:, :h:-1].conj())

    @staticmethod
    def assert_matches(factors, t, n):
        want = _all_complex_product(factors, t, n)
        out = np.empty_like(want)
        got = nls._free_product([nls._paired(f) for f in factors], t, n, out,
                                np.empty_like(want) if len(factors) > 1 else None)
        assert got is out
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s,n", [(4, 4), (8, 21), (16, 33), (18, 25)])
    def test_matches_the_all_complex_product(self, d, s, n):
        rng = np.random.default_rng([d, s, n, 1])
        g = GridSpec(d, s)
        f = TorusField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        self.assert_matches([f], 0.37, n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_edge_label_alone(self, d):
        self.assert_matches([TorusField.from_modes(GridSpec(d, 8), {(-4,) * d: 1.0})], 0.37, 15)

    def test_factors_of_two_grid_sizes(self):
        # as in the bilinear probe: each size takes its own matrices
        fs = [smooth_random(GridSpec(3, s), 70 + s, band=s // 2) for s in (6, 10, 6)]
        self.assert_matches(fs, 0.61, 23)


class TestFreeSample:
    """free_sample against its definition: the free evolution resampled to n points."""

    @staticmethod
    def assert_matches(f, t, n, got):
        want = free_propagate(f, t).resample(n).values
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s,n", [(8, 8), (8, 20), (6, 16)])
    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0, -0.5])
    def test_matches_propagated_resampled_values(self, d, s, n, t):
        # every coefficient set, the -s/2 edge label included
        rng = np.random.default_rng([d, s, n])
        g = GridSpec(d, s)
        f = TorusField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        self.assert_matches(f, t, n, free_sample(f, t, n))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_edge_label_alone(self, d, t):
        f = TorusField.from_modes(GridSpec(d, 8), {(-4,) * d: 1.0})
        self.assert_matches(f, t, 14, free_sample(f, t, 14))

    def test_rejects_a_coarser_grid(self):
        with pytest.raises(ValueError):
            free_sample(smooth_random(GridSpec(2, 8), 0), 0.1, 6)

    def test_budget_charges_both_matrices_past_d_1(self, monkeypatch):
        # at s = 16, n = 2000: the complex (n, s) matrix alone fits 2^16 entries,
        # with the real (n, s+1) one beside it the two do not
        monkeypatch.setattr(grids, "MEMORY_BUDGET", 2**16)
        free_sample(smooth_random(GridSpec(1, 16), 0), 0.0, 2000)
        with pytest.raises(MemoryBudgetError, match="synthesis matrices"):
            free_sample(smooth_random(GridSpec(2, 16), 0), 0.0, 2000)

    def test_rejects_a_synthesis_matrix_past_the_budget(self):
        # at d = 1 the (n, s) matrix is larger than the n samples
        f = smooth_random(GridSpec(1, 4096), 0, band=8)
        assert 4100 * 4096 > MEMORY_BUDGET
        with pytest.raises(MemoryBudgetError):
            free_sample(f, 0.0, 4100)


class TestStrangStep:
    def test_linear_limit(self):
        g = GridSpec(1, 16)
        cfg = NlsConfig(g, b0=0.0, dt=0.05)
        f = smooth_random(g, 3)
        a = strang_step(f, cfg)
        b = free_propagate(f, cfg.dt)
        assert np.abs(a.coefficients - b.coefficients).max() <= 1e-14

    def test_zero_field(self):
        g = GridSpec(1, 16)
        cfg = NlsConfig(g, b0=1.0, dt=0.05)
        out = strang_step(TorusField.zero(g), cfg)
        assert out.l2_norm() == 0.0

    @pytest.mark.parametrize("d,n", [(1, 6), (1, 10), (2, 30)])
    def test_dealias_grid_for_n_2_mod_4(self, d, n):
        # 3n/2 is odd for these n, so the padded grid rounds up to an even size
        g = GridSpec(d, n)
        f = smooth_random(g, 6, band=1)
        out = strang_step(f, NlsConfig(g, b0=1.0, dt=0.01))
        assert out.grid == g
        assert abs(out.l2_norm() - f.l2_norm()) <= 1e-6 * f.l2_norm()

    def test_large_dealiased_line_allocates_only_line_sized_arrays(self):
        # the upsample to the 6144-point rotation grid is one inverse transform;
        # a (6144, 4096) synthesis matrix would hold 25M entries, past the budget
        g = GridSpec(1, 4096)
        f = smooth_random(g, 2, band=200)
        tracemalloc.start()
        try:
            out = evolve(f, 2e-3, NlsConfig(g, b0=1.0, dt=1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(out.states[-1].l2_norm() - f.l2_norm()) <= 1e-6 * f.l2_norm()
        assert peak <= 32 * 6144 * 16 < MEMORY_BUDGET * 16

    def test_second_order_refinement(self):
        # Richardson oracle: reference from a dt/64 run; global error at T
        # must shrink by ~4 when dt halves.
        g = GridSpec(1, 32)
        f0 = smooth_random(g, 4, band=6)
        T = 0.1
        errs = []
        for dt in (T / 10, T / 20):
            cfg = NlsConfig(g, b0=1.0, dt=dt)
            u = evolve(f0, T, cfg, snapshot_every=int(round(T / dt))).states[-1]
            ref_cfg = NlsConfig(g, b0=1.0, dt=dt / 64)
            ref = evolve(f0, T, ref_cfg, snapshot_every=int(round(T / (dt / 64)))).states[-1]
            errs.append(np.abs(u.coefficients - ref.coefficients).max())
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0


def _unmerged_step(f, b0, dt, dealias):
    """Oracle: one Strang step N(dt/2) L(dt) N(dt/2) with both half rotations
    applied on their own through TorusFields, with dealias on the 3n/2 grid."""

    def half_rotation(g):
        fine = g.resample(2 * ((3 * g.grid.n + 3) // 4)) if dealias else g
        v = fine.values
        theta = b0 * dt / 2 * np.abs(v) ** 4
        rotated = TorusField.from_values(fine.grid, np.exp(-1j * theta) * v)
        return rotated.resample(g.grid.n) if dealias else rotated

    return half_rotation(free_propagate(half_rotation(f), dt))


class TestMergedSteps:
    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 8)])
    def test_chunk_equals_single_steps_without_dealiasing(self, d, n):
        # N keeps |u|, so N(dt/2) N(dt/2) = N(dt): merging changes only rounding
        g = GridSpec(d, n)
        cfg = NlsConfig(g, b0=1.0, dt=0.01, dealias=False)
        f = smooth_random(g, 8, band=n // 4, scale=2.0)
        for k in (2, 7):
            single = f
            for _ in range(k):
                single = strang_step(single, cfg)
            merged = strang_step(f, cfg, steps=k).coefficients
            rel = np.linalg.norm(merged - single.coefficients) / np.linalg.norm(merged)
            assert rel <= 1e-13

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dealiased_merge_is_as_accurate_as_unmerged_steps(self, seed):
        # a band-6 datum of norm 2 on n=32, against the same flow resolved on
        # n=512; with dealiasing merging moves the result, not its accuracy
        rng = np.random.default_rng([seed, 1])
        f = TorusField.random_band_limited(GridSpec(1, 32), 6, rng)
        f = f * (2.0 / f.l2_norm())
        fine, coarse = f.resample(512), f
        for _ in range(500):
            fine = _unmerged_step(fine, 1.0, 1e-3, dealias=False)
            coarse = _unmerged_step(coarse, 1.0, 1e-3, dealias=True)
        ref = fine.resample(32).coefficients
        merged = evolve(f, 0.5, NlsConfig(f.grid, 1.0, 1e-3), snapshot_every=500).states[-1]
        err_merged = np.linalg.norm(merged.coefficients - ref)
        err_unmerged = np.linalg.norm(coarse.coefficients - ref)
        assert err_merged <= 1.05 * err_unmerged

    @pytest.mark.parametrize("d,n", [(1, 32), (1, 30), (2, 16), (2, 14), (3, 8), (3, 6)])
    def test_dealiased_step_equals_unmerged_oracle(self, d, n):
        # full-band data: the rotation spills past the n-band, and the -n/2
        # label is occupied, so this pins where the dealias projection sits
        g = GridSpec(d, n)
        f = TorusField.random_band_limited(g, n // 2, np.random.default_rng([d, n]))
        f = f * (1.0 / f.l2_norm())
        got = strang_step(f, NlsConfig(g, 1.0, 0.01)).coefficients
        want = _unmerged_step(f, 1.0, 0.01, dealias=True).coefficients
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_rotation_matches_complex_exponential(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((16, 16, 16)) + 1j * rng.standard_normal((16, 16, 16))
        b0, tau = 1.3, 0.005
        want = np.exp(-1j * b0 * tau * (v.real**2 + v.imag**2) ** 2) * v
        got = v.copy()
        nls._rotate(got, lambda a: b0 * a**2, tau, np.empty_like(v))
        assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()

    def test_rotation_at_extreme_phases(self):
        # theta = 0, theta/2 on and next to the poles of tan at +-pi/2 and
        # +-3pi/2, and |theta| up to 1e3
        half = [0.0]
        for pole in (np.pi / 2, -np.pi / 2, 1.5 * np.pi, -1.5 * np.pi):
            below = above = pole
            for _ in range(3):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                half += [below, above]
            half.append(pole)
        rng = np.random.default_rng(5)
        theta = rng.uniform(-1e3, 1e3, 1000)
        theta[: len(half)] = 2.0 * np.array(half)
        v = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        want = np.exp(1j * theta) * v
        got = v.copy()
        nls._rotate(got, lambda a: -theta, 1.0, np.empty_like(v))
        assert np.abs(got - want).max() <= 4e-16 * np.abs(v).max()

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_chunk_takes_one_fft_pair_per_step(self, monkeypatch, k):
        g = GridSpec(2, 16)
        f = TorusField.from_values(g, smooth_random(g, 10).values)  # samples cached
        calls = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                calls.append(fn.__name__)
                return fn(a, *args, **kwargs)

            return wrapper

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        strang_step(f, NlsConfig(g, 1.0, 0.01, dealias=False), steps=k)
        assert len(calls) == 2 * k + 1  # a pair per step, one to leave the sample space

    def test_steps_is_keyword_only(self):
        g = GridSpec(1, 16)
        with pytest.raises(TypeError):
            strang_step(smooth_random(g, 0), NlsConfig(g, 1.0, 0.01), 2)


class TestDenseFreeStep:
    # Dealiased rotation grids of at most nls._DENSE_FREE_MAX_M points per
    # axis take the free step as per-axis products with one dense propagator;
    # with the constant set to 0 every grid takes the FFT pair.

    @pytest.mark.parametrize("d,n", [(1, 8), (1, 30), (1, 32), (2, 14), (2, 16), (2, 30),
                                     (3, 6), (3, 8), (3, 32)])
    def test_dense_route_equals_the_fft_route(self, monkeypatch, d, n):
        # full-band data, so the rotation spills past the n-band and the -n/2
        # label is occupied; n = 30 and 14 give 3n/2 odd, rounded up.  With
        # d or the step count even the samples end where they started.
        assert nls._rotation_n(n, True) <= nls._DENSE_FREE_MAX_M
        g = GridSpec(d, n)
        f = TorusField.random_band_limited(g, n // 2, np.random.default_rng([d, n, 1]))
        f = f * (2.0 / f.l2_norm())
        cfg = NlsConfig(g, 1.0, 0.01)
        got = [strang_step(f, cfg, steps=k).coefficients for k in (4, 5)]
        monkeypatch.setattr(nls, "_DENSE_FREE_MAX_M", 0)
        for k, dense in zip((4, 5), got):
            want = strang_step(f, cfg, steps=k).coefficients
            assert np.linalg.norm(dense - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("d,n,per_step", [(2, 16, 0), (1, 32, 0), (1, 34, 2)])
    def test_fft_calls_per_step(self, monkeypatch, k, d, n, per_step):
        # the rotation grids hold 24, 48 and 52 points per axis: the dense
        # route makes no transform per step, nor to build its propagator
        nls._propagator.cache_clear()
        calls = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                calls.append(fn.__name__)
                return fn(a, *args, **kwargs)

            return wrapper

        g = GridSpec(d, n)
        f = smooth_random(g, 11)
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        strang_step(f, NlsConfig(g, 1.0, 0.01), steps=k)
        # one transform to enter the rotation grid's samples, one to leave them
        assert len(calls) == per_step * k + 2
        assert calls[0] == "ifftn" and calls[-1] == "fftn"

    def test_dense_route_allocates_only_real_scratch(self):
        # the FFT route's complex phase buffer is a whole grid on a one-chunk
        # grid; the dense route keeps the real scratch of the rotation alone
        m = nls._rotation_n(16, True)
        rng = np.random.default_rng(12)
        v = 0.1 * (rng.standard_normal((m,) * 3) + 1j * rng.standard_normal((m,) * 3))
        z = np.empty_like(v)
        nls._strang(v, z, 16, 0.01, 3, nls._quintic(1.0))  # builds the propagator
        tracemalloc.start()
        try:
            nls._strang(v, z, 16, 0.01, 3, nls._quintic(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.55 * v.nbytes


class TestEvolve:
    def test_t0_single_snapshot(self):
        g = GridSpec(1, 16)
        f = smooth_random(g, 5)
        traj = evolve(f, 0.0, NlsConfig(g, 1.0, 0.01))
        assert len(traj) == 1
        assert np.array_equal(traj.states[0].coefficients, f.coefficients)

    def test_plane_wave_phase(self):
        # analytic solution oracle: A exp(i(xi.x - w t)), w = |xi|^2 + b0 A^4
        g = GridSpec(1, 16)
        A, xi, b0 = 0.8, 2, 1.3
        f0 = TorusField.plane_wave(g, xi, A)
        dt, T = 0.01, 0.5
        traj = evolve(f0, T, NlsConfig(g, b0, dt), snapshot_every=50)
        exact = plane_wave_solution(g, xi, A, b0, T)
        err = np.abs(traj.states[-1].coefficients - exact.coefficients).max()
        # the splitting is exact on plane waves (both substeps act as the
        # uniform exact phase), so only rounding remains
        assert err <= 5e-13

    def test_mass_conservation_over_1000_steps(self):
        # resolved run: spectral tail stays near rounding, so the dealias
        # truncation sheds no measurable mass and both substeps are unitary
        g = GridSpec(1, 32)
        f0 = smooth_random(g, 6, band=3)
        cfg = NlsConfig(g, b0=1.0, dt=1e-3)
        traj = evolve(f0, 1.0, cfg, snapshot_every=100)
        m0 = f0.l2_norm()
        drift = max(abs(u.l2_norm() - m0) for u in traj.states) / m0
        assert drift < 1e-11
        assert traj.states[-1].spectral_tail(12) < 1e-7

    def test_rejects_incommensurate_horizon(self):
        g = GridSpec(1, 16)
        with pytest.raises(ValueError):
            evolve(smooth_random(g, 7), 0.305, NlsConfig(g, 1.0, 0.01))

    @pytest.mark.parametrize("T,every,name", [(-0.02, 1, "T"), (-0.02, 2, "T"),
                                              (0.02, 0, "snapshot_every"),
                                              (0.02, -1, "snapshot_every")])
    def test_rejects_negative_horizon_and_snapshot_stride(self, T, every, name):
        # each was a step count of -2, a datum-only trajectory, no rows or a zero range step
        g = GridSpec(1, 16)
        cfg = NlsConfig(g, 1.0, 0.01)
        for run in (lambda: nls.check_step_count(T, 0.01, every),
                    lambda: evolve(smooth_random(g, 7), T, cfg, snapshot_every=every),
                    lambda: nls.timeseries(smooth_random(g, 7), T, cfg, every, 2, [2])):
            with pytest.raises(grids.ParameterError) as info:
                run()
            assert info.value.name == name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_diagnostic(self):
        g = GridSpec(1, 16)
        f = TorusField.from_values(g, np.full(16, np.inf + 0j))
        with pytest.raises(BlowUpError):
            evolve(f, 0.02, NlsConfig(g, 1.0, 0.01))



class TestEnergy:
    def test_zero(self):
        assert energy_nls(TorusField.zero(GridSpec(1, 8)), 1.0) == 0.0

    def test_plane_wave_linear(self):
        g = GridSpec(3, 8)
        f = TorusField.plane_wave(g, (1, 0, 0))
        assert abs(energy_nls(f, 0.0) - (2 * np.pi) ** 3) <= 1e-10

    def test_plane_wave_with_coupling(self):
        g = GridSpec(3, 8)
        f = TorusField.plane_wave(g, (1, 0, 0))
        want = (2 * np.pi) ** 3 * (1.0 + 1.0 / 3.0)
        assert abs(energy_nls(f, 1.0) - want) <= 1e-10


class TestEnergySplit:
    def test_low_pass_field(self):
        g = GridSpec(1, 32)
        f = smooth_random(g, 8, band=4)
        e_l, e_h = energy_split(f, 4, 1.0)
        assert abs(e_h) <= 1e-12 * max(abs(e_l), 1.0)
        assert e_l == pytest.approx(energy_nls(f, 1.0), rel=1e-12)

    def test_high_pass_field(self):
        g = GridSpec(1, 32)
        rng = np.random.default_rng(9)
        f = project_gt(TorusField.random_band_limited(g, 12, rng), 4)
        e_l, e_h = energy_split(f, 4, 1.0)
        want = f.gradient_l2_sq() + (1.0 / 3.0) * np.sum(np.abs(f.values) ** 6) * f.grid.cell_volume
        assert e_h == pytest.approx(want, rel=1e-11)
        assert abs(e_l) <= 1e-11 * abs(e_h)

    def test_split_identity(self):
        f = smooth_random(GridSpec(1, 32), 10, band=12)
        e = energy_nls(f, 2.0)
        for m in (2, 4, 8):
            e_l, e_h = energy_split(f, m, 2.0)
            assert e_l + e_h == pytest.approx(e, rel=1e-12)

    def test_one_high_factor_terms_leave_third_order(self):
        # E_H - ||grad P_H phi||^2 holds the sextic terms with three or more
        # high factors, so scaling P_H phi by eps scales it by eps^3
        g = GridSpec(1, 32)
        low = smooth_random(g, 15, band=4)
        high = project_gt(smooth_random(g, 16, band=12), 4)
        rest = []
        for eps in (1e-1, 1e-2):
            e_l, e_h = energy_split(low + high * eps, 4, 1.0)
            rest.append(e_h - (high * eps).gradient_l2_sq())
        assert abs(rest[1]) <= 2e-3 * abs(rest[0])

    def test_high_energy_keeps_its_third_order_at_small_scale(self):
        # E_H is summed directly, not as E - E_L: at eps = 1e-6 its sextic
        # part, of order eps^3, lies far below the rounding of E
        g = GridSpec(1, 32)
        low = smooth_random(g, 15, band=4)
        high = project_gt(smooth_random(g, 16, band=12), 4)
        rest = []
        for eps in (1e-5, 1e-6):
            e_l, e_h = energy_split(low + high * eps, 4, 1.0)
            rest.append(e_h - (high * eps).gradient_l2_sq())
        assert rest[1] == pytest.approx(1e-3 * rest[0], rel=1e-3, abs=0.0)

    def test_sextic_part_is_homogeneous_of_degree_six(self):
        f = smooth_random(GridSpec(1, 32), 17, band=12)

        def sextic_low(g):
            return energy_split(g, 4, 1.0)[0] - project_leq(g, 4).gradient_l2_sq()

        assert sextic_low(f * 2.0) == pytest.approx(64.0 * sextic_low(f), rel=1e-12)


def _row_oracle(f, split_m, diag_ms, b0):
    """The snapshot row from projected fields: two inverse transforms, |u|^6
    as np.abs(values)**6, E_H = E - E_L, the high kinetic energies from
    project_gt and gradient_l2_sq."""
    cell = f.grid.cell_volume
    vl, vh = project_leq(f, split_m).values, project_gt(f, split_m).values
    a, z = np.abs(vl) ** 2, np.conj(vl) * vh
    sextic_low = np.sum(a**3 + 6 * a**2 * z.real + 9 * a**2 * np.abs(vh) ** 2 + 6 * a * (z**2).real)
    e = f.gradient_l2_sq() + b0 / 3 * np.sum(np.abs(f.values) ** 6) * cell
    e_low = project_leq(f, split_m).gradient_l2_sq() + b0 / 3 * sextic_low * cell
    return [f.l2_norm(), e, e_low, e - e_low] + [
        project_gt(f, m).gradient_l2_sq() for m in diag_ms
    ]


class TestSnapshotRow:
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 12)])
    def test_matches_projected_field_oracle(self, d, n, dealias):
        g = GridSpec(d, n)
        f0 = smooth_random(g, 20 + d, band=3 * n // 8, scale=2.0)
        u = evolve(f0, 0.02, NlsConfig(g, 1.0, 0.01, dealias)).states[-1]
        split_m, diag_ms = n // 4, [1, n // 4]
        got = snapshot_row(u, split_m, diag_ms, 1.5)
        want = _row_oracle(u, split_m, diag_ms, 1.5)
        assert abs(got[3] - want[3]) <= 1e-13 * want[1]
        del got[3], want[3]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("split_m", [2, 8, 24])
    def test_split_sums_to_energy_nls_to_one_rounding(self, seed, split_m):
        # E_NLS is energy_nls bit for bit, and the larger of E_L, E_H is E minus
        # the smaller: an energy balance over a run (acceptance criterion 4)
        # then loses nothing to the rounding of the split
        g = GridSpec(1, 128)
        f = smooth_random(g, seed, band=48, scale=2.0)
        e, e_low, e_high = snapshot_row(f, split_m, (), 1.0)[1:]
        assert e == energy_nls(f, 1.0)
        assert abs(e_low + e_high - e) <= np.spacing(e)

    def test_one_inverse_transform_on_cached_values(self, monkeypatch):
        g = GridSpec(3, 8)
        u = TorusField.from_values(g, smooth_random(g, 3).values)
        calls, ifftn = [], np.fft.ifftn

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return ifftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", counting)
        monkeypatch.setattr(np.fft, "fftn", None)
        snapshot_row(u, 2, [1, 2, 4], 1.0)
        assert calls == [g.shape]


class TestTimeseries:
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("d,n,band,every", [(1, 6, 2, 1), (1, 10, 3, 2), (1, 64, 24, 2),
                                                (2, 16, 6, 1), (2, 16, 6, 2), (2, 30, 8, 2),
                                                (3, 8, 2, 1), (3, 12, 4, 3)])
    def test_rows_are_the_rows_of_the_evolved_states(self, d, n, band, every, dealias):
        # oracle: evolve holds every state, and each row is snapshot_row of one;
        # at n = 6, 10 and 30, 3n/2 is odd and the rotation grid rounds it up
        g = GridSpec(d, n)
        cfg = NlsConfig(g, 1.0, 0.01, dealias)
        split_m, diag_ms = max(1, n // 4), [1, n // 4]
        traj = evolve(smooth_random(g, 30 + d, band=band), 0.06, cfg, snapshot_every=every)
        want = [[t] + snapshot_row(u, split_m, diag_ms, cfg.b0)
                for t, u in zip(traj.times, traj.states)]
        got = nls.timeseries(smooth_random(g, 30 + d, band=band), 0.06, cfg, every, split_m,
                             diag_ms)
        assert got == want  # bit for bit

    @pytest.mark.parametrize("dealias", [False, True])
    def test_a_field_made_from_samples_starts_from_them(self, dealias):
        # the first row and, without dealias, the first step take the cached
        # samples, which differ from the coefficients' transform in the last bits
        g = GridSpec(2, 16)
        f = TorusField.from_values(g, smooth_random(g, 4, band=6).values[::-1])
        cfg = NlsConfig(g, 1.0, 0.01, dealias)
        traj = evolve(f, 0.04, cfg, snapshot_every=2)
        want = [[t] + snapshot_row(u, 4, [4], 1.0) for t, u in zip(traj.times, traj.states)]
        assert nls.timeseries(f, 0.04, cfg, 2, 4, [4]) == want

    def test_t0_is_one_row(self):
        g = GridSpec(1, 16)
        f = smooth_random(g, 5)
        for dealias in (False, True):
            assert nls.timeseries(f, 0.0, NlsConfig(g, 1.0, 0.01, dealias), 1, 2, [2]) == [
                [0.0] + snapshot_row(f, 2, [2], 1.0)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dealias", [False, True])
    def test_blowup_diagnostic(self, dealias):
        g = GridSpec(1, 16)
        f = TorusField.from_values(g, np.full(16, np.inf + 0j))
        with pytest.raises(BlowUpError, match="non-finite state at t=0.01"):
            nls.timeseries(f, 0.02, NlsConfig(g, 1.0, 0.01, dealias), 1, 2, [2])


def _full_array_row(g, z, v, split_m, diag_ms, b0):
    """The snapshot row with every sum taken over the whole grid at once, as
    on a one-chunk grid.  z is overwritten."""
    xi2 = _xi_squared(g.d, g.n)
    low = grids._mask_leq(g.d, g.n, split_m)
    mass = float(np.sqrt(g.volume * np.sum(np.abs(z) ** 2)))
    w = (z.real**2 + z.imag**2) * xi2

    def kinetic(mask):
        return g.volume * float(np.sum(w, where=mask))

    k_low, k_high = kinetic(low), kinetic(~low)
    high_kinetic = [kinetic(~grids._mask_leq(g.d, g.n, m)) for m in diag_ms]
    s = v.real**2 + v.imag**2
    c = b0 / 3.0 * g.cell_volume
    e = g.volume * float(np.sum(w)) + c * float(np.vdot(s, s * s))
    vl = np.fft.ifftn(z * low) * g.size
    vh = v - vl
    r = 2.0 * (vl.real * vh.real + vl.imag * vh.imag)
    a = vl.real**2 + vl.imag**2
    h = vh.real**2 + vh.imag**2
    q = r + h
    sextic_low = float(np.vdot(a, (3.0 * q + a) * a + 3.0 * r * r))
    sextic_high = float(np.vdot(h, 3.0 * a * (r + q) + 3.0 * r * q + h * h) + np.vdot(r * r, r))
    e_low, e_high = k_low + c * sextic_low, k_high + c * sextic_high
    if abs(e_low) <= abs(e_high):
        e_high = e - e_low
    else:
        e_low = e - e_high
    return [mass, e, e_low, e_high] + high_kinetic


class TestChunks:
    # Grids past nls._SPLIT entries run everything pointwise over chunks of
    # first-axis rows; with the constants set low, small grids take that path.

    @staticmethod
    def split(monkeypatch, chunk):
        monkeypatch.setattr(nls, "_SPLIT", 0)
        monkeypatch.setattr(nls, "_CHUNK", chunk)

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("chunk", [1, 300, 700])
    def test_chunked_kernel_is_the_one_chunk_kernel(self, monkeypatch, chunk, dealias):
        # rows of 144 (n = 12) or 324 (the 18-point rotation grid) entries:
        # chunks of one row, of a few rows, and with a shorter last chunk
        g = GridSpec(3, 12)
        f = smooth_random(g, 40, band=5, scale=3.0)
        cfg = NlsConfig(g, 1.0, 0.01, dealias)
        want = strang_step(f, cfg, steps=3)
        self.split(monkeypatch, chunk)
        assert len(list(nls._chunked((nls._rotation_n(12, dealias),) * 3))) > 1
        got = strang_step(f, cfg, steps=3)
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("d,n,chunk", [(1, 64, 10), (2, 16, 40), (3, 12, 300)])
    def test_chunked_rows_match_the_full_array_sums(self, monkeypatch, d, n, chunk, dealias):
        g = GridSpec(d, n)
        cfg = NlsConfig(g, 1.0, 0.01, dealias)
        f0 = smooth_random(g, 41, band=3 * n // 8, scale=2.0)
        traj = evolve(f0, 0.04, cfg, snapshot_every=2)
        want = [[t] + _full_array_row(g, np.array(u.coefficients), u.values, n // 4, [1, n // 4], 1.0)
                for t, u in zip(traj.times, traj.states)]
        self.split(monkeypatch, chunk)
        got = nls.timeseries(f0, 0.04, cfg, 2, n // 4, [1, n // 4])
        assert np.array(got) == pytest.approx(np.array(want), rel=1e-14, abs=0.0)
        u = traj.states[-1]
        assert snapshot_row(u, n // 4, (), 1.0)[1] == energy_nls(u, 1.0)

    @pytest.mark.parametrize("shape,n", [((96, 96), 64), ((48, 48, 48), 32)])
    def test_rotation_blocks_are_the_one_block_rotation(self, monkeypatch, shape, n):
        # the 96^2 grid takes the FFT route in 2 blocks, the 48^3 grid the dense
        # propagator in 12; a _CHUNK past the grid makes one block
        rng = np.random.default_rng(len(shape))
        v0 = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        runs = []
        for chunk in (nls._CHUNK, 2**30):
            monkeypatch.setattr(nls, "_CHUNK", chunk)
            v, z = v0.copy(), np.empty_like(v0)
            nls._strang(v, z, n, 0.01, 3, nls._quintic(1.0))
            runs.append((v, z))
        (v, z), (v1, z1) = runs
        assert np.array_equal(z, z1) and np.array_equal(v, v1)

    @pytest.mark.parametrize("d,n", [(1, 8192), (2, 90), (3, 20), (2, 16)])
    def test_rate_sees_the_whole_grid_up_to_chunk_entries(self, d, n):
        # a rate that is not pointwise, as mean_field_flow's Hartree rate, whose
        # m^3 table caps its grid at m <= 256 points
        assert n**d <= nls._CHUNK and round(MEMORY_BUDGET ** (1 / 3)) <= nls._CHUNK
        g, shapes = GridSpec(d, n), []

        def rate(a):
            shapes.append(a.shape)
            return a

        nls._split_steps(smooth_random(g, 3), 0.01, 2, rate, dealias=False)
        assert len(shapes) == 3 and set(shapes) == {g.shape}  # N(dt/2) N(dt) N(dt/2)

    @pytest.mark.parametrize("dealias", [False, True])
    def test_timeseries_copies_its_datum_unless_told_to_take_it(self, dealias):
        g = GridSpec(2, 16)
        cfg = NlsConfig(g, 1.0, 0.01, dealias)
        for make in (lambda: smooth_random(g, 43, band=6),
                     lambda: TorusField.from_values(g, np.ones(g.shape))):
            f = make()
            coefficients, values = f.coefficients.copy(), f.values.copy()
            rows = nls.timeseries(f, 0.04, cfg, 2, 4, [4])
            assert f.coefficients.tobytes() == coefficients.tobytes()
            assert f.values.tobytes() == values.tobytes()
            assert nls.timeseries(make(), 0.04, cfg, 2, 4, [4], take=True) == rows


class TestFrequencyDiagnostics:
    def test_band_limited_high_is_zero(self):
        f = smooth_random(GridSpec(1, 32), 12, band=4)
        assert frequency_diagnostics(f, 4, 8)["high_kinetic"] <= 1e-24

    def test_plane_wave_intermediate(self):
        g = GridSpec(1, 32)
        f = TorusField.plane_wave(g, 6)
        got = frequency_diagnostics(f, 4, 8)["intermediate_kinetic"]
        assert got == pytest.approx(36.0 * 2 * np.pi, rel=1e-12)

    def test_monotone_in_m(self):
        f = smooth_random(GridSpec(1, 64), 13, band=30)
        vals = [frequency_diagnostics(f, m, 32)["high_kinetic"] for m in (2, 4, 8, 16)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestUtflProbe:
    def test_band_limited_returns_small_m(self):
        g = GridSpec(1, 32)
        f0 = smooth_random(g, 14, band=4)
        traj = evolve(f0, 0.1, NlsConfig(g, 1.0, 0.01), snapshot_every=2)
        m = utfl_probe(traj, eps=1e-3)
        assert m is not None and m <= g.nyquist

    def test_plane_wave_determined_by_datum(self):
        # analytic oracle: along the exact plane-wave solution the high
        # kinetic norm is constant in time, so M(eps) depends on f0 only
        g = GridSpec(1, 32)
        f0 = TorusField.plane_wave(g, 3, 0.7)
        traj = evolve(f0, 0.2, NlsConfig(g, 1.0, 0.01), snapshot_every=5)
        norm0 = np.sqrt(frequency_diagnostics(f0, 2, 16)["high_kinetic"])
        eps_between = 0.5 * norm0
        m = utfl_probe(traj, eps_between)
        assert m == 4  # first dyadic cutoff with the xi=3 mode below it

    def test_monotone_in_eps(self):
        g = GridSpec(1, 32)
        f0 = smooth_random(g, 15, band=10)
        traj = evolve(f0, 0.1, NlsConfig(g, 1.0, 0.01), snapshot_every=5)
        m_small = utfl_probe(traj, 1e-4)
        m_big = utfl_probe(traj, 1e-1)
        if m_small is not None and m_big is not None:
            assert m_big <= m_small

    def test_under_resolved_returns_none(self):
        g = GridSpec(1, 8)
        rng = np.random.default_rng(16)
        f0 = TorusField.random_band_limited(g, 4, rng)
        traj = Trajectory(np.array([0.0]), [f0], NlsConfig(g, 0.0, 0.01))
        assert utfl_probe(traj, eps=1e-12) is None


class TestEnergyLowDrift:
    def test_linear_flow_preserves_band_energy(self):
        g = GridSpec(1, 32)
        f0 = smooth_random(g, 17, band=12)
        traj = evolve(f0, 0.2, NlsConfig(g, 0.0, 0.01), snapshot_every=4)
        out = energy_low_drift(traj, 4)
        assert out["max_rate"] < 1e-8

    def test_stationary_plane_wave(self):
        g = GridSpec(1, 32)
        f0 = TorusField.plane_wave(g, 3, 0.9)
        traj = evolve(f0, 0.2, NlsConfig(g, 1.0, 0.005), snapshot_every=8)
        out = energy_low_drift(traj, 2)
        assert out["max_rate"] < 1e-6

    def test_conservation_transfer(self):
        # E_H(t) - E_H(0) = -(E_L(t) - E_L(0)) up to total-energy drift
        g = GridSpec(1, 32)
        f0 = smooth_random(g, 18, band=10, scale=1.5)
        cfg = NlsConfig(g, 1.0, 0.005)
        traj = evolve(f0, 0.2, cfg, snapshot_every=8)
        m = 4
        e0 = energy_split(traj.states[0], m, 1.0)
        drift_total = abs(energy_nls(traj.states[-1], 1.0) - energy_nls(traj.states[0], 1.0))
        eT = energy_split(traj.states[-1], m, 1.0)
        lhs = eT[1] - e0[1]
        rhs = -(eT[0] - e0[0])
        assert abs(lhs - rhs) <= drift_total + 1e-12
