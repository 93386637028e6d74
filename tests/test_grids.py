"""Spectral core: projector algebra, kernels, Sobolev weights."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quintlab import couplings, grids, manybody, nls, probes
from quintlab.couplings import enumerate_collapse_maps
from quintlab.grids import (
    FrequencyCube,
    GridSpec,
    MemoryBudgetError,
    TorusField,
    apply_S,
    bernstein_ratio,
    convolve,
    cube_project,
    dirichlet_kernel,
    dyadic_levels,
    dyadic_project,
    pointwise_product,
    project_gt,
    project_leq,
    project_lt,
    sobolev_norm,
)
from quintlab.manybody import BosonicState, ManyBodyConfig, symmetrized_triple_value
from quintlab.marginals import rank_one_marginal
from quintlab.nls import NlsConfig, free_sample
from quintlab.probes import (
    bilinear_strichartz_ratio,
    multilinear_ratio,
    refined_sobolev_ratio,
    strichartz_ratio,
)

RNG = np.random.default_rng(2024)


def random_field(d=1, n=16, band=None, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    band = band if band is not None else n // 2
    return TorusField.random_band_limited(GridSpec(d, n), band, rng)


class TestRandomBandLimited:
    @pytest.mark.parametrize("d,n,band,decay", [(1, 16, 5, 2.0), (2, 30, 8, 1.5),
                                                (3, 12, 4, 3.0), (3, 8, 4, 0.0)])
    def test_band_damping_is_the_full_grid_damping(self, monkeypatch, d, n, band, decay):
        # the damping is formed on the band's entries only, bit for bit as on
        # the whole grid, and no |xi|^2 table of the grid is built for it
        g = GridSpec(d, n)
        rng = np.random.default_rng([d, n])
        mask = grids._mask_leq(d, n, band)
        want = np.zeros(g.shape, dtype=np.complex128)
        want[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
        want *= (1.0 + grids._xi_squared(d, n)) ** (-decay / 2.0)
        monkeypatch.setattr(grids, "_xi_squared", None)
        got = TorusField.random_band_limited(g, band, np.random.default_rng([d, n]), decay=decay)
        assert got.coefficients.tobytes() == want.tobytes()


class TestGridSpec:
    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(ValueError):
            GridSpec(1, 7)
        with pytest.raises(ValueError):
            GridSpec(1, 2)
        with pytest.raises(ValueError):
            GridSpec(4, 8)

    def test_sample_points(self):
        g = GridSpec(1, 8)
        assert np.allclose(g.axis_points(), 2 * np.pi * np.arange(8) / 8)


class TestMemoryBudget:
    def test_one_budget_guards_every_dense_array(self, monkeypatch):
        g8, one = GridSpec(1, 8), TorusField.constant(GridSpec(1, 4))
        # a state is charged its full tensor where amps is read, with cold tables
        psi = BosonicState.factorized(ManyBodyConfig(g8, 2, 0.0), TorusField.constant(g8))
        manybody._expand_index.cache_clear()
        monkeypatch.setattr(grids, "MEMORY_BUDGET", 100)
        families = {  # each array holds more than 100 entries
            "field grid": lambda: GridSpec(1, 102),
            "rotation grid": lambda: NlsConfig(GridSpec(1, 80), 1.0, 0.01),  # 120 points
            "state tensor": lambda: psi.amps,  # 64 entries, its expand index and a scratch
            "interaction table": lambda: ManyBodyConfig(GridSpec(1, 16), 1, 0.0).check_run_budget(
                [0.0]),
            "triple-value table": lambda: symmetrized_triple_value(ManyBodyConfig(g8, 1, 0.0)),
            # five recurrence vectors and one returned state of 8 entries, with 68 of tables
            "Chebyshev recurrence": lambda: ManyBodyConfig(g8, 1, 0.0).check_run_budget([0.1]),
            "sector tables": lambda: ManyBodyConfig(g8, 2, 0.0).check_run_budget([0.0]),  # 190
            "2-marginal": lambda: rank_one_marginal(one, 2),
            "maps of levels 1..4": lambda: enumerate_collapse_maps(4),  # 7!! = 105 maps
        }
        for what, build in families.items():
            with pytest.raises(MemoryBudgetError, match=what):
                build()
        # one size down, each fits; a state pays for its sector tables too
        GridSpec(1, 100)
        BosonicState.factorized(ManyBodyConfig(g8, 1, 0.0), TorusField.constant(g8)).amps
        NlsConfig(GridSpec(1, 80), 1.0, 0.01, dealias=False)
        rank_one_marginal(one, 1)
        enumerate_collapse_maps(3)

    # each ratio at a full-band n = 16 datum: its evaluation grid holds 117,649 to 1,185,408 entries
    RATIOS = {
        "strichartz_ratio": lambda f: strichartz_ratio(f, 8, 8.0, 1.0, 32),  # 65^3
        "bilinear_strichartz_ratio": lambda f: bilinear_strichartz_ratio(f, f, 15, 8, 0.02, 1.0,
                                                                         2),  # 2 x 47^3
        "refined_sobolev_ratio": lambda f: refined_sobolev_ratio(f, 2, 4, 3),  # 49^3
        "multilinear_ratio": lambda f: multilinear_ratio([f] * 5, 4.0, 1.0, "Old1", 2),  # 2 x 84^3
    }
    BUILD_PASSES = {  # options whose field grids fit and whose evaluation grids do not
        "strichartz": {"n": 16, "ms": [8], "p": 8.0},  # 65^3
        "bilinear": {"n": 16, "m1s": [15], "m2": 8},  # a 34^3 field grid, 2 x 47^3
        "refined_sobolev": {"n": 16, "band": 8},  # 49^3
        "multilinear": {"n": 16},  # 2 x 42^3
    }

    @pytest.mark.parametrize("entry", [*RATIOS, *BUILD_PASSES, "rotation grid",
                                       "synthesis matrix", "couplings map table"])
    def test_each_path_charges_before_it_allocates(self, monkeypatch, entry):
        # past a budget of 2^16 entries, from cold memos, each path raises having held at
        # most 1 MiB and memoized nothing; what it charges would hold more than 1 MiB
        memos = (grids._freq_components, grids._xi_squared, grids._mask_leq,
                 nls._synthesis_matrix, nls._propagator)
        for memo in memos:
            memo.cache_clear()
        g16 = GridSpec(3, 16)
        f = TorusField.random_band_limited(g16, 8, np.random.default_rng(5))
        g48, line = GridSpec(3, 48), TorusField.random_band_limited(GridSpec(1, 16), 8,
                                                                    np.random.default_rng(6))
        if entry in self.RATIOS:  # a zero datum fills the memos a ratio reads before its grid
            assert self.RATIOS[entry](TorusField.constant(g16) * 0.0) == 0.0
        call = {
            **{name: partial(ratio, f) for name, ratio in self.RATIOS.items()},
            **{lemma: partial(probes.run_probe, lemma, **options)  # raises in the build pass
               for lemma, options in self.BUILD_PASSES.items()},
            "rotation grid": partial(NlsConfig, g48, 1.0, 0.01),  # 72^3
            "synthesis matrix": partial(free_sample, line, 0.1, 2**13),  # 2^13 x 16
            "couplings map table": partial(couplings._targets, 8),  # 15!! x 8
        }[entry]
        sizes = [memo.cache_info().currsize for memo in memos]
        monkeypatch.setattr(grids, "MEMORY_BUDGET", 2**16)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        assert [memo.cache_info().currsize for memo in memos] == sizes


class TestTransformRoundTrip:
    @pytest.mark.parametrize("d,n", [(1, 8), (1, 16), (2, 8), (3, 8)])
    def test_roundtrip(self, d, n):
        f = random_field(d, n)
        g = TorusField.from_values(f.grid, f.values)
        err = np.abs(g.coefficients - f.coefficients).max()
        assert err <= 1e-12 * max(1.0, np.abs(f.coefficients).max())

    @pytest.mark.parametrize("d,n", [(1, 16), (3, 8)])
    def test_parseval(self, d, n):
        f = random_field(d, n)
        quad = np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_volume)
        spec = f.l2_norm()
        assert abs(quad - spec) <= 1e-12 * spec


class TestProjectors:
    def test_mode_outside_cutoff_is_killed(self):
        f = TorusField.plane_wave(GridSpec(1, 16), 3)
        assert project_leq(f, 2).l2_norm() == 0.0

    def test_zero_mode_retained(self):
        f = TorusField.constant(GridSpec(1, 16))
        g = project_leq(f, 1)
        assert np.abs(g.coefficients - f.coefficients).max() == 0.0

    def test_idempotence(self):
        f = random_field(2, 8)
        once = project_leq(f, 2)
        twice = project_leq(once, 2)
        assert np.abs(twice.coefficients - once.coefficients).max() == 0.0

    def test_complement_is_exact(self):
        f = random_field(3, 8)
        for m in (1, 2, 4):
            s = project_leq(f, m) + project_gt(f, m)
            assert np.array_equal(s.coefficients, f.coefficients)

    def test_orthogonality_of_low_and_high(self):
        f = random_field(1, 16, seed=7)
        g = random_field(1, 16, seed=8)
        ip = project_leq(f, 4).inner(project_gt(g, 4))
        assert abs(ip) <= 1e-12

    def test_dyadic_band_examples(self):
        f = TorusField.plane_wave(GridSpec(1, 16), 3)
        kept = dyadic_project(f, 4)
        assert np.abs(kept.coefficients - f.coefficients).max() == 0.0
        assert dyadic_project(f, 2).l2_norm() == 0.0

    def test_dyadic_rejects_small_levels(self):
        f = random_field(1, 8)
        with pytest.raises(ValueError):
            dyadic_project(f, 1)

    def test_telescoping(self):
        f = random_field(1, 16)
        total = project_leq(f, 1)
        for m in dyadic_levels(f.grid)[1:]:
            total = total + dyadic_project(f, m)
        assert np.abs(total.coefficients - f.coefficients).max() <= 1e-14


class TestCubeProjection:
    def test_centered_cube_matches_box_cutoff(self):
        f = random_field(3, 8)
        q = FrequencyCube(center=(0, 0, 0), radius=2)
        a = cube_project(f, q)
        b = project_leq(f, 2)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_single_mode_inside_cube(self):
        f = TorusField.plane_wave(GridSpec(1, 16), 5)
        q = FrequencyCube(center=(5,), radius=1)
        assert np.array_equal(cube_project(f, q).coefficients, f.coefficients)

    def test_galilean_identity(self):
        # cube projection equals modulation-conjugated centred projection
        g = GridSpec(1, 32)
        f = TorusField.random_band_limited(g, 6, np.random.default_rng(3))
        xi0 = 4
        q = FrequencyCube(center=(xi0,), radius=2)
        lhs = cube_project(f, q)
        x = g.axis_points()
        shifted = TorusField.from_values(g, np.exp(-1j * xi0 * x) * f.values)
        rhs_vals = np.exp(1j * xi0 * x) * project_leq(shifted, 2).values
        assert np.abs(lhs.values - rhs_vals).max() <= 1e-12


class TestDirichletKernel:
    @pytest.mark.parametrize("d,m", [(1, 1), (1, 3), (2, 2), (3, 1)])
    def test_peak_value(self, d, m):
        k = dirichlet_kernel(GridSpec(d, 8), m)
        assert abs(k.values[(0,) * d] - (2 * m + 1) ** d) <= 1e-10

    def test_value_at_pi(self):
        k = dirichlet_kernel(GridSpec(1, 16), 1)
        assert abs(k.values[8] - (-1.0)) <= 1e-12

    def test_direct_sum_matches_half_shift_closed_form(self):
        # Oracle: the geometric sum of exp(i xi x) over |xi| <= M telescopes to
        # sin((M+1/2)x)/sin(x/2).  The direct summation is ground truth; the
        # alternate closed form sin((M+1)x)/sin(x) sums only every other mode
        # and must NOT match.
        g = GridSpec(1, 64)
        for m in (1, 2, 5):
            direct = dirichlet_kernel(g, m).values.real
            x = g.axis_points()
            closed = np.full(g.n, 2.0 * m + 1.0)  # the limit where sin(x/2) = 0
            nz = np.abs(np.sin(x / 2.0)) > 1e-14
            closed[nz] = np.sin((m + 0.5) * x[nz]) / np.sin(x[nz] / 2.0)
            assert np.abs(direct - closed).max() <= 1e-10
            alt = np.full(g.n, float(2 * m + 1))
            nz = np.abs(np.sin(x)) > 1e-14
            alt[nz] = np.sin((m + 1) * x[nz]) / np.sin(x[nz])
            assert np.abs(direct - alt).max() > 0.5

    @pytest.mark.parametrize("d,n", [(1, 16), (3, 8)])
    def test_convolution_reproduces_projection(self, d, n):
        g = GridSpec(d, n)
        rng = np.random.default_rng(11)
        for m in (1, 2):
            f = TorusField.random_band_limited(g, n // 2, rng)
            k = dirichlet_kernel(g, m)
            conv = convolve(f, k) * (2 * np.pi) ** (-d)
            proj = project_leq(f, m)
            assert np.abs(conv.coefficients - proj.coefficients).max() <= 1e-10


class TestSobolev:
    def test_constant_field(self):
        for d in (1, 2, 3):
            f = TorusField.constant(GridSpec(d, 8))
            for s in (-1.0, 0.0, 1.0, 2.5):
                assert abs(sobolev_norm(f, s) - (2 * np.pi) ** (d / 2)) <= 1e-12

    def test_plane_wave(self):
        f = TorusField.plane_wave(GridSpec(3, 8), (1, 0, 0))
        for s in (-1.0, 1.0, 2.0):
            expected = 2 ** (s / 2) * (2 * np.pi) ** 1.5
            assert abs(sobolev_norm(f, s) - expected) <= 1e-12 * expected

    def test_s0_is_l2(self):
        f = random_field(1, 16)
        quad = np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_volume)
        assert abs(sobolev_norm(f, 0.0) - quad) <= 1e-12 * quad

    def test_apply_S_invertible(self):
        f = random_field(3, 8)
        g = apply_S(apply_S(f, 1.7), -1.7)
        scale = np.abs(f.coefficients).max()
        assert np.abs(g.coefficients - f.coefficients).max() <= 1e-12 * scale


class TestBernstein:
    def test_constant_field_ratio(self):
        for d in (1, 3):
            f = TorusField.constant(GridSpec(d, 8))
            for m in (1, 2, 4):
                got = bernstein_ratio(f, m, p=2.0, q=np.inf)
                want = (2 * np.pi) ** (-d / 2) * m ** (-d / 2)
                assert abs(got - want) <= 1e-12 * want

    def test_kernel_ratio_bounded_by_3_to_d(self):
        for d in (1, 2):
            g = GridSpec(d, 16)
            for m in (1, 2, 4):
                k = dirichlet_kernel(g, m)
                assert bernstein_ratio(k, m, p=1.0, q=np.inf) <= 3.0**d + 1e-12

    def test_zero_field(self):
        f = TorusField.zero(GridSpec(1, 8))
        assert bernstein_ratio(f, 2, 2.0, np.inf) == 0.0

    def test_empirical_constant_stable_across_levels(self):
        # Sampling oracle: max ratio over seeded random band-limited fields,
        # per level; uniformity shows as stability within a factor of 2.
        g = GridSpec(1, 64)
        rng = np.random.default_rng(5)
        maxima = {}
        for m in (2, 4, 8, 16):
            vals = []
            for _ in range(100):
                f = TorusField.random_band_limited(g, g.nyquist, rng)
                vals.append(bernstein_ratio(f, m, p=2.0, q=np.inf))
            maxima[m] = max(vals)
        hi, lo = max(maxima.values()), min(maxima.values())
        assert hi / lo < 2.0


def _resample_by_index_arrays(f, n_new):
    """The np.ix_ formulation of TorusField.resample, kept as its oracle."""
    g_new = GridSpec(f.grid.d, n_new)
    c_new = np.zeros(g_new.shape, dtype=np.complex128)
    old = f.grid.axis_frequencies()
    keep = np.abs(old) <= g_new.nyquist
    sel_old = np.ix_(*[np.where(keep)[0]] * f.grid.d)
    sel_new = np.ix_(*[old[keep] % n_new] * f.grid.d)
    c_new[sel_new] = f.coefficients[sel_old]
    return c_new


class TestResampleAndProducts:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "n,n_new", [(8, 12), (8, 16), (6, 8), (6, 10), (12, 8), (16, 6), (10, 8), (14, 10)]
    )
    def test_block_copy_matches_index_arrays(self, d, n, n_new):
        rng = np.random.default_rng([d, n, n_new])
        g = GridSpec(d, n)
        f = TorusField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        assert np.array_equal(f.resample(n_new).coefficients, _resample_by_index_arrays(f, n_new))

    def test_downsampling_keeps_the_negative_edge_label(self):
        f = TorusField.from_modes(GridSpec(2, 16), {(4, 1): 1.0, (-4, 1): 2.0, (4, -4): 3.0})
        got = f.resample(8).coefficients
        assert got[4, 1] == 2.0 and got[4, 4] == 0.0
        assert np.count_nonzero(got) == 1

    def test_resample_preserves_modes(self):
        f = TorusField.plane_wave(GridSpec(1, 8), 3, 2.0)
        up = f.resample(32)
        assert abs(up.coefficients[3] - 2.0) <= 1e-14
        assert up.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)

    def test_own_size_is_the_field_itself(self):
        f = random_field(d=2, n=8, seed=5)
        assert f.resample(8) is f

    def test_padded_product_is_alias_free(self):
        g = GridSpec(1, 8)
        f = TorusField.plane_wave(g, 3)
        h = TorusField.plane_wave(g, 2)
        prod = pointwise_product(f, h, pad_to=16)
        assert abs(prod.coefficients[5] - 1.0) <= 1e-13
        assert abs(np.sum(np.abs(prod.coefficients)) - 1.0) <= 1e-12


class TestSample:
    """A field's samples on a finer grid, f.resample(n).values: the free
    synthesis at t = 0 (nls.free_sample) computes them for the refined-Sobolev
    probe."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n,n_new", [(8, 8), (8, 20), (10, 10), (10, 24), (6, 16)])
    def test_matches_resampled_values(self, d, n, n_new):
        # every coefficient set, the -n/2 edge label included
        rng = np.random.default_rng([d, n, n_new])
        g = GridSpec(d, n)
        f = TorusField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        want = f.resample(n_new).values
        assert np.abs(free_sample(f, 0.0, n_new) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_edge_label_alone(self, d):
        f = TorusField.from_modes(GridSpec(d, 8), {(-4,) * d: 1.0, (1,) + (-4,) * (d - 1): 0.5j})
        want = f.resample(14).values
        assert np.abs(free_sample(f, 0.0, 14) - want).max() <= 1e-14 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_projector_complement_property(m, seed):
    f = TorusField.random_band_limited(GridSpec(1, 16), 8, np.random.default_rng(seed))
    s = project_leq(f, m) + project_gt(f, m)
    assert np.array_equal(s.coefficients, f.coefficients)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_strict_and_weak_cutoffs_nest(seed):
    f = TorusField.random_band_limited(GridSpec(1, 16), 8, np.random.default_rng(seed))
    a = project_lt(f, 4)
    b = project_leq(f, 4)
    # strict cutoff keeps a subset of the weak one
    diff = b - a
    kept = np.abs(a.coefficients) > 0
    assert np.all(np.abs(diff.coefficients[kept]) == 0)
