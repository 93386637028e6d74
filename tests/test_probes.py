"""Inequality probes: closed-form anchors, invariances, sampling stability."""

import numpy as np
import pytest
from scipy.fft import next_fast_len

from quintlab.grids import (
    FrequencyCube,
    GridSpec,
    TorusField,
    apply_S,
    dyadic_project,
    pointwise_product,
    project_gt,
    project_leq,
    sobolev_norm,
)
from quintlab.nls import free_propagate
from quintlab.probes import (
    _eval_grid_for_power,
    _field_band,
    _next_even,
    _trapezoid_times,
    approx_identity_rate,
    bilinear_strichartz_ratio,
    multilinear_ratio,
    refined_sobolev_ratio,
    run_approx_identity_probe,
    run_bilinear_probe,
    run_multilinear_probe,
    run_refined_sobolev_probe,
    run_strichartz_probe,
    strichartz_ratio,
)

RNG = np.random.default_rng(7)


def rand3(n=16, band=None, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    g = GridSpec(3, n)
    return TorusField.random_band_limited(g, band or g.nyquist, rng)


class TestStrichartz:
    def test_constant_field_closed_form(self):
        g = GridSpec(3, 8)
        f = TorusField.constant(g)
        # |exp(it Lap) 1| = 1, so the space-time L^4 norm is (T (2pi)^3)^(1/4)
        got = strichartz_ratio(f, 2, 4.0, 1.0, nt=64)
        want = (2 * np.pi) ** 0.75 / (2 ** (1.5 - 1.25) * (2 * np.pi) ** 1.5)
        assert got == pytest.approx(want, rel=1e-6)

    def test_single_mode_closed_form(self):
        g = GridSpec(3, 8)
        f = TorusField.plane_wave(g, (1, 1, 0))
        got = strichartz_ratio(f, 2, 4.0, 1.0, nt=64)
        want = (2 * np.pi) ** 0.75 / (2 ** 0.25 * (2 * np.pi) ** 1.5)
        assert got == pytest.approx(want, rel=1e-6)

    def test_zero_input(self):
        assert strichartz_ratio(TorusField.zero(GridSpec(3, 8)), 2, 4.0, 1.0) == 0.0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            strichartz_ratio(rand3(8), 2, 10.0 / 3.0, 1.0)

    def test_scale_invariance(self):
        f = rand3(16, seed=1)
        a = strichartz_ratio(f, 4, 4.0, 1.0)
        b = strichartz_ratio(2.0 * f, 4, 4.0, 1.0)
        assert abs(a - b) <= 1e-10 * max(a, 1e-30)

    def test_galilean_shift_invariance(self):
        # shifting the spectrum and replacing the centred cutoff by the
        # shifted cube leaves the ratio unchanged
        g = GridSpec(3, 16)
        f = rand3(16, band=2, seed=2)
        centred = strichartz_ratio(f, 2, 4.0, 0.5, nt=48)
        xi0 = (3, 0, 0)
        x = g.axis_points()
        phase = np.exp(1j * xi0[0] * x)[:, None, None]
        shifted = TorusField.from_values(g, phase * f.values)
        cube = FrequencyCube(center=xi0, radius=2)
        moved = strichartz_ratio(shifted, 2, 4.0, 0.5, nt=48, cube=cube)
        assert moved == pytest.approx(centred, abs=1e-8)


class TestBilinear:
    def test_zero_after_projection(self):
        g = GridSpec(3, 16)
        f1 = TorusField.plane_wave(g, (1, 0, 0))  # inside the m1/2 shell gap
        f2 = rand3(16, seed=3)
        assert bilinear_strichartz_ratio(f1, f2, 8, 4, 0.02, 1.0) == 0.0

    def test_single_modes_closed_form(self):
        g = GridSpec(3, 16)
        f1 = TorusField.plane_wave(g, (8, 0, 0))
        f2 = TorusField.plane_wave(g, (0, 3, 0))
        # the product is a single space-time plane wave of unit modulus
        got = bilinear_strichartz_ratio(f1, f2, 8, 4, 0.02, 1.0, nt=48)
        lhs = np.sqrt(1.0 * (2 * np.pi) ** 3)
        rhs = np.sqrt(4.0) * (4.0 / 8.0 + 1.0 / 4.0) ** 0.02 * (2 * np.pi) ** 3
        assert got == pytest.approx(lhs / rhs, rel=1e-10)

    def test_rejects_reversed_levels(self):
        with pytest.raises(ValueError):
            bilinear_strichartz_ratio(rand3(8), rand3(8), 2, 4, 0.02, 1.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rejects_a_field_off_three_dimensions(self, d):
        g = GridSpec(d, 32)
        f = TorusField.random_band_limited(g, 8, np.random.default_rng(d))
        for f1, f2 in ((f, f), (rand3(32), f)):
            with pytest.raises(ValueError, match=f"d = 3, got d = {d}"):
                bilinear_strichartz_ratio(f1, f2, 8, 4, 0.02, 1.0)

    def test_scale_invariance(self):
        f1, f2 = rand3(16, seed=4), rand3(16, seed=5)
        a = bilinear_strichartz_ratio(f1, f2, 8, 4, 0.02, 1.0, nt=33)
        b = bilinear_strichartz_ratio(3.0 * f1, 0.5 * f2, 8, 4, 0.02, 1.0, nt=33)
        assert abs(a - b) <= 1e-10 * max(a, 1e-30)

    def test_low_high_separation_trend(self):
        # sweep oracle: with m2 fixed, growing m1 must not increase the ratio
        # beyond sampling noise
        rng = np.random.default_rng(6)
        out = []
        for m1 in (4, 8, 16):
            g = GridSpec(3, max(16, 2 * m1 + 4))
            vals = [
                bilinear_strichartz_ratio(
                    TorusField.random_band_limited(g, g.nyquist, rng),
                    TorusField.random_band_limited(g, g.nyquist, rng),
                    m1, 4, 0.02, 1.0, nt=33,
                )
                for _ in range(6)
            ]
            out.append(max(vals))
        assert out[2] <= out[0] * 1.5


class TestRefinedSobolev:
    def test_low_pass_input_gives_zero(self):
        g = GridSpec(3, 16)
        f = rand3(16, band=3, seed=7)
        assert refined_sobolev_ratio(f, 4, 8, 1) == 0.0

    def test_single_high_mode_vanishing_pairing(self):
        # one high mode cannot satisfy the zero-sum frequency constraint
        g = GridSpec(3, 16)
        f = TorusField.plane_wave(g, (5, 0, 0))
        for which in (1, 2, 3):
            assert refined_sobolev_ratio(f, 4, 8, which) <= 1e-14

    def test_explicit_resonant_modes(self):
        # 5+5+5-6-6-3 = 0: five high factors and one low factor pair up
        g = GridSpec(1, 32)
        f = TorusField.from_modes(g, {(5,): 1.0, (-6,): 1.0, (-3,): 1.0})
        r = refined_sobolev_ratio(f, 4, 16, 3)
        assert r > 0.0

    def test_scale_invariance(self):
        f = rand3(16, band=6, seed=8)
        a = refined_sobolev_ratio(f, 2, 8, 2)
        b = refined_sobolev_ratio(0.25 * f, 2, 8, 2)
        assert abs(a - b) <= 1e-10 * max(a, 1e-30)

    def test_sampling_stability(self):
        report = run_refined_sobolev_probe(seed=0, samples=16, ms=(2, 4), rs=(8, 16), n=16, band=6)
        assert report.stability_factor < 1.5
        assert np.isfinite(report.max_ratio)


class TestMultilinear:
    def test_constant_fields_closed_form(self):
        g = GridSpec(3, 8)
        ones = [TorusField.constant(g) for _ in range(5)]
        got = multilinear_ratio(ones, 0.0, 1.0, "Old2", nt=32)
        v = (2 * np.pi) ** 1.5
        want = (1.0 * v) / v**5  # product == 1, all H^1 norms == (2 pi)^{3/2}
        assert got == pytest.approx(want, rel=1e-6)

    def test_zero_field_short_circuits(self):
        g = GridSpec(3, 8)
        fs = [TorusField.zero(g)] + [rand3(8, seed=s) for s in range(4)]
        assert multilinear_ratio(fs, 4.0, 1.0, "Old1") == 0.0

    def test_scale_invariance(self):
        fs = [rand3(8, band=2, seed=10 + s) for s in range(5)]
        for variant in ("MLFL1", "MLFL2", "Old1", "Old2"):
            a = multilinear_ratio(fs, 4.0, 1.0, variant, nt=16)
            b = multilinear_ratio([2.0 * f for f in fs], 4.0, 1.0, variant, nt=16)
            assert abs(a - b) <= 1e-10 * max(a, 1e-30)

    @pytest.mark.parametrize("m0,T", [(2.0, 1.0), (1.5, 0.5)])
    def test_right_sides(self, m0, T):
        # each variant divides the same product norm by its right side: MLFL1
        # and Old1 put fs[0] in H^-1, and the MLFL ones split their first H^1
        # factor at m0, T^(5/22) m0^(5/11) ||f||_H1 + ||P_>m0 S f||
        fs = [rand3(8, band=3, seed=40 + s) for s in range(5)]
        h1 = [sobolev_norm(f, 1.0) for f in fs]
        hm1 = sobolev_norm(fs[0], -1.0)

        def split(f, h):
            return T ** (5 / 22) * m0 ** (5 / 11) * h + project_gt(apply_S(f, 1.0), m0).l2_norm()

        rhs = {
            "MLFL1": hm1 * split(fs[1], h1[1]) * h1[2] * h1[3] * h1[4],
            "Old1": hm1 * h1[1] * h1[2] * h1[3] * h1[4],
            "MLFL2": split(fs[0], h1[0]) * h1[1] * h1[2] * h1[3] * h1[4],
            "Old2": h1[0] * h1[1] * h1[2] * h1[3] * h1[4],
        }
        lhs = {v: multilinear_ratio(fs, m0, T, v, nt=16) * r for v, r in rhs.items()}
        assert rhs["MLFL1"] != rhs["Old1"] and rhs["MLFL2"] != rhs["Old2"]
        assert lhs["MLFL1"] == pytest.approx(lhs["Old1"], rel=1e-13)
        assert lhs["MLFL2"] == pytest.approx(lhs["Old2"], rel=1e-13)

    def test_refinement_stability(self):
        # the padded product is alias-free, so doubling the carrier grid of
        # band-limited inputs must not move the ratio
        rng = np.random.default_rng(11)
        coarse = GridSpec(3, 8)
        vals = {}
        for n in (8, 16):
            rng = np.random.default_rng(11)
            fine = GridSpec(3, n)
            fs = []
            for _ in range(5):
                f8 = TorusField.random_band_limited(coarse, 2, rng)
                fs.append(f8.resample(n))
            vals[n] = multilinear_ratio(fs, 4.0, 1.0, "Old1", nt=16)
        assert vals[16] == pytest.approx(vals[8], rel=1e-9)


class TestPerTimeOracles:
    """Each ratio against its formulation with one field per quadrature time:
    the L^p norm by TorusField.lp_norm, the product's L^2 norm spectrally
    after a forward transform, and the quintic product padded at every time."""

    @pytest.mark.parametrize("p", [4.0, 5.0])
    def test_strichartz(self, p):
        f = rand3(16, seed=20)
        g = project_leq(f, 4)
        band = _field_band(g)
        g_fine = g.resample(max(_eval_grid_for_power(band, int(np.ceil(p)), 8), 2 * band + 2))
        ts, w = _trapezoid_times(1.0, 40)
        acc = sum(wt * free_propagate(g_fine, t).lp_norm(p) ** p for t, wt in zip(ts, w))
        want = acc ** (1.0 / p) / (4 ** (1.5 - 5.0 / p) * g.l2_norm())
        assert strichartz_ratio(f, 4, p, 1.0, 40) == pytest.approx(want, rel=1e-12)

    def test_bilinear(self):
        f1, f2 = rand3(16, seed=21), rand3(16, seed=22)
        u1, u2 = dyadic_project(f1, 8), dyadic_project(f2, 4)
        a = u1.resample(max(_next_even(2 * (8 + 4) + 2), 16))
        b = u2.resample(a.grid.n)
        ts, w = _trapezoid_times(1.0, 33)
        acc = 0.0
        for t, wt in zip(ts, w):
            vals = free_propagate(a, t).values * free_propagate(b, t).values
            acc += wt * TorusField.from_values(a.grid, vals).l2_norm() ** 2
        rhs = np.sqrt(4.0) * (4.0 / 8.0 + 1.0 / 4.0) ** 0.02 * u1.l2_norm() * u2.l2_norm()
        got = bilinear_strichartz_ratio(f1, f2, 8, 4, 0.02, 1.0, 33)
        assert got == pytest.approx(np.sqrt(acc) / rhs, rel=1e-12)

    @pytest.mark.parametrize("variant,s_out", [("Old1", -1.0), ("Old2", 1.0)])
    def test_multilinear(self, variant, s_out):
        fs = [rand3(8, band=2, seed=30 + s) for s in range(5)]
        n_eval = _next_even(2 * 5 * 2 + 2)
        ts, w = _trapezoid_times(1.0, 32)
        acc = 0.0
        for t, wt in zip(ts, w):
            prod = pointwise_product(*[free_propagate(f, t) for f in fs], pad_to=n_eval)
            acc += wt * sobolev_norm(prod, s_out)
        rhs = sobolev_norm(fs[0], s_out) * np.prod([sobolev_norm(f, 1.0) for f in fs[1:]])
        got = multilinear_ratio(fs, 4.0, 1.0, variant, 32)
        assert got == pytest.approx(acc / rhs, rel=1e-12)


class TestTimeLoopRoute:
    """The time loops synthesize each time's samples by matrix products: the
    Strichartz and bilinear probes make no transform, and the multilinear
    probe makes one forward transform per time, for its H^s weight."""

    @staticmethod
    def forbid(*args, **kwargs):
        raise AssertionError("unexpected transform")

    def test_strichartz_and_bilinear_make_no_transform(self, monkeypatch):
        f, f1, f2 = rand3(16, seed=40), rand3(16, seed=41), rand3(16, seed=42)
        monkeypatch.setattr(np.fft, "ifftn", self.forbid)
        monkeypatch.setattr(np.fft, "fftn", self.forbid)
        assert strichartz_ratio(f, 4, 4.0, 1.0, 40) > 0.0
        assert bilinear_strichartz_ratio(f1, f2, 8, 4, 0.02, 1.0, 33) > 0.0

    def test_multilinear_makes_one_forward_transform_per_time(self, monkeypatch):
        fs = [rand3(8, band=2, seed=50 + s) for s in range(5)]
        calls, fftn = [], np.fft.fftn

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return fftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", self.forbid)
        monkeypatch.setattr(np.fft, "fftn", counting)
        assert multilinear_ratio(fs, 4.0, 1.0, "Old2", 32) > 0.0
        assert calls == [(_next_even(2 * 5 * 2 + 2),) * 3] * 32


class TestNextEven:
    def test_matches_scipy_fast_length(self):
        def oracle(x):
            n = next_fast_len(int(np.ceil(x)))
            while n % 2:
                n = next_fast_len(n + 1)
            return n

        assert [_next_even(x) for x in range(1, 3001)] == [oracle(x) for x in range(1, 3001)]


class TestApproxIdentity:
    def test_constant_datum_zero_error(self):
        g = GridSpec(1, 128)
        out = approx_identity_rate(TorusField.constant(g), [0.5, 0.25])
        assert max(out["errors"]) <= 1e-14

    def test_under_resolved_alpha_rejected(self):
        g = GridSpec(1, 64)
        with pytest.raises(ValueError):
            approx_identity_rate(TorusField.constant(g), [0.1])

    def test_dense_quadrature_oracle_at_coarse_alpha(self):
        # direct O(n^2) evaluation of the smoothed density must match the
        # convolution path
        g = GridSpec(1, 64)
        rng = np.random.default_rng(12)
        phi = TorusField.random_band_limited(g, 6, rng, decay=1.5)
        phi = phi * (1.0 / phi.l2_norm())
        a = 1.0
        x = g.axis_points()
        wrapped = np.mod(x + np.pi, 2 * np.pi) - np.pi
        bump = np.where(np.abs(wrapped) <= a, np.exp(-(wrapped**2) / (2 * (a / 2) ** 2)), 0.0)
        bump /= bump.sum() * g.dx
        dens = np.abs(phi.values) ** 2
        smooth_direct = np.array(
            [np.sum(bump[(np.arange(g.n) - i) % g.n] * dens) * g.dx for i in range(g.n)]
        )
        from quintlab.grids import apply_S

        psi = apply_S(phi, -2.0)
        weight = np.conj(psi.values) * phi.values
        err_direct = abs(np.sum(weight * (smooth_direct**2 - dens**2)) * g.dx)
        out = approx_identity_rate(phi, [a])
        assert out["errors"][0] == pytest.approx(err_direct, rel=1e-10)

    def test_fitted_slope_meets_floor(self):
        g = GridSpec(1, 512)
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            phi = TorusField.random_band_limited(g, 40, rng, decay=1.5)
            phi = phi * (1.0 / phi.l2_norm())
            out = approx_identity_rate(phi, [0.25, 0.125, 0.0625])
            assert out["slope"] >= 0.35


class TestSamplingDrivers:
    def test_strichartz_report_deterministic(self):
        a = run_strichartz_probe(seed=3, samples=6, ms=(2, 4), nt=33, n=8)
        b = run_strichartz_probe(seed=3, samples=6, ms=(2, 4), nt=33, n=8)
        assert a.to_dict() == b.to_dict()
        assert a.max_ratio == max(a.ratio_table.values())

    def test_strichartz_stability_across_levels(self):
        report = run_strichartz_probe(seed=0, samples=24, ms=(2, 4, 8), nt=33, n=16)
        vals = list(report.ratio_table.values())
        assert max(vals) / min(vals) < 2.0
        assert report.stability_factor < 1.5

    def test_bilinear_driver_runs(self):
        report = run_bilinear_probe(seed=0, samples=4, m1s=(4, 8), nt=33)
        assert report.stability_factor < 1.5

    def test_multilinear_driver_runs(self):
        report = run_multilinear_probe(seed=0, samples=8, variant="Old1", nt=16)
        assert np.isfinite(report.max_ratio)
        assert report.stability_factor < 1.5

    def test_approx_identity_driver(self):
        report = run_approx_identity_probe(seed=0, samples=4)
        assert min(report.ratio_table[k] for k in report.ratio_table) >= 0.35
