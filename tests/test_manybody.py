"""Few-body engine: potential tabulation, Hamiltonian action, propagation,
energy moments."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from quintlab import grids, manybody
from quintlab.grids import GridSpec, MemoryBudgetError, ParameterError, TorusField
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
    symmetrized_triple_value,
    weighted_sobolev_norm_sq,
)
from quintlab.nls import free_propagate


def smooth_phi(grid, seed=0, band=2):
    rng = np.random.default_rng(seed)
    f = TorusField.random_band_limited(grid, band, rng, decay=2.0)
    return f * (1.0 / f.l2_norm())


def symmetry_residual(psi: BosonicState) -> float:
    """Largest L2 change of psi under an adjacent slot swap, relative to ||psi||."""
    N = psi.config.N
    worst = 0.0
    for s in range(N - 1):
        perm = list(range(N))
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
        diff = psi.amps - psi._slot_permuted(tuple(perm))
        worst = max(worst, float(np.linalg.norm(diff) / np.linalg.norm(psi.amps)))
    return worst


class TestBuildPotential:
    def test_beta_zero_independent_of_N(self):
        g = GridSpec(1, 16)
        tables = [build_potential(ManyBodyConfig(g, N, 0.0)) for N in (2, 4, 8)]
        for t in tables[1:]:
            assert np.abs(t - tables[0]).max() == 0.0

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
            W = build_potential(ManyBodyConfig(g, N, beta, pot))
            want = float(N) ** (2 * g.d * beta) * v00
            assert W[0, 0] == pytest.approx(want, rel=1e-12)

    def test_under_resolved_rejected(self):
        g = GridSpec(1, 8)
        with pytest.raises(UnderResolvedError):
            build_potential(ManyBodyConfig(g, 1000, 2.0))

    def test_symmetry_and_sign(self):
        g = GridSpec(1, 16)
        W = build_potential(ManyBodyConfig(g, 3, 0.1))
        assert np.all(W >= 0.0)
        assert np.abs(W - W.T).max() <= 1e-12


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

    def test_krylov_basis_is_checked_before_propagating(self, monkeypatch):
        # a 512-entry state within the budget, whose 21-vector basis is not
        psi = BosonicState.factorized(ManyBodyConfig(GridSpec(1, 8), 3, 0.0),
                                      TorusField.constant(GridSpec(1, 8)))
        monkeypatch.setattr(grids, "MEMORY_BUDGET", 1000)
        monkeypatch.setattr(manybody, "apply_hamiltonian_raw", None)  # never reached
        with pytest.raises(MemoryBudgetError, match="Krylov basis"):
            propagate(psi, 0.1)


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
        diag = manybody._cached_tables(cfg)[0]
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
        g = GridSpec(1, 64)
        cfg = ManyBodyConfig(g, 2, 0.05)
        k1, k2 = 5, -32
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
        psi = BosonicState(cfg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        view = BosonicState(cfg, psi._slot_permuted((2, 0, 1))).amps
        assert not view.flags.c_contiguous
        assert np.array_equal(
            apply_hamiltonian_raw(cfg, view), apply_hamiltonian_raw(cfg, view.copy())
        )
        real = rng.standard_normal(shape)
        assert np.array_equal(
            apply_hamiltonian_raw(cfg, real), apply_hamiltonian_raw(cfg, real.astype(complex))
        )


class TestPropagate:
    def test_identity_at_t0(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 2, 0.0)
        psi = BosonicState.factorized(cfg, smooth_phi(g))
        out = propagate(psi, 0.0)
        assert np.array_equal(out.amps, psi.amps)

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
        # energy is conserved, and the result does not depend on the Krylov
        # dimension (20 against 24) beyond the tolerance
        g = GridSpec(1, 16)
        cfg = ManyBodyConfig(g, 3, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(g, seed=6))
        e0 = energy(psi)
        out = propagate(psi, 0.5)
        drift = abs(energy(out) - e0) / max(abs(e0), 1.0)
        assert drift <= 1e-8
        out2 = propagate(psi, 0.5, steps=None, kdim=24)
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

    @pytest.mark.parametrize("T", [0.1, 1.0])
    @pytest.mark.parametrize("kdim", [6, 10, 20])
    def test_meets_tol_against_dense_expm(self, dense_case, kdim, T):
        psi, H = dense_case
        want = expm(-1j * T * H) @ psi.amps.reshape(-1)
        got = propagate(psi, T, kdim=kdim).amps.reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

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
        got = propagate(psi, 0.1, kdim=10).amps.reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_unreachable_tol_raises(self, dense_case):
        psi, _ = dense_case
        with pytest.raises(PropagationToleranceError):
            propagate(psi, 1.0, kdim=6, tol=1e-30)

    def test_steps_caps_the_substep(self, dense_case, monkeypatch):
        psi, _ = dense_case
        t, s = 0.7, 9
        free = propagate(psi, t)
        taus = []
        choose = manybody._choose_substep

        def spy(*args):
            taus.append(choose(*args))
            return taus[-1]

        monkeypatch.setattr(manybody, "_choose_substep", spy)
        capped = propagate(psi, t, steps=s)
        assert np.linalg.norm(capped.amps - free.amps) <= 1e-10 * np.linalg.norm(free.amps)
        assert len(taus) >= s
        assert max(taus) <= (t / s) * (1 + 1e-12)
        assert sum(taus) == pytest.approx(t, rel=1e-14)

    def test_lanczos_basis_stays_orthonormal(self):
        # a 31-vector basis in dimension 512: the three-term recurrence alone
        # drifts to about 1e-4 here, one full re-orthogonalization pass per
        # vector keeps 7e-10
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(g, band=2))
        kdim = 30
        V = np.empty((kdim + 1, psi.amps.size), dtype=np.complex128)
        V[0] = psi.amps.reshape(-1) / np.linalg.norm(psi.amps)
        alphas, betas = manybody._lanczos_basis(cfg, V, kdim)
        assert len(alphas) == kdim and betas[-1] > 0.0
        gram = V.conj() @ V.T
        assert np.abs(gram - np.eye(kdim + 1)).max() <= 1e-8

    @staticmethod
    def krylov_basis(d, n, N, kdim):
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid, band=2))
        V = np.empty((kdim + 1, psi.amps.size), dtype=np.complex128)
        V[0] = psi.amps.reshape(-1) / np.linalg.norm(psi.amps)
        alphas, betas = manybody._lanczos_basis(cfg, V, kdim)
        return cfg, V, alphas, betas

    @pytest.mark.parametrize("d,n,N,kdim", [
        (1, 16, 4, 20),  # the fewbody shape, dim 65,536
        (2, 8, 2, 30),  # dim 4,096: the omega estimate asks for full passes
        (1, 4, 3, 30),  # dim 64: the symmetric Krylov space runs out near step 14
        (2, 4, 2, 30),  # dim 256: beta_13 ~ 1e-13, and one pass alone leaves 3e-8
    ])
    def test_partial_reorthogonalization_keeps_the_basis(self, d, n, N, kdim):
        cfg, V, alphas, betas = self.krylov_basis(d, n, N, kdim)
        m = len(alphas)
        assert m == kdim and betas[-1] > 0.0
        if n == 4:
            assert betas.min() < 1e-6  # the n = 4 cases do run into a (near) invariant subspace
        gram = V.conj() @ V.T
        assert np.abs(gram - np.eye(kdim + 1)).max() <= 1e-8
        # the tridiagonal is the projection of H on the basis
        HV = np.stack([apply_hamiltonian_raw(cfg, v.reshape(cfg.state_shape)).reshape(-1)
                       for v in V[:m]])
        tri = np.diag(alphas) + np.diag(betas[:-1], -1) + np.diag(betas[:-1], 1)
        scale = max(np.abs(alphas).max(), np.abs(betas).max())
        assert np.abs(V[:m].conj() @ HV.T - tri).max() <= 1e-10 * scale

    def test_bare_recurrence_loses_orthogonality(self, monkeypatch):
        # with the trigger off, only the three-term recurrence is left, and the
        # basis of test_lanczos_basis_stays_orthonormal fails its 1e-8 bound
        monkeypatch.setattr(manybody, "_REORTH_LEVEL", np.inf)
        _, V, alphas, betas = self.krylov_basis(1, 8, 3, 30)
        assert len(alphas) == 30 and betas[-1] > 0.0
        assert np.abs(V.conj() @ V.T - np.eye(31)).max() > 1e-8

    @staticmethod
    def full_passes(psi, kdim, monkeypatch):
        """The Krylov basis of psi and the number of full re-orthogonalization
        passes it took: _lanczos_basis calls np.linalg.norm once per step and
        twice per pass (the new vector and the overlaps)."""
        V = np.empty((kdim + 1, psi.amps.size), dtype=np.complex128)
        V[0] = psi.amps.reshape(-1) / np.linalg.norm(psi.amps)
        calls, norm = [], np.linalg.norm

        def counting(*args, **kwargs):
            calls.append(1)
            return norm(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "norm", counting)
            alphas, betas = manybody._lanczos_basis(psi.config, V, kdim)
        return V, alphas, betas, (len(calls) - len(alphas)) // 2

    @pytest.mark.parametrize("d,n,N,kdim,most", [
        (1, 16, 4, 20, 2),  # the fewbody shape: no pass is due
        (1, 8, 3, 30, 4),  # the dim-512 basis of test_lanczos_basis_stays_orthonormal: 2 passes
    ])
    def test_full_passes_stay_rare(self, d, n, N, kdim, most, monkeypatch):
        # the omega estimates track the true overlaps and restart at eps after
        # a pass; an estimate that overshoots asks for a pass at nearly every step
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid, band=2))
        V, alphas, _, passes = self.full_passes(psi, kdim, monkeypatch)
        assert len(alphas) == kdim and passes <= most
        assert np.abs(V.conj() @ V.T - np.eye(kdim + 1)).max() <= 1e-8

    @pytest.mark.parametrize("seed", [115, 165])
    def test_pass_on_the_next_vector_keeps_a_stress_basis(self, seed, monkeypatch):
        # a random symmetric state, d=2 n=6 N=2 band 2 (dim 1,296), kdim 40: the
        # code keeps about 1e-11; without the pass on the vector after each full
        # pass the basis ends at 1.5e-8 (seed 115) and 1.6e-8 (seed 165)
        cfg = ManyBodyConfig(GridSpec(2, 6), 2, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(seed), band=2)
        V, alphas, betas, passes = self.full_passes(psi, 40, monkeypatch)
        assert len(alphas) == 40 and betas[-1] > 0.0 and passes > 0
        assert np.abs(V.conj() @ V.T - np.eye(41)).max() <= 1e-8

    @pytest.fixture(scope="class")
    def exhausted_case(self):
        # d=1 n=4 N=3: dim 64, and a Krylov basis of 30 runs past the symmetric subspace
        cfg = ManyBodyConfig(GridSpec(1, 4), 3, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(cfg.grid, band=2))
        H = np.stack(
            [apply_hamiltonian_raw(cfg, e.reshape(cfg.state_shape)).reshape(-1)
             for e in np.eye(psi.amps.size, dtype=np.complex128)],
            axis=1,
        )
        return psi, H

    @pytest.mark.parametrize("T", [0.1, 1.0])
    @pytest.mark.parametrize("case", ["dense_case", "exhausted_case"])
    def test_kdim30_meets_tol_against_dense_expm(self, request, case, T):
        psi, H = request.getfixturevalue(case)
        want = expm(-1j * T * H) @ psi.amps.reshape(-1)
        got = propagate(psi, T, kdim=30).amps.reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_cost_guard(self, monkeypatch):
        # d=1 n=16 N=4 (dim 65,536), T=0.1: at most 100 H-applies, and a peak
        # of the (kdim + 1)-row basis buffer (21 MiB) plus temporaries; a
        # second buffer or a (j + 1, dim) conjugate copy goes past 32 MiB
        g = GridSpec(1, 16)
        cfg = ManyBodyConfig(g, 4, 0.05)
        psi = BosonicState.factorized(cfg, smooth_phi(g, seed=9))
        apply_hamiltonian(psi)  # tabulate the Hamiltonian outside the measurement
        calls = []

        def counting(config, amps):
            calls.append(1)
            return apply_hamiltonian_raw(config, amps)

        monkeypatch.setattr(manybody, "apply_hamiltonian_raw", counting)
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
            vbar = symmetrized_triple_value(cfg)
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
