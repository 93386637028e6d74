"""Marginals, trace metrics, hierarchy residuals, chaos experiment."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from quintlab import grids, manybody, marginals
from quintlab.grids import GridSpec, MemoryBudgetError, TorusField, sobolev_norm
from quintlab.manybody import (
    BosonicState,
    GaussianPotential,
    ManyBodyConfig,
    apply_hamiltonian,
    propagate,
)
from quintlab.marginals import (
    KthMarginal,
    bbgky_residual,
    bbgky_rhs,
    chaos_experiment,
    gp_residual,
    gp_rhs,
    hufl_factorized,
    hufl_left_side,
    marginal,
    nls_residual_lifted,
    partial_trace_last,
    rank_one_marginal,
    trace_distance,
)
from quintlab.nls import NlsConfig, evolve


def unit_phi(grid, seed=0, band=2):
    rng = np.random.default_rng(seed)
    f = TorusField.random_band_limited(grid, band, rng, decay=2.0)
    return f * (1.0 / f.l2_norm())


def permutation_residual(g: KthMarginal) -> float:
    """Deviation of g from bosonic symmetry under simultaneous adjacent slot
    swaps, relative to its largest entry."""
    m, k = g.grid.size, g.k
    t = g.matrix.reshape((m,) * (2 * k))
    worst = 0.0
    for s in range(k - 1):
        perm = list(range(2 * k))
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
        perm[k + s], perm[k + s + 1] = perm[k + s + 1], perm[k + s]
        worst = max(worst, float(np.abs(t - np.transpose(t, perm)).max()))
    return worst / max(np.abs(g.matrix).max(), 1e-300)


def dense_marginal(psi: BosonicState, k: int) -> np.ndarray:
    """The oracle of marginal: a a^dagger on the full tensor, a = amps as (m^k, m^(N-k))."""
    m = psi.config.grid.size
    a = psi.amps.reshape(m**k, -1)
    return (a @ a.conj().T) * psi.config.grid.cell_volume**psi.config.N


class TestMarginal:
    @pytest.mark.parametrize("d,n,N,k", [  # every marginal within 2^16 entries
        (1, 8, 2, 1), (1, 8, 3, 1), (1, 8, 3, 2), (1, 6, 3, 3), (1, 6, 4, 2), (1, 4, 5, 3),
        (1, 4, 4, 4), (1, 16, 4, 1), (2, 4, 2, 1), (2, 4, 2, 2), (2, 4, 3, 1), (2, 4, 3, 2),
        (3, 4, 2, 1), (3, 4, 3, 1),
    ])
    def test_sector_gathers_match_the_dense_oracle(self, d, n, N, k):
        cfg = ManyBodyConfig(GridSpec(d, n), N, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(d * 1000 + n * N + k),
                                            band=n // 4)
        got, want = marginal(psi, k).matrix, dense_marginal(psi, k)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_factorized_state_gives_tensor_power(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.0)
        phi = unit_phi(g, seed=1)
        psi = BosonicState.factorized(cfg, phi)
        for k in (1, 2):
            got = marginal(psi, k)
            want = rank_one_marginal(phi, k)
            assert np.abs(got.matrix - want.matrix).max() <= 1e-12

    def test_full_marginal_is_projector(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 2, 0.05)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(2), band=2)
        gN = marginal(psi, 2)
        sq = gN.matrix @ gN.matrix
        assert np.abs(sq - gN.matrix).max() <= 1e-10
        assert abs(gN.trace() - 1.0) <= 1e-10

    def test_invariants_for_evolved_state(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 4, 0.1)
        psi0 = BosonicState.factorized(cfg, unit_phi(g, seed=3))
        psi = propagate(psi0, 0.2)
        for k in (1, 2):
            gk = marginal(psi, k)
            assert gk.hermiticity_residual() <= 1e-11
            assert abs(gk.trace() - 1.0) <= 1e-10
            assert gk.min_eigenvalue() >= -1e-10
            assert permutation_residual(gk) <= 1e-10

    def test_admissibility_chain(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 4, 0.1)
        psi = propagate(BosonicState.factorized(cfg, unit_phi(g, seed=4)), 0.15)
        for k in (1, 2):
            via_chain = partial_trace_last(marginal(psi, k + 1))
            direct = marginal(psi, k)
            assert np.abs(via_chain.matrix - direct.matrix).max() <= 1e-11

    def test_rejects_bad_k(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 2, 0.0)
        psi = BosonicState.factorized(cfg, unit_phi(g))
        with pytest.raises(ValueError):
            marginal(psi, 3)

    def test_dense_budget(self, monkeypatch):
        g = GridSpec(1, 8)
        psi = BosonicState.factorized(ManyBodyConfig(g, 3, 0.0), unit_phi(g))
        # k = 1 charges 2 * 8 * 36 + 64 = 640 entries (B_1 and its conjugate, the
        # marginal), k = 2 charges 2 * 64 * 8 + 4096 = 5,120
        monkeypatch.setattr(grids, "MEMORY_BUDGET", g.size**4)
        marginal(psi, 1)
        with pytest.raises(MemoryBudgetError):
            marginal(psi, 2)


class TestTraceDistance:
    def test_identical(self):
        g = GridSpec(1, 8)
        a = rank_one_marginal(unit_phi(g, seed=5))
        assert trace_distance(a, a) == 0.0

    def test_orthogonal_pure_states(self):
        g = GridSpec(1, 8)
        a = rank_one_marginal(TorusField.plane_wave(g, 1))
        b = rank_one_marginal(TorusField.plane_wave(g, 2))
        assert trace_distance(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_rank_one_closed_form(self):
        # eigenvalue oracle on the 2x2 restriction: distance between unit
        # projectors is 2 sqrt(1 - |<phi, chi>|^2)
        g = GridSpec(1, 16)
        phi = unit_phi(g, seed=6, band=4)
        chi = unit_phi(g, seed=7, band=4)
        overlap = abs(phi.inner(chi)) ** 2
        want = 2.0 * np.sqrt(1.0 - overlap)
        got = trace_distance(rank_one_marginal(phi), rank_one_marginal(chi))
        assert got == pytest.approx(want, abs=1e-10)

    def test_metric_properties(self):
        g = GridSpec(1, 8)
        mats = [rank_one_marginal(unit_phi(g, seed=s, band=3)) for s in (8, 9, 10)]
        a, b, c = mats
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def mean_field_rhs(phi: TorusField, cfg: ManyBodyConfig, k: int) -> np.ndarray:
    """The oracle of bbgky_rhs at phi^(x)N, from phi alone: [A, |phi><phi|^(x)k]
    with A = sum_j -Lap_j + W, W the finite-N potential seen by k slots when
    the traced ones hold phi: the triples among the rows, then
    int Vbar(x_i, x_j, z) |phi(z)|^2 and int Vbar(x_j, y, z) |phi(y)|^2 |phi(z)|^2."""
    g, N, m = cfg.grid, cfg.N, cfg.grid.size
    v = phi.values.reshape(-1) / phi.l2_norm()
    rho = np.abs(v) ** 2 * g.cell_volume
    vbar = manybody.symmetrized_triple_value(cfg)
    pair = vbar @ rho  # (m, m)
    single = pair @ rho  # (m,)
    x = np.unravel_index(np.arange(m**k), (m,) * k)
    w = sum(vbar[x[i], x[j], x[l]] for i, j, l in itertools.combinations(range(k), 3)) / N**2
    w = w + (N - k) / N**2 * sum(pair[x[i], x[j]] for i, j in itertools.combinations(range(k), 2))
    w = w + (N - k) * (N - k - 1) / (2 * N**2) * sum(single[x[j]] for j in range(k))
    vk = functools.reduce(np.multiply.outer, [v.reshape(g.shape)] * k)
    xi2 = functools.reduce(np.add.outer, [grids._xi_squared(g.d, g.n)] * k)
    a_v = np.fft.ifftn(xi2 * np.fft.fftn(vk)).reshape(-1) + w * vk.reshape(-1)
    x_mat = np.outer(a_v, vk.reshape(-1).conj()) * g.cell_volume**k
    return x_mat - x_mat.conj().T


class TestBbgkyResidual:
    @pytest.mark.parametrize("d,n,N,k", [
        pytest.param(1, 8, 3, 1, id="3-1"), pytest.param(1, 4, 4, 2, id="4-2"),
        pytest.param(1, 4, 5, 3, id="5-3"),
        (1, 8, 4, 1), (1, 8, 5, 2), (1, 6, 6, 4), (1, 4, 7, 2), (1, 4, 8, 5), (1, 12, 4, 1),
        (2, 4, 3, 1), (2, 4, 4, 2), (3, 4, 3, 1),
    ])
    def test_rhs_matches_exact_derivative(self, d, n, N, k):
        # oracle: d/dt of the partial trace computed directly from H psi on the
        # full tensor; k >= 3 reaches the intra-cluster triples
        g = GridSpec(d, n)
        cfg = ManyBodyConfig(g, N, 0.05 if k == 1 else 0.03)
        psi = BosonicState.random_symmetric(cfg, np.random.default_rng(10 + k), band=2)
        dpsi = -1j * apply_hamiltonian(psi)
        m = g.size
        a = psi.amps.reshape(m**k, -1)
        da = dpsi.reshape(m**k, -1)
        dgam = (da @ a.conj().T + a @ da.conj().T) * g.cell_volume**N
        rhs = bbgky_rhs(cfg, psi, k)
        assert np.abs(1j * dgam - rhs).max() <= 1e-13 * np.abs(rhs).max()

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
    def test_factorized_rhs_matches_the_mean_field_assembly(self, N):
        # at t = 0 on phi^(x)N the traced slots hold phi, so each family is a
        # potential of phi alone with its finite-N coefficient
        g = GridSpec(1, 6)
        cfg = ManyBodyConfig(g, N, 0.05)
        phi = unit_phi(g, seed=N, band=2)
        psi = BosonicState.factorized(cfg, phi)
        for k in range(1, min(N - 2, 3) + 1):
            want = mean_field_rhs(phi, cfg, k)
            assert np.abs(bbgky_rhs(cfg, psi, k) - want).max() <= 1e-12 * np.abs(want).max()

    def test_rhs_peak_memory_is_the_k_marginal(self):
        # the (k+2)-marginal of this state would hold 12^8 entries (6.9 GB)
        g = GridSpec(1, 12)
        cfg = ManyBodyConfig(g, 4, 0.05)
        psi = BosonicState.factorized(cfg, unit_phi(g, seed=26))
        tracemalloc.start()
        try:
            rhs = bbgky_rhs(cfg, psi, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rhs.shape == (g.size**2, g.size**2)
        assert peak < 100 * 2**20

    def test_free_hierarchy_residual_refines(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.0, GaussianPotential(amplitude=0.0))
        psi0 = BosonicState.factorized(cfg, unit_phi(g, seed=13))
        res = []
        for h in (0.02, 0.01):
            snaps = [propagate(psi0, t) for t in (0.0, h, 2 * h)]
            res.append(bbgky_residual(snaps, np.array([0.0, h, 2 * h]), 1))
        ratio = res[0] / res[1]
        assert 3.0 <= ratio <= 5.0

    def test_smallest_admissible_case(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.05)
        psi0 = BosonicState.factorized(cfg, unit_phi(g, seed=14))
        h = 0.01
        snaps = [propagate(psi0, t) for t in (0.0, h, 2 * h)]
        r = bbgky_residual(snaps, np.array([0.0, h, 2 * h]), 1)
        assert np.isfinite(r)
        with pytest.raises(ValueError):
            bbgky_residual(snaps, np.array([0.0, h, 2 * h]), 2)

    def test_second_order_in_snapshot_spacing(self):
        g = GridSpec(1, 8)
        cfg = ManyBodyConfig(g, 3, 0.05)
        psi0 = BosonicState.factorized(cfg, unit_phi(g, seed=15))
        res = []
        for h in (0.02, 0.01):
            snaps = [propagate(psi0, t) for t in (0.0, h, 2 * h)]
            res.append(bbgky_residual(snaps, np.array([0.0, h, 2 * h]), 1))
        assert 3.0 <= res[0] / res[1] <= 5.0


class TestGpResidual:
    # Residual runs use dealias=False so the solver evolves exactly the grid
    # discretization whose collapse term the hierarchy contraction samples;
    # the centred-difference error then dominates and refines at order 2.

    def test_free_trajectory_residual_small(self):
        g = GridSpec(1, 8)
        phi0 = unit_phi(g, seed=16)
        h = 5e-5
        traj = evolve(phi0, 2 * h, NlsConfig(g, 0.0, h / 4), snapshot_every=4)
        assert gp_residual(traj, 1, 0.0) <= 1e-8

    def test_k1_equals_lifted_nls_residual(self):
        # algebraic identity for factorized states: the generic contraction
        # path must reproduce the directly lifted field computation
        g = GridSpec(1, 8)
        phi0 = unit_phi(g, seed=17)
        traj = evolve(phi0, 0.04, NlsConfig(g, 1.0, 0.01), snapshot_every=1)
        a = gp_residual(traj, 1, 1.0)
        b = nls_residual_lifted(traj, 1.0)
        assert abs(a - b) <= 1e-12 * max(a, 1.0)

    # (1, 96, 1) and (1, 128, 1) put the commutator's kinetic part on either
    # side of manybody._DENSE_KINETIC_MAX_N
    @pytest.mark.parametrize("d,n,k", [(1, 8, 1), (1, 8, 2), (1, 8, 3), (2, 4, 2),
                                       (1, 96, 1), (1, 128, 1)])
    def test_rhs_matches_leibniz_oracle(self, d, n, k):
        # oracle: the one-particle commutator R1 = |h phi><phi| - |phi><h phi|
        # of nls_residual_lifted, spread over the slots by the Leibniz rule
        g = GridSpec(d, n)
        phi = unit_phi(g, seed=25)
        b0 = 1.5
        v = phi.values.reshape(-1)
        v = v / np.sqrt(np.sum(np.abs(v) ** 2) * g.cell_volume)
        freq2 = np.fft.fftfreq(n, 1.0 / n) ** 2
        xi2 = sum(np.meshgrid(*[freq2] * d, indexing="ij"))
        lap = np.fft.ifftn(xi2 * np.fft.fftn(v.reshape(g.shape))).reshape(-1)
        hv = lap + b0 * np.abs(v) ** 4 * v
        g1 = np.outer(v, v.conj()) * g.cell_volume
        r1 = (np.outer(hv, v.conj()) - np.outer(v, hv.conj())) * g.cell_volume
        want = sum(
            functools.reduce(np.kron, [g1] * j + [r1] + [g1] * (k - 1 - j)) for j in range(k)
        )
        assert np.abs(gp_rhs(phi, k, b0) - want).max() <= 1e-12

    def test_second_order_refinement(self):
        g = GridSpec(1, 8)
        phi0 = unit_phi(g, seed=18)
        res = []
        for dt in (0.02, 0.01):
            cfg = NlsConfig(g, 1.0, dt / 4, dealias=False)
            traj = evolve(phi0, 4 * dt, cfg, snapshot_every=4)
            res.append(gp_residual(traj, 1, 1.0))
        assert 3.0 <= res[0] / res[1] <= 5.0


class TestHufl:
    def test_band_limited_true_for_all_k(self):
        g = GridSpec(1, 16)
        phi = unit_phi(g, seed=19, band=2)
        gammas = [rank_one_marginal(phi, k) for k in (1, 2, 3)]
        assert all(hufl_left_side(g, 4) <= 0.5 ** (2 * g.k) for g in gammas)

    def test_power_law_for_factorized(self):
        g = GridSpec(1, 16)
        phi = unit_phi(g, seed=20, band=6)
        m_cut = 2
        base = np.sqrt(hufl_left_side(rank_one_marginal(phi, 1), m_cut))
        for k in (1, 2, 3):
            lhs = hufl_left_side(rank_one_marginal(phi, k), m_cut)
            assert lhs == pytest.approx(base ** (2 * k), rel=1e-10)

    def test_plane_wave_value(self):
        g = GridSpec(1, 16)
        phi = TorusField.plane_wave(g, 5)
        lhs = hufl_left_side(rank_one_marginal(phi, 1), m_cut=2)
        # <xi>^2 for xi=5, normalized state
        assert lhs == pytest.approx(26.0, rel=1e-12)

    @pytest.mark.parametrize("d,n,ks", [(1, 16, [1, 2, 3]), (2, 8, [1, 2]), (1, 32, [1, 2]),
                                        (2, 4, [1, 2, 3])])
    def test_factorized_matches_dense_trace(self, d, n, ks):
        g = GridSpec(d, n)
        phi = unit_phi(g, seed=25, band=n // 2)
        # the terms summed have size ||<grad> phi||^(2k), which sets the rounding scale
        scale = sobolev_norm(phi, 1.0) ** 2
        for k in ks:
            dense = hufl_left_side(rank_one_marginal(phi, k), 2)
            assert abs(hufl_factorized(phi, k, 2) - dense) <= 1e-12 * scale**k

    def test_non_factorized_against_kron_trace(self):
        g = GridSpec(1, 4)
        psi = BosonicState.random_symmetric(ManyBodyConfig(g, 3, 0.05),
                                            np.random.default_rng(26), band=2)
        gamma = marginal(psi, 2)
        xi = g.axis_frequencies()
        w2 = (1.0 + xi**2) * (np.abs(xi) > 1)
        waves = np.exp(1j * np.outer(g.axis_points(), xi))  # waves[x, xi] = e^{i xi x}
        W = (waves * w2) @ waves.conj().T / 4
        want = np.real(np.trace(np.kron(W, W) @ gamma.matrix))
        assert hufl_left_side(gamma, 1) == pytest.approx(want, rel=1e-12)

    def test_slotwise_trace_allocates_no_copy(self):
        g = GridSpec(1, 16)
        gamma = rank_one_marginal(unit_phi(g, seed=27, band=6), 2)
        tracemalloc.start()
        try:
            hufl_left_side(gamma, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gamma.matrix.nbytes / 4

    def test_monotone_in_cutoff(self):
        g = GridSpec(1, 16)
        phi = unit_phi(g, seed=21, band=6)
        gammas = [rank_one_marginal(phi, k) for k in (1, 2)]
        eps = np.sqrt(hufl_left_side(gammas[0], 4)) * 1.01
        assert all(hufl_left_side(g, 4) <= eps ** (2 * g.k) for g in gammas)
        assert all(hufl_left_side(g, 8) <= eps ** (2 * g.k) for g in gammas)


def chaos_configs(g, Ns, beta, **kwargs):
    return [ManyBodyConfig(g, N, beta, **kwargs) for N in Ns]


class TestChaosExperiment:
    def test_t0_distance_zero(self):
        g = GridSpec(1, 8)
        rows = chaos_experiment(chaos_configs(g, [2, 3], 0.1), unit_phi(g, seed=22), T=0.0)
        for r in rows:
            assert r.distance <= 1e-10

    def test_free_interaction_matches_for_all_N(self):
        g = GridSpec(1, 8)
        rows = chaos_experiment(
            chaos_configs(g, [2, 3], 0.1, potential=GaussianPotential(amplitude=0.0)),
            unit_phi(g, seed=23), T=0.1,
        )
        for r in rows:
            assert r.distance < 1e-8

    @pytest.mark.parametrize("beta,flows", [(0.0, 1), (0.1, 4)])
    def test_one_nls_flow_per_coupling(self, beta, flows, monkeypatch):
        # at beta = 0 every N has the same coupling b0, so the mean-field flow
        # runs once; the rows equal those of one call per N
        g = GridSpec(1, 8)
        phi0, Ns = unit_phi(g, seed=25), [2, 3, 4, 5]
        per_n = [chaos_experiment(chaos_configs(g, [N], beta), phi0, T=0.05)[0] for N in Ns]
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(marginals, "evolve", counting)
        rows = chaos_experiment(chaos_configs(g, Ns, beta), phi0, T=0.05)
        assert rows == per_n
        assert len(calls) == len({r.coupling for r in rows}) == flows

    @pytest.mark.parametrize("scale", [3.0, 1.0 + 1e-9])
    def test_rejects_a_datum_of_norm_other_than_one(self, scale, monkeypatch):
        # the N-body side normalizes phi0 and the NLS side does not: 3 phi gave
        # distances of 1.07 where phi gives 0.018-0.020
        monkeypatch.setattr(marginals, "propagate", None)  # rejected before any N runs
        with pytest.raises(ValueError, match="unit L2 norm"):
            chaos_experiment(chaos_configs(GridSpec(1, 8), [2, 3], 0.1),
                             unit_phi(GridSpec(1, 8), seed=22) * scale, T=0.2)

    @pytest.mark.parametrize("n", [4, 16])
    def test_rejects_a_config_off_the_datum_grid(self, n, monkeypatch):
        # a finer datum would index wrong values, a coarser one past the end
        monkeypatch.setattr(marginals, "propagate", None)  # rejected before any N runs
        with pytest.raises(ValueError, match="grid"):
            chaos_experiment(chaos_configs(GridSpec(1, 8), [2], 0.1),
                             unit_phi(GridSpec(1, n), seed=22), T=0.2)

    def test_distance_shrinks_with_N(self):
        g = GridSpec(1, 8)
        rows = chaos_experiment(chaos_configs(g, [2, 4], 0.1), unit_phi(g, seed=24), T=0.2)
        d = {r.N: r.distance for r in rows}
        assert d[4] < d[2]

    def test_unconcentrated_limit_rate(self):
        # with an unscaled (beta = 0) unit-mass interaction the limit flow is
        # the matched self-consistent equation, and the distance to it decays
        # like 1/N: the log-log slope over small N sits within 0.5 of -1
        from quintlab.marginals import KthMarginal, mean_field_flow

        g = GridSpec(1, 8)
        phi0 = unit_phi(g, seed=30)
        T = 0.2
        cfg0 = ManyBodyConfig(g, 2, 0.0)
        phiT = mean_field_flow(phi0, T, 1e-3, cfg0)
        target = rank_one_marginal(phiT, 1)
        ns = [2, 3, 4, 5]
        ds = []
        for N in ns:
            cfg = ManyBodyConfig(g, N, 0.0)
            psi = propagate(BosonicState.factorized(cfg, phi0), T)
            ds.append(trace_distance(marginal(psi, 1), target))
        slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
        assert -1.5 <= slope <= -0.5
