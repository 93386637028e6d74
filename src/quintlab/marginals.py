"""Marginal density matrices, trace metrics, hierarchy residuals, and the
propagation-of-chaos experiment.

Marginals carry the quadrature weight dx^d per particle folded into the
matrix, so the matrix trace equals the kernel-integral trace and operator
compositions can be written as plain matrix products.

The coupled evolution equations satisfied by the marginals of an N-body
state, for the Hamiltonian of the manybody module, are assembled here with
their exact finite-N coefficients (derived, and verified in the tests, by
differentiating the partial trace):

  i d/dt g^(k) = sum_{j<=k} [-Lap_j, g^(k)]
               + (1/N^2)           sum_{i<j<l<=k} [Vbar_{ijl}, g^(k)]
               + (N-k)/N^2         sum_{i<j<=k}   Tr_{k+1} [Vbar_{i,j,k+1}, g^(k+1)]
               + (N-k)(N-k-1)/(2 N^2) sum_{j<=k}  Tr_{k+1,k+2} [Vbar_{j,k+1,k+2}, g^(k+2)]

bbgky_rhs takes every term on B_k, the k annihilation gathers of the sector
vector (manybody._annihilate), with no full tensor.  psi is symmetric in the
traced slots, so each traced term may be averaged over them: the N-k traced
slots and (N-k)(N-k-1)/2 traced pairs cancel the coefficients of the last two
lines, which leave 1/N^2 times Vbar summed over every triple with a row slot.
A triple of traced slots alone adds Tr_{k+1..N} [Vbar, |psi><psi|] = 0, so
the potential is H's own diagonal, and its term is B_k of V psi.  Only amps
and random_symmetric form the full tensor; state files stream it by slab.

The mean-field counterpart replaces the last contraction with the
on-diagonal collapse weighted by the coupling b0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    GridSpec, MemoryBudgetError, TorusField, _fftn, _ifftn, _mask_leq, _xi_squared, check_cutoff,
    check_entries, project_gt, sobolev_norm,
)
from .manybody import (
    BosonicState,
    ManyBodyConfig,
    _annihilate,
    _kinetic,
    _on_slot,
    _pair_table,
    _sector,
    _tensor_power,
    _unit_values,
    energy_per_particle,
    potential_mass,
    propagate,
)
from .nls import NlsConfig, Trajectory, _advance, check_step_count, evolve


@dataclass
class KthMarginal:
    """Reduced density matrix over the k-particle grid basis.

    matrix has shape (n^d)^k x (n^d)^k and includes the quadrature weight
    (2 pi / n)^(d k), making it trace-one for a normalized state.
    """

    k: int
    grid: GridSpec
    matrix: np.ndarray

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_residual(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T)).min())


def marginal(psi: BosonicState, k: int) -> KthMarginal:
    """Partial trace of |psi><psi| over slots k+1..N, quadrature-weighted:
    dx^(dN) B_k B_k^dagger, with B_k the k annihilation gathers of psi.c (_annihilate);
    it holds B_k and the conjugate the product takes."""
    N, grid = psi.config.N, psi.config.grid
    if not 1 <= k <= N:
        raise ValueError(f"require 1 <= k <= N, got k={k}, N={N}")
    check_marginal_order(k)
    psi.config.check_factor_budget(k, 2, 1)
    b = _annihilate(psi.c, psi.config, k)
    return KthMarginal(k, grid, (b @ b.conj().T) * grid.cell_volume**N)


def check_marginal_order(k: float) -> None:
    """A marginal, dense or factorized, has an integer order k >= 1."""
    if k < 1 or k % 1:
        raise ValueError(f"marginal order must be an integer >= 1, got {k}")


def check_rank_one_order(grid: GridSpec, k: int) -> None:
    """A dense k-marginal needs k >= 1 and m^(2k) entries within MEMORY_BUDGET; past
    k = 32, m^(2k) >= 4^66 is past any budget, and is stated as that power, never formed."""
    check_marginal_order(k)
    if k > 32:
        raise MemoryBudgetError(None, f"a {k}-marginal would hold {grid.size}^{2 * k} entries")
    check_entries(f"a {k}-marginal", grid.size ** (2 * k))


def rank_one_marginal(phi: TorusField, k: int = 1) -> KthMarginal:
    """|phi><phi|^(x)k as a weighted matrix (phi is normalized first)."""
    check_rank_one_order(phi.grid, k)
    vk = _tensor_power(_unit_values(phi), k)
    mat = np.outer(vk, vk.conj()) * phi.grid.cell_volume**k
    return KthMarginal(k, phi.grid, mat)


def partial_trace_last(g: KthMarginal) -> KthMarginal:
    """Tr_{k} g^(k) -> g^(k-1); weights are already folded in."""
    if g.k < 2:
        raise ValueError("nothing left to trace out")
    m = g.grid.size
    t = g.matrix.reshape(m ** (g.k - 1), m, m ** (g.k - 1), m)
    return KthMarginal(g.k - 1, g.grid, np.trace(t, axis1=1, axis2=3))


def trace_distance(a: KthMarginal, b: KthMarginal) -> float:
    """Tr |a - b|: the sum of singular values of the difference."""
    if a.matrix.shape != b.matrix.shape:
        raise ValueError("marginals have different shapes")
    return float(np.linalg.svd(a.matrix - b.matrix, compute_uv=False).sum())


# -- hierarchy residuals ---------------------------------------------------


def _traced_commutator(b: np.ndarray, v_b: np.ndarray, grid: GridSpec, k: int,
                       weight: float) -> np.ndarray:
    """Tr_{k+1..} [A, |psi><psi|] for A = sum_{j<=k} (-Lap_j) + V, V diagonal
    and symmetric in the traced slots: every hierarchy term is one such trace.
    b is psi's factor over the k row slots, (m^k, p) with b b^dagger weight the
    k-marginal, and v_b holds V b.  The result is X - X^dagger with
    X = (A b) b^dagger weight, so no marginal beyond the k-th is formed."""
    a_b = _kinetic(b.reshape(grid.shape * k + (-1,)), k * grid.d).reshape(b.shape)
    a_b += v_b
    x = (a_b @ b.conj().T) * weight
    return np.subtract(x, x.conj().T, out=x)


def check_hierarchy_order(k: int, N: int) -> None:
    """bbgky_rhs needs 1 <= k <= N - 2: its last term traces out two more slots."""
    if not 1 <= k <= N - 2:
        raise ValueError(f"the hierarchy equation needs 1 <= k <= N - 2, got k={k}, N={N}")


def bbgky_rhs(config: ManyBodyConfig, psi: BosonicState, k: int) -> np.ndarray:
    """Right-hand side of the k-th marginal evolution equation at a state,
    taken on B_k (_annihilate): it holds B_k, V B_k, A B_k and one scratch of
    their shape, beside the (m^k)^2 product and its adjoint."""
    N, grid = config.N, config.grid
    check_hierarchy_order(k, N)
    config.check_factor_budget(k, 4, 2)
    # V psi is the sector's diagonal times c, so its factor is one more gather
    v_b = _annihilate(_sector(config).diag * psi.c, config, k)
    return _traced_commutator(_annihilate(psi.c, config, k), v_b, grid, k, grid.cell_volume**N)


def _centred_residual(before: np.ndarray, after: np.ndarray, h: float, rhs: np.ndarray) -> float:
    """||i (after - before) / 2h - rhs||_F: a hierarchy residual, with the time
    derivative a centred difference of the marginals h before and after."""
    return float(np.linalg.norm(1j * (after - before) / (2.0 * h) - rhs))


def bbgky_residual(snapshots: list[BosonicState], times: np.ndarray, k: int) -> float:
    """Frobenius norm of i d/dt g^(k) minus the hierarchy right-hand side.

    The time derivative is a centred difference at the middle snapshot, so at
    least three uniformly spaced snapshots are required.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots")
    times = np.asarray(times, dtype=float)
    h = times[1] - times[0]
    if not np.allclose(np.diff(times), h, rtol=1e-8):
        raise ValueError("snapshots must be uniformly spaced")
    mid = len(snapshots) // 2
    before, after = (marginal(snapshots[mid + s], k).matrix for s in (-1, 1))
    return _centred_residual(before, after, h, bbgky_rhs(snapshots[mid].config, snapshots[mid], k))


# -- mean-field (factorized) hierarchy --------------------------------------


def gp_rhs(phi: TorusField, k: int, b0: float) -> np.ndarray:
    """Mean-field hierarchy right-hand side at phi^(x)k: the traced commutator
    with A = sum_j (-Lap_j + b0 |phi(x_j)|^4), its factor the p = 1 column phi^(x)k."""
    grid = phi.grid
    check_rank_one_order(grid, k)
    v = _unit_values(phi)
    b = _tensor_power(v, k)[:, None]
    pot = b0 * sum(_on_slot(np.abs(v) ** 4, j, k) for j in range(k)).reshape(-1, 1)
    return _traced_commutator(b, pot * b, grid, k, grid.cell_volume**k)


def gp_residual(phi_traj: Trajectory, k: int, b0: float) -> float:
    """Frobenius residual of the factorized mean-field hierarchy at the middle
    snapshot of an NLS trajectory."""
    if len(phi_traj) < 3:
        raise ValueError("need at least 3 snapshots")
    mid = len(phi_traj) // 2
    before, after = (rank_one_marginal(phi_traj.states[mid + s], k).matrix for s in (-1, 1))
    return _centred_residual(before, after, phi_traj.spacing, gp_rhs(phi_traj.states[mid], k, b0))


def nls_residual_lifted(phi_traj: Trajectory, b0: float) -> float:
    """The k=1 factorized hierarchy residual assembled directly from fields:
    i d/dt (phi phi*) against |h phi><phi| - |phi><h phi| with
    h phi = -Lap phi + b0 |phi|^4 phi.  Algebraically identical to
    gp_residual(traj, 1, b0); kept as an independent assembly route."""
    mid = len(phi_traj) // 2
    grid = phi_traj.states[mid].grid
    vm, v0, vp = (_unit_values(phi_traj.states[mid + s]) for s in (-1, 0, 1))
    xi2 = _xi_squared(grid.d, grid.n)
    lap = _fftn(v0.reshape(grid.shape))
    lap *= xi2
    lap = _ifftn(lap, out=lap).reshape(-1)
    hv = lap + b0 * np.abs(v0) ** 4 * v0
    rhs = np.outer(hv, v0.conj()) - np.outer(v0, hv.conj())
    return grid.cell_volume * _centred_residual(np.outer(vm, vm.conj()), np.outer(vp, vp.conj()),
                                                phi_traj.spacing, rhs)


# -- frequency-localization check on marginals -------------------------------


def hufl_left_side(g: KthMarginal, m_cut: float) -> float:
    """Tr S^(1,k) P_{>M}^(k) g P_{>M}^(k) S^(1,k) with per-slot weights.

    The weights are commuting per-slot Fourier multipliers, so by cyclicity
    the trace equals Tr W^(x k) g with the one-slot m x m matrix
    W = F^-1 diag(w^2) F, w^2 = (1 + |xi|^2) on |xi| > M.  It is taken as k
    successive weighted partial traces: each contracts the last slot of
    g.reshape(r, m, r, m) against W, so nothing of the size of g is formed.
    """
    check_cutoff(m_cut)
    d, n, m = g.grid.d, g.grid.n, g.grid.size
    w2 = (1.0 + _xi_squared(d, n)) * (~_mask_leq(d, n, m_cut))
    # W is circulant: W[x, y] = c[x - y] with c = F^-1 w^2, the differences taken per axis
    diff = np.subtract.outer(np.arange(n), np.arange(n)) % n
    per_axis = tuple(diff.reshape([n if i in (j, d + j) else 1 for i in range(2 * d)])
                     for j in range(d))
    W = _ifftn(w2)[per_axis].reshape(m, m)
    t = g.matrix
    for j in range(g.k, 0, -1):
        r = m ** (j - 1)
        t = np.einsum("rasb,ba->rs", t.reshape(r, m, r, m), W)
    return float(np.real(t[0, 0]))


def hufl_factorized(phi: TorusField, k: int, m_cut: float) -> float:
    """hufl_left_side(rank_one_marginal(phi, k), m_cut) from phi alone.

    On |phi><phi|^(x k) the trace factorizes slot by slot, so it is the k-th
    power of the one-slot value (||P_{>M} phi||_{H^1} / ||phi||)^2; no marginal, no budget.
    """
    check_marginal_order(k)
    return (sobolev_norm(project_gt(phi, m_cut), 1.0) / phi.l2_norm()) ** (2 * k)


# -- the propagation-of-chaos experiment -------------------------------------


def mean_field_flow(
    phi0: TorusField, T: float, dt: float, config: ManyBodyConfig
) -> TorusField:
    """Self-consistent one-particle flow matched to the N-body model, by Strang
    splitting (nls.strang_step's flow with this rate, no dealiasing):

        i d/dt phi = -Lap phi + (1/2) [ int Vbar(x,y,z) |phi(y)|^2 |phi(z)|^2 dy dz ] phi

    The 1/2 is the large-N limit of the per-particle triple count over N^2.
    It is the comparison target at beta = 0, where the quintic flow is not the limit.
    From the pair table P (manybody._pair_table): (kappa/6) (a^2 + 2 dx^d P(rho a)), a = dx^d P rho.
    """
    grid, (pair, kappa) = config.grid, _pair_table(config)

    def rate(rho):
        r = rho.reshape(-1)
        a = grid.cell_volume * (pair @ r)
        return (kappa / 6 * (a * a + 2 * grid.cell_volume * (pair @ (r * a)))).reshape(grid.shape)

    phi = TorusField.from_values(grid, _unit_values(phi0).reshape(grid.shape))
    return _advance(phi, dt, check_step_count(T, dt), rate, dealias=False)


@dataclass
class ChaosRow:
    N: int
    distance: float
    energy_per_particle: float
    coupling: float


def chaos_experiment(configs: list[ManyBodyConfig], phi0: TorusField, T: float) -> list[ChaosRow]:
    """Distance between the one-particle marginal of the evolved N-body state
    and the mean-field projector, for each of `configs` (one per N, on phi0's grid).

    The mean-field side evolves phi0 to T in 200 Strang steps of the quintic NLS
    with coupling b0 equal to the grid mass of the tabulated interaction, once per
    distinct b0.  The N-body side starts from the normalized phi0, so phi0 must
    have unit L2 norm to 1e-12; any other phi0, or a config off its grid, raises ValueError.
    """
    if not abs(phi0.l2_norm() - 1.0) <= 1e-12:
        raise ValueError(f"phi0 must have unit L2 norm, got {phi0.l2_norm()}")
    if any(config.grid != phi0.grid for config in configs):
        raise ValueError(f"every config must be on phi0's grid {phi0.grid}")
    rows = []
    flows = {}  # b0 -> phi0 evolved to T; at beta = 0 every N has the same b0
    for config in configs:
        b0 = potential_mass(config)
        psiT = propagate(BosonicState.factorized(config, phi0), T)
        if b0 not in flows:
            flows[b0] = phi0 if T == 0 else evolve(
                phi0, T, NlsConfig(phi0.grid, b0, T / 200), snapshot_every=200).states[-1]
        rows.append(
            ChaosRow(
                N=config.N,
                distance=trace_distance(marginal(psiT, 1), rank_one_marginal(flows[b0], 1)),
                energy_per_particle=energy_per_particle(psiT),
                coupling=b0,
            )
        )
    return rows
