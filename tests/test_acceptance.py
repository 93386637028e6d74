"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import numpy as np
import pytest

from quintlab.couplings import (
    CollapseMap,
    NodeKind,
    PLUS,
    MINUS,
    SignedExpansion,
    double_factorial,
    enumerate_collapse_maps,
    mark_expansion,
    min_unclogged,
    min_unclogged_floor,
)
from quintlab.grids import (
    GridSpec,
    TorusField,
    convolve,
    dirichlet_kernel,
    project_gt,
    project_leq,
)
from quintlab.manybody import (
    BosonicState,
    GaussianPotential,
    ManyBodyConfig,
    apply_hamiltonian_raw,
    propagate,
)
from quintlab.marginals import (
    bbgky_residual,
    chaos_experiment,
    gp_residual,
    hufl_left_side,
    marginal,
    nls_residual_lifted,
    partial_trace_last,
    rank_one_marginal,
)
from quintlab.nls import (
    NlsConfig,
    energy_low_drift,
    energy_nls,
    energy_split,
    evolve,
    plane_wave_solution,
    utfl_probe,
)
from quintlab.probes import (
    approx_identity_rate,
    bilinear_strichartz_ratio,
    multilinear_ratio,
    refined_sobolev_ratio,
    run_probe,
    strichartz_ratio,
)


def report(cid: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def unit_field(grid, seed, band, decay=2.0, scale=1.0):
    rng = np.random.default_rng(seed)
    f = TorusField.random_band_limited(grid, band, rng, decay=decay)
    return f * (scale / f.l2_norm())


def test_criterion_01_spectral_core_algebra():
    worst = {"complement": 0.0, "idem": 0.0, "parseval": 0.0, "kernel": 0.0}
    count = 0
    for d in (1, 3):
        for n in (8, 16):
            g = GridSpec(d, n)
            rng = np.random.default_rng(1000 + 10 * d + n)
            for _ in range(50):
                f = TorusField.random_band_limited(g, g.nyquist, rng)
                count += 1
                scale = np.abs(f.coefficients).max()
                for m in (1, 2, n // 4):
                    s = project_leq(f, m) + project_gt(f, m)
                    worst["complement"] = max(
                        worst["complement"],
                        np.abs(s.coefficients - f.coefficients).max() / scale,
                    )
                    pp = project_leq(project_leq(f, m), m)
                    worst["idem"] = max(
                        worst["idem"],
                        np.abs(pp.coefficients - project_leq(f, m).coefficients).max()
                        / scale,
                    )
                quad = np.sqrt(np.sum(np.abs(f.values) ** 2) * g.cell_volume)
                worst["parseval"] = max(
                    worst["parseval"], abs(quad - f.l2_norm()) / f.l2_norm()
                )
                for m in (1, 2):
                    k = dirichlet_kernel(g, m)
                    conv = convolve(f, k) * (2 * np.pi) ** (-d)
                    proj = project_leq(f, m)
                    worst["kernel"] = max(
                        worst["kernel"],
                        np.abs(conv.coefficients - proj.coefficients).max() / scale,
                    )
    ok = (
        count == 200
        and worst["complement"] == 0.0
        and worst["idem"] == 0.0
        and worst["parseval"] <= 1e-12
        and worst["kernel"] <= 1e-10
    )
    report(
        "1 (spectral core algebra)",
        ok,
        f"{count} fields; complement {worst['complement']:.1e}, idempotence "
        f"{worst['idem']:.1e}, Parseval {worst['parseval']:.1e}, kernel "
        f"{worst['kernel']:.1e}",
    )


def test_criterion_02_nls_conservation():
    g = GridSpec(3, 16)
    f0 = unit_field(g, 42, band=1, decay=0.5, scale=2.0)
    drift = {}
    mass_drift = 0.0
    for dt in (0.025, 0.0125):
        traj = evolve(f0, 0.5, NlsConfig(g, 1.0, dt), snapshot_every=1)
        e0 = energy_nls(traj.states[0], 1.0)
        m0 = traj.states[0].l2_norm()
        drift[dt] = max(abs(energy_nls(u, 1.0) - e0) for u in traj.states) / abs(e0)
        mass_drift = max(
            mass_drift, max(abs(u.l2_norm() - m0) for u in traj.states) / m0
        )
    ratio = drift[0.025] / drift[0.0125]
    ok = mass_drift < 1e-11 and 3.0 <= ratio <= 5.0
    report(
        "2 (NLS conservation)",
        ok,
        f"mass drift {mass_drift:.2e} (< 1e-11), energy refinement ratio {ratio:.2f}",
    )


def test_criterion_03_plane_wave_exact_solution():
    g = GridSpec(1, 16)
    A, xi, b0, T = 0.9, 2, 1.3, 0.5
    f0 = TorusField.plane_wave(g, xi, A)
    phase_err = {}
    for dt in (0.01, 0.005):
        traj = evolve(f0, T, NlsConfig(g, b0, dt), snapshot_every=int(round(T / dt)))
        exact = plane_wave_solution(g, xi, A, b0, T)
        phase_err[dt] = np.abs(
            traj.states[-1].coefficients - exact.coefficients
        ).max()
    # rounding accumulates ~eps per step; a dt^2 truncation signal would have
    # to clear the floor for the finest step count to be measurable
    steps_max = int(round(T / min(phase_err)))
    noise_floor = 20 * np.finfo(float).eps * steps_max * A
    if max(phase_err.values()) <= noise_floor:
        # the splitting reproduces plane waves exactly (both substeps act as
        # the same uniform phase), so the error is pure rounding and the
        # O(dt^2) bound holds with constant 0; the refinement ratio is then
        # measured on generic data, where the splitting error is visible
        branch = f"exact to rounding ({max(phase_err.values()):.1e})"
        ratio_ok = True
    else:
        r = phase_err[0.01] / phase_err[0.005]
        branch = f"errors {phase_err[0.01]:.2e}/{phase_err[0.005]:.2e}, ratio {r:.2f}"
        ratio_ok = 3.0 <= r <= 5.0
    errs = []
    f_gen = unit_field(GridSpec(1, 32), 15, band=5)
    for dt in (0.01, 0.005):
        cfg = NlsConfig(GridSpec(1, 32), 1.0, dt)
        u = evolve(f_gen, 0.1, cfg, snapshot_every=int(round(0.1 / dt))).states[-1]
        ref_cfg = NlsConfig(GridSpec(1, 32), 1.0, dt / 64)
        ref = evolve(
            f_gen, 0.1, ref_cfg, snapshot_every=int(round(0.1 / (dt / 64)))
        ).states[-1]
        errs.append(np.abs(u.coefficients - ref.coefficients).max())
    gen_ratio = errs[0] / errs[1]
    ok = ratio_ok and 3.0 <= gen_ratio <= 5.0
    report(
        "3 (plane-wave exact solution)",
        ok,
        f"plane wave {branch}; generic-datum refinement ratio {gen_ratio:.2f}",
    )


def test_criterion_04_energy_split_and_drift_scaling():
    g = GridSpec(1, 128)
    f0 = unit_field(g, 3, band=48, decay=0.0, scale=2.0)
    cfg = NlsConfig(g, 1.0, 0.002)
    traj = evolve(f0, 0.1, cfg, snapshot_every=5)
    split_err = 0.0
    for u in traj.states:
        e = energy_nls(u, 1.0)
        for m in (4, 8, 16):
            e_l, e_h = energy_split(u, m, 1.0)
            split_err = max(split_err, abs(e_l + e_h - e) / abs(e))
    e_ref = abs(energy_nls(traj.states[0], 1.0))
    e0 = energy_split(traj.states[0], 8, 1.0)
    eT = energy_split(traj.states[-1], 8, 1.0)
    total_drift = abs(
        energy_nls(traj.states[-1], 1.0) - energy_nls(traj.states[0], 1.0)
    )
    transfer_gap = abs((eT[1] - e0[1]) + (eT[0] - e0[0]))
    cs = {m: energy_low_drift(traj, m)["fitted_C"] for m in (4, 8, 16)}
    spread = max(cs.values()) / min(cs.values())
    ok = split_err <= 1e-12 and transfer_gap <= total_drift + 1e-12 and spread < 3.0
    report(
        "4 (energy split / drift scaling)",
        ok,
        f"split identity {split_err:.1e}, high/low transfer gap "
        f"{transfer_gap / e_ref:.1e} rel (within total drift "
        f"{total_drift / e_ref:.1e} rel), fitted-C spread x{spread:.2f} over M=4,8,16",
    )


def test_criterion_05_utfl():
    cases = [
        (0, 1, 64, 6, 1.0),
        (1, 1, 64, 6, 1.5),
        (2, 1, 64, 4, 2.0),
        (3, 3, 16, 2, 1.0),
        (4, 3, 16, 2, 1.5),
    ]
    found = []
    for seed, d, n, band, amp in cases:
        g = GridSpec(d, n)
        f0 = unit_field(g, seed, band=band, scale=amp)
        assert f0.spectral_tail(n // 4) < 1e-10  # resolved datum
        traj = evolve(f0, 1.0, NlsConfig(g, 1.0, 0.005), snapshot_every=10)
        m = utfl_probe(traj, eps=1e-3)
        found.append((d, n, m))
    ok = all(m is not None and m < n // 2 for (_, n, m) in found)
    report(
        "5 (uniform-in-time frequency localization)",
        ok,
        "localization scales " + ", ".join(f"d{d}/n{n}: M={m}" for d, n, m in found),
    )


def test_criterion_06_manybody_basics():
    g = GridSpec(1, 16)
    cfg = ManyBodyConfig(g, 3, 0.05)
    rng = np.random.default_rng(6)
    herm = 0.0
    for _ in range(5):
        a = BosonicState.random_symmetric(cfg, rng, band=2)
        b = BosonicState.random_symmetric(cfg, rng, band=2)
        lhs = a.inner(BosonicState(cfg, apply_hamiltonian_raw(b.config, b.amps)))
        rhs = np.conj(b.inner(BosonicState(cfg, apply_hamiltonian_raw(a.config, a.amps))))
        herm = max(herm, abs(lhs - rhs) / max(abs(lhs), 1.0))
    psi = BosonicState.random_symmetric(cfg, rng, band=2)
    out = propagate(psi, 0.4)
    norm_drift = abs(out.norm() - psi.norm())
    free_cfg = ManyBodyConfig(g, 3, 0.0, GaussianPotential(amplitude=0.0))
    phi = unit_field(g, 7, band=3)
    free_err = np.abs(
        propagate(BosonicState.factorized(free_cfg, phi), 0.3).amps
        - BosonicState.factorized(
            free_cfg,
            evolve(phi, 0.3, NlsConfig(g, 0.0, 0.3), snapshot_every=1).states[-1],
        ).amps
    ).max()
    ok = herm < 1e-11 and norm_drift < 1e-10 and free_err <= 1e-9
    report(
        "6 (many-body engine)",
        ok,
        f"hermiticity {herm:.1e}, norm drift {norm_drift:.1e}, "
        f"free factorized error {free_err:.1e}",
    )


def test_criterion_07_marginal_consistency():
    g = GridSpec(1, 8)
    cfg = ManyBodyConfig(g, 4, 0.1)
    phi = unit_field(g, 8, band=2)
    psi0 = BosonicState.factorized(cfg, phi)
    fact_err = max(
        np.abs(marginal(psi0, k).matrix - rank_one_marginal(phi, k).matrix).max()
        for k in (1, 2)
    )
    psi = propagate(psi0, 0.2)
    chain_err = max(
        np.abs(partial_trace_last(marginal(psi, k + 1)).matrix - marginal(psi, k).matrix).max()
        for k in (1, 2)
    )
    herm = max(marginal(psi, k).hermiticity_residual() for k in (1, 2))
    tr = max(abs(marginal(psi, k).trace() - 1.0) for k in (1, 2))
    mineig = min(marginal(psi, k).min_eigenvalue() for k in (1, 2))
    ok = (
        fact_err <= 1e-12
        and chain_err <= 1e-11
        and herm <= 1e-11
        and tr <= 1e-10
        and mineig >= -1e-10
    )
    report(
        "7 (marginal consistency)",
        ok,
        f"factorized {fact_err:.1e}, chain {chain_err:.1e}, hermitian {herm:.1e}, "
        f"trace {tr:.1e}, min eig {mineig:.1e}",
    )


def test_criterion_08_hierarchy_residuals():
    g = GridSpec(1, 8)
    cfg = ManyBodyConfig(g, 3, 0.05)
    phi0 = unit_field(g, 9, band=2)
    psi0 = BosonicState.factorized(cfg, phi0)
    rb = []
    rg = []
    for h in (0.02, 0.01):
        snaps = [propagate(psi0, t) for t in (0.0, h, 2 * h)]
        rb.append(bbgky_residual(snaps, np.array([0.0, h, 2 * h]), 1))
        traj = evolve(
            phi0, 2 * h, NlsConfig(g, 1.0, h / 4, dealias=False), snapshot_every=4
        )
        rg.append(gp_residual(traj, 1, 1.0))
    bb_ratio = rb[0] / rb[1]
    gp_ratio = rg[0] / rg[1]
    traj = evolve(phi0, 0.04, NlsConfig(g, 1.0, 0.01), snapshot_every=1)
    a = gp_residual(traj, 1, 1.0)
    b = nls_residual_lifted(traj, 1.0)
    lift_gap = abs(a - b) / max(a, 1e-300)
    ok = 3.0 <= bb_ratio <= 5.0 and 3.0 <= gp_ratio <= 5.0 and lift_gap <= 1e-12
    report(
        "8 (hierarchy residuals)",
        ok,
        f"refinement ratios {bb_ratio:.2f} (N-body) and {gp_ratio:.2f} (mean-field), "
        f"factorized lift gap {lift_gap:.1e}",
    )


def test_criterion_09_propagation_of_chaos():
    g = GridSpec(1, 8)
    phi0 = unit_field(g, 24, band=2)
    rows = chaos_experiment([ManyBodyConfig(g, N, 0.1) for N in [2, 3, 4]], phi0, 0.2)
    dist = {r.N: r.distance for r in rows}
    free = GaussianPotential(amplitude=0.0)
    free_rows = chaos_experiment([ManyBodyConfig(g, N, 0.1, free) for N in [2, 3, 4]], phi0, 0.2)
    free_worst = max(r.distance for r in free_rows)
    g3 = GridSpec(3, 4)
    phi3 = unit_field(g3, 6, band=1, decay=1.0)
    smoke = {r.N: r.distance
             for r in chaos_experiment([ManyBodyConfig(g3, N, 0.1) for N in [2, 3]], phi3, 0.2)}
    ok = (
        dist[4] < dist[2]
        and free_worst < 1e-8
        and smoke[3] <= smoke[2] * 1.2
    )
    report(
        "9 (propagation of chaos)",
        ok,
        f"D(2)={dist[2]:.3e} > D(4)={dist[4]:.3e}; free-interaction max {free_worst:.1e}; "
        f"3D smoke D(3)/D(2)={smoke[3] / smoke[2]:.3f}",
    )


def test_criterion_10_combinatorics():
    counts_ok = True
    for k in range(1, 8):
        got = len(enumerate_collapse_maps(k))
        counts_ok &= got == double_factorial(2 * k - 1) and got <= 2 ** (3 * k - 1)
    floors = {}
    for k in range(2, 8):
        out = min_unclogged(k)
        floors[k] = (out["min_count"], min_unclogged_floor(k))
    floor_ok = all(mc >= fl for mc, fl in floors.values())
    e = SignedExpansion(CollapseMap(3, (1, 2, 3)), (PLUS, MINUS, PLUS))
    nodes = mark_expansion(e).nodes
    example_ok = (
        nodes[2].kind is NodeKind.Q_R
        and nodes[2].order_label == 7
        and nodes[1].kind is NodeKind.Q_PHI
        and nodes[1].order_label == 5
        and nodes[0].kind is NodeKind.Q_PHI_R
        and nodes[0].order_label == 3
    )
    ok = counts_ok and floor_ok and example_ok
    report(
        "10 (coupling combinatorics)",
        ok,
        f"counts/bounds ok to k=7; min unclogged vs floor {floors}; "
        f"worked-example kinds {'ok' if example_ok else 'MISMATCH'}",
    )


def test_criterion_11_estimate_probes():
    g3 = GridSpec(3, 8)
    zf = TorusField.zero(g3)
    zeros = [
        strichartz_ratio(zf, 2, 4.0, 1.0),
        bilinear_strichartz_ratio(zf, zf, 4, 2, 0.02, 1.0),
        refined_sobolev_ratio(zf, 2, 4, 1),
        multilinear_ratio([zf] * 5, 2.0, 1.0, "Old1"),
        approx_identity_rate(TorusField.zero(GridSpec(1, 128)), [0.5, 0.25])["slope"],
    ]
    zero_ok = all(v == 0.0 for v in zeros)
    rng = np.random.default_rng(11)
    f = TorusField.random_band_limited(g3, 4, rng)
    h = TorusField.random_band_limited(g3, 4, rng)
    quint = [TorusField.random_band_limited(g3, 2, rng) for _ in range(5)]
    phi1 = unit_field(GridSpec(1, 256), 12, band=24, decay=1.5)
    scale_gaps = [
        abs(strichartz_ratio(f, 4, 4.0, 1.0, nt=33) - strichartz_ratio(2 * f, 4, 4.0, 1.0, nt=33)),
        abs(
            bilinear_strichartz_ratio(f, h, 4, 2, 0.02, 1.0, nt=33)
            - bilinear_strichartz_ratio(3 * f, 0.5 * h, 4, 2, 0.02, 1.0, nt=33)
        ),
        abs(refined_sobolev_ratio(f, 2, 4, 2) - refined_sobolev_ratio(2 * f, 2, 4, 2)),
        abs(
            multilinear_ratio(quint, 2.0, 1.0, "MLFL1", nt=16)
            - multilinear_ratio([2 * q for q in quint], 2.0, 1.0, "MLFL1", nt=16)
        ),
        abs(
            approx_identity_rate(phi1, [0.25, 0.125])["slope"]
            - approx_identity_rate(2 * phi1, [0.25, 0.125])["slope"]
        ),
    ]
    scale_ok = all(v <= 1e-10 for v in scale_gaps)
    reports = [
        run_probe("strichartz", seed=0, samples=40, ms=(2, 4, 8), nt=40, n=16),
        run_probe("bilinear", seed=0, samples=8, m1s=(4, 8, 16), nt=33),
        run_probe("refined_sobolev", seed=0, samples=24, ms=(4, 8), rs=(16, 32), n=32, band=12),
        run_probe("multilinear", seed=0, samples=24, variant="Old1", nt=24),
        run_probe("approx_identity", seed=0, samples=10),
    ]
    stability = {r.lemma_id: r.stability_factor for r in reports}
    stable_ok = all(v < 1.5 for v in stability.values())
    slopes = []
    for seed in (0, 1, 2):
        phi = unit_field(GridSpec(1, 512), seed, band=40, decay=1.5)
        slopes.append(approx_identity_rate(phi, [0.25, 0.125, 0.0625])["slope"])
    slope_ok = min(slopes) >= 0.35
    ok = zero_ok and scale_ok and stable_ok and slope_ok
    report(
        "11 (estimate probes)",
        ok,
        f"zeros {'ok' if zero_ok else 'BAD'}; scale gaps max {max(scale_gaps):.1e}; "
        f"stability {dict((k, round(v, 3)) for k, v in stability.items())}; "
        f"min smoothing slope {min(slopes):.2f} (>= 0.35)",
    )


def test_criterion_12_hufl_power_law():
    g = GridSpec(1, 8)
    phi = unit_field(g, 20, band=3)
    m_cut = 1
    base = hufl_left_side(rank_one_marginal(phi, 1), m_cut)
    worst = 0.0
    for k in (1, 2, 3):
        lhs = hufl_left_side(rank_one_marginal(phi, k), m_cut)
        worst = max(worst, abs(lhs - base**k) / base**k)
    ok = worst <= 1e-10
    report(
        "12 (hierarchical localization power law)",
        ok,
        f"k-th power law relative error {worst:.1e} for k <= 3",
    )
