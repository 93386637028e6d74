"""Binary dumps, config validation, CLI dispatch, determinism."""

import csv
import importlib.util
import inspect
import io
import itertools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quintlab import cli, couplings, grids, manybody, marginals, nls, probes
from quintlab.cli import (
    ExperimentConfig,
    ValidationError,
    emit_plotdata,
    main,
    run_experiment,
)
from quintlab.couplings import MINUS, PLUS, CollapseMap, SignedExpansion, classify_couplings
from quintlab.grids import GridSpec, TorusField
from quintlab.io import dump_field, dump_state, load_field, load_state, write_csv, write_json
from quintlab.manybody import BosonicState, ManyBodyConfig, energy
from quintlab.marginals import hufl_factorized


class TestFieldDump:
    @pytest.mark.parametrize("layout", ["spectral", "physical"])
    @pytest.mark.parametrize("d,n", [(1, 16), (3, 8)])
    def test_roundtrip(self, tmp_path, layout, d, n):
        rng = np.random.default_rng(0)
        f = TorusField.random_band_limited(GridSpec(d, n), n // 2, rng)
        p = tmp_path / "f.qlf"
        dump_field(f, p, layout)
        g = load_field(p)
        # complex64 storage: single precision round trip
        assert np.abs(g.coefficients - f.coefficients).max() <= 1e-6 * np.abs(
            f.coefficients
        ).max()

    def test_header_contents(self, tmp_path):
        f = TorusField.constant(GridSpec(2, 8))
        p = tmp_path / "f.qlf"
        dump_field(f, p, "spectral")
        blob = p.read_bytes()
        assert blob[:8] == (2).to_bytes(4, "little") + (8).to_bytes(4, "little")
        assert blob[8:16].rstrip(b"\0") == b"spectral"
        assert len(blob) == 16 + 64 * 8  # n^d complex64 values

    def test_frequency_order_is_ascending(self, tmp_path):
        g = GridSpec(1, 8)
        f = TorusField.plane_wave(g, -3, 2.0)
        p = tmp_path / "f.qlf"
        dump_field(f, p, "spectral")
        data = np.frombuffer(p.read_bytes()[16:], dtype=np.complex64)
        # frequencies run -3..4, so xi=-3 sits at index 0
        assert abs(data[0] - 2.0) <= 1e-6
        assert np.abs(data[1:]).max() == 0.0

    @pytest.mark.parametrize("d,n", [(9, 8), (3, 258)])  # a bad dimension; past the budget
    def test_bad_header_grid_blames_the_file(self, tmp_path, capsys, d, n):
        phi = tmp_path / "phi.qlf"
        phi.write_bytes(d.to_bytes(4, "little") + n.to_bytes(4, "little") + b"spectral")
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(
            {"kind": "nls-run", "params": {**_NLS, "initial": {"kind": "file", "path": str(phi)}}}))
        assert main(["nls-run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"validation error: params.initial.path: {phi}:")


class TestStateDump:
    def test_roundtrip(self, tmp_path):
        cfg = ManyBodyConfig(GridSpec(1, 8), 3, 0.05)
        rng = np.random.default_rng(1)
        psi = BosonicState.random_symmetric(cfg, rng, band=2)
        p = tmp_path / "s.qls"
        dump_state(psi, p)
        back = load_state(cfg, p)
        assert np.abs(back.amps - psi.amps).max() <= 1e-6 * np.abs(psi.amps).max()

    def test_partners_one_rounding_apart_reload(self, tmp_path):
        # exchange partners 1 + 2^-24 (a complex64 tie, rounding down to 1) and
        # one float64 ulp above it (rounding up): a bosonic state to rounding,
        # and its dump must still load
        cfg = ManyBodyConfig(GridSpec(1, 4), 3, 0.05)
        amps = np.ones(cfg.state_shape, dtype=np.complex128)
        tie = 1.0 + 2.0**-24
        for perm in itertools.permutations((0, 1, 2)):
            amps[perm] = tie
        amps[2, 1, 0] = np.nextafter(tie, 2.0)
        psi = BosonicState(cfg, amps)
        p = tmp_path / "s.qls"
        dump_state(psi, p)
        back = load_state(cfg, p)
        assert np.abs(back.amps - psi.amps).max() <= 2.0**-23
        energy(back)  # a bosonic state to the sector too

    def test_a_state_off_the_sector_is_not_dumped(self, tmp_path):
        cfg = ManyBodyConfig(GridSpec(1, 4), 2, 0.05)
        amps = np.ones(cfg.state_shape, dtype=np.complex128)
        amps[0, 1] = 2.0
        with pytest.raises(ValueError, match="not symmetric"):
            dump_state(BosonicState(cfg, amps), tmp_path / "s.qls")

    def test_geometry_mismatch_rejected(self, tmp_path):
        cfg = ManyBodyConfig(GridSpec(1, 8), 2, 0.0)
        psi = BosonicState.factorized(cfg, TorusField.constant(GridSpec(1, 8)))
        p = tmp_path / "s.qls"
        dump_state(psi, p)
        other = ManyBodyConfig(GridSpec(1, 8), 3, 0.0)
        with pytest.raises(ValueError):
            load_state(other, p)


def _asymmetric(state: bytes) -> bytes:
    """A d=1 n=8 N=2 state dump with psi(0, 1) zeroed and psi(1, 0) kept."""
    return state[:28] + bytes(8) + state[36:]  # a 20-byte header, then 8-byte entries


class TestTruncatedOrMislabelledDumps:
    def test_truncated_field(self, tmp_path):
        with pytest.raises(ValueError, match="phi.qlf"):
            load_field(_truncated_field(tmp_path)["path"])

    @pytest.mark.parametrize(
        "edit,message", [(lambda b: b[:-8], "payload"),
                         (lambda b: b[:8] + b"spectral" + b[16:], "'physical'"),
                         (_asymmetric, "not symmetric")],
        ids=["truncated", "spectral_tag", "asymmetric"],
    )
    def test_bad_state_rejected(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=f"psi.qls: .*{message}"):
            load_state(ManyBodyConfig(GridSpec(1, 8), 2, 0.05), _state_file(tmp_path, edit)["path"])


class TestConfigValidation:
    def test_unknown_keys_rejected_with_full_list(self):
        raw = {
            "kind": "nls-run",
            "params": {
                "d": 1, "n": 8, "b0": 1.0, "dt": 0.01, "T": 0.1,
                "initial": {"kind": "constant"},
                "bogus1": 1, "bogus2": 2,
            },
        }
        with pytest.raises(ValidationError) as exc:
            ExperimentConfig.from_dict(raw)
        joined = " ".join(exc.value.errors)
        assert "bogus1" in joined and "bogus2" in joined

    def test_missing_required_listed(self):
        raw = {"kind": "nls-run", "params": {"d": 1}}
        with pytest.raises(ValidationError) as exc:
            ExperimentConfig.from_dict(raw)
        missing = [e for e in exc.value.errors if "required" in e]
        assert len(missing) >= 4

    def test_precondition_values_checked(self):
        raw = {
            "kind": "nls-run",
            "params": {"d": 1, "n": 7, "b0": -1.0, "dt": 0.01, "T": 0.1,
                       "initial": {"kind": "constant"}},
        }
        with pytest.raises(ValidationError) as exc:
            ExperimentConfig.from_dict(raw)
        joined = " ".join(exc.value.errors)
        assert "params.n" in joined and "params.b0" in joined

    def test_build_pass_tabulates_and_allocates_nothing(self, monkeypatch):
        from quintlab import cli, manybody

        def forbidden(*args, **kwargs):
            raise AssertionError("the build pass must not do this")

        monkeypatch.setattr(manybody, "build_potential", forbidden)
        monkeypatch.setattr(manybody.BosonicState, "__init__", forbidden)
        monkeypatch.setattr(cli, "evolve", forbidden)
        for kind, params in [("nls-run", _NLS), ("manybody-run", _MB), ("residuals", _RES),
                             ("chaos", _CHAOS), ("hufl", _HUFL)]:
            ExperimentConfig.from_dict({"kind": kind, "params": params})

    def test_run_reuses_the_validated_initial_field(self, tmp_path, monkeypatch):
        calls = []
        draw = TorusField.random_band_limited
        monkeypatch.setattr(TorusField, "random_band_limited",
                            lambda *a, **k: calls.append(1) or draw(*a, **k))
        run_experiment(ExperimentConfig.from_dict({"kind": "nls-run", "params": _NLS}), tmp_path)
        assert len(calls) == 1

    def test_round_trip(self):
        raw = {
            "kind": "couplings",
            "seed": 5,
            "params": {"k": 3},
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


class TestRunExperiment:
    def test_couplings_k3_map_count(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"kind": "couplings", "params": {"k": 3}})
        report = run_experiment(cfg, tmp_path)
        payload = json.loads((tmp_path / "couplings.json").read_text())
        assert payload["map_count"] == 15
        assert report.passed

    @pytest.mark.parametrize("case", ["residuals_demo", "d1_n16_N3"])
    def test_residuals_run_takes_one_recurrence(self, tmp_path, monkeypatch, case):
        # every time of every spacing, h and 2h, comes from one series of psi0, whose
        # H-applies are the degree of the largest time
        if case == "residuals_demo":
            params = json.loads((Path(__file__).parent.parent / "configs" / f"{case}.json")
                                .read_text())
        else:  # the hierarchy workload's shape
            params = {"kind": "residuals", "params": {**_RES, "n": 16}}
        series, apply, calls, applies = manybody._chebyshev, manybody._apply_sector, [], []

        def counting(config, c, offsets, radius):
            calls.append((config, max(offsets), radius))
            return series(config, c, offsets, radius)

        monkeypatch.setattr(manybody, "_chebyshev", counting)
        monkeypatch.setattr(manybody, "_apply_sector", lambda *a: applies.append(1) or apply(*a))
        assert run_experiment(ExperimentConfig.from_dict(params), tmp_path).passed
        assert len(calls) == 1
        config, last, radius = calls[0]
        assert last == 2 * max(params["params"]["spacings"])
        assert radius == manybody._radius_bound(config)  # the interval the build pass charges
        degree = manybody._degree(manybody._chebyshev_coefficients(last * radius),
                                  manybody._SERIES_TOL)
        assert len(applies) == degree

    def test_nls_run_memory_does_not_grow_with_the_snapshot_count(self, tmp_path):
        params = {"d": 2, "n": 32, "b0": 1.0, "dt": 0.005, "T": 0.2,
                  "initial": {**_BAND2, "band": 6}}

        def peak(every, name):
            cfg = ExperimentConfig.from_dict(
                {"kind": "nls-run", "seed": 2, "params": {**params, "snapshot_every": every}})
            tracemalloc.start()
            try:
                run_experiment(cfg, tmp_path / name)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, "warm")  # fills the memo tables both runs share
        state = 2 * 32**2 * 16  # coefficients and samples
        # Both runs hold the Strang kernel's buffers and one row's arrays,
        # whatever the snapshot count; the 41 rows of 7 floats and the list
        # that holds them take under a state more.
        assert peak(1, "41 snapshots") - peak(40, "2 snapshots") <= state

    def test_nls_run_holds_four_and_a_half_grids(self, tmp_path):
        # Without dealiasing the run holds the samples, the complex scratch and
        # the real scratch; a row adds phi_H and one real array, so 4 complex
        # grids.  The initial field is not held: the config hands it to the run.
        params = {"d": 3, "n": 32, "b0": 1.0, "dt": 0.005, "T": 0.02, "dealias": False,
                  "initial": {**_BAND2, "band": 6}}

        def peak(name):
            cfg = ExperimentConfig.from_dict({"kind": "nls-run", "seed": 2, "params": params})
            tracemalloc.start()
            try:
                run_experiment(cfg, tmp_path / name)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("warm")  # fills the memo tables
        assert peak("run") <= 4.5 * 32**3 * 16

    def test_dealiased_nls_run_builds_no_n_grid_phase(self, tmp_path):
        # The dealiased d=3 n=32 run of the test above peaks at 9.77 complex
        # n-grids, counted from before the build: the free step is one m x m
        # propagator per axis of the 48-point rotation grid, so no n-grid phase
        # is built, and the build hands the datum to the run, which takes its
        # array; a datum the build kept as well would add one n-grid (10.77).
        params = {"d": 3, "n": 32, "b0": 1.0, "dt": 0.005, "T": 0.02, "dealias": True,
                  "initial": {**_BAND2, "band": 6}}
        peaks = []
        for name in ("warm", "run"):  # the first fills the memo tables
            tracemalloc.start()
            try:
                cfg = ExperimentConfig.from_dict({"kind": "nls-run", "seed": 2, "params": params})
                run_experiment(cfg, tmp_path / name)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[-1] <= 10 * 32**3 * 16

    def test_64_cubed_nls_run_holds_two_grids_from_datum_to_last_row(self, tmp_path):
        # Past nls._SPLIT entries the run holds the Strang kernel's samples and
        # coefficients and chunk-sized scratch.  The datum is drawn and rescaled
        # in its own array, which the run takes as its coefficients.
        params = {"d": 3, "n": 64, "b0": 1.0, "dt": 0.005, "T": 0.02, "dealias": False,
                  "initial": {**_BAND2, "band": 6}}
        peaks = []
        for name in ("warm", "run"):  # the first fills the memo tables
            tracemalloc.start()
            try:
                cfg = ExperimentConfig.from_dict({"kind": "nls-run", "seed": 2, "params": params})
                run_experiment(cfg, tmp_path / name)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[-1] <= 2.25 * 64**3 * 16

    def test_nls_run_twice_on_one_config(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"kind": "nls-run", "seed": 4, "params": {"d": 2, "n": 16, "b0": 1.0, "dt": 0.01,
                                                      "T": 0.04, "initial": _BAND2}})
        reports = [run_experiment(cfg, tmp_path / name).to_dict() for name in "ab"]
        assert ((tmp_path / "a" / "timeseries.csv").read_bytes()
                == (tmp_path / "b" / "timeseries.csv").read_bytes())
        for r in reports:
            del r["wall_time_s"], r["artifacts"]
        assert reports[0] == reports[1]

    def test_hufl_is_the_factorized_value(self, tmp_path):
        params = {**_HUFL, "M": 2, "ks": [1, 2, 3], "initial": {**_BAND2, "band": 6}}
        cfg = ExperimentConfig.from_dict({"kind": "hufl", "params": params})
        grid = GridSpec(params["d"], params["n"])
        field = cli._unit(cli.build_initial_field(grid, params["initial"], cfg.seed))
        tracemalloc.start()
        try:
            run_experiment(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = (tmp_path / "hufl.csv").read_text().split("\n")[1:4]
        got = [float(row.split(",")[1]) for row in rows]
        assert got == [hufl_factorized(field, k, 2) for k in (1, 2, 3)]
        assert peak < 8 * 2**20  # the dense 3-marginal alone is 256 MiB

    def test_hufl_order_past_the_dense_budget_runs(self, tmp_path):
        # the 4-marginal at d=1 n=16 would hold 2^32 entries; the run forms none
        path = tmp_path / "hufl.json"
        path.write_text(json.dumps({"kind": "hufl", "params": {**_HUFL, "ks": [1, 4]}}))
        assert main(["hufl", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "hufl.csv").read_text().split("\n")[1:3]
        assert [int(row.split(",")[0]) for row in rows] == [1, 4]

    def test_nls_t0_single_snapshot(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "nls-run",
                "params": {"d": 1, "n": 8, "b0": 1.0, "dt": 0.01, "T": 0.0,
                           "initial": {"kind": "constant"}},
            }
        )
        run_experiment(cfg, tmp_path)
        rows = (tmp_path / "timeseries.csv").read_text().strip().split("\n")
        assert len(rows) == 2  # header plus the single t=0 snapshot

    def test_determinism_byte_identical(self, tmp_path):
        raw = {
            "kind": "nls-run",
            "seed": 11,
            "params": {"d": 1, "n": 16, "b0": 1.0, "dt": 0.01, "T": 0.1,
                       "snapshot_every": 2,
                       "initial": {"kind": "random_band", "band": 3, "scale": 1.0}},
        }
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(ExperimentConfig.from_dict(raw), out_a)
        run_experiment(ExperimentConfig.from_dict(raw), out_b)
        assert (out_a / "timeseries.csv").read_bytes() == (out_b / "timeseries.csv").read_bytes()

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        from quintlab import cli

        def fail(*args):
            raise OSError("disk full")

        # the state dump fails after manybody.json is written
        monkeypatch.setattr(cli.qio, "dump_state", fail)
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "manybody-run",
                "params": {"d": 1, "n": 8, "N": 2, "beta": 0.05, "T": 0.02,
                           "initial": {"kind": "constant"}, "dump_state": True},
            }
        )
        with pytest.raises(OSError):
            run_experiment(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_emit_plotdata(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"kind": "hufl",
             "params": {"d": 1, "n": 16, "initial": {"kind": "random_band", "band": 3},
                        "M": 4, "eps": 0.9, "ks": [1, 2]}}
        )
        report = run_experiment(cfg, tmp_path)
        written = emit_plotdata(report)
        assert any(w.endswith("hufl.dat") for w in written)
        assert any(w.endswith("plot_stub.py") for w in written)

    @pytest.mark.parametrize("kind,config", [("probe", "probe_strichartz"),
                                             ("nls-run", "nls_demo")])
    def test_plotdata_copies_load_with_a_column_per_csv_column(self, tmp_path, kind, config):
        # a cell that is no number, as a probe's "(2,)", is its row index and a comment
        path = Path(__file__).parent.parent / "configs" / f"{config}.json"
        assert main([kind, "--config", str(path), "--out", str(tmp_path), "--plotdata"]) == 0
        dats = sorted(tmp_path.glob("*.dat"))
        assert dats
        for dat in dats:
            text = dat.with_suffix(".csv").read_text()
            header, *rows = csv.reader(io.StringIO(text))
            data = np.loadtxt(dat, comments="#", ndmin=2)
            assert data.shape == (len(rows), len(header))
            if kind == "probe":
                assert data[:, 0].tolist() == list(range(len(rows)))
                assert dat.read_text().splitlines()[1].endswith(f"# {rows[0][0]}")
            else:  # an all-numeric table: the header commented, blanks for commas
                assert dat.read_text() == "# " + text.strip().replace(",", "  ") + "\n"

    def test_empty_table_is_header_only(self, tmp_path):
        write_csv(tmp_path / "empty.csv", ["a", "b"], [])
        assert (tmp_path / "empty.csv").read_text() == "a,b\n"

    def test_state_file_initial(self, tmp_path, monkeypatch):
        # dump a state via one run, feed it back as the initial condition, read once
        base = {
            "kind": "manybody-run",
            "seed": 5,
            "params": {"d": 1, "n": 8, "N": 2, "beta": 0.05, "T": 0.0,
                       "initial": {"kind": "random_band", "band": 2, "scale": 1.0},
                       "dump_state": True},
        }
        out1 = tmp_path / "first"
        run_experiment(ExperimentConfig.from_dict(base), out1)
        follow = {
            "kind": "manybody-run",
            "params": {"d": 1, "n": 8, "N": 2, "beta": 0.05, "T": 0.1,
                       "initial": {"kind": "file", "path": str(out1 / "state.qlf")}},
        }
        out2 = tmp_path / "second"
        reads, compress = [], manybody._compress
        monkeypatch.setattr("quintlab.io._compress",
                            lambda *a, **k: reads.append(1) or compress(*a, **k))
        report = run_experiment(ExperimentConfig.from_dict(follow), out2)
        assert (out2 / "manybody.json").exists()
        assert report.checks["norm_preserved"]
        assert len(reads) == 1

    def test_field_file_initial(self, tmp_path):
        f = TorusField.plane_wave(GridSpec(1, 8), 2, 0.5)
        dump_field(f, tmp_path / "phi.qlf")
        raw = {
            "kind": "nls-run",
            "params": {"d": 1, "n": 8, "b0": 0.0, "dt": 0.01, "T": 0.05,
                       "initial": {"kind": "file", "path": str(tmp_path / "phi.qlf")}},
        }
        report = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert report.checks["mass_conserved"]

    def test_a_dumped_state_reruns_within_the_default_checks(self, tmp_path):
        # the dump holds complex64, so its norm is 1 only to ~1e-8 (drift 9.6e-9 here,
        # past 1e-10); the run scales it to unit norm, so norm_drift is the flow's alone
        params = {"d": 1, "n": 8, "N": 2, "beta": 0.05, "initial": _BAND2}
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps({"kind": "manybody-run", "seed": 5,
                                     "params": {**params, "T": 0.0, "dump_state": True}}))
        assert main(["manybody-run", "--config", str(first), "--out", str(tmp_path / "a")]) == 0
        initial = {"kind": "file", "path": str(tmp_path / "a" / "state.qlf")}
        second.write_text(json.dumps({"kind": "manybody-run",
                                      "params": {**params, "T": 0.1, "initial": initial}}))
        assert main(["manybody-run", "--config", str(second), "--out", str(tmp_path / "b")]) == 0
        drift = json.loads((tmp_path / "b" / "manybody.json").read_text())["norm_drift"]
        assert drift <= 1e-12


class TestMainEntry:
    def test_couplings_flag_form(self, tmp_path, capsys):
        rc = main(["couplings", "--k", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "couplings.json").read_text())["map_count"] == 3

    def test_couplings_k8_peak_memory(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            rc = main(["couplings", "--k", "8", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert json.loads((tmp_path / "couplings.json").read_text())["map_count"] == 2027025
        assert peak < 64 * 2**20

    def test_couplings_k8_reports_the_minimum(self, tmp_path, capsys):
        assert main(["couplings", "--k", "8", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "couplings.json").read_text())
        mu, w = payload["min_unclogged"], payload["witness"]
        assert mu["min_count"] >= mu["floor"]
        signs = tuple(PLUS if s == "+" else MINUS for s in w["signs"])
        witness = SignedExpansion(CollapseMap(8, tuple(w["targets"])), signs)
        assert len(classify_couplings(witness)["unclogged"]) == mu["min_count"]

    @pytest.mark.parametrize("k", [9, 10])
    def test_couplings_past_k8_reports_a_certified_minimum(self, tmp_path, capsys, k):
        # 17!! and 19!! maps are past the budget; the run builds no map table
        rc = main(["couplings", "--k", str(k), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"]["unclogged_floor"]
        # 19!! = 654,729,075 > 2^29: from k = 10 the map count is past 2^(3k-1)
        assert report["checks"]["count_within_bound"] == (k <= 9)
        assert rc == (0 if k <= 9 else 1)
        mu, w = report["summary"]["min_unclogged"], report["summary"]["witness"]
        assert mu["min_count"] == mu["floor"] and mu["consumption_bound_holds"]
        signs = tuple(PLUS if s == "+" else MINUS for s in w["signs"])
        witness = SignedExpansion(CollapseMap(k, tuple(w["targets"])), signs)
        assert len(classify_couplings(witness)["unclogged"]) == mu["min_count"]

    @pytest.mark.parametrize("k", [0, 13])
    def test_couplings_order_outside_1_to_12_rejected(self, tmp_path, capsys, k):
        # the one k rule of couplings, not the map table's budget
        assert main(["couplings", "--k", str(k), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"validation error: params.k: coupling order must be in 1..12, got {k}\n"

    def test_mlfl_probe_at_t0_writes_valid_json(self, tmp_path, capsys):
        # its right side is 0 on band-2 data with m0 = 4: the ratio was 0/0, a NaN
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "probe", "params": {
            "lemma": "multilinear", "samples": 2,
            "options": {"variant": "MLFL1", "T": 0, "nt": 4, "n": 8}}}))
        assert main(["probe", "--config", str(path), "--out", str(tmp_path)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads((tmp_path / "probe_multilinear.json").read_text(),
                             parse_constant=refuse)
        assert payload["max_ratio"] == 0.0

    @pytest.mark.parametrize("lemma,options", [
        ("strichartz", {"ms": [2], "n": 8, "nt": 32}),
        ("bilinear", {"m1s": [4], "n": 8, "nt": 3}),
        ("refined_sobolev", {"ms": [2], "rs": [4], "n": 16, "band": 6}),
        ("multilinear", {"variant": "MLFL1", "n": 8, "nt": 3}),
        ("approx_identity", {"n": 128, "band": 10, "alphas": [0.5, 0.25]}),
    ])
    def test_probe_writes_the_report_of_run_probe(self, tmp_path, capsys, lemma, options):
        # `lab probe` is the one way to collect a probe's report: its JSON as write_json
        # writes run_probe's, and a CSV of the report's ratio table
        options = {**options, "samples": 2}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "probe", "seed": 3,
                                    "params": {"lemma": lemma, "options": options}}))
        assert main(["probe", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        report = probes.run_probe(lemma, 3, **options)
        write_json(tmp_path / "want.json", report.to_dict())
        got = tmp_path / "out" / f"probe_{lemma}.json"
        assert got.read_bytes() == (tmp_path / "want.json").read_bytes()
        with open(tmp_path / "out" / f"probe_{lemma}.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["parameters", "max_ratio"]
        assert {key: float(ratio) for key, ratio in rows} == report.ratio_table

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nls-run", "params": {"d": 9}}))
        rc = main(["nls-run", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "couplings", "params": {"k": 2}}))
        rc = main(["nls-run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    def test_console_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "quintlab.cli", "couplings", "--k", "2",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
            cwd=Path(__file__).parent.parent / "src",  # importable without installing
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_runtime_imports_no_scipy(self):
        # a fresh interpreter, since this one has loaded scipy for the test oracles
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, quintlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
            capture_output=True, text=True, cwd=Path(__file__).parent.parent / "src",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_builds_no_quadrature_rule(self):
        # numpy.polynomial is loaded only when a Gaussian potential first needs its rule
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, quintlab.cli; print('numpy.polynomial' in sys.modules)"],
            capture_output=True, text=True, cwd=Path(__file__).parent.parent / "src",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


_BAND2 = {"kind": "random_band", "band": 2, "scale": 1.0}
_NLS = {"d": 1, "n": 8, "b0": 1.0, "dt": 0.01, "T": 0.02, "initial": _BAND2}
_MB = {"d": 1, "n": 8, "N": 2, "beta": 0.05, "T": 0.02, "initial": _BAND2}
_RES = {"d": 1, "n": 8, "N": 3, "beta": 0.05, "k": 1, "spacings": [0.02, 0.01],
        "initial": _BAND2}
_HUFL = {"d": 1, "n": 16, "M": 4, "eps": 0.9, "ks": [1], "initial": _BAND2}
_CHAOS = {"d": 1, "n": 8, "beta": 0.05, "T": 0.02, "Ns": [2, 3], "initial": _BAND2}
_DEMO_CONFIGS = sorted(Path(__file__).parent.parent.glob("configs/*.json"))


def _workloads():
    """perfbench/workloads.py, loaded without writing bytecode under perfbench/."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


_WORKLOADS = _workloads()
# every demo config and every config of each benchmark workload's tiny seed-1 batch
_CHARGE_CASES = [pytest.param(json.loads(p.read_text()), id=p.stem) for p in _DEMO_CONFIGS] + [
    pytest.param(raw, id=f"{name}-{i}") for name in sorted(_WORKLOADS.WORKLOADS)
    for i, raw in enumerate(_WORKLOADS.batch(name, 1, tiny=True))]


def _truncated_field(tmp_path):
    path = tmp_path / "phi.qlf"
    dump_field(TorusField.constant(GridSpec(1, 8)), path)
    path.write_bytes(path.read_bytes()[:-8])
    return {"kind": "file", "path": str(path)}


def _state_file(tmp_path, edit):
    cfg = ManyBodyConfig(GridSpec(1, 8), 2, 0.05)
    path = tmp_path / "psi.qls"
    dump_state(BosonicState.factorized(cfg, TorusField.constant(cfg.grid)), path)
    path.write_bytes(edit(path.read_bytes()))
    return {"kind": "file", "path": str(path)}


# grids past the 2^24-entry budget, rejected before any field is drawn
_OVERSIZED_GRIDS = [
    ("nls-run", {**_NLS, "d": 3, "n": 258}, "n"),  # a 258^3 field grid
    ("hufl", {**_HUFL, "d": 3, "n": 258}, "n"),
    ("nls-run", {**_NLS, "d": 3, "n": 172}, "n"),  # dealiased on a 258^3 rotation grid
]

# (kind, params or a function of tmp_path giving them, field that must be named)
BAD_CONFIGS = [
    ("residuals", {**_RES, "k": 2}, "k"),
    ("residuals", {**_RES, "spacings": [-0.01]}, "spacings"),
    ("manybody-run", {**_MB, "N": 9, "dump_state": True}, "N"),  # an 8^9-entry tensor to dump
    ("manybody-run", {**_MB, "beta": 3}, "beta"),
    ("nls-run", {**_NLS, "initial": {"kind": "modes", "modes": [[[9], 1.0]]}}, "initial"),
    ("nls-run", {**_NLS, "diagnostics_M": [8]}, "diagnostics_M"),
    ("probe", {"lemma": "strichartz", "options": {"bogus": 1}}, "options.bogus"),
    ("hufl", {**_HUFL, "ks": [0]}, "ks"),
    ("hufl", {**_HUFL, "ks": [1.5]}, "ks"),  # not an integer order
    ("nls-run", lambda tmp: {**_NLS, "initial": _truncated_field(tmp)}, "initial.path"),
    ("manybody-run", lambda tmp: {**_MB, "initial": _state_file(tmp, lambda b: b[:-8])},
     "initial.path"),
    ("manybody-run",
     lambda tmp: {**_MB, "initial": _state_file(tmp, lambda b: b[:8] + b"spectral" + b[16:])},
     "initial.path"),
    ("manybody-run",
     lambda tmp: {**_MB, "potential": {"kind": "x"}, "initial": _state_file(tmp, lambda b: b)},
     "potential"),
    ("nls-run", {**_NLS, "d": 9}, "d"),
    ("nls-run", {**_NLS, "d": 1.0}, "d"),
    ("nls-run", {**_NLS, "T": -0.1}, "T"),
    ("nls-run", {**_NLS, "bogus": 1}, "bogus"),
    ("nls-run", {"d": 1, "n": 8}, "b0"),
    ("nls-run", {**_NLS, "n": 7, "b0": -1.0}, "n"),
    ("nls-run", {**_NLS, "n": 7, "b0": -1.0}, "b0"),
    ("couplings", {"k": 13}, "k"),  # past the 1 <= k <= 12 rule
    ("manybody-run", {**_MB, "moments": [-1]}, "moments"),
    ("manybody-run", {**_MB, "stability": [[5, 0.5]]}, "stability"),
    ("residuals", {**_RES, "potential": {"kind": "constant", "value": -1}}, "potential"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "amplitude": -1}}, "potential"),
    ("residuals", {**_RES, "n": 16, "N": 6, "k": 4}, "k"),  # a 2^32-entry 4-marginal
    # the file itself is bad: a str is its raw text, None means it does not exist
    pytest.param("hufl", None, "config", id="hufl-missing-file"),
    pytest.param("hufl", '{"kind": "hufl", "params": ', "config", id="hufl-invalid-json"),
    pytest.param("hufl", "[1, 2]", "config", id="hufl-not-an-object"),
    ("nls-run", {**_NLS, "T": 0.105}, "T"),  # not a multiple of dt
    ("nls-run", {**_NLS, "T": 0.03, "snapshot_every": 2}, "snapshot_every"),
    # probe options that each ratio function rejects, checked before the run
    ("probe", {"lemma": "strichartz", "options": {"nt": 8}}, "options"),
    ("probe", {"lemma": "strichartz", "options": {"ms": [0]}}, "options"),
    ("probe", {"lemma": "strichartz", "options": {"p": 3}}, "options"),
    ("probe", {"lemma": "bilinear", "options": {"m1s": [2]}}, "options"),  # m2 = 4 > m1
    ("probe", {"lemma": "bilinear", "options": {"delta": 0.5}}, "options"),
    ("probe", {"lemma": "multilinear", "options": {"variant": "XYZ"}}, "options"),
    ("probe", {"lemma": "approx_identity", "options": {"alphas": [0.1], "n": 16}}, "options"),
    ("probe", {"lemma": "refined_sobolev", "options": {"ms": [8], "rs": [4]}}, "options"),
    ("manybody-run", {**_MB, "d": 3, "n": 32, "N": 1}, "N"),  # a 2^30-entry interaction table
    ("manybody-run", {**_MB, "n": 64, "N": 4}, "N"),  # a 2^24-entry state: its sector tables
    # alone hold 18.6 M entries
    *_OVERSIZED_GRIDS,
    ("probe", {"lemma": "bilinear", "options": {"m1s": [128]}}, "options"),  # a 264^3 grid
    # evaluation grids past the budget on field grids within it
    ("probe", {"lemma": "strichartz", "options": {"n": 256, "ms": [128]}}, "options"),
    ("probe", {"lemma": "refined_sobolev", "options": {"n": 128, "band": 64}}, "options"),
    ("probe", {"lemma": "multilinear", "options": {"n": 96}}, "options"),
    # the sector run fits; the stability probe's B_5 and its transform (two
    # 26^5-entry gathers) do not, nor the hierarchy right side's four arrays of
    # B_3's shape (12^3 x 4,368) beside its two 12^3 x 12^3 matrices
    ("manybody-run", {**_MB, "n": 26, "N": 5, "stability": [[5, 0.5]]}, "N"),
    ("residuals", {**_RES, "n": 12, "N": 8, "k": 3}, "N"),
    # list elements are typed, so no float is truncated to an order or a count
    ("chaos", {**_CHAOS, "Ns": [2.5, 3.9]}, "Ns"),
    ("manybody-run", {**_MB, "moments": [1.7]}, "moments"),
    ("hufl", {**_HUFL, "ks": [1.0]}, "ks"),
    ("manybody-run", {**_MB, "stability": [[1.5, 0.5]]}, "stability"),
    # nested specs take only the keys their kind declares
    ("nls-run", {**_NLS, "initial": {"kind": "random_band", "bnad": 3}}, "initial.bnad"),
    ("nls-run", {**_NLS, "initial": {**_BAND2, "normalise": True}}, "initial.normalise"),
    ("nls-run", {**_NLS, "initial": {"kind": "constant", "value": 2, "scale": 5}},
     "initial.scale"),
    ("nls-run", {**_NLS, "initial": {"kind": "modes", "modes": [[[1.5], 1.0]]}}, "initial"),
    ("nls-run", {**_NLS, "initial": {"kind": "modes"}}, "initial.modes"),
    ("manybody-run", lambda tmp: {**_MB, "initial": {**_state_file(tmp, lambda b: b), "x": 1}},
     "initial.x"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigmaa": 0.3}}, "potential.sigmaa"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigma": "0.5"}}, "potential.sigma"),
    ("nls-run", {**_NLS, "initial": {**_BAND2, "scale": 0}}, "initial.scale"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigma": True}}, "potential.sigma"),
    ("residuals", {**_RES, "potential": {"kind": "constant", "value": "1"}}, "potential.value"),
    # not a bosonic state: the build pass's slab round trip rejects it
    ("manybody-run", lambda tmp: {**_MB, "initial": _state_file(tmp, _asymmetric)},
     "initial.path"),
    # T = 0 still builds the sector for the energy: at d=1 n=180 N=3 its tables
    # (20.0 M entries) are past the budget, the 5.8 M-entry state is not
    ("manybody-run", {**_MB, "n": 180, "N": 3, "T": 0.0}, "N"),
    ("chaos", {**_CHAOS, "n": 180, "T": 0.0, "Ns": [2, 3]}, "Ns"),
    # probe options that crashed or gave a nan ratio: samples >= 1, nt >= 2, T >= 0, m0 > 0
    ("probe", {"lemma": "strichartz", "options": {"samples": 0}}, "options"),
    ("probe", {"lemma": "bilinear", "options": {"nt": 1}}, "options"),
    ("probe", {"lemma": "strichartz", "options": {"T": -1}}, "options"),
    ("probe", {"lemma": "multilinear", "options": {"variant": "MLFL1", "m0": -1}}, "options"),
    # NaN and Infinity, which json.dumps writes and Python's json reads back,
    # name their key: each passed, failed a check or raised before
    ("manybody-run", {**_MB, "T": float("nan")}, "T"),
    ("chaos", {**_CHAOS, "T": float("nan")}, "T"),
    ("hufl", {**_HUFL, "eps": float("nan")}, "eps"),
    ("manybody-run", {**_MB, "T": float("inf")}, "T"),
    ("nls-run", {**_NLS, "mass_tol": 1e-11}, "mass_tol"),  # a constant now: an unknown key
    ("manybody-run", {**_MB, "beta": float("nan")}, "beta"),
    ("chaos", {**_CHAOS, "nls_dt": 0.01}, "nls_dt"),  # a constant now: an unknown key
    ("nls-run", {**_NLS, "b0": float("nan")}, "b0"),
    ("residuals", {**_RES, "spacings": [float("nan"), 0.01]}, "spacings"),
    ("probe", {"lemma": "approx_identity", "options": {"alphas": [float("nan"), 0.25]}},
     "options.alphas"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigma": float("nan")}},
     "potential.sigma"),
    # a zero datum, which no kind can run
    ("nls-run", {**_NLS, "n": 16, "initial": {"kind": "modes", "modes": [[1, 0.0]]}}, "initial"),
    ("manybody-run", {**_MB, "T": 0.1, "initial": {"kind": "modes", "modes": [[1, 0.0]]}},
     "initial"),
    # a state dump of zeros: symmetric, but no run can normalize it
    ("manybody-run",
     lambda tmp: {**_MB, "initial": _state_file(tmp, lambda b: b[:20] + bytes(len(b) - 20))},
     "initial"),
    # a 4-site sector of 21 particles fits the budget; 21! does not fit in int64
    ("chaos", {**_CHAOS, "n": 4, "beta": 0.0, "Ns": [20, 21]}, "Ns"),
    # probe options are typed: each ended in a traceback or ran coerced
    ("probe", {"lemma": "strichartz", "options": {"nt": 40.5}}, "options.nt"),
    ("probe", {"lemma": "strichartz", "options": {"samples": 2.5}}, "options.samples"),
    ("probe", {"lemma": "multilinear", "options": {"n": 8.0}}, "options.n"),
    ("probe", {"lemma": "refined_sobolev", "options": {"which": 2.0}}, "options.which"),
    # N ** beta overflowed; N ** -beta underflows to a radius of 0
    ("chaos", {**_CHAOS, "beta": 1e10}, "beta"),
    # step counts T/dt past the largest float
    ("nls-run", {**_NLS, "dt": 1e-320}, "T"),
    ("manybody-run", {**_MB, "norm_tol": 1e-10}, "norm_tol"),  # a constant now: an unknown key
    # finite step counts past the work rule (10^298 steps), which would not end
    ("nls-run", {**_NLS, "dt": 1e-301}, "dt"),
    ("manybody-run", {**_MB, "energy_tol": 1e-8}, "energy_tol"),  # a constant now: an unknown key
    # a bilinear shell whose field grid is charged before the search for an 11-smooth
    # length, which would step through a 31-digit integer
    ("probe", {"lemma": "bilinear", "options": {"m1s": [1e30]}}, "options"),
    # the flow is one series, with no segment cap
    ("manybody-run", {**_MB, "steps": 5}, "steps"),
    # 1,350 distinct times up to 1,800, whose series coefficients (up to 44,037 a time)
    # sum to 25.4 M entries
    ("residuals", {**_RES, "spacings": [float(h) for h in range(1, 901)]}, "spacings"),
    # its sector tables alone (20.0 M entries) are past the budget, with two short spacings
    ("residuals", {**_RES, "n": 180}, "N"),
    # unit norm is scale 1, the one key that rescales a datum
    ("nls-run", {**_NLS, "initial": {**_BAND2, "normalize": True}}, "initial.normalize"),
    # NaN in an optional float key
    ("nls-run", {**_NLS, "split_M": float("nan")}, "split_M"),
    # the sector run fits; the 1-marginal's two B_1 gathers and its 4096^2 matrix do not
    ("chaos", {**_CHAOS, "d": 2, "n": 64, "beta": 0.0, "Ns": [1]}, "Ns"),
    # a subnormal T: T / 200 underflows to 0, or gives 101 steps for the mean-field side
    ("chaos", {**_CHAOS, "T": 1e-322}, "T"),
    ("chaos", {**_CHAOS, "T": 5e-322}, "T"),
    # k-marginal orders whose entry count m^(2k) is too long to form or to print
    ("residuals", {**_RES, "k": 100000}, "k"),
    ("residuals", {**_RES, "k": 2**62}, "k"),
    # a probe's time grid, two arrays of nt, past the budget
    ("probe", {"lemma": "strichartz", "options": {"nt": 2**31}}, "options"),
    # a hufl bound eps^(2k) past the largest float
    ("hufl", {**_HUFL, "eps": 1e300, "ks": [3]}, "eps"),
    # a datum whose mass, its squared L2 norm, is past the largest float
    ("chaos", {**_CHAOS, "initial": {**_BAND2, "scale": 1e300}}, "initial"),
    # a moment order whose bound (2 r/N + 1)^k, 17.03^300, is past the largest float
    ("manybody-run", {**_MB, "N": 3, "moments": [300]}, "moments"),
    # a probe past the work rule: 100 samples x 3 tuples x 10^6 times x its grid points
    ("probe", {"lemma": "strichartz", "options": {"nt": 1000000}}, "options"),
    # a many-body flow past the work rule: series of about 8,956 summed terms, each
    # an H-apply over m p = 868,224 entries, about 90 s
    ("residuals", {**_RES, "n": 16, "N": 7, "spacings": [0.02, 12]}, "spacings"),
    # a spacing whose centred difference 1/(2h) is past the largest float: NaN ratios
    ("residuals", {**_RES, "spacings": [0.02, 1e-310]}, "spacings"),
    # approx_identity at the old count's cap: 1,365 samples at n = 65,536, about 44 s
    ("probe", {"lemma": "approx_identity", "options": {"n": 65536, "samples": 1365}}, "options"),
    # an integer past the largest float, which json reads as an int: each ended in an
    # OverflowError traceback, in the build pass or in the run
    ("nls-run", {**_NLS, "b0": 10**400}, "b0"),
    ("nls-run", {**_NLS, "initial": {"kind": "modes", "modes": [[1, 10**400]]}}, "initial"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigma": 10**400}}, "potential.sigma"),
    ("manybody-run", {**_MB, "N": 10**400}, "N"),
    ("residuals", {**_RES, "spacings": [10**400, 0.01]}, "spacings"),
    ("hufl", {**_HUFL, "M": 10**400}, "M"),
    ("probe", {"lemma": "strichartz", "options": {"T": 10**400}}, "options.T"),
    # rules that each value's owning function holds: the flow's times, the hufl bound,
    # the step count
    ("manybody-run", {**_MB, "T": -0.1}, "T"),
    ("chaos", {**_CHAOS, "T": -0.1}, "T"),
    ("hufl", {**_HUFL, "eps": 0}, "eps"),
    ("nls-run", {**_NLS, "snapshot_every": 0}, "snapshot_every"),
    # 3-D probes at the old count's cap, which counted no sample's fixed cost: about
    # 60 s, 50 s and 17 s on a 2-vCPU host
    ("probe", {"lemma": "bilinear",
               "options": {"n": 4, "m1s": [2], "m2": 2, "nt": 2, "samples": 184112}}, "options"),
    ("probe", {"lemma": "refined_sobolev",
               "options": {"n": 4, "ms": [1], "rs": [1], "band": 1, "samples": 524288}}, "options"),
    ("probe", {"lemma": "strichartz", "options": {"n": 4, "ms": [1], "nt": 32, "samples": 16384}},
     "options"),
    # nor the fields a sample draws: a 64^3 field for an 8^3 evaluation grid, about 34 min
    ("probe", {"lemma": "refined_sobolev",
               "options": {"n": 64, "ms": [1], "rs": [1], "band": 1, "samples": 524288}},
     "options"),
]


@pytest.mark.parametrize("kind,params", [
    ("manybody-run", {**_MB, "N": 3, "beta": 0.0, "T": 1e6}),
    ("residuals", {**_RES, "beta": 0.0, "spacings": [1e5, 5e4]}),
], ids=["manybody-run", "residuals"])
def test_series_tolerance_out_of_reach_exits_1(tmp_path, capsys, kind, params):
    # the series' degree passes what double precision can certify: propagate
    # raises before any H-apply
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": kind, "params": params}))
    rc = main([kind, "--config", str(path), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in out + err
    assert out.startswith("[TOLERANCE-FAIL]") and out.count("\n") == 1
    assert not (tmp_path / "out" / "report.json").exists()


class TestBadConfigs:
    @pytest.mark.parametrize("kind,params,field", BAD_CONFIGS)
    def test_rejected_with_field_named(self, tmp_path, capsys, kind, params, field):
        if callable(params):
            params = params(tmp_path)
        path = tmp_path / "bad.json"
        if isinstance(params, str):
            path.write_text(params)
        elif params is not None:
            path.write_text(json.dumps({"kind": kind, "seed": 1, "params": params}))
        rc = main([kind, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert (f"config: {path}:" if field == "config" else f"params.{field}:") in err
        assert "Traceback" not in err
        assert "__init__()" not in err  # a message of the binder, not of Python's call

    def test_each_distinct_message_listed_once(self):
        # both N of Ns fail the same way, with the same message
        with pytest.raises(ValidationError) as info:
            ExperimentConfig.from_dict({"kind": "chaos", "params": {**_CHAOS, "beta": 1e10}})
        assert info.value.errors == [
            "params.beta: rescaled support radius 0 is below half a grid spacing 0.393"]

    @pytest.mark.parametrize("k", [100000, 2**62])
    def test_rank_one_order_is_compared_before_its_power(self, k):
        # the 8-point grid's count is stated as the power, never formed
        with pytest.raises(ValidationError) as info:
            ExperimentConfig.from_dict({"kind": "residuals", "params": {**_RES, "k": k}})
        assert f"params.k: a {k}-marginal would hold 8^{2 * k} entries" in info.value.errors

    def test_sector_tables_past_the_budget_name_only_N(self):
        # the series is charged with the tables; the tables alone name N, not spacings
        with pytest.raises(ValidationError) as info:
            ExperimentConfig.from_dict({"kind": "residuals", "params": {**_RES, "n": 180}})
        assert [e.split(":")[0] for e in info.value.errors] == ["params.N"]
        assert "sector tables would hold" in info.value.errors[0]

    def test_chaos_to_twelve_particles_accepted(self):
        # the sectors (50,388 entries at N = 12) fit; the 8^12-entry tensor is never formed
        ExperimentConfig.from_dict({"kind": "chaos",
                                    "params": {**_CHAOS, "Ns": [2, 4, 6, 8, 10, 12]}})

    @pytest.mark.parametrize("kind,params", [
        ("chaos", _CHAOS), ("manybody-run", _MB), ("residuals", _RES),
        ("manybody-run", {**_MB, "stability": [[1, 0.5], [2, 0.5]]}),  # k = N: B_2, no tensor
    ])
    def test_sector_runs_expand_no_tensor(self, tmp_path, kind, params):
        manybody._expand_index.cache_clear()
        assert run_experiment(ExperimentConfig.from_dict({"kind": kind, "params": params}),
                              tmp_path).passed
        assert manybody._expand_index.cache_info().currsize == 0

    @pytest.mark.parametrize("kind,params", [
        ("residuals", {**_RES, "n": 24, "N": 4}),
        ("chaos", {**_CHAOS, "n": 16, "Ns": [5]}),
    ], ids=["residuals", "chaos"])
    def test_build_pass_bounds_the_peak_of_the_run(self, tmp_path, monkeypatch, kind, params):
        # residuals at d=1 n=24 N=4 k=1, a 331,776-entry tensor, and chaos at d=1
        # n=16 N=5 with its 1-marginal and mean-field flow, from cold tables: the
        # entries each build pass charges bound what its run allocates
        charged, check = [], grids.check_entries

        def spy(what, entries, name=None):
            charged.append(entries)
            check(what, entries, name)

        for module in (grids, manybody, marginals, nls):
            monkeypatch.setattr(module, "check_entries", spy)
        cfg = ExperimentConfig.from_dict({"kind": kind, "params": params})
        for memo in (manybody._sector, manybody._insertion, manybody._expand_index,
                     manybody._cached_potential_table):
            memo.cache_clear()
        build = sum(charged)
        tracemalloc.start()
        try:
            assert run_experiment(cfg, tmp_path).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * build

    @pytest.mark.parametrize("lemma,options", [
        ("strichartz", {"ms": [2, 4], "n": 8, "nt": 32}),
        ("bilinear", {"m1s": [4, 8], "n": 8, "nt": 3}),
        ("refined_sobolev", {"ms": [2], "rs": [4], "n": 16, "band": 6}),
        ("multilinear", {"variant": "MLFL1", "n": 8, "nt": 3}),
    ])
    def test_probe_build_pass_charges_bound_the_run(self, tmp_path, monkeypatch, lemma, options):
        # the largest grid of each label that a run charges was charged by its build pass
        charged, check = {}, probes.check_entries

        def spy(what, entries, name=None):
            charged[what] = max(charged.get(what, 0), entries)
            check(what, entries, name)

        monkeypatch.setattr(probes, "check_entries", spy)
        cfg = ExperimentConfig.from_dict({"kind": "probe", "params": {
            "lemma": lemma, "samples": 2, "options": options}})
        build, charged = charged, {}
        run_experiment(cfg, tmp_path)
        assert charged and charged.keys() <= build.keys()
        assert all(charged[what] <= build[what] for what in charged)

    @pytest.mark.parametrize("raw", _CHARGE_CASES)
    def test_run_charges_no_more_than_its_build_pass(self, tmp_path, monkeypatch, raw):
        # an accepted config either runs or is rejected: no array that a run charges to
        # the budget is larger than the largest its build pass charged
        charged, check = [], grids.check_entries

        def spy(what, entries, name=None):
            charged.append(entries)
            check(what, entries, name)

        for module in (grids, manybody, marginals, nls, probes, couplings):
            monkeypatch.setattr(module, "check_entries", spy)
            for memo in vars(module).values():  # from cold memos, as a fresh process runs
                if callable(getattr(memo, "cache_clear", None)):
                    memo.cache_clear()
        cfg = ExperimentConfig.from_dict(raw)
        build, charged[:] = max(charged, default=0), []
        run_experiment(cfg, tmp_path)
        assert max(charged, default=0) <= build

    def test_residuals_budget_counts_the_states_the_run_holds(self):
        # d=1 n=128 N=3 at spacings 0.04, 0.02, 0.01: four distinct times, so four
        # returned states (16.2 M entries with the basis and the tables), not six
        # (16.9 M, past the budget)
        ExperimentConfig.from_dict({"kind": "residuals",
                                    "params": {**_RES, "n": 128, "spacings": [0.04, 0.02, 0.01]}})

    @pytest.mark.parametrize("initial", [{**_BAND2, "scale": 0},
                                         {"kind": "modes", "modes": [[1, 1.0]], "scale": 0}],
                             ids=["random_band", "modes"])
    def test_zero_scale_rejected(self, initial):
        # not a unit-norm field, as `scale or 1.0` made it
        with pytest.raises(ValidationError) as exc:
            ExperimentConfig.from_dict({"kind": "nls-run", "params": {**_NLS, "initial": initial}})
        assert exc.value.errors == ["params.initial.scale: must be > 0"]

    @pytest.mark.parametrize("seed", [True, 1.0, "1"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValidationError) as exc:
            ExperimentConfig.from_dict({"kind": "couplings", "seed": seed, "params": {"k": 2}})
        assert exc.value.errors == ["seed: must be an integer"]

    @pytest.mark.parametrize("argv,config", [
        (["probe", "--lemma", "approx_identity", "--seed", "-1"], None),
        (["couplings", "--seed", "-1"], {"kind": "couplings", "params": {"k": 2}}),
        (["couplings"], {"kind": "couplings", "seed": -1, "params": {"k": 2}}),
        (["nls-run"], {"kind": "nls-run", "seed": -3, "params": _NLS}),
    ], ids=["flag", "override", "config", "nls-run"])
    def test_negative_seed_rejected_naming_seed(self, tmp_path, capsys, argv, config):
        # numpy's generators reject a negative seed: a traceback, or an error
        # naming params.initial, before
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "c.json")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: seed: must be >= 0, got -")
        assert err.count("validation error") == 1

    def test_probe_sample_count_reported_once(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "probe", "params": {"lemma": "strichartz",
                                                                "samples": 0}}))
        assert main(["probe", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "validation error: params.samples: samples must be >= 1, got 0\n"

    @pytest.mark.parametrize("spec,key", [
        ({"kind": "gaussian", "sigma": True}, "sigma"),
        ({"kind": "gaussian", "sigma": None}, "sigma"),
        ({"kind": "gaussian", "amplitude": "1"}, "amplitude"),
        ({"kind": "constant", "value": "1"}, "value"),
        ({"kind": "constant", "value": False}, "value"),
    ])
    def test_potential_fields_are_typed(self, spec, key):
        with pytest.raises(ValidationError) as exc:
            ExperimentConfig.from_dict({"kind": "chaos", "params": {**_CHAOS, "potential": spec}})
        [entry] = exc.value.errors
        assert entry.startswith(f"params.potential.{key}: must be")

    def test_potential_fields_take_numbers_and_null_amplitude(self):
        assert manybody.GaussianPotential(0.3).sigma == 0.3  # positional, as the fields read
        assert manybody.ConstantPotential(2).value == 2
        spec = {"kind": "gaussian", "sigma": 0.4, "amplitude": None}
        ExperimentConfig.from_dict({"kind": "chaos", "params": {**_CHAOS, "potential": spec}})
        assert cli.build_potential_spec(spec) == manybody.GaussianPotential(0.4)

    @pytest.mark.parametrize("kind,params,field", _OVERSIZED_GRIDS)
    def test_oversized_grid_rejected_before_any_field(self, kind, params, field):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as exc:
                ExperimentConfig.from_dict({"kind": kind, "params": params})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.split(":")[0] for e in exc.value.errors] == [f"params.{field}"]
        assert peak < 2**20  # a 172^3 field alone would take 81 MB

    def test_undealiased_rotation_grid_is_the_field_grid(self):
        params = {**_NLS, "d": 3, "n": 172, "dealias": False}
        ExperimentConfig.from_dict({"kind": "nls-run", "params": params})

    def test_residuals_budget_is_the_k_marginal(self, tmp_path):
        # k + 2 = 4 slots would need a 12^8-entry marginal; the run needs only 12^4
        params = {**_RES, "n": 12, "N": 4, "k": 2}
        report = run_experiment(ExperimentConfig.from_dict({"kind": "residuals", "params": params}),
                                tmp_path)
        assert report.passed

    @pytest.mark.parametrize("path", _DEMO_CONFIGS, ids=lambda p: p.name)
    def test_demo_configs_accepted(self, path):
        ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("path", _DEMO_CONFIGS, ids=lambda p: p.name)
    def test_validation_runs_no_experiment(self, tmp_path, monkeypatch, path):
        # the build pass stops at the runner's yield: no flow, solver, enumeration
        # or probe sample runs before it, and the suspended run then completes
        def forbidden(*args, **kwargs):
            raise AssertionError("validation ran an experiment")

        for name in ("propagate", "timeseries", "evolve", "chaos_experiment", "hufl_factorized",
                     "min_unclogged"):
            monkeypatch.setattr(cli, name, forbidden)
        monkeypatch.setattr(probes, "_collect", forbidden)
        cfg = ExperimentConfig.from_file(path)
        monkeypatch.undo()
        assert run_experiment(cfg, tmp_path).passed


# a value each annotation a declared key may carry accepts; "list" checks no element
_VALID = {"int": 1, "float": 1.5, "float | None": 1.5, "bool": True, "str": "x", "dict": {},
          "list": ["x"], "list[int]": [1, 2], "list[float]": [1.5, 2],
          "list[tuple[int, float]]": [[1, 0.5]]}
# what no float holds: NaN and the infinities, which Python's json reads, and an
# integer past the largest float, which it reads as an int
_NO_FLOAT = [float("nan"), float("inf"), -float("inf"), 10**400]


def _number_paths(value, path=()):
    """The index path of every number (no bool) in value, lists included."""
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _number_paths(v, path + (i,))]
    return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _replaced(value, path, new):
    if not path:
        return new
    return [_replaced(v, path[1:], new) if i == path[0] else v for i, v in enumerate(value)]


# a value of the wrong JSON type for each annotation a declared key may carry
_MISTYPED = {"int": True, "float": "1", "float | None": "1", "bool": 1, "str": 5, "dict": [],
             "list": [],
             "list[int]": [1.5], "list[float]": ["1"], "list[tuple[int, float]]": [[1.5, 0.5]]}


def _declared():
    """(declaring function, key, annotation) for every config key of every kind,
    every params.initial and params.potential kind and every probe's params.options."""
    from quintlab import cli

    return [(fn, p.name, p.annotation)
            for fn in [*cli._RUNNERS.values(), *cli._INITIAL.values(),
                       *cli._POTENTIALS.values(), *probes.PROBE_RUNNERS.values()]
            for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]


class TestDeclaredKeys:
    def test_each_kind_declares_exactly_its_keys(self):
        # every settable key of a config in one place, so a key added or removed is a line here
        keys = {}
        for fn, key, _ in _declared():
            keys.setdefault(fn, set()).add(key)
        assert {kind: keys[fn] for kind, fn in cli._RUNNERS.items()} == {
            "nls-run": {"d", "n", "initial", "b0", "dt", "T", "dealias", "snapshot_every",
                        "split_M", "diagnostics_M"},
            "manybody-run": {"d", "n", "initial", "N", "beta", "T", "potential", "moments",
                             "stability", "dump_state"},
            "chaos": {"d", "n", "initial", "beta", "T", "Ns", "potential"},
            "residuals": {"d", "n", "initial", "N", "beta", "k", "spacings", "potential"},
            "hufl": {"d", "n", "initial", "M", "eps", "ks"},
            "couplings": {"k"},
            "probe": {"lemma", "options", "samples"},
        }
        assert {kind: keys[fn] for kind, fn in cli._INITIAL.items()} == {
            "modes": {"modes", "scale"}, "random_band": {"band", "decay", "scale"},
            "constant": {"value"}, "file": {"path"}}
        assert {kind: keys[fn] for kind, fn in cli._POTENTIALS.items()} == {
            "gaussian": {"sigma", "amplitude"}, "constant": {"value"}}

    def test_every_annotation_has_a_json_type(self):
        from quintlab.cli import _JSON_TYPES

        assert {ann for _, _, ann in _declared()} <= set(_JSON_TYPES)
        assert set(_MISTYPED) == set(_JSON_TYPES)

    @pytest.mark.parametrize("annotation", sorted(_MISTYPED))
    def test_each_json_type_rejects_its_mistyped_value(self, annotation):
        from quintlab import cli

        what, test = cli._JSON_TYPES[annotation]
        assert not test(_MISTYPED[annotation])
        keys = [(fn, key) for fn, key, ann in _declared() if ann == annotation]
        assert keys
        nested = [("params.initial", cli._INITIAL), ("params.potential", cli._POTENTIALS),
                  ("params.options", probes.PROBE_RUNNERS)]
        for fn, key in keys:
            where, kind = next(((where, kind) for where, table in nested
                                for kind, f in table.items() if f is fn), ("params", None))
            with pytest.raises(ValidationError) as exc:
                cli._bind(fn, {key: _MISTYPED[annotation]}, where, kind)
            assert f"{where}.{key}: must be {what}" in exc.value.errors

    @pytest.mark.parametrize("annotation", sorted(_VALID))
    def test_each_number_a_json_type_accepts_is_one_a_float_holds(self, annotation):
        # every typed leaf is checked once, where _bind binds it: a number of any
        # JSON type, in a list or a pair too, must be finite and within float range
        assert set(_VALID) == set(cli._JSON_TYPES)
        _, test = cli._JSON_TYPES[annotation]
        assert test(_VALID[annotation])
        for path in _number_paths(_VALID[annotation]):
            for bad in _NO_FLOAT:
                assert not test(_replaced(_VALID[annotation], path, bad)), (path, bad)

    @pytest.mark.parametrize("kind,params,defaults", [
        ("nls-run", {**_NLS, "initial": {"kind": "random_band", "scale": 1.0}},
         {"snapshot_every": 1, "dealias": True, "split_M": 2, "diagnostics_M": [2],  # n/4
          "initial": {"kind": "random_band", "band": 2, "decay": 2.0, "scale": 1.0}}),
        ("nls-run", {**_NLS, "initial": {"kind": "constant"}},
         {"initial": {"kind": "constant", "value": 1.0}}),
        ("manybody-run", _MB,
         {"moments": [1, 2], "dump_state": False, "potential": {"kind": "gaussian", "sigma": 0.5}}),
    ], ids=["nls-run", "constant", "manybody-run"])
    def test_spelled_out_defaults_write_the_same_artifacts(self, tmp_path, kind, params,
                                                           defaults):
        reports = [run_experiment(ExperimentConfig.from_dict(
                       {"kind": kind, "seed": 3, "params": {**params, **extra}}), tmp_path / name)
                   for name, extra in [("omitted", {}), ("spelled", defaults)]]
        assert reports[0].summary == reports[1].summary
        assert reports[0].checks == reports[1].checks
        files = sorted(p.name for p in (tmp_path / "omitted").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "spelled").iterdir())
        for name in set(files) - {"report.json"}:
            assert (tmp_path / "omitted" / name).read_bytes() == \
                (tmp_path / "spelled" / name).read_bytes()
