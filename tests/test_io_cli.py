"""Binary dumps, config validation, CLI dispatch, determinism."""

import inspect
import itertools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quintlab import manybody
from quintlab.cli import (
    ExperimentConfig,
    ValidationError,
    emit_plotdata,
    main,
    run_experiment,
)
from quintlab.couplings import MINUS, PLUS, CollapseMap, SignedExpansion, classify_couplings
from quintlab.grids import GridSpec, TorusField
from quintlab.io import dump_field, dump_state, load_field, load_state, write_csv
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


class TestTruncatedOrMislabelledDumps:
    def test_truncated_field(self, tmp_path):
        with pytest.raises(ValueError, match="phi.qlf"):
            load_field(_truncated_field(tmp_path)["path"])

    @pytest.mark.parametrize(
        "edit", [lambda b: b[:-8], lambda b: b[:8] + b"spectral" + b[16:]],
        ids=["truncated", "spectral_tag"],
    )
    def test_bad_state_rejected(self, tmp_path, edit):
        with pytest.raises(ValueError, match="psi.qls"):
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
    def test_residuals_run_builds_one_krylov_basis(self, tmp_path, monkeypatch, case):
        # every time of every spacing, h and 2h, comes from the basis of psi0
        if case == "residuals_demo":
            params = json.loads((Path(__file__).parent.parent / "configs" / f"{case}.json")
                                .read_text())
        else:  # the hierarchy workload's shape
            params = {"kind": "residuals", "params": {**_RES, "n": 16}}
        calls, build = [], manybody._lanczos_basis

        def counting(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(manybody, "_lanczos_basis", counting)
        assert run_experiment(ExperimentConfig.from_dict(params), tmp_path).passed
        assert len(calls) == 1

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
        field = cfg.built["field"]  # the run takes the built objects
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

    def test_empty_table_is_header_only(self, tmp_path):
        write_csv(tmp_path / "empty.csv", ["a", "b"], [])
        assert (tmp_path / "empty.csv").read_text() == "a,b\n"

    def test_state_file_initial(self, tmp_path):
        # dump a state via one run, feed it back as the initial condition
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
                       "initial": {"kind": "file", "path": str(out1 / "state.qlf")},
                       "norm_tol": 1e-5},
        }
        out2 = tmp_path / "second"
        report = run_experiment(ExperimentConfig.from_dict(follow), out2)
        assert (out2 / "manybody.json").exists()
        assert report.checks["norm_preserved"]

    def test_field_file_initial(self, tmp_path):
        f = TorusField.plane_wave(GridSpec(1, 8), 2, 0.5)
        dump_field(f, tmp_path / "phi.qlf")
        raw = {
            "kind": "nls-run",
            "params": {"d": 1, "n": 8, "b0": 0.0, "dt": 0.01, "T": 0.05,
                       "initial": {"kind": "file", "path": str(tmp_path / "phi.qlf")},
                       "mass_tol": 1e-5},
        }
        report = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert report.checks["mass_conserved"]


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


_BAND2 = {"kind": "random_band", "band": 2, "scale": 1.0}
_NLS = {"d": 1, "n": 8, "b0": 1.0, "dt": 0.01, "T": 0.02, "initial": _BAND2}
_MB = {"d": 1, "n": 8, "N": 2, "beta": 0.05, "T": 0.02, "initial": _BAND2}
_RES = {"d": 1, "n": 8, "N": 3, "beta": 0.05, "k": 1, "spacings": [0.02, 0.01],
        "initial": _BAND2}
_HUFL = {"d": 1, "n": 16, "M": 4, "eps": 0.9, "ks": [1], "initial": _BAND2}
_CHAOS = {"d": 1, "n": 8, "beta": 0.05, "T": 0.02, "Ns": [2, 3], "initial": _BAND2}


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
    ("manybody-run", {**_MB, "N": 9}, "N"),
    ("manybody-run", {**_MB, "beta": 3}, "beta"),
    ("nls-run", {**_NLS, "initial": {"kind": "modes", "modes": [[[9], 1.0]]}}, "initial"),
    ("nls-run", {**_NLS, "diagnostics_M": [8]}, "diagnostics_M"),
    ("probe", {"lemma": "strichartz", "options": {"bogus": 1}}, "options"),
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
    ("couplings", {"k": 9}, "k"),  # 17!! = 34 M collapse maps
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
    ("manybody-run", {**_MB, "n": 64, "N": 4}, "N"),  # a 2^24-entry state, returned beside
    # the 21-vector sector basis (16.1 M entries)
    *_OVERSIZED_GRIDS,
    ("probe", {"lemma": "bilinear", "options": {"m1s": [128]}}, "options"),  # a 264^3 grid
    # evaluation grids past the budget on field grids within it
    ("probe", {"lemma": "strichartz", "options": {"n": 256, "ms": [128]}}, "options"),
    ("probe", {"lemma": "refined_sobolev", "options": {"n": 128, "band": 64}}, "options"),
    ("probe", {"lemma": "multilinear", "options": {"n": 96}}, "options"),
    # d=1 N=3: the 21-vector sector basis and the sector tables fit, not with the
    # one returned state (n=114) or the three (n=108) as well
    ("manybody-run", {**_MB, "n": 114, "N": 3}, "N"),
    ("residuals", {**_RES, "n": 108}, "N"),
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
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigmaa": 0.3}}, "potential"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigma": "0.5"}}, "potential"),
    ("nls-run", {**_NLS, "initial": {**_BAND2, "scale": 0}}, "initial.scale"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigma": True}}, "potential"),
    ("residuals", {**_RES, "potential": {"kind": "constant", "value": "1"}}, "potential"),
    # amplitude (0, 1) zeroed and (1, 0) kept: not a bosonic state
    ("manybody-run", lambda tmp: {**_MB, "initial": _state_file(tmp, lambda b: b[:28] + bytes(8)
                                                                + b[36:])}, "initial.path"),
    # T = 0 still builds the sector for the energy: at d=1 n=160 N=3 its tables
    # (27.9 M entries) are past the budget, the 4.1 M-entry state is not
    ("manybody-run", {**_MB, "n": 160, "N": 3, "T": 0.0}, "N"),
    ("chaos", {**_CHAOS, "n": 160, "T": 0.0, "Ns": [2, 3]}, "Ns"),
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
    ("nls-run", {**_NLS, "mass_tol": float("nan")}, "mass_tol"),
    ("manybody-run", {**_MB, "beta": float("nan")}, "beta"),
    ("chaos", {**_CHAOS, "nls_dt": float("nan")}, "nls_dt"),
    ("nls-run", {**_NLS, "b0": float("nan")}, "b0"),
    ("residuals", {**_RES, "spacings": [float("nan"), 0.01]}, "spacings"),
    ("probe", {"lemma": "approx_identity", "options": {"alphas": [float("nan"), 0.25]}},
     "options.alphas"),
    ("chaos", {**_CHAOS, "potential": {"kind": "gaussian", "sigma": float("nan")}},
     "potential.sigma"),
]


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

    def test_residuals_budget_counts_the_states_the_run_holds(self):
        # d=1 n=106 N=3 at spacings 0.02, 0.01: three distinct times, so three
        # returned states (16.0 M entries with the basis and the tables), not four
        ExperimentConfig.from_dict({"kind": "residuals", "params": {**_RES, "n": 106}})

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
        assert entry.startswith(f"params.potential: {key} must be a number")

    def test_potential_fields_take_numbers_and_null_amplitude(self):
        assert manybody.GaussianPotential(0.3).sigma == 0.3  # positional, as the fields read
        assert manybody.ConstantPotential(2).value == 2
        spec = {"kind": "gaussian", "sigma": 0.4, "amplitude": None}
        cfg = ExperimentConfig.from_dict({"kind": "chaos", "params": {**_CHAOS, "potential": spec}})
        assert cfg.built["potential"] == manybody.GaussianPotential(0.4)

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

    @pytest.mark.parametrize(
        "path", sorted(Path(__file__).parent.parent.glob("configs/*.json")), ids=lambda p: p.name
    )
    def test_demo_configs_accepted(self, path):
        ExperimentConfig.from_file(path)


# a value of the wrong JSON type for each annotation a declared key may carry
_MISTYPED = {"int": True, "float": "1", "bool": 1, "str": 5, "dict": [], "list": [],
             "list[int]": [1.5], "list[float]": ["1"], "list[tuple[int, float]]": [[1.5, 0.5]]}


def _declared():
    """(declaring function, key, annotation) for every config key of every kind."""
    from quintlab import cli

    return [(fn, p.name, p.annotation)
            for fn in [*cli._RUNNERS.values(), *cli._INITIAL.values()]
            for p in inspect.signature(fn).parameters.values() if p.kind is p.KEYWORD_ONLY]


class TestDeclaredKeys:
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
        for fn, key in keys:
            kind = next((k for k, f in cli._INITIAL.items() if f is fn), None)
            where = "params.initial" if kind else "params"
            with pytest.raises(ValidationError) as exc:
                cli._bind(fn, {key: _MISTYPED[annotation]}, where, kind)
            assert f"{where}.{key}: must be {what}" in exc.value.errors

    @pytest.mark.parametrize("kind,params,defaults", [
        ("nls-run", {**_NLS, "initial": {"kind": "random_band", "scale": 1.0}},
         {"snapshot_every": 1, "dealias": True, "split_M": 2, "diagnostics_M": [2],  # n/4
          "mass_tol": 1e-11, "initial": {"kind": "random_band", "band": 2, "decay": 2.0,
                                         "normalize": False, "scale": 1.0}}),
        ("nls-run", {**_NLS, "initial": {"kind": "constant"}},
         {"initial": {"kind": "constant", "value": 1.0}}),
        ("manybody-run", _MB,
         {"moments": [1, 2], "norm_tol": 1e-10, "energy_tol": 1e-8, "dump_state": False,
          "potential": {"kind": "gaussian", "sigma": 0.5}}),
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
