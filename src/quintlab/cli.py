"""Experiment orchestration: configuration validation, dispatch, artifacts.

Usage:  lab <subcommand> --config <path> [--seed S] [--out DIR]

Subcommands: nls-run, manybody-run, chaos, residuals, hufl, couplings, probe.
Configs are JSON objects.  The keyword-only parameters of `_run_<kind>`
(of `_initial_<kind>` for params.initial) declare each key once: the
annotation gives its JSON type, the default its default, and no default
makes it required.  Validation binds params to them, then a build pass
constructs the domain objects the run uses (grid, solver and many-body
configs, potential, initial field, probe arguments), so every value rule
is the one its owning module enforces.  Every failure of either pass is
listed.  In `manybody-run`, the optional `steps` caps each Krylov substep
at T/steps; without it every substep is as long as its error estimate
allows.  All randomness derives from the single config seed through
numpy's PCG64 generator, so rerunning a config reproduces every numeric
artifact byte-for-byte.  Exit codes: 0 pass, 1 in-run tolerance failure,
2 validation error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import io as qio
from .couplings import (
    check_map_order, classify_couplings, double_factorial, min_unclogged,
    raw_summand_count,
)
from .grids import GridSpec, TorusField, check_cutoff
from .manybody import (
    BosonicState, ConstantPotential, GaussianPotential, ManyBodyConfig, check_moment_order,
    check_stability_order, energy_moment, energy_per_particle, potential_mass, propagate,
    stability_check,
)
from .marginals import (
    bbgky_residual, chaos_experiment, check_hierarchy_order, check_marginal_order,
    check_rank_one_order, gp_residual, hufl_factorized,
)
from .nls import (
    NlsConfig, check_diagnostic_cutoffs, check_step_count, evolve, timeseries,
)
from .probes import PROBE_RUNNERS, check_probe_options, check_sample_count

SCHEMA_VERSION = 1


class ValidationError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: int = 0
    # the domain objects of the last successful validate(), handed to the next run
    built: dict | None = dc_field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_file(cls, path, seed_override=None) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValidationError([f"config: {path}: {exc.strerror or exc}"]) from None
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ValidationError([f"config: {path}: invalid JSON: {exc}"]) from None
        if not isinstance(raw, dict):
            raise ValidationError([f"config: {path}: must be a JSON object"])
        return cls.from_dict(raw, seed_override)

    @classmethod
    def from_dict(cls, raw: dict, seed_override=None) -> "ExperimentConfig":
        errors = []
        kind = raw.get("kind")
        if kind not in KINDS:
            errors.append(f"kind: must be one of {KINDS}, got {kind!r}")
        seed = raw.get("seed", 0)
        if not _is_int(seed):
            errors.append("seed: must be an integer")
        elif seed_override is not None:
            seed = seed_override
        if _is_int(seed) and seed < 0:  # numpy's generators take no negative seed
            errors.append(f"seed: must be >= 0, got {seed}")
        extra = set(raw) - {"kind", "seed", "params"}
        if extra:
            errors.append(f"unknown top-level keys: {sorted(extra)}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            errors.append("params: must be an object")
            params = {}
        errors += [f"{path}: must be a finite number" for path in _non_finite(params, "params")]
        if errors:
            raise ValidationError(errors)
        cfg = cls(kind, params, seed)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "params": self.params}

    def validate(self) -> dict:
        """Bind params to the runner, run the build pass; keep and return the built objects."""
        args = _bind(_RUNNERS[self.kind], self.params, "params", self.kind)
        self.built = _build(self.kind, args, self.seed)
        return self.built


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _non_finite(value, path: str) -> list[str]:
    """The path of each key under `path` whose value holds a NaN or an infinity
    (Python's json reads them, JSON has none); a list is named by its key."""
    if isinstance(value, dict):
        return [bad for key, v in value.items() for bad in _non_finite(v, f"{path}.{key}")]
    if isinstance(value, list):
        return [path] if any(_non_finite(v, path) for v in value) else []
    return [path] if isinstance(value, float) and not np.isfinite(value) else []


def _list_of(test):
    return lambda x: isinstance(x, list) and len(x) > 0 and all(map(test, x))


# Each annotation a declared key may carry: what its JSON value must be, and the test.
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", _is_num),
    "bool": ("a boolean", lambda x: isinstance(x, bool)),
    "str": ("a string", lambda x: isinstance(x, str)),
    "dict": ("an object", lambda x: isinstance(x, dict)),
    "list": ("a nonempty list", lambda x: isinstance(x, list) and len(x) > 0),
    "list[int]": ("a nonempty list of integers", _list_of(_is_int)),
    "list[float]": ("a nonempty list of numbers", _list_of(_is_num)),
    "list[tuple[int, float]]": ("a nonempty list of [integer, number] pairs", _list_of(
        lambda x: isinstance(x, list) and len(x) == 2 and _is_int(x[0]) and _is_num(x[1]))),
}


def _bind(fn, raw: dict, where: str, kind: str) -> dict:
    """Every declared key of `kind` (the keyword-only parameters of fn) with its
    value in raw, else its default.  Raises ValidationError listing each unknown
    key, missing required key and value of the wrong JSON type as <where>.<key>."""
    params = {p.name: p for p in inspect.signature(fn).parameters.values()
              if p.kind is p.KEYWORD_ONLY}
    errors = [f"{where}.{key}: unknown key for kind {kind}" for key in raw if key not in params]
    errors += [f"{where}.{name}: required" for name, p in params.items()
               if p.default is p.empty and name not in raw]
    types = {key: _JSON_TYPES[params[key].annotation] for key in raw if key in params}
    errors += [f"{where}.{key}: must be {what}" for key, (what, test) in types.items()
               if not test(raw[key])]
    if errors:
        raise ValidationError(errors)
    return {name: raw.get(name, p.default) for name, p in params.items()}


# Run-level rules that no domain function owns.
_POSITIVE = ("snapshot_every", "steps", "nls_dt", "eps", "mass_tol", "norm_tol", "energy_tol")


def _build(kind: str, p: dict, seed: int) -> dict:
    """The build pass on bound params p: construct the domain objects the run
    uses, without tabulating a potential or allocating a state.  Each failure
    becomes the entry params.<key>: <message>, and every independent failure
    is listed.  A ParameterError names the argument it rejects; when the kind
    has a key of that name, the entry names it, else the key feeding the step."""
    errors, built = [], {}

    def attempt(key, build, *args):
        try:
            return build(*args)
        except ValidationError as exc:  # a nested spec's own binding
            errors.extend(exc.errors)
        except (ValueError, TypeError, LookupError, OSError) as exc:
            name = getattr(exc, "name", None)
            errors.append(f"params.{name if name in p else key}: {exc}")

    errors += [f"params.{key}: must be > 0" for key, value in p.items()
               if key in _POSITIVE and value is not None and value <= 0]
    if "T" in p and p["T"] < 0:
        errors.append("params.T: must be >= 0")
    grid = built["grid"] = attempt("n", GridSpec, p["d"], p["n"]) if "d" in p else None
    if kind in ("manybody-run", "chaos", "residuals"):
        pot = built["potential"] = attempt("potential", build_potential_spec, p["potential"])
        key = "Ns" if kind == "chaos" else "N"
        times = built["times"] = sorted({t for h in map(float, p["spacings"]) for t in (h, 2 * h)}
                                        if kind == "residuals" else [p["T"]])  # the run's times
        for N in (p["Ns"] if kind == "chaos" else [p["N"]]) if grid and pot else []:
            mb = built["mb"] = attempt(
                key, lambda: ManyBodyConfig(grid, N, float(p["beta"]), pot)
            )
            if mb:
                attempt(key, mb.check_run_budget, times)
    if kind == "nls-run":
        # NlsConfig checks b0, dt and, given a grid, the rotation grid's budget;
        # the initial field is drawn only for a solver that passes
        built["nls"] = attempt("dt", NlsConfig, grid, float(p["b0"]), float(p["dt"]), p["dealias"])
        if built["nls"]:
            attempt("T", check_step_count, float(p["T"]), float(p["dt"]), p["snapshot_every"])
        if p["split_M"] is not None:
            attempt("split_M", check_cutoff, p["split_M"])
        for m in (p["diagnostics_M"] or []) if grid else []:
            attempt("diagnostics_M", check_diagnostic_cutoffs, m, grid.nyquist)
    if grid and built.get("nls", True):
        spec = p["initial"]
        key = "initial.path" if spec.get("kind") == "file" else "initial"
        if kind == "manybody-run" and key == "initial.path":
            kw = {k: v for k, v in spec.items() if k != "kind"}  # a state, not a field
            if attempt(key, _bind, _initial_file, kw, "params.initial", "file") and built.get("mb"):
                attempt(key, lambda: qio.check_state_file(built["mb"], Path(spec["path"])))
        else:
            f = attempt(key, build_initial_field, grid, spec, seed)
            if f is not None and kind in ("chaos", "residuals", "hufl"):
                f = attempt("initial", _unit, f)
            built["field"] = f

    if kind == "manybody-run":
        for k in p["moments"]:
            attempt("moments", check_moment_order, k)
        for k, c1 in p["stability"]:
            attempt("stability", check_stability_order, k, float(c1), p["N"])
    elif kind == "residuals":
        attempt("k", check_hierarchy_order, p["k"], p["N"])
        if grid:  # both residuals assemble from the state; the largest array is the k-marginal
            attempt("k", check_rank_one_order, grid, p["k"])
        # the run's coupling comes from the tabulated potential; only dt is checked here
        for h in p["spacings"]:
            attempt("spacings", lambda: NlsConfig(grid, 0.0, float(h) / 4, dealias=False))
    elif kind == "hufl":
        attempt("M", check_cutoff, p["M"])
        for k in p["ks"]:
            attempt("ks", check_marginal_order, k)
    elif kind == "couplings":
        attempt("k", check_map_order, p["k"])
    elif kind == "probe":
        runner = built["runner"] = PROBE_RUNNERS.get(p["lemma"])
        kwargs = dict(p["options"] or {})
        if p["samples"] is not None:
            kwargs["samples"] = p["samples"]
        if runner is None:
            errors.append(f"params.lemma: must be one of {sorted(PROBE_RUNNERS)}")
        else:
            args = built["args"] = attempt(
                "options", lambda: inspect.signature(runner).bind(seed=seed, **kwargs)
            )
            if args is not None:
                args.apply_defaults()
                # one rule, named by the key the count came from
                attempt("options" if p["samples"] is None else "samples", check_sample_count,
                        args.arguments["samples"])
                attempt("options", check_probe_options, p["lemma"], args.arguments)
    if errors:
        raise ValidationError(errors)
    return built


def _unit(f: TorusField, scale: float = 1.0) -> TorusField:
    """f rescaled to L2 norm `scale`."""
    norm = f.l2_norm()
    if norm == 0.0:
        raise ValueError("the initial field is zero and cannot be normalized")
    return f * (scale / norm)


def _rescaled(f: TorusField, normalize: bool, scale: float | None) -> TorusField:
    """f, or f rescaled to L2 norm `scale`, 1 when only normalize is set."""
    if scale is None:
        return _unit(f) if normalize else f
    return _unit(f, float(scale))


# The kinds of params.initial, each declared like a runner.
def _initial_modes(grid, seed, *, modes: list, normalize: bool = False, scale: float = None):
    coeffs = {}
    for entry in modes:
        xi, *amp = entry
        xi = tuple(xi) if isinstance(xi, list) else (xi,)
        if not (all(map(_is_int, xi)) and 1 <= len(amp) <= 2 and all(map(_is_num, amp))):
            raise ValueError(f"a mode is [xi, re] or [xi, re, im], xi integer labels, got {entry}")
        coeffs[xi] = complex(*amp)
    return _rescaled(TorusField.from_modes(grid, coeffs), normalize, scale)


def _initial_random_band(grid, seed, *, band: int = None, decay: float = 2.0,
                         normalize: bool = False, scale: float = None):
    f = TorusField.random_band_limited(grid, grid.n // 4 if band is None else band,
                                       np.random.default_rng(seed), decay=float(decay))
    return _rescaled(f, normalize, scale)


def _initial_constant(grid, seed, *, value: float = 1.0):
    return TorusField.constant(grid, value)


def _initial_file(grid, seed, *, path: str):
    f = qio.load_field(Path(path))
    if f.grid != grid:
        raise ValueError("field grid does not match d/n")
    return f


_INITIAL = {"modes": _initial_modes, "random_band": _initial_random_band,
            "constant": _initial_constant, "file": _initial_file}


def build_initial_field(grid: GridSpec, spec: dict, seed: int) -> TorusField:
    """The field that spec, a params.initial, describes; a bad spec raises ValueError."""
    kwargs = dict(spec)
    kind = kwargs.pop("kind", None)
    if kind not in tuple(_INITIAL):  # a list is no kind, and unhashable
        raise ValueError(f"kind must be modes, random_band, constant or file, got {kind!r}")
    _bind(_INITIAL[kind], kwargs, "params.initial", kind)
    if kwargs.get("scale") is not None and kwargs["scale"] <= 0:
        raise ValidationError(["params.initial.scale: must be > 0"])
    return _INITIAL[kind](grid, seed, **kwargs)


def build_potential_spec(spec: dict | None):
    if spec is None:
        return GaussianPotential()
    kwargs = dict(spec)
    kind = kwargs.pop("kind", None)
    if kind not in ("gaussian", "constant"):
        raise ValueError(f"kind must be 'gaussian' or 'constant', got {kind!r}")
    return (GaussianPotential if kind == "gaussian" else ConstantPotential)(**kwargs)


@dataclass
class RunReport:
    kind: str
    config: dict
    wall_time_s: float = 0.0
    artifacts: list[str] = dc_field(default_factory=list)
    summary: dict = dc_field(default_factory=dict)
    checks: dict = dc_field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


# A runner's keyword-only parameters declare its kind's keys; what _build made of them is in built.
def _run_nls(built: dict, out: Path, report: RunReport, *, d: int, n: int, initial: dict,
             b0: float, dt: float, T: float, dealias: bool = True, snapshot_every: int = 1,
             split_M: float = None, diagnostics_M: list[float] = None, mass_tol: float = 1e-11):
    grid, nls_cfg = built["grid"], built["nls"]
    split_m = grid.nyquist // 2 if split_M is None else split_M
    diag_ms = diagnostics_M or [grid.nyquist // 2]
    header = ["t", "mass", "E_NLS", "E_L", "E_H"] + [f"high_kinetic_M{m}" for m in diag_ms]
    # the field is passed on, not kept: timeseries drops it once its samples are taken
    rows = timeseries(built.pop("field"), float(T), nls_cfg, snapshot_every, split_m, diag_ms)
    path = out / "timeseries.csv"
    qio.write_csv(path, header, rows)
    report.artifacts.append(str(path))
    mass0 = rows[0][1]
    drift = max(abs(r[1] - mass0) for r in rows) / mass0
    report.summary.update({"snapshots": len(rows), "mass_drift": drift, "split_M": split_m})
    report.checks["mass_conserved"] = drift <= mass_tol


def _run_manybody(built: dict, out: Path, report: RunReport, *, d: int, n: int, initial: dict,
                  N: int, beta: float, T: float, potential: dict = None, steps: int = None,
                  moments: list[int] = (1, 2), stability: list[tuple[int, float]] = (),
                  dump_state: bool = False, norm_tol: float = 1e-10, energy_tol: float = 1e-8):
    mb = built["mb"]
    if initial["kind"] == "file":
        psi0 = qio.load_state(mb, Path(initial["path"]))
    else:
        psi0 = BosonicState.factorized(mb, built["field"])
    e0 = energy_per_particle(psi0)
    psi = propagate(psi0, float(T), steps=steps)
    eT = energy_per_particle(psi)
    norm_drift = abs(psi.norm() - 1.0)
    energy_drift = abs(eT - e0) / max(abs(e0), 1.0)
    payload = {
        "coupling_b0": potential_mass(mb),
        "energy_per_particle": eT,
        "moments": {str(k): energy_moment(psi, k) for k in moments},
        "stability": [{"k": k, "c1": float(c1), **stability_check(psi, k, float(c1))}
                      for k, c1 in stability],
        "norm_drift": norm_drift,
        "energy_drift": energy_drift,
    }
    path = out / "manybody.json"
    qio.write_json(path, payload)
    report.artifacts.append(str(path))
    if dump_state:
        spath = out / "state.qlf"
        qio.dump_state(psi, spath)
        report.artifacts.append(str(spath))
    report.summary.update(payload)
    report.checks["norm_preserved"] = norm_drift <= norm_tol
    report.checks["energy_preserved"] = energy_drift <= energy_tol


def _run_chaos(built: dict, out: Path, report: RunReport, *, d: int, n: int, initial: dict,
               beta: float, T: float, Ns: list[int], potential: dict = None,
               nls_dt: float = None):
    rows = chaos_experiment(
        Ns, float(beta), built["field"], float(T), potential=built["potential"], nls_dt=nls_dt
    )
    path = out / "chaos.csv"
    qio.write_csv(
        path,
        ["N", "t", "trace_distance", "energy_per_particle"],
        [[r.N, T, r.distance, r.energy_per_particle] for r in rows],
    )
    report.artifacts.append(str(path))
    dists = {r.N: r.distance for r in rows}
    report.summary.update({"distances": {str(k): v for k, v in dists.items()}})
    ns = sorted(dists)
    report.checks["distance_not_increasing_in_N"] = (
        dists[ns[-1]] <= dists[ns[0]] * 1.2 + 1e-12 if len(ns) > 1 else True
    )


def _run_residuals(built: dict, out: Path, report: RunReport, *, d: int, n: int, initial: dict,
                   N: int, beta: float, k: int, spacings: list[float], potential: dict = None):
    grid, mb, phi0 = built["grid"], built["mb"], built["field"]
    b0 = potential_mass(mb)
    psi0 = BosonicState.factorized(mb, phi0)
    spacings = [float(h) for h in spacings]
    states = dict(zip(built["times"], propagate(psi0, built["times"])))  # one Krylov basis
    rows = []
    for h in spacings:
        snaps = [psi0, states[h], states[2 * h]]
        rb = bbgky_residual(snaps, np.array([0.0, h, 2 * h]), k)
        traj = evolve(phi0, 2 * h, NlsConfig(grid, b0, h / 4, dealias=False), snapshot_every=4)
        rg = gp_residual(traj, k, b0)
        rows.append([h, rb, rg])
    path = out / "residuals.csv"
    qio.write_csv(path, ["dt", "bbgky_residual", "gp_residual"], rows)
    report.artifacts.append(str(path))
    if len(rows) > 1:
        report.summary["bbgky_ratio"] = rows[0][1] / rows[-1][1]
        report.summary["gp_ratio"] = rows[0][2] / rows[-1][2]
    report.checks["residuals_finite"] = all(np.isfinite(r[1]) and np.isfinite(r[2]) for r in rows)


def _run_hufl(built: dict, out: Path, report: RunReport, *, d: int, n: int, initial: dict,
              M: float, eps: float, ks: list[int]):
    phi = built["field"]
    rows = []
    for k in ks:
        lhs = hufl_factorized(phi, k, float(M))
        bound = float(eps) ** (2 * k)
        rows.append([k, lhs, bound, lhs <= bound])
    path = out / "hufl.csv"
    qio.write_csv(path, ["k", "left_side", "bound", "passed"], rows)
    report.artifacts.append(str(path))
    report.summary["all_passed"] = all(bool(r[3]) for r in rows)
    report.checks["finite"] = all(np.isfinite(r[1]) for r in rows)


def _run_couplings(built: dict, out: Path, report: RunReport, *, k: int):
    counts = raw_summand_count(k)
    maps = double_factorial(2 * k - 1)
    payload = {
        "k": k,
        "map_count": maps,
        "bound_2_3k_minus_1": 2 ** (3 * k - 1),
        "double_factorial": maps,
        "raw_count_bruteforce": counts["brute_force"],
        "raw_count_printed_formula": counts["printed_formula"],
    }
    if k >= 2:
        mu = min_unclogged(k)
        witness = mu.pop("witnessing_expansion")
        payload["min_unclogged"] = mu
        payload["witness"] = {
            "targets": list(witness.collapse.targets),
            "signs": ["+" if s > 0 else "-" for s in witness.signs],
            "unclogged_levels": sorted(classify_couplings(witness)["unclogged"]),
        }
    path = out / "couplings.json"
    qio.write_json(path, payload)
    report.artifacts.append(str(path))
    report.summary.update(payload)
    report.checks["count_within_bound"] = payload["map_count"] <= payload["bound_2_3k_minus_1"]
    if "min_unclogged" in payload:
        report.checks["unclogged_floor"] = (
            payload["min_unclogged"]["min_count"] >= payload["min_unclogged"]["floor"]
        )


def _run_probe(built: dict, out: Path, report: RunReport, *, lemma: str, samples: int = None,
               options: dict = None):
    args = built["args"]
    probe_report = built["runner"](*args.args, **args.kwargs)
    jpath = out / f"probe_{lemma}.json"
    qio.write_json(jpath, probe_report.to_dict())
    cpath = out / f"probe_{lemma}.csv"
    qio.write_csv(
        cpath,
        ["parameters", "max_ratio"],
        [[key, val] for key, val in sorted(probe_report.ratio_table.items())],
    )
    report.artifacts.extend([str(jpath), str(cpath)])
    report.summary.update(
        {"max_ratio": probe_report.max_ratio, "stability_factor": probe_report.stability_factor}
    )
    report.checks["sampling_stable"] = probe_report.stability_factor < 1.5


_RUNNERS = {
    "nls-run": _run_nls,
    "manybody-run": _run_manybody,
    "chaos": _run_chaos,
    "residuals": _run_residuals,
    "hufl": _run_hufl,
    "couplings": _run_couplings,
    "probe": _run_probe,
}
KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunReport:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(kind=cfg.kind, config=cfg.to_dict())
    built = cfg.built if cfg.built is not None else cfg.validate()
    cfg.built = None  # the run may take objects out of it; a second run builds afresh
    t0 = time.perf_counter()
    try:
        _RUNNERS[cfg.kind](built, out, report, **cfg.params)
    except Exception:
        for art in report.artifacts:
            Path(art).unlink(missing_ok=True)
        raise
    report.wall_time_s = time.perf_counter() - t0
    qio.write_json(out / "report.json", report.to_dict())
    report.artifacts.append(str(out / "report.json"))
    return report


def emit_plotdata(report: RunReport) -> list[str]:
    """Columnar .dat copies of every CSV artifact plus a plotting stub."""
    written = []
    for art in report.artifacts:
        path = Path(art)
        if path.suffix != ".csv" or not path.exists():
            continue
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        dat = path.with_suffix(".dat")
        body = ["# " + "  ".join(header)]
        for line in lines[1:]:
            body.append("  ".join(line.split(",")))
        dat.write_text("\n".join(body) + "\n")
        written.append(str(dat))
    if written:
        base = Path(written[0]).parent
        stub = base / "plot_stub.py"
        stub.write_text(
            "import sys\n"
            "import numpy as np\n"
            "import matplotlib.pyplot as plt\n\n"
            "for path in sys.argv[1:]:\n"
            "    data = np.loadtxt(path, comments='#')\n"
            "    data = np.atleast_2d(data)\n"
            "    for col in range(1, data.shape[1]):\n"
            "        plt.plot(data[:, 0], data[:, col], label=f'{path}:{col}')\n"
            "plt.legend()\n"
            "plt.savefig('plot.png', dpi=150)\n"
        )
        written.append(str(stub))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Numerical laboratory for the quintic NLS on the torus "
        "and its bosonic many-body counterpart.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--plotdata", action="store_true")
        if kind == "couplings":
            sp.add_argument("--k", type=int, default=None)
        if kind == "probe":
            sp.add_argument("--lemma", type=str, default=None)
    args = parser.parse_args(argv)
    out_dir = args.out or f"runs/{args.kind}"
    try:
        if args.config is not None:
            cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
            if cfg.kind != args.kind:
                raise ValidationError(
                    [f"kind: config says {cfg.kind!r} but subcommand is {args.kind!r}"]
                )
        else:
            if args.kind == "couplings" and args.k is not None:
                params = {"k": args.k}
            elif args.kind == "probe" and args.lemma is not None:
                params = {"lemma": args.lemma}
            else:
                raise ValidationError(["--config is required for this subcommand"])
            cfg = ExperimentConfig.from_dict(
                {"kind": args.kind, "params": params, "seed": args.seed or 0}
            )
        report = run_experiment(cfg, out_dir)
    except ValidationError as err:
        for e in err.errors:
            print(f"validation error: {e}", file=sys.stderr)
        return 2
    if args.plotdata:
        emit_plotdata(report)
    status = "PASS" if report.passed else "TOLERANCE-FAIL"
    print(f"[{status}] {cfg.kind}: artifacts in {out_dir}")
    for name, ok in report.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
