"""Experiment orchestration: configuration validation, dispatch, artifacts.

Usage:  lab <subcommand> --config <path> [--seed S] [--out DIR]

Subcommands: nls-run, manybody-run, chaos, residuals, hufl, couplings, probe.
Configs are JSON objects.  The keyword parameters of `_run_<kind>` (of
`_initial_<kind>` for params.initial, of the dataclass for params.potential,
of the lemma's probe in probes.PROBE_RUNNERS for params.options) declare
each key once: the annotation gives its JSON type, the default its default,
no default makes it required.  Validation binds params to them and runs `_run_<kind>`
up to its `yield`: that is the build pass, which constructs the domain
objects the run after it uses, so every value rule is the one its owning
module enforces.  All randomness derives from the single config seed
through numpy's PCG64 generator, so rerunning a config reproduces every
numeric artifact byte-for-byte, whatever the BLAS thread count.  Exit codes:
0 pass, 1 in-run tolerance failure (a failed check, a propagation tolerance
out of reach or a blow-up), 2 validation error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time
from collections.abc import Generator
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import io as qio
from .couplings import (
    check_coupling_order, classify_couplings, double_factorial, min_unclogged, raw_summand_count,
)
from .grids import GridSpec, TorusField, check_cutoff
from .manybody import (
    BosonicState, ConstantPotential, GaussianPotential, ManyBodyConfig, PropagationToleranceError,
    _sector, check_moment_order, check_stability_order, energy_moment, energy_per_particle,
    potential_mass, propagate, stability_check,
)
from .marginals import (
    bbgky_residual, chaos_experiment, check_hierarchy_order,
    check_marginal_order, check_rank_one_order, gp_residual, hufl_factorized,
)
from .nls import (
    BlowUpError, NlsConfig, check_diagnostic_cutoffs, check_flow_work, check_step_count, evolve,
    timeseries,
)
from .probes import check_sample_count, probe_runner

SCHEMA_VERSION = 1


class ValidationError(ValueError):
    def __init__(self, errors: list[str]):
        errors = list(dict.fromkeys(errors))  # each distinct message once, in first-seen order
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: int = 0
    # the run of the last successful validate(), suspended where its build pass ends
    pending: Generator | None = dc_field(default=None, init=False, repr=False, compare=False)

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

    def validate(self) -> None:
        """Bind params to the runner and run it to its yield, kept in `pending`.
        Every failure is listed as params.<key>: <message>; a ParameterError's
        key is the argument it names if the kind has it, else the step's."""
        p = _bind(_RUNNERS[self.kind], self.params, "params", self.kind)
        errors = [f"params.{key}: must be > 0" for key, value in p.items()
                  if key in _POSITIVE and value is not None and value <= 0]
        if "T" in p and p["T"] < 0:
            errors.append("params.T: must be >= 0")

        def attempt(key, build, *args):
            try:
                return build(*args)
            except ValidationError as exc:  # a nested spec's own binding
                errors.extend(exc.errors)
            except (ValueError, TypeError, LookupError, OSError) as exc:
                name = getattr(exc, "name", None)
                errors.append(f"params.{name if name in p else key}: {exc}")

        run = _RUNNERS[self.kind](attempt, self.seed, **p)
        next(run)
        if errors:
            run.close()
            raise ValidationError(errors)
        self.pending = run


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_number_text(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


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
    "float | None": ("a number or null", lambda x: x is None or _is_num(x)),
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
    """Every declared key of `kind` (the parameters of fn that can be passed by
    keyword) with its value in raw, else its default.  Raises ValidationError listing
    each unknown key, missing required key and value of the wrong JSON type as <where>.<key>."""
    params = {p.name: p for p in inspect.signature(fn).parameters.values()
              if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
    errors = [f"{where}.{key}: unknown key for kind {kind}" for key in raw if key not in params]
    errors += [f"{where}.{name}: required" for name, p in params.items()
               if p.default is p.empty and name not in raw]
    types = {key: _JSON_TYPES[params[key].annotation] for key in raw if key in params}
    errors += [f"{where}.{key}: must be {what}" for key, (what, test) in types.items()
               if not test(raw[key])]
    if errors:
        raise ValidationError(errors)
    return {name: raw.get(name, p.default) for name, p in params.items()}


def _spec(kinds: dict, spec: dict, where: str):
    """The builder in kinds of the nested spec's kind, and the rest of spec bound to it."""
    kwargs = dict(spec)
    kind = kwargs.pop("kind", None)
    if kind not in tuple(kinds):  # a list is no kind, and unhashable
        raise ValueError(f"kind must be one of {tuple(kinds)}, got {kind!r}")
    return kinds[kind], _bind(kinds[kind], kwargs, where, kind)


# Run-level rules that no domain function owns.
_POSITIVE = ("snapshot_every", "eps")


def _unit(f: TorusField, scale: float = 1.0) -> TorusField:
    """f rescaled to L2 norm `scale`.  f is a datum fresh from the build pass,
    so its coefficient array is scaled in place and taken by the new field."""
    norm = f.l2_norm()
    if norm == 0.0:
        raise ValueError("the initial field is zero and cannot be normalized")
    c = f._take()[0]
    c *= scale / norm
    return TorusField(f.grid, c)


# The kinds of params.initial, each declared like a runner.
def _initial_modes(grid, seed, /, *, modes: list, scale: float = None):
    coeffs = {}
    for entry in modes:
        xi, *amp = entry
        xi = tuple(xi) if isinstance(xi, list) else (xi,)
        if not (all(map(_is_int, xi)) and 1 <= len(amp) <= 2 and all(map(_is_num, amp))):
            raise ValueError(f"a mode is [xi, re] or [xi, re, im], xi integer labels, got {entry}")
        coeffs[xi] = complex(*amp)
    f = TorusField.from_modes(grid, coeffs)
    return f if scale is None else _unit(f, float(scale))


def _initial_random_band(grid, seed, /, *, band: int = None, decay: float = 2.0,
                         scale: float = None):
    f = TorusField.random_band_limited(grid, grid.n // 4 if band is None else band,
                                       np.random.default_rng(seed), decay=float(decay))
    return f if scale is None else _unit(f, float(scale))


def _initial_constant(grid, seed, /, *, value: float = 1.0):
    return TorusField.constant(grid, value)


def _initial_file(grid, seed, /, *, path: str):
    f = qio.load_field(Path(path))
    if f.grid != grid:
        raise ValueError("field grid does not match d/n")
    return f


_INITIAL = {"modes": _initial_modes, "random_band": _initial_random_band,
            "constant": _initial_constant, "file": _initial_file}
_POTENTIALS = {"gaussian": GaussianPotential, "constant": ConstantPotential}  # fields are keys


def build_initial_field(grid: GridSpec, spec: dict, seed: int) -> TorusField:
    """The field that spec, a params.initial, describes; a bad spec, a zero
    field or one whose mass, its squared L2 norm, is past the largest float
    raises ValueError."""
    build, kwargs = _spec(_INITIAL, spec, "params.initial")
    if kwargs.get("scale") is not None and kwargs["scale"] <= 0:
        raise ValidationError(["params.initial.scale: must be > 0"])
    f = build(grid, seed, **kwargs)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = f.l2_norm()
    if norm == 0.0:
        raise ValueError("the initial field is zero")
    if not np.isfinite(norm * norm):
        raise ValueError("the initial field's mass, its squared L2 norm, is past the largest float")
    return f


def build_potential_spec(spec: dict | None):
    if spec is None:
        return GaussianPotential()
    potential, kwargs = _spec(_POTENTIALS, spec, "params.potential")
    return potential(**kwargs)


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
        return {**vars(self), "passed": self.passed}  # the fields, not deep copies


def _field(attempt, grid, spec: dict, seed: int, unit: bool = False):
    """The datum params.initial `spec` describes on grid, at unit L2 norm if
    `unit`; None without a grid or after a failed step."""
    key = "initial.path" if spec.get("kind") == "file" else "initial"
    f = attempt(key, build_initial_field, grid, spec, seed) if grid else None
    return attempt("initial", _unit, f) if unit and f is not None else f


def _configs(attempt, grid, potential: dict | None, beta: float, Ns, times, key: str,
             applies: int = 0):
    """One ManyBodyConfig per N in Ns, over the potential `potential` names, each
    charged with what a run to `times` holds and held to the work of its series and
    `applies` more H-applies, its tables under N and the rest under `key` (see
    check_run_budget); a config that cannot be built is left out."""
    pot = attempt("potential", build_potential_spec, potential)
    mbs = []
    for N in Ns if grid and pot else []:
        mb = attempt(key, lambda: ManyBodyConfig(grid, N, float(beta), pot))
        if mb:
            attempt(key, mb.check_run_budget, times, applies)
            mbs.append(mb)
    return mbs


# A runner's keyword parameters declare its kind's keys.  Up to its yield it is the
# build pass, which tabulates no potential and allocates no state; the run follows.
def _run_nls(attempt, seed: int, /, *, d: int, n: int, initial: dict, b0: float, dt: float,
             T: float, dealias: bool = True, snapshot_every: int = 1, split_M: float = None,
             diagnostics_M: list[float] = None):
    grid = attempt("n", GridSpec, d, n)
    nls_cfg = attempt("dt", NlsConfig, grid, float(b0), float(dt), dealias)
    steps = nls_cfg and attempt("T", check_step_count, float(T), float(dt), snapshot_every)
    if steps and grid:
        attempt("dt", check_flow_work, steps, grid, dealias)
    if split_M is not None:
        attempt("split_M", check_cutoff, split_M)
    for m in (diagnostics_M or []) if grid else []:
        attempt("diagnostics_M", check_diagnostic_cutoffs, m, grid.nyquist)
    # the datum is drawn only for a solver that passes, and held by this list alone
    datum = [_field(attempt, grid, initial, seed) if nls_cfg else None]
    out, report = yield
    split_m = grid.nyquist // 2 if split_M is None else split_M
    diag_ms = diagnostics_M or [grid.nyquist // 2]
    header = ["t", "mass", "E_NLS", "E_L", "E_H"] + [f"high_kinetic_M{m}" for m in diag_ms]
    # the run takes the datum's arrays and writes them; the build keeps nothing
    rows = timeseries(datum.pop(), float(T), nls_cfg, snapshot_every, split_m, diag_ms,
                      take=True)
    path = out / "timeseries.csv"
    qio.write_csv(path, header, rows)
    report.artifacts.append(str(path))
    mass0 = rows[0][1]
    drift = max(abs(r[1] - mass0) for r in rows) / mass0
    report.summary.update({"snapshots": len(rows), "mass_drift": drift, "split_M": split_m})
    report.checks["mass_conserved"] = drift <= 1e-11


def _run_manybody(attempt, seed: int, /, *, d: int, n: int, initial: dict, N: int, beta: float,
                  T: float, potential: dict = None, moments: list[int] = (1, 2),
                  stability: list[tuple[int, float]] = (), dump_state: bool = False):
    grid = attempt("n", GridSpec, d, n)
    from_file = initial.get("kind") == "file"
    mbs = _configs(attempt, grid, potential, beta, [N], [T], "N", sum(moments))
    for mb in mbs:
        if stability:  # the stability norms
            attempt("N", mb.check_factor_budget, min(max(k for k, _ in stability), N), 2)
        if dump_state or from_file:  # each streams a state file
            attempt("N", mb.check_file_budget)
    phi = None if from_file else _field(attempt, grid, initial, seed)
    entries = []  # a state file's checked sorted-tuple entries, held by this list alone
    if from_file and attempt("initial.path", _spec, _INITIAL, initial, "params.initial") and mbs:
        entries.append(attempt("initial.path", qio.check_state_file, mbs[0], Path(initial["path"])))
    for k in moments if mbs else []:
        attempt("moments", check_moment_order, k, mbs[0])
    for k, c1 in stability:
        attempt("stability", check_stability_order, k, float(c1), N)
    out, report = yield
    mb = mbs[0]
    if from_file:  # a complex64 dump has unit norm only to float32 rounding
        c = entries.pop() * _sector(mb).scale
        c /= BosonicState(mb, c=c).norm()
        psi0 = BosonicState(mb, c=c)
    else:
        psi0 = BosonicState.factorized(mb, phi)
    e0 = energy_per_particle(psi0)
    psi = propagate(psi0, float(T))
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
    report.checks["norm_preserved"] = norm_drift <= 1e-10
    report.checks["energy_preserved"] = energy_drift <= 1e-8


def _run_chaos(attempt, seed: int, /, *, d: int, n: int, initial: dict, beta: float, T: float,
               Ns: list[int], potential: dict = None):
    grid = attempt("n", GridSpec, d, n)
    mbs = _configs(attempt, grid, potential, beta, Ns, [T], "Ns")
    for mb in mbs:  # what marginal forms
        attempt("Ns", mb.check_factor_budget, 1, 2, 1)
    if grid and T > 0:  # the mean-field side's 200 steps; the run tabulates its coupling
        attempt("T", lambda: check_step_count(T, NlsConfig(grid, 0.0, T / 200).dt, 200))
    phi = _field(attempt, grid, initial, seed, unit=True)
    out, report = yield
    rows = chaos_experiment(mbs, phi, float(T))
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


def _run_residuals(attempt, seed: int, /, *, d: int, n: int, initial: dict, N: int, beta: float,
                   k: int, spacings: list[float], potential: dict = None):
    grid = attempt("n", GridSpec, d, n)
    spacings = [float(h) for h in spacings]
    times = sorted({t for h in spacings for t in (h, 2 * h)})  # the run's times
    mbs = _configs(attempt, grid, potential, beta, [N], times, "spacings")
    for mb in mbs:  # what bbgky_rhs forms; a k past N is named below
        attempt("N", mb.check_factor_budget, min(k, N), 4, 2)
    phi0 = _field(attempt, grid, initial, seed, unit=True)
    attempt("k", check_hierarchy_order, k, N)
    if grid:  # the k-marginals of both residuals
        attempt("k", check_rank_one_order, grid, k)
    # the run's coupling comes from the tabulated potential; only dt is checked here
    for h in spacings:
        attempt("spacings", lambda: NlsConfig(grid, 0.0, h / 4, dealias=False))
    out, report = yield
    mb = mbs[0]
    b0 = potential_mass(mb)
    psi0 = BosonicState.factorized(mb, phi0)
    states = dict(zip(times, propagate(psi0, times)))  # one Chebyshev recurrence
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


def _hufl_bound(eps: float, k: int) -> float:
    """eps^(2k), the bound hufl checks at order k, as a finite float."""
    try:
        return float(eps) ** (2 * k)
    except OverflowError:
        raise ValueError(f"eps^(2k) = {eps}^{2 * k} is past the largest float") from None


def _run_hufl(attempt, seed: int, /, *, d: int, n: int, initial: dict, M: float, eps: float,
              ks: list[int]):
    phi = _field(attempt, attempt("n", GridSpec, d, n), initial, seed, unit=True)
    attempt("M", check_cutoff, M)
    for k in ks:
        attempt("ks", check_marginal_order, k)
    bounds = [attempt("eps", _hufl_bound, eps, k) for k in ks]
    out, report = yield
    rows = []
    for k, bound in zip(ks, bounds):
        lhs = hufl_factorized(phi, k, float(M))
        rows.append([k, lhs, bound, lhs <= bound])
    path = out / "hufl.csv"
    qio.write_csv(path, ["k", "left_side", "bound", "passed"], rows)
    report.artifacts.append(str(path))
    report.summary["all_passed"] = all(bool(r[3]) for r in rows)
    report.checks["finite"] = all(np.isfinite(r[1]) for r in rows)


def _run_couplings(attempt, seed: int, /, *, k: int):
    attempt("k", check_coupling_order, k)
    out, report = yield
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
    report.checks["count_within_bound"] = maps <= payload["bound_2_3k_minus_1"]
    if k >= 2:
        report.checks["unclogged_floor"] = mu["min_count"] >= mu["floor"]


def _run_probe(attempt, seed: int, /, *, lemma: str, samples: int = None, options: dict = None):
    runner = attempt("lemma", probe_runner, lemma)
    opts = {**(options or {}), **({} if samples is None else {"samples": samples})}
    kwargs = runner and attempt("options", _bind, runner, opts, "params.options", lemma)
    if kwargs:
        # one rule, named by the key the count came from
        attempt("options" if samples is None else "samples", check_sample_count, kwargs["samples"])
        probe = runner(seed, **kwargs)
        attempt("options", next, probe)  # the probe's own checks and evaluation grids
    out, report = yield
    probe_report = next(probe)
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
    if cfg.pending is None:
        cfg.validate()
    run, cfg.pending = cfg.pending, None  # a second run builds afresh
    t0 = time.perf_counter()
    try:
        run.send((out, report))
    except StopIteration:  # the run is done
        pass
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
        if path.suffix == ".csv" and path.exists():  # "# " + the header, then the rows
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            lines = ["# " + "  ".join(header)]
            for i, row in enumerate(rows):  # a cell that is no number: the row index, noted
                notes = [cell for cell in row if not _is_number_text(cell)]
                line = "  ".join(str(i) if cell in notes else cell for cell in row)
                lines.append(f"{line}  # {'  '.join(notes)}" if notes else line)
            dat = path.with_suffix(".dat")
            dat.write_text("\n".join(lines) + "\n")
            written.append(str(dat))
    if written:
        base = Path(written[0]).parent
        stub = base / "plot_stub.py"
        stub.write_text(
            "import sys\n"
            "import numpy as np\n"
            "import matplotlib.pyplot as plt\n\n"
            "for path in sys.argv[1:]:\n"
            "    data = np.loadtxt(path, comments='#', ndmin=2)\n"
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
    except (PropagationToleranceError, BlowUpError) as err:
        print(f"[TOLERANCE-FAIL] {args.kind}: {type(err).__name__}: {err}")
        return 1
    if args.plotdata:
        emit_plotdata(report)
    status = "PASS" if report.passed else "TOLERANCE-FAIL"
    print(f"[{status}] {cfg.kind}: artifacts in {out_dir}")
    for name, ok in report.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
