"""quintlab benchmark: seeded batches of `lab` experiments, checked and timed.

Run from the root of a quintlab checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

One client runs the workload's fixed batch of experiments through
`quintlab.cli.run_experiment`, one after another, and repeats the batch a
fixed number of times that fills about --seconds; every batch starts from
emptied quintlab caches.  Every experiment's checks and the benchmark's
own oracles must pass.  The end-to-end times and the tracing overhead are
reported at reference speed (see REF_SECONDS).  With --trace 0 fresh processes time the run's
set-up between the batches, and the last line of standard output is a
JSON object with the end-to-end metrics.  With
--trace 1 it runs three batches whatever --seconds says: one under span
tracing, one untraced (the base of the tracing overhead) and one under span
tracing plus tracemalloc (the memory peaks), and reports the per-layer
metrics instead.
The line before it records the machine fingerprint and the details behind
the metrics.  Artifacts go to a temporary directory under .perfbench/,
which is removed at exit; traces are kept in .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import functools
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Fresh-process set-up probes per run, spread over the gaps before, between
# and after the batches; setup_s is their median.
SETUP_PROBES = 8
# The speed of a small shared host drifts by tens of percent within seconds
# to minutes, and the drift moves every timing alike.  So the benchmark times
# a fixed kernel that does not touch quintlab before and after every timed
# piece of work, and scales each time to the host speed at which that kernel
# takes REF_SECONDS (a 2-vCPU x86 host measured 4.5-8 ms).  Raw wall times
# are kept in the details line.
REF_SECONDS = 0.006
# Typical wall seconds of one batch (2-vCPU x86 host, one BLAS thread).  A
# run makes round(--seconds / this) batches, at least one, so the number of
# batches does not depend on how fast the host happens to be.
BATCH_SECONDS = {"spectral": 13.0, "fewbody": 13.0, "hierarchy": 16.0}
# BLAS threads are capped before numpy loads; one thread keeps repeated runs
# steady on a small shared machine.
BLAS_THREADS = 1
MiB = 2.0**20
FIXED_FFT_SHAPES = [(256,), (64, 64), (32,) * 3, (48,) * 3, (64,) * 3]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do the set-up of a run and exit (used to time set-up)")
    return ap.parse_args(argv)


def setup(workload: str, seed: int, scratch: Path):
    """Import quintlab, generate the batch and warm every experiment kind."""
    sys.path.insert(0, str(SRC))
    import workloads
    from quintlab import cli

    configs = workloads.batch(workload, seed)
    for i, raw in enumerate(workloads.warmups(workload)):
        cli.run_experiment(cli.ExperimentConfig.from_dict(raw), scratch / f"warmup{i}")
    return configs


def monotonic() -> float:
    """A clock that reads the same in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((16,) * 4) + 0j, rng.standard_normal((96, 96))


def reference_seconds() -> float:
    """The host's current speed: the median wall seconds of three runs of a
    fixed kernel (an FFT pair, a matrix product and a Python loop) that does
    not touch quintlab.  The median drops a run that an interrupt slowed."""
    import numpy as np

    a, m = _reference_inputs()
    samples = []
    for _ in range(3):
        t = time.perf_counter()
        np.fft.ifftn(np.fft.fftn(a))
        m @ m
        counts = {}
        for i in range(10000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_SECONDS / ((ref_before + ref_after) / 2)


def time_setup(args, count: int) -> list[tuple[float, float]]:
    """(wall, reference-speed) seconds from the start of each of `count`
    fresh processes to the end of its set-up.  The child reads the clock
    itself, so neither its exit nor the parent's polling for it is counted."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(count):
        ref = reference_seconds()
        t = monotonic()
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        wall = float(child.stdout.split()[-1]) - t
        out.append((wall, at_reference_speed(wall, ref, reference_seconds())))
    return out


def clear_caches() -> None:
    """Empty quintlab's memo tables, so that every batch starts as cold as a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "quintlab" or name.startswith("quintlab."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_batch(configs, root: Path, tracer=None) -> dict:
    """Run the configs in order from cold caches.  Return per-experiment
    results, the experiments' wall times and their times at reference speed."""
    from quintlab import cli

    clear_caches()
    results, scaled = [], []
    ref = reference_seconds()
    for i, raw in enumerate(configs):
        if tracer is not None:
            tracer.exp = i
        t = time.perf_counter()
        try:
            report = cli.run_experiment(cli.ExperimentConfig.from_dict(raw), root / f"e{i:02d}")
            error = None
        except Exception as exc:  # a raising experiment is a counted failure
            report, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        ref_after = reference_seconds()
        results.append((raw, report, error, seconds))
        scaled.append(at_reference_speed(seconds, ref, ref_after))
        ref = ref_after
    return {"wall_s": sum(r[3] for r in results), "scaled_s": sum(scaled),
            "exp_scaled_s": scaled, "results": results}


def check_batch(batch: dict) -> None:
    """Record the batch's problems and the number of experiments that had any."""
    import oracles

    batch["problems"], batch["failed"] = [], 0
    for i, (raw, report, error, _) in enumerate(batch["results"]):
        if error is not None:
            found = [error]
        else:
            found = [f"check {k} failed" for k, ok in report.checks.items() if not ok]
            found += oracles.check_report(raw, report)
        batch["problems"] += [f"experiment {i} ({raw['kind']}): {p}" for p in found]
        batch["failed"] += bool(found)


def bare_fftn_seconds(shape, cache: dict) -> float:
    """Median wall time of one numpy.fft.fftn of a complex array of this shape."""
    import numpy as np

    if shape not in cache:
        a = np.random.default_rng(0).standard_normal(shape) + 0j
        np.fft.fftn(a)
        reps = 1
        while True:
            t = time.perf_counter()
            for _ in range(reps):
                np.fft.fftn(a)
            if time.perf_counter() - t >= 2e-3:
                break
            reps *= 2
        samples = []
        for _ in range(7):
            t = time.perf_counter()
            for _ in range(reps):
                np.fft.fftn(a)
            samples.append((time.perf_counter() - t) / reps)
        cache[shape] = statistics.median(samples)
    return cache[shape]


def state_shapes(configs) -> set[tuple]:
    shapes = set()
    for raw in configs:
        p = raw["params"]
        ns = p.get("Ns", [p["N"]] if "N" in p else [])
        shapes |= {(p["n"],) * (p["d"] * N) for N in ns}
    return shapes


# -- edge tally ----------------------------------------------------------------

# Accepted configs (kind, seed, params) that end badly at the parent of this
# benchmark: four raise uncaught exceptions and the refined-Sobolev probe's
# sampling_stable check fails at this seed (exit 1).  They run once per run,
# outside the timed batch, so one that starts to work does not change the
# batch; each fails before any large allocation.  The tally reports them as
# they are.
_BAND2 = {"kind": "random_band", "band": 2, "scale": 1.0}
EDGE_CONFIGS = [
    ("nls-run", 1, {"d": 1, "n": 6, "b0": 1.0, "dt": 0.01, "T": 0.02, "initial": _BAND2}),
    ("nls-run", 1, {"d": 2, "n": 30, "b0": 1.0, "dt": 0.01, "T": 0.02, "initial": _BAND2}),
    ("chaos", 1, {"d": 1, "n": 10, "beta": 0.1, "T": 0.2, "Ns": [2, 3], "initial": _BAND2}),
    ("residuals", 1, {"d": 1, "n": 8, "N": 3, "beta": 0.05, "k": 2,
                      "spacings": [0.02, 0.01], "initial": _BAND2}),
    ("probe", 10, {"lemma": "refined_sobolev", "samples": 4}),
]


def edge_tally(scratch: Path) -> list[dict]:
    import contextlib
    import io
    import json

    from quintlab import cli

    outcomes = []
    for i, (kind, seed, params) in enumerate(EDGE_CONFIGS):
        path = scratch / f"edge{i}.json"
        path.write_text(json.dumps({"kind": kind, "seed": seed, "params": params}))
        argv = [kind, "--config", str(path), "--out", str(scratch / f"edge{i}")]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                outcome = f"exit {cli.main(argv)}"
        except Exception as exc:
            outcome = f"traceback {type(exc).__name__}: {exc}"
        outcomes.append({"kind": kind, "seed": seed, "params": params, "outcome": outcome})
    return outcomes


# -- machine fingerprint --------------------------------------------------------


def fingerprint() -> dict:
    import hashlib
    import platform

    import numpy as np
    import scipy

    def first(path, prefix):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "quintlab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "cpu": first("/proc/cpuinfo", "model name") or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# -- per-layer metrics from spans ---------------------------------------------------


def layer_metrics(spans, mem_spans, bare, edge_tracebacks: int, overhead: float) -> dict:
    from tracing import LAYERS

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def ms(name):
        ss = by_name.get(name, ())
        return 1e3 * sum(s.duration for s in ss) / len(ss) if ss else 0.0

    def fft_x(name):
        ss = by_name.get(name, ())
        return statistics.fmean(s.duration / bare[s.shape] for s in ss) if ss else 0.0

    def peak_mb(name):
        return max((s.peak_bytes for s in mem_spans if s.name == name), default=0) / MiB

    def inside(span, ancestor):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    m = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.self_s"] = sum(s.self_s for s in mine)
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.fft_calls"] = sum(s.fft_calls for s in mine)
        m[f"{layer}.fft_mpoints"] = sum(s.fft_points for s in mine) / 1e6
    steps = by_name.get("nls.strang_step", ())
    h_applies = by_name.get("manybody.apply_hamiltonian_raw", ())
    n_prop = calls("manybody.propagate")
    m.update({
        "nls.strang_step.calls": len(steps),
        "nls.strang_step.ms": ms("nls.strang_step"),
        "nls.strang_step.fft_x": fft_x("nls.strang_step"),
        "nls.strang_step.ffts_per_step":
            sum(s.incl_fft_calls for s in steps) / len(steps) if steps else 0.0,
        "nls.free_propagate.calls": calls("nls.free_propagate"),
        "nls.free_propagate.ms": ms("nls.free_propagate"),
        "nls.evolve.s": sum(s.duration for s in by_name.get("nls.evolve", ())),
        "grids.resample.calls": calls("grids.TorusField.resample"),
        "grids.resample.ms": ms("grids.TorusField.resample"),
        "grids.values.calls": calls("grids.TorusField.values"),
        "probes.strichartz_ratio.ms": ms("probes.strichartz_ratio"),
        "probes.multilinear_ratio.ms": ms("probes.multilinear_ratio"),
        "probes.bilinear_strichartz_ratio.ms": ms("probes.bilinear_strichartz_ratio"),
        "manybody.apply_hamiltonian_raw.calls": len(h_applies),
        "manybody.apply_hamiltonian_raw.ms": ms("manybody.apply_hamiltonian_raw"),
        "manybody.apply_hamiltonian_raw.fft_x": fft_x("manybody.apply_hamiltonian_raw"),
        "manybody.propagate.calls": n_prop,
        "manybody.propagate.ms": ms("manybody.propagate"),
        "manybody.propagate.h_applies":
            sum(inside(s, "manybody.propagate") for s in h_applies) / n_prop if n_prop else 0.0,
        "manybody.build_potential.ms": ms("manybody.build_potential"),
        "marginals.marginal.calls": calls("marginals.marginal"),
        "marginals.marginal.ms": ms("marginals.marginal"),
        "marginals.bbgky_rhs.ms": ms("marginals.bbgky_rhs"),
        "marginals.bbgky_rhs.peak_mb": peak_mb("marginals.bbgky_rhs"),
        "marginals.hufl_left_side.ms": ms("marginals.hufl_left_side"),
        "marginals.hufl_left_side.peak_mb": peak_mb("marginals.hufl_left_side"),
        "marginals.rank_one_marginal.ms": ms("marginals.rank_one_marginal"),
        "marginals.trace_distance.ms": ms("marginals.trace_distance"),
        "couplings.min_unclogged.ms": ms("couplings.min_unclogged"),
        "couplings.enumerate_collapse_maps.ms": ms("couplings.enumerate_collapse_maps"),
        "cli.run_experiment.peak_mb": peak_mb("cli.run_experiment"),
        "cli.edge_tracebacks": edge_tracebacks,
        "trace.overhead": overhead,
    })
    return m


UNITS = {"self_s": "s", "calls": "count", "fft_calls": "count", "fft_mpoints": "Mpoints",
         "ms": "ms", "fft_x": "x_fftn", "ffts_per_step": "count", "h_applies": "count",
         "s": "s", "peak_mb": "MiB", "edge_tracebacks": "count", "overhead": "ratio"}


# -- the run --------------------------------------------------------------------------


def main(argv=None) -> int:
    import shutil
    import tempfile

    args = parse_args(argv)
    if not (SRC / "quintlab" / "__init__.py").is_file():
        print(f"error: no quintlab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        configs = setup(args.workload, args.seed, scratch)
        if args.setup_only:
            print(monotonic())
            return 0
        return measure(args, configs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, configs, scratch: Path) -> int:
    import json
    import resource
    import tracemalloc

    import oracles
    from tracing import Tracer

    bare: dict = {}
    for shape in FIXED_FFT_SHAPES + sorted(state_shapes(configs)):
        bare_fftn_seconds(shape, bare)
    for _ in range(3):  # the kernel's first calls plan its FFTs
        reference_seconds()

    batches, setup_times = [], []
    t0 = time.perf_counter()
    if args.trace:
        # Every batch starts from emptied caches, so the traced and untraced
        # batches do the same work.
        with Tracer() as tracer:
            batches.append(run_batch(configs, scratch / "traced", tracer))
        batches.append(run_batch(configs, scratch / "untraced"))
        tracemalloc.start()
        try:
            with Tracer() as mem_tracer:
                batches.append(run_batch(configs, scratch / "traced_mem", mem_tracer))
        finally:
            tracemalloc.stop()
    else:
        count = max(1, round(args.seconds / BATCH_SECONDS[args.workload]))
        gaps = [len(range(g, SETUP_PROBES, count + 1)) for g in range(count + 1)]
        for i in range(count):
            setup_times += time_setup(args, gaps[i])
            batches.append(run_batch(configs, scratch / f"b{i}"))
        setup_times += time_setup(args, gaps[count])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB

    for b in batches:
        check_batch(b)
    run_checks = oracles.RUN_ORACLES.get(args.workload, lambda seed: {})(args.seed)
    edges = edge_tally(scratch)
    attempted = sum(len(b["results"]) for b in batches) + len(run_checks)
    failed = sum(b["failed"] for b in batches) + sum(bool(p) for p in run_checks.values())
    problems = [p for b in batches for p in b["problems"]]
    problems += [p for ps in run_checks.values() for p in ps]
    tracebacks = sum(e["outcome"].startswith("traceback") for e in edges)

    if args.trace:
        for s in tracer.spans:
            if s.shape is not None:
                bare_fftn_seconds(s.shape, bare)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.json", t0)
        overhead = batches[0]["scaled_s"] / batches[1]["scaled_s"]
        values = layer_metrics(tracer.spans, mem_tracer.spans, bare, tracebacks, overhead)
        metrics = {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[1]]} for k, v in values.items()}
    else:
        exp_times = [t for b in batches for t in b["exp_scaled_s"]]
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup_times), "unit": "s"},
            "batch_s": {"value": statistics.median(b["scaled_s"] for b in batches), "unit": "s"},
            "exp_s.p50": {"value": statistics.median(exp_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": fingerprint(),
        "batches": len(batches),
        "batch_wall_s": [b["wall_s"] for b in batches],
        "batch_scaled_s": [b["scaled_s"] for b in batches],
        "reference_s": reference_seconds(),
        "experiments_per_batch": len(configs),
        "exp_samples": sum(len(b["results"]) for b in batches),
        "setup_wall_s": [w for w, _ in setup_times],
        "setup_scaled_s": [s for _, s in setup_times],
        "fail_frac": failed / attempted,
        "problems": problems,
        "run_oracles": sorted(run_checks),
        "edge_tally": edges,
        "bare_fftn_us": {"x".join(map(str, k)): v * 1e6 for k, v in sorted(bare.items())},
    }
    print(json.dumps(details))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    import signal

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # A terminated run still removes its scratch directory and its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
