"""Self-test of the benchmark: seeded generation, transparent tracing, tiny batches.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def tiny_mix(seed=5):
    """One tiny experiment of every case kind across the workloads."""
    out, seen = [], set()
    for name in sorted(workloads.WORKLOADS):
        for raw in workloads.batch(name, seed, tiny=True):
            key = (raw["kind"], raw["params"].get("lemma"))
            if key not in seen:
                seen.add(key)
                out.append(raw)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_configs(name):
    assert workloads.batch(name, 3) == workloads.batch(name, 3)
    a = sorted(c["seed"] for c in workloads.batch(name, 3))
    b = sorted(c["seed"] for c in workloads.batch(name, 4))
    assert a != b
    sizes = sorted(json.dumps(c["params"], sort_keys=True) for c in workloads.batch(name, 3))
    assert sizes == sorted(json.dumps(c["params"], sort_keys=True)
                           for c in workloads.batch(name, 4))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_batch_runs(name, tmp_path):
    # Only that every config is accepted and runs: at these sizes a program
    # check may fail (dealiased n=16 NLS runs drift in mass past 1e-11),
    # which the full-size cases do not reach.
    batch = run.run_batch(workloads.batch(name, 2, tiny=True), tmp_path)
    assert [error for _, _, error, _ in batch["results"]] == [None] * len(batch["results"])
    run.check_batch(batch)
    assert all(p.split(": ", 1)[1].startswith("check ") for p in batch["problems"])


def test_batches_start_from_empty_caches(tmp_path):
    from quintlab import grids, manybody

    run.run_batch(workloads.batch("fewbody", 2, tiny=True)[:1], tmp_path)
    assert manybody._cached_potential_table.cache_info().currsize > 0
    run.clear_caches()
    assert manybody._cached_potential_table.cache_info().currsize == 0
    assert grids._xi_squared.cache_info().currsize == 0


def _artifacts(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            rel = path.relative_to(root)
            if path.name == "report.json":
                report = json.loads(path.read_text())
                del report["wall_time_s"]
                report["artifacts"] = [str(Path(a).relative_to(root)) for a in report["artifacts"]]
                out[rel] = report
            else:
                out[rel] = path.read_bytes()
    return out


def test_tracing_leaves_artifacts_unchanged(tmp_path):
    import numpy as np
    from quintlab import cli, manybody, marginals, nls, probes

    bindings = (manybody.propagate, nls.free_propagate, probes.PROBE_RUNNERS["strichartz"],
                np.fft.fftn, np.fft.ifftn)
    configs = tiny_mix()
    run.run_batch(configs, tmp_path / "plain")
    tracemalloc.start()
    try:
        with Tracer() as tracer:
            run.run_batch(configs, tmp_path / "traced", tracer)
    finally:
        tracemalloc.stop()
    assert _artifacts(tmp_path / "plain") == _artifacts(tmp_path / "traced")
    assert {s.layer for s in tracer.spans} == set(LAYERS)
    assert all(s.self_s >= 0 for s in tracer.spans)
    assert any(s.peak_bytes for s in tracer.spans if s.name == "cli.run_experiment")
    assert bindings == (manybody.propagate, nls.free_propagate,
                        probes.PROBE_RUNNERS["strichartz"], np.fft.fftn, np.fft.ifftn)
    assert marginals.propagate is manybody.propagate is cli.propagate
    assert probes.free_propagate is nls.free_propagate


def test_tracer_counts_ffts_and_nests_spans():
    from quintlab import nls
    from quintlab.grids import GridSpec, TorusField

    grid = GridSpec(1, 16)
    f = TorusField.plane_wave(grid, 2, 0.5)
    with Tracer() as tracer:
        nls.evolve(f, 0.02, nls.NlsConfig(grid, 1.0, 0.01, dealias=False))
    steps = [s for s in tracer.spans if s.name == "nls.strang_step"]
    assert len(steps) == 2
    root = tracer.spans[0]
    assert root.name == "nls.evolve" and root.parent is None
    assert all(tracer.spans[s.parent].name == "nls.evolve" for s in steps)
    # without dealiasing each half rotation transforms forward once, and back
    # once unless the field's samples are already cached
    assert [s.incl_fft_calls for s in steps] == [4, 3]
    assert root.incl_fft_calls == 7 and root.fft_calls == 0
    assert all(s.fft_points == 16 * s.fft_calls for s in tracer.spans)


def test_benchmark_json_names_the_reported_metrics():
    """BENCHMARK.json declares exactly the metrics and units run.py reports."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values = run.layer_metrics([], [], {}, edge_tracebacks=4, overhead=1.0)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {k: run.UNITS[k.rsplit(".", 1)[1]] for k in values}
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "batch_s", "exp_s.p50", "peak_rss_mb", "pass_frac"]
    assert bench["paths"] == [HERE.name]
