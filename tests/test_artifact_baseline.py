"""The artifacts of every configs/*.json and of `lab couplings --k K`, as
scripts/dump_artifacts.py writes them, against the committed copy in
tests/baseline, compared by scripts/compare_artifacts.py.

A change meant to move an artifact regenerates tests/baseline from the
configs and couplings parts of a fresh dump, and lists every move."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
BASELINE = ROOT / "tests" / "baseline"


def test_configs_and_couplings_match_the_baseline(tmp_path, monkeypatch):
    # the script sets sys.dont_write_bytecode and prepends to sys.path; undo both after
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("dump_artifacts",
                                                  ROOT / "scripts" / "dump_artifacts.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for rel, cfg in script.baseline_runs():
        script.dump(cfg, tmp_path / rel)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_artifacts.py"),
                           str(BASELINE), str(tmp_path), "--rel", "1e-12"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout
