"""scripts/compare_artifacts.py: exit status and the moves it prints."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from quintlab.io import write_csv

SCRIPT = Path(__file__).parent.parent / "scripts" / "compare_artifacts.py"


def _compare(a, b, *args):
    done = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b), *args],
                          capture_output=True, text=True)
    return done.returncode, done.stdout


@pytest.fixture
def trees(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, e in ((a, "2825.0000000000005"), (b, "2825.0")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "timeseries.csv").write_text(f"t,E_NLS\n0.0,{e}\n")
        (root / "run" / "report.json").write_text('{"passed": true}')
    return a, b


def test_numeric_moves_pass_within_rel_and_are_printed(trees):
    code, out = _compare(*trees)
    assert code == 1 and "E_NLS: rel 1.61e-16" in out
    code, out = _compare(*trees, "--rel", "1e-14")
    assert code == 0 and "E_NLS: rel 1.61e-16" in out
    assert "0 differ by more than numeric moves of rel 1e-14" in out
    assert _compare(*trees, "--rel", "1e-16")[0] == 1


def test_rel_does_not_pass_other_differences(trees):
    a, b = trees
    (b / "run" / "report.json").write_text('{"passed": false}')
    code, out = _compare(a, b, "--rel", "1")
    assert code == 1 and "non-numeric: passed: True -> False" in out
    (b / "run" / "report.json").unlink()
    code, out = _compare(a, b, "--rel", "1")
    assert code == 1 and "only in" in out


def test_probe_csv_ratio_moves_are_numeric(tmp_path):
    # a probe's parameter tuple holds a comma, so the ratio parses only if the tuple is quoted
    for root, ratio in ((tmp_path / "a", 0.25), (tmp_path / "b", math.nextafter(0.25, 1.0))):
        root.mkdir()
        write_csv(root / "probe_strichartz.csv", ["parameters", "max_ratio"], [["(2,)", ratio]])
    code, out = _compare(tmp_path / "a", tmp_path / "b", "--rel", "1e-12")
    assert code == 0 and "max_ratio: rel 2.22e-16" in out


def test_identical_trees_pass_without_rel(trees):
    a, _ = trees
    code, out = _compare(a, a)
    assert code == 0 and out == "0 of 2 common files differ, 0 on one side only\n"
