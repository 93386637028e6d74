#!/usr/bin/env python3
"""Time `lab couplings --k K` for each K, each in a fresh process.

For every K, print the exit code and the wall time of `quintlab.cli.main`
and the process's peak resident set size (`ru_maxrss`), which includes the
interpreter and the imports.  Exit code 1 is a failed check, such as
`count_within_bound` from k = 10 on; the run is timed all the same.  The
run's artifacts go to a temporary directory.

Usage:  python scripts/time_couplings.py [K ...]   (default: 6 to 12)
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import resource, sys, tempfile, time
sys.path.insert(0, {src!r})
from quintlab.cli import main
with tempfile.TemporaryDirectory() as out:
    t0 = time.perf_counter()
    rc = main(["couplings", "--k", {k!r}, "--out", out])
    wall = time.perf_counter() - t0
print(rc, wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ks", nargs="*", type=int, default=list(range(6, 13)))
    print(f"{'k':>3} {'rc':>3} {'main_s':>9} {'maxrss_MiB':>11}")
    for k in ap.parse_args().ks:
        code = RUN.format(src=str(ROOT / "src"), k=str(k))
        lines = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True).stdout.splitlines()
        rc, wall, rss_kib = lines[-1].split()  # main prints the run's own line first
        print(f"{k:>3} {rc:>3} {float(wall):>9.4f} {int(rss_kib) / 1024:>11.1f}")


if __name__ == "__main__":
    main()
