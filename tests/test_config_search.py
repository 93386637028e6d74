"""A seeded search over configs: one to three leaf mutations of each
configs/*.json, drawn from boundary values, must each end cleanly.

A draw that validates is run when it is small, that is when its run ends
within _RUN_SECONDS; validation itself must end within _VALIDATE_SECONDS.
Clean means: exit 0, 1 or 2 with no traceback; exit 1 only as a
[TOLERANCE-FAIL] line or a failed check; and every JSON artifact strict JSON,
with no NaN or Infinity.  The classes F1-F9 that earlier searches found are
explicit examples."""

import contextlib
import copy
import functools
import io
import json
import operator
import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from quintlab.cli import ExperimentConfig, ValidationError, main

CONFIGS = {p.stem: json.loads(p.read_text())
           for p in sorted(Path(__file__).parent.parent.glob("configs/*.json"))}
# boundary values: zero, -1, subnormals, past-float-range products, int32 and
# int64 edges, an integer past the largest float, NaN and the infinities (Python's
# json reads and writes them all), an empty list and wrong types
POOL = [0, -1, 5e-324, 1e-310, 1e300, 2**31, 2**63, 10**400, float("nan"), float("inf"),
        -float("inf"), [], "x", True, None, {}]
_VALIDATE_SECONDS = 2.0
_RUN_SECONDS = 0.5


def _leaves(value, path=()):
    """The path of every value under `value` that is no object: lists and their elements."""
    if isinstance(value, dict):
        return [leaf for key, v in value.items() for leaf in _leaves(v, path + (key,))]
    if isinstance(value, list):
        return [path] + [leaf for i, v in enumerate(value) for leaf in _leaves(v, path + (i,))]
    return [path]


@st.composite
def _draws(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    leaves = _leaves(CONFIGS[name])
    mutations = draw(st.lists(st.tuples(st.sampled_from(leaves), st.sampled_from(POOL)),
                              min_size=1, max_size=3))
    return name, mutations


def _mutated(name, mutations) -> dict:
    """The config with each mutation applied in turn; one whose leaf an earlier
    mutation replaced, with a parent, is left out."""
    raw = copy.deepcopy(CONFIGS[name])
    for path, value in mutations:
        with contextlib.suppress(KeyError, IndexError, TypeError):
            node = functools.reduce(operator.getitem, path[:-1], raw)
            node[path[-1]]  # still there: no key is added
            node[path[-1]] = copy.deepcopy(value)
    return raw


class _TimeUp(BaseException):
    """Raised by the interval timer; no handler of the package catches it."""


@contextlib.contextmanager
def _limit(seconds):
    def ring(signum, frame):
        raise _TimeUp

    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check_clean(name, mutations):
    raw = _mutated(name, mutations)
    kind = CONFIGS[name]["kind"]
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp, "config.json"), Path(tmp, "out")
        path.write_text(json.dumps(raw))
        try:
            with _limit(_VALIDATE_SECONDS):
                ExperimentConfig.from_file(path)
            valid = True
        except ValidationError:
            valid = False
        except _TimeUp:
            raise AssertionError(f"validation of {raw} took over {_VALIDATE_SECONDS} s") from None
        out, err = io.StringIO(), io.StringIO()
        try:
            with _limit(_RUN_SECONDS if valid else _VALIDATE_SECONDS), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([kind, "--config", str(path), "--out", str(out_dir)])
        except _TimeUp:
            assert valid, f"validation of {raw} took over {_VALIDATE_SECONDS} s"
            return  # not small
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        if not valid:
            assert rc == 2 and err and all(
                line.startswith("validation error: ") for line in err.splitlines()), (raw, err)
            return
        assert rc in (0, 1), (raw, rc, out, err)
        if rc == 1:  # a tolerance failure raised, or a failed check
            assert out.startswith("[TOLERANCE-FAIL]"), (raw, out)
            assert out.count("\n") == 1 or ": FAILED" in out, (raw, out)
        for artifact in out_dir.rglob("*.json"):
            json.loads(artifact.read_text(), parse_constant=_no_constant)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(draw=_draws())
# F1: a k-marginal order whose power m^(2k) was formed before its comparison
@example(draw=("residuals_demo", [(("params", "k"), 2**62)]))
# F2: a datum whose mass overflows
@example(draw=("chaos_demo", [(("params", "initial", "scale"), 1e300)]))
# F3: a probe time grid of 2^31 times
@example(draw=("probe_strichartz", [(("params", "options", "nt"), 2**31)]))
# F4: a hufl bound eps^(2k) past the largest float
@example(draw=("hufl_demo", [(("params", "eps"), 1e300)]))
# F5: a moment order whose bound (2r/N + 1)^k is past the largest float
@example(draw=("manybody_demo", [(("params", "moments", 0), 300)]))
# F6: probes past the work rule, by their sample count or their time grid
@example(draw=("probe_strichartz", [(("params", "samples"), 2**62)]))
@example(draw=("probe_strichartz", [(("params", "options", "nt"), 1000000)]))
# F7: a many-body flow past the work rule, about 90 s
@example(draw=("residuals_reach", [(("params", "spacings", 1), 12)]))
# F8: a spacing whose 1/(2h) is past the largest float: NaN residual ratios
@example(draw=("residuals_demo", [(("params", "spacings", 1), 1e-310)]))
# F9: an integer past the largest float, which json reads as an int: OverflowError
@example(draw=("nls_demo", [(("params", "b0"), 10**400)]))
@example(draw=("manybody_demo", [(("params", "N"), 10**400)]))
@example(draw=("probe_strichartz", [(("params", "options", "T"), 10**400)]))
def test_mutated_configs_end_cleanly(draw):
    _check_clean(*draw)
