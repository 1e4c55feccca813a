"""The CLI contract, checked by property rather than by case.

``grover`` and ``bound`` run in process on arguments drawn across their
whole range, with RuntimeWarning as an error.  Each run exits 0 with
canonical indent-2 JSON on stdout and nothing on stderr, or exits 2 with
one ``error:`` line on stderr and nothing on stdout.  A grover summary's
histogram accounts for every uncensored trial, in ascending buckets.

The draws keep each run small: a default horizon ceil(50 / kappa) above
5e4 steps is either refused (above ITERATION_CAP) or given an explicit
--max-iter of at most 2000.
"""

import contextlib
import io
import json
import warnings

from hypothesis import event, example, given, settings, strategies as st

from extrace.cli import main
from extrace.kappa import ITERATION_CAP, TRIALS_CAP

HUGE = 10**400  # past the float range


def mostly(valid, edge):
    """A draw from ``valid`` about 7 times in 8, else from ``edge``."""
    return st.integers(0, 7).flatmap(lambda i: edge if i == 0 else valid)


edges = st.one_of(st.integers(-3, 1), st.sampled_from([HUGE, -HUGE]))
B_values = mostly(st.integers(2, 10**6), st.one_of(edges, st.sampled_from([10**12, 10**308])))
kappas = mostly(
    st.one_of(st.none(), st.floats(1e-3, 1.0),
              st.floats(1e-9, 1e-3)),  # a long default horizon: paired with --max-iter below
    st.sampled_from([0.0, -0.0, -0.5, 1.5, float("nan"), float("inf"), float("-inf"),
                     1e-7, 1e-320, 5e-324]),
)

def cli(argv):
    """(exit code, stdout, stderr) of main(argv) with RuntimeWarning as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    """The report on exit 0, else None; asserts the exit-code contract."""
    code, out, err = cli(argv)
    event(f"exit {code}")
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
        return None
    assert err == "", argv
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n", argv
    return report


@st.composite
def grover_argv(draw):
    B, kappa = draw(B_values), draw(kappas)
    max_iter = draw(mostly(st.one_of(st.none(), st.integers(1, 2000)),
                           st.one_of(edges, st.just(ITERATION_CAP + 1))))
    if max_iter is None and kappa is not None and 5e-6 <= kappa < 1e-3:
        max_iter = draw(st.integers(1, 2000))
    if max_iter is None and kappa is None and 2 <= B <= 10**308:
        B = min(B, 10**6)  # horizon 50 sqrt(B) <= 5e4, or refused
    trials = draw(mostly(st.integers(1, 3000), st.one_of(edges, st.sampled_from([TRIALS_CAP + 1]))))
    seed = draw(mostly(st.integers(0, 2**128), edges))
    argv = ["grover", f"--B={B}", f"--trials={trials}", f"--seed={seed}"]
    argv += [f"--kappa={kappa!r}"] * (kappa is not None)
    argv += [f"--max-iter={max_iter}"] * (max_iter is not None)
    return argv


@given(grover_argv())
@example(["grover", f"--B={HUGE}", "--kappa=0.5", "--max-iter=10", "--trials=3"])
@example(["grover", "--B=1000000", "--kappa=1e-20", "--max-iter=1000", "--trials=100"])
@example(["grover", "--B=2", "--kappa=1.0", "--trials=1"])
# A bucket width past int64:
@example(["grover", f"--B={10**308}", "--kappa=0.5", "--max-iter=10", "--trials=3"])
@settings(deadline=None, max_examples=200)
def test_grover_contract(argv):
    report = check_contract(argv)
    if report is None:
        return
    width, histogram = report["bucket_width"], report["histogram"]
    assert sum(count for _, count in histogram) == report["n_trials"] - report["censored"]
    starts = [lo for lo, _ in histogram]
    assert starts == sorted(set(starts))
    assert all(lo % width == 1 % width for lo in starts)
    assert all(count > 0 for _, count in histogram)


@given(B=mostly(st.integers(2, 10**9), st.one_of(edges, st.sampled_from([10**308]))),
       kappa=kappas, c=mostly(st.integers(1, 10**6), edges))
@example(B=HUGE, kappa=None, c=1)
@example(B=HUGE, kappa=0.5, c=1)
@settings(deadline=None, max_examples=200)
def test_bound_contract(B, kappa, c):
    argv = ["bound", f"--B={B}", f"--c={c}"] + [f"--kappa={kappa!r}"] * (kappa is not None)
    report = check_contract(argv)
    if report is not None:
        assert isinstance(report["T"], int) and report["T"] >= 1
