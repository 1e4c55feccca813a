"""The CLI contract, checked by property rather than by case.

``grover`` and ``bound`` run in process on arguments drawn across their
whole range, with RuntimeWarning as an error.  Each run exits 0 with
canonical indent-2 JSON on stdout and nothing on stderr, or exits 2 with
one ``error:`` line on stderr and nothing on stdout.  A grover summary's
histogram accounts for every uncensored trial, in ascending buckets.

The draws keep each run small: a default horizon ceil(50 / kappa) above
5e4 steps is either refused (above ITERATION_CAP) or given an explicit
--max-iter of at most 2000.

``trace``, ``lsi`` and ``qwhile`` run on input files drawn from arbitrary
bytes, valid files truncated or garbled, and nesting and numbers past what
Python decodes.  Each run exits 0 or 1 with JSON on stdout and nothing on
stderr, or 2 with one ``error:`` line; no exception escapes ``main``, and
``qwhile check`` refuses exactly the programs ``qwhile run`` refuses.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from extrace.cli import main
from extrace.kappa import ITERATION_CAP, TRIALS_CAP
from extrace.qwhile import NESTING_CAP

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


# ---------------------------------------------------------------------------
# Input files

UNITARY = [[[0.6, 0], [0.8, 0]], [[0.8, 0], [-0.6, 0]]]
VALID = {
    "trace": json.dumps({"matrix": UNITARY, "row_partition": {"names": ["B", "U"], "sizes": [1, 1]},
                         "col_partition": {"names": ["A", "U"], "sizes": [1, 1]}, "loop": "U"}),
    "lsi": json.dumps({"in_ports": ["i", "x"], "out_ports": ["o", "x"],
                       "taps": {"0": UNITARY, "1": UNITARY}}),
    "qwhile": (Path(__file__).resolve().parent.parent / "corpus" / "nested_loop.qw").read_text(),
}
# Spliced into a valid file: JSON and qWhile punctuation, numbers past the
# float range, int64 and Python's 4,300 digits, and bytes that are not UTF-8.
PIECES = [b"", b"[", b"]", b"{", b"}", b"(", b")", b",", b":", b'"', b" ", b"\n", b"-", b"0",
          b"1e999", b"NaN", b"null", b"9" * 400, b"1" * 5000, b"\xff", b"\xc3",
          b"gate H = [[[1,0]]]\n", b"(seq ", b"(loop ", b"(delay 1)"]


def nested_seqs(n):
    return b"(seq " * n + b"(delay 1)" + b" (delay 0))" * n


@st.composite
def garbled(draw, data):
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        data[i : draw(st.integers(i, min(len(data), i + 8)))] = draw(st.sampled_from(PIECES))
    return bytes(data)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def replaced(draw, obj):
    """obj with one value, at any depth, replaced by an arbitrary JSON value."""
    keys = list(obj) if isinstance(obj, dict) else range(len(obj)) if isinstance(obj, list) else []
    if not keys or draw(st.integers(0, 3)) == 0:
        return draw(JSON_VALUES)
    key = draw(st.sampled_from(list(keys)))
    obj = obj.copy()
    obj[key] = draw(replaced(obj[key]))
    return obj


def contents(command):
    """Bytes for an input file of ``command``, from a valid file or none."""
    valid = VALID[command].encode()
    reshaped = [] if command == "qwhile" else [
        replaced(json.loads(valid)).map(lambda obj: json.dumps(obj).encode())]
    return st.one_of(
        st.binary(max_size=64),
        *reshaped,
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
        garbled(valid),
        st.sampled_from([b"[" * 100000, b"1" * 5000, b"gate G = " + b"[" * 100000 + b"\n(gate G)",
                         nested_seqs(5000)]),
        st.integers(NESTING_CAP - 3, NESTING_CAP + 2).map(nested_seqs),
    )


@st.composite
def input_runs(draw):
    """(command, its argv before the path, the file's bytes or where it is)."""
    command = draw(st.sampled_from(sorted(VALID)))
    argv = {"trace": ["trace", "--method", draw(st.sampled_from(["series", "ki", "both"]))],
            "lsi": ["lsi", "--grid", "8", "--loop", draw(st.sampled_from(["0", "1"]))],
            "qwhile": []}[command]
    return command, argv, draw(mostly(contents(command),
                                      st.sampled_from(["directory", "nul_in_path"])))


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


def check_file_contract(argv):
    """(exit code, stderr) of one run; asserts the exit-code contract."""
    code, out, err = cli(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    else:
        assert err == "", argv
        json.loads(out)
    return code, err


@given(input_runs())
@example(("trace", ["trace", "--method", "both"], b"\xff\xfe{"))
@example(("lsi", ["lsi", "--grid", "8", "--loop", "0"], b"[" * 100000))
@example(("lsi", ["lsi", "--grid", "8", "--loop", "0"], b"1" * 5000))
@example(("qwhile", [], b"gate G = [[[" + b"1" * 5000 + b", 0]]]\n(gate G)"))
@example(("qwhile", [], nested_seqs(NESTING_CAP)))
@example(("qwhile", [], nested_seqs(NESTING_CAP - 1)))
@settings(deadline=None, max_examples=300)
def test_input_file_contract(input_dir, run):
    command, argv, content = run
    path = Path(tempfile.mkdtemp(dir=input_dir), "in\0put" if content == "nul_in_path" else "input")
    if content == "directory":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    if command != "qwhile":
        check_file_contract([*argv, str(path)])
        return
    checked = check_file_contract(["qwhile", "check", str(path)])
    ran = check_file_contract(["qwhile", "run", str(path), "--grid", "8"])
    assert (checked[0] == 2) == (ran[0] == 2), (content, checked, ran)
    if checked[0] == 2:
        assert checked == ran
