import csv
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from extrace import cli, linalg, lsi, trace
from extrace.cli import main
from extrace.kappa import TRIALS_CAP, GroverParams, grover_montecarlo, grover_statevector
from extrace.linalg import matrix_to_literal, random_contraction, swap_matrix, two_block
from extrace.qwhile import NESTING_CAP
from extrace.trace import KiTraceError, ex, ex_kernel_image, ex_series

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def write_trace_file(tmp_path, matrix, loop_dim, name="input.json"):
    pm = two_block(np.asarray(matrix, dtype=complex), loop_dim)
    payload = pm.to_json()
    payload["loop"] = "U"
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_trace_hadamard(tmp_path, capsys):
    path = write_trace_file(tmp_path, HADAMARD, 1)
    code, out = run(capsys, "trace", "--method", "both", path)
    assert code == 0
    assert out["method"] == "both_agree"
    assert out["value"][0][0][0] == pytest.approx(1.0, abs=1e-9)


def test_trace_divergence_exit_code(tmp_path, capsys):
    bad = [[0.0, 1.0, 1.0], [1.0, -2 / 3, 1.0], [1.0, 1.0, 1 / 3]]
    path = write_trace_file(tmp_path, bad, 2)
    code, out = run(capsys, "trace", "--method", "series", path)
    assert code == 1
    assert out["error"] == "series_divergence"


def test_trace_overflowing_tail_probe_is_a_report(tmp_path, capsys):
    # f_UU = diag(1e200, 1): squaring its probe overflows, so the entry gets
    # no geometric certificate and runs to max_terms instead of crashing.
    path = write_trace_file(tmp_path, [[0, 0, 1], [0, 1e200, 0], [1, 0, 1]], 2)
    code = main(["trace", "--method", "series", "--max-terms", "1000", path])
    captured = capsys.readouterr()
    assert code == 1
    out = json.loads(captured.out)
    assert out["converged"] is False
    assert out["terms_used"] == 1000
    assert captured.err == ""


@pytest.mark.parametrize("matrix, loop_dim", [
    ([[0, 1], [1, 1 + 1e-320j]], 1),
    ([[0, 1, 0], [1, 1 + 1e-320j, 0], [0, 0, 1 + 1e-320j]], 2),
], ids=["one-port", "two-port"])
def test_trace_subnormal_loop_block_is_a_quiet_report(tmp_path, capsys, matrix, loop_dim):
    # id - f_UU = -1e-320j I: at or below the pinv cutoff it counts as 0, so no
    # witness exists, and the series runs out of terms; neither prints a warning.
    path = write_trace_file(tmp_path, matrix, loop_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["trace", "--max-terms", "100", path])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["converged"] is False
    assert captured.err == ""


def test_trace_bad_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code = main(["trace", str(path)])
    assert code == 2


TRACE_KEYS = {"method": "both_agree", "terms_used": 3, "residual": 1e-17, "converged": True}


def stdlib_trace_report(value, keys):
    return json.dumps({"value": matrix_to_literal(value), **keys}, indent=2) + "\n"


def emitted(capsys, value, keys):
    cli._emit({"value": value, **keys})
    return capsys.readouterr().out


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (5, 2), (64, 64)])
def test_emitted_value_bytes_equal_stdlib(capsys, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    scale = 10.0 ** rng.integers(-20, 20, size=shape)
    value = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert emitted(capsys, value, TRACE_KEYS) == stdlib_trace_report(value, TRACE_KEYS)


@pytest.mark.parametrize("special", [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
def test_emitted_special_floats_equal_stdlib(capsys, special):
    value = np.array([[1.0, 2.5], [-3.0, 0.1]], dtype=complex)
    value.real[0, 1] = value.imag[1, 0] = special
    assert emitted(capsys, value, TRACE_KEYS) == stdlib_trace_report(value, TRACE_KEYS)


def test_emitted_arrays_at_any_key_equal_stdlib(capsys):
    # Arrays after the first key, an empty one, and a string that spells an
    # array key's line: only the top-level keys take the template.
    rng = np.random.default_rng(7)
    obj = {
        "n": 3,
        "counts": rng.integers(-10**12, 10**12, size=(5, 2)),
        "note": '\n  "counts": null',
        "nested": {"counts": None, "list": [1, 2.5]},
        "empty": np.zeros((0, 2), dtype=np.int64),
        "value": rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
        "floats": np.array([[0.1, -0.0, math.nan], [math.inf, -math.inf, 5e-324]]),
    }
    cli._emit(obj)
    want = {k: (matrix_to_literal(v) if k == "value" else v.tolist())
            if isinstance(v, np.ndarray) else v for k, v in obj.items()}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("n", [2, 17, 64])
@pytest.mark.parametrize("method", ["series", "ki", "both"])
def test_trace_stdout_bytes_equal_stdlib(tmp_path, capsys, method, n):
    rng = np.random.default_rng(n)
    m = 0.8 * random_contraction(n, n, rng)
    path = write_trace_file(tmp_path, m, n // 2)
    route = {"series": ex_series, "ki": ex_kernel_image, "both": ex}[method]
    r = route(two_block(m, n // 2), "U")
    keys = {"method": r.method, "terms_used": r.terms_used, "residual": r.residual,
            "converged": r.converged}
    assert main(["trace", "--method", method, path]) == 0
    assert capsys.readouterr().out == stdlib_trace_report(r.value, keys)


def test_not_ki_traceable_report_bytes_equal_stdlib(tmp_path, capsys):
    bad = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
    path = write_trace_file(tmp_path, bad, 2)
    with pytest.raises(KiTraceError) as e:
        ex_kernel_image(two_block(bad, 2), "U")
    want = {"error": "not_ki_traceable", "message": str(e.value),
            "residual_in": e.value.residual_in, "residual_out": e.value.residual_out}
    assert main(["trace", "--method", "ki", path]) == 1
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def write_rows_with_csv_module(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_axioms_trace_failure_is_a_report(capsys):
    # A compare tolerance below roundoff fails the witness agreement check,
    # a KiTraceError: the report carries its kind and residuals.
    code, out = run(capsys, "axioms", "--cases", "2", "--tol", "1e-30")
    assert code == 1
    assert out["error"] == "not_ki_traceable"
    assert out["message"].startswith("case 0 (a=")
    assert "), vanishing_ii (inner): witness forms disagree by " in out["message"]
    assert list(out) == ["error", "message", "residual_in", "residual_out"]
    assert all(isinstance(out[k], float) for k in ("residual_in", "residual_out"))


def test_routes_that_disagree_are_a_trace_failed_report(tmp_path, capsys):
    # A loose series tolerance stops the series about 1e-3 short of the
    # closed form on a contraction: a TraceDisagreement, reported without residuals.
    path = write_trace_file(tmp_path, [[0.2, 0.3], [0.3, 0.8]], 1)
    code, out = run(capsys, "trace", "--method", "both", "--tol", "1e-3", path)
    assert code == 1
    assert out["error"] == "trace_failed"
    assert out["message"].startswith("internal consistency failure: series and kernel-image")
    assert list(out) == ["error", "message"]


@pytest.mark.parametrize(
    "target,argv,error",
    [
        ("extrace.trace.ex", ["trace", "--method", "both"], OverflowError),
        ("extrace.lsi.lsi_ex", ["lsi", "--grid", "8", "--loop", "1"], OverflowError),
        ("extrace.trace.ex", ["trace", "--method", "both"], ArithmeticError),
    ],
    ids=["trace", "lsi_loop", "trace-bare"],
)
def test_other_arithmetic_errors_propagate_out_of_main(tmp_path, capsys, monkeypatch,
                                                       target, argv, error):
    # Only the trace layer's three failure classes are reports; any other
    # ArithmeticError, a bare one too, is a fault and leaves main as it was raised.
    def stray(*_):
        raise error("stray error")

    monkeypatch.setattr(target, stray)
    path = write_trace_file(tmp_path, HADAMARD, 1) if argv[0] == "trace" else write_kernel(tmp_path)
    with pytest.raises(error, match="stray error") as raised:
        main([*argv, path])
    assert type(raised.value) is error
    assert capsys.readouterr().out == ""


def test_axioms_law_failure_is_a_failed_report(capsys, monkeypatch):
    # Halving the swap leaves every trace defined but breaks yanking:
    # ex^U(swap / 2) = id / 4, a deviation of 3/4 in each case.
    monkeypatch.setattr(trace, "swap_matrix", lambda a, b: 0.5 * swap_matrix(a, b))
    report = trace.check_trace_axioms(3, 4)
    yanking = report.checks["yanking"]
    assert (yanking.failures, yanking.cases) == (4, 4)
    assert yanking.worst_deviation == pytest.approx(0.75)
    assert yanking.notes[0].startswith("case 0 (a=")
    assert yanking.notes[0].endswith("): deviation 7.500e-01")
    assert not report.passed
    assert all(c.passed for name, c in report.checks.items() if name != "yanking")
    code, out = run(capsys, "axioms", "--cases", "4", "--seed", "3")
    assert code == 1
    assert out["passed"] is False
    assert out["checks"]["yanking"]["notes"] == yanking.notes


def test_axioms_subcommand(capsys):
    code, out = run(capsys, "axioms", "--cases", "25", "--seed", "7")
    assert code == 0
    assert out["passed"] is True
    assert out["checks"]["yanking"]["cases"] == 25


def test_lsi_subcommand(tmp_path, capsys):
    kernel = {
        "in_ports": ["i", "x"],
        "out_ports": ["o", "x"],
        "taps": {"0": matrix_to_literal(HADAMARD)},
    }
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel))
    out_csv = tmp_path / "resp.csv"
    code, out = run(
        capsys, "lsi", str(kpath), "--grid", "16", "--loop", "1", "--out", str(out_csv)
    )
    assert code == 0
    assert out["classification"] == "lsi_contraction"
    assert out["out_ports"] == ["o"]
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1 + 16
    assert all(float(l.split(",")[3]) == pytest.approx(1.0) for l in lines[1:])


def test_lsi_every_port_looped(tmp_path, capsys):
    kernel = {
        "in_ports": ["a", "b"],
        "out_ports": ["a", "b"],
        "taps": {"0": matrix_to_literal(HADAMARD / 2), "1": matrix_to_literal(HADAMARD / 3)},
    }
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel))
    out_csv = tmp_path / "resp.csv"
    code, out = run(
        capsys, "lsi", str(kpath), "--grid", "16", "--loop", "2", "--out", str(out_csv)
    )
    assert code == 0
    assert out["in_ports"] == out["out_ports"] == []
    assert out_csv.read_text().splitlines() == ["omega,row,col,re,im"]


def test_qwhile_run_corpus(tmp_path, capsys):
    out_csv = tmp_path / "resp.csv"
    code, out = run(
        capsys,
        "qwhile",
        "run",
        str(CORPUS / "hadamard_delay_loop.qw"),
        "--grid",
        "32",
        "--out",
        str(out_csv),
    )
    assert code == 0
    assert out["classification"] == "lsi_contraction"
    assert out_csv.exists()


def test_qwhile_check_only(capsys):
    code, out = run(capsys, "qwhile", "check", str(CORPUS / "swap_loop.qw"))
    assert code == 0
    assert out["well_formed"] is True



@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.qw")), ids=lambda p: p.stem)
def test_qwhile_check_corpus(capsys, path):
    code, out = run(capsys, "qwhile", "check", str(path))
    assert code == 0
    assert out["well_formed"] is True


def test_qwhile_non_unitary_gate_exits_2(tmp_path, capsys):
    src = tmp_path / "half.qw"
    src.write_text("gate C = [[[0.5,0],[0,0]],[[0,0],[0.5,0]]]\n(loop (gate C) 1)\n")
    usage_error(capsys, ["qwhile", "check", str(src)], "2:13: gate 'C' matrix is not unitary")


def test_qwhile_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.qw"
    bad.write_text("(gate MISSING)\n")
    assert main(["qwhile", "run", str(bad)]) == 2


def test_grover_recurrence_mode(tmp_path, capsys):
    out_csv = tmp_path / "trials.csv"
    code, out = run(
        capsys,
        "grover",
        "--B", "10000",
        "--trials", "200",
        "--seed", "3",
        "--out", str(out_csv),
    )
    assert code == 0
    assert out["n_trials"] == 200
    assert out["median"] > 0
    header, *rows = out_csv.read_text().strip().splitlines()
    assert header == "trial,iterations,censored,angle_at_halt"
    assert len(rows) == 200


def test_grover_csv_format(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linalg, "CSV_CHUNK_ROWS", 7)  # rows cross chunk boundaries
    out_csv = tmp_path / "trials.csv"
    argv = ["grover", "--B", "10000", "--kappa", "0.01", "--max-iter", "60"]
    code, out = run(capsys, *argv, "--trials", "300", "--seed", "4", "--out", str(out_csv))
    assert code == 0
    samples, _ = grover_montecarlo(GroverParams(10**4, 0.01, 4, 60), 300)
    data = out_csv.read_bytes()
    assert data.startswith(b"trial,iterations,censored,angle_at_halt\r\n")
    assert data.endswith(b"\r\n") and b"\n" not in data.replace(b"\r\n", b"")
    header, *rows = data.decode().split("\r\n")[:-1]
    assert len(rows) == 300
    table = [row.split(",") for row in rows]
    assert [int(r[0]) for r in table] == list(range(300))
    assert [int(r[1]) for r in table] == samples.iterations.tolist()
    assert [int(r[2]) for r in table] == samples.censored.astype(int).tolist()
    assert 0 < out["censored"] < 300
    assert [float(r[3]) for r in table] == samples.angle.tolist()
    want = tmp_path / "want.csv"
    rows = zip(range(300), samples.iterations.tolist(), samples.censored.astype(int).tolist(),
               [format(a, ".17g") for a in samples.angle.tolist()])
    write_rows_with_csv_module(want, ["trial", "iterations", "censored", "angle_at_halt"], rows)
    assert data == want.read_bytes()


def test_grover_csv_bytes_at_scale(tmp_path, capsys, monkeypatch):
    # Thousands of distinct (iterations, censored) keys, some trials censored.
    monkeypatch.setattr(linalg, "CSV_CHUNK_ROWS", 97)
    out_csv = tmp_path / "trials.csv"
    argv = ["grover", "--B", "1000000", "--max-iter", "3000", "--trials", "20000", "--seed", "5"]
    code, out = run(capsys, *argv, "--out", str(out_csv))
    assert code == 0
    assert 0 < out["censored"] < 20000
    samples, _ = grover_montecarlo(GroverParams(10**6, None, 5, 3000), 20000)
    key = samples.iterations * 2 + samples.censored
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    assert first.size > 2000
    firsts = [c[first].tolist() for c in (samples.iterations, samples.censored, samples.angle)]
    tails = np.array(["%d,%d,%.17g" % row for row in zip(*firsts)], dtype=object)
    unique_csv = tmp_path / "unique.csv"
    linalg.write_csv(str(unique_csv), "trial,iterations,censored,angle_at_halt", "%d,%s",
                     [np.arange(inverse.size), tails[inverse]])
    want = tmp_path / "want.csv"
    rows = zip(range(20000), samples.iterations.tolist(), samples.censored.astype(int).tolist(),
               [format(a, ".17g") for a in samples.angle.tolist()])
    write_rows_with_csv_module(want, ["trial", "iterations", "censored", "angle_at_halt"], rows)
    data = out_csv.read_bytes()
    assert data == want.read_bytes() == unique_csv.read_bytes()


def test_grover_exact_law_keys(capsys):
    code, out = run(capsys, "grover", "--B", "10000", "--trials", "100", "--seed", "1")
    assert code == 0
    assert isinstance(out["exact_median"], int)
    assert out["exact_mean"] > 0
    assert 0.0 <= out["censored_mass"] < 1e-6


@pytest.mark.parametrize(
    "B,strength,max_iter,trials,seed,buckets",
    [
        (10**6, 1e-20, 1000, 100, 0, 0),  # no halts: NaN median, mean and exact_mean
        (4, None, None, 1, 0, 1),
        (10**4, 1e-3, None, 5000, 1, 841),
        (4, 4e-4, None, 28000, 0, 10350),
    ],
    ids=["0-buckets", "1-bucket", "841-buckets", "10350-buckets"],
)
def test_grover_stdout_bytes_equal_stdlib(capsys, B, strength, max_iter, trials, seed, buckets):
    _, summary = grover_montecarlo(GroverParams(B, strength, seed, max_iter), trials)
    assert len(summary.histogram) == buckets
    argv = ["grover", "--B", str(B), "--trials", str(trials), "--seed", str(seed)]
    argv += ["--kappa", repr(strength)] * (strength is not None)
    argv += ["--max-iter", str(max_iter)] * (max_iter is not None)
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(summary.to_json(), indent=2) + "\n"


def test_grover_histogram_bypasses_the_stdlib_encoder(capsys, monkeypatch):
    # Budget: no list longer than 16 items reaches json.dumps on a
    # 10,350-bucket run; the histogram goes through the template.
    longest = []
    dumps = json.dumps

    def spy(obj, *args, **kwargs):
        def walk(o):
            if isinstance(o, (list, tuple)):
                longest.append(len(o))
                for x in o:
                    walk(x)
            elif isinstance(o, dict):
                for x in o.values():
                    walk(x)
        walk(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    code = main(["grover", "--B", "4", "--kappa", "4e-4", "--trials", "28000"])
    monkeypatch.undo()
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["histogram"]) == 10350
    assert max(longest, default=0) <= 16


def test_grover_trials_beyond_the_cap_is_usage_error(tmp_path, capsys, monkeypatch):
    # Refused before the trajectory or any draw is allocated.
    def allocated(*args, **kwargs):
        raise AssertionError("the trial count was checked after the first allocation")

    monkeypatch.setattr("extrace.kappa.premeasurement_angles", allocated)
    out = str(tmp_path / "trials.csv")
    for trials in (TRIALS_CAP + 1, 10**9):
        usage_error(capsys, ["grover", "--B", "16", "--trials", str(trials), "--out", out],
                    "n_trials must be <= 10000000")
    assert not (tmp_path / "trials.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["grover", "--B", "16", "--trials", "10"],
        ["grover", "--B", "16", "--max-iter", "5", "--mode", "statevector"],
        ["lsi", "KERNEL", "--grid", "8"],
        ["qwhile", "run", str(CORPUS / "swap_loop.qw"), "--grid", "8"],
    ],
    ids=["grover", "grover-statevector", "lsi", "qwhile"],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    argv = [write_kernel(tmp_path) if a == "KERNEL" else a for a in argv]
    out = tmp_path / "missing" / "x.csv"
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["grover", "--B", "64", "--seed", "-1"],
        ["grover", "--B", "64", "--seed", "-1", "--mode", "statevector"],
        ["axioms", "--cases", "2", "--seed", "-1"],
    ],
    ids=["grover_recurrence", "grover_statevector", "axioms"],
)
def test_negative_seed_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "seed" in captured.err


HORIZON_CAP = "max_iterations must be <= 10000000"
WORK_CAP = "statevector work max_iterations * max(B, 1024) exceeds the cap 1073741824"


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["grover", "--B", "16", "--kappa", "1e-7"], HORIZON_CAP),
        (["grover", "--B", "16", "--max-iter", "1000000000"], HORIZON_CAP),
        (["grover", "--B", "16", "--kappa", "1e-300"], HORIZON_CAP),
        # The work cap admits at most 2^20 steps, so it refuses this horizon first.
        (["grover", "--B", "16", "--kappa", "1e-12", "--mode", "statevector"], WORK_CAP),
    ],
    ids=["default_horizon", "max_iter", "tiny_kappa", "statevector"],
)
def test_grover_horizon_beyond_the_cap_is_usage_error(capsys, argv, fragment):
    # Refused before the first array is allocated or the first step is run.
    usage_error(capsys, argv, fragment)


@pytest.mark.parametrize(
    "argv",
    [
        ["grover", "--B", "16", "--kappa", "1e-320"],
        ["grover", "--B", "16", "--kappa", "5e-324"],
        ["bound", "--B", "10000", "--kappa", "1e-320"],
        ["bound", "--B", "10000", "--kappa", "5e-324"],
        ["bound", "--B", "10000", "--c", "1" + "0" * 400],  # 2c overflows a float
    ],
    ids=["grover", "grover_min", "bound", "bound_min", "bound_huge_c"],
)
def test_non_finite_horizon_or_bound_is_usage_error(capsys, argv):
    # ceil(50 / kappa) or ceil(2c / (kappa (1 - 2 epsilon))) is not finite.
    usage_error(capsys, argv, ") is not finite")


def test_grover_statevector_beyond_the_work_cap_is_usage_error(capsys):
    # 2,000,000 steps at max(B, 1024) = 1024 is above 2^30, within ITERATION_CAP.
    usage_error(capsys, ["grover", "--B", "16", "--max-iter", "2000000", "--mode", "statevector"],
                WORK_CAP)


def test_grover_summary_without_halts_divides_by_nothing(capsys):
    # The CDF rounds to 0 at every step, so no halting time has a mean.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(capsys, "grover", "--B", "1000000", "--kappa", "1e-20",
                        "--max-iter", "1000", "--trials", "100")
    assert code == 0
    assert out["censored"] == 100 and out["censored_mass"] == 1.0
    assert all(math.isnan(out[key]) for key in ("median", "mean", "exact_mean"))


def test_negative_cases_is_usage_error(capsys):
    code = main(["axioms", "--cases", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "n_cases must be >= 0" in captured.err


def test_grover_statevector_mode(capsys):
    code, out = run(
        capsys, "grover", "--B", "64", "--kappa", "0.3", "--seed", "1",
        "--mode", "statevector",
    )
    assert code == 0
    assert out["halted_at"] is not None


def test_grover_statevector_csv_bytes_equal_csv_module(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linalg, "CSV_CHUNK_ROWS", 7)
    out_csv = tmp_path / "angles.csv"
    code, out = run(
        capsys, "grover", "--B", "64", "--kappa", "0.3", "--seed", "1",
        "--mode", "statevector", "--out", str(out_csv),
    )
    assert code == 0
    angles = grover_statevector(GroverParams(64, 0.3, 1)).angles
    assert len(angles) == out["iterations"] > 7
    want = tmp_path / "want.csv"
    rows = [[i, format(a, ".17g")] for i, a in enumerate(angles, start=1)]
    write_rows_with_csv_module(want, ["iteration", "angle"], rows)
    assert out_csv.read_bytes() == want.read_bytes()


def test_parser_built_once_carries_no_state_between_calls(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    program = str(CORPUS / "hadamard_delay_loop.qw")
    out_csv = tmp_path / "resp.csv"
    assert run(capsys, "qwhile", "run", program, "--grid", "8", "--out", str(out_csv))[0] == 0
    out_csv.unlink()
    assert run(capsys, "qwhile", "run", program, "--grid", "8")[0] == 0
    assert not out_csv.exists()
    kernel = {"in_ports": ["i", "x"], "out_ports": ["o", "x"],
              "taps": {"0": matrix_to_literal(HADAMARD)}}
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel))
    assert run(capsys, "lsi", str(kpath), "--grid", "8", "--loop", "1")[1]["out_ports"] == ["o"]
    assert run(capsys, "lsi", str(kpath), "--grid", "8")[1]["out_ports"] == ["o", "x"]
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_bound_subcommand(capsys):
    code, out = run(capsys, "bound", "--B", "1000000", "--c", "1")
    assert code == 0
    assert out["T"] == 9622


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "extrace" in capsys.readouterr().out


def test_bound_reports_the_epsilon_it_uses(capsys):
    from extrace.kappa import RuntimeBound, guarantee_f, robustness_g, runtime_bound

    code, out = run(capsys, "bound", "--B", "10000", "--c", "2")
    assert code == 0
    assert out["epsilon"] == math.sin(3.0 * math.asin(0.01))
    rb = RuntimeBound(out["kappa"], out["epsilon"], lambda n: guarantee_f(n, 10000), robustness_g)
    assert out["T"] == runtime_bound(rb, 2)


def usage_error(capsys, argv, fragment):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag", [["bound", "--B", "100", "--epsilon", "0.45"],
                                  ["qwhile", "check", "x.qw", "--allow-contraction"]])
def test_removed_flags_are_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bound_nonpositive_B_is_usage_error(capsys):
    usage_error(capsys, ["bound", "--B", "0"], "B must be >= 1")


def test_bound_B_one_is_usage_error(capsys):
    # sin alpha = 1 puts epsilon = sin(3 pi / 2) = -1 below the gap's range
    usage_error(capsys, ["bound", "--B", "1"], "epsilon must lie in [0, 1/2)")


@pytest.mark.parametrize("c", ["0", "-1"])
def test_bound_c_below_one_is_usage_error(capsys, c):
    usage_error(capsys, ["bound", "--B", "100", "--c", c], "c must be >= 1")


def test_trace_unknown_loop_label_is_usage_error(tmp_path, capsys):
    payload = two_block(0.5 * np.eye(3, dtype=complex), 1).to_json()
    payload["loop"] = "Q"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    usage_error(capsys, ["trace", str(path)], "unknown block label 'Q'")


@pytest.mark.parametrize("method", ["both", "series", "ki"])
def test_trace_non_square_loop_is_usage_error(tmp_path, capsys, method):
    from extrace.linalg import Partition, PartitionedMap

    pm = PartitionedMap(
        np.zeros((3, 3)), Partition(("B", "U"), (1, 2)), Partition(("A", "U"), (2, 1))
    )
    payload = pm.to_json()
    payload["loop"] = "U"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    usage_error(capsys, ["trace", "--method", method, str(path)],
                "loop block 'U' is 2x1; it must be square")


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["trace", "--max-terms", "0"], "max_terms must be >= 1"),
        (["trace", "--tol", "0"], "tolerances must be positive"),
        (["axioms", "--cases", "2", "--tol", "-1"], "tolerances must be positive"),
        # A NaN tolerance would pass every comparison vacuously.
        (["trace", "--tol", "nan"], "tolerances must be positive and finite"),
        (["axioms", "--cases", "3", "--tol", "nan"], "tolerances must be positive and finite"),
        (["axioms", "--cases", "1", "--tol", "inf"], "tolerances must be positive and finite"),
    ],
    ids=["max_terms", "trace_tol", "axioms_tol", "trace_tol_nan", "axioms_tol_nan",
         "axioms_tol_inf"],
)
def test_bad_trace_config_is_usage_error(tmp_path, capsys, argv, fragment):
    if argv[0] == "trace":
        argv = argv + [write_trace_file(tmp_path, HADAMARD, 1)]
    usage_error(capsys, argv, fragment)


@pytest.mark.parametrize("sizes", [[1.9, 1], [1, "1"], [1.9, "1"]],
                         ids=["float", "string", "both"])
def test_trace_non_integer_partition_size_is_usage_error(tmp_path, capsys, sizes):
    # Sizes are neither truncated nor parsed from strings.
    payload = {**two_block(HADAMARD, 1).to_json(), "loop": "U"}
    payload["row_partition"]["sizes"] = sizes
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    usage_error(capsys, ["trace", str(path)], "partition size must be an integer, not ")


def test_trace_partition_names_as_a_string_are_usage_error(tmp_path, capsys):
    # "BU" is not split into the blocks "B" and "U".
    payload = {**two_block(HADAMARD, 1).to_json(), "loop": "U"}
    payload["row_partition"]["names"] = "BU"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    usage_error(capsys, ["trace", str(path)],
                "bad trace input: partition names must be a sequence of labels, not a string")


def test_trace_partition_names_as_an_object_are_usage_error(tmp_path, capsys):
    # {"B": 0, "U": 9} does not stand for the blocks "B" and "U" by its keys.
    payload = {**two_block(HADAMARD, 1).to_json(), "loop": "U"}
    payload["row_partition"]["names"] = {"B": 0, "U": 9}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    usage_error(capsys, ["trace", str(path)],
                "bad trace input: partition names must be a sequence of labels, not dict")


def test_trace_json_of_wrong_shape_is_usage_error(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text("[1, 2]")
    usage_error(capsys, ["trace", str(path)], "bad trace input")


def write_kernel(tmp_path, **fields):
    kernel = {"in_ports": ["i", "x"], "out_ports": ["o", "x"],
              "taps": {"0": matrix_to_literal(HADAMARD)}, **fields}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({k: v for k, v in kernel.items() if v is not None}))
    return str(path)


@pytest.mark.parametrize("loop", ["5", "-1"])
def test_lsi_loop_out_of_range_is_usage_error(tmp_path, capsys, loop):
    usage_error(capsys, ["lsi", write_kernel(tmp_path), "--grid", "8", "--loop", loop],
                f"cannot loop {loop} ports on shape (2, 2)")


@pytest.mark.parametrize("loop", [[], ["--loop", "1"]], ids=["plain", "looped"])
def test_lsi_overflowing_transform_is_usage_error(tmp_path, capsys, loop):
    # Taps of 1e308 on one entry at t = 0 and t = 1 sum past the float range
    # at omega = 0, so the response has no finite sample to report.
    big = matrix_to_literal([[1e308, 0.0], [0.0, 0.0]])
    out = tmp_path / "response.csv"
    argv = ["lsi", write_kernel(tmp_path, taps={"0": big, "1": big}), "--grid", "8",
            "--out", str(out), *loop]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        usage_error(capsys, argv, "kernel transform overflows")
    assert not out.exists()


def huge_input(tmp_path, name):
    """An input whose entries are finite but square past the float range."""
    if name == "kernel":
        return write_kernel(tmp_path, taps={"0": matrix_to_literal(np.diag([1e154, 1e154]))})
    if name == "diag":
        return write_trace_file(tmp_path, np.diag([1e154, 1e154]), 1)
    return write_trace_file(tmp_path, [[0, 0, 1], [0, 1e200, 0], [1, 0, 1]], 2)


@pytest.mark.parametrize(
    "name,argv,exit_code",
    [
        ("diag", ["trace", "--method", "both"], 0),
        ("diag", ["trace", "--method", "ki"], 0),
        # f_UU = diag(1e200, 1): the closed form has no witness for f_UA, which
        # its residual against that block shows, and the series runs to
        # max_terms unconverged.
        ("huge", ["trace", "--method", "both", "--max-terms", "1000"], 1),
        ("kernel", ["lsi", "--grid", "8"], 0),
        ("kernel", ["lsi", "--grid", "8", "--loop", "1"], 0),
    ],
    ids=["trace-both", "trace-ki", "trace-both-huge", "lsi", "lsi-looped"],
)
def test_finite_huge_inputs_print_no_runtime_warning(tmp_path, capsys, name, argv, exit_code):
    # Frobenius squares and series products past the float range are inf,
    # which the norm brackets and per-term checks already handle.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, huge_input(tmp_path, name)])
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.err == ""
    assert "error" not in json.loads(captured.out)


BEYOND = [[1e200, 1e200], [1e200, 0.5]]  # 1-port trace 1e200 + 2e400: past the float range


@pytest.mark.parametrize(
    "argv,kind",
    [
        (["trace", "--method", "both"], "series_divergence"),
        (["trace", "--method", "ki"], "not_ki_traceable"),
        (["lsi", "--grid", "8", "--loop", "1"], "series_divergence"),
    ],
    ids=["trace-both", "trace-ki", "lsi-looped"],
)
def test_trace_beyond_the_float_range_is_a_report(tmp_path, capsys, argv, kind):
    # The closed form overflows; the entry fails whatever its norms, so both
    # routes fall back to the series, which reports the non-finite term.
    path = (write_kernel(tmp_path, taps={"0": matrix_to_literal(BEYOND)}) if argv[0] == "lsi"
            else write_trace_file(tmp_path, BEYOND, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, path])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    report = json.loads(captured.out)
    assert report["error"] == kind
    if kind == "not_ki_traceable":
        assert "the closed form is not finite" in report["message"]
        assert (report["residual_in"], report["residual_out"]) == (0.0, 0.0)


def test_series_blowup_at_term_zero_is_not_a_non_finite_term(tmp_path, capsys):
    # Term 0 is 1e160: finite, though its Frobenius square overflows, so the
    # series reports the partial sum's blow-up, not a non-finite term.
    path = write_trace_file(tmp_path, [[0, 1e80], [1e80, 0.5]], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(capsys, "trace", "--method", "series", path)
    assert (code, out["error"]) == (1, "series_divergence")
    assert out["message"].startswith("partial sum exceeded 1e+06 at term 0")


# Looped over its two trailing ports, term 0 is 1e308, finite, but the partial
# sum 1.5e308 + 1e308 of the 2x2 body overflows, and the blow-up check's norm
# takes the SVD route: the series stops at term 0, as the one-port twin
# [[1.5e308, 0, 1e308], [0, 0, 0], [1, 0, 0]] does.  The closed form overflows.
OVERFLOWING_SUM = [[1.5e308, 0, 1e308, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize(
    "argv,kind",
    [
        (["trace", "--method", "series"], "series_divergence"),
        (["trace", "--method", "both"], "series_divergence"),
        (["trace", "--method", "ki"], "not_ki_traceable"),
        (["lsi", "--grid", "4", "--loop", "2"], "series_divergence"),
    ],
    ids=["trace-series", "trace-both", "trace-ki", "lsi-looped"],
)
def test_overflowing_two_port_partial_sum_is_a_report(tmp_path, capsys, argv, kind):
    csv_out = tmp_path / "response.csv"
    if argv[0] == "lsi":
        ports = ["a", "b", "x", "y"]
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps({"in_ports": ports, "out_ports": ports,
                                      "taps": {"0": matrix_to_literal(OVERFLOWING_SUM)}}))
        argv = [*argv, "--out", str(csv_out), str(kernel)]
    else:
        argv = [*argv, write_trace_file(tmp_path, OVERFLOWING_SUM, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert "Infinity" not in captured.out and "inf" not in captured.out
    report = json.loads(captured.out)
    assert report["error"] == kind
    if kind == "not_ki_traceable":
        assert report["message"] == "not ki-traceable: the closed form is not finite"
        assert (report["residual_in"], report["residual_out"]) == (0.0, 0.0)
    else:
        assert "partial sum exceeded 1e+06 at term 0" in report["message"]
    assert not csv_out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["lsi", "KERNEL", "--grid", "1000000000"],
        ["lsi", "KERNEL", "--grid", "1000000000", "--loop", "1"],
        ["qwhile", "run", str(CORPUS / "swap_loop.qw"), "--grid", "1000000000"],
        # 1 port, but the loop body is 64 x 64: 2^20 * 4096 entries, 64 GiB of samples
        ["qwhile", "run", "WIDE", "--grid", "1048576"],
    ],
    ids=["lsi", "lsi-looped", "qwhile", "qwhile-wide-body"],
)
def test_grid_beyond_the_cap_is_usage_error(tmp_path, capsys, argv):
    # Refused before the grid or any sample is allocated.
    files = {"KERNEL": write_kernel, "WIDE": write_wide_loop}
    argv = [files[a](tmp_path) if a in files else a for a in argv]
    usage_error(capsys, argv, "entries exceeds the cap 67108864")


def write_wide_loop(tmp_path):
    path = tmp_path / "wide_loop.qw"
    path.write_text(f"gate I = {json.dumps(matrix_to_literal(np.eye(64)))}\n\n(loop (gate I) 63)\n")
    return str(path)


def test_grid_cap_counts_every_sample_entry(tmp_path, capsys, monkeypatch):
    # A 2 x 2 kernel and the 1-port swap loop, whose body is 2 x 2, reach the
    # cap exactly at grid 16; one more grid point is refused.
    monkeypatch.setattr(lsi, "GRID_WORK_CAP", 64)
    swap = str(CORPUS / "swap_loop.qw")
    for argv, grid in ((["lsi", write_kernel(tmp_path)], 16), (["qwhile", "run", swap], 16)):
        assert run(capsys, *argv, "--grid", str(grid))[0] == 0
        usage_error(capsys, [*argv, "--grid", str(grid + 1)], "exceeds the cap 64")


# f_UU = diag(1, 2): no witness, and the series grows like 2^n.
DIVERGENT = [[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 2.0]]


@pytest.mark.parametrize(
    "tap,loop,fragment",
    [
        (DIVERGENT, "2", "partial sum exceeded"),
        # f_UU = 1 and no witness: the partial sums grow by 1 a term and stop
        # unconverged at max_terms, below the blow-up bound.
        ([[0.0, 1.0], [1.0, 1.0]], "1", "series did not converge in 100000 terms"),
    ],
    ids=["divergent", "unconverged"],
)
def test_lsi_loop_trace_failure_is_a_report(tmp_path, capsys, tap, loop, fragment):
    ports = ["a", "b", "c"][: len(tap)]
    kernel = {"in_ports": ports, "out_ports": ports, "taps": {"0": matrix_to_literal(tap)}}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    code, out = run(capsys, "lsi", str(path), "--grid", "2", "--loop", loop)
    assert code == 1
    assert out["error"] == "series_divergence"
    assert out["message"].startswith("loop trace failed at omega=0.000000: ")
    assert fragment in out["message"]


@pytest.mark.parametrize("order", itertools.permutations((0.2, 0.7, 0.1)), ids=str)
def test_lsi_loop_within_rounding_of_resonance_fails_in_every_tap_order(tmp_path, capsys, order):
    # The loop port's taps sum to 1 only up to rounding, so at omega = 0
    # id - f_UU is rounding residue in every summation order: at or below the
    # absolute cutoff, it has no witness, and the series does not converge.
    # A cutoff relative to the block's own sigma_max printed 2^53 in two orders.
    taps = {str(t): [[[0, 0], [0, 0]], [[0, 0], [gain, 0]]] for t, gain in enumerate(order)}
    taps["0"][0][1] = taps["0"][1][0] = [1, 0]
    code, out = run(capsys, "lsi", write_kernel(tmp_path, taps=taps), "--grid", "4", "--loop", "1")
    assert (code, out["error"]) == (1, "series_divergence")


@pytest.mark.parametrize("method", ["both", "ki"])
@pytest.mark.parametrize("big", [1e16, 1e70])
def test_trace_keeps_a_witness_beside_a_huge_loop_port(tmp_path, capsys, big, method):
    # id - f_UU = diag(1 - big, 0.5): the witness i = (0, 2) runs through the
    # singular value 0.5, far above the absolute cutoff, so the trace is 2.
    # A cutoff of 1e-10 sigma_max dropped 0.5, and both methods exited 1.
    path = write_trace_file(tmp_path, [[0, 1, 1], [0, big, 0], [1, 0, 0.5]], 2)
    code, out = run(capsys, "trace", "--method", method, path)
    assert (code, out["value"]) == (0, [[[2.0, 0.0]]])


def test_qwhile_loop_trace_failure_is_a_report(tmp_path, capsys):
    # At omega = 0 the loop block is cos 0.01, beyond the series' max_terms:
    # the run reports the loop trace's own message, not an internal error.
    t = 0.01
    rotation = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
    path = tmp_path / "near_resonance.qw"
    path.write_text(f"gate R = {json.dumps(matrix_to_literal(rotation))}\n\n"
                    "(loop (seq (par (delay 0) (delay 1)) (gate R)) 1)\n")
    code = main(["qwhile", "run", str(path), "--grid", "64"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["error"] == "series_divergence"
    assert out["message"].startswith("loop trace failed at omega=0.000000: "
                                     "series failed to converge on a contraction input")


@pytest.mark.parametrize(
    "fields,fragment",
    [
        ({"taps": None}, "'taps'"),
        ({"taps": [1]}, "'list' object has no attribute 'items'"),
        ({"taps": {"a": [[[1, 0]]]}}, "tap offset must be an integer, not 'a'"),
        # Keys that int() reads as 10, 3, 5 and 7: a tap key is ASCII digits, as a qWhile delay is.
        *[({"taps": {key: matrix_to_literal(HADAMARD)}},
           f"tap offset must be an integer, not {key!r}") for key in ["1_0", "\u0663", "+5", " 7 "]],
        ({"taps": {"9" * 400: matrix_to_literal(HADAMARD)}},
         "tap offsets must lie in the int64 range"),
        # Ports "ix" used to pass as the ports "i" and "x", and an object as its keys.
        ({"in_ports": "ix", "out_ports": "ox"},
         "out_ports must be a sequence of labels, not a string"),
        ({"in_ports": {"i": 0, "x": 1}}, "in_ports must be a sequence of labels, not dict"),
    ],
    ids=["missing", "list", "bad_offset", "underscore_offset", "arabic_indic_offset",
         "plus_offset", "spaced_offset", "offset_past_int64", "ports_string", "ports_object"],
)
def test_lsi_malformed_kernel_is_usage_error(tmp_path, capsys, fields, fragment):
    usage_error(capsys, ["lsi", write_kernel(tmp_path, **fields)], f"bad kernel input: {fragment}")


def test_qwhile_contraction_gate_is_usage_error(tmp_path, capsys):
    src = tmp_path / "c.qw"
    src.write_text("gate C = [[[0.5,0]]]\n(gate C)\n")
    usage_error(capsys, ["qwhile", "check", str(src)], "not unitary")


# Literal entries that float() rejects or converts: a JSON integer beyond the
# float range, null, a string, and a numeric string, refused since the
# literal rules take only JSON numbers.
BAD_ENTRIES = {"huge": "1" + "0" * 400, "null": "null", "text": '"abc"', "numeric_text": '"0.5"'}


def literal_with(entry):
    return f"[[[{entry}, 0], [0, 0]], [[0, 0], [1, 0]]]"


@pytest.mark.parametrize("entry", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_trace_bad_literal_entry_is_usage_error(tmp_path, capsys, entry):
    path = tmp_path / "input.json"
    path.write_text('{"matrix": %s, "row_partition": {"names": ["B", "U"], "sizes": [1, 1]}, '
                    '"col_partition": {"names": ["A", "U"], "sizes": [1, 1]}}' % literal_with(entry))
    usage_error(capsys, ["trace", str(path)], "bad trace input: matrix entries must be")


@pytest.mark.parametrize("entry", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_lsi_bad_literal_entry_is_usage_error(tmp_path, capsys, entry):
    path = tmp_path / "kernel.json"
    path.write_text('{"in_ports": ["i", "x"], "out_ports": ["o", "x"], "taps": {"0": %s}}'
                    % literal_with(entry))
    usage_error(capsys, ["lsi", str(path)], "bad kernel input: matrix entries must be")


@pytest.mark.parametrize("action", ["run", "check"])
@pytest.mark.parametrize("entry", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_qwhile_bad_literal_entry_names_the_gate_line(tmp_path, capsys, action, entry):
    src = tmp_path / "g.qw"
    src.write_text(f"\ngate G = {literal_with(entry)}\n\n(gate G)\n")
    usage_error(capsys, ["qwhile", action, str(src)],
                f"{src}: 2:1: bad matrix literal for gate 'G': matrix entries must be")


# Input files that cannot be read, decoded or parsed as JSON: undecodable
# bytes, a directory, a NUL in the path, JSON nested past the recursion
# limit and an integer past Python's 4,300 digits.
UNREADABLE = {"non_utf8": b"\xff\xfe{", "directory": "DIR", "nul_in_path": "NUL",
              "deep": b"[" * 100000 + b"]" * 100000, "long_integer": b"1" * 5000}


def unreadable(tmp_path, content):
    path = tmp_path / ("in\0put" if content == "NUL" else "input")
    if content == "DIR":
        path.mkdir()
    elif content != "NUL":
        path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
@pytest.mark.parametrize("command", ["trace", "lsi"])
def test_unreadable_json_input_is_usage_error(tmp_path, capsys, command, content):
    path = unreadable(tmp_path, content)
    usage_error(capsys, [command, path], f"error: cannot read {path}: ")


@pytest.mark.parametrize("content", ["non_utf8", "directory", "nul_in_path"])
@pytest.mark.parametrize("action", ["run", "check"])
def test_unreadable_qwhile_source_is_usage_error(tmp_path, capsys, action, content):
    path = unreadable(tmp_path, UNREADABLE[content])
    usage_error(capsys, ["qwhile", action, path], f"error: cannot read {path}: ")


def nested_seqs(n):
    """A program of n seq forms around (delay 1), nesting n + 1 deep."""
    return "(seq " * n + "(delay 1)" + " (delay 0))" * n


QWHILE_REFUSALS = {
    "long_integer": ("gate G = [[[" + "1" * 5000 + ", 0]]]\n(gate G)\n",
                     "1:1: bad matrix literal for gate 'G': Exceeds the limit (4300 digits)"),
    "deep_literal": ("gate G = " + "[" * 100000 + "\n(gate G)\n",
                     "1:1: bad matrix literal for gate 'G': maximum recursion depth exceeded"),
    "gate_twice": ("gate H = [[[1,0]]]\ngate H = [[[-1,0]]]\n(gate H)\n",
                   "2:1: gate 'H' is declared twice"),
    "past_the_cap": (nested_seqs(NESTING_CAP), f"1:{5 * NESTING_CAP + 1}: forms nest deeper"),
    "far_past_the_cap": (nested_seqs(5000), f"1:{5 * NESTING_CAP + 1}: forms nest deeper"),
    "delay_past_int64": (f"(delay {10**400})", "1:8: delay must be nonnegative and below 2^63"),
}


@pytest.mark.parametrize("source,fragment", QWHILE_REFUSALS.values(), ids=QWHILE_REFUSALS.keys())
@pytest.mark.parametrize("action", ["run", "check"])
def test_qwhile_refusal_is_usage_error(tmp_path, capsys, action, source, fragment):
    path = tmp_path / "p.qw"
    path.write_text(source)
    usage_error(capsys, ["qwhile", action, str(path), "--grid", "8"], f"error: {path}: {fragment}")


def test_qwhile_check_and_run_accept_a_program_at_the_nesting_cap(tmp_path, capsys):
    path = tmp_path / "p.qw"
    path.write_text(nested_seqs(NESTING_CAP - 1))
    assert run(capsys, "qwhile", "check", str(path))[0] == 0
    assert run(capsys, "qwhile", "run", str(path), "--grid", "8")[0] == 0
