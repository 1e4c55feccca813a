"""A command executes only the layers it runs: the trace core, the LSI
semantics, qWhile and the Grover (kappa) modules load on first use, and
only linalg loads with the package.  Each case starts a fresh interpreter,
since the test process has long since loaded all four."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extrace

SRC = str(Path(extrace.__file__).resolve().parent.parent)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# The names `from extrace import *` binds, the deferred exports among them.
STAR_NAMES = sorted([
    "FirKernel", "FrequencyResponse", "GroverParams", "KappaMeasurement", "KiTraceError",
    "LinalgError", "Partition", "PartitionedMap", "RuntimeBound", "SeriesDivergence", "Signal",
    "TraceConfig", "TraceDisagreement", "TraceResult", "check", "check_trace_axioms", "classify",
    "cnu_decompose", "convolve", "dtft", "ex", "ex_kernel_image", "ex_series", "grover_montecarlo",
    "grover_recurrence", "grover_runtime_bound", "grover_statevector", "guarantee_f",
    "halmos_dilation", "kappa", "kappa_measure", "linalg", "lsi", "lsi_classify", "lsi_ex",
    "matrix_from_literal", "matrix_to_literal", "operator_norm", "parse", "parse_source",
    "parseval_norm", "qwhile", "robustness_g", "runtime_bound", "semantics", "theta", "trace",
    "two_block", "verify_guarantee",
])
DEFERRED = ("kappa", "lsi", "qwhile", "trace")
# Runs main(argv) quietly, then prints which deferred modules are still
# unexecuted; type() reads a module's class without triggering its load.
PROBE = f"DEFERRED = {DEFERRED!r}" + """
import contextlib, io, json, sys
import extrace.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = extrace.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "decimal": "decimal" in sys.modules,
                  "unloaded": [n for n in DEFERRED
                               if type(sys.modules["extrace." + n]).__name__ == "_LazyModule"]}))
"""


def fresh(*args: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def inputs(tmp_path) -> dict:
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps({**extrace.two_block([[0.5]], 1).to_json(), "loop": "U"}))
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"in_ports": ["i", "x"], "out_ports": ["o", "x"],
                                  "taps": {"0": extrace.matrix_to_literal([[0.5, 0], [0, 0.5]])}}))
    return {"TRACE": str(trace_file), "KERNEL": str(kernel),
            "QW": str(CORPUS / "hadamard_delay_loop.qw"), "CSV": str(tmp_path / "out.csv")}


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["trace", "TRACE"], ["kappa", "lsi", "qwhile"]),
        (["axioms", "--cases", "2"], ["kappa", "lsi", "qwhile"]),
        (["lsi", "KERNEL", "--grid", "8", "--loop", "1"], ["kappa", "qwhile"]),
        (["lsi", "KERNEL", "--grid", "8"], ["kappa", "qwhile", "trace"]),
        (["bound", "--B", "100"], ["lsi", "qwhile", "trace"]),
        (["grover", "--B", "16", "--trials", "10"], ["lsi", "qwhile", "trace"]),
        (["grover", "--B", "16", "--trials", "10", "--out", "CSV"], ["lsi", "qwhile", "trace"]),
        (["qwhile", "run", "QW", "--grid", "8"], ["kappa"]),
        (["qwhile", "check", "QW"], ["kappa", "lsi", "trace"]),
    ],
    ids=["trace", "axioms", "lsi", "lsi-noloop", "bound", "grover", "grover-out", "qwhile",
         "qwhile-check"],
)
def test_a_command_executes_only_the_layers_it_runs(tmp_path, argv, unloaded):
    files = inputs(tmp_path)
    argv = [files.get(a, a) for a in argv]
    out = json.loads(fresh("-c", PROBE, json.dumps(argv)))
    assert out["code"] == 0
    assert out["unloaded"] == unloaded
    assert out["decimal"] is ("kappa" not in unloaded)  # only kappa imports decimal


def test_import_of_the_cli_executes_no_deferred_module():
    out = fresh("-c", "import sys, extrace.cli; "
                      f"print(*[type(sys.modules['extrace.' + n]).__name__ for n in {DEFERRED!r}], "
                      "'decimal' in sys.modules)")
    assert out.split() == ["_LazyModule"] * len(DEFERRED) + ["False"]


def test_version_names_the_engine_defaults():
    out = fresh("-m", "extrace.cli", "--version")
    assert out == "extrace 0.1.0 (grid=256, series_tol=1e-10, ki_residual_tol=1e-08)\n"


def test_the_import_surface_is_unchanged():
    out = fresh("-W", "error", "-c", "import json, extrace; ns = {}; "
                "exec('from extrace import *', ns); ns.pop('__builtins__'); "
                "print(json.dumps([sorted(ns), extrace.kappa.kappa_measure.__module__, "
                "extrace.parse_source.__module__]))")
    names, measure_home, parse_home = json.loads(out)
    assert names == STAR_NAMES
    assert (measure_home, parse_home) == ("extrace.kappa", "extrace.qwhile")
    assert sorted(extrace.__all__) == STAR_NAMES
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        extrace.no_such_name
