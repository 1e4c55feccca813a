"""Benchmark of the extrace CLI: seeded command mixes, checked outputs.

    python3 bench/run.py --workload freq_loop --seed 1 --seconds 25 --trace 0

Each command is one `extrace.cli.main(argv)` call in this process, with
stdout captured and judged by an oracle that does not use extrace. One
caller runs the commands back to back (a closed loop, no think time) on
one BLAS thread. `--trace 0` prints the end-to-end metrics; `--trace 1`
runs the mix once untraced and twice traced and prints per-layer
metrics. The last line of stdout is the result as JSON; a run record
goes to .bench_results/ and a human summary to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ".bench_work"
RESULTS_DIR = ".bench_results"

# Pinned for this process and the interpreters it starts, before numpy
# loads, so the BLAS uses one thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 7
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

# On a shared host the speed of identical work drifts by up to 1.8x, in
# spells of seconds to minutes, alike for interpreter and BLAS work (CPU
# time tracks wall time), so raw timings of two runs differ by more than
# any useful bound. A probe that runs no extrace code is timed around each
# command and in each fresh interpreter, and every timing is reported
# scaled to a host on which the probe takes REF_PROBE_S. Raw timings stay
# in the run record.
REF_PROBE_S = 0.007
PROBE_ROUNDS = 250
PROBE_WINDOW = 3  # probes on each side of a command that set its scale

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (span, statistic) for statistics read off the spans.
LAYER_SPAN_METRICS = [
    ("trace.ex_series", "calls"), ("trace.ex_series", "self_s"),
    ("linalg.classify", "calls"), ("linalg.classify", "self_s"),
    ("lsi.lsi_classify", "self_s"),
    ("linalg.operator_norm", "calls"), ("linalg.operator_norm", "self_s"),
    ("linalg.operator_norm", "errors"),
    ("trace.ex", "calls"), ("trace.ex", "self_s"), ("trace.ex", "errors"),
    ("trace.ex_kernel_image", "calls"), ("trace.ex_kernel_image", "self_s"),
    ("trace.ex_kernel_image", "errors"),
    ("trace.check_trace_axioms", "self_s"),
    ("qwhile.parse_source", "self_s"), ("qwhile.check", "self_s"),
    ("qwhile.semantics", "calls"), ("qwhile.semantics", "self_s"),
    ("lsi.dtft", "self_s"), ("lsi.lsi_ex", "calls"), ("lsi.lsi_ex", "self_s"),
    ("lsi.response_to_csv", "self_s"),
    ("cli.main", "calls"), ("cli.main", "self_s"),
    ("linalg.matrix_from_literal", "self_s"),
    ("kappa.grover_montecarlo", "calls"), ("kappa.grover_montecarlo", "self_s"),
    ("kappa.halting_probabilities", "self_s"), ("kappa.grover_statevector", "self_s"),
]
STAT_UNITS = {"calls": "count", "errors": "count", "self_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Running one command


def run_op(cli, op, index: int, tracer=None) -> tuple[dict, str]:
    """Run one command, time it, and judge its exit code and output.
    Returns the command's record and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    if tracer is not None:
        tracer.op_id = index
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash is a failed command, recorded below
            code, crash = None, e
    latency = time.perf_counter() - t0
    rec = {"index": index, "kind": op.kind, "latency_s": latency, "exit": code, "ok": False}
    stdout = out.getvalue()
    if crash is not None:
        rec.update(error=type(crash).__name__, message=str(crash))
    elif code != 0:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            report = {}
        rec.update(error=report.get("error", f"exit {code}"),
                   message=report.get("message", err.getvalue().strip()))
    else:
        from oracles import OracleMismatch
        try:
            facts = op.check(stdout)
        except OracleMismatch as e:
            rec.update(error="OracleMismatch", message=str(e), wrong_output=True)
        else:
            rec["ok"] = True
            if facts:
                rec["facts"] = facts
    if not rec["ok"]:
        rec["argv"] = op.argv
        if op.known_defect:
            rec["known_defect"] = op.known_defect
    return rec, stdout


def self_check(cli, ops) -> list:
    """Each oracle must accept a genuine output and reject a perturbed one."""
    from oracles import OracleMismatch
    results = []
    for i, op in enumerate(ops):
        rec, stdout = run_op(cli, op, -1 - i)
        entry = {"kind": op.kind, "genuine_accepted": rec["ok"], "tampered_rejected": False}
        if rec["ok"]:
            try:
                op.check(op.tamper(stdout))
            except OracleMismatch as e:
                entry["tampered_rejected"] = True
                entry["rejection"] = str(e)
        else:
            entry["failure"] = rec.get("message")
        results.append(entry)
    return results


def run_pass(cli, ops, tracer=None, probes=None) -> list:
    """Run the commands in order. With a `probes` list, also time the
    reference probe before the first command and after each one."""
    records = []
    if probes is not None:
        probes.append(reference_probe())
    for i, op in enumerate(ops):
        records.append(run_op(cli, op, i, tracer)[0])
        if probes is not None:
            probes.append(reference_probe())
    return records


def reference_probe() -> float:
    """Seconds for a fixed mix of interpreter work and small complex
    numpy linear algebra, the kinds of work the engine does."""
    import numpy as np
    m = np.linalg.qr(np.arange(36.0).reshape(6, 6) % 7 + 1j * (np.arange(36.0).reshape(6, 6) % 5))[0]
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(PROBE_ROUNDS):
        acc += float(np.linalg.norm(0.5 * m @ m, 2))
        acc += sum(j * 0.5 for j in range(40))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Set-up time


def measure_setup(starts: int = SETUP_STARTS) -> list:
    """Seconds from launching a fresh interpreter until extrace.cli is
    imported and the child says it is ready, over several starts, each
    with the reference probe time the child measured right after."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    code = ("import sys, extrace.cli; sys.stdout.write(extrace.cli.__file__ + '\\n'); "
            "sys.stdout.flush(); sys.path.insert(0, sys.argv[1]); from run import reference_probe; "
            "reference_probe(); print(min(reference_probe() for _ in range(2)))")
    starts_out = []
    for _ in range(starts):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code, str(BENCH_DIR)], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe = child.stdout.read()
            if child.wait(timeout=120) != 0 or not line.startswith(str(SRC)):
                raise BenchError(f"fresh interpreter did not import extrace from {SRC}: {line!r}")
        starts_out.append((elapsed, float(probe)))
    return starts_out


# ---------------------------------------------------------------------------
# Metrics


def latency_stats(records: list) -> dict:
    lat = sorted(r["latency_s"] for r in records)
    n = len(lat)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "samples": n,
        "busy_s": sum(lat),
        # Nearest-rank percentiles: each is one measured command.
        "p50_s": lat[(n - 1) // 2],
        "tail_s": lat[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
    }


def end_to_end(records: list, cycle_len: int, setups: list, probes: list) -> tuple[dict, dict]:
    """End-to-end metrics with every timing scaled to the reference host
    speed, and the raw figures behind them. A command's latency is scaled
    by the median of the probes nearest to it, three before and three
    after, so one probe caught in a burst moves nothing."""
    scaled = [{"latency_s": r["latency_s"] * REF_PROBE_S
               / statistics.median(probes[max(0, i - PROBE_WINDOW + 1): i + PROBE_WINDOW + 1])}
              for i, r in enumerate(records)]
    lat = latency_stats(scaled)
    failed = sum(not r["ok"] for r in records)
    # A typical cycle: each command at its median latency over the
    # cycles, so a burst of load on the host moves one sample, not the sum.
    cycle_s = sum(statistics.median(r["latency_s"] for r in scaled[i::cycle_len])
                  for i in range(cycle_len))
    raw = {**latency_stats(records), "setup_s": statistics.median(t for t, _ in setups),
           "probe_median_s": statistics.median(probes)}
    return {
        "setup_s": statistics.median(t * REF_PROBE_S / p for t, p in setups),
        "ops_per_s": cycle_len / cycle_s,
        "op_p50_ms": 1e3 * lat["p50_s"],
        "op_tail_ms": 1e3 * lat["tail_s"],
        "success_rate": 1.0 - failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {**raw, "scaled": lat}


def per_layer(stats_a: dict, stats_b: dict, counters: dict, untraced_s: float,
              traced_s: list) -> dict:
    """Counts from the first traced pass (the second repeats them
    exactly); times averaged over both."""
    def get(name, stat):
        a = stats_a.get(name, {}).get(stat, 0)
        if stat == "self_s":
            return (a + stats_b.get(name, {}).get(stat, 0)) / 2.0
        return a

    metrics = {}
    for name, stat in LAYER_SPAN_METRICS:
        metrics[f"{name}.{stat}"] = (get(name, stat), STAT_UNITS[stat])
    metrics["cli.main.errors"] = (get("cli.main", "errors") + counters.get("cli.main.nonzero_exits", 0),
                                  "count")
    ex_calls = get("trace.ex", "calls")
    # Ratios with no base (no trace code ran) read 0.
    metrics["trace.ex_series.terms"] = (counters.get("trace.ex_series.terms", 0), "count")
    metrics["trace.operator_norm_per_ex"] = (
        get("linalg.operator_norm", "calls") / ex_calls if ex_calls else 0.0, "ratio")
    metrics["trace.ex.success_ratio"] = (
        (ex_calls - get("trace.ex", "errors")) / ex_calls if ex_calls else 0.0, "ratio")
    trials = counters.get("kappa.trials", 0)
    metrics["kappa.self_us_per_trial"] = (
        1e6 * get("kappa.grover_montecarlo", "self_s") / trials if trials else 0.0, "us")
    traced = statistics.mean(traced_s)
    metrics["tracing_overhead_pct"] = (100.0 * (traced - untraced_s) / untraced_s, "%")
    return metrics


def coverage(workload, ops, stats_a, stats_b, counters_a, counters_b) -> dict:
    """Exact counts that prove no module binding was missed."""
    def counts(stats, counters):
        c = {f"{n}.{k}": s[k] for n, s in stats.items() for k in ("calls", "errors")}
        c.update(counters)
        return c

    ca, cb = counts(stats_a, counters_a), counts(stats_b, counters_b)
    checks = {
        "counts_repeat": ca == cb,
        "cli_main_calls": stats_a.get("cli.main", {}).get("calls", 0) == len(ops),
    }
    detail = {}
    if workload.name == "freq_loop":
        want = sum(op.loop_traces for op in ops)
        got = stats_a.get("trace.ex", {}).get("calls", 0)
        checks["ex_calls_equal_grid_times_loops"] = got == want
        detail["ex_calls"] = {"expected": want, "got": got}
    if not checks["counts_repeat"]:
        detail["differing_counts"] = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
    return {"passed": all(checks.values()), "checks": checks, **detail}


# ---------------------------------------------------------------------------
# Run record


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read directly, so
    nothing above the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "corpus").glob("*.qw")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------


def prepare():
    if not (SRC / "extrace" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        raise BenchError(f"{ROOT} has no src/extrace or corpus/; run from a full checkout")
    os.environ.update(THREAD_ENV)
    os.chdir(ROOT)
    sys.path[0:0] = [str(SRC), str(BENCH_DIR)]
    import extrace.cli
    if not Path(extrace.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported extrace from {extrace.cli.__file__}, not {SRC}")
    return extrace.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["freq_loop", "trace_scalar", "grover_mc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        cli = prepare()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    started = time.time()
    setups = measure_setup() if args.trace == 0 else []
    workdir = os.path.join(WORK_DIR, args.workload)
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)

    checks = self_check(cli, workload.warmup)
    self_check_ok = all(c["genuine_accepted"] and c["tampered_rejected"] for c in checks)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "host": host_record(),
        "started_unix": started,
        "oracle_self_check": checks,
    }
    cycle = workload.cycle
    if args.trace == 0:
        n_cycles = max(round(args.seconds / workload.nominal_cycle_s),
                       math.ceil((TAIL_BEYOND + 1) / len(cycle)), 1)
        run_probes = []
        records = run_pass(cli, cycle * n_cycles, probes=run_probes)
        values, raw = end_to_end(records, len(cycle), setups, run_probes)
        units = END_TO_END_UNITS
        record.update(cycles=n_cycles, setup_s_and_probe_s=setups, raw=raw, run_probes_s=run_probes,
                      reference_probe_s=REF_PROBE_S, error_rate=1.0 - values["success_rate"])
        # The CLI hides exception classes behind exit codes; recover them
        # by re-running each failed command once under the tracer.
        failed_idx = sorted({r["index"] % len(cycle) for r in records if not r["ok"]})
        if failed_idx:
            tracer = Tracer()
            tracer.install()
            try:
                for i in failed_idx:
                    run_op(cli, cycle[i], i, tracer)
            finally:
                tracer.uninstall()
            classes = tracer.op_exceptions()
            for r in records:
                if not r["ok"] and r["index"] % len(cycle) in classes:
                    r["exception"], r["raised_in"] = classes[r["index"] % len(cycle)]
    else:
        untraced = run_pass(cli, cycle)
        tracer = Tracer()
        record["bindings_wrapped"] = tracer.install()
        try:
            traced_a = run_pass(cli, cycle, tracer)
            stats_a, counters_a = tracer.layer_stats(), dict(tracer.counters)
            spans_a, exceptions = tracer.arrays(), tracer.op_exceptions()
            tracer.reset()
            traced_b = run_pass(cli, cycle, tracer)
            stats_b, counters_b = tracer.layer_stats(), dict(tracer.counters)
        finally:
            tracer.uninstall()
        for r in traced_a:
            if not r["ok"] and r["index"] in exceptions:
                r["exception"], r["raised_in"] = exceptions[r["index"]]
        walls = [latency_stats(p)["busy_s"] for p in (untraced, traced_a, traced_b)]
        metrics = per_layer(stats_a, stats_b, counters_a, walls[0], walls[1:])
        values = {k: v for k, (v, _) in metrics.items()}
        units = {k: u for k, (_, u) in metrics.items()}
        records = untraced + traced_a + traced_b
        cov = coverage(workload, cycle, stats_a, stats_b, counters_a, counters_b)
        record.update(layers={"pass_a": stats_a, "pass_b": stats_b},
                      counters=counters_a, coverage=cov, pass_busy_s=walls,
                      spans=len(spans_a["name"]))
        spans_path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-spans.npz")
        import numpy as np
        np.savez_compressed(spans_path, names=np.array(tracer.names),
                            exc_names=np.array(tracer.exc_names, dtype=str), **spans_a)
        print(f"coverage: {'pass' if cov['passed'] else 'FAIL'} {json.dumps(cov)}", file=sys.stderr)

    failed = [r for r in records if not r["ok"]]
    wrong = [r for r in failed if r.get("wrong_output")]
    correct = self_check_ok and not wrong
    record.update(correct=correct, attempted=len(records), failed=len(failed),
                  metrics={k: {"value": values[k], "unit": units[k]} for k in values},
                  failures=failed,
                  commands=[{"kind": op.kind, "argv": op.argv,
                             "latency_s": [r["latency_s"] for r in records[i::len(cycle)]]}
                            for i, op in enumerate(cycle)],
                  facts=[{"kind": r["kind"], **r["facts"]} for r in records if "facts" in r][:50],
                  elapsed_s=time.time() - started)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for k, v in values.items():
        print(f"{k:36s} {v:14.6g} {units[k]}", file=sys.stderr)
    print(f"attempted {len(records)}, failed {len(failed)} ({len(wrong)} wrong outputs), "
          f"oracle self-check {'ok' if self_check_ok else 'FAILED'}; record {path}",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
