"""Seeded command mixes for the three workloads.

A workload is a fixed cycle of CLI commands. The seed draws every input
(matrices, FIR kernels, Grover seeds) and the order of the cycle, but
never its composition: each seed runs the same number of commands of
each kind at the same sizes, so runs with different seeds measure the
same work on different data.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracles import (
    GroverReference,
    array_to_literal,
    check_axioms,
    check_bound,
    check_corpus,
    check_grover_samples,
    check_grover_summary,
    check_lsi,
    check_statevector,
    check_trace,
    grover_kappa,
    grover_max_iter,
    parse_json,
    read_grover_csv,
)

# Dimension above which operator_norm switches to power iteration, which
# fails on every contraction. Commands above it stay in the mix.
POWER_ITERATION_DIM = 64

# Loop nodes and port count of each corpus program.
CORPUS = {
    "hadamard_delay_loop": (1, 1),
    "nested_loop": (2, 2),
    "phase_chain": (0, 2),
    "swap_loop": (1, 1),
}


@dataclass
class Op:
    """One CLI command with the oracle that judges its output."""

    kind: str
    argv: list
    # (stdout) -> extra facts for the run record; raises OracleMismatch.
    check: Callable[[str], dict | None]
    # Perturbs a genuine output (stdout and any CSV) for the oracle
    # self-check and returns the perturbed stdout.
    tamper: Callable[[str], str]
    loop_traces: int = 0  # per-frequency loop traces: grid x loop nodes
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    cycle: list
    warmup: list
    # A run of --seconds executes round(seconds / nominal_cycle_s) cycles,
    # so the work, and with it every percentile's rank, depends only on
    # --seconds, never on how fast the program is.
    nominal_cycle_s: float


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _tamper_json(key_path: tuple, fn) -> Callable[[str], str]:
    def tamper(stdout: str) -> str:
        obj = json.loads(stdout)
        node = obj
        for k in key_path[:-1]:
            node = node[k]
        node[key_path[-1]] = fn(node[key_path[-1]])
        return json.dumps(obj)
    return tamper


def _tamper_csv_value(path: str, fn: Callable[[complex], complex]) -> Callable[[str], str]:
    """Rewrite the value in the middle data row of a response CSV."""
    def tamper(stdout: str) -> str:
        with open(path) as fh:
            lines = fh.read().splitlines()
        i = 1 + (len(lines) - 1) // 2
        omega, r, c, re, im = lines[i].split(",")
        v = fn(complex(float(re), float(im)))
        lines[i] = ",".join([omega, r, c, repr(v.real), repr(v.imag)])
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return stdout
    return tamper


# ---------------------------------------------------------------------------
# freq_loop: qwhile run on the corpus and lsi --loop on FIR kernels

# Corpus commands: (program, grid, write CSV). phase_chain has no loop,
# so it pays only classification and CSV output.
FREQ_CORPUS = [
    ("hadamard_delay_loop", 32, False),
    ("hadamard_delay_loop", 64, True),
    ("hadamard_delay_loop", 128, True),
    ("nested_loop", 32, True),
    ("nested_loop", 32, False),
    ("nested_loop", 128, True),
    ("swap_loop", 1024, True),
    ("swap_loop", 64, False),
    ("phase_chain", 4096, True),
    ("phase_chain", 64, False),
]
# lsi commands: (grid, ports, loop ports, write CSV).
FREQ_LSI = [
    (32, 2, 1, True),
    (32, 16, 8, False),
    (64, 4, 2, False),
    (64, 10, 5, True),
    (96, 12, 4, True),
    (256, 6, 2, False),
    (256, 8, 3, True),
    (1024, 3, 1, False),
]
FIR_TAPS = 3
FIR_TAP_NORM_SUM = 0.9
# Loop-block eigenvalue moduli, as a share of each tap's norm.
FIR_LOOP_SHARE = 0.6


def fir_kernel(rng: np.random.Generator, ports: int, loop: int) -> tuple[dict, dict]:
    """Random FIR kernel whose tap norms sum to 0.9, so its transform is
    a strict contraction at every frequency.

    Each tap's loop block is W diag(lambda_t) W^H with fixed eigenvalue
    moduli and a random unitary W shared by all taps, so the loop block
    at every frequency has a spectrum that does not depend on the seed,
    and neither does the number of series terms the trace needs. The
    seed draws W, the eigenvalue phases, the coupling blocks and the tap
    offsets.
    """
    k = ports - loop
    z = rng.standard_normal((loop, loop)) + 1j * rng.standard_normal((loop, loop))
    w_basis, _ = np.linalg.qr(z)
    moduli = np.linspace(1.0, 0.3, loop)
    offsets = sorted(rng.choice(7, size=FIR_TAPS, replace=False).tolist())
    weight = FIR_TAP_NORM_SUM / FIR_TAPS
    taps = {}
    for t in offsets:
        tap = rng.standard_normal((ports, ports)) + 1j * rng.standard_normal((ports, ports))
        tap[k:, k:] = 0.0
        tap *= weight * (1.0 - FIR_LOOP_SHARE) / np.linalg.norm(tap, 2)
        phases = np.exp(2j * np.pi * rng.random(loop))
        tap[k:, k:] = (w_basis * (weight * FIR_LOOP_SHARE * moduli * phases)) @ w_basis.conj().T
        taps[int(t)] = tap
    total = sum(np.linalg.norm(m, 2) for m in taps.values())
    if total > 0.95:
        raise AssertionError(f"FIR generator produced tap norm sum {total}")
    names = [f"p{i}" for i in range(ports)]
    doc = {
        "in_ports": names,
        "out_ports": names,
        "taps": {str(t): array_to_literal(m) for t, m in taps.items()},
    }
    return doc, taps


def _corpus_op(program: str, grid: int, csv_path: str | None) -> Op:
    loops, ports = CORPUS[program]
    argv = ["qwhile", "run", f"corpus/{program}.qw", "--grid", str(grid)]
    if csv_path:
        argv += ["--out", csv_path]

    def check(stdout):
        check_corpus(parse_json(stdout), csv_path, program, grid, ports)

    if csv_path:
        # A phase error keeps the sample unitary, so the closed forms
        # must catch it; on nested_loop a 0.1% gain breaks unitarity.
        if program in ("nested_loop", "phase_chain"):
            tamper = _tamper_csv_value(csv_path, lambda v: v * 1.001)
        else:
            tamper = _tamper_csv_value(csv_path, lambda v: v * complex(math.cos(1e-3), math.sin(1e-3)))
    else:
        tamper = _tamper_json(("grid_size",), lambda g: g + 1)
    kind = f"qwhile {program} g{grid}" + (" csv" if csv_path else "")
    return Op(kind, argv, check, tamper, loop_traces=grid * loops)


def _lsi_op(workdir: str, tag: str, rng, grid: int, ports: int, loop: int,
            write_csv: bool) -> Op:
    doc, taps = fir_kernel(rng, ports, loop)
    kpath = _write_json(os.path.join(workdir, f"kernel_{tag}.json"), doc)
    csv_path = os.path.join(workdir, f"lsi_{tag}.csv") if write_csv else None
    argv = ["lsi", kpath, "--grid", str(grid), "--loop", str(loop)]
    if csv_path:
        argv += ["--out", csv_path]

    def check(stdout):
        check_lsi(parse_json(stdout), csv_path, taps, grid, loop)

    tamper = (_tamper_csv_value(csv_path, lambda v: v + 1e-6) if csv_path
              else _tamper_json(("classification",), lambda c: "not_certified"))
    kind = f"lsi g{grid} p{ports} k{loop}" + (" csv" if csv_path else "")
    return Op(kind, argv, check, tamper, loop_traces=grid)


def freq_loop(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cycle = []
    for i, (program, grid, write_csv) in enumerate(FREQ_CORPUS):
        csv_path = os.path.join(workdir, f"corpus_{i}.csv") if write_csv else None
        cycle.append(_corpus_op(program, grid, csv_path))
    for i, (grid, ports, loop, write_csv) in enumerate(FREQ_LSI):
        cycle.append(_lsi_op(workdir, str(i), rng, grid, ports, loop, write_csv))
    cycle = [cycle[i] for i in rng.permutation(len(cycle))]
    warmup = [
        _corpus_op("hadamard_delay_loop", 8, os.path.join(workdir, "warm_h.csv")),
        _corpus_op("swap_loop", 8, os.path.join(workdir, "warm_s.csv")),
        _corpus_op("nested_loop", 8, os.path.join(workdir, "warm_n.csv")),
        _corpus_op("phase_chain", 8, None),
        _lsi_op(workdir, "warm_a", rng, 8, 4, 2, True),
        _lsi_op(workdir, "warm_b", rng, 8, 4, 2, False),
    ]
    return Workload("freq_loop", cycle, warmup, nominal_cycle_s=6.3)


# ---------------------------------------------------------------------------
# trace_scalar: trace --method both on partitioned matrices, and axioms

# Seven commands share n = 32, so the median command is one of them.
TRACE_CONTRACTION_DIMS = [2, 3, 4, 8, 16] + [32] * 7 + [48, 64, 80, 96, 128]
TRACE_EXPANSION_DIMS = [3, 8, 16, 32, 48, 64]
AXIOM_CASES = [8, 16]


def partitioned_matrix(rng, n: int, contraction: bool) -> tuple[np.ndarray, int]:
    """Random n x n matrix whose trailing n // 2 rows and columns are the
    loop block; the seed draws the entries, not the sizes or norms.

    Contractions have operator norm 0.8. Expansions have norm about 2,
    within (1, 3], and a loop block of norm 0.5, so id - f_UU is well
    conditioned and the kernel-image route is defined.
    """
    loop = n // 2
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if contraction:
        return z * (0.8 / np.linalg.norm(z, 2)), loop
    k = n - loop
    uu = z[k:, k:] * (0.5 / np.linalg.norm(z[k:, k:], 2))
    z[k:, k:] = 0
    z *= 2.0 / np.linalg.norm(z, 2)
    z[k:, k:] = uu
    norm = np.linalg.norm(z, 2)
    if not 1.0 < norm <= 3.0:
        raise AssertionError(f"expansion generator produced norm {norm}")
    return z, loop


def _trace_op(workdir: str, tag: str, rng, n: int, contraction: bool) -> Op:
    m, loop = partitioned_matrix(rng, n, contraction)
    doc = {
        "matrix": array_to_literal(m),
        "row_partition": {"names": ["B", "U"], "sizes": [n - loop, loop]},
        "col_partition": {"names": ["A", "U"], "sizes": [n - loop, loop]},
        "loop": "U",
    }
    path = _write_json(os.path.join(workdir, f"trace_{tag}.json"), doc)

    def check(stdout):
        check_trace(parse_json(stdout), m, loop, contraction)

    def tamper(stdout):
        obj = json.loads(stdout)
        obj["value"][0][0][0] += 1e-6
        return json.dumps(obj)

    defect = None
    if n > POWER_ITERATION_DIM and contraction:
        defect = "operator_norm power iteration does not converge above 64 dims"
    kind = f"trace n{n} {'contraction' if contraction else 'expansion'}"
    return Op(kind, ["trace", "--method", "both", path], check, tamper, known_defect=defect)


def _axioms_op(cases: int, seed: int) -> Op:
    def check(stdout):
        check_axioms(parse_json(stdout), cases)

    tamper = _tamper_json(("checks", "yanking", "failures"), lambda f: f + 1)
    argv = ["axioms", "--cases", str(cases), "--seed", str(seed)]
    return Op(f"axioms {cases}", argv, check, tamper)


def trace_scalar(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    cycle = []
    for i, n in enumerate(TRACE_CONTRACTION_DIMS):
        cycle.append(_trace_op(workdir, f"c{i}", rng, n, True))
    for i, n in enumerate(TRACE_EXPANSION_DIMS):
        cycle.append(_trace_op(workdir, f"e{i}", rng, n, False))
    for cases in AXIOM_CASES:
        cycle.append(_axioms_op(cases, int(rng.integers(2**31))))
    cycle = [cycle[i] for i in rng.permutation(len(cycle))]
    warmup = [
        _trace_op(workdir, "warm_c", rng, 6, True),
        _trace_op(workdir, "warm_e", rng, 6, False),
        _axioms_op(2, int(rng.integers(2**31))),
    ]
    return Workload("trace_scalar", cycle, warmup, nominal_cycle_s=2.0)


# ---------------------------------------------------------------------------
# grover_mc: Monte-Carlo halting times, statevector runs and bounds

# (B, kappa or None for the default B^-1/2, trials, write CSV). The first
# entry is the criterion-8 configuration, judged against the exact law.
GROVER_MC = [
    (10**6, 0.001, 10_000, False),
    (10**6, None, 100_000, True),
    (10**4, None, 10_000, True),
    (10**4, 0.001, 5_000, False),
    (10**6, None, 3_000, False),
    (10**4, None, 3_000, True),
    (10**4, 0.001, 2_000, True),
]
GROVER_STATEVECTOR_B = [16, 256, 1024, 4096]
GROVER_BOUNDS = [(10**6, None, 1), (10**4, 0.001, 3)]


class _References:
    """Exact halting-time laws, computed once per (B, kappa)."""

    def __init__(self):
        self._cache = {}

    def get(self, b: int, kappa: float) -> GroverReference:
        key = (b, kappa)
        if key not in self._cache:
            self._cache[key] = GroverReference(b, kappa, grover_max_iter(kappa))
        return self._cache[key]


def _write_grover_csv(path: str, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("trial,iterations,censored,angle_at_halt\n")
        for r in rows:
            fh.write(f"{int(r[0])},{int(r[1])},{int(r[2])},{float(r[3])!r}\n")


def _grover_op(refs: _References, b: int, kappa, trials: int, seed: int, csv_path) -> Op:
    argv = ["grover", "--B", str(b), "--trials", str(trials), "--seed", str(seed)]
    if kappa is not None:
        argv += ["--kappa", repr(kappa)]
    if csv_path:
        argv += ["--out", csv_path]
    k = grover_kappa(b, kappa)

    def check(stdout):
        ref = refs.get(b, k)
        out = parse_json(stdout)
        if csv_path:
            d = check_grover_samples(out, read_grover_csv(csv_path), ref, trials)
        else:
            d = check_grover_summary(out, ref, trials)
        return {"ks_distance": d, "sample_median": out.get("median"),
                "exact_median": ref.median()}

    if csv_path:
        def tamper(stdout):
            # Halting times shortened by a quarter, with angles on the
            # exact trajectory and a matching summary, so only the KS
            # test can object.
            ref = refs.get(b, k)
            rows = read_grover_csv(csv_path)
            rows[:, 1] = np.maximum(1, np.floor(rows[:, 1] * 0.75))
            rows[:, 3] = np.arcsin(np.sqrt(ref.sin2[rows[:, 1].astype(np.int64) - 1]))
            _write_grover_csv(csv_path, rows)
            obj = json.loads(stdout)
            done = rows[rows[:, 2] == 0, 1]
            obj["median"], obj["mean"] = float(np.median(done)), float(np.mean(done))
            return json.dumps(obj)
    else:
        def tamper(stdout):
            # Halting times shortened by a quarter, then re-bucketed.
            obj = json.loads(stdout)
            w = obj["bucket_width"]
            merged = {}
            for lo, count in obj["histogram"]:
                t = max(1, int((lo - 1) * 0.75) + 1)
                key = ((t - 1) // w) * w + 1
                merged[key] = merged.get(key, 0) + count
            obj["histogram"] = [[lo, merged[lo]] for lo in sorted(merged)]
            return json.dumps(obj)

    kind = f"grover B{b} k{k:g} n{trials}" + (" csv" if csv_path else "")
    return Op(kind, argv, check, tamper)


def _statevector_op(b: int, seed: int) -> Op:
    def check(stdout):
        check_statevector(parse_json(stdout))

    tamper = _tamper_json(("final_angle",), lambda a: a + 1e-6)
    argv = ["grover", "--B", str(b), "--mode", "statevector", "--seed", str(seed)]
    return Op(f"statevector B{b}", argv, check, tamper)


def _bound_op(b: int, kappa, c: int) -> Op:
    argv = ["bound", "--B", str(b), "--c", str(c)]
    if kappa is not None:
        argv += ["--kappa", repr(kappa)]

    def check(stdout):
        check_bound(parse_json(stdout), b, kappa, c)

    tamper = _tamper_json(("T",), lambda t: t + 1)
    return Op(f"bound B{b} c{c}", argv, check, tamper)


def grover_mc(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    refs = _References()
    cycle = []
    for i, (b, kappa, trials, write_csv) in enumerate(GROVER_MC):
        csv_path = os.path.join(workdir, f"grover_{i}.csv") if write_csv else None
        cycle.append(_grover_op(refs, b, kappa, trials, int(rng.integers(2**31)), csv_path))
    for b in GROVER_STATEVECTOR_B:
        cycle.append(_statevector_op(b, int(rng.integers(2**31))))
    for b, kappa, c in GROVER_BOUNDS:
        cycle.append(_bound_op(b, kappa, c))
    cycle = [cycle[i] for i in rng.permutation(len(cycle))]
    warmup = [
        _grover_op(refs, 10**4, None, 5_000, int(rng.integers(2**31)),
                   os.path.join(workdir, "warm.csv")),
        _grover_op(refs, 10**4, None, 5_000, int(rng.integers(2**31)), None),
        _statevector_op(64, int(rng.integers(2**31))),
        _bound_op(10**4, None, 1),
    ]
    return Workload("grover_mc", cycle, warmup, nominal_cycle_s=3.6)


WORKLOADS = {"freq_loop": freq_loop, "trace_scalar": trace_scalar, "grover_mc": grover_mc}
