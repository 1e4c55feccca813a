"""Every refusal of a size, count, seed, time or port count in one table.

Each entry point that takes one gets a row with a value that is not an
integer and a row with a value below its bound; every such value goes
through linalg.as_int, so each message has the form "{what} must be an
integer, not {value!r}" or "{what} must be >= {low}".  The table also holds
the range refusals that no other in-process test reaches.  A row expects
LinalgError with exactly its message; a qwhile.check row expects exactly
its path-prefixed errors.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from extrace.kappa import (GroverParams, KappaMeasurement, grover_montecarlo, grover_recurrence,
                           grover_runtime_bound, guarantee_f, halting_probabilities,
                           premeasurement_angles, robustness_g, theta, verify_guarantee)
from extrace.linalg import (LinalgError, Partition, PartitionedMap, as_int, classify,
                            random_contraction, random_isometry, random_unitary, swap_matrix,
                            two_block)
from extrace.lsi import FirKernel, FrequencyResponse, Signal, dtft, lsi_ex, parseval_norm
from extrace.qwhile import Delay, DoWhile, Seq, Unitary, check, parse_source, semantics
from extrace.trace import TraceConfig, check_trace_axioms, ex

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
KERNEL = FirKernel(("o", "x"), ("i", "x"), {0: H})
LOOP = DoWhile(Unitary("H", H), 1)
P = GroverParams(16)


def row(name, call, message):
    return pytest.param(call, message, id=name)


ROWS = [
    # linalg
    row("partition_size_float", lambda: Partition(("a", "b"), (1.5, 1)),
        "partition size must be an integer, not 1.5"),
    row("partition_size_negative", lambda: Partition(("a",), (-1,)),
        "partition size must be >= 0"),
    row("partitioned_map_cols", lambda: PartitionedMap(np.zeros((2, 2)), Partition(("a",), (2,)),
                                                       Partition(("b",), (3,))),
        "matrix has 2 cols but col partition totals 3"),
    row("two_block_float", lambda: two_block(np.eye(2), 0.5),
        "loop dimension must be an integer, not 0.5"),
    row("two_block_too_large", lambda: two_block(np.eye(2), 3),
        "loop dimension 3 does not fit shape (2, 2)"),
    row("classify_tol", lambda: classify(np.eye(2), 0.0), "tol must be positive"),
    row("swap_float", lambda: swap_matrix(1.5, 1), "swap size must be an integer, not 1.5"),
    row("swap_negative", lambda: swap_matrix(1, -1), "swap size must be >= 0"),
    row("unitary_float", lambda: random_unitary(2.0, 0), "dimension must be an integer, not 2.0"),
    row("unitary_zero", lambda: random_unitary(0, 0), "dimension must be >= 1"),
    row("isometry_float", lambda: random_isometry(2, 1.0, 0),
        "dimension must be an integer, not 1.0"),
    row("isometry_wide", lambda: random_isometry(1, 2, 0), "an isometry needs rows >= cols"),
    row("contraction_float", lambda: random_contraction(2.0, 2, 0),
        "dimensions must be an integer, not 2.0"),
    row("contraction_zero", lambda: random_contraction(2, 0, 0), "dimensions must be >= 1"),
    # trace
    row("max_terms_float", lambda: TraceConfig(max_terms=2.5),
        "max_terms must be an integer, not 2.5"),
    row("max_terms_zero", lambda: TraceConfig(max_terms=0), "max_terms must be >= 1"),
    row("axioms_seed_float", lambda: check_trace_axioms(0.5, 2),
        "seed must be an integer, not 0.5"),
    row("axioms_seed_negative", lambda: check_trace_axioms(-1, 2), "seed must be >= 0"),
    row("axioms_cases_float", lambda: check_trace_axioms(0, 2.0),
        "n_cases must be an integer, not 2.0"),
    row("axioms_cases_negative", lambda: check_trace_axioms(0, -1), "n_cases must be >= 0"),
    # lsi
    row("dtft_grid_float", lambda: dtft(KERNEL, 4.5), "grid size must be an integer, not 4.5"),
    row("dtft_grid_one", lambda: dtft(KERNEL, 1), "grid size must be >= 2"),
    row("semantics_grid_float", lambda: semantics(LOOP, 3.5),
        "grid size must be an integer, not 3.5"),
    row("semantics_grid_one", lambda: semantics(LOOP, 1), "grid size must be >= 2"),
    row("semantics_delay_float", lambda: semantics(Delay(1.5), 8),
        "delay must be an integer, not 1.5"),
    row("parseval_grid_float", lambda: parseval_norm(Signal(("a",), {0: [1]}), 4.5),
        "grid size must be an integer, not 4.5"),
    row("parseval_grid_one", lambda: parseval_norm(Signal(("a",), {0: [1]}), 1),
        "grid size must be >= 2"),
    row("lsi_ex_ports_float", lambda: lsi_ex(dtft(KERNEL, 8), 1.0),
        "loop_ports must be an integer, not 1.0"),
    row("lsi_ex_ports_zero", lambda: lsi_ex(dtft(KERNEL, 8), 0),
        "cannot loop 0 ports on shape (2, 2)"),
    row("signal_port_count", lambda: Signal(("a", "b"), {0: [1.0]}),
        "signal sample at t=0 has wrong port count"),
    row("response_grid_one", lambda: FrequencyResponse(np.zeros((1, 1, 1)), ("o",), ("i",)),
        "frequency grid needs at least 2 points"),
    # kappa
    row("B_size_float", lambda: GroverParams(16.5), "B_size must be an integer, not 16.5"),
    row("B_size_one", lambda: GroverParams(1), "B_size must be >= 2"),
    row("grover_seed_float", lambda: GroverParams(16, seed=1.5),
        "seed must be an integer, not 1.5"),
    row("grover_seed_negative", lambda: GroverParams(16, seed=-1), "seed must be >= 0"),
    row("max_iterations_float", lambda: GroverParams(16, max_iterations=2.5),
        "max_iterations must be an integer, not 2.5"),
    row("max_iterations_zero", lambda: GroverParams(16, max_iterations=0),
        "max_iterations must be >= 1"),
    row("recurrence_float", lambda: grover_recurrence(P, 2.5),
        "n_steps must be an integer, not 2.5"),
    row("recurrence_negative", lambda: grover_recurrence(P, -1), "n_steps must be >= 0"),
    row("angles_float", lambda: premeasurement_angles(P, 2.5),
        "n_steps must be an integer, not 2.5"),
    row("halting_negative", lambda: halting_probabilities(P, -1), "n_steps must be >= 0"),
    row("trials_float", lambda: grover_montecarlo(P, 2.5), "n_trials must be an integer, not 2.5"),
    row("trials_zero", lambda: grover_montecarlo(P, 0), "n_trials must be >= 1"),
    row("n_max_float", lambda: verify_guarantee(P, 2.5), "n_max must be an integer, not 2.5"),
    row("n_max_zero", lambda: verify_guarantee(P, 0), "n_max must be >= 1"),
    row("bound_B_float", lambda: grover_runtime_bound(2.5), "B must be an integer, not 2.5"),
    row("bound_B_zero", lambda: grover_runtime_bound(0), "B must be >= 1"),
    row("guarantee_f_float", lambda: guarantee_f(2.5, 16), "n must be an integer, not 2.5"),
    row("robustness_g_float", lambda: robustness_g(1.5), "n must be an integer, not 1.5"),
    row("predicate_float", lambda: KappaMeasurement(0.5, (0.5,)),
        "predicate must be an integer, not 0.5"),
    row("predicate_negative", lambda: KappaMeasurement(0.5, (-1,)), "predicate must be >= 0"),
    row("predicate_repeated", lambda: KappaMeasurement(0.5, (0, np.int64(0))),
        "predicate must be distinct nonnegative integer indices"),
    row("theta_kappa", lambda: theta(0.1, 1.5), "kappa must lie in [0, 1]"),
    # qwhile: check reports each node by its path, as the parser would by line and column
    row("check_delay_float", lambda: check(Delay(1.5)).errors,
        ["$: delay must be an integer, not 1.5"]),
    row("check_delay_negative", lambda: check(Delay(-1)).errors,
        ["$: delay must be nonnegative and below 2^63"]),
    row("check_feedback_float", lambda: check(DoWhile(LOOP.body, 1.0)).errors,
        ["$: loop feedback count must be an integer, not 1.0"]),
    row("check_feedback_zero", lambda: check(DoWhile(LOOP.body, 0)).errors,
        ["$: loop feedback count must be >= 1"]),
    row("check_nested_delay", lambda: check(Seq(Delay(0), Delay(2.5))).errors,
        ["$.seq[1]: delay must be an integer, not 2.5"]),
    # A parent's rule reads a loop's port counts; one that stands on a text
    # feedback count is left to that loop, which reports it at its own path.
    row("check_feedback_text_in_seq", lambda: check(Seq(DoWhile(LOOP.body, "1"), Delay(0))).errors,
        ["$.seq[0]: loop feedback count must be an integer, not '1'"]),
    row("check_feedback_text_in_loop", lambda: check(DoWhile(DoWhile(LOOP.body, "1"), 1)).errors,
        ["$.loop: loop feedback count must be an integer, not '1'"]),
]


@pytest.mark.parametrize("call, message", ROWS)
def test_refusal(call, message):
    if isinstance(message, list):
        assert call() == message
    else:
        with pytest.raises(LinalgError, match=f"^{re.escape(message)}$"):
            call()


def test_integer_kinds_pass_as_python_ints():
    assert [(type(v), v) for v in (as_int(np.int64(3), "n"), as_int(True, "n", 1))] == [
        (int, 3), (int, 1)]
    assert check_trace_axioms(np.int64(0), True).checks["yanking"].cases == 1
    assert ex(two_block(H, 1), "U", TraceConfig(max_terms=np.int64(500))).converged
    assert np.allclose(lsi_ex(dtft(KERNEL, np.uint8(8)), np.int64(1)).samples, 1.0, atol=1e-10)
    assert GroverParams(np.int64(16), seed=np.int32(1)).B_size.dtype == np.int64  # stored as given


def recount(node, kind):
    """The program with every delay and feedback count given as ``kind`` of it."""
    if isinstance(node, Delay):
        return Delay(kind(node.t))
    if isinstance(node, DoWhile):
        return DoWhile(recount(node.body, kind), kind(node.feedback))
    if isinstance(node, Unitary):
        return node
    first, second = (recount(getattr(node, f.name), kind) for f in dataclasses.fields(node))
    return type(node)(first, second)


KINDS = {"int64": np.int64, "bool": lambda n: bool(n) if n in (0, 1) else n, "float": float}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.qw")))
def test_a_checked_program_evaluates(name, kind):
    # check(p).ok implies semantics(p, 8) returns, with the parsed program's values.
    program = parse_source((CORPUS / f"{name}.qw").read_text()).program
    built = recount(program, KINDS[kind])
    if kind == "float":
        assert not check(built).ok
        with pytest.raises(LinalgError, match="must be an integer, not"):
            semantics(built, 8)
    else:
        assert check(built).ok
        assert semantics(built, 8).samples.tobytes() == semantics(program, 8).samples.tobytes()
