import inspect
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from extrace import trace
from extrace.linalg import LinalgError, random_unitary, two_block
from extrace.lsi import lsi_classify
from extrace.qwhile import (
    NESTING_CAP,
    Delay,
    DoWhile,
    Par,
    ParseError,
    Seq,
    Unitary,
    check,
    parse,
    parse_source,
    semantics,
)
from extrace.trace import SeriesDivergence, TraceConfig, ex
from reference import schur

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
GATES = {"H": HADAMARD, "X": np.array([[0.0, 1.0], [1.0, 0.0]])}


def test_parse_gate():
    node = parse("(gate H)", GATES)
    assert isinstance(node, Unitary)
    assert node.in_count == node.out_count == 2


def test_parse_delay_and_ports():
    node = parse("(delay 3)", GATES)
    assert node == Delay(3)
    assert node.in_count == 1


def test_parse_nested_loop_shape():
    node = parse("(loop (seq (gate H) (par (delay 0) (delay 1))) 1)", GATES)
    assert isinstance(node, DoWhile)
    assert node.feedback == 1
    assert node.in_count == node.out_count == 1
    assert isinstance(node.body, Seq)
    assert isinstance(node.body.second, Par)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("(gate Q)", "unknown gate"),
        ("(delay -1)", "nonnegative"),
        ("(delay x)", "integer"),
        ("(seq (gate H) (delay 0))", "seq mismatch"),
        ("(loop (gate H) 3)", "exceeds body ports"),
        ("(loop (gate H) 0)", ">= 1"),
        ("(frob 1)", "unknown form"),
        ("(gate H", "unexpected end"),
        ("(gate H) extra", "trailing"),
        ("", "empty"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text, GATES)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("text", ["(delay \u0663)", "(delay 1_0)", "(delay +5)", "(delay 0x1)",
                                  "(delay --1)", "(loop (gate H) \u0661)", "(delay 1.0)",
                                  "(delay " + "1" * 5000 + ")"], ids=lambda text: text[:24])
def test_integers_are_ascii_digits(text):
    # int() would read the Arabic-Indic digit, the underscore and the plus sign;
    # past 4,300 digits it refuses to convert at all.
    with pytest.raises(ParseError, match="wants an integer"):
        parse(text, GATES)
    assert parse("(delay 007)", GATES) == Delay(7)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("(seq (gate H)\n  (gate NOPE))", GATES)
    assert exc.value.line == 2
    assert exc.value.col == 9


@pytest.mark.parametrize(
    "space", ["\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000"],
    ids=["tab", "cr", "vt", "ff", "fs", "nel", "nbsp", "ideographic"],
)
def test_parse_error_counts_each_space_as_one_column(space):
    # Only a line feed ends a line; any other space is one column.
    with pytest.raises(ParseError) as exc:
        parse(f"(seq{space}(gate H)\n{space}{space}(gate{space}NOPE))", GATES)
    assert str(exc.value) == "2:9: unknown gate 'NOPE'"


@pytest.mark.parametrize("space", ["\t", "\xa0", "\u3000"], ids=["tab", "nbsp", "ideographic"])
def test_source_parse_error_counts_lines_from_the_program(space):
    text = f"gate X = [[[0,0],[1,0]],[[1,0],[0,0]]]\n\n(seq{space}(gate X)\n{space}(gate NOPE))"
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert str(exc.value) == "4:8: unknown gate 'NOPE'"


def test_non_unitary_gate_rejected():
    with pytest.raises(ParseError, match="not unitary"):
        parse("(gate C)", {"C": 0.5 * np.eye(2)})


@pytest.mark.parametrize("gate, fragment", [
    ([[math.nan, 0.0], [0.0, 1.0]], "non-finite entries"),
    ([1.0, 2.0], "expected a 2-D matrix"),
])
def test_parse_refuses_a_gate_that_is_not_a_finite_matrix(gate, fragment):
    # The gate table takes the check parse_source's literals take.
    with pytest.raises(LinalgError, match=fragment):
        parse("(gate G)", {"G": gate})


def test_parse_source_gate_table():
    text = 'gate I2 = [[[1,0],[0,0]],[[0,0],[1,0]]]\n\n(gate I2)\n'
    src = parse_source(text)
    assert "I2" in src.gates
    assert np.allclose(src.gates["I2"], np.eye(2))


def test_parse_source_bad_literal():
    with pytest.raises(ParseError, match="bad matrix literal"):
        parse_source("gate G = [[1,2]]\n(gate G)")


@pytest.mark.parametrize(
    "literal,fragment",
    [("[[[" + "1" * 5000 + ", 0]]]", "4300 digits"),
     ("[" * 100000, "maximum recursion depth")],
    ids=["long_integer", "deep"],
)
def test_parse_source_literal_json_cannot_decode(literal, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_source(f"\ngate G = {literal}\n(gate G)")
    assert (exc.value.line, exc.value.col) == (2, 1)
    assert "bad matrix literal for gate 'G'" in str(exc.value)


def test_parse_source_refuses_a_gate_declared_twice():
    text = "gate H = [[[1,0]]]\ngate K = [[[1,0]]]\ngate H = [[[-1,0]]]\n(gate H)"
    with pytest.raises(ParseError, match="gate 'H' is declared twice") as exc:
        parse_source(text)
    assert (exc.value.line, exc.value.col) == (3, 1)


def levels(text):
    """The nesting level after each character of a program."""
    return itertools.accumulate((c == "(") - (c == ")") for c in text)


def nested(form, depth):
    """A program whose forms nest ``depth`` deep through ``form``, a template
    whose {} is the next form in, adding one or two levels."""
    step = form[: form.index("{}")].count("(")
    text = ["(delay 1)", "(seq (delay 1) (delay 0))"][(depth - 1) % step]
    while max(levels(text)) < depth:
        text = form.format(text)
    return text


NESTINGS = {"seq_first": "(seq {} (delay 0))", "seq_second": "(seq (delay 0) {})",
            "par_left": "(par {} (delay 0))", "par_right": "(par (delay 0) {})",
            "loop": "(loop (par {} (delay 1)) 1)"}


@pytest.mark.parametrize("form", NESTINGS.values(), ids=NESTINGS.keys())
def test_nesting_cap_refuses_one_level_more(form):
    text = nested(form, NESTING_CAP + 1)
    # The column of the first form one level past the cap, in reading order.
    col = next(i for i, level in enumerate(levels(text), start=1) if level > NESTING_CAP)
    with pytest.raises(ParseError, match=f"forms nest deeper than {NESTING_CAP}") as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (1, col)


@pytest.mark.parametrize("form", NESTINGS.values(), ids=NESTINGS.keys())
def test_semantics_evaluates_every_program_at_the_nesting_cap(form):
    # Within 500 frames of its caller: half of Python's default limit.
    program = parse(nested(form, NESTING_CAP))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 500)
    try:
        response = semantics(program, 8)
    finally:
        sys.setrecursionlimit(limit)
    assert response.samples.shape == (8, program.out_count, program.in_count)


def test_nesting_cap_stops_the_parser_before_its_own_recursion():
    with pytest.raises(ParseError, match="forms nest deeper than"):
        parse("(seq " * 5000 + "(delay 0)")


def test_delay_is_an_int64():
    # At 2^63 - 1 the phase is finite; 10**400 used to overflow it.
    assert semantics(parse(f"(delay {2**63 - 1})"), 8).samples.shape == (8, 1, 1)
    with pytest.raises(ParseError, match=r"delay must be nonnegative and below 2\^63"):
        parse(f"(delay {2**63})")


def test_check_flags_programmatic_breakage():
    bad = Seq(Delay(0), Unitary("H", HADAMARD))
    report = check(bad)
    assert not report.ok
    assert any("arity mismatch" in e for e in report.errors)


def test_check_passes_corpus():
    for path in sorted(CORPUS.glob("*.qw")):
        src = parse_source(path.read_text())
        assert check(src.program).ok, path.name



X = GATES["X"]
H = Unitary("H", HADAMARD)


@pytest.mark.parametrize(
    "source,gates,line,col,ast,path,fragment",
    [
        ("(par (delay 0)\n  (gate R))", {"R": np.ones((1, 2))}, 2, 9,
         Par(Delay(0), Unitary("R", np.ones((1, 2)))), "$.par[1]", "not square"),
        ("(seq (gate H)\n     (gate C))", {"C": 0.5 * np.eye(2)}, 2, 12,
         Seq(H, Unitary("C", 0.5 * np.eye(2))), "$.seq[1]", "not unitary"),
        ("(loop (par (gate X)\n  (delay -2)) 1)", {}, 2, 10,
         DoWhile(Par(Unitary("X", X), Delay(-2)), 1), "$.loop.par[1]", "nonnegative"),
        ("(par (gate X)\n  (seq (gate H) (delay 0)))", {}, 2, 4,
         Par(Unitary("X", X), Seq(H, Delay(0))), "$.par[1]", "arity mismatch"),
        ("(loop (gate X) 0)", {}, 1, 16, DoWhile(Unitary("X", X), 0), "$", ">= 1"),
        ("(par (delay 1)\n  (loop (delay 0) 2))", {}, 2, 19,
         Par(Delay(1), DoWhile(Delay(0), 2)), "$.par[1]", "exceeds body ports"),
    ],
    ids=["square", "unitary", "delay", "seq", "loop_low", "loop_high"],
)
def test_parser_and_check_share_each_rule(source, gates, line, col, ast, path, fragment):
    with pytest.raises(ParseError) as exc:
        parse(source, {**GATES, **gates})
    errors = check(ast).errors
    assert len(errors) == 1 and errors[0].startswith(f"{path}: ")
    message = errors[0][len(path) + 2 :]
    assert fragment in message
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


def test_delay_ports_are_not_fields():
    with pytest.raises(TypeError):
        Delay(0, 2, 2)
    assert Delay(5).in_count == Delay(5).out_count == 1


class TestSemantics:
    def test_gate_is_constant(self):
        r = semantics(parse("(gate H)", GATES), 16)
        assert np.allclose(r.samples, HADAMARD)

    def test_delay_is_phase(self):
        r = semantics(parse("(delay 2)", GATES), 32)
        assert np.allclose(r.samples[:, 0, 0], np.exp(-2j * r.grid))

    def test_seq_is_pointwise_composition(self):
        p = parse("(seq (gate H) (gate X))", GATES)
        r = semantics(p, 16)
        assert np.allclose(r.samples, GATES["X"] @ HADAMARD)

    def test_par_is_direct_sum(self):
        p = parse("(par (gate H) (delay 1))", GATES)
        r = semantics(p, 16)
        assert r.samples.shape == (16, 3, 3)
        assert np.allclose(r.samples[:, :2, :2], HADAMARD)
        assert np.allclose(r.samples[:, 2, 2], np.exp(-1j * r.grid))
        assert np.allclose(r.samples[:, :2, 2], 0.0)

    def test_loop_with_swap_body_is_identity(self):
        r = semantics(parse("(loop (gate X) 1)", GATES), 16)
        assert np.allclose(r.samples, 1.0, atol=1e-10)

    def test_unconverged_loop_sample_raises(self):
        # A non-unitary gate built in code: f_UU = 1, so every loop sample's
        # series runs to max_terms without converging.
        p = DoWhile(Unitary("G", np.array([[0.0, 1.0], [1.0, 1.0]])), 1)
        with pytest.raises(SeriesDivergence, match=r"^loop trace failed at omega=0\.000000: series "
                           r"did not converge in 500 terms \(last term 1\.000e\+00\)$"):
            semantics(p, 4, TraceConfig(max_terms=500))

    def test_loop_near_resonance_raises_series_divergence(self):
        # R rotates by t = 0.01, so at omega = 0 the loop block is cos t and
        # the series needs about 4.6e5 terms, beyond max_terms: the trace
        # core's own error reaches the caller, its omega first.
        t = 0.01
        rotation = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        p = parse("(loop (seq (par (delay 0) (delay 1)) (gate R)) 1)", {"R": rotation})
        with pytest.raises(SeriesDivergence, match=r"^loop trace failed at omega=0\.000000: "
                           r"series failed to converge on a contraction input"):
            semantics(p, 64)

    def test_two_port_loop_matches_exact_trace(self, monkeypatch):
        # Delays 0, 1 and 2 then a 3x3 unitary G, two ports fed back: the body
        # sample is G diag(e^{-i w t}), and each loop sample is its exact trace
        # over the last two ports.  Every sample takes both routes; the loop
        # block is 2x2, so the one-port block series is not used, while the
        # same body with one port fed back uses it.
        g = random_unitary(3, 0)
        body = "(seq (par (delay 0) (par (delay 1) (delay 2))) (gate G))"
        r = semantics(parse(f"(loop {body} 2)", {"G": g}), 32)
        assert r.samples.shape == (32, 1, 1)
        for omega, sample in zip(r.grid, r.samples):
            m = g @ np.diag(np.exp(-1j * omega * np.arange(3)))
            assert ex(two_block(m, 2), "U").method == "both_agree"
            assert abs(sample[0, 0] - schur(m, 2)[0, 0]) <= 1e-12
        calls = []
        one_port = trace._one_port_series
        monkeypatch.setattr(trace, "_one_port_series", lambda *a: calls.append(1) or one_port(*a))
        for k in (2, 1):
            semantics(parse(f"(loop {body} {k})", {"G": g}), 32)
            assert len(calls) == 2 - k

    def test_delay_zero_needs_matching_arity(self):
        # (delay 0) is a single-wire primitive; it cannot be wedged after
        # a two-port gate
        with pytest.raises(ParseError, match="seq mismatch"):
            parse("(seq (seq (gate H) (delay 0)) (gate X))", GATES)

    def test_delay_zero_on_single_wire(self):
        plain = parse("(loop (gate X) 1)", GATES)
        padded = parse("(seq (loop (gate X) 1) (delay 0))", GATES)
        a = semantics(plain, 16).samples
        b = semantics(padded, 16).samples
        assert np.allclose(a, b, atol=1e-12)

    def test_compositionality_on_random_pairs(self):
        rng = np.random.default_rng(6)
        from extrace.linalg import random_unitary

        for seed in range(5):
            u = random_unitary(3, rng)
            v = random_unitary(3, rng)
            gates = {"U": u, "V": v}
            whole = semantics(parse("(seq (gate U) (gate V))", gates), 16).samples
            left = semantics(parse("(gate U)", gates), 16).samples
            right = semantics(parse("(gate V)", gates), 16).samples
            assert np.max(np.abs(whole - right @ left)) < 1e-12

    def test_corpus_closed_form(self):
        src = parse_source((CORPUS / "hadamard_delay_loop.qw").read_text())
        r = semantics(src.program, 128)
        h = src.gates["H"]
        z = np.exp(-1j * r.grid)
        oracle = h[0, 0] + h[0, 1] * z * h[1, 0] / (1 - h[1, 1] * z)
        assert np.max(np.abs(r.samples[:, 0, 0] - oracle)) < 1e-9

    def test_corpus_all_contractions(self):
        for path in sorted(CORPUS.glob("*.qw")):
            src = parse_source(path.read_text())
            r = semantics(src.program, 64)
            assert lsi_classify(r) == "lsi_contraction", path.name
