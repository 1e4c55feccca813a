"""Parser, static checker and denotational evaluator for qWhile.

A source file declares gates (``gate NAME = <matrix literal>``) and ends
with one s-expression program.  Programs denote frequency responses:
unitaries are frequency-constant, a delay multiplies by e^{-i w t},
sequencing composes pointwise, parallel composition is a direct sum, and
the do-while loop traces out its feedback ports at every frequency.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .linalg import LinalgError, classify, matrix_from_literal
from .lsi import DEFAULT_GRID, FrequencyResponse, _uniform_grid
from .trace import TraceConfig, _trace_core

__all__ = [
    "Delay",
    "DoWhile",
    "Par",
    "ParseError",
    "QWhileError",
    "Seq",
    "SourceFile",
    "Unitary",
    "WellFormedReport",
    "check",
    "parse",
    "parse_source",
    "semantics",
]

UNITARY_TOL = 1e-9


class QWhileError(ValueError):
    pass


class ParseError(QWhileError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Unitary:
    name: str
    matrix: np.ndarray

    @property
    def in_count(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_count(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Delay:
    t: int
    in_count: int = 1
    out_count: int = 1


@dataclass(frozen=True)
class Seq:
    first: "Node"
    second: "Node"

    @property
    def in_count(self) -> int:
        return self.first.in_count

    @property
    def out_count(self) -> int:
        return self.second.out_count


@dataclass(frozen=True)
class Par:
    left: "Node"
    right: "Node"

    @property
    def in_count(self) -> int:
        return self.left.in_count + self.right.in_count

    @property
    def out_count(self) -> int:
        return self.left.out_count + self.right.out_count


@dataclass(frozen=True)
class DoWhile:
    body: "Node"
    feedback: int

    @property
    def in_count(self) -> int:
        return self.body.in_count - self.feedback

    @property
    def out_count(self) -> int:
        return self.body.out_count - self.feedback


Node = Unitary | Delay | Seq | Par | DoWhile


# ---------------------------------------------------------------------------
# Parsing


@dataclass
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str, line0: int = 1) -> list[_Token]:
    tokens = []
    line, col = line0, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch in "()":
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(_Token(text[i:j], line, col))
            col += j - i
            i = j
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], gates: dict):
        self.tokens = tokens
        self.pos = 0
        self.gates = gates

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, what: str) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError(f"unexpected end of input, expected {what}", last.line, last.col)
        self.pos += 1
        return tok

    def _expect(self, text: str):
        tok = self._next(repr(text))
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)

    def parse_program(self) -> Node:
        node = self.parse_node()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return node

    def parse_node(self) -> Node:
        self._expect("(")
        head = self._next("a form head")
        if head.text == "gate":
            name = self._next("a gate name")
            if name.text not in self.gates:
                raise ParseError(f"unknown gate {name.text!r}", name.line, name.col)
            matrix = self.gates[name.text]
            if matrix.shape[0] != matrix.shape[1]:
                raise ParseError(
                    f"gate {name.text!r} matrix is not square", name.line, name.col
                )
            if classify(matrix, UNITARY_TOL) != "unitary":
                raise ParseError(
                    f"gate {name.text!r} matrix is not unitary at tolerance "
                    f"{UNITARY_TOL:g}",
                    name.line,
                    name.col,
                )
            node: Node = Unitary(name.text, matrix)
        elif head.text == "delay":
            t_tok = self._next("a delay value")
            try:
                t = int(t_tok.text)
            except ValueError:
                raise ParseError(f"delay wants an integer, got {t_tok.text!r}", t_tok.line, t_tok.col)
            if t < 0:
                raise ParseError("delay must be nonnegative", t_tok.line, t_tok.col)
            node = Delay(t)
        elif head.text == "seq":
            first = self.parse_node()
            second = self.parse_node()
            if first.out_count != second.in_count:
                raise ParseError(
                    f"seq mismatch: first produces {first.out_count} ports, "
                    f"second consumes {second.in_count}",
                    head.line,
                    head.col,
                )
            node = Seq(first, second)
        elif head.text == "par":
            node = Par(self.parse_node(), self.parse_node())
        elif head.text == "loop":
            body = self.parse_node()
            k_tok = self._next("a feedback port count")
            try:
                k = int(k_tok.text)
            except ValueError:
                raise ParseError(f"loop wants an integer, got {k_tok.text!r}", k_tok.line, k_tok.col)
            if k < 1:
                raise ParseError("loop feedback count must be >= 1", k_tok.line, k_tok.col)
            if k > min(body.in_count, body.out_count):
                raise ParseError(
                    f"loop feedback count {k} exceeds body ports "
                    f"({body.in_count} in / {body.out_count} out)",
                    k_tok.line,
                    k_tok.col,
                )
            node = DoWhile(body, k)
        else:
            raise ParseError(f"unknown form {head.text!r}", head.line, head.col)
        self._expect(")")
        return node


_GATE_LINE = re.compile(r"^\s*gate\s+([A-Za-z_][A-Za-z0-9_\-]*)\s*=\s*(.+)$")


@dataclass(frozen=True)
class SourceFile:
    gates: dict
    program: Node


def parse(text: str, gates: dict | None = None) -> Node:
    """Parse a bare program s-expression against a gate table."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty program", 1, 1)
    table = {name: np.asarray(m, dtype=np.complex128) for name, m in (gates or {}).items()}
    return _Parser(tokens, table).parse_program()


def parse_source(text: str) -> SourceFile:
    """Parse a full source file: gate declarations then one program."""
    gates: dict = {}
    program_lines = []
    program_start = 1
    in_program = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _GATE_LINE.match(line)
        if m and not in_program:
            name, literal = m.group(1), m.group(2)
            try:
                gates[name] = matrix_from_literal(json.loads(literal))
            except (json.JSONDecodeError, LinalgError) as e:
                raise ParseError(f"bad matrix literal for gate {name!r}: {e}", lineno, 1)
            continue
        if not in_program and line.strip() == "":
            continue
        if not in_program:
            in_program = True
            program_start = lineno
        program_lines.append(line)
    if not program_lines:
        raise ParseError("source file has no program expression", 1, 1)
    tokens = _tokenize("\n".join(program_lines), line0=program_start)
    program = _Parser(tokens, gates).parse_program()
    return SourceFile(gates, program)


# ---------------------------------------------------------------------------
# Static checking


@dataclass
class WellFormedReport:
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def check(p: Node, tol: float = UNITARY_TOL) -> WellFormedReport:
    """Re-validate every invariant of an AST, reporting violations with
    their path.  The parser enforces these already; this catches ASTs
    built programmatically."""
    report = WellFormedReport()

    def walk(node: Node, path: str):
        if isinstance(node, Unitary):
            if node.matrix.shape[0] != node.matrix.shape[1]:
                report.errors.append(f"{path}: gate matrix not square")
            elif classify(node.matrix, tol) != "unitary":
                report.errors.append(f"{path}: gate {node.name!r} not unitary")
        elif isinstance(node, Delay):
            if node.t < 0:
                report.errors.append(f"{path}: negative delay")
        elif isinstance(node, Seq):
            if node.first.out_count != node.second.in_count:
                report.errors.append(
                    f"{path}: seq arity mismatch "
                    f"({node.first.out_count} -> {node.second.in_count})"
                )
            walk(node.first, path + ".seq[0]")
            walk(node.second, path + ".seq[1]")
        elif isinstance(node, Par):
            walk(node.left, path + ".par[0]")
            walk(node.right, path + ".par[1]")
        elif isinstance(node, DoWhile):
            if node.feedback < 1 or node.feedback > min(
                node.body.in_count, node.body.out_count
            ):
                report.errors.append(f"{path}: bad loop feedback count {node.feedback}")
            walk(node.body, path + ".loop")
        else:
            report.errors.append(f"{path}: unknown node {type(node).__name__}")

    walk(p, "$")
    return report


# ---------------------------------------------------------------------------
# Denotational semantics


def semantics(
    p: Node, grid_size: int = DEFAULT_GRID, cfg: TraceConfig = TraceConfig()
) -> FrequencyResponse:
    """Structural recursion to per-frequency matrices on the uniform grid."""
    grid = _uniform_grid(grid_size)
    samples = _eval(p, grid, cfg)
    out_ports = tuple(f"out{i}" for i in range(p.out_count))
    in_ports = tuple(f"in{i}" for i in range(p.in_count))
    return FrequencyResponse(grid, samples, out_ports, in_ports)


def _eval(node: Node, grid: np.ndarray, cfg: TraceConfig) -> np.ndarray:
    n = grid.size
    if isinstance(node, Unitary):
        return np.broadcast_to(node.matrix, (n, *node.matrix.shape)).copy()
    if isinstance(node, Delay):
        return np.exp(-1j * grid * node.t).reshape(n, 1, 1)
    if isinstance(node, Seq):
        return _eval(node.second, grid, cfg) @ _eval(node.first, grid, cfg)
    if isinstance(node, Par):
        left = _eval(node.left, grid, cfg)
        right = _eval(node.right, grid, cfg)
        out = np.zeros(
            (n, left.shape[1] + right.shape[1], left.shape[2] + right.shape[2]),
            dtype=np.complex128,
        )
        out[:, : left.shape[1], : left.shape[2]] = left
        out[:, left.shape[1] :, left.shape[2] :] = right
        return out
    if isinstance(node, DoWhile):
        try:
            return _trace_core(_eval(node.body, grid, cfg), node.feedback, cfg)[0]
        except ArithmeticError as e:  # pragma: no cover - closure guarantees
            raise QWhileError(
                f"internal error: loop sample diverged at omega={grid[e.index]:.6f}: {e}"
            ) from e
    raise QWhileError(f"cannot evaluate node {type(node).__name__}")
