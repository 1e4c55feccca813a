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
from typing import ClassVar

import numpy as np

from . import lsi, trace
from .linalg import (DEFAULT_TOL, LinalgError, as_int, as_matrix, classify, direct_sum,
                     int_from_text, matrix_from_literal)

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


# Deepest nesting of forms the parser accepts.  semantics takes about two
# Python frames a level (_eval and the port-count properties), so a program at
# the cap needs some 400 of Python's default 1000, and its caller has the rest.
NESTING_CAP = 200


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
    in_count: ClassVar[int] = 1
    out_count: ClassVar[int] = 1


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
        return self.body.in_count - as_int(self.feedback, "loop feedback count")

    @property
    def out_count(self) -> int:
        return self.body.out_count - as_int(self.feedback, "loop feedback count")


Node = Unitary | Delay | Seq | Par | DoWhile


# ---------------------------------------------------------------------------
# Parsing


@dataclass
class _Token:
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"[()]|[^\s()]+")  # \s is str.isspace on every code point


def _tokenize(text: str, line0: int = 1) -> list[_Token]:
    """Parentheses and the words between them, by line and column; only a
    line feed ends a line."""
    return [_Token(m.group(), line, m.start() + 1)
            for line, row in enumerate(text.split("\n"), start=line0)
            for m in _TOKEN.finditer(row)]


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

    def _integer(self, form: str, what: str) -> tuple[int, _Token]:
        tok = self._next(what)
        try:
            return int_from_text(tok.text, what), tok
        except ValueError:  # LinalgError, or more digits than int() converts
            raise ParseError(f"{form} wants an integer, got {tok.text!r}", tok.line,
                             tok.col) from None

    def parse_node(self, depth: int = 1) -> Node:
        self._expect("(")
        if depth > NESTING_CAP:
            at = self.tokens[self.pos - 1]
            raise ParseError(f"forms nest deeper than {NESTING_CAP}", at.line, at.col)
        head = at = self._next("a form head")
        if head.text == "gate":
            at = self._next("a gate name")
            if at.text not in self.gates:
                raise ParseError(f"unknown gate {at.text!r}", at.line, at.col)
            node: Node = Unitary(at.text, self.gates[at.text])
        elif head.text == "delay":
            t, at = self._integer("delay", "a delay value")
            node = Delay(t)
        elif head.text == "seq":
            node = Seq(self.parse_node(depth + 1), self.parse_node(depth + 1))
        elif head.text == "par":
            node = Par(self.parse_node(depth + 1), self.parse_node(depth + 1))
        elif head.text == "loop":
            body = self.parse_node(depth + 1)
            k, at = self._integer("loop", "a feedback port count")
            node = DoWhile(body, k)
        else:
            raise ParseError(f"unknown form {head.text!r}", head.line, head.col)
        error = _node_error(node)
        if error is not None:
            raise ParseError(error, at.line, at.col)
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
    table = {name: as_matrix(m) for name, m in (gates or {}).items()}
    return _Parser(tokens, table).parse_program()


def parse_source(text: str) -> SourceFile:
    """Parse a full source file: gate declarations then one program."""
    gates: dict = {}
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = _GATE_LINE.match(line)
        if m:
            name, literal = m.group(1), m.group(2)
            if name in gates:
                raise ParseError(f"gate {name!r} is declared twice", lineno, 1)
            try:
                gates[name] = matrix_from_literal(json.loads(literal))
            except (ValueError, RecursionError) as e:  # bad JSON is a ValueError, as LinalgError is
                raise ParseError(f"bad matrix literal for gate {name!r}: {e}", lineno, 1)
        elif line.strip():
            break
    else:
        raise ParseError("source file has no program expression", 1, 1)
    tokens = _tokenize("\n".join(lines[lineno - 1:]), line0=lineno)
    return SourceFile(gates, _Parser(tokens, gates).parse_program())


# ---------------------------------------------------------------------------
# Static checking


def _node_error(node: Node) -> str | None:
    """The first static rule that node itself breaks, or None.  Only the
    node is judged; its children count by their port counts alone.  A rule
    on a child's count that stands on a feedback count that is not an
    integer is not judged: that loop reports it at its own path."""
    try:  # as_int refuses a delay or feedback count that is not an integer, or below 1
        if isinstance(node, Unitary):
            if node.matrix.shape[0] != node.matrix.shape[1]:
                return f"gate {node.name!r} matrix is not square"
            if classify(node.matrix) != "unitary":
                return f"gate {node.name!r} matrix is not unitary at tolerance {DEFAULT_TOL:g}"
        elif isinstance(node, Delay):
            if not 0 <= as_int(node.t, "delay") < 2**63:  # an int64: e^{-i w t} is a float
                return "delay must be nonnegative and below 2^63"
        elif isinstance(node, DoWhile):
            k = as_int(node.feedback, "loop feedback count", 1)
        elif not isinstance(node, (Seq, Par)):
            return f"unknown node {type(node).__name__}"
    except LinalgError as e:
        return str(e)
    try:  # a child's count raises here if it stands on a feedback count that is not an integer
        if isinstance(node, Seq) and node.first.out_count != node.second.in_count:
            return (f"seq mismatch (arity mismatch): first produces {node.first.out_count} "
                    f"ports, second consumes {node.second.in_count}")
        if isinstance(node, DoWhile) and k > min(node.body.in_count, node.body.out_count):
            return (f"loop feedback count {k} exceeds body ports "
                    f"({node.body.in_count} in / {node.body.out_count} out)")
    except LinalgError:
        pass
    return None


def _children(node: Node) -> list:
    """(path step, child) for each child of a node, in order."""
    if isinstance(node, Seq):
        return [(".seq[0]", node.first), (".seq[1]", node.second)]
    if isinstance(node, Par):
        return [(".par[0]", node.left), (".par[1]", node.right)]
    return [(".loop", node.body)] if isinstance(node, DoWhile) else []


@dataclass
class WellFormedReport:
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def check(p: Node) -> WellFormedReport:
    """Validate an AST built in code by the parser's rules, reporting each
    violation prefixed with its path.  Parsed programs have passed already."""
    report = WellFormedReport()

    def walk(node: Node, path: str):
        error = _node_error(node)
        if error is not None:
            report.errors.append(f"{path}: {error}")
        for step, child in _children(node):
            walk(child, path + step)

    walk(p, "$")
    return report


# ---------------------------------------------------------------------------
# Denotational semantics


def semantics(
    p: Node, grid_size: int | None = None, cfg: trace.TraceConfig | None = None
) -> lsi.FrequencyResponse:
    """Structural recursion to per-frequency matrices on the uniform grid.
    grid_size defaults to lsi.DEFAULT_GRID and cfg to TraceConfig()."""
    grid = lsi._uniform_grid(lsi.DEFAULT_GRID if grid_size is None else grid_size, _widest(p))
    cfg = trace.TraceConfig() if cfg is None else cfg
    samples = _eval(p, grid, cfg)
    out_ports = tuple(f"out{i}" for i in range(p.out_count))
    in_ports = tuple(f"in{i}" for i in range(p.in_count))
    return lsi.FrequencyResponse(samples, out_ports, in_ports)


def _widest(node: Node) -> int:
    """The most out x in entries of any node, loop bodies included: the grid
    cap's count, since every node's samples are built."""
    return max([node.out_count * node.in_count, *(_widest(c) for _, c in _children(node))])


def _eval(node: Node, grid: np.ndarray, cfg: trace.TraceConfig) -> np.ndarray:
    n = grid.size
    if isinstance(node, Unitary):
        return np.broadcast_to(node.matrix, (n, *node.matrix.shape)).copy()
    if isinstance(node, Delay):
        return np.exp(-1j * grid * as_int(node.t, "delay")).reshape(n, 1, 1)
    if isinstance(node, Seq):
        return _eval(node.second, grid, cfg) @ _eval(node.first, grid, cfg)
    if isinstance(node, Par):
        return direct_sum(_eval(node.left, grid, cfg), _eval(node.right, grid, cfg))
    if isinstance(node, DoWhile):
        body = _eval(node.body, grid, cfg)
        # Ports numbered from the end, so the trailing loop ports match.
        outs, ins = (tuple(range(-n, 0)) for n in body.shape[1:])
        return lsi.lsi_ex(lsi.FrequencyResponse(body, outs, ins), node.feedback, cfg).samples
    raise QWhileError(f"cannot evaluate node {type(node).__name__}")
