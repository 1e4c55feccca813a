"""Dense complex linear algebra primitives shared by the trace engine.

Matrices are plain ``numpy.ndarray`` of dtype complex128 in row-major
order.  Everything here is a pure function over immutable inputs; the
only stateful object is the caller-supplied RNG seed.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

__all__ = [
    "LinalgError",
    "Partition",
    "PartitionedMap",
    "adjoint",
    "as_int",
    "as_matrix",
    "classify",
    "direct_sum",
    "matrix_from_literal",
    "matrix_to_literal",
    "operator_norm",
    "random_contraction",
    "random_isometry",
    "random_unitary",
    "swap_matrix",
]

DEFAULT_TOL = 1e-9  # the one contraction / isometry / unitarity tolerance of the engine
PINV_CUTOFF = 1e-10  # the absolute cutoff of stack_pinv: singular values at or below it are zeros
CSV_CHUNK_ROWS = 1 << 12  # rows per write: at most about 0.3 MiB of CSV text at once


class LinalgError(ValueError):
    """Raised on malformed matrices, unknown labels or failed numerical
    checks: the malformed-input error, which the CLI maps to exit 2."""


def as_int(value, what: str, low: int | None = None) -> int:
    """An integer as a Python int, at least ``low`` if given; bool and
    np.integer pass.  int() would truncate 1.5 and read "3", so neither
    passes here: the one integer check of the engine."""
    if not isinstance(value, (int, np.integer)):
        raise LinalgError(f"{what} must be an integer, not {value!r}")
    if low is not None and value < low:
        raise LinalgError(f"{what} must be >= {low}")
    return int(value)


def int_from_text(text: str, what: str) -> int:
    """An integer written as text, ASCII -?[0-9]+: int() would also take "+5",
    "1_0", " 7 " and non-ASCII digits.  Past 4,300 digits int() raises ValueError."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise LinalgError(f"{what} must be an integer, not {text!r}")
    return int(text)


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D complex matrix, rejecting other ranks and NaN/Inf entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise LinalgError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise LinalgError("matrix contains non-finite entries")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(m.T)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value; zero for an empty matrix, inf for one with an inf or NaN entry."""
    return float(stack_norms(m))


def stack_norms(m: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix in a stack; zero for empty matrices, and
    inf without an SVD for one with an inf or NaN entry.  A 1x1 matrix's is
    the modulus of its entry, without an SVD: by hypot, which is within an
    ulp where np.abs of a complex array may be two off."""
    if m.size == 0:
        return np.zeros(m.shape[:-2])
    finite = np.isfinite(m).all(axis=(-2, -1))
    if m.shape[-2:] == (1, 1):
        return np.where(finite, np.hypot(m.real[..., 0, 0], m.imag[..., 0, 0]), math.inf)
    if not finite.all():  # numpy's SVD of such a matrix gives NaN or raises
        norm = np.full(finite.shape, math.inf)
        norm[finite] = stack_norms(m[finite])
        return norm
    return np.max(np.linalg.svd(m, compute_uv=False), axis=-1)


def fro_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack: np.linalg.norm's formula, without its checks."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=(-2, -1)))


@np.errstate(over="ignore", invalid="ignore")  # a divisor near the float range may overflow
def stack_pinv(m: np.ndarray) -> np.ndarray:
    """Pseudoinverse of each matrix in a stack: singular values at or below
    PINV_CUTOFF count as zeros, in every shape.  A 1x1 matrix's is numpy's
    complex reciprocal where np.abs is above it and 0 elsewhere, without an
    SVD.  Any other shape takes one SVD and is built as np.linalg.pinv builds
    it, so the two agree bit for bit at numpy's rcond PINV_CUTOFF / sigma_max."""
    if m.shape[-2:] == (1, 1):
        return np.divide(1, m, where=np.abs(m) > PINV_CUTOFF, out=np.zeros_like(m))
    u, s, vt = np.linalg.svd(m.conj(), full_matrices=False)
    s = np.divide(1, s, where=s > PINV_CUTOFF, out=np.zeros_like(s))
    return np.matmul(np.swapaxes(vt, -1, -2), s[..., None] * np.swapaxes(u, -1, -2))


def bracket_norms(m: np.ndarray, lo, hi, fro=None) -> np.ndarray:
    """Operator norms of a stack for tests against a tolerance, each matrix
    judged alone, by an SVD only where needed.  Two brackets show a norm
    surely below ``lo`` (an upper bound of it stands in) or surely above
    ``hi`` (inf stands in): ||m||_F / sqrt(rank) <= ||m|| <= ||m||_F with
    1e-9 margins and, where that leaves it open, ||G||_F <= ||y|| <=
    sqrt(max row sum of |G|) for y = m / ||m||_F and G its smaller Gram
    matrix (exact for rank one; Gershgorin), but neither on a nonzero m
    whose squares may have left the float range, ||m||_F NaN, inf or at most
    1e-150.  Every other entry takes its exact norm.  ``lo`` 0 or ``hi`` inf
    keeps that side exact.  ``fro`` passes Frobenius norms already taken."""
    if fro is None:
        with np.errstate(over="ignore", invalid="ignore"):  # a square past the float range is inf
            fro = fro_norms(m)
    root = math.sqrt(min(m.shape[-2:]))
    above = fro > hi * root * (1 + 1e-9)
    odd = ~((fro > 1e-150) & (fro < math.inf))  # squares may have left the float range
    if odd.any():
        odd &= m.any(axis=(-2, -1))
    exact = odd | ~(above | (fro < lo * (1 - 1e-9)))
    norm = np.where(above, math.inf, fro)
    if not exact.any():
        return norm
    # Within the first bracket, the Gram one decides only where ||m||_F / sqrt(rank) < lo
    # or ||m||_F > hi; its margin keeps a unitary of up to 256 dims below 1 + DEFAULT_TOL.
    eps = 8 * sum(m.shape[-2:]) ** 2 * 2.0**-53
    gram = np.flatnonzero(exact & ~odd & ((fro < lo * root * (1 - eps)) | (fro > hi * (1 + eps))))
    if gram.size:
        lo, hi, f = (v[gram] if np.ndim(v) else v for v in (lo, hi, fro))
        y = (m[gram] if gram.size < fro.size else m) / f[:, None, None]  # ||y||_F = 1
        yh = y.conj().swapaxes(-1, -2)
        g = np.abs(y @ yh if y.shape[-2] <= y.shape[-1] else yh @ y)
        g_lo = f * np.sqrt((g * g).sum(axis=(-2, -1))) * (1 - eps)
        g_hi = f * np.sqrt(g.sum(axis=-1).max(axis=-1)) * (1 + eps)
        g_above = g_lo > hi * (1 + eps)
        norm[gram] = np.where(g_above, math.inf, g_hi)
        exact[gram] = ~(g_above | (g_hi < lo * (1 - eps)))
    if exact.any():
        norm[exact] = stack_norms(m[exact])
    return norm


def classify(m: np.ndarray, tol: float = DEFAULT_TOL) -> str:
    """Classify into strict_contraction / contraction_boundary / isometry /
    unitary / expansion, with precedence unitary > isometry > the rest.

    One SVD settles every test: ||m^H m - id|| = max |s_i^2 - 1| over the
    singular values padded with zeros to the column count, and for a
    square m the same values give ||m m^H - id||."""
    if tol <= 0:
        raise LinalgError("tol must be positive")
    rows, cols = np.shape(m)
    s = np.linalg.svd(m, compute_uv=False)
    if np.max(np.abs(np.pad(s, (0, cols - s.size)) ** 2 - 1.0), initial=0.0) <= tol:
        return "unitary" if rows == cols else "isometry"
    norm = np.max(s, initial=0.0)
    if norm <= 1.0 + tol:
        if norm < 1.0 - tol:
            return "strict_contraction"
        return "contraction_boundary"
    return "expansion"


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal a (+) b of two matrices, or of two stacks with the same leading axes."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    *lead, rows, cols = a.shape
    out = np.zeros((*lead, rows + b.shape[-2], cols + b.shape[-1]), dtype=np.complex128)
    out[..., :rows, :cols] = a
    out[..., rows:, cols:] = b
    return out


def swap_matrix(n: int, m: int) -> np.ndarray:
    """The braiding C^n (+) C^m -> C^m (+) C^n."""
    n, m = as_int(n, "swap size", 0), as_int(m, "swap size", 0)
    out = np.zeros((n + m, n + m), dtype=np.complex128)
    out[:m, n:] = np.eye(m)
    out[m:, :n] = np.eye(n)
    return out


def as_labels(value, what: str) -> tuple:
    """A list or tuple of labels as a tuple.  A string would pass as its
    letters and a mapping as its keys, so neither is taken."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    kind = "a string" if isinstance(value, str) else type(value).__name__
    raise LinalgError(f"{what} must be a sequence of labels, not {kind}")


@dataclass(frozen=True)
class Partition:
    """Named split of a dimension into consecutive blocks.

    Zero-sized blocks are legal; they model the zero object and show up
    when tracing over a trivial loop.
    """

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", as_labels(self.names, "partition names"))
        object.__setattr__(self, "sizes", tuple(as_int(s, "partition size", 0) for s in self.sizes))
        if len(self.names) != len(self.sizes):
            raise LinalgError("partition names and sizes differ in length")
        if len(set(self.names)) != len(self.names):
            raise LinalgError("partition names must be distinct")

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            raise LinalgError(f"unknown block label {label!r}") from None

    def span(self, label: str) -> tuple[int, int]:
        """Half-open index range of the named block."""
        i = self.index(label)
        start = sum(self.sizes[:i])
        return start, start + self.sizes[i]

    def to_json(self) -> dict:
        return {"names": list(self.names), "sizes": list(self.sizes)}

    @classmethod
    def from_json(cls, obj) -> "Partition":
        return cls(obj["names"], tuple(obj["sizes"]))


@dataclass(frozen=True)
class PartitionedMap:
    """A matrix together with named row/column block structure."""

    matrix: np.ndarray
    row_partition: Partition
    col_partition: Partition

    def __post_init__(self):
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != self.row_partition.total:
            raise LinalgError(
                f"matrix has {m.shape[0]} rows but row partition totals "
                f"{self.row_partition.total}"
            )
        if m.shape[1] != self.col_partition.total:
            raise LinalgError(
                f"matrix has {m.shape[1]} cols but col partition totals "
                f"{self.col_partition.total}"
            )

    def to_json(self) -> dict:
        return {
            "matrix": matrix_to_literal(self.matrix),
            "row_partition": self.row_partition.to_json(),
            "col_partition": self.col_partition.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "PartitionedMap":
        return cls(
            matrix_from_literal(obj["matrix"]),
            Partition.from_json(obj["row_partition"]),
            Partition.from_json(obj["col_partition"]),
        )


def two_block(matrix, loop_dim: int) -> PartitionedMap:
    """Partition a square-on-the-loop matrix into rows ("B", "U") and
    columns ("A", "U"), the loop block "U" taking the trailing ``loop_dim``
    rows and columns."""
    m = as_matrix(matrix)
    rows, cols = m.shape
    if not 0 <= as_int(loop_dim, "loop dimension") <= min(rows, cols):
        raise LinalgError(f"loop dimension {loop_dim} does not fit shape {m.shape}")
    return PartitionedMap(
        m,
        Partition(("B", "U"), (rows - loop_dim, loop_dim)),
        Partition(("A", "U"), (cols - loop_dim, loop_dim)),
    )


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    n = as_int(n, "dimension", 1)
    rng = _rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_isometry(rows: int, cols: int, seed) -> np.ndarray:
    if as_int(rows, "dimension", 1) < as_int(cols, "dimension", 0):
        raise LinalgError("an isometry needs rows >= cols")
    return random_unitary(rows, seed)[:, :cols]


def random_contraction(rows: int, cols: int, seed) -> np.ndarray:
    """Gaussian matrix rescaled to a uniformly drawn operator norm in [0, 1]."""
    draws = []
    z = draw_contraction(rows, cols, seed, draws)
    rescale_draws(draws)
    return z


def draw_contraction(rows: int, cols: int, seed, draws: list) -> np.ndarray:
    """random_contraction's Gaussian matrix, drawn in its order and put on
    ``draws`` with its target norm, for rescale_draws to rescale in place."""
    rows, cols = as_int(rows, "dimensions", 1), as_int(cols, "dimensions", 1)
    rng = _rng(seed)
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    draws.append((z, rng.uniform(0.0, 1.0)))
    return z


def rescale_draws(draws: list) -> None:
    """Rescale each drawn matrix to its target norm by one SVD per shape; a zero matrix stays."""
    for (z, target), norm in zip(draws, grouped_norms([z for z, _ in draws])):
        if norm != 0.0:
            z *= target / norm


def grouped_norms(mats) -> list:
    """Operator norm of each matrix in a list of mixed shapes, by one stacked SVD per shape."""
    groups, norms = {}, np.empty(len(mats))
    for i, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(i)
    for idx in groups.values():
        norms[idx] = stack_norms(np.stack([mats[i] for i in idx]))
    return norms.tolist()


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Matrix literal format: JSON array-of-arrays of [re, im] pairs.

def matrix_to_literal(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_literal(obj) -> np.ndarray:
    """Rows of [re, im] pairs of numbers within the float range, as a matrix."""
    if not isinstance(obj, list):
        raise LinalgError("matrix literal must be a JSON array of rows")
    if not all(map(isinstance, obj, repeat(list))):
        raise LinalgError("matrix literal row must be an array")
    if len(set(map(len, obj))) > 1:
        raise LinalgError("ragged matrix literal")
    entries = list(chain.from_iterable(obj))
    if not (all(map(isinstance, entries, repeat(list))) and set(map(len, entries)) <= {2}):
        raise LinalgError("matrix entries must be [re, im] pairs")
    try:  # array("d") checks and converts in one pass: it takes ints, floats and bools
        flat = array("d", list(chain.from_iterable(entries)))
    except TypeError:
        raise LinalgError("matrix entries must be numbers") from None
    except OverflowError:
        raise LinalgError("matrix entries must be within the float range") from None
    return as_matrix(np.frombuffer(flat, np.complex128).reshape(len(obj), -1 if obj else 0))


def write_csv(path, header: str, row_format: str, columns) -> None:
    """Write a CSV file as the standard library's default dialect does
    (comma-separated, CRLF line ends; the cells are numbers, so nothing is
    quoted).  Row i is ``row_format`` (%-style) applied to entry i of each
    array in ``columns``; rows are formatted and written CSV_CHUNK_ROWS at
    a time, with one format per chunk.  A path that cannot be opened for
    writing raises LinalgError, as an unreadable input does."""
    n_rows = len(columns[0])
    try:
        fh = open(path, "w", newline="")
    except OSError as e:
        raise LinalgError(f"cannot write {path}: {e}")
    with fh:
        fh.write(header + "\r\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            cells = zip(*[c[start : start + CSV_CHUNK_ROWS].tolist() for c in columns])
            lines = (row_format + "\r\n") * min(CSV_CHUNK_ROWS, n_rows - start)
            fh.write(lines % tuple(chain.from_iterable(cells)))
