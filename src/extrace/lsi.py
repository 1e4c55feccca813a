"""Discrete-time linear shift-invariant processes.

A process is carried primarily as a finitely-supported matrix-valued
kernel over integer time; the frequency-domain view samples its
transform on a uniform grid over [0, 2*pi).  Looped processes generally
have infinite time support, so loop results exist only as frequency
responses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import trace
from .linalg import (DEFAULT_TOL, LinalgError, as_int, as_labels, as_matrix, bracket_norms,
                     int_from_text, matrix_from_literal, matrix_to_literal, write_csv)

__all__ = [
    "FirKernel",
    "FrequencyResponse",
    "Signal",
    "convolve",
    "dtft",
    "lsi_classify",
    "lsi_ex",
    "parseval_norm",
    "response_to_csv",
]

DEFAULT_GRID = 256
# Cap on grid size * rows * cols of a sampled response: 2^26 complex128 samples
# are 1 GiB.  A grid above it is refused before anything is allocated.
GRID_WORK_CAP = 2**26


@dataclass(frozen=True)
class FirKernel:
    """Finitely many matrix taps, one per integer time offset."""

    out_ports: tuple[str, ...]
    in_ports: tuple[str, ...]
    taps: dict  # int offset -> ndarray (out x in)

    def __post_init__(self):
        object.__setattr__(self, "out_ports", as_labels(self.out_ports, "out_ports"))
        object.__setattr__(self, "in_ports", as_labels(self.in_ports, "in_ports"))
        shape = (len(self.out_ports), len(self.in_ports))
        fixed = {}
        for t, m in self.taps.items():
            m = as_matrix(m)
            if m.shape != shape:
                raise LinalgError(
                    f"tap at t={t} has shape {m.shape}, ports require {shape}"
                )
            t = as_int(t, "tap offset")
            if not -(2**63) <= t < 2**63:  # an int64, so its phase e^{-i w t} is a float
                raise LinalgError("tap offsets must lie in the int64 range")
            fixed[t] = m
        object.__setattr__(self, "taps", fixed)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.out_ports), len(self.in_ports)

    def to_json(self) -> dict:
        return {
            "in_ports": list(self.in_ports),
            "out_ports": list(self.out_ports),
            "taps": {str(t): matrix_to_literal(m) for t, m in sorted(self.taps.items())},
        }

    @classmethod
    def from_json(cls, obj) -> "FirKernel":
        return cls(obj["out_ports"], obj["in_ports"],
                   {int_from_text(t, "tap offset"): matrix_from_literal(m)
                    for t, m in obj["taps"].items()})


@dataclass(frozen=True)
class FrequencyResponse:
    """Per-frequency matrices on the uniform grid 2*pi*j/N."""

    samples: np.ndarray  # (N, out, in)
    out_ports: tuple[str, ...]
    in_ports: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "out_ports", as_labels(self.out_ports, "out_ports"))
        object.__setattr__(self, "in_ports", as_labels(self.in_ports, "in_ports"))
        samples = np.asarray(self.samples, dtype=np.complex128)
        ports = (len(self.out_ports), len(self.in_ports))
        if samples.shape[1:] != ports:
            raise LinalgError(f"samples are {samples.shape[1:]} per frequency, ports need {ports}")
        if samples.shape[0] < 2:
            raise LinalgError("frequency grid needs at least 2 points")
        object.__setattr__(self, "samples", samples)

    @property
    def grid_size(self) -> int:
        return self.samples.shape[0]

    @property
    def grid(self) -> np.ndarray:
        """The frequency 2*pi*j/N of each sample j: the grid dtft and semantics sample on."""
        return _uniform_grid(self.grid_size, self.samples[0].size)


@dataclass(frozen=True)
class Signal:
    """Finitely supported vector-valued signal over integer time."""

    ports: tuple[str, ...]
    samples: dict  # int t -> complex vector

    def __post_init__(self):
        object.__setattr__(self, "ports", as_labels(self.ports, "ports"))
        fixed = {}
        for t, v in self.samples.items():
            v = np.asarray(v, dtype=np.complex128).reshape(-1)
            if v.size != len(self.ports):
                raise LinalgError(f"signal sample at t={t} has wrong port count")
            fixed[as_int(t, "sample time")] = v
        object.__setattr__(self, "samples", fixed)

    def norm_squared(self) -> float:
        return float(sum(np.vdot(v, v).real for v in self.samples.values()))


def _uniform_grid(n: int, entries: int) -> np.ndarray:
    """The grid 2*pi*j/n for samples of ``entries`` matrix entries each."""
    n = as_int(n, "grid size", 2)
    if n * max(entries, 1) > GRID_WORK_CAP:
        raise LinalgError(f"grid size {n} * {entries} entries exceeds the cap {GRID_WORK_CAP}")
    return 2.0 * np.pi * np.arange(n) / n


def _transform(taps: dict, grid: np.ndarray, shape: tuple) -> np.ndarray:
    """sum_t taps[t] e^{-i w t} at each grid w, for taps of the given shape,
    accumulated in the dict's order."""
    out = np.zeros((grid.size, *shape), dtype=np.complex128)
    for t, m in taps.items():
        out += np.multiply.outer(np.exp(-1j * grid * t), m)
    return out


def dtft(k: FirKernel, grid_size: int = DEFAULT_GRID) -> FrequencyResponse:
    """Sample sum_t tap[t] e^{-i w t} on the uniform grid; exact finite sum.
    A sample that overflows the float range is malformed input."""
    grid = _uniform_grid(grid_size, k.shape[0] * k.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        samples = _transform(k.taps, grid, k.shape)
    if not np.isfinite(samples).all():
        raise LinalgError("kernel transform overflows: a sample is not finite")
    return FrequencyResponse(samples, k.out_ports, k.in_ports)


def convolve(g: FirKernel, f: FirKernel) -> FirKernel:
    """Tap-wise matrix convolution g * f (apply f first): tap t is the sum
    over t1 + t2 = t of g[t1] @ f[t2], looping over g's taps then f's."""
    if g.in_ports != f.out_ports:
        raise LinalgError(
            f"port mismatch: g consumes {g.in_ports}, f produces {f.out_ports}"
        )
    taps: dict = {}
    for t1, m1 in g.taps.items():
        for t2, m2 in f.taps.items():
            t = t1 + t2
            prod = m1 @ m2
            taps[t] = taps[t] + prod if t in taps else prod
    return FirKernel(g.out_ports, f.in_ports, taps)


def lsi_classify(r: FrequencyResponse) -> str:
    """'lsi_contraction' when every grid sample is finite with norm at most
    1 + DEFAULT_TOL, else 'not_certified'.

    The l2 norm of the time-domain map is the maximum over omega of its
    symbol's norm (Laurent/Toeplitz symbol theorem), so a sample above the
    tolerance proves the map is not a contraction.  Samples within it do
    not prove one: the symbol may peak between grid points (taps 0.53 at
    t = 0 and 0.53 e^{i pi/4} at t = 1 pass at grid 4 and peak at 1.06).
    """
    limit = 1.0 + DEFAULT_TOL
    if not np.any(bracket_norms(r.samples, limit, limit) > limit):
        return "lsi_contraction"
    return "not_certified"


def lsi_ex(
    r: FrequencyResponse, loop_ports: int, cfg: trace.TraceConfig | None = None
) -> FrequencyResponse:
    """Trace out the trailing loop_ports ports at every grid frequency.  The
    first failing sample re-raises the trace core's error with its omega
    leading the message; one whose series did not converge raises
    SeriesDivergence the same way, rather than pass its partial sum off as
    a value.  cfg defaults to TraceConfig()."""
    cfg = trace.TraceConfig() if cfg is None else cfg
    loop_ports = as_int(loop_ports, "loop_ports")
    n_out, n_in = r.samples.shape[1], r.samples.shape[2]
    if loop_ports < 1 or loop_ports > min(n_out, n_in):
        raise LinalgError(f"cannot loop {loop_ports} ports on shape {(n_out, n_in)}")
    if r.out_ports[-loop_ports:] != r.in_ports[-loop_ports:]:
        raise LinalgError("trailing loop ports differ between input and output")
    try:
        values, _, _, residual, converged = trace._trace_core(r.samples, loop_ports, cfg)
    except ArithmeticError as e:
        e.args = (f"loop trace failed at omega={r.grid[e.index]:.6f}: {e}",)
        raise
    if not converged.all():
        i = int(np.argmin(converged))
        raise trace.SeriesDivergence(
            f"loop trace failed at omega={r.grid[i]:.6f}: series did not converge in "
            f"{cfg.max_terms} terms (last term {residual[i]:.3e})")
    return FrequencyResponse(values, r.out_ports[:-loop_ports], r.in_ports[:-loop_ports])


def parseval_norm(s: Signal, grid_size: int) -> float:
    """Frequency-domain squared norm via the uniform Riemann sum.

    Exact (to roundoff) once the grid exceeds the support width, since
    the transform is a trigonometric polynomial.
    """
    grid = _uniform_grid(grid_size, len(s.ports))
    width = max(s.samples) - min(s.samples) + 1 if s.samples else 1
    if grid.size <= width:
        raise LinalgError(f"grid size {grid.size} too small for support width {width}")
    with np.errstate(over="ignore", invalid="ignore"):  # a norm past the float range is inf
        spectrum = _transform(s.samples, grid, (len(s.ports),))
        return float(np.sum(np.abs(spectrum) ** 2) / grid.size)


def response_to_csv(r: FrequencyResponse, path) -> None:
    """CSV dump: omega, block-row, block-col, re, im; floats as .17g."""
    n, n_rows, n_cols = r.samples.shape
    omega = np.array([f"{w:.17g}" for w in r.grid.tolist()], dtype=object)
    pairs = np.array([f",{i},{j}," for i in range(n_rows) for j in range(n_cols)], dtype=object)
    flat = r.samples.reshape(-1)
    columns = [np.repeat(omega, pairs.size), np.tile(pairs, n), flat.real, flat.imag]
    write_csv(path, "omega,row,col,re,im", "%s%s%.17g,%.17g", columns)
