"""Reference checks for every command the benchmark runs.

Nothing here imports extrace. Each expected value is recomputed from the
benchmark's own inputs with plain numpy, so a defect in the engine
cannot hide inside its own oracle. Each checker raises OracleMismatch
with a message saying what was wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Trace values: the engine's routes agree to 1e-8 and its series stops
# at 1e-10, so 1e-8 (relative to the value's size) separates roundoff
# from a wrong answer.
VALUE_TOL = 1e-8
UNITARY_TOL = 1e-7
# Per-command false-alarm probability of the Kolmogorov-Smirnov check.
KS_ALPHA = 1e-6
CLASSIFY_TOL = 1e-9


class OracleMismatch(Exception):
    """A command's output disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleMismatch(message)


def _read_csv(path: str, columns: list) -> np.ndarray:
    """Numeric CSV with the given header, as a (rows, columns) array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        expect(header == columns, f"CSV header {header}, expected {columns}")
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, len(columns))
        except ValueError as e:
            raise OracleMismatch(f"CSV is not numeric: {e}") from None


def literal_to_array(obj) -> np.ndarray:
    """Matrix literal (rows of [re, im] pairs) to a complex array."""
    a = np.asarray(obj, dtype=np.float64)
    if a.size == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    return a[..., 0] + 1j * a[..., 1]


def array_to_literal(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


# ---------------------------------------------------------------------------
# Loop traces


def schur_complement(m: np.ndarray, loop: int) -> np.ndarray:
    """f_BA + f_BU (I - f_UU)^-1 f_UA over the trailing `loop` rows and
    columns; works on one matrix or a stack of them."""
    rows, cols = m.shape[-2] - loop, m.shape[-1] - loop
    f_ba = m[..., :rows, :cols]
    f_bu = m[..., :rows, cols:]
    f_ua = m[..., rows:, :cols]
    f_uu = m[..., rows:, cols:]
    return f_ba + f_bu @ np.linalg.solve(np.eye(loop) - f_uu, f_ua)


def _close(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> None:
    expect(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    expect(err <= tol * scale, f"{what}: off by {err:.3e} (tolerance {tol * scale:.1e})")


def check_trace(out: dict, matrix: np.ndarray, loop: int, contraction: bool) -> None:
    """`trace --method both` on a contraction must take both routes and
    agree; on an expansion only the kernel-image route applies."""
    want_method = "both_agree" if contraction else "kernel_image"
    expect(out.get("method") == want_method,
           f"method {out.get('method')!r}, expected {want_method!r}")
    expect(out.get("converged") is True, "result not marked converged")
    _close(literal_to_array(out["value"]), schur_complement(matrix, loop),
           VALUE_TOL, "trace value")


# ---------------------------------------------------------------------------
# Frequency responses


def fir_response(taps: dict, grid: int) -> np.ndarray:
    """Sum_t tap[t] e^{-i w t} on the uniform grid 2 pi j / grid."""
    omega = 2.0 * np.pi * np.arange(grid) / grid
    first = next(iter(taps.values()))
    out = np.zeros((grid, *first.shape), dtype=np.complex128)
    for t, m in taps.items():
        out += np.exp(-1j * omega * t)[:, None, None] * m[None]
    return out


def read_response_csv(path: str, grid: int, rows: int, cols: int) -> np.ndarray:
    """Parse the omega,row,col,re,im CSV back into (grid, rows, cols)."""
    data = _read_csv(path, ["omega", "row", "col", "re", "im"])
    expect(data.shape == (grid * rows * cols, 5),
           f"CSV has {data.shape[0]} rows, expected {grid * rows * cols}")
    cube = data.reshape(grid, rows, cols, 5)
    omega = 2.0 * np.pi * np.arange(grid) / grid
    expect(np.allclose(cube[:, 0, 0, 0], omega, rtol=0, atol=1e-12), "CSV grid is not uniform")
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    expect(bool(np.all(cube[..., 1] == ii) and np.all(cube[..., 2] == jj)),
           "CSV row/col indices out of order")
    return cube[..., 3] + 1j * cube[..., 4]


def classification(samples: np.ndarray) -> str:
    """lsi_contraction when every sample has operator norm <= 1."""
    if samples.size == 0:
        return "lsi_contraction"
    norms = np.linalg.norm(samples, 2, axis=(1, 2))
    return "lsi_contraction" if float(norms.max()) <= 1.0 + CLASSIFY_TOL else "not_certified"


def check_response_json(out: dict, grid: int, n_out: int, n_in: int, cls: str) -> None:
    expect(out.get("grid_size") == grid, f"grid_size {out.get('grid_size')}, expected {grid}")
    expect(len(out.get("out_ports", ())) == n_out and len(out.get("in_ports", ())) == n_in,
           f"ports {len(out.get('out_ports', ()))}x{len(out.get('in_ports', ()))}, "
           f"expected {n_out}x{n_in}")
    expect(out.get("classification") == cls,
           f"classification {out.get('classification')!r}, expected {cls!r}")


def check_lsi(out: dict, csv_path, taps: dict, grid: int, loop: int) -> None:
    """`lsi --loop`: the traced response is the per-frequency Schur
    complement of the kernel's transform."""
    want = schur_complement(fir_response(taps, grid), loop)
    _, n_out, n_in = want.shape
    check_response_json(out, grid, n_out, n_in, classification(want))
    if csv_path:
        _close(read_response_csv(csv_path, grid, n_out, n_in), want, VALUE_TOL, "lsi response")


def hadamard_delay_loop_response(grid: int) -> np.ndarray:
    """Closed form of (loop (seq (par (delay 0) (delay 1)) (gate H)) 1):
    (1/sqrt2 + z) / (1 + z/sqrt2) with z = e^{-i w}, an all-pass filter."""
    z = np.exp(-2j * np.pi * np.arange(grid) / grid)
    r = 1.0 / math.sqrt(2.0)
    return ((r + z) / (1.0 + r * z)).reshape(grid, 1, 1)


def check_corpus(out: dict, csv_path, program: str, grid: int, ports: int) -> None:
    """Every corpus program is unitary at every frequency; two have
    closed forms."""
    check_response_json(out, grid, ports, ports, "lsi_contraction")
    if not csv_path:
        return
    samples = read_response_csv(csv_path, grid, ports, ports)
    gram = np.conj(np.swapaxes(samples, 1, 2)) @ samples
    dev = float(np.max(np.abs(gram - np.eye(ports))))
    expect(dev <= UNITARY_TOL, f"{program}: sample not unitary (deviation {dev:.3e})")
    if program == "hadamard_delay_loop":
        _close(samples, hadamard_delay_loop_response(grid), VALUE_TOL, program)
    elif program == "swap_loop":
        _close(samples, np.ones((grid, 1, 1)), VALUE_TOL, program)


def check_axioms(out: dict, cases: int) -> None:
    expect(out.get("passed") is True, "axiom suite did not pass")
    checks = out.get("checks", {})
    expect(len(checks) == 7, f"{len(checks)} trace laws reported, expected 7")
    for name, c in checks.items():
        expect(c.get("cases") == cases, f"{name}: {c.get('cases')} cases, expected {cases}")
        expect(c.get("failures") == 0, f"{name}: {c.get('failures')} failures")


# ---------------------------------------------------------------------------
# Weakly-measured Grover loop


def grover_kappa(b: int, kappa) -> float:
    return b ** -0.5 if kappa is None else float(kappa)


def grover_max_iter(kappa: float) -> int:
    return int(math.ceil(50.0 / kappa))


class GroverReference:
    """Exact halting-time law of the weakly-measured Grover loop.

    Tracks the two amplitudes (off-target, target) directly: each
    iteration rotates them by 2*alpha, the measurement certifies with
    probability kappa * target^2, and the keep-looping branch damps the
    target amplitude by sqrt(1 - kappa) and renormalises.
    """

    def __init__(self, b: int, kappa: float, max_iter: int):
        alpha = math.asin(b ** -0.5)
        c, s = math.cos(2.0 * alpha), math.sin(2.0 * alpha)
        xi = math.sqrt(1.0 - kappa)
        x, y = math.cos(alpha), math.sin(alpha)
        sin2 = np.empty(max_iter)
        for i in range(max_iter):
            x, y = c * x - s * y, s * x + c * y
            sin2[i] = y * y / (x * x + y * y)
            y *= xi
            r = math.hypot(x, y)
            x, y = x / r, y / r
        self.max_iter = max_iter
        self.sin2 = sin2
        # cdf[t - 1] = P(halt within t iterations)
        self.cdf = 1.0 - np.cumprod(1.0 - kappa * sin2)

    def median(self) -> int:
        return int(np.searchsorted(self.cdf, 0.5)) + 1


def ks_threshold(n: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz-Massart: P(sup|F_n - F| > eps) <=
    2 exp(-2 n eps^2) for any F, discrete ones included."""
    return math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))


def _ks(points: np.ndarray, emp_cdf: np.ndarray, ref: GroverReference, n: int) -> float:
    d = float(np.max(np.abs(emp_cdf - ref.cdf[points - 1]))) if points.size else 0.0
    eps = ks_threshold(n)
    expect(d <= eps, f"halting times fail the KS test: D = {d:.4f} > {eps:.4f} (n = {n})")
    return d


def read_grover_csv(path: str) -> np.ndarray:
    return _read_csv(path, ["trial", "iterations", "censored", "angle_at_halt"])


def check_grover_samples(out: dict, rows: np.ndarray, ref: GroverReference, trials: int) -> float:
    """Per-trial CSV: row count, ranges, angles, summary statistics and a
    KS test of the halting times. Returns the KS distance."""
    expect(rows.shape[0] == trials, f"CSV has {rows.shape[0]} trials, expected {trials}")
    idx, iters, cens, angle = rows.T
    expect(bool(np.array_equal(idx, np.arange(trials))), "trial indices out of order")
    expect(bool(np.all((iters >= 1) & (iters <= ref.max_iter) & (iters == np.round(iters)))),
           "iteration count out of range")
    expect(bool(np.all((cens == 0) | ((cens == 1) & (iters == ref.max_iter)))),
           "censored flag out of range")
    it = iters.astype(np.int64)
    expect(bool(np.all(np.isfinite(angle))), "non-finite angle")
    dev = float(np.max(np.abs(np.sin(angle) ** 2 - ref.sin2[it - 1])))
    expect(dev <= 1e-6, f"angle at halt off the exact trajectory by {dev:.3e}")
    done = it[cens == 0]
    expect(out.get("n_trials") == trials and out.get("censored") == trials - done.size,
           "summary trial or censored count disagrees with the CSV")
    if done.size:
        expect(out.get("median") == float(np.median(done)), "summary median disagrees with CSV")
        expect(math.isclose(out.get("mean"), float(np.mean(done)), rel_tol=1e-12),
               "summary mean disagrees with CSV")
    points = np.arange(1, ref.max_iter + 1)
    emp = np.cumsum(np.bincount(done, minlength=ref.max_iter + 1)[1:]) / trials
    return _ks(points, emp, ref, trials)


def check_grover_summary(out: dict, ref: GroverReference, trials: int) -> float:
    """Summary-only output: KS test at the histogram bucket edges."""
    expect(out.get("n_trials") == trials, f"n_trials {out.get('n_trials')}, expected {trials}")
    hist = np.asarray(out.get("histogram") or np.zeros((0, 2)), dtype=np.int64).reshape(-1, 2)
    width = out.get("bucket_width")
    expect(isinstance(width, int) and width >= 1, f"bucket width {width!r}")
    lo, counts = hist[:, 0], hist[:, 1]
    expect(bool(np.all(np.diff(lo) > 0) and np.all((lo - 1) % width == 0)), "bad bucket edges")
    expect(bool(np.all(counts > 0)), "empty bucket listed")
    expect(int(counts.sum()) + out.get("censored", -1) == trials,
           "histogram counts plus censored trials differ from n_trials")
    hi = np.minimum(lo + width - 1, ref.max_iter)
    expect(bool(np.all(lo >= 1) and np.all(lo <= ref.max_iter)), "bucket outside the iteration range")
    emp = np.cumsum(counts) / trials
    return _ks(hi, emp, ref, trials)


def check_statevector(out: dict) -> None:
    expect(out.get("mode") == "statevector", "not a statevector run")
    halted = out.get("halted_at")
    expect(isinstance(halted, int) and halted >= 1, "statevector run did not halt")
    expect(out.get("iterations") == halted, "iteration count differs from halting step")
    angle = out.get("final_angle")
    expect(angle is not None and abs(angle - math.pi / 2) <= 1e-12,
           f"final angle {angle!r}, expected pi/2")


def runtime_bound(b: int, kappa: float, c: int = 1) -> int:
    """T_c = g(f(ceil(2c / (kappa (1 - 2 eps))))), f(n) = 2n +
    floor(pi sqrt(B) / 4), g(n) = 2n, eps = sin(3 asin(B^-1/2))."""
    eps = math.sin(3.0 * math.asin(b ** -0.5))
    n = math.ceil(2.0 * c / (kappa * (1.0 - 2.0 * eps)))
    return 2 * (2 * n + math.floor(math.pi * math.sqrt(b) / 4.0))


def check_bound(out: dict, b: int, kappa, c: int = 1) -> None:
    k = grover_kappa(b, kappa)
    expect(out.get("B") == b and out.get("c") == c, "bound echoes the wrong B or c")
    expect(math.isclose(out.get("kappa"), k, rel_tol=1e-15), "bound uses the wrong kappa")
    expect(out.get("T") == runtime_bound(b, k, c), f"T = {out.get('T')}, expected {runtime_bound(b, k, c)}")


def parse_json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as e:
        raise OracleMismatch(f"stdout is not JSON: {e}") from None
