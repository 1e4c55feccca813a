"""Weakly-measured while loops and their Grover instantiation.

The measurement couples a two-level probe to the predicate subspace with
strength kappa: the certifying outcome fires with probability
kappa * p_Q and the other outcome damps the predicate amplitude by
sqrt(1 - kappa).  The Grover loop alternates the amplitude-amplification
step with one such measurement; everything about a run reduces to an
angle in the plane spanned by the off-target and target states.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import Callable

import numpy as np

from .linalg import LinalgError, require_ints

__all__ = [
    "GroverParams",
    "GroverSamples",
    "KappaMeasurement",
    "MeasurementOutcome",
    "MonteCarloSummary",
    "RuntimeBound",
    "grover_montecarlo",
    "grover_recurrence",
    "grover_runtime_bound",
    "grover_statevector",
    "guarantee_f",
    "kappa_measure",
    "robustness_g",
    "runtime_bound",
    "theta",
    "verify_guarantee",
]

STATEVECTOR_CAP = 4096
ITERATION_CAP = 10**7  # horizon cap: grover_montecarlo peaks at 32-40 B a step, 0.4 GB here
TRIALS_CAP = 10**7  # trial cap: grover_montecarlo, and grover --out with it, peaks at 33 B a trial
# grover_statevector's cap on max_iterations * max(B, 1024).  B = 1024 is the worst
# case: 2^20 steps at 35-60 us a step on one core of a shared Xeon host, so 37-63 s.
STATEVECTOR_WORK_CAP = 2**30
# Below 2^-27 in magnitude, cos x rounds to 1.0 and sin x to x: the terms
# dropped, x^2 / 2 and x^2 / 6 relative, are under half an ulp.
TINY_PHASE = 2.0**-27


@dataclass(frozen=True)
class KappaMeasurement:
    """A strength-kappa measurement of the predicate subspace spanned by the
    basis states whose indices are ``predicate`` (distinct, nonnegative);
    ``index`` holds them as an array."""

    kappa: float
    predicate: tuple
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise LinalgError("kappa must lie in [0, 1]")
        q = tuple(self.predicate)
        if not all(isinstance(i, (int, np.integer)) and i >= 0 for i in q) or len(set(q)) < len(q):
            raise LinalgError("predicate must be distinct nonnegative integer indices")
        object.__setattr__(self, "predicate", tuple(map(int, q)))
        object.__setattr__(self, "index", np.array(self.predicate, dtype=np.intp))


@dataclass(frozen=True)
class MeasurementOutcome:
    certified: bool
    post_state: np.ndarray
    p_top: float


def kappa_measure(state: np.ndarray, km: KappaMeasurement, u: float) -> MeasurementOutcome:
    """Measure the unit vector ``state`` with ``km``.  It certifies with probability
    p_top = kappa * p_Q, when the uniform draw ``u`` falls below p_top (u = 1.0 never
    does), and the post-state is then the normalised predicate part; otherwise the
    predicate amplitudes are damped by sqrt(1 - kappa) and the state renormalised.  A
    damped norm of at most sqrt(d) 2^-50 (4 ulps of 1 an entry, above what a Grover
    step's two reflections leave) is a branch of probability 0 and raises LinalgError."""
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    norm = math.sqrt(np.vdot(state, state).real)
    if abs(norm - 1.0) > 1e-9:
        raise LinalgError(f"state norm {norm:.3e} is not 1")
    if km.predicate and max(km.predicate) >= state.size:
        raise LinalgError(f"predicate index past the {state.size}-dim state")
    in_q = state[km.index]
    p_q = min(float(np.vdot(in_q, in_q).real), 1.0)  # p_top <= 1, so u = 1.0 keeps looping
    p_top = km.kappa * p_q
    if u < p_top:
        post = np.zeros_like(state)
        post[km.index] = in_q / math.sqrt(p_q)
        return MeasurementOutcome(True, post, p_top)
    post = state.copy()
    post[km.index] *= math.sqrt(1.0 - km.kappa)
    norm = np.linalg.norm(post)
    if norm <= math.sqrt(post.size) * 2.0**-50:
        raise LinalgError("the keep-looping branch has probability 0")
    # numpy divides a complex array by a real norm as Smith's method does, with both
    # parts times 1 / norm; this product gives those bits (zero signs aside) 5x faster.
    return MeasurementOutcome(False, post * (1.0 / norm), p_top)


def theta(a: float, kappa: float) -> float:
    """Signed angular collapse: the keep-looping branch maps angle a to
    a - theta(a, kappa).

    Evaluated through atan2 of the damped components, which is the
    algebraic equivalent of arctan((1-xi) tan a / (1 + xi tan^2 a)) with
    the quadrant sign rules built in and no pole at a = pi/2.
    """
    if not 0.0 <= kappa <= 1.0:
        raise LinalgError("kappa must lie in [0, 1]")
    xi = math.sqrt(1.0 - kappa)
    collapsed = math.atan2(xi * math.sin(a), math.cos(a))
    d = a - collapsed
    return d - 2.0 * math.pi * round(d / (2.0 * math.pi))


@dataclass(frozen=True)
class GroverParams:
    B_size: int
    kappa: float | None = None
    seed: int = 0
    max_iterations: int | None = None

    def __post_init__(self):
        if self.B_size < 2:
            raise LinalgError("B_size must be >= 2")
        if self.B_size > sys.float_info.max:  # B^-1/2 is taken in floats
            raise LinalgError("B_size must lie within the float range")
        if self.seed < 0:
            raise LinalgError("seed must be >= 0")
        kappa = self.kappa if self.kappa is not None else self.B_size ** -0.5
        if not 0.0 < kappa <= 1.0:
            raise LinalgError("kappa must lie in (0, 1]")
        object.__setattr__(self, "kappa", float(kappa))
        if self.max_iterations is None:
            if 50.0 / kappa == math.inf:
                raise LinalgError(f"kappa {kappa:g} is too small: ceil(50 / kappa) is not finite")
            object.__setattr__(self, "max_iterations", int(math.ceil(50.0 / kappa)))
        require_ints(B_size=self.B_size, seed=self.seed, max_iterations=self.max_iterations)
        if self.max_iterations < 1:
            raise LinalgError("max_iterations must be >= 1")

    @property
    def alpha(self) -> float:
        return math.asin(self.B_size ** -0.5)


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """sin x and cos x for 0 <= x <= pi/2 by their Taylor series, in the
    current decimal context."""
    x2, s_term, c_term, k = x * x, x, Decimal(1), 1
    s, c = s_term, c_term
    while abs(s_term) + abs(c_term) > Decimal("1e-60"):
        c_term *= -x2 / ((2 * k - 1) * (2 * k))
        s_term *= -x2 / ((2 * k) * (2 * k + 1))
        s, c, k = s + s_term, c + c_term, k + 1
    return s, c


def _split_rate(w: Decimal, n: int) -> tuple[float, float]:
    """w as hi + lo with hi short enough that t * hi is exact for t <= n."""
    m, e = math.frexp(float(w))
    bits = 53 - max(n, 1).bit_length()
    hi = math.ldexp(round(math.ldexp(m, bits)), e - bits)
    return hi, float(w - Decimal(hi))


def grover_recurrence(p: GroverParams, n_steps: int | None = None) -> np.ndarray:
    """The all-keep-looping angle trajectory b_0..b_N (b_0 = alpha is the initial
    state, b_n the angle after iteration n).  One loop iteration advances the angle
    by 2 alpha, then the keep-looping collapse theta acts on the advanced angle.

    b_t is the unwrapped angle of M^t v_0, where M = diag(1, xi) R(2 alpha) is one
    keep-looping step up to a positive scale and v_0 = (cos alpha, sin alpha).  With
    K = M - (tr M / 2) I and d = det K, Cayley-Hamilton on M / sqrt(xi) (determinant
    1, tr M >= 0 as alpha <= pi/4) puts M^t v_0 along
        cos(t w) v_0 + sin(t w) K v_0 / sqrt(d),  w = atan2(sqrt(d), tr M / 2),  d > 0;
        e^(-2tw) v_0 + (1 - e^(-2tw)) P v_0,      w = asinh(sqrt(-d / xi)),      d < 0,
    P = (I + K / sqrt(-d)) / 2 the projector on the growing eigenvector.  d is never 0: at
    kappa = 1 (xi = 0) d = -(cos 2 alpha)^2 / 4, and cos 2 alpha is -1.6e-16 at B = 2, as
    the double asin(2^-1/2) is not pi / 4; xi > 0 needs a kappa on the turning point to 50
    digits.  Near d = 0 and near kappa = 1 the angles hang on digits that doubles lose, so
    d, w and the two vectors are set up in 50-digit decimals, and the phase t w is carried
    as t w_hi (exact) + t w_lo, whose cos and sin are 1 and t w_lo, and go untaken, where
    every t w_lo is below TINY_PHASE (n^2 w < 2^25 suffices, as |w_lo| <= n w 2^-52).
    Max error of kappa sin^2 against 30-digit steps over 1000 draws of up to 1500
    steps, B in [2, 1e7], kappa in [1e-6, 1], near d = 0 and kappa = 1 included:
    5.2e-13 (a per-step loop of theta in doubles: 1.9e-3)."""
    n = p.max_iterations if n_steps is None else n_steps
    if n > ITERATION_CAP:
        raise LinalgError(f"max_iterations must be <= {ITERATION_CAP} (default ceil(50 / kappa))")
    t = np.arange(1, n + 1, dtype=float)
    with localcontext() as ctx:
        ctx.prec = 50
        sin_a, cos_a = _sin_cos(Decimal(p.alpha))
        xi = (1 - Decimal(p.kappa)).sqrt()
        c, s = 1 - 2 * sin_a * sin_a, 2 * sin_a * cos_a
        h = c * Decimal(p.kappa) / (1 + xi) / 2  # K = [[h, -s], [xi s, -h]]
        kv = (h * cos_a - s * sin_a, xi * s * cos_a - h * sin_a)
        d = xi * s * s - h * h
        if d > 0:
            r, half_tr = d.sqrt(), c * (1 + xi) / 2
            w0 = math.atan2(float(r), float(half_tr))
            s0, c0 = _sin_cos(Decimal(w0))  # w = w0 + atan(tan(w - w0)), |w - w0| < 1e-15
            w_hi, w_lo = _split_rate(
                Decimal(w0) + (r * c0 - half_tr * s0) / (half_tr * c0 + r * s0), n)
            second = (kv[0] / r, kv[1] / r)
        else:
            r = (-d).sqrt()
            w = math.asinh(float(r / xi.sqrt())) if xi > 0 else math.inf
            second = ((cos_a + kv[0] / r) / 2, (sin_a + kv[1] / r) / 2)
        v0, v1 = (float(cos_a), float(sin_a)), (float(second[0]), float(second[1]))
    # Built in place, each array dropped once spent; x * y and y * x are the same bytes.
    if d > 0:
        lo = t * w_lo
        ca = np.cos(np.multiply(t, w_hi, out=t))  # cos(t w_hi)
        sa = np.sin(t, out=t)  # sin(t w_hi)
        if n * abs(w_lo) < TINY_PHASE:  # cos(lo) = 1.0 and sin(lo) = lo: the same bytes
            f = sa * lo  # f = ca - sa lo, g = sa + ca lo
            f, g = np.subtract(ca, f, out=f), np.add(np.multiply(lo, ca, out=lo), sa, out=lo)
        else:  # f = ca cos(lo) - sa sin(lo), g = sa cos(lo) + ca sin(lo)
            cb, lo = np.cos(lo), np.sin(lo, out=lo)
            f = ca * cb
            g = np.add(np.multiply(cb, sa, out=cb), np.multiply(ca, lo, out=ca), out=cb)
            f -= np.multiply(sa, lo, out=sa)
        del t, lo, ca, sa
    else:
        np.multiply(np.multiply(t, -2.0, out=t), w, out=t)  # -2 t w
        f, g = np.exp(t), np.negative(np.expm1(t, out=t), out=t)
    b = np.empty(n + 1)
    b[0] = p.alpha
    y = np.multiply(f, v0[1], out=b[1:])  # arctan2(f v0[1] + g v1[1], f v0[0] + g v1[0])
    y += g * v1[1]
    f *= v0[0]
    np.arctan2(y, np.add(f, np.multiply(g, v1[0], out=g), out=f), out=y)
    del f, g
    turns = np.diff(b)  # np.unwrap's corrections: 2 pi cumsum(round(diff(b) / (2 pi)))
    turns = np.cumsum(np.round(np.divide(turns, 2.0 * math.pi, out=turns), out=turns), out=turns)
    b[1:] -= np.multiply(turns, 2.0 * math.pi, out=turns)
    return b


def premeasurement_angles(p: GroverParams, n_steps: int | None = None) -> np.ndarray:
    """Angle seen by the measurement at each iteration (1-indexed)."""
    angles = grover_recurrence(p, n_steps)[:-1]
    angles += 2.0 * p.alpha
    return angles


def halting_probabilities(p: GroverParams, n_steps: int | None = None) -> np.ndarray:
    """Per-iteration certify probability kappa * sin^2(angle)."""
    law = premeasurement_angles(p, n_steps)  # kappa * sin(angle) ** 2, in place
    return np.multiply(np.square(np.sin(law, out=law), out=law), p.kappa, out=law)


@dataclass
class StatevectorRun:
    angles: list  # folded angle asin|<star|state>| after each iteration
    halted_at: int | None
    state: np.ndarray


def grover_statevector(p: GroverParams, *, force_keep_looping: bool = False) -> StatevectorRun:
    """Full statevector run of the weakly-measured Grover loop.

    With force_keep_looping the measurement never certifies, giving the
    deterministic conditional evolution used to cross-check the angle
    recurrence.
    """
    b = p.B_size
    if b > STATEVECTOR_CAP:
        raise LinalgError(f"B_size {b} exceeds the statevector cap {STATEVECTOR_CAP}")
    if p.max_iterations * max(b, 1024) > STATEVECTOR_WORK_CAP:
        raise LinalgError(f"statevector work max_iterations * max(B, 1024) exceeds the cap "
                          f"{STATEVECTOR_WORK_CAP}")
    rng = np.random.default_rng(np.random.SeedSequence(p.seed))
    km = KappaMeasurement(p.kappa, (0,))  # the target state |star> = |0>
    psi = np.full(b, b ** -0.5, dtype=np.complex128)
    psi1 = np.zeros(b, dtype=np.complex128)
    psi1[0] = 1.0
    psi0 = (math.sqrt(b) * psi - psi1) / math.sqrt(b - 1)
    two_psi0, two_psi = 2.0 * psi0, 2.0 * psi  # (2.0 * psi0) * c is 2.0 * psi0 * c, bit for bit

    def grover_step(v):
        v = two_psi0 * np.vdot(psi0, v) - v
        return two_psi * np.vdot(psi, v) - v

    v = psi.copy()
    angles = []
    for it in range(1, p.max_iterations + 1):
        out = kappa_measure(grover_step(v), km, 1.0 if force_keep_looping else rng.random())
        v = out.post_state
        angles.append(math.pi / 2.0 if out.certified else math.asin(min(1.0, abs(v[0]))))
        if out.certified:
            return StatevectorRun(angles, it, v)
    return StatevectorRun(angles, None, v)


@dataclass(frozen=True)
class GroverSamples:
    """Per-trial outcomes as columns; row i is trial i."""

    iterations: np.ndarray  # int64: halting iteration, max_iterations if censored
    censored: np.ndarray  # bool: no certification within max_iterations
    angle: np.ndarray  # float64: pre-measurement angle at iteration `iterations`


@dataclass
class MonteCarloSummary:
    median: float
    mean: float
    n_trials: int
    censored: int
    bucket_width: int
    histogram: np.ndarray  # int64 rows [bucket_lo, count], bucket_lo ascending
    exact_median: int | None  # smallest t with F(t) >= 1/2, None past the horizon
    exact_mean: float  # E[T | T <= max_iterations], as the sample mean is taken
    censored_mass: float  # 1 - F(max_iterations)

    def to_json(self) -> dict:
        """The fields in order, the histogram (an array, or rows) as nested lists."""
        return {**vars(self), "histogram": np.asarray(self.histogram).tolist()}


def grover_montecarlo(p: GroverParams, n_trials: int) -> tuple[GroverSamples, MonteCarloSummary]:
    """Sample halting times of the weakly-measured loop.

    The conditional angle trajectory is shared by all trials, so each
    trial reduces to one inverse-CDF draw against the halting-time CDF
    F.  Trial i takes the i-th double of the PCG64 stream seeded by
    SeedSequence(seed), a pure function of (seed, i) that
    PCG64.advance(i) reaches directly: runs are reproducible and a
    shorter run is a prefix of a longer one.
    """
    if n_trials < 1:
        raise LinalgError("n_trials must be >= 1")
    if n_trials > TRIALS_CAP:
        raise LinalgError(f"n_trials must be <= {TRIALS_CAP}")
    angles = premeasurement_angles(p)
    # One buffer, in place: kappa sin^2 -> log-survival -> survival -> CDF, same bytes.
    cdf = np.sin(angles)
    np.multiply(np.square(cdf, out=cdf), p.kappa, out=cdf)
    with np.errstate(divide="ignore"):
        np.log1p(np.negative(np.minimum(cdf, 1.0, out=cdf), out=cdf), out=cdf)
    censored_mass = float(np.exp(np.cumsum(cdf, out=cdf), out=cdf)[-1])  # 1 - F(horizon)
    cdf = np.subtract(1.0, cdf, out=cdf)  # cdf[t - 1] = F(t)

    u = np.random.default_rng(np.random.SeedSequence(p.seed)).random(n_trials)
    # Sorted keys let the binary search start where the previous key ended.
    order = np.argsort(u)
    u = u[order]  # the sorted draws replace the draws
    ranked = np.searchsorted(cdf, u, side="right")
    idx = np.empty_like(ranked)
    idx[order] = ranked
    del u, order
    censored = idx >= p.max_iterations
    angle = angles[np.minimum(idx, p.max_iterations - 1, out=idx)]
    del angles
    samples = GroverSamples(np.add(idx, 1, out=idx), censored, angle)  # min(idx + 1, horizon)

    # 24 buckets per oscillation period pi / (2 alpha) of the halting
    # probability, so its periodic peaks stay visible.
    bucket_width = max(1, int(round(math.pi / (2.0 * p.alpha) / 24.0)))
    # Every halt is below the horizon, so a bucket that wide already holds them
    # all; numpy cannot divide by a width past int64 (B above about 1e40).
    step = min(bucket_width, p.max_iterations)
    n_censored = int(censored.sum())
    done = ranked[: n_trials - n_censored]  # the uncensored halts less 1, sorted
    counts = np.bincount(done // step)
    bucket = np.flatnonzero(counts)
    histogram = np.column_stack([bucket * step + 1, counts[bucket]])
    done += 1
    mid = done[(done.size - 1) // 2 : done.size // 2 + 1]  # what np.median averages
    median, mean = (float(np.mean(mid)), float(np.mean(done))) if done.size else (math.nan,) * 2

    half, mass = int(np.searchsorted(cdf, 0.5)), cdf[-1]
    pmf = cdf  # becomes np.diff(cdf, prepend=0.0) in place; numpy buffers the overlap
    np.subtract(pmf[1:], pmf[:-1], out=pmf[1:])
    # NaN, as median and mean are without halts, where F rounds to 0 at every step
    exact_mean = float(np.dot(np.arange(1.0, pmf.size + 1), pmf) / mass) if mass else math.nan
    summary = MonteCarloSummary(
        median,
        mean,
        n_trials,
        n_censored,
        bucket_width,
        histogram,
        exact_median=half + 1 if half < pmf.size else None,
        exact_mean=exact_mean,
        censored_mass=censored_mass,
    )
    return samples, summary


# ---------------------------------------------------------------------------
# Bound calculators


def guarantee_f(n: int, B_size: int) -> int:
    """f(n) = 2n + floor(pi sqrt(B) / 4): at least n active iterations
    occur within the first f(n) unmeasured steps."""
    k = math.floor(math.pi * math.sqrt(B_size) / 4.0)
    return 2 * n + k


def robustness_g(n: int) -> int:
    """g(n) = 2n: the measured evolution lags the unmeasured one by at
    most a factor of two."""
    return 2 * n


@dataclass(frozen=True)
class RuntimeBound:
    kappa: float
    epsilon: float
    f: Callable[[int], int]
    g: Callable[[int], int]

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:  # a gap between probabilities
            raise LinalgError("epsilon must lie in [0, 1/2)")
        if not 0.0 < self.kappa <= 1.0:
            raise LinalgError("kappa must lie in (0, 1]")


def runtime_bound(rb: RuntimeBound, c: int = 1) -> int:
    """T_c = g(f(ceil(2c / (kappa (1 - 2 epsilon))))): the loop halts
    within T_c iterations with probability > 1 - e^{-c}; c < 1 makes that
    probability 0 or negative, so it is rejected."""
    if c < 1:
        raise LinalgError("c must be >= 1")
    try:
        n = math.ceil(2.0 * c / (rb.kappa * (1.0 - 2.0 * rb.epsilon)))
    except (OverflowError, ZeroDivisionError):
        raise LinalgError("ceil(2c / (kappa (1 - 2 epsilon))) is not finite") from None
    return rb.g(rb.f(n))


def _grover_epsilon(B_size: int) -> float:
    """epsilon = sin 3 alpha, sin alpha = B^-1/2: the robustness gap."""
    return math.sin(3.0 * math.asin(B_size ** -0.5))


def _grover_bound(B_size: int, kappa: float | None = None) -> RuntimeBound:
    """The Grover loop's RuntimeBound: kappa defaults to B^-1/2, epsilon is
    sin 3 alpha, f is guarantee_f at B and g is robustness_g."""
    if B_size < 1:
        raise LinalgError("B must be >= 1")
    if B_size > sys.float_info.max:
        raise LinalgError("B_size must lie within the float range")
    return RuntimeBound(B_size ** -0.5 if kappa is None else kappa, _grover_epsilon(B_size),
                        lambda n: guarantee_f(n, B_size), robustness_g)


def grover_runtime_bound(B_size: int, kappa: float | None = None, c: int = 1) -> int:
    return runtime_bound(_grover_bound(B_size, kappa), c)


# ---------------------------------------------------------------------------
# Guarantee / robustness verification


@dataclass
class GuaranteeReport:
    B_size: int
    n_checked: int
    guarantee_violations: list = field(default_factory=list)
    robustness_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.guarantee_violations and not self.robustness_violations


def verify_guarantee(p: GroverParams, n_max: int = 50) -> GuaranteeReport:
    """Exhaustively check the active-iteration guarantee on the
    unmeasured evolution and the robustness witness against the measured
    keep-looping recurrence."""
    report = GuaranteeReport(p.B_size, n_max)
    alpha = p.alpha
    horizon = guarantee_f(n_max, p.B_size)

    # Unmeasured evolution: angle alpha + 2k alpha after k steps.
    p_unmeas = np.sin(alpha + 2.0 * np.arange(horizon + 1) * alpha) ** 2
    active_cum = np.cumsum(p_unmeas > 0.5)
    for n in range(1, n_max + 1):
        f_n = guarantee_f(n, p.B_size)
        if active_cum[f_n] < n:
            report.guarantee_violations.append(
                f"n={n}: only {int(active_cum[f_n])} active iterations within f(n)={f_n}"
            )

    # Robustness: for every n there is m <= g(n) with success
    # probabilities within epsilon = sin(3 alpha).  For 2 <= B <= 33 epsilon
    # is at least 1/2, which RuntimeBound rejects, so it is taken bare.
    eps = _grover_epsilon(p.B_size)
    measured = grover_recurrence(p, robustness_g(n_max))
    p_meas = np.sin(measured) ** 2
    for n in range(1, n_max + 1):
        m_hi = robustness_g(n)
        gap = np.min(np.abs(p_unmeas[n] - p_meas[: m_hi + 1]))
        if gap > eps:
            report.robustness_violations.append(
                f"n={n}: min probability gap {gap:.3e} exceeds eps={eps:.3e}"
            )
    return report
