"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
machine-greppable verdict line (``criterion N: PASS/FAIL``) before
asserting, so a red run still reports every criterion's status.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from extrace.kappa import (
    GroverParams,
    grover_montecarlo,
    grover_recurrence,
    grover_runtime_bound,
    halting_probabilities,
    theta,
    verify_guarantee,
)
from extrace.linalg import (
    adjoint,
    classify,
    direct_sum,
    operator_norm,
    random_contraction,
    random_isometry,
    random_unitary,
    two_block,
)
from extrace.lsi import FirKernel, dtft, convolve, lsi_classify, lsi_ex, parseval_norm, Signal
from extrace.qwhile import parse, parse_source, semantics
from extrace.trace import (
    SeriesDivergence,
    check_trace_axioms,
    cnu_decompose,
    ex,
    ex_kernel_image,
    ex_series,
    halmos_dilation,
)
from reference import halting_law

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
SIGMA = np.array([[0.0, 1.0], [1.0, 0.0]])
THREE = 0.5 * np.array([[-1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0]])
COUNTER = np.array([[0.0, 1.0, 1.0], [1.0, -2 / 3, 1.0], [1.0, 1.0, 1 / 3]])


def verdict(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {status} - {label}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {number} ({label}): {failures}"


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_worked_examples():
    failures = []
    t0 = time.perf_counter()

    for matrix, expected in [
        (HADAMARD, 1.0),
        (SIGMA @ HADAMARD @ SIGMA, 1.0),
        (SIGMA @ HADAMARD, -1.0),
        (HADAMARD @ SIGMA, -1.0),
    ]:
        got = complex(ex(two_block(matrix, 1), "U").value[0, 0])
        check(failures, abs(got - expected) < 1e-9, f"hadamard variant: {got} != {expected}")

    got = complex(ex(two_block(THREE, 2), "U").value[0, 0])
    check(failures, abs(got - 1.0) < 1e-9, f"3x3 two-dim loop: {got}")
    got2 = ex(two_block(THREE, 1), "U").value
    check(failures, np.max(np.abs(got2 - SIGMA)) < 1e-9, f"3x3 one-dim loop: {got2}")

    nested = ex_kernel_image(two_block(COUNTER, 1), "U").value
    target = np.array([[1.5, 2.5], [2.5, 5 / 6]])
    check(failures, np.max(np.abs(nested - target)) < 1e-9, f"counterexample: {nested}")

    try:
        ex_series(two_block(COUNTER, 2), "U")
        check(failures, False, "series on the counterexample's two-dim loop did not diverge")
    except SeriesDivergence:
        pass

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    verdict(1, "worked-example exactness", failures)


def test_criterion_2_totality_on_contractions():
    failures = []
    t0 = time.perf_counter()
    worst_gap = 0.0

    for i, ss in enumerate(np.random.SeedSequence(20240817).spawn(1000)):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(2, 9))
        u = int(rng.integers(1, n))
        f = two_block(random_contraction(n, n, rng), u)
        try:
            ki = ex_kernel_image(f, "U")
            se = ex_series(f, "U")
        except ArithmeticError as e:
            check(failures, False, f"contraction case {i} failed: {e}")
            continue
        gap = operator_norm(ki.value - se.value)
        worst_gap = max(worst_gap, gap)
        check(failures, se.converged, f"case {i}: series did not converge")
        check(failures, gap < 1e-8, f"case {i}: series/ki gap {gap:.3e}")
        check(
            failures,
            classify(ki.value, 1e-7) != "expansion",
            f"case {i}: traced contraction classifies as expansion",
        )

    for i, ss in enumerate(np.random.SeedSequence(514).spawn(150)):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(2, 9))
        u = int(rng.integers(1, n))
        value = ex(two_block(random_unitary(n, rng), u), "U").value
        check(
            failures,
            classify(value, 1e-7) == "unitary",
            f"unitary case {i}: trace classifies {classify(value, 1e-7)}",
        )

    for i, ss in enumerate(np.random.SeedSequence(515).spawn(150)):
        rng = np.random.default_rng(ss)
        cols = int(rng.integers(2, 7))
        rows = cols + int(rng.integers(1, 3))
        u = int(rng.integers(1, cols))
        value = ex(two_block(random_isometry(rows, cols, rng), u), "U").value
        check(
            failures,
            classify(value, 1e-7) in ("isometry", "unitary"),
            f"isometry case {i}: trace classifies {classify(value, 1e-7)}",
        )

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s")
    verdict(2, f"totality on contractions (worst gap {worst_gap:.1e})", failures)


def test_criterion_3_axiom_suite():
    failures = []
    t0 = time.perf_counter()

    report = check_trace_axioms(seed=7, n_cases=1000)
    for name, c in report.checks.items():
        check(failures, c.cases >= 1000, f"{name}: only {c.cases} instances")
        check(failures, c.passed, f"{name}: {c.failures} failures, worst {c.worst_deviation:.3e}")

    # The flat trace of the counterexample must be flagged as the
    # documented vanishing-II failure: nested series traces exist while
    # the flattened series diverges.
    nested_ok = True
    try:
        inner = ex_series(two_block(COUNTER, 1), "U").value
        ex_series(two_block(inner, 1), "U")
    except ArithmeticError:
        nested_ok = False
    check(failures, nested_ok, "nested series traces of the counterexample should exist")
    try:
        ex_series(two_block(COUNTER, 2), "U")
        check(failures, False, "flat series trace of the counterexample should diverge")
    except SeriesDivergence:
        pass

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 120.0, f"runtime {elapsed:.1f}s >= 2min")
    verdict(3, "trace-axiom suite", failures)


def test_criterion_4_structure_theorems():
    failures = []

    worst = 0.0
    for i, ss in enumerate(np.random.SeedSequence(99).spawn(500)):
        rng = np.random.default_rng(ss)
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        g = halmos_dilation(random_contraction(rows, cols, rng))
        dev = operator_norm(adjoint(g) @ g - np.eye(rows + cols))
        worst = max(worst, dev)
        check(failures, dev < 1e-10, f"dilation case {i}: unitarity defect {dev:.3e}")

    for i, ss in enumerate(np.random.SeedSequence(100).spawn(60)):
        rng = np.random.default_rng(ss)
        k = int(rng.integers(0, 4))
        m = int(rng.integers(0, 4))
        if k + m == 0:
            m = 1
        u = random_unitary(k, rng) if k else np.zeros((0, 0))
        c = 0.9 * random_contraction(m, m, rng) if m else np.zeros((0, 0))
        w = random_unitary(k + m, rng)
        planted = w @ direct_sum(u, c) @ adjoint(w)
        d = cnu_decompose(planted)
        check(failures, d.unitary_dim == k, f"cnu case {i}: dim {d.unitary_dim} != planted {k}")
        if d.f1.shape[0]:
            tail = operator_norm(np.linalg.matrix_power(d.f1, d.f1.shape[0]))
            check(failures, tail < 1.0, f"cnu case {i}: ||f1^dim|| = {tail}")

    verdict(4, f"structure theorems (worst dilation defect {worst:.1e})", failures)


def test_criterion_5_lsi_dtft():
    failures = []
    rng = np.random.default_rng(2718)

    worst = 0.0
    for i in range(500):
        on, mid, inn = (int(x) for x in rng.integers(1, 4, size=3))
        taps_f = {
            int(t): rng.standard_normal((mid, inn)) + 1j * rng.standard_normal((mid, inn))
            for t in rng.choice(np.arange(-5, 6), size=3, replace=False)
        }
        taps_g = {
            int(t): rng.standard_normal((on, mid)) + 1j * rng.standard_normal((on, mid))
            for t in rng.choice(np.arange(-5, 6), size=3, replace=False)
        }
        f = FirKernel(tuple(f"m{j}" for j in range(mid)), tuple(f"i{j}" for j in range(inn)), taps_f)
        g = FirKernel(tuple(f"o{j}" for j in range(on)), f.out_ports, taps_g)
        lhs = dtft(convolve(g, f), 32).samples
        rhs = np.einsum("nij,njk->nik", dtft(g, 32).samples, dtft(f, 32).samples)
        dev = float(np.max(np.abs(lhs - rhs)))
        worst = max(worst, dev)
        check(failures, dev < 1e-12, f"convolution pair {i}: deviation {dev:.3e}")

    for i in range(50):
        times = rng.choice(np.arange(-8, 9), size=6, replace=False)
        s = Signal(
            ("a", "b"),
            {int(t): rng.standard_normal(2) + 1j * rng.standard_normal(2) for t in times},
        )
        dev = abs(parseval_norm(s, 64) - s.norm_squared())
        check(failures, dev < 1e-9, f"parseval case {i}: deviation {dev:.3e}")

    r = dtft(FirKernel(("o", "x"), ("i", "x"), {0: HADAMARD}), 64)
    traced = lsi_ex(r, 1)
    dev = float(np.max(np.abs(traced.samples - 1.0)))
    check(failures, dev < 1e-9, f"hadamard loop response deviates from 1 by {dev:.3e}")

    verdict(5, f"LSI/DTFT (worst convolution deviation {worst:.1e})", failures)


def test_criterion_6_qwhile():
    failures = []

    src = parse_source((CORPUS / "hadamard_delay_loop.qw").read_text())
    r = semantics(src.program, 256)
    h = src.gates["H"]
    z = np.exp(-1j * r.grid)
    oracle = h[0, 0] + h[0, 1] * z * h[1, 0] / (1 - h[1, 1] * z)
    dev = float(np.max(np.abs(r.samples[:, 0, 0] - oracle)))
    check(failures, dev < 1e-9, f"closed-form deviation {dev:.3e}")

    for path in sorted(CORPUS.glob("*.qw")):
        source = parse_source(path.read_text())
        cls = lsi_classify(semantics(source.program, 64))
        check(failures, cls == "lsi_contraction", f"{path.name}: classified {cls}")

    # compositionality spot-checks
    rng = np.random.default_rng(12)
    for i in range(5):
        gates = {"U": random_unitary(2, rng), "V": random_unitary(2, rng)}
        whole = semantics(parse("(seq (gate U) (gate V))", gates), 32).samples
        parts = (
            semantics(parse("(gate V)", gates), 32).samples
            @ semantics(parse("(gate U)", gates), 32).samples
        )
        dev = float(np.max(np.abs(whole - parts)))
        check(failures, dev < 1e-12, f"seq compositionality case {i}: {dev:.3e}")
        both = semantics(parse("(par (gate U) (delay 1))", gates), 32)
        check(
            failures,
            np.allclose(both.samples[:, :2, :2], gates["U"])
            and np.allclose(both.samples[:, 2, 2], np.exp(-1j * both.grid)),
            f"par direct-sum structure broken in case {i}",
        )

    verdict(6, "qWhile corpus semantics", failures)


def test_criterion_7_grover_cross_validation(watched_statevector):
    failures = []

    for b in (16, 64, 256):
        p = GroverParams(b, max_iterations=200)
        run, residuals = watched_statevector(p, force_keep_looping=True)
        rec = grover_recurrence(p, 200)[1:]
        folded = np.arcsin(np.abs(np.sin(rec)))
        dev = float(np.max(np.abs(np.array(run.angles) - folded)))
        check(failures, dev < 1e-9, f"|B|={b}: trajectory deviation {dev:.3e}")
        check(
            failures,
            max(residuals) < 1e-9,
            f"|B|={b}: left the Grover plane by {max(residuals):.3e}",
        )

    for b, seed in ((16, 3), (64, 5), (256, 8)):
        p = GroverParams(b, seed=seed, max_iterations=5000)
        run, residuals = watched_statevector(p)
        check(failures, run.halted_at is not None, f"|B|={b}: did not halt")
        check(failures, max(residuals) < 1e-9, f"|B|={b}, seed {seed}: left the Grover plane")
        target = np.zeros(b)
        target[0] = 1.0
        overlap = abs(np.vdot(target, run.state))
        check(failures, abs(overlap - 1.0) < 1e-9, f"|B|={b}: |<star|state>| = {overlap}")

    verdict(7, "statevector/recurrence cross-validation", failures)


def criterion_8_law():
    """The exact certify probabilities h (h[t-1] for iteration t) at the
    criterion-8 configuration and the CDF F with F[0] = 0 and
    F[t] = 1 - prod_{i <= t} (1 - h_i)."""
    _, probs = halting_law(10**6, 1e-3, math.ceil(50 / 1e-3))
    return probs, np.concatenate([[0.0], 1.0 - np.cumprod(1.0 - probs)])


def median_fits_law(m, cdf, eps):
    """Whether a sample median m is consistent with the integer law F.

    If sup |F_n - F| <= eps (DKW), then F(m) >= F_n(m) - eps >= 1/2 - eps
    and P(X < m) = F(ceil(m) - 1) <= 1/2 + eps; for integer m the second
    reads F(m - 1) <= 1/2 + eps.
    """
    return cdf[math.floor(m)] >= 0.5 - eps and cdf[math.ceil(m) - 1] <= 0.5 + eps


def test_criterion_8_sampling_statistics():
    failures = []
    n_trials = 10000
    # The median is checked against the halting-time law itself, with
    # the Dvoretzky-Kiefer-Wolfowitz-Massart band at false-alarm
    # probability 1e-6.  The law is computed before the timed run.
    law, cdf = criterion_8_law()
    eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n_trials))
    t0 = time.perf_counter()

    p = GroverParams(10**6, kappa=1e-3, seed=1)
    samples, summary = grover_montecarlo(p, n_trials)

    check(
        failures,
        1800.0 <= summary.mean <= 2200.0,
        f"sample mean {summary.mean:.1f} outside [1800, 2200]",
    )

    # The program's certify probabilities are the law's at every
    # iteration, and its horizon leaves no mass (1.3e-11) to censor.
    dev = float(np.max(np.abs(halting_probabilities(p) - law)))
    check(failures, dev < 1e-9, f"halting probabilities deviate from the law by {dev:.3e}")
    check(failures, summary.censored == 0, f"{summary.censored} trials censored")

    exact_median = int(np.searchsorted(cdf, 0.5))
    band = [
        int(np.searchsorted(cdf, 0.5 - eps)),
        int(np.searchsorted(cdf, 0.5 + eps, side="right")),
    ]
    check(
        failures,
        median_fits_law(summary.median, cdf, eps),
        f"sample median {summary.median:.1f} inconsistent with the halting-time law: "
        f"exact median {exact_median}, F(m) = {cdf[math.floor(summary.median)]:.4f}, "
        f"DKW eps = {eps:.4f}, passing medians {band}",
    )

    # Negative control: the same sample scaled to the quoted median of
    # ~1000 must fail the same check.
    times = samples.iterations.astype(float)
    control = float(np.median(times * (1000.0 / summary.median)))
    check(
        failures,
        not median_fits_law(control, cdf, eps),
        f"median check accepted the control median {control:.1f} "
        f"(F = {cdf[math.floor(control)]:.4f})",
    )

    # multimodality: at least two peaks separated by a deep trough
    lo_min = min(lo for lo, _ in summary.histogram)
    lo_max = max(lo for lo, _ in summary.histogram)
    width = summary.bucket_width
    filled = {lo: 0 for lo in range(lo_min, lo_max + 1, width)}
    filled.update(dict(summary.histogram))
    counts = np.array([filled[lo] for lo in sorted(filled)], dtype=float)
    # smooth away per-bucket sampling noise before hunting for peaks
    smooth = np.convolve(counts, np.ones(5) / 5.0, mode="same")
    raw_peaks = [
        i
        for i in range(1, len(smooth) - 1)
        if smooth[i] >= smooth[i - 1]
        and smooth[i] >= smooth[i + 1]
        and smooth[i] > 0.2 * smooth.max()
    ]
    peaks = []
    for i in raw_peaks:
        if peaks and i - peaks[-1] < 5:
            if smooth[i] > smooth[peaks[-1]]:
                peaks[-1] = i
        else:
            peaks.append(i)
    multimodal = False
    if len(peaks) >= 2:
        a, b = peaks[0], peaks[1]
        trough = smooth[a:b + 1].min()
        multimodal = trough < 0.5 * min(smooth[a], smooth[b])
    check(failures, multimodal, f"histogram not multimodal (peaks at {peaks[:4]})")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s")
    verdict(8, "sampling statistics at |B|=1e6", failures)


def test_criterion_8_summary_reports_exact_law():
    # The Monte-Carlo summary carries the exact law next to the sample;
    # at the criterion-8 configuration it must be the test's own law.
    failures = []
    _, cdf = criterion_8_law()
    t = np.arange(cdf.size)
    law_mean = float(t @ np.diff(cdf, prepend=0.0) / cdf[-1])
    _, summary = grover_montecarlo(GroverParams(10**6, kappa=1e-3, seed=1), 100)
    check(failures, summary.exact_median == 1158, f"exact median {summary.exact_median}")
    check(
        failures,
        summary.exact_median == int(np.searchsorted(cdf, 0.5)),
        f"exact median {summary.exact_median} differs from the law's",
    )
    check(
        failures,
        abs(summary.exact_mean - 2061) < 1 and abs(summary.exact_mean - law_mean) < 1e-6,
        f"exact mean {summary.exact_mean:.3f}, law {law_mean:.3f}",
    )
    check(
        failures,
        abs(summary.censored_mass - (1.0 - cdf[-1])) < 1e-12,
        f"censored mass {summary.censored_mass:.3e}, law {1.0 - cdf[-1]:.3e}",
    )
    verdict(8, "summary carries the exact halting-time law", failures)


def test_criterion_9_bounds():
    failures = []

    for kappa in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.999):
        cap = math.asin(kappa) + 1e-10
        grid = np.linspace(0.0, 2 * math.pi, 20001)
        worst = max(abs(theta(float(a), kappa)) for a in grid)
        check(failures, worst <= cap, f"kappa={kappa}: |theta| reaches {worst:.6f} > {cap:.6f}")

    for b in (64, 10**4):
        report = verify_guarantee(GroverParams(b), n_max=50)
        check(
            failures,
            report.ok,
            f"|B|={b}: {len(report.guarantee_violations)} guarantee / "
            f"{len(report.robustness_violations)} robustness violations",
        )

    t = grover_runtime_bound(10**6, 1e-3, c=1)
    approx = (8 + math.pi / 2) * 1000.0
    rel = abs(t - approx) / approx
    check(failures, rel < 0.01, f"T_1 = {t} deviates {rel:.2%} from (8+pi/2)sqrt(B)")

    verdict(9, "theta bound, guarantees, runtime bound", failures)
