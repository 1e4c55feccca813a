"""The trace core's brackets must change no outcome, bit for bit.

The core settles most of the norms it only compares with a tolerance by
their Frobenius and Gram brackets (``linalg.bracket_norms``), and lets a
series term whose Frobenius norm is surely quiet skip its checks.  The
brackets-off twin (the ``brackets_off`` fixture) is the same core with every
such norm exact and every Frobenius shortcut off.  Each input runs on both,
and values, routes, term counts, reported residuals, flags and errors are
compared byte for byte.  The twin follows the engine, so it pins no
algorithm: tests/test_golden.py pins the bytes, and every value whose
matrix has at most 8 rows is checked against reference.schur, a 50-digit
solve."""

import math
from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest
from reference import schur

from extrace import trace
from extrace.linalg import operator_norm, random_unitary, stack_norms, stack_pinv, two_block
from extrace.trace import KiTraceError, TraceConfig

# Values are checked against reference.schur up to this many rows (mpmath's cost).
EXACT_MAX_DIM = 8


def error_key(e):
    fields = ("index", "residual_in", "residual_out")
    return (type(e), str(e)) + tuple(getattr(e, name, None) for name in fields)


def core_outcome(core, m, k, cfg):
    try:
        values, method, terms, residual, converged = core(m, k, cfg)
    except ArithmeticError as e:
        return error_key(e)
    return values.tobytes(), list(method), terms.tolist(), residual.tobytes(), converged.tolist()


def without_gaps(outcome):
    """A core outcome without the residuals of its contraction entries
    (route both_agree): their series/closed-form gaps, which the core
    reports exact only when asked to."""
    if not isinstance(outcome[0], bytes):
        return outcome
    values, method, terms, residual, converged = outcome
    kept = np.frombuffer(residual)[np.array(method) != "both_agree"]
    return values, method, terms, kept.tobytes(), converged


def series_outcome(total, terms, term_norm, converged, errors):
    # An entry's last term norm is reported only when no entry fails.
    if errors:
        first = min(errors)
        return first, error_key(errors[first])
    return total.tobytes(), terms.tolist(), term_norm.tobytes(), converged.tolist()


def kernel_image_outcome(value, residual, errors):
    return value.tobytes(), residual.tobytes(), {i: error_key(e) for i, e in errors.items()}


def entry_outcome(route, f, cfg):
    """What a public single-matrix entry returns or raises."""
    try:
        r = route(f, "U", cfg)
    except ArithmeticError as e:
        return error_key(e)
    return r.value.tobytes(), r.terms_used, np.float64(r.residual).tobytes(), r.converged


@cache
def exact_trace(data: bytes, shape: tuple, k: int):
    """reference.schur of the matrix with these bytes, taken once for every config."""
    return schur(np.frombuffer(data, dtype=np.complex128).reshape(shape), k)


def assert_exact_values(m, k, outcome, cfg):
    """Every converged value of a core outcome lies within compare_tol *
    max(||m||, 1) of the exact trace, wherever that is defined."""
    b, a = m.shape[1] - k, m.shape[2] - k
    if not isinstance(outcome[0], bytes) or m.shape[1] > EXACT_MAX_DIM or k == 0 or b * a == 0:
        return
    values = np.frombuffer(outcome[0], dtype=np.complex128).reshape(-1, b, a)
    for x, value, converged in zip(m, values, outcome[4]):
        exact = exact_trace(x.tobytes(), x.shape, k) if converged else None
        if exact is not None:
            assert operator_norm(value - exact) <= cfg.compare_tol * max(operator_norm(x), 1.0)


def first_time(seen: set, *key) -> bool:
    """Whether key is new to seen, which holds it from now on."""
    new = key not in seen
    seen.add(key)
    return new


def assert_same(twin, seen, m, k, cfg):
    """The core, its two routes and the public entries give on m what the
    brackets-off twin gives, and the core's values are the exact trace.
    ``seen`` records what was compared: the series reads only series_tol,
    max_terms and blowup, and the closed form only ki_residual_tol and
    compare_tol, so each route is compared once per setting of those."""
    m = np.asarray(m, dtype=np.complex128)
    core = partial(trace._trace_core, report_gap=True)
    want = core_outcome(partial(twin, core), m, k, cfg)
    assert core_outcome(core, m, k, cfg) == want
    assert without_gaps(core_outcome(trace._trace_core, m, k, cfg)) == without_gaps(want)
    data = (hash(m.tobytes()), m.shape, k)
    if first_time(seen, "values", *data, hash(want[0]), cfg.compare_tol):
        assert_exact_values(m, k, want, cfg)
    if k == 0:
        return
    # Expansions whose tail ratio does not fall below 1 run the series route
    # to max_terms; 2,000 terms reach the same last-term rule much sooner.
    s_cfg = replace(cfg, max_terms=min(cfg.max_terms, 2000))
    new_series = first_time(seen, "series", *data, s_cfg.series_tol, s_cfg.max_terms, s_cfg.blowup)
    new_ki = first_time(seen, "closed form", *data, cfg.ki_residual_tol, cfg.compare_tol)
    if m.shape[0] == 1:  # the public entries run the routes on one matrix
        f = two_block(m[0], k)
        for new, route, c in ((new_series, trace.ex_series, s_cfg),
                              (new_ki, trace.ex_kernel_image, cfg)):
            if new:
                assert entry_outcome(route, f, c) == entry_outcome(partial(twin, route), f, c)
        return
    blocks = trace._blocks(m, k)
    if new_series:
        series = partial(trace._series, *blocks, s_cfg)
        assert series_outcome(*series()) == series_outcome(*twin(series))
    if new_ki:
        scale = np.maximum(stack_norms(m), 1.0)
        closed_form = partial(trace._kernel_image, *blocks, scale, cfg, True)
        assert kernel_image_outcome(*closed_form()) == kernel_image_outcome(*twin(closed_form))


@pytest.fixture(scope="module")
def same(brackets_off):
    """same(m, k, cfg) is assert_same against the twin, with one record of
    what was compared for the whole module."""
    return partial(assert_same, brackets_off, set())


# ---------------------------------------------------------------------------
# Inputs

CONFIGS = {
    "default": TraceConfig(),
    "max_terms=7": TraceConfig(max_terms=7),
    "blowup=50": TraceConfig(blowup=50),
    "ki_residual_tol=1e-14": TraceConfig(ki_residual_tol=1e-14),
    "compare_tol=1e-14": TraceConfig(compare_tol=1e-14),
}
SIZES = (2, 3, 4, 5, 8, 13, 24, 50, 100)
SCALES = (0.3, 0.7, 0.95, 1.0, 1.05, 1.5, 2.0)


def loop_sizes(n):
    return sorted({1, n // 2, n - 1, n} - {0})


def with_norm(rng, n, scale):
    """A square complex Gaussian matrix rescaled to operator norm ``scale``."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z * (scale / np.linalg.norm(z, 2))


def unitary_loop(rng, n, k, eps):
    """A contraction whose loop block is a unitary with eigenvalue e^{i eps},
    so id - f_UU is singular (eps = 0) or nearly so, beside a strict
    contraction on the body and not coupled to it."""
    v = random_unitary(k, rng)
    w, q = np.linalg.eig(v)
    w[0] = np.exp(1j * eps)
    m = np.zeros((n, n), dtype=np.complex128)
    m[: n - k, : n - k] = with_norm(rng, n - k, 0.8) if n > k else 0
    m[n - k :, n - k :] = q @ np.diag(w / np.abs(w)) @ np.linalg.inv(q)
    return m


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("n", SIZES)
def test_random_contractions_and_expansions_match_the_reference(same, n, cfg):
    rng = np.random.default_rng(n)
    for k in loop_sizes(n):
        for scale in SCALES:
            same(with_norm(rng, n, scale)[None], k, cfg)


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_unitary_loop_blocks_match_the_reference(same, cfg):
    rng = np.random.default_rng(7)
    for n, k in ((2, 1), (3, 2), (4, 4), (6, 3), (9, 5)):
        for eps in (0.0, 1e-13, 1e-11, 1e-9, 1e-6, 0.5):
            same(unitary_loop(rng, n, k, eps)[None], k, cfg)


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("n", (2, 4, 7))
def test_mixed_stacks_match_the_reference(same, n, cfg):
    # Contractions, boundary cases, expansions and resonant loops in one
    # stack; a stack stops at its first failing entry, so each stack is
    # also run without its failing entries.
    rng = np.random.default_rng(100 + n)
    for k in loop_sizes(n):
        stack = [with_norm(rng, n, scale) for scale in rng.choice(SCALES, 40)]
        stack += [unitary_loop(rng, n, k, eps) for eps in rng.choice([0.0, 1e-12, 1e-3], 10)]
        stack = np.array(stack)[rng.permutation(50)]
        same(stack, k, cfg)
        alone = [core_outcome(trace._trace_core, stack[i : i + 1], k, cfg) for i in range(50)]
        same(stack[[isinstance(out[0], bytes) for out in alone]], k, cfg)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def witnessless_loop(rng, b, a, k, diverge):
    """A non-contraction whose loop block is diag(1, 0, ..., 0), with f_UA
    feeding its first coordinate: no witness exists, so the closed form
    fails and the series is taken.  f_BU reads that coordinate only if
    ``diverge``, with gain 1e5, and the series then diverges; otherwise
    every term after the first is zero."""
    m = np.zeros((b + k, a + k), dtype=np.complex128)
    m[:b, :a], m[b:, :a] = 2 * gaussian(rng, b, a), gaussian(rng, k, a)
    m[:b, a + 1 - diverge :] = (1 + 99999 * diverge) * gaussian(rng, b, k - 1 + diverge)
    m[b, a] = 1.0
    return m


def unwitnessed_contraction(rng, b, k):
    """A contraction whose first body and first loop coordinates turn by
    about 1.4e-6, beside loop ports of gain 0.5 and a body block of norm 0.3
    that nothing else reaches, with random unitaries on the body's rows and
    columns: for k >= 2, id - f_UU has a singular value of 1e-12, below the
    pinv cutoff, so no witness exists."""
    c = 1 - 1e-12
    m = np.zeros((b + k, b + k), dtype=np.complex128)
    m[1:b, 1:b] = with_norm(rng, b - 1, 0.3) if b > 1 else 0
    m[np.ix_([0, b], [0, b])] = [[c, -math.sqrt(1 - c * c)], [math.sqrt(1 - c * c), c]]
    m[b + 1 :, b + 1 :] = 0.5 * np.eye(k - 1)
    m[:b] = random_unitary(b, rng) @ m[:b]
    m[:, :b] = m[:, :b] @ random_unitary(b, rng)
    return m


def ragged_stacks(rng, k):
    """Stacks of different shapes with loop size k, some with no B or no A
    block: contractions, boundary cases and expansions, resonant loops, and
    non-contractions that take the series, one of which diverges."""
    stacks = []
    for b, a in ((0, 2), (1, 1), (2, 3), (3, 0), (3, 3)):
        z = gaussian(rng, 5, b + k, a + k)
        stacks.append(z * (rng.choice(SCALES, 5) / np.linalg.norm(z, 2, axis=(1, 2)))[:, None, None])
    for n in (k, k + 1, k + 3):
        eps = rng.choice([0.0, 1e-12, 1e-3], 3)
        stacks.append(np.array([unitary_loop(rng, n, k, e) for e in eps]))
    for b, a in ((1, 2), (2, 1), (3, 3)):
        stacks.append(np.array([witnessless_loop(rng, b, a, k, d) for d in (0, 0, b == 2)]))
    return [stacks[i] for i in rng.permutation(len(stacks))]


def stack_jobs(stacks, k):
    """One _trace_grouped job per entry of each stack, in stack order."""
    return {(f"stack {j}", f"entry {i}"): (x, k) for j, s in enumerate(stacks) for i, x in enumerate(s)}


def grouped_outcome(jobs, cfg):
    """What _trace_grouped returns or raises: the values' bytes by key, or the error."""
    try:
        return {key: v.tobytes() for key, v in trace._trace_grouped(jobs, cfg).items()}
    except ArithmeticError as e:
        return error_key(e)


def alone_outcome(jobs, cfg):
    """grouped_outcome from one one-entry _trace_core call per job in trace
    order, and each value's route (None on an error)."""
    values, methods = {}, {}
    for key, (m, k) in jobs.items():
        try:
            value, method, *_ = trace._trace_core(m[None], k, cfg)
        except ArithmeticError as e:
            e.args = (f"{', '.join(key)}: {e}",)
            return error_key(e), None
        values[key], methods[key] = value[0].tobytes(), method[0]
    return values, methods


def assert_grouped_is_alone(twin, stacks, k, cfg):
    """_trace_grouped on every entry of the stacks gives what tracing each
    alone gives: the first failing job's error, or the values byte for byte
    except the series', taken on the padded union, which lie within
    compare_tol of theirs.  The brackets-off twin gives the same."""
    jobs = stack_jobs(stacks, k)
    got = grouped_outcome(jobs, cfg)
    assert twin(grouped_outcome, jobs, cfg) == got
    want, methods = alone_outcome(jobs, cfg)
    if methods is None:
        assert got == want
        return
    assert got.keys() == want.keys()
    for key, (x, _) in jobs.items():
        if methods[key] == "series":
            shape = (x.shape[0] - k, x.shape[1] - k)
            v, w = (np.frombuffer(out[key], np.complex128).reshape(shape) for out in (got, want))
            assert operator_norm(v - w) <= cfg.compare_tol * max(operator_norm(x), 1.0)
        else:
            assert got[key] == want[key]


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_ragged_batch_equals_one_call_per_stack(brackets_off, cfg):
    # A batch fails where its first failing job does, so each batch is also
    # run without the entries that fail alone.
    rng = np.random.default_rng(31)
    for k in (1, 2, 3):
        stacks = ragged_stacks(rng, k)
        assert_grouped_is_alone(brackets_off, stacks, k, cfg)
        passing = [s[[isinstance(core_outcome(trace._trace_core, x[None], k, cfg)[0], bytes)
                      for x in s]] for s in stacks]
        passing = [s for s in passing if len(s)]
        assert_grouped_is_alone(brackets_off, passing, k, cfg)
        # Witness residuals at roundoff fail, and print, their last bits.
        assert_grouped_is_alone(brackets_off, passing, k, replace(cfg, ki_residual_tol=1e-30))
        if k > 1 and cfg.max_terms <= 7:  # the resonant series would run to max_terms
            unwitnessed = [np.array([unwitnessed_contraction(rng, b, k) for _ in range(3)])
                           for b in (1, 2, 3)]
            assert_grouped_is_alone(brackets_off, passing[:2] + unwitnessed, k, cfg)


def test_batch_returns_each_stack_alone_where_only_the_union_fails(monkeypatch):
    # A padded series can round its gap an ulp above the exact-shape one.
    # With compare_tol at the latter, the union fails where no job does
    # alone, and _trace_grouped returns what each job gives alone.
    core, failed = trace._trace_core, []

    def watched(m, *args, **kwargs):
        try:
            return core(m, *args, **kwargs)
        except ArithmeticError:
            failed.append(len(m))
            raise

    monkeypatch.setattr(trace, "_trace_core", watched)
    rng = np.random.default_rng(5)

    def draw():
        small, big = with_norm(rng, 3, 0.9), with_norm(rng, 5, 0.9)
        gap = core(small[None], 2, TraceConfig(), report_gap=True)[3][0]
        return stack_jobs([small[None], big[None]], 2), TraceConfig(compare_tol=float(gap))

    def only_the_union_fails(case):
        failed.clear()
        grouped_outcome(*case)
        return failed == [2] and alone_outcome(*case)[1] is not None

    jobs, cfg = first_draw(draw, only_the_union_fails,
                           "a padded union that fails where each job alone passes")
    assert grouped_outcome(jobs, cfg) == alone_outcome(jobs, cfg)[0]


def test_pseudoinverse_from_one_svd_equals_numpy_pinv():
    rng = np.random.default_rng(3)
    for k in (1, 2, 5, 40):
        # singular, resonant near the 1e-10 cutoff on both sides, and generic
        hs = [np.eye(k) - unitary_loop(rng, k, k, eps) for eps in (0.0, 1e-11, 1e-9, 0.1)]
        hs += [np.eye(k) - with_norm(rng, k, scale) for scale in (0.5, 1.0, 2.0)]
        hs += [np.zeros((k, k)), np.eye(k)]
        # The cutoff is absolute: below 1e-10 a whole block counts as 0, and
        # beside a sigma_max of 1e-3 a singular value of 5e-11 does too.
        hs += [5e-11 * np.eye(k), 1e-3 * np.eye(k) - unitary_loop(rng, k, k, 5e-8) * 1e-3]
        h = np.array(hs, dtype=np.complex128)
        sigma_max = np.linalg.svd(h, compute_uv=False).max(axis=-1)
        rcond = np.divide(1e-10, sigma_max, out=np.ones_like(sigma_max), where=sigma_max > 0)
        got, want = stack_pinv(h, 1e-10), np.linalg.pinv(h, rcond=rcond)
        if k > 1:
            assert got.tobytes() == want.tobytes()
        else:  # a 1x1 block's is its reciprocal, taken without an SVD
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def resonant_mix(rng, n, k, theta):
    """A contraction whose loop block has an eigenvalue within about
    theta**2 of 1, coupled to the body by about theta: a unitary loop block
    turned by a rotation of angle theta between the first body coordinate
    and the first loop coordinate."""
    rot = np.eye(n, dtype=np.complex128)
    rot[np.ix_([0, n - k], [0, n - k])] = [[np.cos(theta), -np.sin(theta)],
                                           [np.sin(theta), np.cos(theta)]]
    return unitary_loop(rng, n, k, 0.0) @ rot


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_divergent_non_finite_and_resonant_inputs_match_the_reference(same, cfg):
    rng = np.random.default_rng(11)
    # loop block [[1, 1], [0, 1]]: no witness, the t-th term is t + 1
    jordan = np.array([[0.5, 1, 0], [1, 1, 1], [1, 0, 1]], dtype=np.complex128)
    # f_UU = diag(1e70, 0.5): the t-th term is 0.5^t until f_BU f_UU^5 overflows
    overflow = np.array([[0, 1, 1], [0, 1e70, 0], [1, 0, 0.5]], dtype=np.complex128)
    same(jordan[None], 2, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        same(overflow[None], 2, cfg)
    if cfg.max_terms <= 7:  # the resonant series would run to max_terms
        for n, k in ((3, 2), (5, 3), (8, 4)):
            for theta in (1e-7, 1e-4):
                same(resonant_mix(rng, n, k, theta)[None], k, cfg)


def first_draw(draw, accept, needs):
    """The first of up to 10,000 draws that ``accept`` takes; the test is
    skipped, naming what it ``needs``, on a build whose rounding never
    produces one."""
    for _ in range(10_000):
        x = draw()
        if accept(x):
            return x
    pytest.skip(f"no draw gives {needs} on this build")


def test_bracket_margins_hold_where_rounding_splits_the_two_norms(same):
    # The Frobenius and SVD norms round differently.  A rank-one sum whose
    # SVD norm lies two ulps above its Frobenius norm blows up at a bound
    # between them; a unitary term whose Frobenius norm rounds above
    # sqrt(rank) times its SVD norm passes series_tol set to that SVD norm.
    rng = np.random.default_rng(0)

    def rank_one():
        col, row = (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)) for _ in "cr")
        return col, row.T

    def split(x):
        return float(stack_norms(x)) > np.nextafter(np.linalg.norm(x), math.inf)

    col, row = first_draw(rank_one, lambda cr: split(cr[0] @ cr[1]),
                          "a rank-one matrix whose SVD norm lies two ulps above its Frobenius norm")
    m = np.zeros((4, 4), dtype=np.complex128)
    m[:3, 3:], m[3:, :3] = col, row
    bound = np.nextafter(np.linalg.norm(col @ row), math.inf)
    same(m[None], 1, TraceConfig(blowup=float(bound)))

    def rounds_above(q):
        term = q @ np.eye(3)
        return np.linalg.norm(term) > float(stack_norms(term)) * math.sqrt(3)

    q = first_draw(lambda: random_unitary(3, rng), rounds_above,
                   "a unitary whose Frobenius norm rounds above sqrt(3) times its SVD norm")
    m = np.zeros((6, 6), dtype=np.complex128)
    m[:3, 3:], m[3:, :3] = q, np.eye(3)
    same(m[None], 3, TraceConfig(series_tol=float(stack_norms(q @ np.eye(3)))))


def nilpotent_loop(rng, n, k, scale):
    """A matrix rescaled to operator norm ``scale`` whose k x k loop block
    is strictly upper triangular, so f_UU^k = 0: the first k series terms
    are nonzero and every later one is exactly zero."""
    m = with_norm(rng, n, 1.0)
    m[n - k :, n - k :] = np.triu(m[n - k :, n - k :], 1)
    return m * (scale / np.linalg.norm(m, 2))


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_runs_of_quiet_terms_end_as_the_reference_ends_them(same, cfg):
    # A quiet term is one far from the certificate, with finite norms and
    # the partial-sum bound below blowup, for every live entry.  Each input
    # below ends a run of such terms at one edge of that rule.
    rng = np.random.default_rng(23)
    # One entry comes within reach of the certificate while another is quiet.
    for n, k in ((3, 1), (4, 2), (6, 3)):
        same(np.array([with_norm(rng, n, 0.2), with_norm(rng, n, 0.97)]), k, cfg)
        same(np.array([with_norm(rng, n, s) for s in (0.97, 0.05, 0.6, 0.99)]), k, cfg)
    # The bound crosses blowup after quiet terms 1.5^t; with alternating
    # signs the partial sums stay below it for some terms after that.
    for loop in (1.5, -1.5, 3.0):
        same(np.array([[[0.0, 1.0], [1.0, loop]]]), 1, cfg)
    # f_UU = diag(1e16, 0.9): terms 0.9^t until f_BU f_UU^20 overflows.
    overflow = np.array([[0, 1, 1], [0, 1e16, 0], [1, 0, 0.9]], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        same(overflow[None], 2, cfg)
    # The last term would otherwise be quiet.
    for max_terms in (1, 2, 3):
        short = replace(cfg, max_terms=max_terms)
        same(with_norm(rng, 3, 0.9)[None], 1, short)
        same(np.array([with_norm(rng, 4, 0.9), with_norm(rng, 4, 1.5)]), 2, short)
    # A nilpotent loop block: quiet terms, then exact zeros.
    for n, k in ((3, 2), (5, 3), (7, 4)):
        for scale in (0.9, 2.0):
            same(nilpotent_loop(rng, n, k, scale)[None], k, cfg)


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_terms_whose_frobenius_norm_underflows_match_the_reference(same, cfg):
    # The second series term, about coupling^2 * tiny, is nonzero but its
    # Frobenius norm underflows to 0; it still certifies by its exact norm,
    # not by the exactly-zero-term rule one term later.
    for coupling, tiny in ((1e-3, 1e-158), (1e-3, 1e-159), (1e-2, 1e-159), (1e-2, 1e-160)):
        m = np.array([[0.5, coupling, coupling], [coupling, tiny, tiny], [coupling, 0, tiny]])
        same(m[None], 2, cfg)


def one_port_loop(loop, body=(0.3, 0.2, 0.1)):
    """A 2x2 matrix whose 1x1 loop block is ``loop``."""
    a, b, c = body
    return np.array([[a, b], [c, loop]], dtype=np.complex128)


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_one_port_loops_match_the_reference(same, cfg):
    # A 1x1 loop block's norm is its modulus and its pseudoinverse its
    # reciprocal, at every magnitude and with no SVD (tests/test_small_blocks.py
    # checks both against 50-digit arithmetic).
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    delay_at_zero = h.copy()  # hadamard_delay_loop's body at omega = 0, imaginary parts -0.0
    delay_at_zero.imag = -0.0
    swap = np.array([[0, 1], [1, 0]], dtype=np.complex128)  # loop block exactly 0
    tame = [delay_at_zero, h, swap, one_port_loop(-0.7), one_port_loop(-1.0),
            one_port_loop(complex(-0.6, -0.0), (0.6, 0.5, 0.5))]
    for m in tame:
        same(m[None], 1, cfg)
    same(np.array(tame), 1, cfg)
    # loop blocks from 1e-140 to 1e140 in size, and within 1e-130 of one
    edges = [one_port_loop(v) for v in (
        1e135, -1e135, 1e140, 1e-135, 1e-140, 1e135j, -1e-140j, 10**67.5, 1e70,
        -(10**-67.5) * 1j, 1e-70, 1 + 1e-135j, 1 - 1e-140j, 1 + 1.000001e-130j,
        1 - 0.999999e-130j)]
    # The loops within 1e-130 of one never certify, so they end by the same rule
    # at any budget; the twin confirms each of their terms by an exact norm.
    # 5,000 terms keep every route, flag and error (under blowup=50 they blow
    # up near term 2,500); one of them runs the full budget once.
    short = replace(cfg, max_terms=min(cfg.max_terms, 5_000))
    with np.errstate(over="ignore", invalid="ignore"):
        for m in edges:
            same(m[None], 1, short)
        if cfg == TraceConfig():
            same(edges[-4][None], 1, cfg)
        # tame entries and extreme ones in one stack
        same(np.array(tame + edges[-4:-2]), 1, short)


@pytest.mark.parametrize("scale", [1.0, 1 + 3e-16, 1 + 2e-11])
def test_contraction_without_witness_reports_against_its_norm(same, scale):
    # A rotation by about 1.4e-6 between the body and the first loop port,
    # beside a loop port of gain 0.5: id - f_UU has a singular value of at
    # most 2e-11, below the pinv cutoff, so no witness exists.  Up to norm
    # 1 + DEFAULT_TOL the matrix is a contraction, whose residuals are
    # judged against a scale of 1; the error reports them against the same
    # scale, so the larger of the two is the residual the closed form judged.
    c = 1 - 1e-12
    s = math.sqrt(1 - c * c)
    m = scale * np.array([[c, -s, 0], [s, c, 0], [0, 0, 0.5]], dtype=np.complex128)
    cfg = TraceConfig(max_terms=7)  # the series is resonant, and the closed form fails first
    same(m[None], 2, cfg)
    with pytest.raises(KiTraceError, match="not ki-traceable") as failure:
        trace._trace_core(m[None], 2, cfg)
    _, judged, _ = trace._kernel_image(*trace._blocks(m[None], 2), np.ones(1), cfg, True)
    assert max(failure.value.residual_in, failure.value.residual_out) == judged[0]
