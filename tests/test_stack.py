"""The frequency-stack trace must give every sample exactly what the
scalar trace gives it, and must do so in a number of linear-algebra
calls that does not grow with the grid."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from extrace import trace
from extrace.linalg import direct_sum, random_contraction, random_unitary, two_block
from extrace.lsi import FirKernel, FrequencyResponse, dtft, lsi_classify, lsi_ex
from extrace.qwhile import (
    Delay,
    DoWhile,
    Par,
    Seq,
    Unitary,
    parse_source,
    semantics,
)
from extrace.trace import SeriesDivergence, TraceConfig, ex, ex_series

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def scalar_semantics(node, omega):
    """Reference evaluator: one frequency at a time, loops by scalar ex."""
    if isinstance(node, Unitary):
        return node.matrix
    if isinstance(node, Delay):
        return np.exp(-1j * np.array([[omega]]) * node.t)
    if isinstance(node, Seq):
        return scalar_semantics(node.second, omega) @ scalar_semantics(node.first, omega)
    if isinstance(node, Par):
        return direct_sum(scalar_semantics(node.left, omega), scalar_semantics(node.right, omega))
    body = scalar_semantics(node.body, omega)
    return ex(two_block(body, node.feedback), "U").value


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.qw")), ids=lambda p: p.stem)
def test_semantics_matches_scalar_trace_at_every_frequency(path):
    program = parse_source(path.read_text()).program
    r = semantics(program, 64)
    for omega, sample in zip(r.grid, r.samples):
        assert np.max(np.abs(sample - scalar_semantics(program, omega))) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_lsi_ex_matches_scalar_trace_at_every_frequency(seed):
    rng = np.random.default_rng(seed)
    ports = int(rng.integers(2, 17))
    loop = int(rng.integers(1, ports))
    names = tuple(f"p{i}" for i in range(ports))
    taps = {t: random_contraction(ports, ports, rng) / 3 for t in range(3)}
    r = dtft(FirKernel(names, names, taps), 32)
    traced = lsi_ex(r, loop)
    assert traced.samples.shape == (32, ports - loop, ports - loop)
    for sample, got in zip(r.samples, traced.samples):
        want = ex(two_block(sample, loop), "U").value
        assert np.max(np.abs(got - want)) <= 1e-12


def reference_series(m, k, cfg):
    """The per-term series, one matrix at a time, with an SVD norm of every
    term and partial sum: (value, terms, last term norm, converged).  The tail
    ratio is ||P^2||^(1/2k), P = f_UU^k, and a zero term certifies only when
    the next k - 1 terms are exactly zero too.  A one-port term is u^n C, of
    rank one: the power by a product in term order, the norm |u^n| ||f_BU||
    ||f_UA||, and the partial sum f_BA + g_n C with g_n = sum_{m<=n} u^m, in
    the engine's operations and order."""
    b = m.shape[0] - k
    f_ba, f_bu, f_ua, f_uu = m[:b, :b], m[:b, b:], m[b:, :b], m[b:, b:]
    probe = np.linalg.matrix_power(f_uu, k)
    ratio = np.linalg.norm(probe @ probe, 2) ** (1.0 / (2 * k))
    total, left, term_norm = f_ba.copy(), f_bu.copy(), math.inf
    if k == 1:  # term n is u^n C, C = f_BU f_UA of rank one, summed as f_BA + g_n C
        u, c, power, coef = complex(f_uu[0, 0]), f_bu @ f_ua, 1 + 0j, 0j
        c_norm = np.linalg.norm(f_bu, axis=(0, 1)) * np.linalg.norm(f_ua, axis=(0, 1))
    for n in range(cfg.max_terms):
        term = power * c if k == 1 else left @ f_ua
        if not np.all(np.isfinite(term)):
            raise SeriesDivergence(f"non-finite entries at series term {n}")
        if k == 1:
            coef += power
            total, term_norm, power = f_ba + coef * c, np.abs([power])[0] * c_norm, power * u
        else:
            total += term
            term_norm = np.linalg.norm(term, 2)
        if np.linalg.norm(total, 2) > cfg.blowup:
            raise SeriesDivergence(
                f"partial sum exceeded {cfg.blowup:g} at term {n}; "
                "the series does not converge in norm"
            )
        if term_norm <= cfg.series_tol:
            tail = term_norm * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
            if term_norm == 0.0:
                ahead, vanish = left, True
                for _ in range(k - 1):
                    ahead = ahead @ f_uu
                    vanish &= not (ahead @ f_ua).any()
                tail = 0.0 if vanish else math.inf
            if tail <= cfg.series_tol:
                return total, n + 1, term_norm, True
        left = left @ f_uu
    return total, cfg.max_terms, term_norm, False


# Nilpotent loops whose zero terms come before nonzero ones: with the 2-dim
# loop the series is 0.225 after 3 terms, not 0.1 after the first, zero, term.
NILPOTENT = [(np.array([[0.1, 0.5, 0], [0, 0, 0.5], [0.5, 0, 0]]), 2),
             (np.array([[0.2, 0.5, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.5], [0.5, 0, 0, 0]]), 3)]


def assert_series_matches_per_term_reference(scale):
    # Same arithmetic in the same order, so the results must be equal,
    # not close: values, term counts, last increments and flags.
    cfg = TraceConfig(max_terms=300)
    cases = [(m * scale, k) for m, k in NILPOTENT]
    for seed in range(30):
        rng = np.random.default_rng(seed)
        dim, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        cases.append((random_contraction(dim + k, dim + k, rng) * scale, k))
    for m, k in cases:
        try:
            want = reference_series(m, k, cfg)
        except SeriesDivergence as e:
            with pytest.raises(SeriesDivergence, match=re.escape(str(e))):
                ex_series(two_block(m, k), "U", cfg)
            continue
        got = ex_series(two_block(m, k), "U", cfg)
        assert np.array_equal(got.value, want[0])
        assert (got.terms_used, got.residual, got.converged) == want[1:]


@pytest.mark.parametrize("scale", [0.5, 1.0, 1.3, 3.0])
def test_series_matches_per_term_reference(scale):
    assert_series_matches_per_term_reference(scale)


def test_one_term_blocks_match_the_per_term_reference(monkeypatch):
    # A cap of one live entry x term makes every one-port block one term long.
    monkeypatch.setattr(trace, "SERIES_BLOCK", 1)
    for scale in (0.5, 1.0, 1.3, 3.0):
        assert_series_matches_per_term_reference(scale)


def test_series_stack_gives_each_entry_what_it_gets_alone():
    # Entries retire on their own rule, so in a stack each entry must get
    # exactly what a one-entry stack gives it: sum, terms, last increment,
    # flag and error.  The stack mixes contractions, expansions that
    # converge, and ones that blow up or run out of terms; entry 0's
    # partial sums have Frobenius norm above the blow-up bound and
    # operator norm below it.
    cfg = TraceConfig(max_terms=300, blowup=50)
    rng = np.random.default_rng(7)
    m = np.stack([random_contraction(6, 6, rng) * s for s in rng.uniform(0.3, 3.0, 40)])
    m[0, :4, :4] = 30 * np.eye(4)
    blocks = trace._blocks(m, 2)
    got = trace._series(*blocks, cfg)
    assert got[4] and not all(got[3]) and any(got[3])
    for i in range(len(m)):
        want = trace._series(*(b[i : i + 1] for b in blocks), cfg)
        assert np.array_equal(got[0][i], want[0][0])
        assert (got[1][i], got[2][i], got[3][i]) == (want[1][0], want[2][0], want[3][0])
        assert str(got[4].get(i)) == str(want[4].get(0))


def one_port(loop, coupling, body=0.3):
    """A 3x3 matrix whose 1x1 loop block is ``loop``, fed by and feeding
    port 0 with gain ``coupling``, beside a body block ``body`` * id."""
    m = np.diag([body, body, loop]).astype(np.complex128)
    m[0, 2] = m[2, 0] = coupling
    return m


@pytest.mark.parametrize("block", [trace.SERIES_BLOCK, 7])
def test_one_port_stack_gives_each_entry_what_it_gets_alone(monkeypatch, block):
    # A one-port stack sums a block of terms per array call, so an entry's
    # block edges move with the stack around it and with the cap on a
    # block; its sum, terms, last increment, flag and error must not.  The
    # stack mixes contractions and expansions, a zero loop, loops that blow
    # up or overflow, unimodular loops whose bound passes the cap while
    # their partial sums stay below blowup, a body whose Frobenius norm
    # starts above the cap, and entries that run out of terms.
    monkeypatch.setattr(trace, "SERIES_BLOCK", block)
    cfg = TraceConfig(max_terms=300, blowup=50)
    rng = np.random.default_rng(11)
    m = [random_contraction(3, 3, rng) * s for s in rng.uniform(0.3, 3.0, 24)]
    m += [one_port(0, 0.5), one_port(0.999, 0.5), one_port(1.5, 0.5), one_port(1e140, 0.5),
          one_port(1e200, 1e-150), one_port(-1.0, 0.2**0.5), one_port(1j, 0.5),
          one_port(0.5, 0.1, body=40)]
    m = np.array(m)[rng.permutation(len(m))]
    blocks = trace._blocks(m, 1)
    got = trace._series(*blocks, cfg)
    errors = sorted(str(e).split(" at ")[0] for e in got[4].values())
    assert errors[0] == "non-finite entries" and errors[-1] == "partial sum exceeded 50"
    assert not all(got[3]) and any(got[3]) and 300 in got[1]
    for i in range(len(m)):
        want = trace._series(*(b[i : i + 1] for b in blocks), cfg)
        assert np.array_equal(got[0][i], want[0][0])
        assert (got[1][i], got[2][i], got[3][i]) == (want[1][0], want[2][0], want[3][0])
        assert str(got[4].get(i)) == str(want[4].get(0))


def traced(route, m, k, cfg):
    """What ``route`` returns on m looped over k ports, or the class and
    message of what it raises."""
    try:
        r = route(two_block(m, k), "U", cfg)
    except ArithmeticError as e:
        return type(e), str(e)
    return r.method, r.terms_used, r.converged, r.value


@pytest.mark.parametrize("m", [
    *([[0.5, 0.5], [0.5, u]] for u in (0.9, -0.7, 0.5j, 0.999, 0)),
    [[0.1, 1], [1, 2]],  # blows up at term 19
    [[0.5, 1], [1, 1]],  # unconverged at max_terms
    [[0, 1e200], [1e200, 0.5]],  # non-finite at term 0
    [[0, 1], [1, 1e200]],  # blows up at term 1
    pytest.param([[0, 1e-160], [1e-160, 2]], marks=pytest.mark.xfail(strict=True, reason=(
        "the one-port series overflows u^t before it multiplies by f_BU f_UA: non-finite "
        "at term 1024, where the term is about 1.8e-12; the two-port one blows up at 1082"))),
    pytest.param([[0.5, 1e-165], [1e-165, 1e10]], marks=pytest.mark.xfail(strict=True, reason=(
        "f_BU f_UA = 1e-330 underflows to an exact zero, and a zero term of a 1x1 loop "
        "certifies alone: the one-port series converges at term 0 to 0.5; the two-port "
        "one looks a term ahead and blows up at term 34"))),
    # A 2x2 body: the two-port blow-up check takes the SVD route.
    [[1.5e308, 0, 1e308], [0, 0, 0], [1, 0, 0]],  # the partial sum overflows at term 0
    [[0.1, 0, 1], [0, 0.1, 1], [1, 1, 2]],  # blows up at term 18
    [[0.5, 0.2, 0.5], [0.1, 0.5, 0.5], [0.5, 0.5, 0.9]],  # certifies in 234 terms
], ids=lambda m: "_".join(map(str, np.ravel(m))))
def test_one_and_two_port_series_apply_one_rule(m):
    # An n x n [[A, B], [C, u]] over its one loop port and [[A, B, 0], [C, u, 0],
    # [0, 0, 0]] over two have the same terms B u^t C, one summed a block of terms
    # per array call and the other a term per matmul: both must stop by one rule.
    cfg = TraceConfig(max_terms=30_000)
    m = np.array(m, dtype=np.complex128)
    n = m.shape[0]
    wide = np.zeros((n + 1, n + 1), dtype=np.complex128)
    wide[:n, :n] = m
    for route in (ex_series, ex):
        one, two = traced(route, m, 1, cfg), traced(route, wide, 2, cfg)
        if len(one) == 2:  # an error's class and message
            assert one == two
        else:
            assert one[:3] == two[:3]
            assert np.max(np.abs(one[3] - two[3])) <= 1e-12 * max(1.0, np.max(np.abs(m)))


def response(samples):
    samples = np.asarray(samples, dtype=np.complex128)
    names = tuple(f"p{i}" for i in range(samples.shape[1]))
    return FrequencyResponse(samples, names, names)


# One sample per route of the total trace, each a 2x2 map with a 1-dim loop.
CONTRACTION = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
KI_EXPANSION = np.array([[2.0, 0.5], [0.5, 0.25]])  # id - f_UU invertible
SERIES_EXPANSION = np.array([[2.0, 1.0], [0.0, 1.0]])  # no witness, zero terms
UNCONVERGED_EXPANSION = np.array([[2.0, 1.0], [1e-12, 1.0]])  # no witness, flat terms


def test_mixed_stack_gives_each_sample_its_scalar_route():
    cfg = TraceConfig(max_terms=200)
    kinds = [CONTRACTION, KI_EXPANSION, SERIES_EXPANSION, UNCONVERGED_EXPANSION]
    order = [3, 0, 2, 1, 1, 0, 3, 2]
    samples = [kinds[i] for i in order]
    scalar = [ex(two_block(m, 1), "U", cfg) for m in samples]
    assert {s.method for s in scalar} == {"both_agree", "kernel_image", "series"}
    assert not all(s.converged for s in scalar)
    # A stack holding an unconverged sample raises, naming that sample's omega.
    for stack in (samples, samples[1:]):
        r = response(stack)
        bad = min(i for i, m in enumerate(stack) if m is UNCONVERGED_EXPANSION)
        with pytest.raises(ArithmeticError, match=f"omega={r.grid[bad]:.6f}: series did not"):
            lsi_ex(r, 1, cfg)
    kept = [(m, s) for m, s in zip(samples, scalar) if s.converged]
    assert {s.method for _, s in kept} == {"both_agree", "kernel_image", "series"}
    traced = lsi_ex(response([m for m, _ in kept]), 1, cfg)
    for got, (_, want) in zip(traced.samples, kept):
        assert np.array_equal(got, want.value)


# f_UU = diag(1, 2): id - f_UU is singular with f_UA outside its range, so
# there is no witness, and the series grows like 2^n.
DIVERGENT = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 2.0]])


def test_failing_stack_names_first_bad_frequency_lsi():
    with pytest.raises(SeriesDivergence):
        ex(two_block(DIVERGENT, 2), "U")
    samples = np.stack([0.5 * np.eye(3)] * 8)
    samples[5] = samples[7] = DIVERGENT
    r = response(samples)
    with pytest.raises(ArithmeticError, match=f"omega={r.grid[5]:.6f}: partial sum exceeded"):
        lsi_ex(r, 2)


def test_failing_stack_names_bad_frequency_semantics():
    # The body G (1 (+) e^{-iw} (+) 1) has f_UU = diag(-e^{-iw}, 2), which
    # takes the eigenvalue 1 only at w = pi; there the loop has no witness
    # and its series diverges, while every other frequency has a witness.
    g = Unitary("G", np.array([[0.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, 2.0]]))
    body = Seq(Par(Delay(0), Par(Delay(1), Delay(0))), g)
    with pytest.raises(SeriesDivergence, match=f"omega={math.pi:.6f}: partial sum exceeded"):
        semantics(DoWhile(body, 2), 16)


def unitary_tap_response(ports, grid, seed=0):
    """The transform of three taps, each a unitary scaled to norm 0.3: every
    sample is a strict contraction."""
    rng = np.random.default_rng(seed)
    names = tuple(f"p{i}" for i in range(ports))
    return dtft(FirKernel(names, names, {t: 0.3 * random_unitary(ports, rng) for t in range(3)}),
                grid)


def test_decomposition_count_does_not_grow_with_grid(svd_shapes):
    # A two-port loop block keeps its witness and tail-ratio SVDs.
    small = len(svd_shapes(lambda: lsi_ex(unitary_tap_response(3, 64), 2)))
    large = len(svd_shapes(lambda: lsi_ex(unitary_tap_response(3, 1024), 2)))
    assert small >= 1
    assert small == large


@pytest.mark.parametrize("name", ["hadamard_delay_loop", "nested_loop", "swap_loop"])
def test_corpus_loops_take_no_svd(svd_shapes, name):
    # Every corpus loop feeds back one port: the witnesses and the tail ratio
    # of a 1x1 loop block take its reciprocal and its modulus, and the Gram
    # bracket settles the contraction test of a unitary sample.
    program = parse_source((CORPUS / f"{name}.qw").read_text()).program
    assert svd_shapes(lambda: lsi_classify(semantics(program, 4096))) == []


def test_strictly_contractive_fir_takes_at_most_two_svds_per_sample(svd_shapes):
    # Every sample is a strict contraction, most with ||sample||_F above 1.
    # A two-port loop's witnesses and tail ratio take SVDs, a one-port
    # loop's take none; the brackets settle the rest, the gap included.
    r = unitary_tap_response(4, 64)
    assert np.mean(np.linalg.norm(r.samples, axis=(-2, -1)) > 1) > 0.5
    shapes = svd_shapes(lambda: (lsi_classify(r), lsi_ex(r, 2)))
    entries = sum(math.prod(shape[:-2]) for shape in shapes)
    assert entries <= 2 * 64
    assert svd_shapes(lambda: (lsi_classify(r), lsi_ex(r, 1))) == []
    assert lsi_classify(r) == "lsi_contraction"


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.qw")), ids=lambda p: p.stem)
def test_unitary_corpus_responses_classify_without_an_svd(svd_shapes, path):
    # ||U||_F / sqrt(n) = 1 leaves the Frobenius bracket open on a unitary
    # sample; the Gram bracket shows it below 1 + DEFAULT_TOL.
    r = semantics(parse_source(path.read_text()).program, 256)
    assert svd_shapes(lambda: lsi_classify(r)) == []
    assert lsi_classify(r) == "lsi_contraction"


def test_contractions_below_one_in_frobenius_norm_take_no_svd_of_the_stack(svd_shapes):
    rng = np.random.default_rng(5)
    taps = {t: random_contraction(4, 4, rng) / 4 for t in range(3)}
    r = dtft(FirKernel(tuple("abcd"), tuple("abcd"), taps), 64)
    assert np.all(np.linalg.norm(r.samples, axis=(-2, -1)) < 1)
    for fn in (lambda: trace._trace_core(r.samples, 2, TraceConfig()), lambda: lsi_classify(r)):
        assert all(shape[-2:] != (4, 4) for shape in svd_shapes(fn))
    assert lsi_classify(r) == "lsi_contraction"


def expansion_with_small_loop(n, rng):
    """Operator norm 2 with a loop block, the trailing n // 2 rows and
    columns, of norm 0.5: every entry takes the closed form alone."""
    k = n - n // 2
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    uu = z[k:, k:] * (0.5 / np.linalg.norm(z[k:, k:], 2))
    z[k:, k:] = 0
    z *= 2.0 / np.linalg.norm(z, 2)
    z[k:, k:] = uu
    return two_block(z, n // 2)


def test_series_takes_no_svd_of_an_empty_stack(svd_shapes):
    program = parse_source((CORPUS / "hadamard_delay_loop.qw").read_text()).program
    f = two_block(random_contraction(32, 32, np.random.default_rng(32)), 8)
    small = two_block(np.array([[2, 0.5], [0.5, 0.25]], dtype=complex), 1)
    big = expansion_with_small_loop(16, np.random.default_rng(16))
    # f_UU = 1 has no witness, so this expansion takes the series alone
    series_alone = two_block(np.array([[0, 1], [1, 1]], dtype=complex), 1)
    short = TraceConfig(max_terms=5)
    # every port looped leaves (N, 2, 0), (N, 0, 2) and (N, 0, 0) witness stacks
    rng = np.random.default_rng(2)
    taps = {t: random_contraction(2, 2, rng) / 3 for t in range(3)}
    fir = dtft(FirKernel(("a", "b"), ("a", "b"), taps), 16)
    for fn in (lambda: ex(f, "U"), lambda: semantics(program, 64),
               lambda: ex(small, "U"), lambda: ex(big, "U"),
               lambda: ex(series_alone, "U", short), lambda: lsi_ex(fir, 2)):
        shapes = svd_shapes(fn)
        assert all(math.prod(shape) > 0 for shape in shapes), shapes
    for g in (small, big):
        result = ex(g, "U")
        assert result.method == "kernel_image" and result.terms_used == 0
    assert ex(series_alone, "U", short).method == "series"
