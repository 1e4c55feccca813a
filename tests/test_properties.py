"""Property-based invariants that complement the example-driven suites."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from extrace.kappa import GroverParams, halting_probabilities, theta
from extrace.linalg import (
    adjoint,
    classify,
    matrix_from_literal,
    matrix_to_literal,
    operator_norm,
    random_contraction,
    random_isometry,
    two_block,
)
from extrace.lsi import Signal, parseval_norm
from extrace.trace import KiTraceError, ex, ex_kernel_image, halmos_dilation
from reference import halting_law, schur

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def complex_matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    flat = draw(
        st.lists(
            st.tuples(finite, finite), min_size=rows * cols, max_size=rows * cols
        )
    )
    return np.array([complex(a, b) for a, b in flat]).reshape(rows, cols)


@given(complex_matrices())
def test_literal_round_trip_is_exact(m):
    assert np.array_equal(matrix_from_literal(matrix_to_literal(m)), m)


@given(complex_matrices())
@settings(deadline=None)
def test_halmos_dilation_always_unitary_after_scaling(m):
    # scale strictly inside the unit ball: exactly on the boundary the
    # defect square roots amplify machine epsilon to ~1e-8.  Subnormal
    # inputs are first lifted by an exact power of two: their norm is
    # inexact and dividing by it can overflow to nan.
    m = m * 2.0**600 if 0 < np.abs(m).max() < 1e-300 else m
    norm = operator_norm(m)
    f = m / (norm * (1.0 + 1e-6)) if norm > 0 else m
    g = halmos_dilation(f)
    n = sum(f.shape)
    assert operator_norm(adjoint(g) @ g - np.eye(n)) < 1e-9


def classify_by_three_norms(m, tol):
    """The classification from ||m^H m - id||, ||m m^H - id|| and ||m||."""
    rows, cols = m.shape
    ident = np.eye(cols)
    if np.linalg.norm(adjoint(m) @ m - ident, 2) <= tol:
        if rows == cols and np.linalg.norm(m @ adjoint(m) - ident, 2) <= tol:
            return "unitary"
        return "isometry"
    norm = np.linalg.norm(m, 2)
    if norm <= 1.0 + tol:
        return "strict_contraction" if norm < 1.0 - tol else "contraction_boundary"
    return "expansion"


@st.composite
def classify_cases(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["isometry", "strict", "up", "down", "expansion"]))
    # Scaling an isometry by 1 +- tol/2 moves |s^2 - 1| off tol by tol^2/4,
    # which must stay far above rounding; hence no tol below 1e-6 there.
    tols = [1e-6, 1e-4, 1e-2] if kind in ("up", "down") else [1e-9, 1e-6, 1e-3]
    tol = draw(st.sampled_from(tols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A unitary when square, else an isometry (tall) or its adjoint (wide).
    base = random_isometry(max(rows, cols), min(rows, cols), rng)
    base = base if rows >= cols else adjoint(base)
    if kind == "isometry":
        return base, tol
    if kind in ("up", "down"):
        return base * (1.0 + tol / 2 if kind == "up" else 1.0 - tol / 2), tol
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    target = rng.uniform(0.0, 0.9) if kind == "strict" else rng.uniform(1.1, 10.0)
    return z * (target / np.linalg.norm(z, 2)), tol


@given(classify_cases())
@settings(deadline=None)
def test_classify_matches_three_norm_definition(case):
    m, tol = case
    assert classify(m, tol) == classify_by_three_norms(m, tol)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(deadline=None, max_examples=40)
def test_trace_never_expands_contractions(seed, dim):
    rng = np.random.default_rng(seed)
    u = int(rng.integers(1, dim))
    value = ex(two_block(random_contraction(dim, dim, rng), u), "U").value
    assert operator_norm(value) <= 1.0 + 1e-7


@st.composite
def shifted_loop_contractions(draw):
    """A contraction with a d-dim loop whose first d - 1 series terms are
    exactly zero: f_UU = c S (S the upper shift), f_BU = a e_1^T and
    f_UA = b e_d, so the only nonzero term is a b c^(d-1), term d - 1."""
    d = draw(st.integers(2, 6))
    m = np.zeros((d + 1, d + 1))
    m[0, 0] = draw(st.floats(-1.0, 1.0))
    m[0, 1] = draw(st.floats(0.5, 1.0))
    m[d, 0] = draw(st.floats(0.5, 1.0))
    m[1:, 1:] = draw(st.floats(0.3, 0.9)) * np.eye(d, k=1)
    return m * (0.95 / max(operator_norm(m), 0.95)), d


@given(shifted_loop_contractions())
@settings(deadline=None, max_examples=40)
def test_vanishing_leading_terms_do_not_certify(case):
    m, d = case
    got = ex(two_block(m, d), "U")
    assert got.method == "both_agree"
    assert np.abs(got.value - schur(m, d)).max() <= 1e-10


@st.composite
def planted_partial_traces(draw):
    """A matrix of up to 6x6 with a loop of k = 1..4 wires whose
    id - f_UU = L = P diag(s) Q^H has rank r = 0..k (P, Q isometries, s in
    [0.5, 2]), and the loop's inner wire count v (0 for a 1-wire loop).
    Where witnesses are planted, f_UA = L X and f_BU = Y L, and the exact
    ki-trace is f_BA + Y L X; else the ports are Gaussian, and the trace is
    defined only where L is invertible.  Returns (m, k, v, exact or None)."""
    k = draw(st.integers(1, 4))
    b, a = draw(st.integers(1, 6 - k)), draw(st.integers(1, 6 - k))
    r, planted = draw(st.integers(0, k)), draw(st.booleans())
    v = draw(st.integers(1, k - 1)) if k > 1 else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, q = random_isometry(k, r, rng), random_isometry(k, r, rng)
    loop = (p * rng.uniform(0.5, 2.0, r)) @ adjoint(q)
    f_ba, x, y, f_bu, f_ua = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
                              for s in ((b, a), (k, a), (b, k), (b, k), (k, a)))
    if planted:
        f_bu, f_ua = y @ loop, loop @ x
    m = np.block([[f_ba, f_bu], [f_ua, np.eye(k) - loop]])
    if planted:
        return m, k, v, f_ba + y @ loop @ x
    return m, k, v, None if r < k else schur(m, k)


def ki_trace(m, k):
    """The ki-trace of m over its trailing k wires, or None where no witness exists."""
    try:
        return ex_kernel_image(two_block(m, k), "U").value
    except KiTraceError:
        return None


@given(planted_partial_traces())
@settings(deadline=None, max_examples=200)
def test_the_ki_trace_is_a_partial_trace(case):
    # The ki-trace is defined exactly where both witnesses exist, and there
    # it is the exact value.  Vanishing II holds in Kleene form: the flat
    # trace over U + V is defined iff tracing V and then U is, and then the
    # two agree.  Where the rank of L is at most that of its inner block,
    # the outer loop block is 0 in exact arithmetic and rounding residue in
    # floats, which the cutoff must count as 0 in every loop shape.
    m, k, v, exact = case
    scale = max(1.0, operator_norm(m))
    flat = ki_trace(m, k)
    assert (flat is None) == (exact is None)
    if exact is not None:
        assert np.abs(flat - exact).max() <= 1e-8 * scale
    if v:
        inner = ki_trace(m, v)
        nested = None if inner is None else ki_trace(inner, k - v)
        assert (flat is None) == (nested is None)
        if flat is not None:
            assert np.abs(flat - nested).max() <= 1e-8 * scale


@given(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_theta_within_arcsin_kappa(a, kappa):
    assert abs(theta(a, kappa)) <= math.asin(kappa) + 1e-10


@given(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_theta_is_two_pi_periodic(a, kappa):
    assert math.isclose(
        theta(a, kappa), theta(a + 2 * math.pi, kappa), abs_tol=1e-9
    )


@given(
    st.integers(2, 10**7),
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    st.integers(0, 1500),
)
@example(2, 1.0, 0)
@example(2, 1.0, 1)
@example(3, 1.0, 1500)
# Eigenvalues of the step a hair from turning real: the angles hang on digits
# that doubles lose.  Then kappa a hair below 1.
@example(47, 0.6951526063141245, 1039)
@example(84, 0.5858328867815352, 1500)
@example(2, 0.999999999998424, 1500)
@settings(deadline=None, max_examples=40)
def test_halting_probabilities_match_high_precision_steps(b, kappa, n):
    p = GroverParams(b, kappa)
    got = halting_probabilities(p, n)
    assert got.shape == (n,)
    assert not np.isnan(got).any()
    assert np.max(np.abs(got - halting_law(b, p.kappa, n, dps=30)[1]), initial=0.0) <= 1e-10


@given(
    st.dictionaries(
        st.integers(-10, 10),
        st.tuples(finite, finite),
        min_size=1,
        max_size=6,
    )
)
def test_parseval_equals_time_domain(taps):
    s = Signal(("a",), {t: [complex(re, im)] for t, (re, im) in taps.items()})
    got = parseval_norm(s, 64)
    want = s.norm_squared()
    assert abs(got - want) <= 1e-9 * max(1.0, want)
