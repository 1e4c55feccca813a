"""bracket_norms against exact SVD norms at the edges of its brackets.

Stacks are drawn with norms a relative 1e-12 to 1e-6 from ``lo`` or ``hi``,
where neither the Frobenius nor the Gram bracket has much room, and at
magnitudes from 1e-160 to 1e150, where squares of entries underflow
and Gram matrices must be scaled.  Whatever bracket_norms settles without an
SVD must agree with the SVD: a finite stand-in bounds the exact norm from
above and lies below ``lo``, inf stands only for a norm above ``hi``, and
every other entry is the exact norm, byte for byte."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from extrace.linalg import DEFAULT_TOL, bracket_norms, random_unitary, stack_norms, two_block
from extrace.trace import TraceConfig, ex_series

# (lo, hi) as the engine passes them: lsi_classify and the trace core's
# contraction test, both (1 + DEFAULT_TOL, 1 + DEFAULT_TOL); series terms,
# witness residuals, a blow-up check and an exact norm.  (1.0, inf) keeps an
# edge at 1 with the upper side exact.
BOUNDS = [
    (1 + DEFAULT_TOL, 1 + DEFAULT_TOL),
    (1.0, math.inf),
    (1e-10, 1e-10),
    (1e-8, math.inf),
    (1e6, 1e6),
    (0.0, math.inf),
]
KINDS = ("gaussian", "rank_one", "unitary", "zero")
# The exact norm's SVD and ||x||_F round differently: a rank-one x, whose
# two norms are equal, may take a Frobenius stand-in a few ulps below its SVD norm.
ROUNDING = 1e-14


def entry(rng, kind, rows, cols, norm):
    """A rows x cols matrix of the given kind with operator norm ``norm``."""
    if kind == "zero" or rows * cols == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    if kind == "unitary":  # a partial isometry when not square
        z = random_unitary(max(rows, cols), rng)[:rows, :cols]
    elif kind == "rank_one":
        z = np.outer(rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
                     rng.standard_normal(cols) + 1j * rng.standard_normal(cols))
    else:
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z * (norm / float(stack_norms(z)))


@st.composite
def stacks(draw):
    lo, hi = draw(st.sampled_from(BOUNDS))
    # Up to 1e150 with blow-up's 1e6: squares of entries above about 1e154 overflow.
    scale = draw(st.sampled_from([1.0, 1e-150, 1e-160, 1e144]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(KINDS))
        edge = draw(st.sampled_from([lo, hi, 1 + DEFAULT_TOL]))
        edge = edge if 0 < edge < math.inf else 1.0
        offset = draw(st.sampled_from([-1, 1])) * 10 ** draw(st.floats(-12, -6))
        mats.append(entry(rng, kind, rows, cols, edge * (1 + offset) * scale))
    stack = np.array(mats, dtype=np.complex128).reshape(len(mats), rows, cols)
    return stack, lo * scale, hi * scale


@given(stacks())
@settings(deadline=None, max_examples=300)
def test_bracket_norms_agree_with_svd_norms(case):
    m, lo, hi = case
    got = bracket_norms(m, lo, hi)
    exact = stack_norms(m)
    assert got.shape == exact.shape
    for g, e in zip(got, exact):
        if g == math.inf:
            assert e > hi
        elif g != e:
            assert e * (1 - ROUNDING) <= g < lo


def test_unitaries_settle_below_the_classify_limit_without_an_svd(svd_shapes):
    # The Gram bracket's rounding margin leaves room under 1 + DEFAULT_TOL
    # up to about 256 dims.
    limit = 1 + DEFAULT_TOL
    for n in (2, 16, 64, 256):
        u = random_unitary(n, np.random.default_rng(n))[None]
        assert svd_shapes(lambda: bracket_norms(u, limit, limit)) == []
        assert 1 <= bracket_norms(u, limit, limit)[0] < limit


@st.composite
def with_neighbour(draw):
    """A stack from ``stacks`` with one matrix of its shape inserted whose
    Frobenius norm is NaN, inf, or past either end of the float range for
    finite entries: an inf or NaN entry, or a unit-norm matrix times 1e-170
    or 1e200."""
    m, lo, hi = draw(stacks())
    rows, cols = m.shape[1:]
    extra = np.zeros((rows, cols), dtype=np.complex128)
    if rows * cols:
        extra = entry(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), "gaussian", rows,
                      cols, 1.0)
        kind = draw(st.sampled_from([math.nan, math.inf, 1e-170, 1e200]))
        if kind in (1e-170, 1e200):
            extra *= kind
        else:
            extra[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = kind
    return np.insert(m, draw(st.integers(0, len(m))), extra, axis=0), lo, hi


@given(with_neighbour())
@settings(deadline=None, max_examples=300)
@example(case=(np.array([[[math.nan, 0], [0, 0]], [[1e-170, 0], [0, 0]]], dtype=np.complex128),
               1e-10, math.inf))
def test_each_matrix_is_judged_alone(case):
    # A NaN Frobenius norm once hid every underflowed one beside it: the
    # 1e-170 matrix read 0 next to the NaN one and 1e-170 alone.
    m, lo, hi = case
    got = bracket_norms(m, lo, hi)
    for i, g in enumerate(got):
        assert g.tobytes() == bracket_norms(m[i : i + 1], lo, hi).tobytes(), i


def test_an_overflowed_frobenius_norm_takes_the_svd_norm():
    # Squares of entries above about 1.3e154 overflow, so an inf ||m||_F
    # shows only ||m|| > about 1e154 / sqrt(rank): the SVD decides, below
    # ``hi`` as well as above it.
    for x, lo, hi in ((1e200, 1e6, 1e6), (1e200, 1e-10, math.inf), (1e160, 1e200, 1e200)):
        m = np.full((1, 2, 2), x, dtype=np.complex128)
        norm = bracket_norms(m, lo, hi)[0]
        assert norm == stack_norms(m)[0] and math.isclose(norm, 2 * x, rel_tol=1e-15)
    # So a partial sum of 2e160 stays below a blowup of 1e200 over both loop widths.
    m = np.zeros((4, 4), dtype=np.complex128)
    m[:3, :3] = [[1e160, 0, 0.5], [0, 0, 0], [0.5, 0, 0.5]]
    for k in (1, 2):
        assert ex_series(two_block(m[: 2 + k, : 2 + k], k), "U", TraceConfig(blowup=1e200)).converged
