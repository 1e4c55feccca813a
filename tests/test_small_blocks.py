"""The 1x1 path of stack_norms and stack_pinv against numpy's SVD, byte for byte.

One-port loop blocks are 1x1, and stack_norms and stack_pinv do zgesdd's
own arithmetic on them in numpy.  Stacks are drawn at magnitudes from
1e-320 to 1e300, with signed zeros in either part, real-only and
imaginary-only entries, and values straddling the lines where LAPACK
rescales (about 1.35e-138 and 7.4e137 in zgesdd, 2e-292 in zlarfg) and the
1e-130 / 1e130 window outside which the SVD itself runs.  Both results
must equal what np.linalg.svd and np.linalg.pinv give, signed zeros
included."""

import contextlib
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from extrace.linalg import stack_norms, stack_pinv

EDGES = (6.7e-139, 1.35e-138, 7.4e137, 2e-292, 1e-130, 1e130)


def straddling():
    """A value a few ulps to a relative 1e-3 either side of a rescaling line."""
    return st.builds(lambda edge, rel: edge * (1 + rel), st.sampled_from(EDGES),
                     st.sampled_from([0.0, 2.0**-52, -(2.0**-53), 1e-12, -1e-12, 1e-3, -1e-3]))


def magnitude():
    return st.one_of(
        st.builds(lambda e: 10.0**e, st.floats(-320, 300)),
        straddling(),
        st.sampled_from([1.0, 0.5, 5e-324, 2.0**-1022, 1.7976931348623157e308 / 2**10]),
    )


def part():
    """One real or imaginary part: a signed magnitude or a signed zero."""
    return st.one_of(
        st.builds(lambda m, s: math.copysign(m, s), magnitude(), st.sampled_from([1.0, -1.0])),
        st.sampled_from([0.0, -0.0]),
    )


@st.composite
def entries(draw):
    kind = draw(st.sampled_from(["complex", "real", "imaginary", "zero", "loop"]))
    re, im = draw(part()), draw(part())
    if kind == "real":
        im = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "imaginary":
        re = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "zero":
        re, im = (draw(st.sampled_from([0.0, -0.0])) for _ in "ri")
    elif kind == "loop":  # id - f_UU of a delay loop, f_UU = e^{-i theta} / sqrt(2)
        theta = draw(st.floats(0.0, 2 * math.pi))
        z = 1 - np.exp(-1j * theta) / math.sqrt(2)
        re, im = z.real, z.imag
    return complex(re, im)


def stacks():
    return st.lists(entries(), min_size=1, max_size=6).map(
        lambda xs: np.array(xs, dtype=np.complex128).reshape(-1, 1, 1))


def in_window(m):
    w = np.maximum(np.abs(m.real), np.abs(m.imag))
    return bool(np.all((w == 0) | ((w > 1e-130) & (w < 1e130))))


@given(stacks())
@settings(deadline=None, max_examples=500)
@example(np.array([[[0j]], [[complex(-0.0, 0.0)]], [[complex(0.0, -0.0)]], [[complex(-0.0, -0.0)]]]))
@example(np.array([[[-3.0 + 0j]], [[complex(3.0, -0.0)]], [[complex(-0.0, 3.0)]], [[-3j]]]))
@example(np.array([[[1 - math.sqrt(0.5) + 0j]], [[complex(1 + math.sqrt(0.5), -0.0)]]]))
@example(np.zeros((0, 1, 1), dtype=np.complex128))
def test_one_by_one_stacks_equal_numpy_svd_bytes(m):
    # numpy's pinv divides by subnormal singular values outside the window
    # and warns; so does stack_pinv there, where it runs the same SVD.
    with np.errstate(all="ignore"):
        norms = np.linalg.svd(m, compute_uv=False).max(-1)
        pinv = np.linalg.pinv(m, rcond=1e-10)
    assert stack_norms(m).tobytes() == norms.tobytes()
    with contextlib.nullcontext() if in_window(m) else np.errstate(all="ignore"):
        assert stack_pinv(m, 1e-10).tobytes() == pinv.tobytes()


def test_the_window_takes_no_svd_and_only_the_window(svd_shapes):
    inside = np.array([1e-129, -1e129j, complex(-0.0, 0.0), 0.3 - 0.4j]).reshape(-1, 1, 1)
    assert svd_shapes(lambda: (stack_norms(inside), stack_pinv(inside, 1e-10))) == []
    outside = [np.array([0.5, x]).astype(np.complex128).reshape(-1, 1, 1)
               for x in (1e-131, 1e131j, 2e-292, 1e300)]
    with np.errstate(all="ignore"):
        shapes = svd_shapes(lambda: [(stack_norms(m), stack_pinv(m, 1e-10)) for m in outside])
    assert len(shapes) == 8
