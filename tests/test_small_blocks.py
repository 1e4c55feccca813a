"""The 1x1 path of stack_norms and stack_pinv against 50-digit arithmetic.

One-port loop blocks are 1x1.  There stack_norms is the modulus of the
entry and stack_pinv its reciprocal, 0 at or below the absolute cutoff
1e-10, at every magnitude and with no SVD.  The values are checked on
stacks drawn at magnitudes from 5e-324 to past 1e300, with signed zeros
in either part, real-only and imaginary-only entries, and the loop blocks
of a delay loop; the absence of an SVD on a
fixed grid of every power of ten in the float range.  A complex reciprocal is judged by the ulp of its
modulus: Smith's division may round a part far below the modulus (an
imaginary part that underflows into the subnormals, say) by many ulps of
that part, but never the value by more than a few ulps of its size."""

import math

import mpmath
import numpy as np
from hypothesis import example, given, settings, strategies as st

from extrace.linalg import stack_norms, stack_pinv


ZERO = st.sampled_from([0.0, -0.0])
MAGNITUDE = st.one_of(
    st.builds(lambda e: 10.0**e, st.floats(-323.3, 300)),
    st.sampled_from([1.0, 0.5, 5e-324, 2.0**-1022, 1.7976931348623157e308 / 2**10]),
)
# One real or imaginary part: a signed magnitude or a signed zero.
PART = st.one_of(st.builds(math.copysign, MAGNITUDE, st.sampled_from([1.0, -1.0])), ZERO)
KIND = st.sampled_from(["complex", "real", "imaginary", "zero", "loop"])


@st.composite
def entries(draw):
    kind = draw(KIND)
    re, im = draw(PART), draw(PART)
    if kind == "real":
        im = draw(ZERO)
    elif kind == "imaginary":
        re = draw(ZERO)
    elif kind == "zero":
        re, im = draw(ZERO), draw(ZERO)
    elif kind == "loop":  # id - f_UU of a delay loop, f_UU = e^{-i theta} / sqrt(2)
        z = 1 - np.exp(-1j * draw(st.floats(0.0, 2 * math.pi))) / math.sqrt(2)
        re, im = z.real, z.imag
    return complex(re, im)


STACKS = st.lists(entries(), min_size=1, max_size=6).map(
    lambda xs: np.array(xs, dtype=np.complex128).reshape(-1, 1, 1))



def edge_stacks(test):
    """Hand-picked stacks: signed zeros, axis entries, subnormals, extremes, empty."""
    for m in ([[[0j]], [[complex(-0.0, 0.0)]], [[complex(0.0, -0.0)]], [[complex(-0.0, -0.0)]]],
              [[[-3.0 + 0j]], [[complex(3.0, -0.0)]], [[complex(-0.0, 3.0)]], [[-3j]]],
              [[[5e-324 + 0j]], [[complex(1, 1e-320)]], [[1e300j]], [[1e-300 + 1e-300j]]],
              [[[1e-10 + 1e-320j]], [[2.0**-1022 * (1 + 1j)]], [[complex(-1e300, 1e150)]]],
              [[[1e-10 + 0j]], [[complex(0.0, -1e-10)]], [[complex(np.nextafter(1e-10, 1), 0.0)]]]):
        test = example(m=np.array(m))(test)
    return example(m=np.zeros((0, 1, 1), dtype=np.complex128))(test)


def test_one_by_one_stacks_take_no_svd_at_any_magnitude(svd_shapes):
    # Every power of ten from 5e-324 to 1e308 and the ends of the float
    # range, at eight phases and with signed zeros, in one stack and alone.
    mags = np.concatenate([[5e-324, 2.0**-1022, 1.7976931348623157e308], 10.0 ** np.arange(-323, 309)])
    phases = np.exp(1j * np.pi / 4 * np.arange(8))
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    entries = np.concatenate([np.outer(mags, phases).ravel(), mags + 0j, zeros])
    stacks = [entries.reshape(-1, 1, 1)] + [np.array([[[x]]]) for x in entries[::7]]
    for m in stacks:
        assert svd_shapes(lambda: (stack_norms(m), stack_pinv(m, 1e-10))) == [], m


@given(m=STACKS)
@settings(deadline=None, max_examples=150)
@edge_stacks
def test_one_by_one_stacks_are_the_modulus_and_the_reciprocal(m):
    with mpmath.workdps(50):
        for x, norm, inv in zip(m[:, 0, 0], stack_norms(m), stack_pinv(m, 1e-10)[:, 0, 0]):
            z = mpmath.mpc(x.real, x.imag)
            assert abs(norm - abs(z)) <= math.ulp(float(abs(z)))
            if np.abs(x) <= 1e-10:  # the cutoff is absolute: 0 at or below it, 0 itself included
                assert inv == 0
                continue
            exact = 1 / z
            assert abs(mpmath.mpc(inv.real, inv.imag) - exact) <= 4 * math.ulp(float(abs(exact)))
