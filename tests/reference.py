"""Exact quantities the tests compare the engine against, written once.

This module imports only the standard library, numpy and mpmath, never
``extrace``: a reference that shared the engine's code would share its
faults.  Each quantity is taken the plain way, by steps or by a solve, at
40 or 50 digits, or, for the halting law, at the digits its caller names;
the measurement's dilation is built block by block.
"""

import math

import mpmath
import numpy as np


def halting_law(b_size, kappa, n, dps=None):
    """(angles, probs) of the weakly-measured Grover loop over n iterations:
    angles[t] is the unwrapped angle b_t after t keep-looping steps (b_0 =
    alpha), probs[t - 1] the probability of certifying at iteration t.  A
    step rotates the state by 2 alpha, certifies with probability kappa *
    target^2 / |state|^2, then damps the target amplitude by sqrt(1 - kappa)
    and renormalises; b_t adds the signed angle between consecutive states.
    alpha = asin(b_size^-1/2) and kappa are the engine's doubles, lifted
    exactly.  The steps run at dps digits, or in doubles if dps is None."""
    fn, num = (math, float) if dps is None else (mpmath, mpmath.mpf)
    alpha = math.asin(b_size ** -0.5)
    with mpmath.workdps(dps or mpmath.mp.dps):
        a, kappa = num(alpha), num(float(kappa))
        xi, c, s = fn.sqrt(1 - kappa), fn.cos(2 * a), fn.sin(2 * a)
        x, y, angle = fn.cos(a), fn.sin(a), a
        angles, probs = [alpha], []
        for _ in range(n):
            u, v = c * x - s * y, s * x + c * y
            probs.append(float(kappa * v * v / (u * u + v * v)))
            v *= xi
            r = fn.sqrt(u * u + v * v)
            u, v = u / r, v / r
            angle += fn.atan2(x * v - y * u, x * u + y * v)
            angles.append(float(angle))
            x, y = u, v
    return np.array(angles), np.array(probs)


def grover_angle(b_size, kappa, t):
    """b_t modulo 2 pi, in (-pi, pi]: the angle of M^t v_0 by matrix power,
    where M = diag(1, sqrt(1 - kappa)) R(2 alpha) is one keep-looping step
    and v_0 = (cos alpha, sin alpha), at 40 digits.  t may run to millions of
    steps."""
    with mpmath.workdps(40):
        a = mpmath.mpf(math.asin(b_size ** -0.5))
        xi, c, s = mpmath.sqrt(1 - mpmath.mpf(float(kappa))), mpmath.cos(2 * a), mpmath.sin(2 * a)
        step = mpmath.matrix([[c, -s], [xi * s, xi * c]])
        w = step**t * mpmath.matrix([mpmath.cos(a), mpmath.sin(a)])
        return float(mpmath.atan2(w[1], w[0]))


def schur(m, k):
    """f_BA + f_BU (I - f_UU)^-1 f_UA, the loop block f_UU being the trailing
    k >= 1 rows and columns of m, as a complex128 array; None where I - f_UU
    is singular at 50 digits."""
    m = np.asarray(m, dtype=np.complex128)
    b, a = m.shape[0] - k, m.shape[1] - k
    with mpmath.workdps(50):
        f = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in m])
        try:
            loop = mpmath.inverse(mpmath.eye(k) - f[b:, a:])
        except ZeroDivisionError:
            return None
        value = f[:b, :a] + f[:b, a:] * loop * f[b:, :a]
        return np.array([[complex(value[i, j]) for j in range(a)] for i in range(b)],
                        dtype=np.complex128).reshape(b, a)


def build_E(kappa, predicate, dim):
    """The coupling unitary of a strength-kappa measurement on H (x) C^2, H
    of dimension dim, as a dense 2 dim x 2 dim complex128 matrix: identity
    off the basis states whose indices are ``predicate`` and, on each of
    them, the rotation sending |bot> to sqrt(1 - kappa)|bot> + sqrt(kappa)|top>.
    The coupling is only fixed up to Z-rotations on the probe; this
    representative is the proper rotation, so zero strength is the
    identity.  An index past dim raises IndexError."""
    if any(not 0 <= i < dim for i in predicate):
        raise IndexError(f"predicate index past the {dim}-dim state")
    xi, sk = math.sqrt(1.0 - kappa), math.sqrt(kappa)
    e = np.eye(2 * dim, dtype=np.complex128)
    for i in predicate:
        e[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[xi, -sk], [sk, xi]]
    return e
