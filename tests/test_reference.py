"""The test reference checked against plain numpy and against itself."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference import build_E, grover_angle, halting_law, schur


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rows, cols, k", [(7, 7, 6), (4, 4, 2), (5, 3, 1), (4, 6, 3)])
def test_schur_matches_a_double_precision_solve(seed, rows, cols, k):
    # A loop block of norm 0.5 keeps I - f_UU well conditioned.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    m[-k:, -k:] *= 0.5 / np.linalg.norm(m[-k:, -k:], 2)
    b, a = rows - k, cols - k
    want = m[:b, :a] + m[:b, a:] @ np.linalg.solve(np.eye(k) - m[b:, a:], m[b:, :a])
    got = schur(m, k)
    assert got.dtype == np.complex128 and got.shape == (b, a)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    m[-k:, -k:] = np.eye(k)
    assert schur(m, k) is None


def test_halting_law_in_doubles_keeps_thirty_digits_at_criterion_8():
    # Far from the step's turning point, doubles lose nothing measurable.
    angles, probs = halting_law(10**6, 1e-3, 2000)
    mp_angles, mp_probs = halting_law(10**6, 1e-3, 2000, dps=30)
    assert angles.shape == (2001,) and probs.shape == (2000,) and angles[0] == math.asin(1e-3)
    assert np.max(np.abs(angles - mp_angles)) <= 1e-12
    assert np.max(np.abs(probs - mp_probs)) <= 1e-12
    for t in (1, 1000, 2000):
        assert abs(math.remainder(mp_angles[t] - grover_angle(10**6, 1e-3, t), math.tau)) <= 1e-12


def test_build_E_refuses_an_index_past_the_state():
    assert build_E(0.5, (2,), 3).shape == (6, 6)
    with pytest.raises(IndexError, match="predicate index past the 3-dim state"):
        build_E(0.5, (3,), 3)


def test_reference_imports_nothing_from_extrace():
    code = "import sys, reference; print([m for m in sys.modules if m.startswith('extrace')])"
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
