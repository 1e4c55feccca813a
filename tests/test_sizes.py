"""Size sweep above 64 dimensions: every entry point that takes an
operator norm must work at any size, with no change of method."""

import numpy as np
import pytest

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
from extrace.trace import cnu_decompose, ex, halmos_dilation

SIZES = [65, 128, 256]


def contraction(n, seed, norm=0.5):
    # A fixed norm keeps the cross-check series short at every size.
    m = random_contraction(n, n, seed)
    return m * (norm / operator_norm(m))


@pytest.mark.parametrize("n", SIZES)
def test_ex_on_large_contractions(n):
    m = contraction(n, seed=n)
    f = two_block(m, n // 2)
    r = ex(f, "U")
    assert r.method == "both_agree"
    assert r.converged
    b = n - n // 2
    f_ba, f_bu = m[:b, :b], m[:b, b:]
    f_ua, f_uu = m[b:, :b], m[b:, b:]
    schur = f_ba + f_bu @ np.linalg.solve(np.eye(n // 2) - f_uu, f_ua)
    assert operator_norm(r.value - schur) < 1e-9


@pytest.mark.parametrize("n", SIZES)
def test_classify_large(n):
    u = random_unitary(n, n)
    assert classify(u) == "unitary"
    assert classify(random_isometry(n, n - 7, n)) == "isometry"
    assert classify(0.5 * u) == "strict_contraction"
    assert classify(contraction(n, seed=n + 1, norm=1.0)) == "contraction_boundary"
    assert classify(1.5 * u) == "expansion"


def clustered(n, seed, top=0.95, bottom=0.9):
    # Singular values spread evenly over [bottom, top]: the top ones sit
    # close together, as for any near-isometry.
    rng = np.random.default_rng(seed)
    s = np.linspace(top, bottom, n)
    return random_unitary(n, rng) @ np.diag(s) @ random_unitary(n, rng)


@pytest.mark.parametrize("n", SIZES)
def test_halmos_dilation_large(n):
    f = clustered(n, seed=n)
    g = halmos_dilation(f)
    assert g.shape == (2 * n, 2 * n)
    assert classify(g, 1e-8) == "unitary"
    assert np.array_equal(g[n:, n:], f)


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("n", SIZES)
def test_cnu_decompose_large(n, k):
    rng = np.random.default_rng(n + k)
    w = random_unitary(n, rng)
    u = random_unitary(k, rng) if k else np.zeros((0, 0))
    f = w @ direct_sum(u, clustered(n - k, rng)) @ adjoint(w)
    d = cnu_decompose(f)
    assert d.unitary_dim == k
    assert classify(d.basis_change, 1e-8) == "unitary"
    rebuilt = d.basis_change @ direct_sum(d.f0, d.f1) @ adjoint(d.basis_change)
    assert operator_norm(rebuilt - f) < 1e-8
    if k == 0:
        assert np.array_equal(d.basis_change, np.eye(n))
        assert np.array_equal(d.f1, f)
