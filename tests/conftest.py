import math

import numpy as np
import pytest

from extrace import kappa, trace
from extrace.linalg import stack_norms


@pytest.fixture
def watched_statevector(monkeypatch):
    """grover_statevector with every kappa_measure call watched.  The wrapper
    delegates unchanged and records the plane residual ||d - mean(d)||, d =
    post_state[1:], of each post-state: the Grover plane keeps the target amplitude
    and gives every other amplitude their mean.  A run returns (run, residuals),
    after checking that it measured exactly once an iteration."""
    residuals = []
    measure = kappa.kappa_measure

    def spy(state, km, u):
        out = measure(state, km, u)
        d = out.post_state[1:]
        residuals.append(float(np.linalg.norm(d - d.mean())))
        return out

    monkeypatch.setattr(kappa, "kappa_measure", spy)

    def run(p, **kwargs):
        residuals.clear()
        result = kappa.grover_statevector(p, **kwargs)
        assert len(residuals) == len(result.angles), "one kappa-measurement an iteration"
        return result, list(residuals)

    return run


@pytest.fixture
def svd_shapes(monkeypatch):
    """svd_shapes(fn) runs fn() and returns the shape of each np.linalg.svd input."""
    svd, shapes = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def record(fn):
        shapes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", recorded)
            fn()
        return list(shapes)

    return record


@pytest.fixture(scope="session")
def brackets_off():
    """brackets_off(fn, *args, **kwargs) calls fn on the brackets-off twin of
    the trace core: trace.bracket_norms returns exact norms, and
    trace.fro_norms NaN, which decides nothing, so the series takes no quiet
    term, no blow-up bound and no finiteness screen from a Frobenius norm.
    Every norm the brackets would settle is then taken by its exact check."""

    def call(fn, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "bracket_norms", lambda m, lo, hi, fro=None: stack_norms(m))
            patch.setattr(trace, "fro_norms", lambda m: np.full(m.shape[:-2], math.nan))
            return fn(*args, **kwargs)

    return call
