import numpy as np
import pytest

from extrace import kappa


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
