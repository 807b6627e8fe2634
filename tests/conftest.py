"""Shared test fixtures and the finite-difference gradient oracle."""

import tracemalloc

import numpy as np
import pytest

from spherelab.models import sigmoid_ce_loss


@pytest.fixture
def traced_peak():
    """``measure(fn, *args, **kwargs)``: the peak bytes ``tracemalloc`` sees while ``fn`` runs.

    Arrays made before the call do not count; what ``fn`` returns does, up to its return.
    """
    def measure(fn, *args, **kwargs) -> int:
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure


def mean_loss(model, X, labels, mode: str = "train") -> float:
    """Mean sigmoid-CE loss without side effects on running statistics."""
    logits, _ = model.forward(X, mode=mode, update_stats=False)
    return float(np.mean(sigmoid_ce_loss(logits, labels)))


def gradient_check(model, X, labels, eps: float = 1e-5, mode: str = "train") -> float:
    """Max relative error of analytic gradients against central differences.

    Intended for small nets (<= 1e4 parameters); running statistics are
    frozen throughout so probing is side-effect free.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _, cache = model.forward(X, mode=mode, update_stats=False)
    analytic = model.backward(cache, labels)
    worst = 0.0
    for name, param in model.params().items():
        flat = param.reshape(-1)  # a writable view, for 0-d parameters too
        gflat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        for idx in range(gflat.size):
            original = flat[idx]
            flat[idx] = original + eps
            up = mean_loss(model, X, labels, mode)
            flat[idx] = original - eps
            down = mean_loss(model, X, labels, mode)
            flat[idx] = original
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(numeric), abs(gflat[idx]), 1e-6)
            worst = max(worst, abs(numeric - gflat[idx]) / denom)
    return worst
