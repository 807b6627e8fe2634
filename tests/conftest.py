"""Shared test fixtures and the finite-difference gradient oracle."""

import copy
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


def mean_loss(model, X, labels) -> float:
    """Mean sigmoid-CE loss of the training pass, run on a copy of ``model``.

    The copy moves its running statistics, so the caller's stay put.
    """
    logits, _ = copy.deepcopy(model).forward(X)
    return float(np.mean(sigmoid_ce_loss(logits, labels)))


def gradient_check(model, X, labels, eps: float = 1e-5) -> float:
    """Max relative error of analytic gradients against central differences.

    Intended for small nets (<= 1e4 parameters). Every pass probes a copy
    of the model, so the caller's parameters and running statistics stay put.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    probe = copy.deepcopy(model)
    _, cache = probe.forward(X)
    analytic = probe.backward(cache, labels)
    worst = 0.0
    for name, param in probe.params().items():
        flat = param.reshape(-1)  # a writable view, for 0-d parameters too
        gflat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        for idx in range(gflat.size):
            original = flat[idx]
            flat[idx] = original + eps
            up = mean_loss(probe, X, labels)
            flat[idx] = original - eps
            down = mean_loss(probe, X, labels)
            flat[idx] = original
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(numeric), abs(gflat[idx]), 1e-6)
            worst = max(worst, abs(numeric - gflat[idx]) / denom)
    return worst
