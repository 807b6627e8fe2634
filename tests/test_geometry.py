import math

import numpy as np
import pytest
from scipy.stats import norm

from spherelab.geometry import clt_error_rate
from spherelab.models import AlphaSpectrum
from spherelab.rng import RngStream

R = 1.3


def clt_z(gamma: np.ndarray) -> float:
    """mu_hat / sigma_hat of X = sum (gamma_i - 1) u_i^2, by exact sums."""
    centered = [float(g) - 1.0 for g in gamma]
    mu_hat = math.fsum(centered)
    sigma_hat = math.sqrt(2.0 * math.fsum(c * c for c in centered))
    return mu_hat / sigma_hat


def test_clt_error_rate_keeps_deep_tails():
    # One inflated coefficient at n=500: both shells' rates are far below
    # 1e-16, where 1 - (1 - Phi) rounds to exactly 0.
    alphas = np.full(500, 0.7572)
    alphas[0] = 2.0
    spec = AlphaSpectrum(alphas, R)
    inner = clt_error_rate(spec, "inner")
    outer = clt_error_rate(spec, "outer")
    expected_inner = norm.cdf(clt_z(alphas))
    expected_outer = norm.cdf(-clt_z(R * R * alphas))
    assert 0.0 < expected_inner < 1e-50 and 0.0 < expected_outer < 1e-50
    assert inner == pytest.approx(expected_inner, rel=1e-12, abs=0.0)
    assert outer == pytest.approx(expected_outer, rel=1e-12, abs=0.0)


def test_clt_error_rate_tails_of_one_statistic_sum_to_one():
    # With R = 1 both shells see the same X, so the two rates are its two
    # tails; alphas near 1 put both near one half.
    alphas = 1.0 + 0.01 * RngStream(31).normals(500)
    spec = AlphaSpectrum(alphas, 1.0)
    inner = clt_error_rate(spec, "inner")
    outer = clt_error_rate(spec, "outer")
    assert 0.05 < inner < 0.95
    assert inner == pytest.approx(norm.cdf(clt_z(alphas)), rel=1e-12, abs=0.0)
    assert abs(inner + outer - 1.0) <= 1e-15
