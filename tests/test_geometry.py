import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from spherelab.geometry import CapSpec, clt_error_rate, mc_cap_distance, theorem_bound
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


# ---------------------------------------------------------------------------
# Cap distances


def chord(x1, t):
    """Distance on the unit sphere from height x1 < t to the cap x_1 >= t."""
    return np.sqrt((t - x1) ** 2 + (math.sqrt(1.0 - t * t) - np.sqrt(1.0 - x1 * x1)) ** 2)


@pytest.mark.parametrize("formula", ["paper", "exact_chord"])
def test_mc_cap_distance_equals_a_serial_in_order_loop(formula):
    # Six chunks of 16384, the last one partial; at this seed adding the
    # chunk sums in reverse order changes the last bit of both formulas.
    cap = CapSpec(n=5, mu=0.05)
    samples = 5 * 16384 + 777
    stream = RngStream(23).child(9)
    total = 0.0
    for chunk, start in enumerate(range(0, samples, 16384)):
        count = min(16384, samples - start)
        u = stream.child(chunk).normals(count * cap.n).reshape(count, cap.n)
        x1 = u[:, 0] / np.sqrt((u * u).sum(axis=1))
        if formula == "paper":
            d = np.maximum(math.sqrt(2.0) * (cap.t - x1), 0.0)
        else:
            d = np.where(x1 < cap.t, chord(np.minimum(x1, cap.t), cap.t), 0.0)
        total += float(d.sum())
    assert mc_cap_distance(cap, samples, stream, formula) == total / samples


def test_mc_cap_distance_exact_chord_matches_quadrature_at_n500():
    # On the unit sphere in R^n, x_1 has density proportional to
    # (1 - x^2)^((n - 3) / 2) on [-1, 1].
    n, mu, samples = 500, 1e-2, 40_000
    cap = CapSpec(n=n, mu=mu)
    t = cap.t

    def density(x):
        return (1.0 - x * x) ** ((n - 3) / 2)

    def moment(power):
        return integrate.quad(lambda x: chord(x, t) ** power * density(x), -1.0, t,
                              points=[0.0], epsabs=0.0, epsrel=1e-12, limit=200)[0]

    mass = integrate.quad(density, -1.0, 1.0, points=[0.0], epsabs=0.0,
                          epsrel=1e-12, limit=200)[0]
    mean = moment(1) / mass
    se = math.sqrt((moment(2) / mass - mean * mean) / samples)
    estimate = mc_cap_distance(cap, samples, RngStream(29), "exact_chord")
    assert abs(estimate - mean) <= 6.0 * se
    assert abs(mean - theorem_bound(mu, n)) < 0.01 * mean


@pytest.mark.parametrize("mu", [0.5, 0.3, 0.1, 1e-2, 1e-4, 1e-8])
@pytest.mark.parametrize("n", [2, 500, 10_000])
def test_theorem_bound_is_the_gaussian_quantile_over_sqrt_n(mu, n):
    expected = norm.isf(mu) / math.sqrt(n)
    assert theorem_bound(mu, n) == pytest.approx(expected, rel=1e-9, abs=1e-15)
    assert CapSpec(n=n, mu=mu).t == pytest.approx(expected, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("mu", [0.0, -1e-3, 0.5000001, 1.0, float("nan")])
def test_cap_measure_outside_zero_half_rejected(mu):
    with pytest.raises(ValueError):
        CapSpec(n=10, mu=mu)
    with pytest.raises(ValueError):
        theorem_bound(mu, 10)


def test_cap_spec_accepts_the_closed_end_and_rejects_low_dimension():
    assert CapSpec(n=10, mu=0.5).t == 0.0
    assert CapSpec(n=10, mu=1e-300).mu == 1e-300
    with pytest.raises(ValueError):
        CapSpec(n=1, mu=0.1)
