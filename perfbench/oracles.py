"""Reference computations for the benchmark's output checks.

Nothing here calls spherelab: each function recomputes a quantity from the
workload's construction with numpy, the standard library, or a generator
of its own, so a defect in the library cannot hide behind shared code.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

_QUAD_POINTS = 400_001
_MC_CHUNK = 4096


def normal_upper_quantile(mu: float) -> float:
    """a with P[N(0, 1) > a] = mu, from the standard library."""
    return statistics.NormalDist().inv_cdf(1.0 - mu)


def quad_logits(Q: np.ndarray, s: np.ndarray, w: float, b: float,
                X: np.ndarray) -> np.ndarray:
    """Logits of the net W1 = diag(s) Q, through the factors, one row each."""
    c = np.atleast_2d(X) @ Q.T
    return w * ((c * c) @ (s * s)) + b


def shell_error_rates(alphas: np.ndarray, R: float, samples: int,
                      seed: int) -> tuple[int, int]:
    """Monte Carlo error counts of the ellipsoid classifier with coefficients alphas.

    Half the samples go to each shell, as in spherelab's estimator. A point
    u/|u| on the inner shell errs when sum (alpha_i - 1) u_i^2 > 0; on the
    outer shell when sum (R^2 alpha_i - 1) u_i^2 <= 0. Draws come from
    numpy's own generator, not from spherelab's streams.
    """
    gen = np.random.default_rng(seed)
    inner_total = samples // 2
    totals = {"inner": inner_total, "outer": samples - inner_total}
    errors = {}
    for shell, total in totals.items():
        gamma = alphas - 1.0 if shell == "inner" else R * R * alphas - 1.0
        hits = 0
        for start in range(0, total, _MC_CHUNK):
            u = gen.standard_normal((min(_MC_CHUNK, total - start), alphas.size))
            stat = (u * u) @ gamma
            hits += int((stat > 0.0).sum() if shell == "inner" else (stat <= 0.0).sum())
        errors[shell] = hits
    return errors["inner"], errors["outer"]


def counts_agree(a: int, b: int, samples_a: int, samples_b: int,
                 z: float = 6.0) -> bool:
    """Whether two binomial counts are consistent at z standard errors.

    The floor of z / samples keeps the test meaningful when both rates
    are at or near zero.
    """
    pa, pb = a / samples_a, b / samples_b
    p = (a + b) / (samples_a + samples_b)
    se = math.sqrt(p * (1.0 - p) * (1.0 / samples_a + 1.0 / samples_b))
    return abs(pa - pb) <= z * se + z / min(samples_a, samples_b)


def cap_chord_moments(n: int, t: float) -> tuple[float, float]:
    """Mean and standard deviation of the distance to the cap {x_1 >= t}.

    A uniform point of the unit sphere in R^n has first coordinate with
    density proportional to (1 - x^2)^((n - 3) / 2); outside the cap its
    distance to the cap is the chord to the boundary circle. Both moments
    come from the trapezoid rule on a fine uniform grid, whose end
    weights vanish with the density.
    """
    # Uniform spacing cancels in the ratios; the end points carry no mass.
    x = np.linspace(-1.0, 1.0, _QUAD_POINTS)[1:-1]
    log_density = 0.5 * (n - 3) * np.log1p(-x * x)
    density = np.exp(log_density - log_density.max())
    chord = np.sqrt((t - x) ** 2 + (math.sqrt(1.0 - t * t) - np.sqrt(1.0 - x * x)) ** 2)
    d = np.where(x < t, chord, 0.0)
    mass = float(density.sum())
    mean = float((density * d).sum()) / mass
    second = float((density * d * d).sum()) / mass
    return mean, math.sqrt(max(second - mean * mean, 0.0))
