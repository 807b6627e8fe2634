"""Analytic error-set geometry on the spheres.

Gaussian-approximation conventions used throughout:

- A spherical cap of measure mu is ``{x : x_1 > t}`` with ``t = a/sqrt(n)``
  where a solves ``P[N(0,1) > a] = mu``, i.e. ``a = Phi^-1(1 - mu)``.
- The distance bound for an error set of measure mu is
  ``Phi^-1(1 - mu)/sqrt(n)`` with unit constant.
- The CLT error estimate maps ellipsoid coefficients to shell error rates
  through ``X = sum (gamma_i - 1) u_i^2`` with ``gamma = alpha`` on the
  inner shell and ``R^2 alpha`` on the outer shell: the inner rate is
  ``P(X > 0) = Phi(mu_hat/sigma_hat)`` and the outer rate is
  ``P(X < 0) = Phi(-mu_hat/sigma_hat)``. Each is evaluated directly, never
  as one minus the other, so rates far below 1e-16 keep their relative
  accuracy. A zero sigma_hat gives a rate of 0: a float ``gamma_i - 1`` is
  0 or at least 2^-53 in size, so its square cannot underflow, and
  sigma_hat is 0 only when every gamma_i is exactly 1. Then X is 0 at
  every point, which lies on the boundary and errs on neither shell.

Two Monte Carlo cap-distance formulas ship side by side: the
``sqrt(2) * (t - x_1)`` form and the exact chord to the cap boundary
circle. They disagree by up to a factor sqrt(2); :func:`bound_curve`
returns both columns and logs their ratio, so the discrepancy stays
visible. The exact chord needs ``t <= 1``; at small n and small mu the
Gaussian height exceeds 1, and such a cap is rejected with a
``ValueError`` before any chunk runs.

On the unit sphere in R^n, x_1 has the law of ``g / sqrt(g^2 + c)`` with
g standard normal and c an independent chi-square with n - 1 degrees of
freedom (so x_1^2 ~ Beta(1/2, (n - 1)/2)), and the distance to a cap
depends on x_1 alone. So the Monte Carlo draws two numbers per point,
whatever ``n`` is, and one sample of ``samples`` points serves the whole
curve: every mu and both columns share its draws. It runs in keyed chunks
of 16384 points, summed one after another on the caller thread.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from spherelab import require_above, require_int, require_radius
from spherelab.models import AlphaSpectrum
from spherelab.rng import RngStream
from spherelab.special import normal_cdf, normal_quantile

log = logging.getLogger(__name__)

_MC_CHUNK = 16384
_CLT_MIN_DIM = 30
_SUBSPACE_BISECT_ITERS = 60


class InfeasibleTargetError(ValueError):
    """No subspace of any size reaches the requested error rate."""


def clt_error_rate(spec: AlphaSpectrum, shell: str) -> float:
    """Gaussian estimate of the shell error rate of an ellipsoid boundary."""
    if shell not in ("inner", "outer"):
        raise ValueError(f"shell must be 'inner' or 'outer', got {shell!r}")
    gamma = spec.alphas if shell == "inner" else (spec.R * spec.R) * spec.alphas
    if gamma.size < _CLT_MIN_DIM:
        warnings.warn(
            f"CLT error estimate with n={gamma.size} < {_CLT_MIN_DIM} is outside "
            "the regime the approximation is built for", stacklevel=2)
    centered = gamma - 1.0
    mu_hat = float(centered.sum())
    sigma_hat = math.sqrt(2.0 * float((centered * centered).sum()))
    if sigma_hat == 0.0:
        return 0.0  # every gamma is exactly 1 (see the module docstring)
    z = mu_hat / sigma_hat
    return normal_cdf(z) if shell == "inner" else normal_cdf(-z)


def theorem_bound(mu: float, n: int) -> float:
    """Distance bound Phi^-1(1 - mu)/sqrt(n) for error measure mu.

    It is also the height ``t`` of the cap ``{x : x_1 > t}`` of measure mu
    on the sphere in R^n. It needs an integer n >= 2 and mu in (0, 0.5];
    mu = 0.5 gives +0.0.
    """
    n = require_int("n", n, 2)
    require_above("cap measure", mu, 0)
    if mu > 0.5:
        raise ValueError(f"cap measure must be in (0, 0.5], got {mu}")
    return (0.0 - normal_quantile(mu)) / math.sqrt(n)  # 0.0 - q: +0.0 at mu = 0.5, not -0.0


def _cap_distance_sums(n: int, heights: list[float], stream: RngStream,
                       count: int) -> np.ndarray:
    """``(paper, exact_chord)`` distance sums of one chunk at each cap height.

    The chunk's ``count`` values of x_1 are ``g / sqrt(g^2 + c)``, with
    ``normals(count)`` and then ``chisquares(n - 1, count)`` drawn from
    ``stream``; ``sqrt(c / (g^2 + c))`` is their ``sqrt(1 - x_1^2)``.
    """
    g = stream.normals(count)
    c = stream.chisquares(n - 1, count)
    s = g * g + c
    x1, far = g / np.sqrt(s), np.sqrt(c / s)
    sums = np.empty((len(heights), 2))
    for row, t in zip(sums, heights):
        row[0] = np.maximum(math.sqrt(2.0) * (t - x1), 0.0).sum()
        chord = np.sqrt((t - x1) ** 2 + (math.sqrt(1.0 - t * t) - far) ** 2)
        row[1] = np.where(x1 < t, chord, 0.0).sum()
    return sums


@dataclass
class BoundCurvePoint:
    mu: float
    d_theory: float
    d_mc_paper_formula: float
    d_mc_exact_chord: float


@dataclass
class BoundCurve:
    """Tabulated optimal-cap curve: bound and both MC estimates per mu."""

    n: int
    samples: int
    points: list[BoundCurvePoint] = field(default_factory=list)


def bound_curve(n: int, mus: list[float], samples: int,
                stream: RngStream) -> BoundCurve:
    """Tabulate :func:`theorem_bound` and both cap-distance estimates.

    Both columns of every point are means over one sample of ``samples``
    values of x_1. Chunk ``c`` of 16384 of them draws ``normals(count)``
    and then ``chisquares(n - 1, count)`` from ``stream.child(c)`` and sums
    both distances at every cap height; the chunks run in order on the
    caller thread. An ``n`` that is not an integer >= 2, a ``samples``
    that is not one >= 10^4, a ``mus`` that is not a sequence, or a mu
    whose Gaussian height exceeds 1 (the exact chord needs ``t <= 1``)
    raises ``ValueError`` before any chunk is drawn, and an empty ``mus``
    draws none.
    """
    n, samples = require_int("n", n, 2), require_int("samples", samples, 10**4)
    if np.ndim(mus) != 1:
        raise ValueError(f"mus must be a sequence of cap measures, got {mus!r}")
    heights = [theorem_bound(mu, n) for mu in mus]
    for mu, t in zip(mus, heights):
        if t > 1.0:
            raise ValueError(
                f"exact_chord needs a cap height t <= 1, but n = {n} and "
                f"mu = {mu!r} give t = {t:.4g}")
    totals = np.zeros((len(heights), 2))
    if heights:
        for c, start in enumerate(range(0, samples, _MC_CHUNK)):
            totals += _cap_distance_sums(n, heights, stream.child(c),
                                         min(_MC_CHUNK, samples - start))
    curve = BoundCurve(n=n, samples=samples)
    for mu, t, (d_paper, d_exact) in zip(mus, heights, totals / samples):
        point = BoundCurvePoint(mu=mu, d_theory=t, d_mc_paper_formula=float(d_paper),
                                d_mc_exact_chord=float(d_exact))
        curve.points.append(point)
        log.info("bound_curve mu=%g: theory=%.5f paper=%.5f exact=%.5f "
                 "paper/exact=%.4f", mu, t, d_paper, d_exact,
                 d_paper / d_exact if d_exact else float("nan"))
    return curve


@dataclass
class SubspaceResult:
    """Smallest truncated-sum classifier meeting a target error rate."""

    k: int
    b: float
    fraction: float
    achieved_rate: float


def _truncated_spectrum(n: int, k: int, b: float, R: float) -> AlphaSpectrum:
    alphas = np.zeros(n)
    alphas[:k] = 1.0 / b
    return AlphaSpectrum(alphas=alphas, R=R)


def _equalized_rates(n: int, k: int, R: float) -> tuple[float, float]:
    """Equalize inner/outer CLT rates over b; returns (b, max rate).

    The crossing lies between the two shells' concentration points of the
    truncated sum, b in [k/n, R^2 k/n]; bisection runs on log b.
    """
    lo = math.log(k / n * 0.999)
    hi = math.log(R * R * k / n * 1.001)
    for _ in range(_SUBSPACE_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        spec = _truncated_spectrum(n, k, math.exp(mid), R)
        inner = clt_error_rate(spec, "inner")
        outer = clt_error_rate(spec, "outer")
        if inner > outer:
            lo = mid
        else:
            hi = mid
    b = math.exp(0.5 * (lo + hi))
    spec = _truncated_spectrum(n, k, b, R)
    return b, max(clt_error_rate(spec, "inner"), clt_error_rate(spec, "outer"))


def minimal_subspace_fraction(n: int, target_error: float, R: float) -> SubspaceResult:
    """Smallest k with equalized shell error rates at most ``target_error``.

    The classifier thresholds the sum of the first k squared coordinates
    at b; rates come from the CLT estimate, so this is the analytic curve,
    not a sampled one. ``R`` must be finite and > 1.
    """
    require_radius(R)
    require_above("target error", target_error, 0)
    if target_error >= 0.5:
        raise ValueError(f"target error must be in (0, 0.5), got {target_error!r}")
    n = require_int("n", n, 1)
    if n < _CLT_MIN_DIM:
        raise ValueError(f"need n >= {_CLT_MIN_DIM} for the CLT estimate")
    # The bisection always evaluates the k it returns, so the memo hands it back.
    equalized = functools.cache(lambda k: _equalized_rates(n, k, R))
    _, full_rate = equalized(n)
    if full_rate > target_error:
        raise InfeasibleTargetError(
            f"even k=n={n} only reaches rate {full_rate:.3e} > {target_error:.3e}")
    # k = n is feasible, so the search runs over k = 1, ..., n - 1.
    k = 1 + bisect.bisect_left(range(1, n), True,
                               key=lambda k: equalized(k)[1] <= target_error)
    b, rate = equalized(k)
    return SubspaceResult(k=k, b=b, fraction=k / n, achieved_rate=rate)

