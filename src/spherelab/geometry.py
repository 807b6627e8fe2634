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
  accuracy. A zero sigma_hat degenerates to an exact 0/1 by the sign of
  mu_hat.

Two Monte Carlo cap-distance formulas ship side by side: the
``sqrt(2) * (t - x_1)`` form and the exact chord to the cap boundary
circle. They disagree by up to a factor sqrt(2); :func:`bound_curve`
returns both columns and logs their ratio, so the discrepancy stays
visible. The exact chord needs ``t <= 1``; at small n and small mu the
Gaussian height exceeds 1, and such a cap is rejected with a
``ValueError`` before any chunk runs.

The Monte Carlo runs in keyed chunks of 16384 points on the process-wide
pool of :func:`spherelab.rng._shard_map`. A chunk draws its points with
:func:`spherelab.dataset.sphere_points`, a block of about 32768 normals
at a time, and keeps only x_1, so a job holds a few hundred KiB whatever
``n`` is.
All chunks of a :func:`bound_curve` go to the pool in one map, and every
estimate adds its chunk sums in chunk order, so no result depends on the
pool size.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from spherelab import require_int, require_radius
from spherelab.dataset import sphere_points
from spherelab.models import AlphaSpectrum
from spherelab.rng import RngStream, _shard_map
from spherelab.special import normal_cdf, normal_quantile

log = logging.getLogger(__name__)

_MC_CHUNK = 16384
_MC_BLOCK = 32768  # normals per sphere_points call of a chunk: 256 KiB
_CLT_MIN_DIM = 30
_SUBSPACE_BISECT_ITERS = 60


class InfeasibleTargetError(ValueError):
    """No subspace of any size reaches the requested error rate."""


def _gammas(spec: AlphaSpectrum, shell: str) -> np.ndarray:
    if shell not in ("inner", "outer"):
        raise ValueError(f"shell must be 'inner' or 'outer', got {shell!r}")
    alphas = np.asarray(spec.alphas, dtype=np.float64)
    return alphas if shell == "inner" else (spec.R * spec.R) * alphas


def clt_error_rate(spec: AlphaSpectrum, shell: str) -> float:
    """Gaussian estimate of the shell error rate of an ellipsoid boundary."""
    gamma = _gammas(spec, shell)
    if gamma.size < _CLT_MIN_DIM:
        warnings.warn(
            f"CLT error estimate with n={gamma.size} < {_CLT_MIN_DIM} is outside "
            "the regime the approximation is built for", stacklevel=2)
    centered = gamma - 1.0
    mu_hat = float(centered.sum())
    sigma_hat = math.sqrt(2.0 * float((centered * centered).sum()))
    if sigma_hat == 0.0:
        if shell == "inner":
            return 1.0 if mu_hat > 0 else 0.0
        return 1.0 if mu_hat < 0 else 0.0
    z = mu_hat / sigma_hat
    return normal_cdf(z) if shell == "inner" else normal_cdf(-z)


def _chunks(samples: int) -> list[tuple[int, int]]:
    """``(chunk index, count)`` of each Monte Carlo chunk, in order."""
    return [(i, min(_MC_CHUNK, samples - done))
            for i, done in enumerate(range(0, samples, _MC_CHUNK))]


def theorem_bound(mu: float, n: int) -> float:
    """Distance bound Phi^-1(1 - mu)/sqrt(n) for error measure mu.

    It is also the height ``t`` of the cap ``{x : x_1 > t}`` of measure mu
    on the sphere in R^n. It needs an integer n >= 2 and mu in (0, 0.5];
    mu = 0.5 gives +0.0.
    """
    n = require_int("n", n, 2)
    if not 0.0 < mu <= 0.5:
        raise ValueError(f"cap measure must be in (0, 0.5], got {mu}")
    return (0.0 - normal_quantile(mu)) / math.sqrt(n)  # 0.0 - q: +0.0 at mu = 0.5, not -0.0


def _cap_distances(x1: np.ndarray, t: float, formula: str) -> np.ndarray:
    if formula == "paper":
        return np.maximum(math.sqrt(2.0) * (t - x1), 0.0)
    if formula == "exact_chord":
        out = np.zeros_like(x1)
        outside = x1 < t
        xo = x1[outside]
        out[outside] = np.sqrt(
            (t - xo) ** 2
            + (math.sqrt(1.0 - t * t) - np.sqrt(1.0 - xo * xo)) ** 2)
        return out
    raise ValueError(f"formula must be 'paper' or 'exact_chord', got {formula!r}")


def _cap_distance_sum(job: tuple[int, float, RngStream, str, int]) -> float:
    """Summed cap distances of one chunk of ``count`` uniform sphere points.

    The points come from successive :func:`spherelab.dataset.sphere_points`
    calls on ``stream`` of about 32768 normals each; only each row's x_1 is
    kept. Normals are chunk-invariant and each row is normalised by its own
    norm, so the bits do not depend on the block.
    """
    n, t, stream, formula, count = job
    step = max(1, _MC_BLOCK // n)
    x1 = np.empty(count)
    for start in range(0, count, step):
        x1[start:start + step] = sphere_points(stream, min(step, count - start), n)[:, 0]
    return float(_cap_distances(x1, t, formula).sum())


def _mc_cap_means(n: int, estimates: list[tuple[float, RngStream, str]],
                  samples: int) -> list[float]:
    """Mean distance in R^n to the cap of each ``(mu, stream, formula)`` estimate.

    Chunk ``i`` of 16384 points of an estimate draws from its
    ``stream.child(i)``. The chunks of all estimates run in one
    :func:`spherelab.rng._shard_map` call, and each estimate adds its chunk
    sums in chunk order.
    """
    heights = [theorem_bound(mu, n) for mu, _, _ in estimates]
    for t, (mu, _, formula) in zip(heights, estimates):
        if formula == "exact_chord" and t > 1.0:
            raise ValueError(
                f"exact_chord needs a cap height t <= 1, but n = {n} and "
                f"mu = {mu!r} give t = {t:.4g}")
    chunks = _chunks(samples)
    sums = _shard_map(_cap_distance_sum, [(n, t, stream.child(i), formula, count)
                                          for t, (_, stream, formula) in zip(heights, estimates)
                                          for i, count in chunks])
    means = []
    for k in range(len(estimates)):
        total = 0.0  # a plain loop: sum() compensates float sums from Python 3.12
        for part in sums[k * len(chunks):(k + 1) * len(chunks)]:
            total += part
        means.append(total / samples)
    return means


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

    Point ``i`` has the ``paper`` estimate on ``stream.child(2 * i)`` and
    the ``exact_chord`` one on ``stream.child(2 * i + 1)``. Each is the mean
    distance over ``samples`` uniform sphere points, chunk ``c`` of 16384
    drawn from the estimate stream's ``child(c)``. The chunks of all
    ``2 * len(mus)`` estimates run in one pool map; each estimate adds its
    chunk sums in chunk order, and each job holds one row block of points.
    An ``n`` that is not an integer >= 2, or a ``samples`` that is not one
    >= 10^4, raises ``ValueError`` before any chunk runs.
    """
    n, samples = require_int("n", n, 2), require_int("samples", samples, 10**4)
    curve = BoundCurve(n=n, samples=samples)
    means = _mc_cap_means(
        n, [(mu, stream.child(2 * i + j), formula)
            for i, mu in enumerate(mus)
            for j, formula in enumerate(("paper", "exact_chord"))], samples)
    for i, mu in enumerate(mus):
        d_paper, d_exact = means[2 * i], means[2 * i + 1]
        point = BoundCurvePoint(
            mu=mu, d_theory=theorem_bound(mu, n),
            d_mc_paper_formula=d_paper, d_mc_exact_chord=d_exact)
        curve.points.append(point)
        log.info("bound_curve mu=%g: theory=%.5f paper=%.5f exact=%.5f "
                 "paper/exact=%.4f", mu, point.d_theory, d_paper, d_exact,
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
    if not 0.0 < target_error < 0.5:
        raise ValueError("target error must be in (0, 0.5)")
    n = require_int("n", n, 1)
    if n < _CLT_MIN_DIM:
        raise ValueError(f"need n >= {_CLT_MIN_DIM} for the CLT estimate")
    _, full_rate = _equalized_rates(n, n, R)
    if full_rate > target_error:
        raise InfeasibleTargetError(
            f"even k=n={n} only reaches rate {full_rate:.3e} > {target_error:.3e}")
    lo, hi = 1, n  # rate at hi is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        _, rate = _equalized_rates(n, mid, R)
        if rate <= target_error:
            hi = mid
        else:
            lo = mid + 1
    b, rate = _equalized_rates(n, lo, R)
    return SubspaceResult(k=lo, b=b, fraction=lo / n, achieved_rate=rate)

