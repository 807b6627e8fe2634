"""Analytic error-set geometry on the spheres, plus PCA halfspaces.

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
circle. They disagree by up to a factor sqrt(2); curve outputs carry both
columns and their ratio so the discrepancy stays visible.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from spherelab.attack import ErrorSetStats
from spherelab.dataset import MnistSet
from spherelab.linalg import top_principal_components
from spherelab.models import AlphaSpectrum
from spherelab.rng import RngStream, _shard_map
from spherelab.special import normal_cdf, normal_quantile

log = logging.getLogger(__name__)

_MC_CHUNK = 16384
_CLT_MIN_DIM = 30
_SUBSPACE_BISECT_ITERS = 60


class InfeasibleTargetError(ValueError):
    """No subspace of any size reaches the requested error rate."""


@dataclass(frozen=True)
class CapSpec:
    """A spherical cap of measure mu in dimension n."""

    n: int
    mu: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not 0.0 < self.mu <= 0.5:
            raise ValueError(f"cap measure must be in (0, 0.5], got {self.mu}")

    @property
    def alpha(self) -> float:
        """Gaussian height multiplier solving P[N(0,1) > alpha] = mu."""
        return normal_quantile(1.0 - self.mu)

    @property
    def t(self) -> float:
        """Cap height threshold alpha / sqrt(n)."""
        return self.alpha / math.sqrt(self.n)


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


def mc_error_rate(spec: AlphaSpectrum, shell: str, samples: int,
                  stream: RngStream) -> float:
    """Sampling oracle for :func:`clt_error_rate` on uniform shell points.

    Chunk ``i`` of 16384 samples draws from ``stream.child(i)``. The chunks
    run on the process-wide pool of :func:`spherelab.rng._shard_map` (one
    worker per CPU this process may use), and their integer hit counts add
    up to the same total in any order.
    """
    if samples < 10**3:
        raise ValueError("mc_error_rate needs at least 1e3 samples")
    gamma = _gammas(spec, shell)
    n = gamma.size

    def hits(job: tuple[int, int]) -> int:
        chunk_idx, count = job
        u = stream.child(chunk_idx).normal_matrix(count, n)
        u *= u
        stat = u @ (gamma - 1.0)
        return int((stat > 0.0).sum() if shell == "inner" else (stat < 0.0).sum())

    return sum(_shard_map(hits, _chunks(samples))) / samples


def theorem_bound(mu: float, n: int) -> float:
    """Distance bound Phi^-1(1 - mu)/sqrt(n) for error measure mu."""
    if not 0.0 < mu <= 0.5:
        raise ValueError(f"error measure must be in (0, 0.5], got {mu}")
    return normal_quantile(1.0 - mu) / math.sqrt(n)


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


def mc_cap_distance(cap: CapSpec, samples: int, stream: RngStream,
                    formula: str = "paper") -> float:
    """Mean distance from uniform sphere points to the cap.

    ``paper`` uses the sqrt(2)-scaled height-gap form; ``exact_chord``
    measures the true Euclidean distance to the nearest point of the cap
    (on its boundary circle for points outside it).

    Chunk ``i`` of 16384 points draws from ``stream.child(i)``. The chunks
    run on the process-wide pool of :func:`spherelab.rng._shard_map` (one
    worker per CPU this process may use); their float sums are added in
    chunk order, so the mean does not depend on the pool size.
    """
    if samples < 10**4:
        raise ValueError("mc_cap_distance needs at least 1e4 samples")
    t = cap.t

    def distance_sum(job: tuple[int, int]) -> float:
        chunk_idx, count = job
        u = stream.child(chunk_idx).normal_matrix(count, cap.n)
        x1 = u[:, 0] / np.linalg.norm(u, axis=1)
        return float(_cap_distances(x1, t, formula).sum())

    total = 0.0  # a plain loop: sum() compensates float sums from Python 3.12
    for part in _shard_map(distance_sum, _chunks(samples)):
        total += part
    return total / samples


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

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("mu,d_theory,d_mc_paper_formula,d_mc_exact_chord,"
                    "paper_over_exact\n")
            for p in self.points:
                ratio = (p.d_mc_paper_formula / p.d_mc_exact_chord
                         if p.d_mc_exact_chord else float("nan"))
                f.write(f"{p.mu!r},{p.d_theory!r},{p.d_mc_paper_formula!r},"
                        f"{p.d_mc_exact_chord!r},{ratio!r}\n")


def bound_curve(n: int, mus: list[float], samples: int,
                stream: RngStream) -> BoundCurve:
    """Tabulate :func:`theorem_bound` and both cap-distance estimates."""
    curve = BoundCurve(n=n, samples=samples)
    for i, mu in enumerate(mus):
        cap = CapSpec(n=n, mu=mu)
        d_paper = mc_cap_distance(cap, samples, stream.child(2 * i), "paper")
        d_exact = mc_cap_distance(cap, samples, stream.child(2 * i + 1), "exact_chord")
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
    not a sampled one.
    """
    if not 0.0 < target_error < 0.5:
        raise ValueError("target error must be in (0, 0.5)")
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


# ---------------------------------------------------------------------------
# PCA halfspace construction for image data


@dataclass
class HalfspaceSet:
    """Halfspace error set {x : w . x > b} with construction provenance."""

    w: np.ndarray  # unit normal
    b: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        norm = float(np.linalg.norm(self.w))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"halfspace normal must be unit length, got {norm}")

    def distances(self, points: np.ndarray) -> np.ndarray:
        """d(x, E) = max(b - w . x, 0) / ||w||; zero inside the set."""
        proj = points @ self.w
        return np.maximum(self.b - proj, 0.0) / float(np.linalg.norm(self.w))


def _tail_threshold(proj: np.ndarray, tail_fraction: float) -> float:
    """Threshold putting ceil(tail * N) points strictly above it.

    Ties at the threshold break toward inclusion: if the boundary value
    repeats, the threshold moves just below it so the whole tied block
    lands inside the set.
    """
    ordered = np.sort(proj)[::-1]
    m = math.ceil(tail_fraction * proj.size)
    if m >= proj.size:
        raise ValueError("tail fraction leaves no points outside the set")
    b = float(ordered[m])
    if ordered[m - 1] == ordered[m]:
        b = float(np.nextafter(b, -np.inf))
    return b


def pca_halfspace(train: MnistSet, tail_fraction: float = 0.01) -> HalfspaceSet:
    """Halfspace along the top principal direction holding the train tail.

    Both orientations of the direction are evaluated on the training set
    and the one with the larger mean distance is kept (the maximizing
    construction). Provenance records the PCA rank, tail fraction, pixel
    scaling, and orientation rule.
    """
    if not 0.0 < tail_fraction < 0.5:
        raise ValueError("tail fraction must be in (0, 0.5)")
    directions, variances = top_principal_components(train.images, 1)
    best = None
    for sign in (1.0, -1.0):
        w = sign * directions[0]
        proj = train.images @ w
        b = _tail_threshold(proj, tail_fraction)
        mean_dist = float(np.maximum(b - proj, 0.0).mean())
        if best is None or mean_dist > best[2]:
            best = (w, b, mean_dist)
    w, b, _ = best
    return HalfspaceSet(
        w=w, b=b,
        provenance={
            "pca_rank": 1,
            "top_variance": float(variances[0]),
            "tail_fraction": tail_fraction,
            "pixel_scaling": "[0,1]",
            "orientation": "max mean train distance",
        })


def halfspace_stats(hs: HalfspaceSet, test: MnistSet) -> ErrorSetStats:
    """Measure (mu, mean distance) of the halfspace on a fresh sample."""
    if test.images.shape[1] != hs.w.size:
        raise ValueError(
            f"test dimension {test.images.shape[1]} != halfspace dimension {hs.w.size}")
    proj = test.images @ hs.w
    inside = proj > hs.b
    distances = np.maximum(hs.b - proj, 0.0)
    count = test.images.shape[0]
    return ErrorSetStats(
        mu=float(inside.mean()),
        dmean=float(distances.mean()),
        failures=0,
        n=hs.w.size,
        model_tag="pca-halfspace",
        starts=count,
        successes=count,
        distances=distances,
    )
