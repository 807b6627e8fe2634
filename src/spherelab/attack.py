"""The manifold attack: loss ascent constrained to the data shell.

Each iteration takes a gradient-ascent step on the per-point loss and
projects back onto the start's sphere, so every iterate keeps its true
label. Steps move a fixed distance along the unit tangent direction of
the loss gradient; normalizing the tangent gradient is what keeps the
attack making progress on saturated models whose raw gradients are
vanishingly small, and it makes the configured step size the literal
per-iteration path length.

Exact constrained stationary points (zero tangent gradient with nonzero
radial gradient, e.g. a start on a symmetry axis of a quadratic net) are
escaped by a small deterministic tangential jitter drawn from the start's
own substream; a start whose full input gradient is zero is recorded as a
failed, stationary attack rather than an error.

In nearest mode the attack stops a start at its first misclassified
iterate; in worst mode it runs the full budget and returns the highest
loss iterate whether or not it is misclassified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spherelab.dataset import SphereConfig, Sample, sphere_points
from spherelab.models import sigmoid_ce_loss
from spherelab.rng import RngStream

_ZERO_GRAD = 1e-300
_DEGENERATE_BASIS = 1e-12

NEAREST_STEP_SIZE = 0.001  # distance-estimation preset
WORST_STEP_SIZE = 0.01  # worst-case-search preset


class DegenerateBasisError(ValueError):
    """Slice basis vectors are parallel or zero."""


@dataclass(frozen=True)
class AttackConfig:
    """PGD budget and mode; step size defaults to the mode's preset."""

    mode: str = "nearest"  # "nearest" | "worst"
    steps: int = 1000
    step_size: float | None = None
    starts: int = 100

    def __post_init__(self) -> None:
        if self.mode not in ("nearest", "worst"):
            raise ValueError(f"mode must be 'nearest' or 'worst', got {self.mode!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size is not None and not self.step_size > 0:
            raise ValueError("step size must be positive")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")

    @property
    def eta(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return NEAREST_STEP_SIZE if self.mode == "nearest" else WORST_STEP_SIZE


@dataclass
class AttackResult:
    """Outcome of one PGD start."""

    found: bool
    x_start: np.ndarray
    x_adv: np.ndarray | None
    distance: float | None
    steps_used: int
    final_loss: float
    stationary: bool = False
    norm_drift: float = 0.0


@dataclass
class ErrorSetStats:
    """Paired error-measure / adversarial-distance measurements."""

    mu: float
    dmean: float
    failures: int
    n: int
    model_tag: str
    starts: int = 0
    successes: int = 0
    all_failed: bool = False
    distances: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class DistanceHistogram:
    """Binned nearest-error distances over attack starts."""

    edges: np.ndarray
    counts: np.ndarray
    mean: float
    std: float
    q1: float
    median: float
    q3: float
    failures: int
    successes: int
    all_failed: bool

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("bin_lo,bin_hi,count\n")
            for lo, hi, c in zip(self.edges[:-1], self.edges[1:], self.counts):
                f.write(f"{lo!r},{hi!r},{int(c)}\n")


def _misclassified(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # Ties (logit exactly 0) classify as inner.
    return (logits > 0.0).astype(np.uint8) != labels.astype(np.uint8)


def _pgd_batch(model, X0: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
               stream: RngStream) -> list[AttackResult]:
    """Run PGD from every row of X0; results are keyed by row index.

    Saddle jitter for row i draws from ``stream.child(i)``, so each start's
    trajectory is independent of how the batch is assembled or sharded.
    """
    m, n = X0.shape
    eta = cfg.eta
    y = np.asarray(labels, dtype=np.float64)
    radii = np.linalg.norm(X0, axis=1)
    X = X0.copy()

    found = np.zeros(m, dtype=bool)
    stationary = np.zeros(m, dtype=bool)
    steps_used = np.zeros(m, dtype=np.int64)
    x_adv = [None] * m
    final_loss = np.asarray(sigmoid_ce_loss(model.logits(X), y), dtype=np.float64).copy()
    best_loss = final_loss.copy()  # worst mode
    drift = np.zeros(m)
    jitter_streams: dict[int, RngStream] = {}

    alive = np.arange(m)
    if cfg.mode == "nearest":
        mis0 = _misclassified(model.logits(X), labels)
        for i in np.flatnonzero(mis0):
            found[i] = True
            x_adv[i] = X0[i].copy()
        alive = alive[~mis0]
    else:
        for i in range(m):
            x_adv[i] = X0[i].copy()

    for step in range(1, cfg.steps + 1):
        if alive.size == 0:
            break
        Xa = X[alive]
        ya = y[alive]
        ra = radii[alive]
        g = model.input_grad(Xa, ya)
        unit = Xa / ra[:, None]
        radial = np.einsum("ij,ij->i", g, unit)
        g_tan = g - radial[:, None] * unit
        gnorm = np.linalg.norm(g_tan, axis=1)

        weak = gnorm < _ZERO_GRAD
        if weak.any():
            gfull = np.linalg.norm(g[weak], axis=1)
            weak_rows = alive[weak]
            dead_rows = weak_rows[gfull < _ZERO_GRAD]
            for i in dead_rows:
                stationary[i] = True
                steps_used[i] = step - 1
            # True saddles: nonzero radial gradient but no tangent signal.
            for i in weak_rows:
                if i in dead_rows:
                    continue
                js = jitter_streams.setdefault(i, stream.child(i))
                d = js.normals(n)
                u = X[i] / radii[i]
                d -= (d @ u) * u
                dn = np.linalg.norm(d)
                if dn < _ZERO_GRAD:  # pragma: no cover - probability ~0
                    stationary[i] = True
                    steps_used[i] = step - 1
                    continue
                row = np.flatnonzero(alive == i)[0]
                g_tan[row] = d
                gnorm[row] = dn
            if stationary[alive].any():
                keep = ~stationary[alive]
                alive = alive[keep]
                if alive.size == 0:
                    break
                Xa = X[alive]
                ya = y[alive]
                ra = radii[alive]
                g_tan = g_tan[keep]
                gnorm = gnorm[keep]

        Xa = Xa + (eta / gnorm)[:, None] * g_tan
        norms = np.linalg.norm(Xa, axis=1)
        Xa *= (ra / norms)[:, None]
        X[alive] = Xa
        post = np.linalg.norm(Xa, axis=1)
        drift[alive] = np.maximum(drift[alive], np.abs(post - ra) / ra)

        logits = model.logits(Xa)
        losses = np.asarray(sigmoid_ce_loss(logits, ya), dtype=np.float64)
        final_loss[alive] = losses
        if cfg.mode == "nearest":
            mis = _misclassified(logits, ya)
            if mis.any():
                for i in alive[mis]:
                    found[i] = True
                    x_adv[i] = X[i].copy()
                    steps_used[i] = step
                alive = alive[~mis]
        else:
            better = losses > best_loss[alive]
            hit = alive[better]
            best_loss[hit] = losses[better]
            for i in hit:
                x_adv[i] = X[i].copy()
                steps_used[i] = step

    results = []
    for i in range(m):
        if cfg.mode == "nearest":
            dist = float(np.linalg.norm(x_adv[i] - X0[i])) if found[i] else None
            if not found[i] and not stationary[i]:
                steps_used[i] = cfg.steps
            results.append(AttackResult(
                found=bool(found[i]), x_start=X0[i].copy(), x_adv=x_adv[i],
                distance=dist, steps_used=int(steps_used[i]),
                final_loss=float(final_loss[i]), stationary=bool(stationary[i]),
                norm_drift=float(drift[i])))
        else:
            adv = x_adv[i]
            logits_adv = model.logits(adv[None, :])
            is_err = bool(_misclassified(logits_adv, labels[i:i + 1])[0])
            results.append(AttackResult(
                found=is_err, x_start=X0[i].copy(), x_adv=adv,
                distance=float(np.linalg.norm(adv - X0[i])),
                steps_used=int(steps_used[i]), final_loss=float(best_loss[i]),
                stationary=bool(stationary[i]), norm_drift=float(drift[i])))
    return results


def manifold_pgd(model, sample: Sample, cfg: AttackConfig, stream: RngStream) -> AttackResult:
    """Attack a single on-manifold sample; see module docstring."""
    x = np.asarray(sample.x, dtype=np.float64)
    r = np.linalg.norm(x)
    if sample.label == 0 and abs(r - 1.0) > 1e-9:
        raise ValueError(f"inner-label sample has radius {r}")
    if sample.label == 1 and r <= 1.0:
        raise ValueError(f"outer-label sample has radius {r}")
    return _pgd_batch(model, x[None, :], np.array([sample.label]), cfg, stream)[0]


def _starts_on_shell(sphere: SphereConfig, shell: str, count: int,
                     stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    if shell not in ("inner", "outer", "both"):
        raise ValueError(f"shell must be inner/outer/both, got {shell!r}")
    if shell == "both":
        labels = stream.coins(count).astype(np.uint8)
    else:
        labels = np.full(count, 0 if shell == "inner" else 1, dtype=np.uint8)
    xs = sphere_points(stream, count, sphere.n)
    xs[labels == 1] *= sphere.R
    return xs, labels


def run_attack(model, sphere: SphereConfig, cfg: AttackConfig, stream: RngStream,
               shell: str = "inner") -> list[AttackResult]:
    """PGD from ``cfg.starts`` random points on the chosen shell."""
    xs, labels = _starts_on_shell(sphere, shell, cfg.starts, stream.child(0))
    return _pgd_batch(model, xs, labels, cfg, stream.child(1))


def estimate_mean_distance(model, sphere: SphereConfig, cfg: AttackConfig,
                           stream: RngStream, shell: str = "inner",
                           mu: float = float("nan"),
                           model_tag: str = "") -> ErrorSetStats:
    """Mean nearest-error distance over successful attack starts.

    Failures are counted separately and never folded into the mean; when
    every start fails the mean is NaN and ``all_failed`` is set.
    """
    if cfg.mode != "nearest":
        raise ValueError("distance estimation requires nearest mode")
    results = run_attack(model, sphere, cfg, stream, shell)
    distances = np.array([r.distance for r in results if r.found])
    failures = sum(1 for r in results if not r.found)
    all_failed = failures == len(results)
    return ErrorSetStats(
        mu=mu,
        dmean=float(distances.mean()) if distances.size else float("nan"),
        failures=failures,
        n=sphere.n,
        model_tag=model_tag or type(model).__name__,
        starts=cfg.starts,
        successes=int(distances.size),
        all_failed=all_failed,
        distances=distances,
    )


def distance_distribution(model, sphere: SphereConfig, cfg: AttackConfig,
                          stream: RngStream, bins: int = 20,
                          shell: str = "inner") -> DistanceHistogram:
    """Histogram of per-start nearest-error distances."""
    if cfg.starts < 100:
        raise ValueError("distance distribution needs at least 100 starts")
    stats = estimate_mean_distance(model, sphere, cfg, stream, shell)
    d = stats.distances
    if d.size:
        counts, edges = np.histogram(d, bins=bins)
        q1, med, q3 = np.percentile(d, [25, 50, 75])
        return DistanceHistogram(
            edges=edges, counts=counts, mean=float(d.mean()),
            std=float(d.std()), q1=float(q1), median=float(med), q3=float(q3),
            failures=stats.failures, successes=stats.successes, all_failed=False)
    return DistanceHistogram(
        edges=np.array([0.0, 1.0]), counts=np.zeros(1, dtype=np.int64),
        mean=float("nan"), std=float("nan"), q1=float("nan"),
        median=float("nan"), q3=float("nan"),
        failures=stats.failures, successes=0, all_failed=True)


def worst_case_loss(model, X0: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
                    stream: RngStream) -> float:
    """Max attack loss over a probe batch (worst-mode search per row)."""
    worst_cfg = AttackConfig(mode="worst", steps=cfg.steps,
                             step_size=cfg.eta, starts=X0.shape[0])
    results = _pgd_batch(model, X0, labels, worst_cfg, stream)
    return max(r.final_loss for r in results)


@dataclass
class SliceGrid:
    """Model decisions on a 2-D slice spanned by an orthonormalized basis."""

    a: np.ndarray
    b: np.ndarray
    classes: np.ndarray  # (res, res) predicted labels
    logits: np.ndarray  # (res, res)
    basis_u: np.ndarray
    basis_v: np.ndarray
    center: np.ndarray
    radii: tuple[float, float]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("a,b,class,logit\n")
            for i, av in enumerate(self.a):
                for j, bv in enumerate(self.b):
                    f.write(f"{av!r},{bv!r},{int(self.classes[i, j])},"
                            f"{self.logits[i, j]!r}\n")


def slice_grid(model, center: np.ndarray, u: np.ndarray, v: np.ndarray,
               extent: float, resolution: int,
               radii: tuple[float, float] = (1.0, 1.3)) -> SliceGrid:
    """Evaluate the model on the grid center + a*u_hat + b*v_hat.

    ``u`` and ``v`` are orthonormalized by Gram-Schmidt (u keeps its
    direction; v loses its u-component). The returned radii are the shell
    radii to overlay on plots.
    """
    center = np.asarray(center, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    un = np.linalg.norm(u)
    if un < _DEGENERATE_BASIS:
        raise DegenerateBasisError("u has (near-)zero norm")
    u_hat = u / un
    v_perp = v - (v @ u_hat) * u_hat
    vn = np.linalg.norm(v_perp)
    if vn < _DEGENERATE_BASIS * max(1.0, np.linalg.norm(v)):
        raise DegenerateBasisError("u and v are (near-)parallel")
    v_hat = v_perp / vn
    coords = np.linspace(-extent, extent, resolution)
    points = (center[None, None, :]
              + coords[:, None, None] * u_hat[None, None, :]
              + coords[None, :, None] * v_hat[None, None, :])
    flat = points.reshape(-1, center.size)
    logits = model.logits(flat).reshape(resolution, resolution)
    classes = (logits > 0.0).astype(np.uint8)
    return SliceGrid(a=coords, b=coords.copy(), classes=classes, logits=logits,
                     basis_u=u_hat, basis_v=v_hat, center=center, radii=radii)
