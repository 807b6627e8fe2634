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
loss iterate whether or not it is misclassified. Both modes keep the logit
of the iterate they return, taken from the batch pass that evaluated it,
and worst mode reports a start as found when that logit misclassifies it;
no model pass is made after the loop. Misclassified means
:func:`spherelab.models.classify` of the logit differs from the start's
label (a logit of exactly zero is inner). Starts come from
:func:`spherelab.dataset.sample_batch` on the chosen shell.

Starts run in blocks of 50 consecutive rows; more than one block runs on
the thread pool of :func:`spherelab.rng._shard_map`, one job per block.
A start's result depends on its own block only, never on the pool size,
and its jitter substream on its row in the whole batch. The model's
``logits`` and ``input_grad`` must not mutate it, since blocks call them
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spherelab.dataset import SphereConfig, sample_batch
from spherelab.models import classify, sigmoid_ce_loss
from spherelab.rng import RngStream, _shard_map

_ZERO_GRAD = 1e-300
_DEGENERATE_BASIS = 1e-12
# Starts per PGD block (see _pgd_batch). The fastest of 10-100 for 100 starts
# at n = h = 500 on 2 cores; at least the 10 starts of a training probe, so
# probes stay one inline block.
_ATTACK_BLOCK = 50

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
        if self.step_size is not None and not (math.isfinite(self.step_size)
                                               and self.step_size > 0):
            raise ValueError(f"step size must be finite and > 0, got {self.step_size!r}")
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
    """Nearest-error distances over the starts of one attack."""

    dmean: float
    failures: int
    n: int
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


def _pgd_batch(model, X0: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
               stream: RngStream) -> list[AttackResult]:
    """Run PGD from every row of X0; results are keyed by row index.

    The rows run in consecutive blocks of ``_ATTACK_BLOCK`` starts, each
    one :func:`_pgd_block`. More than one block runs as one job per block
    on the pool of :func:`spherelab.rng._shard_map`, joined in row order;
    a single block runs inline. A start's bits depend on its own block
    only, never on the pool size: BLAS may round a row of a GEMM
    differently with the GEMM's row count, so a start's last bits may
    change with the rows that share its block. Jobs call ``model.logits``
    and ``model.input_grad`` concurrently, so neither may mutate the model
    (neither does for either family: ``MlpNet.input_grad`` uses the
    running statistics without updating them).
    """
    y = np.asarray(labels, dtype=np.float64)
    offsets = range(0, X0.shape[0], _ATTACK_BLOCK)

    def block(o: int) -> list[AttackResult]:
        end = o + _ATTACK_BLOCK
        return _pgd_block(model, X0[o:end], y[o:end], cfg, stream, o)

    if len(offsets) == 1:
        return block(0)
    return [result for part in _shard_map(block, offsets) for result in part]


def _pgd_block(model, X0: np.ndarray, y: np.ndarray, cfg: AttackConfig,
               stream: RngStream, offset: int) -> list[AttackResult]:
    """PGD from every row of X0, the rows ``offset, offset + 1, ...`` of a batch.

    Each start keeps one iterate with its loss and logit: the first
    misclassified one in nearest mode, the highest-loss one in worst mode
    (the start until an iterate beats it). Rows still searching are
    ``alive``; a step makes one ``input_grad`` and one ``logits`` call on
    them. Saddle jitter for batch row i draws from ``stream.child(i)``, so
    it does not depend on how the batch is split into blocks.
    """
    m, n = X0.shape
    nearest = cfg.mode == "nearest"
    radii = np.linalg.norm(X0, axis=1)
    X, x_adv = X0.copy(), X0.copy()
    best_logit = model.logits(X)
    last_loss = sigmoid_ce_loss(best_logit, y)
    best_loss = last_loss.copy()
    found = classify(best_logit) != y if nearest else np.zeros(m, dtype=bool)
    stationary = np.zeros(m, dtype=bool)
    steps_used = np.zeros(m, dtype=np.int64)
    drift = np.zeros(m)
    jitter: dict[int, RngStream] = {}  # a row jittered again continues its stream
    alive = np.flatnonzero(~found)
    for step in range(1, cfg.steps + 1):
        if alive.size == 0:
            break
        Xa = X[alive]
        g = model.input_grad(Xa, y[alive])
        unit = Xa / radii[alive][:, None]
        g_tan = g - np.einsum("ij,ij->i", g, unit)[:, None] * unit
        gnorm = np.linalg.norm(g_tan, axis=1)
        # No tangent signal: a true saddle (nonzero radial gradient) takes a
        # random tangent step; a zero gradient leaves the row stationary.
        for row in np.flatnonzero(gnorm < _ZERO_GRAD):
            i = alive[row]
            if np.linalg.norm(g[row]) >= _ZERO_GRAD:
                d = jitter.setdefault(i, stream.child(offset + i)).normals(n)
                d -= (d @ unit[row]) * unit[row]
                g_tan[row], gnorm[row] = d, np.linalg.norm(d)
            if gnorm[row] < _ZERO_GRAD:
                stationary[i], steps_used[i] = True, step - 1
        keep = ~stationary[alive]
        if not keep.all():
            alive, Xa, g_tan, gnorm = alive[keep], Xa[keep], g_tan[keep], gnorm[keep]
            if alive.size == 0:
                break
        ra = radii[alive]
        Xa = Xa + (cfg.eta / gnorm)[:, None] * g_tan
        Xa *= (ra / np.linalg.norm(Xa, axis=1))[:, None]
        X[alive] = Xa
        drift[alive] = np.maximum(drift[alive], np.abs(np.linalg.norm(Xa, axis=1) - ra) / ra)
        logits = model.logits(Xa)
        losses = sigmoid_ce_loss(logits, y[alive])
        last_loss[alive] = losses
        hit = classify(logits) != y[alive] if nearest else losses > best_loss[alive]
        rows = alive[hit]
        x_adv[rows], best_logit[rows], best_loss[rows] = Xa[hit], logits[hit], losses[hit]
        steps_used[rows] = step
        if nearest:
            found[rows] = True
            alive = alive[~hit]
    if nearest:
        steps_used[~found & ~stationary] = cfg.steps
    else:
        found = classify(best_logit) != y
    kept = found if nearest else np.ones(m, dtype=bool)
    final_loss = last_loss if nearest else best_loss
    return [AttackResult(
        found=bool(found[i]), x_start=X0[i].copy(), x_adv=x_adv[i] if kept[i] else None,
        distance=float(np.linalg.norm(x_adv[i] - X0[i])) if kept[i] else None,
        steps_used=int(steps_used[i]), final_loss=float(final_loss[i]),
        stationary=bool(stationary[i]), norm_drift=float(drift[i])) for i in range(m)]


def run_attack(model, sphere: SphereConfig, cfg: AttackConfig, stream: RngStream,
               shell: str = "inner") -> list[AttackResult]:
    """PGD from ``cfg.starts`` points that ``sample_batch`` draws on ``shell``."""
    xs, labels = sample_batch(sphere, stream.child(0), cfg.starts, shell)
    return _pgd_batch(model, xs, labels, cfg, stream.child(1))


def estimate_mean_distance(model, sphere: SphereConfig, cfg: AttackConfig,
                           stream: RngStream, shell: str = "inner") -> ErrorSetStats:
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
        dmean=float(distances.mean()) if distances.size else float("nan"),
        failures=failures,
        n=sphere.n,
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
    classes = classify(logits)
    return SliceGrid(a=coords, b=coords.copy(), classes=classes, logits=logits,
                     basis_u=u_hat, basis_v=v_hat, center=center, radii=radii)
