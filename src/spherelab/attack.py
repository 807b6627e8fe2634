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

Starts run in blocks of 50 consecutive rows, one job per block on the
thread pool of :func:`spherelab.rng._shard_map`, even when there is one.
A start's result depends on its own block only, never on the pool size,
and its jitter substream on its row in the whole batch. The model's
``logits`` and ``input_grad`` must not mutate it, since blocks call them
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spherelab import require_above, require_ints
from spherelab.dataset import SphereConfig, sample_batch
from spherelab.models import classify, sigmoid_ce_loss
from spherelab.rng import RngStream, _shard_map

_ZERO_GRAD = 1e-300
# Starts per PGD block (see _pgd_batch). The fastest of 10-100 for 100 starts
# at n = h = 500 on 2 cores; at least the 10 starts of a training probe, so
# a probe is one pool job.
_ATTACK_BLOCK = 50

NEAREST_STEP_SIZE = 0.001  # distance-estimation preset
WORST_STEP_SIZE = 0.01  # worst-case-search preset


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
        require_ints(self, steps=1, starts=1)
        if self.step_size is not None:
            require_above("step_size", self.step_size, 0)

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
    distances: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def successes(self) -> int:
        return int(self.distances.size)

    @property
    def all_failed(self) -> bool:
        return self.distances.size == 0


def _pgd_batch(model, X0: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
               stream: RngStream) -> list[AttackResult]:
    """Run PGD from every row of X0; results are keyed by row index.

    The rows run in consecutive blocks of ``_ATTACK_BLOCK`` starts, each
    one :func:`_pgd_block`, run as one job per block (a lone block too) on
    the pool of :func:`spherelab.rng._shard_map` and joined in row order.
    A start's bits depend on its own block only, never on the pool size:
    BLAS may round a row of a GEMM differently with the GEMM's row count,
    so a start's last bits may change with the rows that share its block.
    Jobs call ``model.logits`` and ``model.input_grad`` concurrently, so
    neither may mutate the model (neither does for either family:
    ``MlpNet.input_grad`` uses the running statistics without updating
    them).
    """
    y = np.asarray(labels, dtype=np.float64)
    offsets = range(0, X0.shape[0], _ATTACK_BLOCK)

    def block(o: int) -> list[AttackResult]:
        end = o + _ATTACK_BLOCK
        return _pgd_block(model, X0[o:end], y[o:end], cfg, stream, o)

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
    return ErrorSetStats(
        dmean=float(distances.mean()) if distances.size else float("nan"),
        failures=len(results) - distances.size,
        distances=distances,
    )


def worst_case_loss(model, X0: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
                    stream: RngStream) -> float:
    """Max attack loss over a probe batch (worst-mode search per row).

    ``cfg`` must be in worst mode; every row of ``X0`` is a start, whatever
    ``cfg.starts`` says. An ``X0`` that is not a nonempty 2-D batch, or
    ``labels`` that are not one per row, raise ``ValueError`` before any
    PGD job runs.
    """
    if cfg.mode != "worst":
        raise ValueError("worst_case_loss requires worst mode")
    X0 = np.asarray(X0)
    if X0.ndim != 2 or X0.shape[0] == 0:
        raise ValueError(f"X0 must be a nonempty 2-D batch of rows, got shape {X0.shape}")
    if np.shape(labels) != X0.shape[:1]:
        raise ValueError(f"labels must be one per row of X0 ({X0.shape[0]} rows), "
                         f"got shape {np.shape(labels)}")
    results = _pgd_batch(model, X0, labels, cfg, stream)
    return max(r.final_loss for r in results)
