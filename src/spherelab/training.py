"""Adam training over online or fixed sphere data, with metric streams.

The loop is deterministic per seed: minibatches, fresh evaluation samples,
error-rate Monte Carlo, and attack probes all draw from fixed substreams
of the run seed (see the registry in :mod:`spherelab.rng`). Metrics are
emitted at a configured cadence as step-keyed records; a metrics file is
JSON lines with a schema header. A non-finite training loss aborts the
run, restoring the last parameters snapshotted at a metric point.

Quadratic nets additionally report their ellipsoid-coefficient violation
count at a separate (coarser) cadence, since each check costs an SVD of
the h x n first-layer weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from spherelab import attack as attack_mod
from spherelab.dataset import FixedDataset, SphereConfig, sample_batch, sphere_points
from spherelab.models import MlpNet, QuadraticNet, alpha_spectrum, is_perfect, sigmoid_ce_loss
from spherelab.rng import (
    CHILD_ERROR_MC,
    CHILD_EVAL,
    CHILD_MINIBATCH,
    CHILD_PROBE,
    RngStream,
    _shard_map,
)

METRICS_SCHEMA = "spherelab-metrics/1"
_EVAL_CHUNK = 4096


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus hyperparameters."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _scratch: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float = 1e-4) -> "AdamState":
        return cls(
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
            lr=lr,
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> AdamState:
    """One bias-corrected Adam update, mutating ``params`` in place.

    This is Algorithm 1 of Kingma & Ba (2015): with ``t`` the updated step
    count, ``m`` and ``v`` the moving averages of ``g`` and ``g**2``,

        p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    so ``eps`` is added outside the square root of the bias-corrected
    ``v``. ``state`` (``t``, ``m``, ``v``) is advanced and returned.

    Monotone descent is not promised: ``m`` is a momentum term, so on a
    convex bowl the iterate can overshoot the minimum and ``|p - p*|`` can
    grow for a while before the swings die down. What bounds a step is its
    size: roughly ``lr * (1 - beta1) / sqrt(1 - beta2)`` per coordinate
    when ``1 - beta1 > sqrt(1 - beta2)``, else roughly ``lr`` (Kingma & Ba,
    section 2.1).
    """
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        scratch = state._scratch.get(name)
        if scratch is None:
            scratch = state._scratch[name] = np.empty_like(p)
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=scratch)
        m += scratch
        v *= state.beta2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - state.beta2
        v += scratch
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.eps
        np.divide(m, scratch, out=scratch)
        scratch *= state.lr / c1
        p -= scratch
    return state


@dataclass(frozen=True)
class ProbeConfig:
    """In-training attack probes feeding the worst-case-loss metric."""

    every: int = 1000
    starts: int = 10
    steps: int = 200
    step_size: float = 0.01
    nearest: bool = False  # also estimate mean attack distance
    nearest_steps: int = 1000
    nearest_step_size: float = 0.001


@dataclass
class TrainConfig:
    """Optimization budget, data source, and metric cadences."""

    steps: int
    batch_size: int = 50
    lr: float = 1e-4
    seed: int = 0
    dataset: FixedDataset | None = None  # None means online (fresh iid batches)
    metric_every: int = 1000
    eval_batch: int = 1000
    error_eval_samples: int = 0  # 0 skips Monte Carlo error estimation
    alpha_every: int = 0  # 0 skips in-training spectrum checks
    stop_on_perfect: bool = False
    probe: ProbeConfig | None = None
    metrics_path: str | None = None

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.stop_on_perfect and self.alpha_every <= 0:
            raise ValueError("stop_on_perfect needs alpha_every > 0")


@dataclass
class MetricsRecord:
    step: int
    train_loss: float | None
    eval_loss: float
    error_rate: float | None = None
    error_upper95: float | None = None
    attack_dmean: float | None = None
    worst_loss: float | None = None
    alpha_violations: int | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


class MetricsWriter:
    """Append-only JSON-lines metrics stream with a schema header."""

    def __init__(self, path, header: dict | None = None) -> None:
        self._f = open(path, "w", encoding="utf-8")
        head = {"schema": METRICS_SCHEMA}
        head.update(header or {})
        self._f.write(json.dumps(head) + "\n")
        self._f.flush()

    def write(self, record: MetricsRecord) -> None:
        self._f.write(json.dumps(record.to_dict()) + "\n")
        self._f.flush()

    def write_event(self, event: dict) -> None:
        self._f.write(json.dumps(event) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()


@dataclass
class ErrorRateEstimate:
    """Monte Carlo misclassification estimate with a 95% upper bound.

    With zero observed errors the bound is the rule of three (3/samples),
    a statistical upper bound rather than a point estimate; otherwise it
    is the normal-approximation upper confidence limit.
    """

    samples: int
    errors_inner: int
    errors_outer: int

    @property
    def errors(self) -> int:
        return self.errors_inner + self.errors_outer

    @property
    def rate(self) -> float:
        return self.errors / self.samples

    @property
    def upper95(self) -> float:
        if self.errors == 0:
            return 3.0 / self.samples
        r = self.rate
        return r + 1.645 * np.sqrt(r * (1.0 - r) / self.samples)


def evaluate_error_rate(model, sphere: SphereConfig, samples: int,
                        stream: RngStream) -> ErrorRateEstimate:
    """Misclassification counts over half-inner half-outer shell samples.

    Points are generated in chunks of 4096 keyed by
    ``stream.child(2 * chunk + shell)`` (shell 0 inner, 1 outer). The
    chunks run on the process-wide pool of :func:`spherelab.rng._shard_map`,
    one worker per CPU this process may use; the integer counts add up to
    the same totals in any order, so the result does not depend on the
    pool size. Jobs call ``model.logits`` concurrently, so it must not
    mutate the model (it does not for either family: ``MlpNet.logits``
    uses the running statistics without updating them). A logit of
    exactly zero classifies as inner.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    inner_total = samples // 2
    jobs = [(2 * i + outer, min(_EVAL_CHUNK, total - done))
            for outer, total in ((0, inner_total), (1, samples - inner_total))
            for i, done in enumerate(range(0, total, _EVAL_CHUNK))]

    def errors(job: tuple[int, int]) -> int:
        child, count = job
        z = sphere_points(stream.child(child), count, sphere.n)
        if child % 2:
            z *= sphere.R
            return int((model.logits(z) <= 0.0).sum())
        return int((model.logits(z) > 0.0).sum())

    counts = _shard_map(errors, jobs)
    return ErrorRateEstimate(
        samples=samples,
        errors_inner=sum(c for (child, _), c in zip(jobs, counts) if child % 2 == 0),
        errors_outer=sum(c for (child, _), c in zip(jobs, counts) if child % 2))


@dataclass
class TrainResult:
    model: object
    metrics: list[MetricsRecord]
    completed_steps: int
    aborted: bool = False
    abort_reason: str | None = None
    first_perfect_step: int | None = None


def _alpha_violations(model, sphere: SphereConfig) -> int | None:
    if not isinstance(model, QuadraticNet):
        return None
    if float(model.b) >= 0:
        return None  # spectrum undefined outside the b < 0 regime
    _, violations = is_perfect(alpha_spectrum(model, sphere.R))
    return violations


def train(model, cfg: TrainConfig, sphere: SphereConfig) -> TrainResult:
    """Run the optimization loop; see module docstring for determinism."""
    if getattr(model, "n", None) != sphere.n:
        raise ValueError(f"model dim {getattr(model, 'n', None)} != sphere dim {sphere.n}")
    if isinstance(model, MlpNet) and cfg.batch_size < 2:
        raise ValueError("batch-norm models need batch size >= 2")
    fixed = cfg.dataset
    if fixed is not None and fixed.config.n != sphere.n:
        raise ValueError("fixed dataset dimension does not match the sphere config")

    root = RngStream(cfg.seed)
    data_stream = root.child(CHILD_MINIBATCH)
    eval_stream = root.child(CHILD_EVAL)
    errmc_stream = root.child(CHILD_ERROR_MC)
    probe_stream = root.child(CHILD_PROBE)

    params = model.params()
    state = AdamState.for_params(params, lr=cfg.lr)
    metrics: list[MetricsRecord] = []
    probe_batch = None
    eval_events = 0
    probe_events = 0
    errmc_events = 0

    if cfg.probe is not None:
        probe_batch = sample_batch(sphere, probe_stream.child(0), cfg.probe.starts)

    def eval_loss_now() -> float:
        nonlocal eval_events
        xs, ys = sample_batch(sphere, eval_stream.child(eval_events), cfg.eval_batch)
        eval_events += 1
        logits = model.logits(xs)
        return float(np.mean(sigmoid_ce_loss(logits, ys)))

    def probe_now() -> tuple[float | None, float | None]:
        nonlocal probe_events
        event = probe_events
        probe_events += 1
        xs, ys = probe_batch
        wl = attack_mod.worst_case_loss(
            model, xs, ys,
            attack_mod.AttackConfig(mode="worst", steps=cfg.probe.steps,
                                    step_size=cfg.probe.step_size, starts=len(ys)),
            probe_stream.child(1 + event))
        dmean = None
        if cfg.probe.nearest:
            stats = attack_mod.estimate_mean_distance(
                model, sphere,
                attack_mod.AttackConfig(mode="nearest", steps=cfg.probe.nearest_steps,
                                        step_size=cfg.probe.nearest_step_size,
                                        starts=cfg.probe.starts),
                probe_stream.child(30000 + event))
            dmean = None if stats.all_failed else stats.dmean
        return wl, dmean

    def error_estimate_now() -> tuple[float | None, float | None]:
        nonlocal errmc_events
        if cfg.error_eval_samples <= 0:
            return None, None
        est = evaluate_error_rate(model, sphere, cfg.error_eval_samples,
                                  errmc_stream.child(errmc_events))
        errmc_events += 1
        return est.rate, est.upper95

    def emit(step: int, train_loss: float | None, alpha: int | None,
             do_probe: bool) -> MetricsRecord:
        wl, dmean = probe_now() if do_probe else (None, None)
        rate, upper = error_estimate_now()
        rec = MetricsRecord(step=step, train_loss=train_loss,
                            eval_loss=eval_loss_now(),
                            error_rate=rate, error_upper95=upper,
                            attack_dmean=dmean, worst_loss=wl,
                            alpha_violations=alpha)
        metrics.append(rec)
        if writer:
            writer.write(rec)
        return rec

    first_perfect: int | None = None
    loss_sum = 0.0
    loss_count = 0
    aborted = False
    abort_reason = None
    completed = 0
    writer = MetricsWriter(cfg.metrics_path, {"seed": cfg.seed, "steps": cfg.steps}) \
        if cfg.metrics_path else None
    try:
        alpha0 = _alpha_violations(model, sphere) if cfg.alpha_every > 0 else None
        emit(0, None, alpha0, do_probe=cfg.probe is not None)
        snapshot = {k: v.copy() for k, v in params.items()}

        for step in range(1, cfg.steps + 1):
            if fixed is None:
                xs, ys = sample_batch(sphere, data_stream, cfg.batch_size)
            else:
                idx = (data_stream.uniforms(cfg.batch_size) * fixed.N).astype(np.int64)
                xs, ys = fixed.xs[idx], fixed.labels[idx]
            logits, cache = model.forward(xs, mode="train")
            batch_loss = float(np.mean(sigmoid_ce_loss(logits, ys)))
            if not np.isfinite(batch_loss):
                for k, v in params.items():
                    np.copyto(v, snapshot[k])
                aborted = True
                abort_reason = f"non-finite training loss at step {step}"
                if writer:
                    writer.write_event({"step": step, "event": "aborted",
                                        "reason": abort_reason})
                break
            loss_sum += batch_loss
            loss_count += 1
            grads = model.backward(cache, ys)
            adam_step(params, grads, state)
            completed = step

            alpha = None
            if cfg.alpha_every > 0 and step % cfg.alpha_every == 0:
                alpha = _alpha_violations(model, sphere)
                if alpha == 0 and first_perfect is None:
                    first_perfect = step
            stopping = cfg.stop_on_perfect and first_perfect is not None
            final = step == cfg.steps or stopping
            do_probe = cfg.probe is not None and (step % cfg.probe.every == 0 or final)
            if step % cfg.metric_every == 0 or final or alpha is not None or do_probe:
                mean_loss = loss_sum / loss_count if loss_count else None
                emit(step, mean_loss, alpha, do_probe)
                loss_sum = 0.0
                loss_count = 0
                snapshot = {k: v.copy() for k, v in params.items()}
            if stopping:
                break
    finally:
        if writer:
            writer.close()
    return TrainResult(model=model, metrics=metrics, completed_steps=completed,
                       aborted=aborted, abort_reason=abort_reason,
                       first_perfect_step=first_perfect)
