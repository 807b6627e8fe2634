"""Adam training over online or fixed sphere data, with metric streams.

The loop is deterministic per seed: minibatches, fresh evaluation samples,
error-rate Monte Carlo, and attack probes all draw from fixed substreams
of the run seed (see the registry in :mod:`spherelab.rng`). A fixed
training set of N points is the first N draws of the dataset child of
the sphere seed, not of the run seed, so runs with the same sphere and N
train on the same points, whatever their ``TrainConfig.seed``. Metrics are
emitted at a configured cadence as step-keyed records; a metrics file is
JSON lines with a schema header. Record k (from 0) takes ``child(k)`` of
the eval and error-MC streams; probe event k takes ``child(1 + k)`` of the
probe stream (worst mode) and ``child(k)`` of the nearest-probe stream.
A child index may reach 2**64 - 2 (see :mod:`spherelab.rng`), so no
schedule runs out of keys. A non-finite training loss aborts the run,
restoring the model's whole ``state()`` (batch-norm statistics too) from
the last metric point.

Minibatch k + 1 is drawn on a worker of the process-wide pool (see
:func:`spherelab.rng.prefetch`) while step k runs its forward pass,
backward pass and Adam update, so the minibatch stream is always one
batch ahead of the model: a resume must save that stream's state as it
was before the drawn-ahead batch, and a run that stops early has drawn at
most that one batch past its last step.

Quadratic nets additionally report their ellipsoid-coefficient violation
count at a separate (coarser) cadence, since each check costs an SVD of
the h x n first-layer weights; other models have none, and are refused.

The error-rate Monte Carlo of a quadratic net with at least 8 samples per
input dimension runs in the eigenbasis of its quadric, from one n x n
eigensolve per call, and forms no shell point (see
:func:`evaluate_error_rate`). Since version 0.4.0 the counts of such calls
differ from those of the point-by-point path; their law does not.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

import spherelab
from spherelab import attack as attack_mod, require_above, require_bool, require_int, require_ints
from spherelab.dataset import SphereConfig, sample_batch
from spherelab.models import (
    MlpNet, QuadraticNet, alpha_spectrum, classify, is_perfect, sigmoid_ce_loss)
from spherelab.rng import (
    CHILD_DATASET,
    CHILD_ERROR_MC,
    CHILD_EVAL,
    CHILD_MINIBATCH,
    CHILD_NEAREST_PROBE,
    CHILD_PROBE,
    RngStream,
    _shard_map,
    pool_workers,
    prefetch,
)

METRICS_SCHEMA = "spherelab-metrics/1"
_EVAL_CHUNK = 512  # points per keyed chunk of evaluate_error_rate, one logits block
# A quadratic net's error rate is counted in its quadric's eigenbasis from
# this many samples per input dimension. The one n x n Gram matrix and
# eigensolve of a call then cost less than the h x n GEMMs they save: on
# 2 cores at n = 500 the eigenbasis is faster from 4096 samples, for
# h = 500 and for h = 1000.
_EIGENBASIS_SAMPLES_PER_DIM = 8
_ADAM_BLOCK = 32768  # elements per block of adam_step: 256 KiB of float64
_ADAM_JOB = 4  # consecutive blocks per pool job of adam_step
_ADAM_BETA1 = 0.9  # Kingma & Ba's defaults
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter moment accumulators, step count and learning rate."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    lr: float = 1e-4

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
    ``v``; ``beta1`` = 0.9, ``beta2`` = 0.999 and ``eps`` = 1e-8 are fixed.
    ``state`` (``t``, ``m``, ``v``) is advanced and returned.

    Monotone descent is not promised: ``m`` is a momentum term, so on a
    convex bowl the iterate can overshoot the minimum and ``|p - p*|`` can
    grow for a while before the swings die down. What bounds a step is its
    size: roughly ``lr * (1 - beta1) / sqrt(1 - beta2)`` per coordinate
    when ``1 - beta1 > sqrt(1 - beta2)``, else roughly ``lr`` (Kingma & Ba,
    section 2.1).

    Every parameter, gradient and moment is checked before anything is
    updated: a missing name, a shape that differs from the parameter's or
    a ``p``, ``m`` or ``v`` that is not C-contiguous (they are updated
    through flat views) raises ``ValueError`` naming the parameter, and
    leaves ``params`` and ``state`` as they were.

    The update runs over blocks of 32768 elements of each parameter's flat
    view, so its working set stays in cache. The blocks of all parameters,
    in order, make jobs of ``_ADAM_JOB`` consecutive blocks, each with one
    block-sized scratch array of its own, so a step holds one scratch per
    running job. The jobs, a lone one too, run on the pool of
    :func:`spherelab.rng._shard_map`. Every element goes through the same
    ufunc sequence as in one whole-array pass, and no two jobs touch the
    same element, so the bits depend on neither the block size, the job
    split nor the pool size.
    """
    flat = []
    for name, p in params.items():
        g, m, v = grads.get(name), state.m.get(name), state.v.get(name)
        if g is None:
            raise ValueError(f"no gradient for parameter {name!r}")
        if m is None or v is None:
            raise ValueError(f"no Adam moments for parameter {name!r}")
        for label, a in (("gradient", g), ("m", m), ("v", v)):
            if a.shape != p.shape:
                raise ValueError(f"{label} shape {a.shape} != param shape {p.shape} for {name!r}")
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError(f"Adam updates {name!r} in place and needs it C-contiguous")
        flat.append((p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)))

    state.t += 1
    c2 = 1.0 - _ADAM_BETA2 ** state.t
    step = state.lr / (1.0 - _ADAM_BETA1 ** state.t)
    blocks = [tuple(a[start:start + _ADAM_BLOCK] for a in arrays)
              for arrays in flat for start in range(0, arrays[0].size, _ADAM_BLOCK)]
    jobs = range(0, len(blocks), _ADAM_JOB)  # each job's first block

    def run(first: int) -> None:
        job_scratch = np.empty(_ADAM_BLOCK)
        for pb, gb, mb, vb in blocks[first:first + _ADAM_JOB]:
            scratch = job_scratch[:pb.size]
            mb *= _ADAM_BETA1
            np.multiply(gb, 1.0 - _ADAM_BETA1, out=scratch)
            mb += scratch
            vb *= _ADAM_BETA2
            np.multiply(gb, gb, out=scratch)
            scratch *= 1.0 - _ADAM_BETA2
            vb += scratch
            np.divide(vb, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += _ADAM_EPS
            np.divide(mb, scratch, out=scratch)
            scratch *= step
            pb -= scratch

    _shard_map(run, jobs)
    return state


@dataclass(frozen=True)
class ProbeConfig:
    """In-training attack probes feeding the worst-case-loss metric.

    A ``nearest`` probe runs on the budget of ``AttackConfig(mode="nearest")``.
    """

    every: int = 1000
    starts: int = 10
    steps: int = 200
    step_size: float = 0.01
    nearest: bool = False  # also estimate mean attack distance

    def __post_init__(self) -> None:
        require_ints(self, every=1, starts=1, steps=1)
        require_above("step_size", self.step_size, 0)
        object.__setattr__(self, "nearest", require_bool("nearest", self.nearest))


@dataclass
class TrainConfig:
    """Optimization budget, data source, and metric cadences.

    ``train_set_size`` 0 trains on fresh online batches. N > 0 trains on a
    fixed set of N points, the first N draws of
    ``RngStream(sphere.seed).child(CHILD_DATASET)``, sampled with
    replacement: runs with the same sphere and N train on the same
    points, whatever their ``seed``.
    """

    steps: int
    batch_size: int = 50
    lr: float = 1e-4
    seed: int = 0
    train_set_size: int = 0  # 0 means online (fresh iid batches)
    metric_every: int = 1000
    eval_batch: int = 1000
    error_eval_samples: int = 0  # 0 skips Monte Carlo error estimation
    alpha_every: int = 0  # 0 skips in-training spectrum checks
    stop_on_perfect: bool = False
    probe: ProbeConfig | None = None
    metrics_path: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        require_ints(self, steps=0, batch_size=1, seed=0, train_set_size=0, metric_every=1,
                     eval_batch=1, error_eval_samples=0, alpha_every=0)
        require_above("lr", self.lr, 0)
        self.stop_on_perfect = require_bool("stop_on_perfect", self.stop_on_perfect)
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
        self.write_event({"schema": METRICS_SCHEMA, **(header or {})})

    def write(self, record: MetricsRecord) -> None:
        self.write_event(record.to_dict())

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
    is the normal-approximation upper confidence limit. Either is clipped
    at 1, which a rate cannot exceed.
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
            return min(1.0, 3.0 / self.samples)
        r = self.rate
        return min(1.0, r + 1.645 * np.sqrt(r * (1.0 - r) / self.samples))


def _quadric_weights(model: QuadraticNet) -> np.ndarray | None:
    """The eigenbasis weights c = w lambda of :func:`evaluate_error_rate`.

    lambda are the eigenvalues of W1^T W1, whatever the hidden width. None,
    without a warning, when the Gram matrix, c or b is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = model.W1.T @ model.W1
        if not np.isfinite(gram).all():
            return None
        c = float(model.w) * np.linalg.eigvalsh(gram)
    if not (np.isfinite(c).all() and np.isfinite(model.b)):
        return None
    return c


def evaluate_error_rate(model, sphere: SphereConfig, samples: int,
                        stream: RngStream) -> ErrorRateEstimate:
    """Misclassification counts over half-inner half-outer shell samples.

    Chunk i of a shell (0 inner, 1 outer) holds up to 512 points, keyed by
    ``stream.child(2 * i + shell)``; the odd sample goes to the outer
    shell. A chunk counts the points whose
    :func:`spherelab.models.classify` label differs from their shell, on
    one of two paths:

    - By default a chunk is one :func:`spherelab.dataset.sample_batch` on
      its shell, labelled through ``model.logits``.
    - A :class:`spherelab.models.QuadraticNet` called with at least 8
      samples per input dimension (``samples >= 8 * n``) is counted in the
      eigenbasis of its quadric. For x = r u/|u| with u Gaussian, the logit
      ``w |W1 x|^2 + b`` has the law of ``r^2 (z^2 . c) / |z|^2 + b`` with
      z Gaussian and c = w lambda, lambda the eigenvalues of W1^T W1. One
      ``eigvalsh`` of that n x n Gram matrix gives lambda, on the caller
      thread, whatever the hidden width h. A chunk takes the
      ``normal_matrix(count, n)`` that ``sample_batch`` would have drawn
      as its z, and forms no point. A net whose Gram matrix, c or b is not
      finite takes the default path.

    The two paths draw the same normals from the same children but read
    them in different bases, so their counts differ while their law is the
    same (a stream change of version 0.4.0).

    The chunks run on the process-wide pool of
    :func:`spherelab.rng._shard_map`, one worker per CPU this process may
    use; the integer counts add up to the same totals in any order, so the
    result does not depend on the pool size. Jobs call ``model.logits``
    concurrently, so it must not mutate the model (it does not for either
    family: ``MlpNet.logits`` uses the running statistics without updating
    them). A job holds one chunk's normals and, on the default path, the
    activations of one 512-row ``logits`` block, so the memory of a call
    grows with the pool size, not with ``samples``.

    ``samples`` has no cap: a child index may reach 2**64 - 2. A
    ``samples`` that is not an integer >= 1, or a model whose input
    dimension is not the sphere's, raises ``ValueError`` before any chunk
    runs.
    """
    samples = require_int("samples", samples, 1)
    if getattr(model, "n", None) != sphere.n:
        raise ValueError(f"model dim {getattr(model, 'n', None)} != sphere dim {sphere.n}")
    inner_total = samples // 2
    jobs = [(2 * i + outer, min(_EVAL_CHUNK, total - done))
            for outer, total in ((0, inner_total), (1, samples - inner_total))
            for i, done in enumerate(range(0, total, _EVAL_CHUNK))]
    weights = None
    if isinstance(model, QuadraticNet) and samples >= _EIGENBASIS_SAMPLES_PER_DIM * model.n:
        weights = _quadric_weights(model)

    def errors(job: tuple[int, int]) -> int:
        child, count = job
        shell = child % 2
        if weights is None:
            xs, labels = sample_batch(sphere, stream.child(child), count,
                                      ("inner", "outer")[shell])
            return int((classify(model.logits(xs)) != labels).sum())
        z = stream.child(child).normal_matrix(count, sphere.n)
        z *= z  # squared coordinates in the eigenbasis
        length2 = z.sum(axis=1)
        if not length2.all():
            raise ValueError(f"a row of {sphere.n} exact zero normals has no direction")
        radius2 = sphere.R * sphere.R if shell else 1.0
        logits = radius2 * (z @ weights) / length2 + float(model.b)
        return int((classify(logits) != shell).sum())

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


def _alpha_violations(model: QuadraticNet, sphere: SphereConfig) -> int | None:
    if not float(model.b) < 0:
        return None  # spectrum undefined outside the b < 0 regime (NaN b too)
    _, violations = is_perfect(alpha_spectrum(model, sphere.R))
    return violations


def _manifest(cfg: TrainConfig, sphere: SphereConfig) -> dict:
    """The metrics header: versions, BLAS, pool size and both configs.

    Normals are bit-identical only for one numpy version (see
    :mod:`spherelab.rng`), so the header names it, with the SIMD
    extensions numpy found on this CPU. It also names the BLAS numpy was
    built against and the worker count of the shared pool. The probe
    config is written as a dict and the metrics path as a string.
    """
    numpy_config = np.show_config(mode="dicts")
    blas = numpy_config["Build Dependencies"]["blas"]
    return {"seed": cfg.seed, "steps": cfg.steps,
            "spherelab_version": spherelab.__version__, "numpy_version": np.__version__,
            "numpy_simd_found": numpy_config["SIMD Extensions"]["found"],
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "pool_workers": pool_workers(),
            "sphere": asdict(sphere),
            "train": asdict(cfg) | {"metrics_path": os.fspath(cfg.metrics_path)}}


def _minibatches(cfg: TrainConfig, sphere: SphereConfig, stream: RngStream):
    """The ``cfg.steps`` training minibatches, each drawn during the step before it.

    An online batch is one :func:`spherelab.dataset.sample_batch`. With
    ``cfg.train_set_size`` N > 0 the set is one ``sample_batch`` of N
    points on the dataset child of the sphere seed, built here, and a
    batch indexes it with one uniform per row. Only the pool worker of
    :func:`spherelab.rng.prefetch` touches ``stream``, one draw at a time
    and in step order, so the words drawn are those of a serial loop and
    no draw passes ``cfg.steps``.
    """
    size = cfg.train_set_size
    if size:
        xs, labels = sample_batch(sphere, RngStream(sphere.seed).child(CHILD_DATASET), size)

    def draw() -> tuple[np.ndarray, np.ndarray]:
        if not size:
            return sample_batch(sphere, stream, cfg.batch_size)
        idx = (stream.uniforms(cfg.batch_size) * size).astype(np.int64)
        return xs[idx], labels[idx]

    return prefetch(draw, cfg.steps)


def train(model, cfg: TrainConfig, sphere: SphereConfig) -> TrainResult:
    """Run the optimization loop; see module docstring for determinism."""
    if getattr(model, "n", None) != sphere.n:
        raise ValueError(f"model dim {getattr(model, 'n', None)} != sphere dim {sphere.n}")
    if isinstance(model, MlpNet) and cfg.batch_size < 2:
        raise ValueError("batch-norm models need batch size >= 2")
    if cfg.alpha_every > 0 and not isinstance(model, QuadraticNet):
        raise ValueError("alpha_every > 0 needs a QuadraticNet: only it has an alpha spectrum")

    root = RngStream(cfg.seed)
    data_stream = root.child(CHILD_MINIBATCH)
    eval_stream = root.child(CHILD_EVAL)
    errmc_stream = root.child(CHILD_ERROR_MC)
    probe_stream = root.child(CHILD_PROBE)
    nearest_stream = root.child(CHILD_NEAREST_PROBE)

    params = model.params()
    state = model.state()
    snapshot = {k: np.empty_like(v) for k, v in state.items()}  # filled at each record
    adam = AdamState.for_params(params, lr=cfg.lr)
    metrics: list[MetricsRecord] = []
    probe_batch = None
    probe_events = 0

    if cfg.probe is not None:
        probe_batch = sample_batch(sphere, probe_stream.child(0), cfg.probe.starts)

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
                attack_mod.AttackConfig(mode="nearest", starts=cfg.probe.starts),
                nearest_stream.child(event))
            dmean = None if stats.all_failed else stats.dmean
        return wl, dmean

    def emit(step: int, train_loss: float | None, alpha: int | None,
             do_probe: bool) -> None:
        wl, dmean = probe_now() if do_probe else (None, None)
        record = len(metrics)
        rate = upper = None
        if cfg.error_eval_samples > 0:
            est = evaluate_error_rate(model, sphere, cfg.error_eval_samples,
                                      errmc_stream.child(record))
            rate, upper = est.rate, est.upper95
        xs, ys = sample_batch(sphere, eval_stream.child(record), cfg.eval_batch)
        rec = MetricsRecord(step=step, train_loss=train_loss,
                            eval_loss=float(np.mean(sigmoid_ce_loss(model.logits(xs), ys))),
                            error_rate=rate, error_upper95=upper,
                            attack_dmean=dmean, worst_loss=wl,
                            alpha_violations=alpha)
        metrics.append(rec)
        if writer:
            writer.write(rec)
        for k, v in state.items():
            np.copyto(snapshot[k], v)

    first_perfect: int | None = None
    loss_sum = 0.0
    loss_count = 0
    aborted = False
    abort_reason = None
    completed = 0
    batches = _minibatches(cfg, sphere, data_stream)
    writer = MetricsWriter(cfg.metrics_path, _manifest(cfg, sphere)) \
        if cfg.metrics_path else None
    try:
        alpha0 = _alpha_violations(model, sphere) if cfg.alpha_every > 0 else None
        emit(0, None, alpha0, do_probe=cfg.probe is not None)

        for step, (xs, ys) in enumerate(batches, start=1):
            logits, cache = model.forward(xs)
            batch_loss = float(np.mean(sigmoid_ce_loss(logits, ys)))
            if not np.isfinite(batch_loss):
                for k, v in state.items():
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
            del logits, cache
            adam_step(params, grads, adam)
            del grads  # one gradient set alive: none during the next step or an eval
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
                emit(step, loss_sum / loss_count, alpha, do_probe)
                loss_sum = 0.0
                loss_count = 0
            if stopping:
                break
    finally:
        batches.close()
        if writer:
            writer.close()
    return TrainResult(model=model, metrics=metrics, completed_steps=completed,
                       aborted=aborted, abort_reason=abort_reason,
                       first_perfect_step=first_perfect)
