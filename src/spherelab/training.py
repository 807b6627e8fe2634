"""Adam training over online or fixed sphere data, with metric streams.

The loop is deterministic per seed: every draw comes from a substream of
the run seed (see the registry in :mod:`spherelab.rng`), keyed by the
step it serves. The minibatch of step k >= 1 is ``child(k)`` of the
minibatch stream. The record at step k >= 0 takes ``child(k)`` of the
eval, error-MC and nearest-probe streams, and runs its worst-mode probe
on ``child(1 + k)`` of the probe stream over the probe batch of
``child(0)``. So no draw depends on an earlier one or on the record
cadence (a stream change of version 0.9.0; each draw keeps its law), and
Adam's update count is the step: a resume at a record saves the model's
``state()``, Adam's m and v, the step and the records, and nothing else.

A fixed training set of N points is the first N draws of the dataset
child of the sphere seed, not of the run seed, so runs with the same
sphere and N train on the same points, whatever their
``TrainConfig.seed``. Metrics are emitted at a configured cadence as
step-keyed records; a metrics file is JSON lines with a schema header. A
non-finite training loss aborts the run, restoring the model's whole
``state()`` (batch-norm statistics too) from the last metric point.

Quadratic nets additionally report their ellipsoid-coefficient violation
count at a separate (coarser) cadence, since each check costs an SVD of
the h x n first-layer weights; other models have none, and are refused.

The error-rate Monte Carlo of a quadratic net with at least 8 samples per
input dimension runs in the eigenbasis of its quadric, from one n x n
eigensolve per call (see :func:`evaluate_error_rate`).
"""

from __future__ import annotations

import ctypes
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import spherelab
from spherelab import (
    attack as attack_mod, require_above, require_bool, require_dim, require_int, require_ints,
    require_seed)
from spherelab.dataset import SphereConfig, sample_batch
from spherelab.models import (
    MlpNet, QuadraticNet, alpha_spectrum, classify, is_perfect, quadric_gram, sigmoid_ce_loss)
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
)

METRICS_SCHEMA = "spherelab-metrics/1"
_EVAL_CHUNK = 512  # directions per keyed chunk of evaluate_error_rate, one logits block
# A quadratic net's error rate is counted in its quadric's eigenbasis from
# this many samples per input dimension. The one n x n Gram matrix and
# eigensolve of a call then cost no more than the h x n GEMMs they save:
# on 2 cores with 1 BLAS thread at n = 500 (version 0.6.0, medians of 15
# calls) the eigenbasis breaks even at 4000 samples for h = 500, wins from
# 3000 for h = 1000, and loses at 2048 for both.
_EIGENBASIS_SAMPLES_PER_DIM = 8
_ADAM_BLOCK = 32768  # elements per block of adam_step: 256 KiB of float64
_ADAM_JOB = 4  # consecutive blocks per pool job of adam_step
_ADAM_BETA1 = 0.9  # Kingma & Ba's defaults
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              m: dict[str, np.ndarray], v: dict[str, np.ndarray], t: int, lr: float) -> None:
    """Adam update ``t`` at rate ``lr``, mutating ``params``, ``m`` and ``v`` in place.

    This is Algorithm 1 of Kingma & Ba (2015): with ``t`` the 1-based
    update count (:func:`train` passes its step), ``m`` and ``v`` the
    moving averages of ``g`` and ``g**2``, keyed and shaped like ``params``,

        p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    so ``eps`` is added outside the square root of the bias-corrected
    ``v``; ``beta1`` = 0.9, ``beta2`` = 0.999 and ``eps`` = 1e-8 are fixed.

    Monotone descent is not promised: ``m`` is a momentum term, so on a
    convex bowl the iterate can overshoot the minimum and ``|p - p*|`` can
    grow for a while before the swings die down. What bounds a step is its
    size: roughly ``lr * (1 - beta1) / sqrt(1 - beta2)`` per coordinate
    when ``1 - beta1 > sqrt(1 - beta2)``, else roughly ``lr`` (Kingma & Ba,
    section 2.1).

    Every argument is checked before anything is updated: a ``t`` that is
    not an integer >= 1 or an ``lr`` that is not finite and > 0 raises
    ``ValueError`` naming it; a missing name, a shape that differs from
    the parameter's or a ``p``, ``m`` or ``v`` that is not C-contiguous
    (they are updated through flat views) raises ``ValueError`` naming the
    parameter. Either leaves ``params``, ``m`` and ``v`` as they were.

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
    t = require_int("t", t, 1)
    require_above("lr", lr, 0)
    flat = []
    for name, p in params.items():
        g, mp, vp = grads.get(name), m.get(name), v.get(name)
        if g is None:
            raise ValueError(f"no gradient for parameter {name!r}")
        if mp is None or vp is None:
            raise ValueError(f"no Adam moments for parameter {name!r}")
        for label, a in (("gradient", g), ("m", mp), ("v", vp)):
            if a.shape != p.shape:
                raise ValueError(f"{label} shape {a.shape} != param shape {p.shape} for {name!r}")
        if not (p.flags.c_contiguous and mp.flags.c_contiguous and vp.flags.c_contiguous):
            raise ValueError(f"Adam updates {name!r} in place and needs it C-contiguous")
        flat.append((p.reshape(-1), g.reshape(-1), mp.reshape(-1), vp.reshape(-1)))

    c2 = 1.0 - _ADAM_BETA2 ** t
    step = lr / (1.0 - _ADAM_BETA1 ** t)
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
        require_seed(self.seed)
        require_above("lr", self.lr, 0)
        self.stop_on_perfect = require_bool("stop_on_perfect", self.stop_on_perfect)
        if self.stop_on_perfect and self.alpha_every <= 0:
            raise ValueError("stop_on_perfect needs alpha_every > 0")
        if self.probe is not None and not isinstance(self.probe, ProbeConfig):
            raise ValueError(f"probe must be None or a ProbeConfig, got {self.probe!r}")
        path = self.metrics_path
        if path is not None and not (isinstance(path, (str, os.PathLike)) and os.fspath(path)):
            raise ValueError(f"metrics_path must be None or a non-empty path, got {path!r}")


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

    :func:`evaluate_error_rate` draws the inner and the outer sample of a
    pair from one direction, so their errors may covary. For a quadratic
    net, with q = w |W1 u|^2 on a unit direction u, the inner sample errs
    when q + b > 0 and the outer one when R^2 q + b <= 0: both at once
    only where q < 0 < b. So for b <= 0, or w >= 0 (q >= 0), the two
    errors exclude each other, the pair covariance is <= 0, and the limit,
    which assumes none, stays conservative. For other models the pair
    covariance has no known sign, and the limit assumes it is <= 0.
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

    lambda are the eigenvalues of :func:`spherelab.models.quadric_gram`,
    whatever the hidden width. None, without a warning, when the Gram
    matrix, c or b is not finite.
    """
    gram = quadric_gram(model)
    if gram is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        c = float(model.w) * np.linalg.eigvalsh(gram)
    if not (np.isfinite(c).all() and np.isfinite(model.b)):
        return None
    return c


def evaluate_error_rate(model, sphere: SphereConfig, samples: int,
                        stream: RngStream) -> ErrorRateEstimate:
    """Misclassification counts over half-inner half-outer shell samples.

    A uniform point of the outer shell is R times one of the inner shell,
    so one drawn direction serves one sample of each. The call draws
    ``samples - samples // 2`` directions: each is one outer sample, and
    the first ``samples // 2`` of them are also the inner samples, so an
    odd total gives the outer shell the extra sample. Chunk i holds up to
    512 directions, keyed by ``stream.child(i)``. A chunk counts the
    samples whose :func:`spherelab.models.classify` label differs from
    their shell, on one of two paths:

    - By default a chunk is one ``sample_batch`` of its directions on the
      inner shell (:func:`spherelab.dataset.sample_batch`), labelled
      through ``model.logits``: its first rows as the inner samples, then
      all rows, scaled by R in place, as the outer ones. Those are the
      bits ``sample_batch(..., "outer")`` returns on the same child.
    - A :class:`spherelab.models.QuadraticNet` called with at least 8
      samples per input dimension (``samples >= 8 * n``) is counted in the
      eigenbasis of its quadric. For x = r u/|u| with u Gaussian, the logit
      ``w |W1 x|^2 + b`` has the law of ``r^2 q + b``, q = (z^2 . c) / |z|^2
      with z Gaussian and c = w lambda, lambda the eigenvalues of W1^T W1.
      One ``eigvalsh`` of that n x n Gram matrix gives lambda, on the
      caller thread, whatever the hidden width h. A chunk takes the
      ``normal_matrix(count, n)`` that ``sample_batch`` would have drawn
      as its z, forms q once for both shells, and forms no point. A net
      whose Gram matrix, c or b is not finite takes the default path.

    The two paths draw the same normals from the same children but read
    them in different bases, so their counts differ while their law is the
    same (a stream change of version 0.4.0). Each shell's count is
    binomial, as with independent draws per shell; only the pairing of an
    inner and an outer sample on one direction is new (a stream change of
    version 0.6.0, see :class:`ErrorRateEstimate` for what it does to
    ``upper95``).

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
    require_dim(model, sphere.n)
    inner_total = samples // 2
    directions = samples - inner_total
    # (child, directions, how many of them are also inner samples)
    jobs = [(i, min(_EVAL_CHUNK, directions - start), min(_EVAL_CHUNK, max(0, inner_total - start)))
            for i, start in enumerate(range(0, directions, _EVAL_CHUNK))]
    weights = None
    if isinstance(model, QuadraticNet) and samples >= _EIGENBASIS_SAMPLES_PER_DIM * model.n:
        weights = _quadric_weights(model)

    def errors(job: tuple[int, int, int]) -> tuple[int, int]:
        child, count, inner = job
        if weights is None:
            xs, _ = sample_batch(sphere, stream.child(child), count, "inner")
            inner_errors = int(classify(model.logits(xs[:inner])).sum())
            xs *= sphere.R
            return inner_errors, int((classify(model.logits(xs)) == 0).sum())
        z = stream.child(child).normal_matrix(count, sphere.n)
        z *= z  # squared coordinates in the eigenbasis
        length2 = z.sum(axis=1)
        if not length2.all():
            raise ValueError(f"a row of {sphere.n} exact zero normals has no direction")
        q = (z @ weights) / length2
        b = float(model.b)
        return (int(classify(q[:inner] + b).sum()),
                int((classify((sphere.R * sphere.R) * q + b) == 0).sum()))

    counts = _shard_map(errors, jobs)
    return ErrorRateEstimate(samples=samples,
                             errors_inner=sum(inner for inner, _ in counts),
                             errors_outer=sum(outer for _, outer in counts))


@dataclass
class TrainResult:
    model: object
    metrics: list[MetricsRecord]
    completed_steps: int
    abort_reason: str | None = None
    first_perfect_step: int | None = None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def _alpha_violations(model: QuadraticNet, sphere: SphereConfig) -> int | None:
    if not float(model.b) < 0:
        return None  # spectrum undefined outside the b < 0 regime (NaN b too)
    _, violations = is_perfect(alpha_spectrum(model, sphere.R))
    return violations


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None when it cannot be asked.

    The count is read, never set, through the library's own query.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def _manifest(cfg: TrainConfig, sphere: SphereConfig) -> dict:
    """The metrics header: versions, BLAS, pool size and both configs.

    Normals are bit-identical only for one numpy version (see
    :mod:`spherelab.rng`), so the header names it, with the SIMD
    extensions numpy found on this CPU. It also names the BLAS numpy was
    built against, the threads that BLAS runs (None when it cannot be
    asked) and the worker count of the shared pool. The probe config is
    written as a dict and the metrics path as a string.
    """
    numpy_config = np.show_config(mode="dicts")
    blas = numpy_config["Build Dependencies"]["blas"]
    return {"seed": cfg.seed, "steps": cfg.steps,
            "spherelab_version": spherelab.__version__, "numpy_version": np.__version__,
            "numpy_simd_found": numpy_config["SIMD Extensions"]["found"],
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": _blas_threads(),
            "pool_workers": pool_workers(),
            "sphere": asdict(sphere),
            "train": asdict(cfg) | {"metrics_path": os.fspath(cfg.metrics_path)}}


def _minibatches(cfg: TrainConfig, sphere: SphereConfig):
    """Yield the ``cfg.steps`` training minibatches, each drawn when it is asked for.

    The batch of step k is drawn on ``RngStream(cfg.seed, CHILD_MINIBATCH,
    k)``: online, one :func:`spherelab.dataset.sample_batch`. With
    ``cfg.train_set_size`` N > 0 the set is one ``sample_batch`` of N
    points on the dataset child of the sphere seed, built at the first
    batch, and a batch indexes it with one uniform per row.
    """
    size = cfg.train_set_size
    if size:
        xs, labels = sample_batch(sphere, RngStream(sphere.seed, CHILD_DATASET), size)
    for step in range(1, cfg.steps + 1):
        stream = RngStream(cfg.seed, CHILD_MINIBATCH, step)
        if not size:
            yield sample_batch(sphere, stream, cfg.batch_size)
        else:
            idx = (stream.uniforms(cfg.batch_size) * size).astype(np.int64)
            yield xs[idx], labels[idx]


def train(model, cfg: TrainConfig, sphere: SphereConfig) -> TrainResult:
    """Run the optimization loop; see module docstring for determinism."""
    require_dim(model, sphere.n)
    if isinstance(model, MlpNet) and cfg.batch_size < 2:
        raise ValueError("batch-norm models need batch size >= 2")
    if cfg.alpha_every > 0 and not isinstance(model, QuadraticNet):
        raise ValueError("alpha_every > 0 needs a QuadraticNet: only it has an alpha spectrum")

    params = model.params()
    state = model.state()
    snapshot = {k: np.empty_like(a) for k, a in state.items()}  # filled at each record
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    result = TrainResult(model=model, metrics=[], completed_steps=0)

    def emit(step: int, train_loss: float | None, alpha: int | None, probe: bool) -> None:
        wl = dmean = None
        if probe:
            xs, ys = sample_batch(sphere, RngStream(cfg.seed, CHILD_PROBE, 0), cfg.probe.starts)
            worst = attack_mod.AttackConfig(mode="worst", steps=cfg.probe.steps,
                                            step_size=cfg.probe.step_size, starts=len(ys))
            wl = attack_mod.worst_case_loss(model, xs, ys, worst,
                                            RngStream(cfg.seed, CHILD_PROBE, 1 + step))
            if cfg.probe.nearest:
                stats = attack_mod.estimate_mean_distance(
                    model, sphere,
                    attack_mod.AttackConfig(mode="nearest", starts=cfg.probe.starts),
                    RngStream(cfg.seed, CHILD_NEAREST_PROBE, step))
                dmean = None if stats.all_failed else stats.dmean
        rate = upper = None
        if cfg.error_eval_samples > 0:
            est = evaluate_error_rate(model, sphere, cfg.error_eval_samples,
                                      RngStream(cfg.seed, CHILD_ERROR_MC, step))
            rate, upper = est.rate, est.upper95
        xs, ys = sample_batch(sphere, RngStream(cfg.seed, CHILD_EVAL, step), cfg.eval_batch)
        rec = MetricsRecord(step=step, train_loss=train_loss,
                            eval_loss=float(np.mean(sigmoid_ce_loss(model.logits(xs), ys))),
                            error_rate=rate, error_upper95=upper, attack_dmean=dmean,
                            worst_loss=wl, alpha_violations=alpha)
        result.metrics.append(rec)
        if writer:
            writer.write(rec)
        for k, a in state.items():
            np.copyto(snapshot[k], a)

    loss_sum = 0.0
    writer = MetricsWriter(cfg.metrics_path, _manifest(cfg, sphere)) \
        if cfg.metrics_path else None
    try:
        alpha0 = _alpha_violations(model, sphere) if cfg.alpha_every > 0 else None
        emit(0, None, alpha0, probe=cfg.probe is not None)

        for step, (xs, ys) in enumerate(_minibatches(cfg, sphere), start=1):
            logits, cache = model.forward(xs)
            batch_loss = float(np.mean(sigmoid_ce_loss(logits, ys)))
            if not np.isfinite(batch_loss):
                for k, a in state.items():
                    np.copyto(a, snapshot[k])
                result.abort_reason = f"non-finite training loss at step {step}"
                if writer:
                    writer.write_event({"step": step, "event": "aborted",
                                        "reason": result.abort_reason})
                break
            loss_sum += batch_loss
            grads = model.backward(cache, ys)
            del logits, cache
            adam_step(params, grads, m, v, step, cfg.lr)
            del grads  # one gradient set alive: none during the next step or an eval
            result.completed_steps = step

            alpha = None
            if cfg.alpha_every > 0 and step % cfg.alpha_every == 0:
                alpha = _alpha_violations(model, sphere)
                if alpha == 0 and result.first_perfect_step is None:
                    result.first_perfect_step = step
            stopping = cfg.stop_on_perfect and alpha == 0
            final = step == cfg.steps or stopping
            probe = cfg.probe is not None and (step % cfg.probe.every == 0 or final)
            if step % cfg.metric_every == 0 or final or alpha is not None or probe:
                emit(step, loss_sum / (step - result.metrics[-1].step), alpha, probe)
                loss_sum = 0.0
            if stopping:
                break
    finally:
        if writer:
            writer.close()
    return result
