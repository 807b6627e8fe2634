"""Spans around spherelab's public functions, installed from outside the package.

A :class:`Tracer` replaces every public function of each traced module, and
the public methods of the classes named in ``_CLASSES``, with a wrapper that
records a span: name, start, end, parent span and, for some functions, a
count taken from the arguments or the result. Every name a caller binds is
replaced, so ``spherelab.training.sample_batch`` is traced as well as
``spherelab.dataset.sample_batch``. :meth:`Tracer.uninstall` puts the
originals back.

Layers are the package's modules. ``spherelab.special`` is not traced: its
functions are microseconds long and their time counts toward the caller,
in practice ``geometry``. ``RngStream.raw`` is not traced either, so the
Philox words a draw consumes count toward the draw that asked for them.
``attack._pgd_batch`` is private but traced, because every attack goes
through it and its result carries the per-start outcomes.

Self time of a span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

import numpy as np

LAYERS = ("rng", "dataset", "models", "linalg", "training", "attack", "geometry",
          "checkpoint")
_CLASSES = {"rng": ("RngStream",), "models": ("QuadraticNet", "MlpNet")}
_UNTRACED = {("rng", "RngStream.raw")}
_PRIVATE_TRACED = {("attack", "_pgd_batch")}
_MODEL_CALLS = ("models.logits", "models.input_grad", "models.forward")
ADAM_BYTES_PER_PARAM = 56  # p, g, m, v and scratch traffic of one update, computed

# (name, unit, better) of every metric :func:`layer_metrics` reports.
PER_LAYER = (
    ("rng.normals.draws", "count", "lower"),
    ("rng.normals.self_s", "s", "lower"),
    ("rng.normals.ns_per_draw", "ns", "lower"),
    ("dataset.sample_batch.rows", "count", "lower"),
    ("dataset.sample_batch.self_s", "s", "lower"),
    ("models.forward.self_s", "s", "lower"),
    ("models.backward.self_s", "s", "lower"),
    ("models.mlp.gflop_per_s", "GFLOP/s", "higher"),
    ("models.logits.rows", "count", "lower"),
    ("models.logits.self_s", "s", "lower"),
    ("models.input_grad.self_s", "s", "lower"),
    ("linalg.singular_values.calls", "count", "lower"),
    ("linalg.singular_values.self_s", "s", "lower"),
    ("training.adam_step.calls", "count", "lower"),
    ("training.adam_step.self_s", "s", "lower"),
    ("training.adam_step.p50_ms", "ms", "lower"),
    ("training.adam_step.p99_ms", "ms", "lower"),
    ("training.adam_step.gb_per_s", "GB/s", "higher"),
    ("training.evaluate_error_rate.self_s", "s", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("attack.start_steps", "count", "lower"),
    ("attack.model_calls_per_step", "count", "lower"),
    ("attack.self_s", "s", "lower"),
    ("attack.found_ratio", "ratio", "higher"),
    ("attack.stationary", "count", "lower"),
    ("attack.max_norm_drift", "ratio", "lower"),
    ("geometry.mc_cap_distance.samples", "count", "lower"),
    ("geometry.mc_cap_distance.self_s", "s", "lower"),
    ("geometry.clt_error_rate.self_s", "s", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _rows(X) -> int:
    shape = np.shape(X)
    return shape[0] if len(shape) == 2 else 1


def _mlp_macs(net) -> int:
    """Multiply-adds of one row through every affine map of an MlpNet."""
    widths = (net.n, *net.hidden, 1)
    return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


# Counts recorded per span, keyed by (layer, qualified name). Each takes
# the call's (args, kwargs, result) and returns a dict of numbers.
_COUNTERS = {
    ("rng", "RngStream.normals"):
        lambda a, k, r: {"draws": _arg(a, k, 1, "count")},
    ("dataset", "sample_batch"):
        lambda a, k, r: {"rows": _arg(a, k, 2, "count")},
    ("models", "QuadraticNet.logits"):
        lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X"))},
    ("models", "MlpNet.logits"):
        lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X")), "flops": 0},
    # A forward pass is one matmul per affine map; backward two (weights
    # and inputs); input_grad one, its forward pass being a span of its own.
    ("models", "MlpNet.forward"):
        lambda a, k, r: {"flops": 2 * _rows(_arg(a, k, 1, "X")) * _mlp_macs(a[0])},
    ("models", "MlpNet.backward"):
        lambda a, k, r: {"flops": 4 * _arg(a, k, 1, "cache")["batch"] * _mlp_macs(a[0])},
    ("models", "MlpNet.input_grad"):
        lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X")),
                         "flops": 2 * _rows(_arg(a, k, 1, "X")) * _mlp_macs(a[0])},
    ("models", "QuadraticNet.input_grad"):
        lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X"))},
    ("training", "adam_step"):
        lambda a, k, r: {"params": sum(p.size for p in _arg(a, k, 0, "params").values())},
    ("geometry", "mc_cap_distance"):
        lambda a, k, r: {"samples": _arg(a, k, 1, "samples")},
    ("attack", "_pgd_batch"):
        lambda a, k, r: {"starts": len(r), "found": sum(x.found for x in r),
                         "stationary": sum(x.stationary for x in r),
                         "drift": max((x.norm_drift for x in r), default=0.0)},
    ("checkpoint", "save_checkpoint"):
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Tracer:
    """Records spans while installed; spans accumulate across installs.

    ``spans`` holds ``[name, start, end, parent, counts]`` lists, parent
    being an index into ``spans`` or -1 for a top-level span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[4] = count(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spherelab.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and (not attr.startswith("_") or (layer, attr) in _PRIVATE_TRACED)):
                    wrapped[value] = self._wrap(f"{layer}.{attr}", value,
                                                _COUNTERS.get((layer, attr)))
            for cls_name in _CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, value in list(vars(cls).items()):
                    key = (layer, f"{cls_name}.{attr}")
                    if attr.startswith("_") or key in _UNTRACED:
                        continue
                    count = _COUNTERS.get(key)
                    if inspect.isfunction(value):
                        self._patch(cls, attr, self._wrap(f"{layer}.{attr}", value, count))
                    elif isinstance(value, classmethod):
                        self._patch(cls, attr, classmethod(
                            self._wrap(f"{layer}.{attr}", value.__func__, count)))
        for name, module in list(sys.modules.items()):
            if name == "spherelab" or name.startswith("spherelab."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self._patch(module, attr, wrapped[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _model_calls_per_step(spans: list[list]) -> float:
    """Model evaluations per PGD iteration, over all attacks.

    An iteration runs from one ``input_grad`` call to the next, so the
    count covers every iteration but each attack's last, and leaves out
    the evaluations made before the first iteration.
    """
    children: dict[int, list[str]] = {}
    for name, _, _, parent, _ in spans:
        if parent >= 0 and spans[parent][0] == "attack._pgd_batch" and name in _MODEL_CALLS:
            children.setdefault(parent, []).append(name)
    calls = iterations = 0
    for names in children.values():
        grads = [i for i, name in enumerate(names) if name == "models.input_grad"]
        if len(grads) > 1:
            calls += grads[-1] - grads[0]
            iterations += len(grads) - 1
    return calls / iterations if iterations else 0.0


def _self_within(spans: list[list], own: list[float], name: str) -> float:
    """Self time of ``name`` spans plus that of same-layer spans they call.

    ``singular_values`` does its work in ``jacobi_eigenvalues``, a span of
    its own; a faster replacement may do it inline.
    """
    layer = name.split(".", 1)[0] + "."
    inside = [False] * len(spans)
    total = 0.0
    for i, (span_name, _, _, parent, _) in enumerate(spans):
        if span_name == name or (parent >= 0 and inside[parent]
                                 and span_name.startswith(layer)):
            inside[i] = True
            total += own[i]
    return total


def _inside_attack(spans: list[list], index: int) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith("attack."):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], traced_walls: list[float],
                  plain_walls: list[float], finish_spans: list[list]) -> dict:
    """Every :data:`PER_LAYER` metric from the spans of the traced passes.

    ``finish_spans`` are the spans of the work that follows the timed
    passes (the checkpoint round trip); they count toward the checkpoint
    metrics only.
    """
    own = self_times(spans)
    self_s: dict[str, float] = {}
    layer_s: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    durations: dict[str, list[float]] = {}
    mlp_flops = mlp_s = 0.0
    for (name, start, end, _, count), t in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        layer = name.split(".", 1)[0]
        layer_s[layer] = layer_s.get(layer, 0.0) + t
        durations.setdefault(name, []).append(end - start)
        if count:
            bucket = counts.setdefault(name, {})
            for key, value in count.items():
                bucket[key] = max(bucket.get(key, 0.0), value) if key == "drift" \
                    else bucket.get(key, 0) + value
            if "flops" in count:
                mlp_flops += count["flops"]
                mlp_s += t
    start_steps = sum(span[4]["rows"] for i, span in enumerate(spans)
                      if span[0] == "models.input_grad" and _inside_attack(spans, i))

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    adam_ms = [1e3 * d for d in durations.get("training.adam_step", [])]
    finish_durations: dict[str, float] = {}
    finish_counts: dict[str, float] = {}
    for name, start, end, _, c in finish_spans:
        finish_durations[name] = finish_durations.get(name, 0.0) + end - start
        if c:
            for key, value in c.items():
                finish_counts[key] = finish_counts.get(key, 0) + value
    top_level = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    values = {
        "rng.normals.draws": count("rng.normals", "draws"),
        "rng.normals.self_s": self_s.get("rng.normals", 0.0),
        "rng.normals.ns_per_draw": 1e9 * ratio(self_s.get("rng.normals", 0.0),
                                               count("rng.normals", "draws")),
        "dataset.sample_batch.rows": count("dataset.sample_batch", "rows"),
        "dataset.sample_batch.self_s": self_s.get("dataset.sample_batch", 0.0),
        "models.forward.self_s": self_s.get("models.forward", 0.0),
        "models.backward.self_s": self_s.get("models.backward", 0.0),
        "models.mlp.gflop_per_s": 1e-9 * ratio(mlp_flops, mlp_s),
        "models.logits.rows": count("models.logits", "rows"),
        "models.logits.self_s": self_s.get("models.logits", 0.0),
        "models.input_grad.self_s": self_s.get("models.input_grad", 0.0),
        "linalg.singular_values.calls": len(durations.get("linalg.singular_values", [])),
        "linalg.singular_values.self_s": _self_within(spans, own, "linalg.singular_values"),
        "training.adam_step.calls": len(adam_ms),
        "training.adam_step.self_s": self_s.get("training.adam_step", 0.0),
        "training.adam_step.p50_ms": _percentile(adam_ms, 50),
        "training.adam_step.p99_ms": _percentile(adam_ms, 99),
        "training.adam_step.gb_per_s": 1e-9 * ratio(
            ADAM_BYTES_PER_PARAM * count("training.adam_step", "params"),
            self_s.get("training.adam_step", 0.0)),
        "training.evaluate_error_rate.self_s": self_s.get("training.evaluate_error_rate", 0.0),
        "training.train.self_s": self_s.get("training.train", 0.0),
        "attack.start_steps": start_steps,
        "attack.model_calls_per_step": _model_calls_per_step(spans),
        "attack.self_s": layer_s.get("attack", 0.0),
        "attack.found_ratio": ratio(count("attack._pgd_batch", "found"),
                                    count("attack._pgd_batch", "starts")),
        "attack.stationary": count("attack._pgd_batch", "stationary"),
        "attack.max_norm_drift": count("attack._pgd_batch", "drift"),
        "geometry.mc_cap_distance.samples": count("geometry.mc_cap_distance", "samples"),
        "geometry.mc_cap_distance.self_s": self_s.get("geometry.mc_cap_distance", 0.0),
        "geometry.clt_error_rate.self_s": self_s.get("geometry.clt_error_rate", 0.0),
        "checkpoint.bytes": finish_counts.get("bytes", 0),
        "checkpoint.save_s": finish_durations.get("checkpoint.save_checkpoint", 0.0),
        "checkpoint.load_s": finish_durations.get("checkpoint.load_checkpoint", 0.0),
        "trace.coverage": ratio(top_level, sum(traced_walls)),
        "trace.overhead": ratio(statistics.median(traced_walls),
                                statistics.median(plain_walls)) - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0
