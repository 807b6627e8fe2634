"""Versioned structured-text checkpoints for both model families.

A checkpoint is a JSON document (gzip-compressed when the path ends in
``.gz``) with a schema tag, the model family, its dimensions, the MLP's
batch-norm constants, the free-form ``created`` block describing the run
(seed, radius, and so on), and a ``state`` map from each name of the
model's ``state()`` to its row-major values. JSON floats round-trip
float64 exactly, so loading reproduces the state bit-for-bit. Loading
builds an empty model from the dimensions and copies each named array in;
a missing or extra name, a wrong number of values or a non-finite value
raises :class:`CheckpointError`, and saving refuses a non-finite value.
Any other schema (``/1`` included) is rejected.
"""

from __future__ import annotations

import gzip
import json

import numpy as np

from spherelab.models import BN_EPSILON, BN_MOMENTUM, MlpNet, QuadraticNet

SCHEMA = "spherelab-checkpoint/2"
_BATCH_NORM = {"epsilon": BN_EPSILON, "momentum": BN_MOMENTUM}


class CheckpointError(ValueError):
    """A state map that does not fit its model's dimensions or is not finite."""


def _open(path, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_checkpoint(path, model, created: dict | None = None) -> None:
    """Write ``model``'s state; a non-finite value raises CheckpointError and writes nothing."""
    if isinstance(model, QuadraticNet):
        header: dict = {"dims": {"n": model.n, "h": model.h}}
    elif isinstance(model, MlpNet):
        header = {"dims": {"n": model.n, "hidden": list(model.hidden)},
                  "batch_norm": _BATCH_NORM}
    else:
        raise TypeError(f"cannot checkpoint a {type(model).__name__}")
    state = model.state()
    bad = [name for name, a in state.items() if not np.isfinite(a).all()]
    if bad:
        raise CheckpointError(f"cannot save non-finite values of {bad}")
    doc = {"schema": SCHEMA, "family": model.family, "created": created or {}, **header,
           "state": {name: a.reshape(-1).tolist() for name, a in state.items()}}
    with _open(path, "w") as f:
        json.dump(doc, f)


def load_checkpoint(path):
    """Load a checkpoint; returns (model, metadata dict)."""
    with _open(path, "r") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported checkpoint schema {doc.get('schema')!r}")
    family, dims = doc["family"], doc["dims"]
    if family == "quadratic":
        model = QuadraticNet(np.zeros((dims["h"], dims["n"])), 0.0, 0.0)
    elif family == "mlp":
        if doc.get("batch_norm") != _BATCH_NORM:
            raise CheckpointError(f"batch-norm constants {doc.get('batch_norm')} "
                                  f"differ from this library's {_BATCH_NORM}")
        model = MlpNet(dims["n"], tuple(dims["hidden"]))
    else:
        raise ValueError(f"unknown model family {family!r}")
    state, saved = model.state(), doc.get("state", {})
    if state.keys() != saved.keys():
        raise CheckpointError(
            f"state names do not fit a {family} net of dims {dims}: missing "
            f"{sorted(state.keys() - saved.keys())}, extra {sorted(saved.keys() - state.keys())}")
    for name, a in state.items():
        values = np.array(saved[name], dtype=np.float64)
        if values.shape != (a.size,):
            raise CheckpointError(f"{name!r} is not a flat list of the {a.size} values "
                                  f"that dims {dims} need")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{name!r} holds non-finite values")
        np.copyto(a, values.reshape(a.shape))
    meta = {"created": doc.get("created", {}), "family": family, "dims": dims}
    return model, meta
