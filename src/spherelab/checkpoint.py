"""Versioned structured-text checkpoints for both model families.

A checkpoint is a JSON document (gzip-compressed when the path ends in
``.gz``) with a schema tag, the model family, array dimensions, row-major
parameter arrays, batch-norm running statistics and constants, and the
free-form ``created`` block describing the run that produced it (seed,
radius, dimension, and so on). JSON floats round-trip float64 exactly, so
loading reproduces the parameters bit-for-bit.
"""

from __future__ import annotations

import gzip
import json

import numpy as np

from spherelab.models import BN_EPSILON, BN_MOMENTUM, MlpNet, QuadraticNet

SCHEMA = "spherelab-checkpoint/1"


def _open(path, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _flat(a: np.ndarray) -> list[float]:
    return np.asarray(a, dtype=np.float64).reshape(-1).tolist()


def save_checkpoint(path, model, created: dict | None = None) -> None:
    if not isinstance(model, (QuadraticNet, MlpNet)):
        raise TypeError(f"cannot checkpoint a {type(model).__name__}")
    doc: dict = {"schema": SCHEMA, "family": model.family, "created": created or {}}
    if isinstance(model, QuadraticNet):
        doc["dims"] = {"n": model.n, "h": model.h}
        doc["params"] = {"W1": _flat(model.W1), "w": float(model.w), "b": float(model.b)}
    else:
        doc["dims"] = {"n": model.n, "hidden": list(model.hidden)}
        doc["batch_norm"] = {
            "epsilon": BN_EPSILON,
            "momentum": BN_MOMENTUM,
            "running_means": [_flat(m) for m in model.run_means],
            "running_vars": [_flat(v) for v in model.run_vars],
        }
        doc["params"] = {
            "Ws": [_flat(w) for w in model.Ws],
            "bs": [_flat(b) for b in model.bs],
            "gammas": [_flat(g) for g in model.gammas],
            "betas": [_flat(b) for b in model.betas],
            "w_out": _flat(model.w_out),
            "b_out": float(model.b_out),
        }
    with _open(path, "w") as f:
        json.dump(doc, f)


def load_checkpoint(path):
    """Load a checkpoint; returns (model, metadata dict)."""
    with _open(path, "r") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported checkpoint schema {doc.get('schema')!r}")
    family = doc["family"]
    params = doc["params"]
    if family == "quadratic":
        n, h = doc["dims"]["n"], doc["dims"]["h"]
        model = QuadraticNet(
            np.array(params["W1"]).reshape(h, n), params["w"], params["b"])
    elif family == "mlp":
        n = doc["dims"]["n"]
        hidden = tuple(doc["dims"]["hidden"])
        model = MlpNet(n, hidden)
        fan = n
        for i, width in enumerate(hidden):
            model.Ws[i] = np.array(params["Ws"][i]).reshape(width, fan)
            model.bs[i] = np.array(params["bs"][i])
            model.gammas[i] = np.array(params["gammas"][i])
            model.betas[i] = np.array(params["betas"][i])
            model.run_means[i] = np.array(doc["batch_norm"]["running_means"][i])
            model.run_vars[i] = np.array(doc["batch_norm"]["running_vars"][i])
            fan = width
        model.w_out = np.array(params["w_out"])
        model.b_out = np.array(float(params["b_out"]))
    else:
        raise ValueError(f"unknown model family {family!r}")
    meta = {"created": doc.get("created", {}), "family": family, "dims": doc["dims"]}
    return model, meta
