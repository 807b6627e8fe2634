"""Versioned binary checkpoints for both model families.

A checkpoint (schema ``spherelab-checkpoint/3``) is an ``.npz`` archive,
written with ``np.savez`` to exactly the path given (no ``.npz`` suffix is
appended). It holds one member per name of the model's ``state()``: the
array's row-major values as a flat little-endian float64 (``<f8``) array,
so loading reproduces the state bit-for-bit. A ``header`` member holds
UTF-8 JSON bytes (uint8) with the schema tag, the model family, its
dimensions, the MLP's batch-norm constants (``batch_norm``) and the
free-form ``created`` block describing the run (seed, radius, and so on).

Loading builds an empty model from the header's dimensions, checks each
member's npy header, and reads the member's values straight into the
model's array, with no temporary copy. A file that is not a zip archive
(a JSON checkpoint of an earlier schema included) or a header with
another schema raises ``ValueError``. :class:`CheckpointError` is raised
for a truncated or corrupt archive, a missing header, a missing or extra
member, a member that is not a flat ``<f8`` array of the size the
dimensions need, and a non-finite value; saving refuses a non-finite
value and writes nothing. An object member is refused unread, so object
arrays are never unpickled.
"""

from __future__ import annotations

import json
import zipfile
import zlib

import numpy as np

from spherelab.models import BN_EPSILON, BN_MOMENTUM, MlpNet, QuadraticNet

SCHEMA = "spherelab-checkpoint/3"
_BATCH_NORM = {"epsilon": BN_EPSILON, "momentum": BN_MOMENTUM}
_HEADER = "header"
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")
# What a damaged archive or npy member raises while it is read.
_READ_ERRORS = (zipfile.BadZipFile, EOFError, OSError, ValueError, zlib.error)
_READ_CHUNK = 1 << 18  # bytes per read of a member into the model's array


class CheckpointError(ValueError):
    """A checkpoint that is damaged, does not fit its model's dimensions or is not finite."""


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
    header = {"schema": SCHEMA, "family": model.family, "created": created or {}, **header}
    members = {_HEADER: np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
               **{name: a.reshape(-1).astype("<f8", copy=False) for name, a in state.items()}}
    with open(path, "wb") as f:
        np.savez(f, allow_pickle=False, **members)


def _member(npz, name: str) -> np.ndarray:
    try:
        value = npz[name]
    except _READ_ERRORS as exc:
        raise CheckpointError(f"member {name!r} cannot be read: {exc}") from exc
    if not isinstance(value, np.ndarray):
        raise CheckpointError(f"member {name!r} is not an npy array")
    return value


def _read_into(source, name: str, a: np.ndarray, dims) -> None:
    """Check the npy header of member ``source``, then read its values straight into ``a``."""
    version = np.lib.format.read_magic(source)
    if version != (1, 0):  # what np.savez writes for a flat float64 array
        raise ValueError(f"npy format version {version} is not supported")
    shape, _, dtype = np.lib.format.read_array_header_1_0(source)
    if dtype.hasobject:
        raise ValueError("object arrays are never unpickled")
    if dtype != np.dtype("<f8"):
        raise CheckpointError(f"{name!r} holds {dtype}, not float64 (<f8)")
    if shape != (a.size,):
        raise CheckpointError(f"{name!r} is not a flat array of the {a.size} "
                              f"values that dims {dims} need")
    view = memoryview(a).cast("B")
    for start in range(0, view.nbytes, _READ_CHUNK):
        chunk = view[start:start + _READ_CHUNK]
        if source.readinto(chunk) != chunk.nbytes:
            raise EOFError("the member ends before its values do")
    if not np.dtype("<f8").isnative:
        a.byteswap(inplace=True)


def _read_header(npz) -> dict:
    if _HEADER not in npz.files:
        raise CheckpointError(f"no {_HEADER!r} member")
    raw = _member(npz, _HEADER)
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise CheckpointError(f"{_HEADER!r} is not a flat uint8 array of JSON bytes")
    try:
        header = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{_HEADER!r} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{_HEADER!r} is not a JSON object")
    return header


def _empty_model(header: dict):
    family, dims = header.get("family"), header.get("dims")
    if family not in ("quadratic", "mlp"):
        raise ValueError(f"unknown model family {family!r}")
    if family == "mlp" and header.get("batch_norm") != _BATCH_NORM:
        raise CheckpointError(f"batch-norm constants {header.get('batch_norm')} "
                              f"differ from this library's {_BATCH_NORM}")
    try:
        if family == "quadratic":
            return QuadraticNet(np.zeros((dims["h"], dims["n"])), 0.0, 0.0)
        return MlpNet(dims["n"], tuple(dims["hidden"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"dims {dims!r} do not describe a {family} net") from exc


def load_checkpoint(path):
    """Load a checkpoint; returns (model, metadata dict)."""
    with open(path, "rb") as f:
        if f.read(4) not in _ZIP_MAGIC:
            raise ValueError(
                f"unsupported checkpoint schema: {path} is not a {SCHEMA} npz archive")
        f.seek(0)
        try:
            npz = np.load(f, allow_pickle=False)
        except _READ_ERRORS as exc:
            raise CheckpointError(f"{path} is not a readable npz archive: {exc}") from exc
        with npz:
            header = _read_header(npz)
            if header.get("schema") != SCHEMA:
                raise ValueError(f"unsupported checkpoint schema {header.get('schema')!r}")
            model = _empty_model(header)
            family, dims = header["family"], header["dims"]
            state, saved = model.state(), set(npz.files) - {_HEADER}
            if state.keys() != saved:
                raise CheckpointError(
                    f"state names do not fit a {family} net of dims {dims}: missing "
                    f"{sorted(state.keys() - saved)}, extra {sorted(saved - state.keys())}")
            stored = set(npz.zip.namelist())
            for name, a in state.items():
                member = f"{name}.npy" if f"{name}.npy" in stored else name
                try:
                    with npz.zip.open(member) as source:
                        _read_into(source, name, a, dims)
                except CheckpointError:
                    raise
                except _READ_ERRORS as exc:
                    raise CheckpointError(f"member {name!r} cannot be read: {exc}") from exc
                if not np.isfinite(a).all():
                    raise CheckpointError(f"{name!r} holds non-finite values")
    meta = {"created": header.get("created", {}), "family": family, "dims": dims}
    return model, meta
