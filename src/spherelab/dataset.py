"""The concentric-spheres distribution and IDX image-file parsing.

A sample is a point on one of two origin-centered shells in R^n: radius 1
("inner", label 0) or radius R ("outer", label 1), each chosen with a fair
coin. Points are drawn by normalizing standard normal vectors, which is
exact for the uniform distribution on the shell.

Every labelled draw goes through :func:`sample_batch`. With both shells
in play a batch of ``count`` draws ``count`` label coins (one word each)
first, then ``2n`` words of normals per point, so a fixed seed always
materializes the same dataset. A fixed shell (``"inner"`` or ``"outer"``)
draws no coin: its words are the normals alone, exactly those of
:func:`sphere_points`, and outer points are those points times R.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from spherelab.rng import CHILD_DATASET, RngStream

_SPHERE_BLOCK = 32768  # draws per row block of sphere_points: 256 KiB of float64
_CACHE_MAGIC = b"SPHD"
_CACHE_VERSION = 1

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class SphereConfig:
    """Dimension, outer radius, and seed of the data distribution."""

    n: int
    R: float = 1.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if not self.R > 1.0:
            raise ValueError(f"outer radius must exceed 1, got {self.R}")


@dataclass(frozen=True)
class Sample:
    """A point on one shell with its label (0 inner, 1 outer)."""

    x: np.ndarray
    label: int


class CacheTruncatedError(ValueError):
    """A dataset cache file ends before a section its header promises."""

    def __init__(self, section: str, expected: int, actual: int) -> None:
        super().__init__(f"dataset cache ends inside the {section}: "
                         f"expected {expected} bytes, found {actual}")
        self.expected = expected
        self.actual = actual


def _read_exact(f, size: int, section: str) -> bytes:
    """The next ``size`` bytes of ``f``, checked against the bytes left before reading.

    A header that promises more than the file holds raises
    :class:`CacheTruncatedError` without allocating the promised size.
    """
    left = max(os.fstat(f.fileno()).st_size - f.tell(), 0)
    if left < size:
        raise CacheTruncatedError(section, size, left)
    return f.read(size)


@dataclass
class FixedDataset:
    """A materialized training set of N points with its provenance."""

    xs: np.ndarray  # (N, n)
    labels: np.ndarray  # (N,) uint8
    config: SphereConfig

    @property
    def N(self) -> int:
        return self.xs.shape[0]

    def __len__(self) -> int:
        return self.N

    def __getitem__(self, i: int) -> Sample:
        return Sample(self.xs[i], int(self.labels[i]))

    def save(self, path) -> None:
        """Binary cache: magic, version, n, R, N, seed header then payload."""
        with open(path, "wb") as f:
            f.write(_CACHE_MAGIC)
            f.write(struct.pack(">IQdQQ", _CACHE_VERSION, self.config.n,
                                self.config.R, self.N, self.config.seed))
            f.write(self.labels.astype(np.uint8).tobytes())
            f.write(self.xs.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "FixedDataset":
        with open(path, "rb") as f:
            magic = f.read(4)
            if magic != _CACHE_MAGIC:
                raise ValueError(f"not a dataset cache file (magic {magic!r})")
            version, n, radius, count, seed = struct.unpack(
                ">IQdQQ", _read_exact(f, 36, "header"))
            if version != _CACHE_VERSION:
                raise ValueError(f"unsupported dataset cache version {version}")
            labels = np.frombuffer(_read_exact(f, count, "labels"), dtype=np.uint8).copy()
            xs = np.frombuffer(_read_exact(f, count * n * 8, "points"),
                               dtype="<f8").reshape(count, n).copy()
        return cls(xs=xs, labels=labels, config=SphereConfig(n=n, R=radius, seed=seed))


def sphere_points(stream: RngStream, count: int, n: int) -> np.ndarray:
    """``count`` uniform points on the unit sphere in R^n, one per row.

    Each row is ``n`` normal draws scaled to unit norm. All ``count * n``
    normals are drawn into the output in one call, which is then
    normalised in place in row blocks of about 32768 draws (one row per
    block when ``n`` is larger), so no full-size temporary is made. A
    row's norm has the same bits for any block size. A row whose norm
    underflows to zero is redrawn from the same stream when its block is
    normalised.
    """
    z = stream.normal_matrix(count, n)
    step = max(1, _SPHERE_BLOCK // n)
    for start in range(0, count, step):
        rows = z[start:start + step]
        norms = np.linalg.norm(rows, axis=1)
        while (norms == 0.0).any():  # pragma: no cover - probability ~0
            bad = np.flatnonzero(norms == 0.0)
            rows[bad] = stream.normal_matrix(len(bad), n)
            norms[bad] = np.linalg.norm(rows[bad], axis=1)
        rows /= norms[:, None]
    return z


def sample_batch(config: SphereConfig, stream: RngStream, count: int,
                 shell: str = "both") -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` samples; returns (points (count, n), labels (count,) uint8).

    ``shell`` is ``"both"`` (a fair label coin per sample, drawn before
    the points), ``"inner"`` or ``"outer"`` (no coin, constant labels).
    """
    if shell not in ("inner", "outer", "both"):
        raise ValueError(f"shell must be inner/outer/both, got {shell!r}")
    if count < 1:
        raise ValueError("count must be positive")
    if shell == "both":
        labels = stream.coins(count).astype(np.uint8)  # True -> outer
    else:
        labels = np.full(count, shell == "outer", dtype=np.uint8)
    xs = sphere_points(stream, count, config.n)
    if shell == "outer":
        xs *= config.R
    elif shell == "both":
        xs[labels == 1] *= config.R
    return xs, labels


def sample_sphere(config: SphereConfig, stream: RngStream) -> Sample:
    """Draw one sample: row 0 of a one-sample :func:`sample_batch`."""
    xs, labels = sample_batch(config, stream, 1)
    return Sample(xs[0], int(labels[0]))


def make_training_set(config: SphereConfig, N: int) -> FixedDataset:
    """Materialize N iid samples from the dataset substream of the seed."""
    if N < 1:
        raise ValueError("N must be positive")
    stream = RngStream(config.seed).child(CHILD_DATASET)
    xs, labels = sample_batch(config, stream, N)
    return FixedDataset(xs=xs, labels=labels, config=config)


# ---------------------------------------------------------------------------
# IDX (MNIST container) parsing


class IdxError(ValueError):
    """Malformed IDX file; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class IdxBadMagicError(IdxError):
    pass


class IdxTruncatedError(IdxError):
    pass


class IdxCountMismatchError(IdxError):
    pass


@dataclass
class MnistSet:
    """Images scaled to [0, 1], flattened row-major, with integer labels."""

    images: np.ndarray  # (N, rows*cols) float64 in [0, 1]
    labels: np.ndarray  # (N,) int
    rows: int = 28
    cols: int = 28


def _read_u32(data: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(data):
        raise IdxTruncatedError(f"file ends inside the {what} field", offset)
    return struct.unpack_from(">I", data, offset)[0]


def _load_idx_images(path) -> tuple[np.ndarray, int, int]:
    with open(path, "rb") as f:
        data = f.read()
    magic = _read_u32(data, 0, "magic number")
    if magic != IDX_IMAGES_MAGIC:
        raise IdxBadMagicError(
            f"expected image magic 0x{IDX_IMAGES_MAGIC:08x}, found 0x{magic:08x}", 0)
    count = _read_u32(data, 4, "image count")
    rows = _read_u32(data, 8, "row count")
    cols = _read_u32(data, 12, "column count")
    need = 16 + count * rows * cols
    if len(data) < need:
        raise IdxTruncatedError(
            f"image payload needs {need} bytes, file has {len(data)}", len(data))
    pixels = np.frombuffer(data, dtype=np.uint8, count=count * rows * cols, offset=16)
    return pixels.reshape(count, rows * cols), rows, cols


def _load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    magic = _read_u32(data, 0, "magic number")
    if magic != IDX_LABELS_MAGIC:
        raise IdxBadMagicError(
            f"expected label magic 0x{IDX_LABELS_MAGIC:08x}, found 0x{magic:08x}", 0)
    count = _read_u32(data, 4, "label count")
    need = 8 + count
    if len(data) < need:
        raise IdxTruncatedError(
            f"label payload needs {need} bytes, file has {len(data)}", len(data))
    return np.frombuffer(data, dtype=np.uint8, count=count, offset=8)


def load_idx(images_path, labels_path) -> MnistSet:
    """Parse an IDX image/label pair; pixels are divided by 255."""
    pixels, rows, cols = _load_idx_images(images_path)
    labels = _load_idx_labels(labels_path)
    if pixels.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{pixels.shape[0]} images but {labels.shape[0]} labels", 4)
    return MnistSet(
        images=pixels.astype(np.float64) / 255.0,
        labels=labels.astype(np.int64),
        rows=rows,
        cols=cols,
    )


def write_idx_images(path, images: np.ndarray) -> None:
    """Write (N, rows, cols) uint8 pixels in IDX image layout."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"expected (N, rows, cols) pixels, got shape {images.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write (N,) uint8 labels in IDX label layout."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError(f"expected flat labels, got shape {labels.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())
