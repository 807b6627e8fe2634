"""The concentric-spheres distribution.

A sample is a point on one of two origin-centered shells in R^n: radius 1
("inner", label 0) or radius R ("outer", label 1), each chosen with a fair
coin. Points are drawn by normalizing standard normal vectors, which is
exact for the uniform distribution on the shell.

Every labelled draw goes through :func:`sample_batch`. With both shells
in play a batch of ``count`` draws ``count`` label coins (one word each)
first, then the ``count * n`` normals of its points (about 1.02 words
each, a variable number; see :mod:`spherelab.rng`), so a fixed seed always
materializes the same dataset: the same labels everywhere, and the same
point bits for one numpy version. A fixed shell (``"inner"`` or
``"outer"``) draws no coin: its words are the normals alone, exactly
those of :func:`sphere_points`, and outer points are those points times R.
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


def make_training_set(config: SphereConfig, N: int) -> FixedDataset:
    """Materialize N iid samples from the dataset substream of the seed."""
    if N < 1:
        raise ValueError("N must be positive")
    stream = RngStream(config.seed).child(CHILD_DATASET)
    xs, labels = sample_batch(config, stream, N)
    return FixedDataset(xs=xs, labels=labels, config=config)

