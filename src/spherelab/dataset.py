"""The concentric-spheres distribution.

A sample is a point on one of two origin-centered shells in R^n: radius 1
("inner", label 0) or radius R ("outer", label 1), each chosen with a fair
coin. Points are drawn by normalizing standard normal vectors, which is
exact for the uniform distribution on the shell.

Every labelled draw goes through :func:`sample_batch`. With both shells
in play a batch of ``count`` draws ``count`` label coins (one word each)
first, then the ``count * n`` normals of its points (about 1.02 words
each, a variable number; see :mod:`spherelab.rng`), so a stream in a
given state always yields the same labels, and the same point bits for
one numpy version. A fixed shell (``"inner"`` or ``"outer"``) draws no
coin: its words are the normals alone, exactly those of
:func:`sphere_points`, and outer points are those points times R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spherelab.rng import RngStream

_SPHERE_BLOCK = 32768  # draws per row block of sphere_points: 256 KiB of float64


@dataclass(frozen=True)
class SphereConfig:
    """Dimension, outer radius, and seed of the data distribution."""

    n: int
    R: float = 1.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if not (math.isfinite(self.R) and self.R > 1.0):
            raise ValueError(f"outer radius must be finite and > 1, got {self.R}")


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

