"""Dense linear algebra: singular values.

``singular_values`` validates its input and then calls LAPACK through
numpy: it is ``np.linalg.svd(m, compute_uv=False)``, all ``min(m.shape)``
values in descending order, each with an absolute error of a small
multiple of machine epsilon times the largest one.

Malformed input (not 2-D, empty, or non-finite) raises ``ValueError``
before LAPACK sees it.
"""

from __future__ import annotations

import numpy as np


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of ``m`` in descending order."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.svd(m, compute_uv=False)
