"""Dense linear algebra: singular values and top principal components.

Both functions validate their input and then call LAPACK through numpy:

- ``singular_values`` is ``np.linalg.svd(m, compute_uv=False)``: all
  ``min(m.shape)`` values in descending order, each with an absolute error
  of a small multiple of machine epsilon times the largest one.
- ``top_principal_components`` is ``np.linalg.eigh`` on the mean-centered
  sample covariance (ddof=1). The sign of each direction is whatever LAPACK
  returns; callers that care must try both.

Malformed input (not 2-D, empty, or non-finite) raises ``ValueError``
before LAPACK sees it.
"""

from __future__ import annotations

import numpy as np


def _check_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of ``m`` in descending order."""
    return np.linalg.svd(_check_matrix(m), compute_uv=False)


def top_principal_components(data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading ``k`` principal directions and variances of ``data``.

    Parameters
    ----------
    data : (N, dim) array
        Sample rows; N >= 2.
    k : int
        Number of components, at most ``dim``.

    Returns
    -------
    directions : (k, dim) array
        Orthonormal rows, the eigenvectors of the centered covariance
        belonging to its ``k`` largest eigenvalues.
    variances : (k,) array
        Matching eigenvalues, descending, with roundoff negatives clipped
        to zero.
    """
    data = _check_matrix(data)
    n_samples, dim = data.shape
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a covariance")
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    centered = data - data.mean(axis=0)
    cov = (centered.T @ centered) / (n_samples - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    return eigvecs[:, ::-1][:, :k].T.copy(), np.clip(eigvals[::-1][:k], 0.0, None)
