"""Concentric-spheres classification lab.

Trains small networks on the two-concentric-spheres task, searches for
on-manifold adversarial errors with a sphere-constrained PGD attack, and
compares measured error rates and adversarial distances against analytic
spherical-cap bounds and CLT estimates.
"""

import math
import numbers

from spherelab.rng import RngStream
from spherelab.special import normal_cdf, normal_quantile
from spherelab.linalg import singular_values

__version__ = "0.2.0"


def require_int(name: str, value) -> int:
    """``value`` as a Python int, or ``ValueError`` naming the argument ``name``.

    A ``bool`` is not an integer here; a numpy integer is, and becomes a
    Python int, so configs stay JSON-serializable.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_ints(config, *names: str) -> None:
    """Check that each named field of ``config`` is an integer and store it as an int.

    The rule is :func:`require_int`'s; a field that breaks it raises
    ``ValueError`` naming the field.
    """
    for name in names:
        # object.__setattr__ works on frozen dataclasses too
        object.__setattr__(config, name, require_int(name, getattr(config, name)))


def require_radius(R) -> None:
    """``ValueError`` unless ``R`` is an outer-shell radius: finite and > 1."""
    if not (math.isfinite(R) and R > 1.0):
        raise ValueError(f"outer radius must be finite and > 1, got {R!r}")
