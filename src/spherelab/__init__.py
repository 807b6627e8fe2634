"""Concentric-spheres classification lab.

Trains small networks on the two-concentric-spheres task, searches for
on-manifold adversarial errors with a sphere-constrained PGD attack, and
compares measured error rates and adversarial distances against analytic
spherical-cap bounds and CLT estimates.
"""

import math
import numbers

import numpy as np

__version__ = "0.9.0"


def require_int(name: str, value, least: int) -> int:
    """``value`` as a Python int at least ``least``, or ``ValueError`` naming ``name``.

    A ``bool`` is not an integer here; a numpy integer is, and becomes a
    Python int, so configs stay JSON-serializable.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def require_ints(config, **least: int) -> None:
    """Check each field of ``config`` against its least value and store it as an int.

    The rule is :func:`require_int`'s, e.g. ``require_ints(self, steps=0,
    seed=0)``; a field that breaks it raises ``ValueError`` naming the field.
    """
    for name, low in least.items():
        # object.__setattr__ works on frozen dataclasses too
        object.__setattr__(config, name, require_int(name, getattr(config, name), low))


def require_seed(seed) -> int:
    """``seed`` as a Python int, or ``ValueError`` unless it is an unsigned 64-bit integer."""
    if require_int("seed", seed, 0) >= 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def require_bool(name: str, value) -> bool:
    """``value``, a ``bool`` or numpy bool, as a Python bool (JSON-serializable).

    Anything else, ``'False'`` or 0 too, raises ``ValueError`` naming ``name``.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def require_real(name: str, value) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a real number other than a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def require_above(name: str, value, low: float) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a real number, finite and > ``low``."""
    require_real(name, value)
    if not (math.isfinite(value) and value > low):
        raise ValueError(f"{name} must be finite and > {low}, got {value!r}")


def require_dim(model, n: int) -> None:
    """``ValueError`` unless ``model``'s input dimension ``model.n`` is ``n``, the sphere's."""
    if getattr(model, "n", None) != n:
        raise ValueError(f"model dim {getattr(model, 'n', None)} != sphere dim {n}")


def require_radius(R) -> None:
    """``ValueError`` unless ``R`` is an outer-shell radius: finite and > 1."""
    require_above("outer radius", R, 1)


# Re-exported because perfbench's tracer test reads ``spherelab.singular_values``.
from spherelab.linalg import singular_values
