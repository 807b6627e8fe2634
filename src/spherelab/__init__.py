"""Concentric-spheres classification lab.

Trains small networks on the two-concentric-spheres task, searches for
on-manifold adversarial errors with a sphere-constrained PGD attack, and
compares measured error rates and adversarial distances against analytic
spherical-cap bounds and CLT estimates.
"""

import numbers

from spherelab.rng import RngStream
from spherelab.special import normal_cdf, normal_quantile
from spherelab.linalg import singular_values

__version__ = "0.2.0"


def require_ints(config, *names: str) -> None:
    """Check that each named field of ``config`` is an integer and store it as an int.

    A ``bool`` is not an integer here; a numpy integer is, and becomes a
    Python int, so configs stay JSON-serializable. Anything else raises
    ``ValueError`` naming the field.
    """
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(config, name, int(value))  # also on frozen dataclasses
