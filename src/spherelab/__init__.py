"""Concentric-spheres classification lab.

Trains small networks on the two-concentric-spheres task, searches for
on-manifold adversarial errors with a sphere-constrained PGD attack, and
compares measured error rates and adversarial distances against analytic
spherical-cap bounds and CLT estimates.
"""

from spherelab.rng import RngStream
from spherelab.special import normal_cdf, normal_quantile
from spherelab.linalg import singular_values

__version__ = "0.2.0"
