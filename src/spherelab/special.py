"""Gaussian distribution functions.

``normal_cdf`` evaluates Phi through the C library's erfc (an erf-based
rational approximation accurate to a couple of ulp, well inside the 1e-12
contract), which keeps the deep tails exact enough for tail-probability
work down to ~1e-300. ``normal_quantile`` is the standard library's
``NormalDist().inv_cdf``: Wichura's AS 241, about 1e-16 relative error for
p down to 1e-300. Call it with the small tail probability itself,
``-normal_quantile(mu)``, rather than with ``1 - mu``, which rounds mu away
below ~1e-16.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_SQRT2 = math.sqrt(2.0)
_STANDARD = NormalDist()


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x).

    Total on finite inputs, monotone, and accurate to well under 1e-12
    absolute error.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1); ValueError outside it (NaN too)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p}")
    return _STANDARD.inv_cdf(p)
