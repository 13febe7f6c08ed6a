"""Ball volumes, sphere surface measures, and spherical cap measures."""
from __future__ import annotations

import math

import numpy as np


def ball_volume(k: int) -> float:
    """Volume kappa_k of the unit ball in R^k (kappa_0 = 1).

    Computed by the recurrence kappa_k = (2 pi / k) kappa_{k-2}, which keeps
    the small values (kappa_1 = 2, kappa_2 = pi) exact in floating point.
    """
    if k < 0:
        raise ValueError(f"dimension must be nonnegative, got {k}")
    value = 1.0 if k % 2 == 0 else 2.0
    for j in range(2 + k % 2, k + 1, 2):
        value *= 2.0 * math.pi / j
    return value


def sphere_surface(k: int) -> float:
    """Total spherical Lebesgue measure omega_k = k*kappa_k of S^{k-1} in R^k.

    For k = 1 the sphere S^0 = {-1, +1} carries counting measure, omega_1 = 2.
    """
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    return k * ball_volume(k)


def cap_measure(k: int, t):
    """Measure of the spherical cap {v in S^{k-1} : <v, e> >= t}.

    Computed against the unnormalized spherical Lebesgue measure on the
    sphere S^{k-1} in R^k.  For k = 1 the sphere is the two-point set and
    the measure is counting measure.  Elementwise for an array t.
    """
    from scipy.special import betainc
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    t = np.asarray(t, dtype=float)
    if k == 1:
        # points +1 and -1
        out = (t <= 1.0) + (t <= -1.0) * 1.0
    else:
        # omega_{k-1} * int_t^1 (1-s^2)^{(k-3)/2} ds via the regularized
        # incomplete beta function (substitute s^2 = u on each half-line)
        a, b = 0.5, (k - 1) / 2.0
        full = math.gamma(a) * math.gamma(b) / math.gamma(a + b)  # Beta(a, b)
        inc = betainc(a, b, np.minimum(t * t, 1.0))
        partial = 0.5 * full * np.where(t >= 0.0, 1.0 - inc, 1.0 + inc)
        out = np.where(t <= -1.0, sphere_surface(k),
                       np.where(t > 1.0, 0.0, sphere_surface(k - 1) * partial))
    return out if out.ndim else float(out)


def double_cap_measure(k: int, t):
    """Measure of {v in S^{k-1} : |<v, e>| >= t}, elementwise for an array t."""
    out = np.where(np.asarray(t) <= 0.0, sphere_surface(k), 2.0 * np.asarray(cap_measure(k, t)))
    return out if out.ndim else float(out)
