"""Running-min slope-cap transform on uniform time grids.

For a series psi and a strictly negative slope a, the transform

    (cap psi)(t) = min { psi(r) + a * (t - r) : t0 <= r <= t }

is the largest function below psi whose time slope never exceeds a.  On a
uniform grid the one-step recursion

    G[0] = psi[0],   G[k] = min(psi[k], G[k-1] + a * dt)

reproduces the definition exactly, so the transform carries no discretization
error of its own.  The O(n^2) direct form is kept as an independent oracle.

In the network solver the slope is a vertex flux limiter (negative after the
positivity normalization), and the solver applies the one-step recursion
online to the vertex candidates, so its traces never rise faster than the
limiter; the certificate caps the whole traces of every vertex at once with
the recursion ``apply_g`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonNegativeSlopeError

__all__ = [
    "TimeSeries",
    "apply_g",
    "apply_g_bruteforce",
    "contact_set",
]


@dataclass(frozen=True)
class TimeSeries:
    """Values of a scalar function of time on a uniform grid t0 + k*dt."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not (np.isfinite(self.t0) and np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("t0 must be finite and dt finite and positive")
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")


def _slope_value(a) -> float:
    a = float(a)
    if not a < 0:
        raise NonNegativeSlopeError(f"slope must be negative, got {a}")
    return a


def _cap_columns(values, slopes, dt):
    """The one-step recursion on every column of values [time, column] at
    once, column j at slope slopes[j]; caps values in place and returns it.

    G[k] is np.minimum(G[k-1] + a*dt, psi[k]), which on a tie keeps psi[k],
    signed zeros included.
    """
    step = np.array([_slope_value(a) for a in slopes]) * dt
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    acc = np.empty_like(step)
    for k in range(1, len(values)):
        np.add(values[k - 1], step, out=acc)
        np.minimum(acc, values[k], out=values[k])
    return values


def apply_g(psi: TimeSeries, a) -> TimeSeries:
    """Slope-cap transform via the exact one-step recursion."""
    out = _cap_columns(psi.values[:, None].copy(), [a], psi.dt)
    return TimeSeries(psi.t0, psi.dt, out[:, 0])


def apply_g_bruteforce(psi: TimeSeries, a) -> TimeSeries:
    """Direct O(n^2) evaluation of the defining minimum; oracle for apply_g."""
    aa = _slope_value(a)
    v = psi.values
    n = v.size
    out = np.empty_like(v)
    step = aa * psi.dt
    lags = np.arange(n, dtype=float)
    for k in range(n):
        # candidates psi[r] + a*dt*(k - r) for r = 0..k
        out[k] = np.min(v[: k + 1] + step * lags[k::-1])
    return TimeSeries(psi.t0, psi.dt, out)


def contact_set(psi: TimeSeries, a, tol: float | None = None) -> np.ndarray:
    """Boolean mask of grid indices where the transform touches psi.

    tol defaults to 1e-9 * (1 + |psi|_inf).  Wherever both one-sided discrete
    slopes of the transform stay below a - tol, the transform must be in
    contact with psi; this is the discrete surrogate of the subtangent
    characterization of contact points and is what the property tests check.
    """
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(psi.values))))
    g = apply_g(psi, a).values
    return np.abs(g - psi.values) <= tol
