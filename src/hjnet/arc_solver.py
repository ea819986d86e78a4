"""Monotone finite differences on one arc's space-time rectangle.

The marching scheme for u_t + H(s, u') = 0 uses the dissipative numerical
Hamiltonian

    Hhat(s, pm, pp) = H(s, (pm + pp)/2) - (theta/2) (pp - pm)

with theta at least the momentum-Lipschitz constant of H over the slopes in
play and the step restriction dt * theta <= ds.  Under these the update is
nondecreasing in every stencil value, which is what makes discrete
comparison, equivariance and ordering statements exact at the grid level.

Boundary handling:

* constrained side: explicit update, then clip to min(datum, update), which
  keeps the update on a tie; the discrete rendering of "largest subsolution
  with trace at most the datum".
* free side: state constraint; the endpoint follows the one-sided interior
  slope pushed through the *monotone branch* of H (slope clipped at the
  per-s momentum minimizer), so no information enters from outside and the
  update stays order-preserving.

One stepper takes every step: ``_ArcStepper``, built once per march or
scan on an (R, ns + 1) stack of arc rows of any kinds with per-row theta.
It groups the rows by kind (by momentum-knot vector, for the sampled kind)
and is bound to its state: an array of its own that a march seeds, or the
caller's C-contiguous rows, which a residual scan binds without a copy.
All of its views and each kind group's evaluator are bound at
construction, and it has one stencil: ``advance()`` steps the state in
place on flat buffers, rows back to back, one contiguous call per stencil
operation (the entries straddling two rows are junk, overwritten by the end
clip or zeroed), and ``hhat()``, its first half, is what the residual scans
read.  The caller applies the sides.  Two loops march it: the network
solver's, and ``_march_arcs`` for any stack of arcs with lateral data
(``max_subsolution`` and the certificate's arc transforms).  A marched
field is an ``ArcField``: its grid, values and marching theta.

Also provided: residual scans, and the finite-speed window within which
lateral data cannot reach an arc's interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    CFLViolationError,
    CornerMismatchError,
    EmptySublevelError,
    GridMismatchError,
    ValidationError,
)
from .hamiltonians import (
    _Columns,
    _grid_coefficients,
    momentum_lipschitz,
    sublevel_width,
    subsolution_level,
)

__all__ = [
    "Grid2D",
    "BoundaryMode",
    "ArcField",
    "free",
    "constrained",
    "max_subsolution",
    "subsolution_residual",
    "supersolution_residual",
    "propagation_window",
    "default_dissipation",
]

_START_TOL = 1e-9  # relative: two vertex values that must agree at t0


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on [0,1] x [t0, t0 + nt*dt]; ds = 1/ns."""

    ns: int
    t0: float
    dt: float
    nt: int

    def __post_init__(self):
        if self.ns < 2:
            raise ValueError("need at least 2 space cells")
        if not (np.isfinite(self.t0) and np.isfinite(self.dt) and self.dt > 0
                and self.nt >= 0):
            raise ValueError("need finite t0, finite dt > 0 and nt >= 0")

    @property
    def ds(self):
        return 1.0 / self.ns

    def s_nodes(self):
        return np.linspace(0.0, 1.0, self.ns + 1)

    def t_nodes(self):
        return self.t0 + self.dt * np.arange(self.nt + 1)


@dataclass(frozen=True)
class BoundaryMode:
    kind: str  # "free" | "constrained"
    datum: np.ndarray | None = None


def free() -> BoundaryMode:
    """State-constraint side: no incoming datum."""
    return BoundaryMode("free")


def constrained(datum) -> BoundaryMode:
    """Side where the trace must stay at or below the datum."""
    datum = np.asarray(getattr(datum, "values", datum), dtype=float)
    return BoundaryMode("constrained", datum)


@dataclass(eq=False)
class ArcField:
    """Gridded u(s,t) on one arc; values indexed [time, space]; theta is the
    dissipation it was marched with, if any."""

    grid: Grid2D
    values: np.ndarray
    theta: float | None = None


class _ArcStepper:
    """One monotone scheme step for a stack of arc rows, bound to its state.

    Stack row r is ``hams[order[r]]``, rows grouped by kind (sampled ones by
    momentum knots); theta is a scalar or one value per Hamiltonian.  The
    state is the (R, ns + 1) C-contiguous stack the stepper works on: for a
    march, an array of its own that the caller seeds; given ``state``, the
    caller's rows, bound without a copy, which one Hamiltonian with a
    scalar theta may serve.
    Every view of the flat buffers, rows back to back, and each kind group's
    evaluator are bound here, once.  ``advance()`` steps the state in place,
    columns 0 and ns holding the state-constraint candidates for the caller
    to clip; ``hhat()``, its first half, returns Hhat of the state.  The end
    clip overwrites the momenta that straddle two rows, and the dissipation
    term is +0.0 at both row ends, so an end node keeps H at its clipped
    slope exactly.
    """

    def __init__(self, hams, ns, theta, dt, state=None):
        groups = {}
        for i, H in enumerate(hams):
            key = (H.kind, None if H.p_knots is None else tuple(H.p_knots))
            groups.setdefault(key, []).append(i)
        self.order = np.array([i for idx in groups.values() for i in idx])
        # momentum minimizers of the rows at s = 0 and at s = 1
        self.p_star = np.array([hams[i]._p_ends for i in self.order]).T.copy()
        c = ns + 1
        if state is None:
            state = np.empty((len(hams), c))
        elif not state.flags.c_contiguous:
            raise ValueError("the state must be C-contiguous")
        self.state, n = state, state.shape[0]
        pm = np.empty(n * c)      # the cell slopes, then the kinds' scratch
        p, tmp, hh = bufs = np.empty((3, n, c))
        fp, ft, fh = bufs.reshape(3, -1)
        # the momenta fp[1:] over the differences ft[:-1], one contiguous
        # block that the factors [0.5; theta/2] scale; its two entries at
        # the stack's ends are overwritten after, and start at 0.0 so that
        # the first step scales no garbage
        fp[-1] = ft[0] = 0.0
        pair = bufs.reshape(-1)[1:2 * n * c - 1].reshape(2, -1)
        half = 0.5 * np.asarray(theta, dtype=float)
        factor = np.empty((2, n * c - 1 if half.ndim else 1))
        factor[0] = 0.5
        factor[1] = np.repeat(half[self.order], c)[:-1] if half.ndim else half
        bounds = list(accumulate(map(len, groups.values()), initial=0))
        self.groups = []
        for idx, lo, hi in zip(groups.values(), bounds, bounds[1:]):
            # a lone group takes every row, however many one H serves
            sl = slice(lo, hi) if len(groups) > 1 else slice(None)
            grp = [hams[i] for i in idx]
            cols = _Columns(grp, None,
                            [_grid_coefficients(H, ns) for H in grp])
            self.groups.append(
                (cols, cols.bind(p[sl], hh[sl], pm.reshape(n, c)[sl])))
        evaluators = [ev for _, ev in self.groups]
        u = state.reshape(-1)
        u_lo, u_hi, slopes = u[:-1], u[1:], pm[:-1]
        pm_lo, pm_hi, p_mid, d = pm[:-2], pm[1:-1], fp[1:-1], ft[1:-1]
        pm_0, pm_n, p_0, p_n = slopes[::c], slopes[ns - 1::c], fp[::c], fp[ns::c]
        p_star_0, p_star_n = self.p_star
        d_ends = tmp[:, ::ns]
        # 0-d arrays: cheaper operands for a ufunc than Python numbers
        ns_f, dt_f = np.array(float(ns)), np.array(float(dt))

        def hhat():
            """Hhat of the state, rows (R, ns+1); at the ends, H at the
            one-sided slope clipped to the monotone branch (p <= p* at
            s = 0, p >= p* at s = 1)."""
            np.subtract(u_hi, u_lo, slopes)
            np.multiply(slopes, ns_f, slopes)
            np.add(pm_lo, pm_hi, p_mid)
            np.subtract(pm_hi, pm_lo, d)
            np.multiply(pair, factor, pair)
            np.minimum(pm_0, p_star_0, out=p_0)
            np.maximum(pm_n, p_star_n, out=p_n)
            for evaluate in evaluators:
                evaluate()
            d_ends.fill(0.0)
            np.subtract(fh, ft, fh)
            return hh

        def advance():
            """Step the state in place."""
            hhat()
            np.multiply(fh, dt_f, ft)
            np.subtract(u, ft, u)

        # no closure holds self, so the buffers go with the last reference
        self.hh, self.hhat, self.advance = hh, hhat, advance


def default_dissipation(H, initial, left=None, right=None, dt=None):
    """Dissipation coefficient covering the run's expected slope range.

    The slope budget combines the stationary level of the initial datum with
    the lateral data's time-Lipschitz constants, widened to the sublevel
    width those imply, plus headroom.  A side is a BoundaryMode, a datum
    series, or None for a free side.
    """
    initial = np.asarray(initial, dtype=float)
    level = subsolution_level(H, initial)
    for side in (left, right):
        datum = getattr(side, "datum", side)
        if datum is not None and datum.size > 1 and dt is not None:
            level = max(level, float(np.max(np.abs(np.diff(datum)))) / dt)
    gmax = float(np.max(np.abs(np.diff(initial)))) * (initial.size - 1)
    try:
        width = sublevel_width(H, level)
    except EmptySublevelError:
        width = gmax
    return momentum_lipschitz(H, max(width, gmax) + 1.0)


def _check_monotone(dt, theta, ds, edge=None):
    """The step restriction dt * theta <= ds, up to a relative 1e-12, which
    a NaN theta fails; a violation names the edge when one is given."""
    if not dt * theta <= ds * (1.0 + 1e-12):
        where = "" if edge is None else f"edge {edge!r}: "
        raise CFLViolationError(
            f"{where}dt*theta = {dt * theta:.3e} exceeds ds = {ds:.3e}")


def _march_arcs(hams, init, left, right, grid, theta, record):
    """March a stack of arcs; returns the columns ``record`` picks (an index
    or a slice) of every arc at every step, (R, nt+1, ...), and the thetas
    marched with, both in the callers' order.

    Per arc: an initial datum on the s-grid, a left and a right datum on the
    time grid (None: a free side), a theta (None: ``default_dissipation``).
    The stack is checked as a whole, with the errors one bad arc raises
    alone.  After each step a constrained end is clipped to min(datum,
    update), which keeps the update on a tie.
    """
    init = [np.asarray(g, dtype=float) for g in init]
    sides = [[None if d is None else np.asarray(d, dtype=float) for d in lr]
             for lr in zip(left, right)]
    data = [d for lr in sides for d in lr if d is not None]
    if any(g.shape != (grid.ns + 1,) for g in init):
        raise GridMismatchError("initial datum must be sampled on the s-grid")
    for what, arrays in (("initial", init), ("lateral", data)):
        if arrays and not np.isfinite(
                np.concatenate([d.ravel() for d in arrays])).all():
            raise ValidationError(f"{what} datum must be finite")
    theta = [float(default_dissipation(H, g, *lr, dt=grid.dt)
                   if th is None else th)
             for H, g, lr, th in zip(hams, init, sides, theta)]
    for th in theta:
        _check_monotone(grid.dt, th, grid.ds)
    if any(d.shape != (grid.nt + 1,) for d in data):
        raise GridMismatchError("constrained datum must live on the full time grid")
    free = np.full(grid.nt + 1, np.inf)   # a clip that keeps every update
    dat = np.array([[free if d is None else d for d in lr] for lr in sides])
    at0, g_end = dat[:, :, 0], np.array([g[::grid.ns] for g in init])
    low = at0 < g_end - _START_TOL * (1.0 + np.abs(g_end))
    if low.any():
        raise CornerMismatchError(f"lateral datum at t0 ({at0[low][0]}) "
                                  f"below initial endpoint ({g_end[low][0]})")
    step = _ArcStepper(hams, grid.ns, theta, grid.dt)
    u, advance = step.state, step.advance
    np.stack([init[i] for i in step.order], out=u)
    dat = dat[step.order].transpose(2, 0, 1).copy()   # [time, row, end]
    ends, kept = u[:, ::grid.ns], u[:, record]
    rec = np.empty((grid.nt + 1,) + kept.shape)
    rec[0] = kept
    for k in range(1, grid.nt + 1):
        advance()
        np.minimum(dat[k], ends, out=ends)
        rec[k] = kept
    out = np.empty((len(init), grid.nt + 1) + kept.shape[1:])
    out[step.order] = rec.swapaxes(0, 1)
    return out, theta


def max_subsolution(H, initial, left, right, grid, theta=None) -> ArcField:
    """March the monotone scheme; converges to the maximal subsolution.

    initial is sampled on the s-grid; left/right are BoundaryMode.  The
    returned field solves the discrete equation exactly at interior nodes,
    matches the initial datum exactly at t0, and keeps constrained traces at
    or below their datum.  It is the one-arc case of the stack march.
    """
    values, theta = _march_arcs([H], [initial], [left.datum], [right.datum],
                                grid, [theta], slice(None))
    return ArcField(grid=grid, values=values[0], theta=theta[0])


def _interior_residuals(u, H, theta, dt):
    """u_t + Hhat at the interior nodes of the C-contiguous rows u
    (nt+1, ns+1)."""
    if u.shape[0] == 1:
        return np.zeros((0, max(u.shape[1] - 2, 0)))
    hh = _ArcStepper([H], u.shape[1] - 1, theta, dt, state=u[:-1]).hhat()
    return np.diff(u[:, 1:-1], axis=0) / dt + hh[:, 1:-1]


def _field_residuals(field: ArcField, H, theta):
    if theta is None:
        theta = field.theta
    if theta is None:  # a hand-built field: cover its own largest slope
        slope = np.max(np.abs(np.diff(field.values, axis=1))) * field.grid.ns
        theta = momentum_lipschitz(H, float(slope) + 1.0)
    return _interior_residuals(np.ascontiguousarray(field.values), H, theta,
                               field.grid.dt)


def subsolution_residual(field, H, theta=None) -> float:
    """Positive part of the worst interior violation of u_t + Hhat <= 0."""
    r = _field_residuals(field, H, theta)
    return float(max(0.0, np.max(r, initial=-np.inf)))


def supersolution_residual(field, H, theta=None) -> float:
    """Positive part of the worst interior violation of u_t + Hhat >= 0."""
    r = _field_residuals(field, H, theta)
    return float(max(0.0, -np.min(r, initial=np.inf)))


def propagation_window(H, lipschitz_bound) -> float:
    """Finite-speed window: half the strict finite-speed bound.

    With M the momentum-Lipschitz constant over the slope bound (floored at
    3), differences of solutions sharing initial data stay confined for
    times below 1/(2M) - 1/M^2; half of that is returned.
    """
    if lipschitz_bound <= 0:
        raise ValueError("lipschitz_bound must be positive")
    M = max(momentum_lipschitz(H, lipschitz_bound), 3.0)
    return 0.5 * (1.0 / (2.0 * M) - 1.0 / (M * M))
