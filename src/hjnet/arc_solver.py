"""Monotone finite differences on one arc's space-time rectangle.

The marching scheme for u_t + H(s, u') = 0 uses the dissipative numerical
Hamiltonian

    Hhat(s, pm, pp) = H(s, (pm + pp)/2) - (theta/2) (pp - pm)

with theta at least the momentum-Lipschitz constant of H over the slopes in
play and the step restriction dt * theta <= ds.  Under these the update is
nondecreasing in every stencil value, which is what makes discrete
comparison, equivariance and ordering statements exact at the grid level.

Boundary handling:

* constrained side: explicit update, then clip to min(update, datum); the
  discrete rendering of "largest subsolution with trace at most the datum".
* free side: state constraint; the endpoint follows the one-sided interior
  slope pushed through the *monotone branch* of H (slope clipped at the
  per-s momentum minimizer), so no information enters from outside and the
  update stays order-preserving.

One stepper does every march: ``_ArcStepper``, built once per march on an
(R, ns + 1) stack of arc rows of any kinds with per-row theta, orders the
rows so that each kind (each momentum-knot vector, for the sampled kind) is
one contiguous slice, allocates its slope, momentum and Hhat buffers once,
and writes each step's update, interior nodes and both state-constraint
endpoint candidates, into an array the caller passes in (the rows themselves
allowed); the caller applies the sides.  It serves ``max_subsolution``
(R = 1), the network solver (all edges of every scenario it marches
together), the certificate (all arc transforms) and the residual scans
(whose Hhat is the stepper's).  A marched field is an ``ArcField``: its grid,
its values and the dissipation theta it was marched with.

Also provided: the exact cone solution of w_t - M |w'| = 0 used as a
finite-speed oracle, residual scans, and the finite-speed window within
which lateral data cannot reach an arc's interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CFLViolationError,
    CornerMismatchError,
    EmptySublevelError,
    GridMismatchError,
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
    "cone_solution",
    "subsolution_residual",
    "supersolution_residual",
    "propagation_window",
    "default_dissipation",
]


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
    """One monotone scheme step for a stack of arc rows, built once per march.

    The stack holds its rows grouped by kind (sampled ones by their momentum
    knots): stack row r is ``hams[order[r]]``, so each group is one slice of
    rows and its column table reads and writes views.  theta is one scalar
    or one value per Hamiltonian; a single Hamiltonian may serve ``rows``
    rows.  The slope, momentum, Hhat and scratch buffers, and every view of
    them a step touches, are made here and reused by every step; the end
    minimizers and column coefficients are the ones each Hamiltonian keeps.
    """

    def __init__(self, hams, ns, theta, dt, rows=None):
        groups = {}
        for i, H in enumerate(hams):
            key = (H.kind, None if H.p_knots is None else tuple(H.p_knots))
            groups.setdefault(key, []).append(i)
        self.order = np.array([i for idx in groups.values() for i in idx])
        # momentum minimizers of the rows at s = 0 and at s = 1
        self.p_star = np.array([hams[i]._p_ends for i in self.order]).T.copy()
        half_theta = 0.5 * np.asarray(theta, dtype=float)
        self.half_theta = (half_theta[self.order, None] if half_theta.ndim
                           else half_theta)
        self.ns, self.dt = ns, dt
        n = len(hams) if rows is None else rows
        self.pm = pm = np.empty((n, ns))
        p = np.empty((n, ns + 1))
        self.hh = hh = np.empty((n, ns + 1))
        self.tmp = tmp = np.empty((n, ns + 1))
        self._views = (pm[:, :-1], pm[:, 1:], p[:, 1:-1], hh[:, 1:-1],
                       tmp[:, 1:-1], pm[:, 0], p[:, 0], pm[:, -1], p[:, -1])
        bounds = np.cumsum([0] + [len(idx) for idx in groups.values()])
        self.groups = []
        for idx, lo, hi in zip(groups.values(), bounds, bounds[1:]):
            # a lone group takes every row, however many one H serves
            sl = slice(lo, hi) if len(groups) > 1 else slice(None)
            grp = [hams[i] for i in idx]
            cols = _Columns(grp, None,
                            [_grid_coefficients(H, ns) for H in grp])
            self.groups.append((cols, p[sl], hh[sl], tmp[sl]))

    def hhat(self, u):
        """Hhat of the rows u (R, ns+1), left in ``hh``, with the cell
        slopes left in ``pm``.  At the ends Hhat is H at the one-sided slope
        clipped to the monotone branch (p <= p* at s = 0, p >= p* at s = 1).
        """
        pm_lo, pm_hi, p_mid, hh_mid, d, pm_0, p_0, pm_n, p_n = self._views
        np.subtract(u[:, 1:], u[:, :-1], out=self.pm)
        self.pm *= self.ns
        np.add(pm_lo, pm_hi, out=p_mid)
        p_mid *= 0.5
        np.minimum(pm_0, self.p_star[0], out=p_0)
        np.maximum(pm_n, self.p_star[1], out=p_n)
        for cols, q, h, t in self.groups:
            cols(q, out=h, tmp=t)
        np.subtract(pm_hi, pm_lo, out=d)
        d *= self.half_theta
        hh_mid -= d
        return self.hh

    def __call__(self, u, out):
        """Write the update of the rows u into out (u itself allowed);
        columns 0 and ns hold the state-constraint candidates."""
        np.multiply(self.hhat(u), self.dt, out=self.tmp)
        np.subtract(u, self.tmp, out=out)


def default_dissipation(H, initial, left=None, right=None, dt=None):
    """Dissipation coefficient covering the run's expected slope range.

    The slope budget combines the stationary level of the initial datum with
    the lateral data's time-Lipschitz constants, widened to the sublevel
    width those imply, plus headroom.
    """
    initial = np.asarray(initial, dtype=float)
    level = subsolution_level(H, initial)
    for bm in (left, right):
        if bm is not None and bm.kind == "constrained" and bm.datum.size > 1 \
                and dt is not None:
            level = max(level, float(np.max(np.abs(np.diff(bm.datum)))) / dt)
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


def _check_arcs(grid, theta, sides):
    """Check a stack of arcs against its grid: dt * theta <= ds at every
    theta, and every constrained side, a (datum, end) pair, with its datum
    on the time grid and starting at or above ``end``, the initial datum's
    value at that side.  Returns the data stacked, (len(sides), nt+1)."""
    for th in np.atleast_1d(theta):
        _check_monotone(grid.dt, float(th), grid.ds)
    if any(d.shape != (grid.nt + 1,) for d, _ in sides):
        raise GridMismatchError("constrained datum must live on the full time grid")
    data = np.array([d for d, _ in sides]).reshape(len(sides), grid.nt + 1)
    ends = np.array([end for _, end in sides], dtype=float)
    low = data[:, 0] < ends - 1e-9 * (1.0 + np.abs(ends))
    if low.any():
        i = int(np.argmax(low))
        raise CornerMismatchError(f"lateral datum at t0 ({data[i, 0]}) "
                                  f"below initial endpoint ({ends[i]})")
    return data


def _arc_theta(H, initial, left, right, grid, theta):
    """Check one arc's data against its grid; returns its dissipation."""
    if initial.shape != (grid.ns + 1,):
        raise GridMismatchError("initial datum must be sampled on the s-grid")
    if theta is None:
        theta = default_dissipation(H, initial, left, right, dt=grid.dt)
    theta = float(theta)
    _check_arcs(grid, theta, [(bm.datum, end) for bm, end in
                              ((left, initial[0]), (right, initial[-1]))
                              if bm.kind == "constrained"])
    return theta


def max_subsolution(H, initial, left, right, grid, theta=None) -> ArcField:
    """March the monotone scheme; converges to the maximal subsolution.

    initial is sampled on the s-grid; left/right are BoundaryMode.  The
    returned field solves the discrete equation exactly at interior nodes,
    matches the initial datum exactly at t0, and keeps constrained traces at
    or below their datum.
    """
    initial = np.asarray(initial, dtype=float)
    theta = _arc_theta(H, initial, left, right, grid, theta)
    step = _ArcStepper([H], grid.ns, theta, grid.dt)
    values = np.empty((grid.nt + 1, grid.ns + 1))
    values[0] = initial
    for k in range(grid.nt):
        u = values[k + 1]
        step(values[k:k + 1], out=u[None, :])
        if left.kind == "constrained":
            u[0] = min(u[0], left.datum[k + 1])
        if right.kind == "constrained":
            u[-1] = min(u[-1], right.datum[k + 1])
    return ArcField(grid=grid, values=values, theta=theta)


def cone_solution(M, initial, left_datum, right_datum, grid) -> ArcField:
    """Exact solution of w_t - M |w'| = 0 from full parabolic-boundary data.

    w(s,t) is the maximum of the boundary values over all boundary points
    (s*, t*) within the backward cone |s - s*| <= M (t - t*).
    """
    if M <= 0:
        raise ValueError("cone speed M must be positive")
    initial = np.asarray(initial, dtype=float)
    ldat = np.asarray(getattr(left_datum, "values", left_datum), dtype=float)
    rdat = np.asarray(getattr(right_datum, "values", right_datum), dtype=float)
    if initial.shape != (grid.ns + 1,) or ldat.shape != (grid.nt + 1,) \
            or rdat.shape != (grid.nt + 1,):
        raise GridMismatchError("cone data must live on the grid")
    s = grid.s_nodes()
    t = grid.t_nodes()
    # the formula is a brute force; evaluate it directly so any reordered
    # scan over the boundary reproduces it bit for bit
    dist = np.abs(s[:, None] - s[None, :])  # (i, j)
    values = np.empty((grid.nt + 1, grid.ns + 1))
    for k in range(grid.nt + 1):
        back = M * (t[k] - t)               # (l,) ; negative for l > k
        row = np.where(dist <= M * (t[k] - t[0]), initial[None, :],
                       -np.inf).max(axis=1)
        cl = np.where(s[:, None] <= back[None, :], ldat[None, :],
                      -np.inf).max(axis=1)
        cr = np.where((1.0 - s)[:, None] <= back[None, :], rdat[None, :],
                      -np.inf).max(axis=1)
        values[k] = np.maximum(row, np.maximum(cl, cr))
    return ArcField(grid=grid, values=values, theta=M)


def _interior_residuals(u, H, theta, dt):
    """u_t + Hhat at the interior nodes of the rows u (nt+1, ns+1)."""
    if u.shape[0] == 1:
        return np.zeros((0, max(u.shape[1] - 2, 0)))
    hh = _ArcStepper([H], u.shape[1] - 1, theta, dt,
                     rows=u.shape[0] - 1).hhat(u[:-1])
    return np.diff(u[:, 1:-1], axis=0) / dt + hh[:, 1:-1]


def _field_residuals(field: ArcField, H, theta):
    if theta is None:
        theta = field.theta
    if theta is None:  # a hand-built field: cover its own largest slope
        slope = np.max(np.abs(np.diff(field.values, axis=1))) * field.grid.ns
        theta = momentum_lipschitz(H, float(slope) + 1.0)
    return _interior_residuals(field.values, H, theta, field.grid.dt)


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
