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
rows so that each kind is one contiguous slice, allocates its slope,
momentum and Hhat buffers once, and writes each step's update, interior
nodes and both state-constraint endpoint candidates, into an array the
caller passes in (the rows themselves allowed); the caller applies the
sides.  It serves ``max_subsolution`` (R = 1), the network solver (all
edges of every scenario it marches together), the certificate (all arc
transforms) and the residual scans (whose Hhat is the stepper's).

Also provided: the exact cone solution of w_t - M |w'| = 0 used as a
finite-speed oracle, the Lipschitz envelope from above, t-partial
sup-convolution, residual scans, and the finite-speed window within which
lateral data cannot reach an arc's interior.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CFLViolationError,
    CornerMismatchError,
    EmptySublevelError,
    GridMismatchError,
)
from .hamiltonians import (
    _Columns,
    momentum_lipschitz,
    momentum_minimizer,
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
    "lipschitz_envelope_above",
    "sup_convolution_t",
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
        if self.dt <= 0 or self.nt < 0:
            raise ValueError("need dt > 0 and nt >= 0")

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
    """Gridded u(s,t) on one arc; values indexed [time, space]."""

    grid: Grid2D
    values: np.ndarray
    left: BoundaryMode
    right: BoundaryMode
    initial: np.ndarray
    theta: float | None = None


class _ArcStepper:
    """One monotone scheme step for a stack of arc rows, built once per march.

    The stack holds its rows grouped by kind (sampled ones sharing a knot
    count): stack row r is ``hams[order[r]]``, so each group is one slice of
    rows and its column table reads and writes views.  theta is one scalar
    or one value per Hamiltonian; a single Hamiltonian may serve ``rows``
    rows.  The slope, momentum, Hhat and scratch buffers, and every view of
    them a step touches, are made here and reused by every step.
    """

    def __init__(self, hams, ns, theta, dt, rows=None):
        s = np.linspace(0.0, 1.0, ns + 1)
        groups = {}
        for i, H in enumerate(hams):
            key = (H.kind, 0 if H.p_knots is None else H.p_knots.size)
            groups.setdefault(key, []).append(i)
        self.order = np.array([i for idx in groups.values() for i in idx])
        # momentum minimizers of the rows at s = 0 and at s = 1
        self.p_star = np.stack([momentum_minimizer(H, [0.0, 1.0])
                                for H in hams])[self.order].T.copy()
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
            self.groups.append((_Columns([hams[i] for i in idx], s),
                                p[sl], hh[sl], tmp[sl]))

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


def _arc_theta(H, initial, left, right, grid, theta):
    """Check one arc's data against its grid; returns its dissipation."""
    if initial.shape != (grid.ns + 1,):
        raise GridMismatchError("initial datum must be sampled on the s-grid")
    if theta is None:
        theta = default_dissipation(H, initial, left, right, dt=grid.dt)
    theta = float(theta)
    if grid.dt * theta > grid.ds * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt*theta = {grid.dt * theta:.3e} exceeds ds = {grid.ds:.3e}")
    for bm, end in ((left, initial[0]), (right, initial[-1])):
        if bm.kind != "constrained":
            continue
        if bm.datum.shape != (grid.nt + 1,):
            raise GridMismatchError("constrained datum must live on the full time grid")
        if bm.datum[0] < end - 1e-9 * (1.0 + abs(float(end))):
            raise CornerMismatchError(
                f"lateral datum at t0 ({bm.datum[0]}) below initial endpoint ({end})")
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
    return ArcField(grid=grid, values=values, left=left, right=right,
                    initial=initial, theta=theta)


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
    return ArcField(grid=grid, values=values, left=constrained(ldat),
                    right=constrained(rdat), initial=initial, theta=M)


def _lip_pass(values, step, axis, combine):
    out = np.array(values, dtype=float, copy=True)
    out = np.moveaxis(out, axis, 0)
    for j in range(1, out.shape[0]):
        out[j] = combine(out[j], out[j - 1] - step)
    for j in range(out.shape[0] - 2, -1, -1):
        out[j] = combine(out[j], out[j + 1] - step)
    return np.moveaxis(out, 0, axis)


def lipschitz_envelope_above(values, n, dt=None, ds=None):
    """Smallest n-Lipschitz (grid l1 metric) function above the input.

    1-d inputs are series with spacing dt; 2-d inputs are [time, space]
    fields with spacings (dt, ds); an ArcField brings its own spacings.  The
    metric separates, so two sweeps give the exact discrete Pasch-Hausdorff
    envelope.
    """
    if isinstance(values, ArcField):
        dt = values.grid.dt if dt is None else dt
        ds = values.grid.ds if ds is None else ds
        values = values.values
    values = np.asarray(values, dtype=float)
    if dt is None:
        raise ValueError("envelope needs the time spacing dt")
    if values.ndim == 1:
        return _lip_pass(values, n * dt, 0, np.maximum)
    if ds is None:
        raise ValueError("2-d envelope needs ds")
    out = _lip_pass(values, n * ds, 1, np.maximum)
    return _lip_pass(out, n * dt, 0, np.maximum)


def sup_convolution_t(field: ArcField, delta) -> tuple[ArcField, float]:
    """t-partial sup-convolution u^d(s,t) = max_r u(s,r) - (r-t)^2 / (2 delta).

    Returns the transformed field and the measured maximal shift
    T_delta = max |r*(s,t) - t| of the optimizing time.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    grid = field.grid
    t = grid.t_nodes()
    pen = (t[None, :] - t[:, None]) ** 2 / (2.0 * delta)  # [t, r]
    out = np.empty_like(field.values)
    shift = 0
    for i in range(grid.ns + 1):
        cand = field.values[:, i][None, :] - pen  # [t, r]
        rstar = np.argmax(cand, axis=1)
        out[:, i] = cand[np.arange(t.size), rstar]
        shift = max(shift, int(np.max(np.abs(rstar - np.arange(t.size)))))
    return replace(field, values=out), float(shift * grid.dt)


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
    """Safe merge window: half the strict finite-speed bound.

    With M the momentum-Lipschitz constant over the slope bound (floored at
    3), differences of solutions sharing initial data stay confined for
    times below 1/(2M) - 1/M^2; half of that is returned.
    """
    if lipschitz_bound <= 0:
        raise ValueError("lipschitz_bound must be positive")
    M = max(momentum_lipschitz(H, lipschitz_bound), 3.0)
    return 0.5 * (1.0 / (2.0 * M) - 1.0 / (M * M))
