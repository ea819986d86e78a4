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

One batched kernel does every march: ``_lf_step`` advances an (R, ns + 1)
stack of arc rows of any kinds, with per-row theta, on the column tables of
``_ArcStack``, and returns the interior update and both state-constraint
endpoint candidates; the caller applies the sides.  It serves
``max_subsolution`` (R = 1), the network solver (all edges of every
scenario it marches together), the certificate (all arc transforms) and the
residual scans.

Also provided: the exact cone solution of w_t - M |w'| = 0 used as a
finite-speed oracle, Lipschitz envelopes, t-partial sup-convolution, minimum
merges, time gluing, residual scans, and the finite-speed window within
which lateral data cannot reach an arc's interior.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CFLViolationError,
    CornerMismatchError,
    EmptySublevelError,
    GridMismatchError,
    TimeMismatchError,
    TraceMismatchError,
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
    "lipschitz_envelope_below",
    "sup_convolution_t",
    "min_merge",
    "glue_in_time",
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

    @property
    def t_end(self):
        return self.t0 + self.dt * self.nt


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
    max_slope: float = 0.0

    def trace(self, side):
        idx = 0 if side == "left" else -1
        return self.values[:, idx].copy()

    def final(self):
        return self.values[-1].copy()


class _ArcStack:
    """Column tables of R arcs at the ns + 1 nodes of one s-grid, grouped by
    kind; p_star[r] holds row r's momentum minimizers at s = 0 and s = 1."""

    def __init__(self, hams, ns):
        s = np.linspace(0.0, 1.0, ns + 1)
        groups = {}
        for i, H in enumerate(hams):
            key = (H.kind, 0 if H.p_knots is None else H.p_knots.size)
            groups.setdefault(key, []).append(i)
        self.groups = [(np.array(idx), _Columns([hams[i] for i in idx], s))
                       for idx in groups.values()]
        self.p_star = np.stack([momentum_minimizer(H, [0.0, 1.0])
                                for H in hams])

    def __call__(self, p):
        if len(self.groups) == 1:  # also lets one arc's table take any rows
            return self.groups[0][1](p)
        out = np.empty(p.shape)
        for rows, cols in self.groups:
            out[rows] = cols(p[rows])
        return out


def _lf_step(tab, u, half_theta, dt):
    """One step of the rows u (R, ns+1) with half_theta scalar or (R, 1).

    Returns the update (state-constraint candidates in columns 0 and ns), the
    cell slopes of u, and Hhat, which at the ends is H at the one-sided slope
    clipped to the monotone branch (p <= p* at s = 0, p >= p* at s = 1).
    """
    pm = np.diff(u, axis=1) * (u.shape[1] - 1)
    p = np.empty(u.shape)
    p[:, 1:-1] = 0.5 * (pm[:, :-1] + pm[:, 1:])
    p[:, 0] = np.minimum(pm[:, 0], tab.p_star[:, 0])
    p[:, -1] = np.maximum(pm[:, -1], tab.p_star[:, 1])
    hh = tab(p)
    hh[:, 1:-1] -= half_theta * (pm[:, 1:] - pm[:, :-1])
    return u - dt * hh, pm, hh


def default_dissipation(H, initial, left=None, right=None, dt=None, slack=1.0):
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
    return momentum_lipschitz(H, max(width, gmax) + slack)


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
    tab = _ArcStack([H], grid.ns)
    values = np.empty((grid.nt + 1, grid.ns + 1))
    values[0] = initial
    u = initial[None, :]
    max_slope = float(np.max(np.abs(np.diff(initial)))) * grid.ns
    for k in range(grid.nt):
        u, pm, _ = _lf_step(tab, u, 0.5 * theta, grid.dt)
        if left.kind == "constrained":
            u[0, 0] = min(u[0, 0], left.datum[k + 1])
        if right.kind == "constrained":
            u[0, -1] = min(u[0, -1], right.datum[k + 1])
        values[k + 1] = u[0]
        max_slope = max(max_slope, float(np.max(np.abs(pm))))
    return ArcField(grid=grid, values=values, left=left, right=right,
                    initial=initial, theta=theta, max_slope=max_slope)


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


def lipschitz_envelope_below(values, n, dt=None, ds=None):
    """Largest n-Lipschitz function below the input; mirror of the above."""
    if isinstance(values, ArcField):
        dt = values.grid.dt if dt is None else dt
        ds = values.grid.ds if ds is None else ds
        values = values.values
    return -lipschitz_envelope_above(-np.asarray(values, dtype=float), n, dt, ds)


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


def _same_grid(g1, g2):
    return (g1.ns == g2.ns and g1.nt == g2.nt
            and abs(g1.dt - g2.dt) <= 1e-12 * g1.dt
            and abs(g1.t0 - g2.t0) <= 1e-9 * (1.0 + abs(g1.t0)))


def min_merge(f1: ArcField, f2: ArcField) -> ArcField:
    """Pointwise minimum of two fields on one grid (min of subsolutions)."""
    if not _same_grid(f1.grid, f2.grid):
        raise GridMismatchError("min_merge requires identical grids")

    def merge_mode(a, b):
        if a.kind == "constrained" and b.kind == "constrained":
            return constrained(np.minimum(a.datum, b.datum))
        return free()

    return ArcField(grid=f1.grid, values=np.minimum(f1.values, f2.values),
                    left=merge_mode(f1.left, f2.left),
                    right=merge_mode(f1.right, f2.right),
                    initial=np.minimum(f1.initial, f2.initial),
                    theta=max(f1.theta or 0.0, f2.theta or 0.0),
                    max_slope=max(f1.max_slope, f2.max_slope))


def glue_in_time(early: ArcField, late: ArcField, tol=1e-12) -> ArcField:
    """Concatenate two fields that meet at one time slice."""
    ge, gl = early.grid, late.grid
    if ge.ns != gl.ns or abs(ge.dt - gl.dt) > 1e-12 * ge.dt:
        raise GridMismatchError("gluing requires matching ds and dt")
    if abs(ge.t_end - gl.t0) > 1e-9 * (1.0 + abs(gl.t0)):
        raise TimeMismatchError(
            f"early field ends at {ge.t_end}, late starts at {gl.t0}")
    scale = 1.0 + float(np.max(np.abs(early.values[-1])))
    gap = float(np.max(np.abs(early.values[-1] - late.values[0])))
    if gap > tol * scale:
        raise TraceMismatchError(f"junction traces differ by {gap:.3e}")

    def glue_mode(a, b):
        if a.kind != b.kind:
            return free()
        if a.kind == "constrained":
            return constrained(np.concatenate([a.datum, b.datum[1:]]))
        return free()

    grid = Grid2D(ge.ns, ge.t0, ge.dt, ge.nt + gl.nt)
    return ArcField(grid=grid,
                    values=np.vstack([early.values, late.values[1:]]),
                    left=glue_mode(early.left, late.left),
                    right=glue_mode(early.right, late.right),
                    initial=early.initial,
                    theta=max(early.theta or 0.0, late.theta or 0.0),
                    max_slope=max(early.max_slope, late.max_slope))


def _interior_residuals(u, H, theta, dt):
    """u_t + Hhat at the interior nodes of the rows u (nt+1, ns+1)."""
    if u.shape[0] == 1:
        return np.zeros((0, max(u.shape[1] - 2, 0)))
    hh = _lf_step(_ArcStack([H], u.shape[1] - 1), u[:-1], 0.5 * theta, dt)[2]
    return np.diff(u[:, 1:-1], axis=0) / dt + hh[:, 1:-1]


def _field_residuals(field: ArcField, H, theta):
    if theta is None:
        theta = field.theta
    if theta is None:
        theta = momentum_lipschitz(H, field.max_slope + 1.0)
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
