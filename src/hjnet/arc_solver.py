"""Monotone finite differences on one arc's space-time rectangle.

The marching scheme for u_t + H(s, u') = 0 uses the dissipative numerical
Hamiltonian

    Hhat(s, pm, pp) = H(s, (pm + pp)/2) - (theta/2) (pp - pm)

with theta at least the momentum-Lipschitz constant of H over the slopes in
play and the step restriction dt * theta <= ds.  Under these the update is
nondecreasing in every stencil value, which is what makes discrete
comparison, equivariance and ordering statements exact at the grid level.
Every march takes theta from its caller; for a network ``plan_solve`` is
the one place that budgets it, for the solve and for the certificate.

Boundary handling:

* constrained side: explicit update, then clip to min(datum, update), which
  keeps the update on a tie; the discrete rendering of "largest subsolution
  with trace at most the datum".
* free side: state constraint; the endpoint follows the one-sided interior
  slope pushed through the *monotone branch* of H (slope clipped at the
  per-s momentum minimizer), so no information enters from outside and the
  update stays order-preserving.

One stepper takes every step: ``_ArcStepper``, built once per march on an
(R, ns + 1) stack of arc rows of any kinds with per-row theta, or once per
kernel of a residual scan.  It groups the rows by kind (by momentum-knot
vector, for the sampled kind) and is bound to its state: an array of its
own that a march seeds, or the caller's C-contiguous rows, which the
residual scan binds without a copy.  All of its views and each kind group's
ufunc calls are bound at construction, and it has one stencil: ``advance()`` steps the state in
place on flat buffers, rows back to back, one contiguous call per stencil
operation (the entries straddling two rows are junk, overwritten by the end
clip or zeroed), and ``hhat()``, its first half, is what the residual scan
reads.  One loop, ``_march``, marches it and its end groups: a network
vertex, capped at v + c_x dt, or a constrained side of an arc with lateral
data (``max_subsolution`` and the certificate's arc transforms), capped at
its datum.  A marched field is an ``ArcField``: its grid, values and
marching theta.

The residual scan that ``verify`` runs, u_t + Hhat at the interior nodes
of every arc, takes the arcs kernel by kernel.  A kernel is one
``_Columns`` call sequence: the kind, the sampled kind's momentum knots,
and the unit and centered flags of the symbolic kinds.  Each kernel builds
one stepper on its first arc and re-points it at the others: their
coefficients go into the arrays its calls read, their theta / 2 and end
minimizers into place, and their rows are bound without a copy.  A march
never re-points, so its steps are untouched.  ``_interior_residuals`` is
the one-arc case of the scan, as ``max_subsolution`` is of the stack
march.

Also provided: the finite-speed window within which lateral data cannot
reach an arc's interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (CFLViolationError, CornerMismatchError, GridMismatchError,
                     ValidationError)
from .hamiltonians import (_Columns, _grid_coefficients, _kernel,
                           momentum_lipschitz)

__all__ = [
    "Grid2D",
    "ArcField",
    "free",
    "constrained",
    "max_subsolution",
    "propagation_window",
]

_START_TOL = 1e-9  # relative: two vertex values that must agree at t0
_STEP_SLACK = 1e-12  # relative roundoff allowed over the step restriction


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


def free():
    """State-constraint side, which takes no datum: None."""
    return None


def constrained(datum) -> np.ndarray:
    """Side where the trace must stay at or below the datum: its values as
    a float array."""
    return np.asarray(getattr(datum, "values", datum), dtype=float)


@dataclass(eq=False)
class ArcField:
    """Gridded u(s,t) on one arc; values indexed [time, space]; theta is the
    dissipation it was marched with."""

    grid: Grid2D
    values: np.ndarray
    theta: float


class _ArcStepper:
    """One monotone scheme step for a stack of arc rows, bound to its state.

    Stack row r is ``hams[order[r]]``, rows grouped by kind (sampled ones by
    momentum knots); theta is a scalar or one value per Hamiltonian.  The
    state is the (R, ns + 1) C-contiguous stack the stepper works on: for a
    march, an array of its own that the caller seeds; given ``state``, the
    caller's rows, bound without a copy, which one Hamiltonian with a
    scalar theta may serve.  Such a stepper is built once per kernel of a
    residual scan and re-pointed (``point``) at the kernel's other arcs.
    Every view of the flat buffers, rows back to back, and each kind group's
    ufunc calls are bound here, once; a re-point rewrites the arrays they
    read and rebinds the state views, so the calls stay as built.  ``advance()`` steps the state in place,
    columns 0 and ns holding the state-constraint candidates that ``_march``
    clips; ``hhat()``, its first half, returns Hhat of the state.  The end
    clip overwrites the momenta that straddle two rows, and the dissipation
    term is +0.0 at both row ends, so an end node keeps H at its clipped
    slope exactly.
    """

    def __init__(self, hams, ns, theta, dt, state=None):
        groups = {}
        for i, H in enumerate(hams):
            groups.setdefault(H._stack_key, []).append(i)
        self.order = np.array([i for idx in groups.values() for i in idx])
        # momentum minimizers of the rows at s = 0 and at s = 1
        self.p_star = np.array([hams[i]._p_ends for i in self.order]).T.copy()
        self.ns, c = ns, ns + 1
        n = len(hams) if state is None else state.shape[0]
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
        self.factor = factor = np.empty((2, n * c - 1 if half.ndim else 1))
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
        calls = [call for _, group_calls in self.groups for call in group_calls]
        u = u_lo = u_hi = None
        slopes = pm[:-1]
        pm_lo, pm_hi, p_mid, d = pm[:-2], pm[1:-1], fp[1:-1], ft[1:-1]
        pm_0, pm_n, p_0, p_n = slopes[::c], slopes[ns - 1::c], fp[::c], fp[ns::c]
        p_star_0, p_star_n = self.p_star
        d_ends = tmp[:, ::ns]
        # 0-d arrays: cheaper operands for a ufunc than Python numbers
        ns_f, dt_f = np.array(float(ns)), np.array(float(dt))

        def bind(rows):
            """Bind the state to the caller's (n, ns + 1) C-contiguous rows,
            without a copy."""
            nonlocal u, u_lo, u_hi
            if rows.shape != (n, c):
                raise ValueError(f"the state must have shape {(n, c)}")
            if not rows.flags.c_contiguous:
                raise ValueError("the state must be C-contiguous")
            u = rows.reshape(-1)
            u_lo, u_hi = u[:-1], u[1:]

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
            for call in calls:
                call()
            d_ends.fill(0.0)
            np.subtract(fh, ft, fh)
            return hh

        def advance():
            """Step the state in place."""
            hhat()
            np.multiply(fh, dt_f, ft)
            np.subtract(u, ft, u)

        self.state = np.empty((n, c)) if state is None else state
        bind(self.state)
        # no closure holds self, so the buffers go with the last reference
        self.hh, self.hhat, self.advance, self._bind = hh, hhat, advance, bind

    def point(self, H, theta, state):
        """Re-point a stepper built on one Hamiltonian at H, of its kernel
        (``_kernel`` on its grid), with the scalar theta, bound to the
        caller's rows state of its shape: H's coefficients go into the
        arrays the bound calls read, theta / 2 into the dissipation factor
        and H's end minimizers into the clip bounds, and the state views are
        rebound without a copy."""
        (cols, _), = self.groups
        cols.load([H], [_grid_coefficients(H, self.ns)])
        self.factor[1] = 0.5 * float(theta)
        self.p_star[:, 0] = H._p_ends
        self._bind(state)
        self.state = state


def _check_monotone(dt, theta, ds, edge=None):
    """The step restriction dt * theta <= ds, up to the relative
    ``_STEP_SLACK``, which a NaN theta fails; a violation names the edge when
    one is given."""
    if not dt * theta <= ds * (1.0 + _STEP_SLACK):
        where = "" if edge is None else f"edge {edge!r}: "
        raise CFLViolationError(
            f"{where}dt*theta = {dt * theta:.3e} exceeds ds = {ds:.3e}")


def _march(hams, init, theta, grid, ends, limit, record):
    """March rows ``hams[i]`` from ``init[i]`` with ``theta[i]``; returns
    the columns ``record`` picks (an index or a slice) of every row at every
    step, (R, nt+1, ...) in stack order, and ``row``: caller row i is row[i].

    An end group is a list of (row, column) nodes that share one value after
    each step: min(limit, its smallest node).  ``limit`` is an (nt+1, groups)
    table of given limits, or one slope c per group for the limit v + c dt,
    v the group's value a step before (at t0 its smallest node).
    """
    step = _ArcStepper(hams, grid.ns, theta, grid.dt)
    u, advance = step.state, step.advance
    np.stack([init[i] for i in step.order], out=u)
    row = np.argsort(step.order)   # the stack row of each caller row
    # the groups' nodes in the stack's flat block, group after group
    group_of, r, c = np.array([(i, *n) for i, g in enumerate(ends) for n in g],
                              dtype=int).reshape(-1, 3).T
    gather = row[r] * u.shape[1] + c
    starts = np.searchsorted(group_of, np.arange(len(ends)))  # first nodes
    flat = u.reshape(-1)
    at_ends = flat[gather]
    vval = np.minimum.reduceat(at_ends, starts)
    vnew = np.empty_like(at_ends)
    grouped = gather.size > len(ends)   # else each node is its own group
    vmin = np.empty_like(vval) if grouped else at_ends
    cap, c_dt = limit.ndim == 1, limit * grid.dt
    kept = u[:, record]
    block = np.empty((len(hams), grid.nt + 1) + kept.shape[1:])
    steps = block.swapaxes(0, 1)   # steps[k] is every row at step k
    steps[0] = kept
    for k in range(1, grid.nt + 1):
        advance()
        # in-range indices: "clip" skips take's out= buffering; put gains none
        flat.take(gather, out=at_ends, mode="clip")
        if grouped:
            np.minimum.reduceat(at_ends, starts, out=vmin)
        if cap:
            np.add(vval, c_dt, vval)
        np.minimum(vval if cap else limit[k], vmin, out=vval)
        flat.put(gather, vval.take(group_of, out=vnew, mode="clip")
                 if grouped else vval)
        steps[k] = kept
    return block, row


def _march_arcs(hams, init, left, right, grid, theta, record):
    """March a stack of arcs; returns the columns ``record`` picks (an index
    or a slice) of every arc at every step, (R, nt+1, ...), in input order.

    Per arc: an initial datum on the s-grid, a left and a right datum on the
    time grid (None: a free side) and its theta.  The stack is checked as a
    whole, with the errors one bad arc raises alone.  A constrained side is
    a one-node end group capped at its datum.
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
    for th in theta:
        _check_monotone(grid.dt, th, grid.ds)
    if any(d.shape != (grid.nt + 1,) for d in data):
        raise GridMismatchError("constrained datum must live on the full time grid")
    ends = [(i, j * grid.ns) for i, lr in enumerate(sides)
            for j, d in enumerate(lr) if d is not None]
    limit = np.array(data).reshape(len(data), grid.nt + 1).T.copy()
    at0, g_end = limit[0], np.array([init[i][c] for i, c in ends])
    low = at0 < g_end - _START_TOL * (1.0 + np.abs(g_end))
    if low.any():
        raise CornerMismatchError(f"lateral datum at t0 ({at0[low][0]}) "
                                  f"below initial endpoint ({g_end[low][0]})")
    block, row = _march(hams, init, theta, grid, [[e] for e in ends], limit,
                        record)
    return block[row]


def max_subsolution(H, initial, left, right, grid, theta) -> ArcField:
    """March the monotone scheme; converges to the maximal subsolution.

    initial is sampled on the s-grid; a side, left or right, is its datum
    on the time grid, an array (``constrained``), or None for a free side
    (``free``).  The returned field solves the discrete equation exactly at
    interior nodes, matches the initial datum exactly at t0, and keeps
    constrained traces at or below their datum; it is marched with the
    dissipation theta, and is the one-arc case of the stack march.
    """
    values = _march_arcs([H], [initial], [left], [right], grid, [theta],
                         slice(None))
    return ArcField(grid=grid, values=values[0], theta=float(theta))


def _residual_scan(hams, theta, rows, ns, dt):
    """Yield (i, r) for every arc i of hams, kernel by kernel: r is
    u_t + Hhat at the interior nodes of arc i's rows u = rows(i), (nt+1,
    ns+1) and of one shape for every arc, with u_t = diff(u) / dt.

    The arcs of one kernel (``_kernel`` on the ns-cell grid) share one
    stepper, built on the first and re-pointed at each of the others, and
    dropped before the next kernel's is built.  The stepper binds the rows
    before the last without a copy when they are C-contiguous, a copy of
    them when not.
    """
    kernels = {}
    for i, H in enumerate(hams):
        kernels.setdefault(_kernel(H, ns), []).append(i)
    for idx in kernels.values():
        step = None    # drops the last kernel's stepper
        for i in idx:
            u = rows(i)
            if u.shape[0] == 1:
                yield i, np.zeros((0, ns - 1))
                continue
            state = np.ascontiguousarray(u[:-1])   # u[:-1] itself if it can
            if step is None:
                step = _ArcStepper([hams[i]], ns, theta[i], dt, state=state)
            else:
                step.point(hams[i], theta[i], state)
            # whole rows: contiguous operands are numpy's fast path
            r = np.subtract(u[1:], u[:-1])
            r /= dt
            r += step.hhat()
            yield i, r[:, 1:-1]


def _interior_residuals(u, H, theta, dt):
    """u_t + Hhat at the interior nodes of the rows u (nt+1, ns+1), with
    u_t = diff(u) / dt: the one-arc case of the residual scan."""
    ((_, r),) = _residual_scan([H], [theta], lambda i: u, u.shape[1] - 1, dt)
    return r


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
