"""Constructive solver for the network problem, plus its checks.

All edges march as one (E, ns+1) stack, coupled only at the vertices.  Each
time step advances every arc by one monotone scheme step, whose endpoint
columns are state-constraint candidates; then every vertex x takes

    v[k+1] = min(v[k] + c_x dt, min of the incident arcs' candidates),

the one-step recursion of the slope-cap transform at the flux limiter c_x,
applied online, and writes v[k+1] back to both ends of its edges, so all
traces at a vertex agree exactly; each vertex is one end group of ``_march``.

One march serves one scenario or many: ``solve_ensemble`` stacks the edges
of several scenarios on one grid into one array and their vertex groups into
one reduction, with nothing coupling two members, and ``solve`` is its
one-member case.  The contraction, shift and stability checks march the
runs they compare in one call.

Everything runs on a normalized family with strictly positive Hamiltonians
(adding a constant a to all of them and subtracting it from the limiter);
the output is corrected back by u -> u + a (t - t0).  ``Scenario.normalized``
derives that normalization and ``Scenario.constants`` the slope budget m0
and the space-slope bounds taken on it, once per Scenario object; planning,
solving, verifying and reloading all read that one record.  Beside it a
Scenario keeps its validation, its limiter report and its datum slope
maxima, so every march and every plan validates each object once, planning
budgets it once and ``verify`` reports the limiter from the same record.

The verification battery re-derives from a finished solution the limiter,
interior residuals, vertex certificate, vertex slope, time monotonicity,
time and space Lipschitz bounds, vertex continuity and dissipation
headroom, each as its worst excess over a vertex or an edge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .arc_solver import (_STEP_SLACK, Grid2D, _check_monotone, _march,
                         _residual_scan)
from .errors import (
    CFLViolationError,
    GridMismatchError,
    NonNegativeSlopeError,
    ValidationError,
)
from .hamiltonians import (
    HamiltonianFamily,
    _grid_peak,
    _shifted_problem,
    cell_widths,
    momentum_lipschitz,
    positive_shift,
    sublevel_width,
    subsolution_levels,
)
from .network import LimiterReport, validate_flux_limiter
from .semidiscrete import VertexTraceSet, discr_residual

__all__ = [
    "Scenario",
    "SolveParams",
    "NetworkSolution",
    "validate_scenario",
    "with_resolution",
    "compute_m0",
    "plan_solve",
    "solve",
    "solve_ensemble",
    "verify",
    "CHECK_NAMES",
    "default_epsilon",
    "calibrate_epsilon",
    "contraction_check",
    "shift_check",
    "stability_sweep",
    "restart_check",
    "interior_bump",
]

_EPS_FACTOR = 3.0      # a scheme tolerance: this times C (ds + dt)
_RESID_TOL = 1e-9      # interior residual of the discrete equation
_TRACE_TOL = 1e-12     # vertex continuity
_CONTRACTION_SLACK = 1e-11  # roundoff allowed in ordering and contraction
_SHIFT_TOL = 1e-12     # relative to 1 + sup |u|


@dataclass(frozen=True)
class SolveConstants:
    """The normalized problem of a scenario and the bounds derived on it."""

    shift: float            # a: every H raised by a, every c_x lowered by a
    m0: float               # slope budget of the normalized problem
    l_bound: dict           # edge id -> largest pointwise width at m0
    hamiltonians: HamiltonianFamily = field(compare=False, repr=False)
    limiter: dict = field(compare=False, repr=False)  # shifted c_x


@dataclass(frozen=True)
class Scenario:
    """A network problem instance: geometry, Hamiltonians, limiter, datum."""

    network: object
    hamiltonians: HamiltonianFamily
    limiter: dict
    initial: dict          # edge id -> datum samples on the s-grid (ns+1,)
    horizon: float         # duration T
    t0: float = 0.0
    ns: int = 200
    dt: float | None = None
    cfl: float | None = None
    name: str = "scenario"

    def limiter_values(self):
        return dict(self.limiter)

    # The cached records below depend on the scenario alone and are derived
    # once per Scenario object; a changed input means a new object
    # (``replace``), which derives its own.

    @cached_property
    def normalized(self):
        """``positive_shift`` of the family and the limiter: the shifted
        family, the shift a and the shifted c_x."""
        return positive_shift(self.hamiltonians, self.limiter_values())

    @cached_property
    def constants(self) -> SolveConstants:
        """Positivity shift, slope budget and space-slope bounds."""
        fam, a, lim = self.normalized
        m0s = compute_m0(replace(self, hamiltonians=fam, limiter=lim))
        return SolveConstants(
            shift=a, m0=m0s,
            l_bound={arc.id: sublevel_width(fam[arc.id], m0s)
                     for arc in self.network.edge_arcs()},
            hamiltonians=fam, limiter=lim)

    @cached_property
    def limiter_report(self) -> LimiterReport:
        """c_x against min c_gamma at every vertex, violated or not."""
        return validate_flux_limiter(self.network, self.limiter_values(),
                                     self.hamiltonians.by_arc)

    @cached_property
    def validation(self) -> LimiterReport:
        """The report of ``validate_scenario``; an invalid scenario caches
        nothing and raises again on every read."""
        return validate_scenario(self)

    @cached_property
    def datum_slopes(self) -> dict:
        """Edge id -> the largest |slope| of its initial datum."""
        slopes = {}
        for arc in self.network.edge_arcs():
            g = np.asarray(self.initial[arc.id], dtype=float)
            slopes[arc.id] = float(np.abs(g[1:] - g[:-1]).max()) * self.ns
        return slopes


def validate_scenario(sc: Scenario):
    """Grid size, time step, limiter admissibility, datum shape, vertex
    consistency of the datum to the continuity gate's ``_TRACE_TOL``;
    ``Scenario.validation`` keeps the result."""
    if sc.ns < 2:
        raise ValidationError("ns must be at least 2")
    if not np.isfinite(sc.t0):
        raise ValidationError(f"t0 must be finite, got {sc.t0}")
    if not (np.isfinite(sc.horizon) and sc.horizon > 0):
        raise ValidationError(
            f"horizon must be finite and positive, got {sc.horizon}")
    if sc.dt is not None and not (np.isfinite(sc.dt) and sc.dt > 0):
        raise ValidationError(f"dt must be finite and positive, got {sc.dt}")
    rep = sc.limiter_report
    if not rep.ok:
        bad = rep.failures()[0]
        raise ValidationError(
            f"flux limiter exceeds min c_gamma at {bad.vertex} "
            f"(margin {bad.margin:.6g})")
    at_vertex = {}   # vertex id -> the lowest and highest datum value there
    for arc in sc.network.edge_arcs():
        if arc.id not in sc.initial:
            raise ValidationError(f"edge {arc.id!r} is missing its initial datum")
        g = np.asarray(sc.initial[arc.id], dtype=float)
        if g.shape != (sc.ns + 1,):
            raise ValidationError(
                f"initial datum of edge {arc.id!r} must have {sc.ns + 1} samples")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"initial datum of edge {arc.id!r} not finite")
        for vid, val in ((arc.start, g[0]), (arc.end, g[-1])):
            lo, hi = at_vertex.get(vid, (val, val))
            lo, hi = at_vertex[vid] = min(lo, val), max(hi, val)
            if hi - lo > _TRACE_TOL:
                raise ValidationError(
                    f"initial datum inconsistent at vertex {vid!r}: "
                    f"{lo if val == hi else hi} vs {val}")
    return rep


def with_resolution(sc: Scenario, ns: int) -> Scenario:
    """Resample the (piecewise-linear) initial datum onto a new s-grid; a
    given time step scales with ds, so dt/ds stays as it was.  At the
    scenario's own ns it returns the scenario itself, whose cached records
    a refinement study's first level then reuses."""
    if ns == sc.ns:
        return sc
    s_old = np.linspace(0.0, 1.0, sc.ns + 1)
    s_new = np.linspace(0.0, 1.0, ns + 1)
    g = {eid: np.interp(s_new, s_old, np.asarray(arr, dtype=float))
         for eid, arr in sc.initial.items()}
    dt = None if sc.dt is None else sc.dt * (sc.ns / ns)
    return replace(sc, ns=ns, initial=g, dt=dt)


def compute_m0(sc: Scenario) -> float:
    """Time-slope budget: datum stationary level joined with max |c_x| and
    with the largest min_p H at the field nodes, so that the sublevel set at
    m0 is non-empty at every node the checks read."""
    arcs = sc.network.edge_arcs()
    hams = [sc.hamiltonians[a.id] for a in arcs]
    level = max(subsolution_levels(hams, [sc.initial[a.id] for a in arcs]))
    cmax = max(abs(c) for c in sc.limiter_values().values())
    peak = max(_grid_peak(H, sc.ns) for H in hams)
    return max(level, cmax, peak)


@dataclass(frozen=True)
class SolveParams:
    """Grid and dissipation shared by comparable runs."""

    ns: int
    dt: float
    nt: int
    theta: dict            # edge id -> dissipation coefficient


def plan_solve(scenario: Scenario, others=()) -> SolveParams:
    """Choose dissipation and time step.

    ``others`` lists scenarios that must run on the very same grid (for
    exact comparisons); budgets are taken over all of them.  The default
    time step sits at the monotonicity boundary dt = ds / max(theta), with
    theta inflated by (1 + ds) over the momentum Lipschitz constant: the
    surplus dissipation, proportional to ds, keeps the scheme first-order
    on linearly-degenerate kinks instead of Theta(sqrt(ds)).
    """
    scens = [scenario, *others]
    for sc in scens:
        sc.validation               # raises ValidationError on bad input
        if sc.ns != scenario.ns:
            raise ValidationError("comparable scenarios must share ns")
    ds = 1.0 / scenario.ns
    budgets = {}
    for sc in scens:
        for arc in sc.network.edge_arcs():
            budgets[arc.id] = max(budgets.get(arc.id, 0.0),
                                  sc.constants.l_bound[arc.id],
                                  sc.datum_slopes[arc.id])
    theta = {arc.id: momentum_lipschitz(scenario.hamiltonians[arc.id],
                                        budgets[arc.id] + 1.0) * (1.0 + ds)
             for arc in scenario.network.edge_arcs()}
    th_max = max(theta.values())
    dt_cap = ds / th_max
    if scenario.dt is not None:
        if scenario.dt > dt_cap * (1.0 + _STEP_SLACK):
            raise CFLViolationError(
                f"requested dt {scenario.dt} exceeds {dt_cap:.3e}")
        dt0 = scenario.dt
    elif scenario.cfl is not None:
        if not 0 < scenario.cfl <= 1:
            raise ValidationError("cfl must lie in (0, 1]")
        dt0 = scenario.cfl * dt_cap
    else:
        dt0 = dt_cap
    T = scenario.horizon
    nt = max(1, int(np.ceil(T / dt0 - 1e-9)))
    return SolveParams(ns=scenario.ns, dt=T / nt, nt=nt, theta=theta)


@dataclass(eq=False)
class NetworkSolution:
    scenario: Scenario
    params: SolveParams
    grid: Grid2D
    fields: dict            # edge id -> (nt+1, ns+1) original-problem values
    vertex: dict            # vertex id -> (nt+1,)

    @property
    def constants(self) -> SolveConstants:
        return self.scenario.constants

    def trace_set(self, shifted=False) -> VertexTraceSet:
        lift = _time_shift(self.constants.shift if shifted else 0.0, self.grid)
        traces = {x: v - lift for x, v in self.vertex.items()}
        init = {eid: self.fields[eid][0].copy() for eid in self.fields}
        return VertexTraceSet(self.grid, traces, init)

    def sup_diff(self, other) -> float:
        return max(float(np.abs(self.fields[e] - other.fields[e]).max())
                   for e in self.fields)


def solve(scenario: Scenario, params: SolveParams | None = None) -> NetworkSolution:
    """March the whole horizon, all edges as one (E, ns+1) stack capped at
    the vertices step by step."""
    if params is None:
        params = plan_solve(scenario)
    return solve_ensemble([scenario], params)[0]


def solve_ensemble(scenarios, params: SolveParams) -> list:
    """March scenarios that share one grid together; one solution each.

    The members' edges stack into one (sum E, ns+1) array and their
    vertices into the march's end groups, so no vertex couples two members
    and every member gets bitwise the solution it gets alone on ``params``.
    Each member must fit ``params`` and pass ``Scenario.validation``.
    Each edge's field is a view of one (sum E, nt+1, ns+1) block.  Plan
    comparable runs with ``plan_solve(sc, others=...)``; members may come
    from different networks as long as ``params.theta`` covers every edge.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValidationError("an ensemble needs at least one scenario")
    ns, dt, nt = params.ns, params.dt, params.nt
    grid = Grid2D(ns, scenarios[0].t0, dt, nt)
    hams, init, theta, c_x, groups = [], [], [], [], []
    members = []
    for sc in scenarios:
        if sc.ns != ns or sc.t0 != grid.t0:
            raise GridMismatchError(
                f"scenario {sc.name!r} (ns={sc.ns}, t0={sc.t0}) is off the "
                f"ensemble grid (ns={ns}, t0={grid.t0})")
        edges, vids = sc.network.edge_arcs(), sc.network.vertex_ids()
        lim = sc.normalized[2]
        for x in vids:
            # a missing vertex is left to the validation's named error
            if x in lim and not lim[x] < 0:
                raise NonNegativeSlopeError(
                    f"flux limiter at vertex {x!r} must be negative after the "
                    f"positivity shift, got {lim[x]}")
        sc.validation               # raises ValidationError on bad input
        const = sc.constants
        r0 = len(init)
        members.append((sc, edges, vids, r0, len(c_x), const.shift))
        c_x += [lim[x] for x in vids]
        for a in edges:
            theta.append(_edge_theta(params, a.id, grid))
            hams.append(const.hamiltonians[a.id])
            init.append(np.asarray(sc.initial[a.id], dtype=float))
        # an arc enters its end vertex at column ns, its reverse at column 0
        pos = {a.id: (r0 + i, ns) for i, a in enumerate(edges)}
        pos.update({a.inverse_id: (r0 + i, 0) for i, a in enumerate(edges)})
        into = sc.network.incidence()   # groups follow incident_arcs
        groups += [[pos[aid] for aid in into[x]] for x in vids]

    fields, row = _march(hams, init, theta, grid, groups, np.array(c_x),
                         slice(None))
    # each vertex's trace is read back at the first end of its group; at t0
    # it is the group's smallest datum value, where the march starts
    vr, vc = np.array([g[0] for g in groups]).T
    vtr = fields[row[vr], :, vc]
    nr, nc = np.array([n for g in groups for n in g]).T
    firsts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    vtr[:, 0] = np.minimum.reduceat(fields[row[nr], 0, nc], firsts)

    sols = []
    for sc, edges, vids, r0, v0, shift_a in members:
        f = [fields[row[r0 + i]] for i in range(len(edges))]
        v = vtr[v0:v0 + len(vids)]
        if shift_a != 0.0:
            lift = _time_shift(shift_a, grid)
            for fi in f:
                fi += lift[:, None]
            v += lift
        sols.append(NetworkSolution(
            scenario=sc, params=params, grid=grid,
            fields={a.id: f[i] for i, a in enumerate(edges)},
            vertex={x: v[i] for i, x in enumerate(vids)}))
    return sols


def _edge_theta(params, edge, grid):
    """The edge's theta in params, as a float that passes the step
    restriction on grid; a missing one raises ValidationError, one over the
    restriction (or NaN) CFLViolationError, each naming the edge."""
    if edge not in params.theta:
        raise ValidationError(f"params carry no theta for edge {edge!r}")
    th = float(params.theta[edge])
    _check_monotone(grid.dt, th, grid.ds, edge)
    return th


def _time_shift(a, grid):
    """a (t - t0) on the grid's time nodes, as a (k dt): the one expression
    of the positivity shift's lift, so it does not depend on t0."""
    return a * (np.arange(grid.nt + 1) * grid.dt)


def default_epsilon(solution: NetworkSolution, C=None) -> float:
    """Scheme tolerance _EPS_FACTOR * C * (ds + dt) on the solution's grid;
    C from a refinement calibration, else the fallback 1 + m0."""
    g = solution.grid
    if C is None:
        C = 1.0 + solution.constants.m0
    return _EPS_FACTOR * C * (g.ds + g.dt)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    margin: float
    witness: dict = field(default_factory=dict)


# The battery of verify, in the order it runs them.
CHECK_NAMES = (
    "limiter",
    "interior_residual",
    "discr_certificate",
    "vertex_slope",
    "time_monotone",
    "time_lipschitz",
    "space_lipschitz",
    "vertex_continuity",
    "headroom",
)


@dataclass(frozen=True)
class VerifyReport:
    checks: list
    eps_scheme: float

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify(solution: NetworkSolution, eps_scheme=None,
           checks=None) -> VerifyReport:
    """Run the verification battery on a finished solution.

    Each check records its excess over its tolerance at every vertex or edge
    it tests; the largest, the first on a tie, gives the margin (tolerance
    minus excess) and the witness, which names that vertex or edge.  All
    PDE-level checks run in the normalized (positive-Hamiltonian) frame;
    slope checks and the vertex certificate then transfer to the original
    problem by the exact shift identity.  ``checks`` selects a subset of
    CHECK_NAMES; an unknown name, a field or vertex trace that is not
    finite, or a ``params.theta`` that misses an edge raises
    ValidationError, and an edge's theta over the step restriction (or NaN)
    CFLViolationError, before any check runs.  The interior residuals take
    a pass of their own, kernel by kernel; the other edge checks share one.
    A NaN excess counts as the largest.
    """
    if checks is not None:
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ValidationError(f"unknown check {unknown[0]!r}")
    want = set(CHECK_NAMES if checks is None else checks)
    for eid, f in solution.fields.items():
        if not np.isfinite(f).all():
            raise ValidationError(f"field of edge {eid!r} is not finite")
    for x, tr in solution.vertex.items():
        if not np.isfinite(tr).all():
            raise ValidationError(f"trace at vertex {x!r} is not finite")
    sc = solution.scenario
    params = solution.params
    grid = solution.grid
    edges = sc.network.edge_arcs()
    theta = [_edge_theta(params, arc.id, grid) for arc in edges]
    const = solution.constants
    fam, a, lim, m0s = const.hamiltonians, const.shift, const.limiter, const.m0
    eps = default_epsilon(solution) if eps_scheme is None else float(eps_scheme)
    rec = {c: [] for c in CHECK_NAMES}    # check -> [(excess, witness), ...]

    if "limiter" in want:
        rec["limiter"] = [(e.margin, {"vertex": e.vertex})
                          for e in sc.limiter_report.entries]
    if want & {"discr_certificate", "vertex_slope"}:
        ts = solution.trace_set(shifted=True)
    if "discr_certificate" in want:
        rep = discr_residual(ts, sc.network, fam, lim, eps, thetas=params.theta)
        rec["discr_certificate"] = [
            (e.residual, {"vertex": e.vertex, "t": e.witness_time})
            for e in rep.entries]
    if "vertex_slope" in want and grid.nt:
        rec["vertex_slope"] = [
            (float(((tr[1:] - tr[:-1]) / grid.dt - lim[x]).max()),
             {"vertex": x}) for x, tr in ts.traces.items()]

    # the residual and time checks read the normalized field g, whose
    # Hamiltonians are all positive
    lift, down = _time_shift(a, grid), _time_shift(-m0s, grid)[:, None]

    def normalized(i):
        f = solution.fields[edges[i].id]
        return f - lift[:, None] if a else f

    if "interior_residual" in want:
        # a pass of its own, kernel by kernel, so that each kernel's stepper
        # is gone before the next is built and before the edge pass runs
        worst = [0.0] * len(edges)
        for i, res in _residual_scan([fam[arc.id] for arc in edges], theta,
                                     normalized, grid.ns, grid.dt):
            worst[i] = float(np.abs(res).max(initial=0.0))
        rec["interior_residual"] = [(w, {"edge": arc.id})
                                    for w, arc in zip(worst, edges)]

    # one pass over the edges feeds every other edge check.  The time checks
    # gate on values, first order in the grid as eps is: the rise of g above
    # its running minimum, and the drop of g + m0 t below its running maximum
    # (the rise of its negative); the per-step rates go to the witness.
    timed = grid.nt and want & {"time_monotone", "time_lipschitz"}
    for i, arc in enumerate(edges):
        f = solution.fields[arc.id]
        if timed:
            g = normalized(i)
            g_t = np.subtract(g[1:], g[:-1])
            g_t /= grid.dt
            rec["time_monotone"].append(
                (_rise(g), {"edge": arc.id, "rate": float(g_t.max())}))
            rec["time_lipschitz"].append(
                (_rise(down - g),                 # down - g = -(g + m0 t)
                 {"edge": arc.id, "rate": -float(g_t.min()) - m0s}))
        if want & {"space_lipschitz", "headroom"}:
            # per cell the largest slope over the rows the march differenced
            # (0..nt-1) for headroom, and over all rows against the
            # pointwise sublevel widths at m0 for the Lipschitz bound
            slopes = np.subtract(f[:, 1:], f[:, :-1])
            np.absolute(slopes, out=slopes)
            col = slopes[:-1].max(axis=0, initial=0.0)
            if "space_lipschitz" in want:
                excess = (np.maximum(col, slopes[-1]) * grid.ns
                          - cell_widths(fam[arc.id], grid.ns, m0s))
                j = int(excess.argmax())
                rec["space_lipschitz"].append(
                    (float(excess[j]),
                     {"edge": arc.id, "s": (j + 0.5) / grid.ns}))
            # theta must cover the momentum-Lipschitz constant at those
            # slopes, floored at ds around p = 0; a sampled table's p-range
            # may bound the width
            H = sc.hamiltonians[arc.id]
            seen = float(col.max()) * grid.ns
            rec["headroom"].append((
                momentum_lipschitz(H, max(seen, grid.ds)) - theta[i],
                {"edge": arc.id, "slope_seen": seen,
                 "width_beyond_table": H.kind == "sampled" and bool(
                     const.l_bound[arc.id] >= max(
                         abs(H.p_knots[0]), abs(H.p_knots[-1])) - 1e-12)}))
        if "vertex_continuity" in want:
            rec["vertex_continuity"].append((max(
                float(np.abs(f[:, 0] - solution.vertex[arc.start]).max()),
                float(np.abs(f[:, -1] - solution.vertex[arc.end]).max())),
                {"edge": arc.id}))

    # the limiter's -0.0 keeps its margin -worst to the sign of a zero; its
    # verdict is the limiter report's, which allows the limiter's slack
    tol = {"limiter": -0.0, "interior_residual": _RESID_TOL,
           "vertex_continuity": _TRACE_TOL, "headroom": 0.0}
    out = []
    for name in CHECK_NAMES:
        if name in want:
            # only a zero-step solution's time-difference checks test nothing
            excess, wit = _worst(rec[name])
            cap = tol.get(name, eps)
            ok = sc.limiter_report.ok if name == "limiter" else excess <= cap
            out.append(CheckResult(name, ok, cap - excess, wit))
    return VerifyReport(out, eps)


def _worst(records):
    """The (excess, witness) record of largest excess, the first on a tie; a
    NaN excess is the largest.  No record, a zero-step solution's time
    checks: excess 0 at rate 0."""
    return max(records, key=lambda r: (r[0] != r[0], r[0]),
               default=(0.0, {"rate": 0.0}))


def _rise(u):
    """max over columns and n of u^n - min_{m<=n} u^m for u (nt+1, ns+1),
    scanning only the columns where u ever rises: elsewhere it is 0.  For
    finite u, u^{n+1} > u^n exactly where their difference is positive."""
    cols = (u[1:] > u[:-1]).any(axis=0).nonzero()[0]
    if cols.size == 0:
        return 0.0
    if cols.size < u.shape[1]:
        u = u[:, cols]
    low = np.minimum.accumulate(u, 0)
    return float(np.subtract(u, low, out=low).max())


def calibrate_epsilon(scenario: Scenario, levels=3):
    """Fit the scheme-error constant from a grid-refinement study.

    Solves at ns, 2 ns, 4 ns, ..., measures sup differences of consecutive
    levels on the coarser grid (linear interpolation in time), and returns
    (C, details) with C = max diff / (ds + dt) of the coarser level.  The
    usable tolerance at a level is ``default_epsilon(solution, C)``.  It
    takes at least two levels.
    """
    if levels < 2:
        raise ValidationError(
            f"calibrate_epsilon needs levels >= 2 to compare, got {levels}")
    return _calibrate_from(solve(scenario), levels)[:2]


def _calibrate_from(base: NetworkSolution, levels):
    """``calibrate_epsilon`` of base's scenario, whose level 0 is base, its
    solution on its own plan, and the wall time in seconds of planning and
    solving each finer level, 1 to levels - 1."""
    sc, coarse = base.scenario, base
    C, details, solve_s = 0.0, [], []
    for k in range(1, levels):
        start = time.perf_counter()
        fine = solve(with_resolution(sc, sc.ns * 2 ** k))
        solve_s.append(time.perf_counter() - start)
        d = _level_diff(coarse, fine)
        gc = coarse.grid
        C = max(C, d / (gc.ds + gc.dt))
        details.append({"ns": gc.ns, "dt": gc.dt, "diff": d})
        coarse = fine
    return C, details, solve_s


def _level_diff(coarse: NetworkSolution, fine: NetworkSolution) -> float:
    gc, gf = coarse.grid, fine.grid
    stride = gf.ns // gc.ns
    tc, tf = gc.t_nodes(), gf.t_nodes()
    idx = np.clip(np.searchsorted(tf, tc, side="right") - 1, 0, gf.nt - 1)
    w = (tc - tf[idx]) / gf.dt
    worst = 0.0
    for eid, fc in coarse.fields.items():
        ff = fine.fields[eid][:, ::stride]
        interp = (1.0 - w)[:, None] * ff[idx] + w[:, None] * ff[idx + 1]
        worst = max(worst, float(np.abs(fc - interp).max()))
    return worst


@dataclass(frozen=True)
class ContractionReport:
    sup_diff: float
    datum_gap: float
    ok: bool
    ordered: bool | None    # u1 <= u2 everywhere, when g1 <= g2


def contraction_check(scenario: Scenario, initial2: dict) -> ContractionReport:
    """Nonexpansiveness in the initial datum, on one shared grid."""
    sc2 = replace(scenario, initial={k: np.asarray(v, dtype=float)
                                     for k, v in initial2.items()})
    u1, u2 = solve_ensemble([scenario, sc2],
                            plan_solve(scenario, others=[sc2]))
    gap = max(float(np.abs(np.asarray(scenario.initial[e])
                           - np.asarray(sc2.initial[e])).max())
              for e in scenario.initial)
    d = u1.sup_diff(u2)
    ordered = None
    if all(np.all(np.asarray(scenario.initial[e]) <= np.asarray(sc2.initial[e]))
           for e in scenario.initial):
        ordered = all(np.all(u1.fields[e] <= u2.fields[e] + _CONTRACTION_SLACK)
                      for e in u1.fields)
    return ContractionReport(
        sup_diff=d, datum_gap=gap,
        ok=d <= gap + _CONTRACTION_SLACK * (1.0 + gap), ordered=ordered)


@dataclass(frozen=True)
class ShiftReport:
    shift: float
    max_dev: float
    ok: bool


def shift_check(scenario: Scenario, a: float) -> ShiftReport:
    """Adding a to all Hamiltonians and subtracting it from the limiter
    must reproduce the solution minus a*(t-t0), to near machine accuracy.

    Each run is planned on its own and must land on the same time grid; both
    then march on the original run's parameters.  The two plans' theta may
    differ in the last bit (the sublevel widths are taken at levels a apart,
    which round differently), and one shared theta makes the identity exact
    for the scheme.
    """
    fam2, lim2 = _shifted_problem(scenario.hamiltonians,
                                  scenario.limiter_values(), a)
    sc2 = replace(scenario, hamiltonians=fam2, limiter=lim2)
    params = plan_solve(scenario)
    p2 = plan_solve(sc2)
    if (p2.ns, p2.dt, p2.nt) != (params.ns, params.dt, params.nt):
        raise ValidationError("shifted run landed on a different grid")
    u1, u2 = solve_ensemble([scenario, sc2], params)
    lift = _time_shift(a, u1.grid)
    dev = max(float(np.abs(u2.fields[e] + lift[:, None] - u1.fields[e]).max())
              for e in u1.fields)
    scale = 1.0 + max(float(np.abs(u1.fields[e]).max()) for e in u1.fields)
    return ShiftReport(shift=a, max_dev=dev, ok=dev <= _SHIFT_TOL * scale)


def interior_bump(ns, height=1.0, center=0.5, halfwidth=0.25):
    """Datum perturbation vanishing at both arc endpoints."""
    s = np.linspace(0.0, 1.0, ns + 1)
    y = height * np.maximum(0.0, 1.0 - np.abs(s - center) / halfwidth)
    y[0] = y[-1] = 0.0   # after scaling, so a negative height leaves +0 ends
    return y


@dataclass(frozen=True)
class StabilityReport:
    diffs: list             # sup differences per halving level
    monotone_ok: bool
    eps_used: float


def stability_sweep(scenario: Scenario, eps_h=0.0, eps_c=0.0, eps_g=0.0,
                    levels=3, eps_scheme=None) -> StabilityReport:
    """Halving perturbations of Hamiltonians, limiter and datum.

    Builds `levels` perturbed scenarios with amplitudes eps * 2^-k, solves
    all on one shared grid, and reports the sup differences to the base
    solution; they must decrease monotonically (up to the scheme tolerance).
    """
    perturbed = []
    for k in range(levels):
        f = 2.0 ** (-k)
        fam = scenario.hamiltonians
        lim = scenario.limiter_values()
        init = {e: np.asarray(v, dtype=float).copy()
                for e, v in scenario.initial.items()}
        if eps_h:
            fam, lim = _shifted_problem(fam, lim, eps_h * f)
        if eps_c:
            lim = {x: c - eps_c * f for x, c in lim.items()}
        if eps_g:
            bump = interior_bump(scenario.ns, eps_g * f)
            init = {e: v + bump for e, v in init.items()}
        perturbed.append(replace(scenario, hamiltonians=fam, limiter=lim,
                                 initial=init))
    base, *runs = solve_ensemble([scenario, *perturbed],
                                 plan_solve(scenario, others=perturbed))
    diffs = [sol.sup_diff(base) for sol in runs]
    eps = default_epsilon(base) if eps_scheme is None else float(eps_scheme)
    mono = all(diffs[i + 1] <= diffs[i] + eps for i in range(len(diffs) - 1))
    return StabilityReport(diffs=diffs, monotone_ok=mono, eps_used=eps)


def restart_check(scenario: Scenario, params: SolveParams | None = None):
    """Solve [t0, t0+T]; restart it from its step nt // 2 and byte-compare.

    The restart reuses the full run's parameters, so every step replays the
    operations of the full run's last nt - nt // 2.  The glued run is
    byte-identical when the positivity shift is zero.  A nonzero shift a
    lifts the restart datum by a T/2, which the march carries as a constant
    and may round in the last bit; the returned sup difference shows it.
    """
    if params is None:
        params = plan_solve(scenario)
    nt = params.nt
    half = nt // 2
    full = solve(scenario, params)
    g2 = {eid: f[half].copy() for eid, f in full.fields.items()}
    sc2 = replace(scenario, t0=scenario.t0 + half * params.dt,
                  horizon=(nt - half) * params.dt, initial=g2)
    sol2 = solve(sc2, replace(params, nt=nt - half))
    equal = True
    worst = 0.0
    for eid, f in full.fields.items():
        leg, want = sol2.fields[eid][1:], f[half + 1:]
        if not np.array_equal(leg, want):
            equal = False
        worst = max(worst, float(np.abs(leg - want).max()))
    return equal, worst
