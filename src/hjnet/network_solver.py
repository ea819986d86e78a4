"""Constructive solver for the network problem, plus its checks.

All edges march as one (E, ns+1) stack, coupled only at the vertices.  Each
time step advances every arc by one monotone scheme step, whose endpoint
columns are state-constraint candidates; then every vertex x takes

    v[k+1] = min(v[k] + c_x dt, min of the incident arcs' candidates),

the one-step recursion of the slope-cap transform at the flux limiter c_x,
applied online, and writes v[k+1] back to both ends of its edges, so all
traces at a vertex agree exactly.

One march serves one scenario or many: ``solve_ensemble`` stacks the edges
of several scenarios on one grid into one array and their vertex groups into
one reduction, with nothing coupling two members, and ``solve`` is its
one-member case.  The contraction, shift and stability checks march the
runs they compare in one call.

Everything runs on a normalized family with strictly positive Hamiltonians
(adding a constant a to all of them and subtracting it from the limiter);
the output is corrected back by u -> u + a (t - t0).  ``Scenario.constants``
derives that normalization, with the slope budget m0 and the space-slope
bounds taken on it, once per Scenario object; planning, solving, verifying
and reloading all read that one record.

The verification battery re-derives the certificate of the semidiscrete
vertex system, interior scheme residuals, slope bounds, vertex continuity
and limiter admissibility from a finished solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .arc_solver import (_START_TOL, Grid2D, _ArcStepper, _check_monotone,
                         _interior_residuals)
from .errors import (
    CFLViolationError,
    GridMismatchError,
    NonNegativeSlopeError,
    ValidationError,
)
from .hamiltonians import (
    HamiltonianFamily,
    global_min,
    momentum_lipschitz,
    positive_shift,
    shift_hamiltonian,
    sublevel_widths,
    subsolution_level,
)
from .network import validate_flux_limiter
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
    l_bound: dict           # edge id -> space-slope bound at m0
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

    @cached_property
    def constants(self) -> SolveConstants:
        """Positivity shift, slope budget and space-slope bounds.

        They depend on the scenario alone and are derived once per Scenario
        object; a changed input means a new object (``replace``), which
        derives its own.
        """
        fam, a, lim = positive_shift(self.hamiltonians, self.limiter_values())
        m0s = compute_m0(replace(self, hamiltonians=fam, limiter=lim))
        arcs = self.network.edge_arcs()
        widths = sublevel_widths([fam[arc.id] for arc in arcs], m0s)
        return SolveConstants(
            shift=a, m0=m0s,
            l_bound={arc.id: w for arc, w in zip(arcs, widths)},
            hamiltonians=fam, limiter=lim)


def validate_scenario(sc: Scenario):
    """Grid size, time step, limiter admissibility, datum shape, vertex
    consistency of the datum."""
    if sc.ns < 2:
        raise ValidationError("ns must be at least 2")
    if not np.isfinite(sc.t0):
        raise ValidationError(f"t0 must be finite, got {sc.t0}")
    if not (np.isfinite(sc.horizon) and sc.horizon > 0):
        raise ValidationError(
            f"horizon must be finite and positive, got {sc.horizon}")
    if sc.dt is not None and not (np.isfinite(sc.dt) and sc.dt > 0):
        raise ValidationError(f"dt must be finite and positive, got {sc.dt}")
    rep = validate_flux_limiter(sc.network, sc.limiter_values(),
                                sc.hamiltonians.by_arc)
    if not rep.ok:
        bad = rep.failures()[0]
        raise ValidationError(
            f"flux limiter exceeds min c_gamma at {bad.vertex} "
            f"(margin {bad.margin:.6g})")
    at_vertex = {}
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
            ref = at_vertex.setdefault(vid, val)
            if abs(ref - val) > _START_TOL * (1.0 + abs(ref)):
                raise ValidationError(
                    f"initial datum inconsistent at vertex {vid!r}: "
                    f"{ref} vs {val}")
    return rep


def with_resolution(sc: Scenario, ns: int) -> Scenario:
    """Resample the (piecewise-linear) initial datum onto a new s-grid; a
    given time step scales with ds, so dt/ds stays as it was."""
    s_old = np.linspace(0.0, 1.0, sc.ns + 1)
    s_new = np.linspace(0.0, 1.0, ns + 1)
    g = {eid: np.interp(s_new, s_old, np.asarray(arr, dtype=float))
         for eid, arr in sc.initial.items()}
    dt = None if sc.dt is None else sc.dt * (sc.ns / ns)
    return replace(sc, ns=ns, initial=g, dt=dt)


def compute_m0(sc: Scenario) -> float:
    """Time-slope budget: datum stationary level joined with max |c_x|."""
    level = max(subsolution_level(sc.hamiltonians[a.id], sc.initial[a.id])
                for a in sc.network.edge_arcs())
    cmax = max(abs(c) for c in sc.limiter_values().values())
    return max(level, cmax)


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
        validate_scenario(sc)
        if sc.ns != scenario.ns:
            raise ValidationError("comparable scenarios must share ns")
    ds = 1.0 / scenario.ns
    budgets = {}
    for sc in scens:
        for arc in sc.network.edge_arcs():
            width = sc.constants.l_bound[arc.id]
            gmax = float(np.max(np.abs(np.diff(sc.initial[arc.id])))) * sc.ns
            budgets[arc.id] = max(budgets.get(arc.id, 0.0), width, gmax)
    theta = {arc.id: momentum_lipschitz(scenario.hamiltonians[arc.id],
                                        budgets[arc.id] + 1.0) * (1.0 + ds)
             for arc in scenario.network.edge_arcs()}
    th_max = max(theta.values())
    dt_cap = ds / th_max
    if scenario.dt is not None:
        if scenario.dt > dt_cap * (1.0 + 1e-12):
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
        return max(float(np.max(np.abs(self.fields[e] - other.fields[e])))
                   for e in self.fields)


def solve(scenario: Scenario, params: SolveParams | None = None) -> NetworkSolution:
    """March the whole horizon, all edges as one (E, ns+1) stack capped at
    the vertices step by step."""
    if params is None:
        params = plan_solve(scenario)
    return solve_ensemble([scenario], params)[0]


def solve_ensemble(scenarios, params: SolveParams) -> list:
    """March scenarios that share one grid together; one solution each.

    The members' edges stack into one (sum E, ns+1) array, its rows grouped
    by kind for the stepper, and their vertex groups into one min-reduction
    over the stack's end nodes, so no vertex couples two members and every
    member gets bitwise the solution it gets alone on ``params``.  Each
    edge's field is a view of one (sum E, nt+1, ns+1) block.  Plan comparable runs
    with ``plan_solve(sc, others=...)``; members may come from different
    networks as long as ``params.theta`` covers every edge id.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValidationError("an ensemble needs at least one scenario")
    ns, dt, nt = params.ns, params.dt, params.nt
    grid = Grid2D(ns, scenarios[0].t0, dt, nt)
    hams, init, theta, c_x = [], [], [], []
    members = []
    for sc in scenarios:
        if sc.ns != ns or sc.t0 != grid.t0:
            raise GridMismatchError(
                f"scenario {sc.name!r} (ns={sc.ns}, t0={sc.t0}) is off the "
                f"ensemble grid (ns={ns}, t0={grid.t0})")
        const = sc.constants
        edges, vids = sc.network.edge_arcs(), sc.network.vertex_ids()
        members.append((sc, edges, vids, len(init), len(c_x), const.shift))
        for x in vids:
            if not const.limiter[x] < 0:
                raise NonNegativeSlopeError(
                    f"flux limiter at vertex {x!r} must be negative after the "
                    f"positivity shift, got {const.limiter[x]}")
            c_x.append(const.limiter[x])
        for a in edges:
            g = np.asarray(sc.initial[a.id], dtype=float)
            if g.shape != (ns + 1,):
                raise GridMismatchError(
                    f"initial datum of edge {a.id!r} must have {ns + 1} samples")
            if a.id not in params.theta:
                raise ValidationError(f"params carry no theta for edge {a.id!r}")
            th = float(params.theta[a.id])
            _check_monotone(dt, th, grid.ds, a.id)
            hams.append(const.hamiltonians[a.id])
            init.append(g)
            theta.append(th)

    # edge i marches as row[i] of the kind-grouped stack; the gather and the
    # scatter address the stack's flat block: edge i's column 0 is first[i]
    # (its reverse arc ends there) and its column ns is last[i]
    step = _ArcStepper(hams, ns, theta, dt)
    row = np.empty(len(hams), dtype=int)
    row[step.order] = np.arange(len(hams))
    first = row * (ns + 1)
    last = first + ns
    gather, group_len, start_ix, end_ix = [], [], [], []
    for sc, edges, vids, r0, v0, _ in members:
        pos = {a.id: last[r0 + i] for i, a in enumerate(edges)}
        pos.update({a.inverse_id: first[r0 + i] for i, a in enumerate(edges)})
        into = sc.network.incidence()   # groups follow incident_arcs
        for x in vids:
            gather += [pos[aid] for aid in into[x]]
            group_len.append(len(into[x]))
        vix = {x: v0 + i for i, x in enumerate(vids)}
        start_ix += [vix[a.start] for a in edges]
        end_ix += [vix[a.end] for a in edges]
    gather = np.array(gather)
    starts = np.cumsum([0] + group_len[:-1])
    scatter = np.concatenate([first, last])
    scatter_ix = np.array(start_ix + end_ix)

    u, advance = step.state, step.advance
    np.stack([init[i] for i in step.order], out=u)
    flat = u.reshape(-1)
    ends = flat[gather]
    vmin = np.empty(len(c_x))
    vnew = np.empty(scatter.size)
    c_dt = np.array(c_x) * dt
    fields = np.empty((len(hams), nt + 1, ns + 1))
    steps = fields.transpose(1, 0, 2)   # steps[k] is every edge at step k
    steps[0] = u
    vval = np.minimum.reduceat(ends, starts)
    for k in range(1, nt + 1):
        advance()
        flat.take(gather, out=ends)
        np.minimum.reduceat(ends, starts, out=vmin)
        np.add(vval, c_dt, vval)
        np.minimum(vval, vmin, out=vval)
        flat.put(scatter, vval.take(scatter_ix, out=vnew))
        steps[k] = u
    # each vertex's trace is read back at the first end gathered into it:
    # that end's initial value at t0, then the capped value scattered there
    vrow, vcol = np.divmod(gather[starts], ns + 1)
    vtr = fields[vrow, :, vcol]

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

    All PDE-level checks run in the normalized (positive-Hamiltonian) frame;
    slope checks and the vertex certificate then transfer to the original
    problem by the exact shift identity.  ``checks`` selects a subset of
    CHECK_NAMES; an unknown name, or a field or vertex trace that is not
    finite, raises ValidationError.  The edge checks share one pass over the
    edges, which normalizes one field at a time.
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
    const = solution.constants
    fam, a, lim, m0s = const.hamiltonians, const.shift, const.limiter, const.m0
    grid = solution.grid
    eps = default_epsilon(solution) if eps_scheme is None else float(eps_scheme)
    out = {}

    if "limiter" in want:
        rep = validate_flux_limiter(sc.network, sc.limiter_values(),
                                    sc.hamiltonians.by_arc)
        worst = max((e.margin for e in rep.entries), default=0.0)
        out["limiter"] = CheckResult("limiter", rep.ok, -worst)

    if want & {"discr_certificate", "vertex_slope"}:
        ts = solution.trace_set(shifted=True)
    if "discr_certificate" in want:
        rep = discr_residual(ts, sc.network, fam, lim, eps, thetas=params.theta)
        wit = {e.vertex: e.residual for e in rep.entries if not e.ok}
        out["discr_certificate"] = CheckResult(
            "discr_certificate", rep.ok, eps - rep.worst, wit)

    if "vertex_slope" in want:
        worst, wit = -np.inf, {}
        for x, tr in ts.traces.items():
            if grid.nt == 0:
                continue
            excess = float(np.max(np.diff(tr) / grid.dt - lim[x]))
            if excess > worst:
                worst, wit = excess, {"vertex": x}
        worst = max(worst, 0.0) if worst == -np.inf else worst
        out["vertex_slope"] = CheckResult("vertex_slope", worst <= eps,
                                          eps - worst, wit)

    # one pass over the edges feeds every edge check; time_monotone reads the
    # original field, and only with every Hamiltonian positive
    lift = _time_shift(a, grid)
    positive = min(global_min(H) for H in sc.hamiltonians.by_arc.values()) > 0
    resid, resid_wit = 0.0, {}
    rise = lip = 0.0 if grid.nt == 0 else -np.inf
    space, cont = -np.inf, 0.0
    room, room_wit, beyond = np.inf, {}, False
    for arc in sc.network.edge_arcs():
        f = solution.fields[arc.id]
        g = f - lift[:, None] if a else f     # the normalized field
        if "interior_residual" in want:
            res = _interior_residuals(g, fam[arc.id], params.theta[arc.id],
                                      grid.dt)
            r = max(0.0, float(np.max(res, initial=-np.inf)),
                    -float(np.min(res, initial=np.inf)))
            if r > resid:
                resid, resid_wit = r, {"edge": arc.id}
        if grid.nt and want & {"time_monotone", "time_lipschitz"}:
            d_t = np.diff(g, axis=0)
            lip = max(lip, float(np.max(-d_t / grid.dt)) - m0s)
            if positive:
                up = d_t if g is f else np.diff(f, axis=0)
                rise = max(rise, float(np.max(up)) / grid.dt)
        if want & {"space_lipschitz", "headroom"}:
            # slope maxima per time row, all rows for the Lipschitz bound
            # and the rows the march differenced (0..nt-1) for headroom
            row_max = np.max(np.abs(np.diff(f, axis=1)), axis=1)
            space = max(space, float(np.max(row_max) * grid.ns)
                        - const.l_bound[arc.id])
            # theta must cover the momentum-Lipschitz constant at those
            # slopes, floored at ds around p = 0
            H = sc.hamiltonians[arc.id]
            seen = float(np.max(row_max[:-1], initial=0.0)) * grid.ns
            spare = params.theta[arc.id] - momentum_lipschitz(
                H, max(seen, grid.ds))
            if spare < room:
                room, room_wit = spare, {"edge": arc.id, "slope_seen": seen}
            if H.kind == "sampled" and const.l_bound[arc.id] >= max(
                    abs(H.p_knots[0]), abs(H.p_knots[-1])) - 1e-12:
                beyond = True  # a sampled table's p-range bound the width
        cont = max(cont,
                   float(np.max(np.abs(f[:, 0] - solution.vertex[arc.start]))),
                   float(np.max(np.abs(f[:, -1] - solution.vertex[arc.end]))))

    out["interior_residual"] = CheckResult(
        "interior_residual", resid <= _RESID_TOL, _RESID_TOL - resid, resid_wit)
    out["time_monotone"] = CheckResult("time_monotone", rise <= eps, eps - rise) \
        if positive else CheckResult("time_monotone", True, 0.0,
                                     {"skipped": "Hamiltonians not positive"})
    out["time_lipschitz"] = CheckResult("time_lipschitz", lip <= eps, eps - lip)
    out["space_lipschitz"] = CheckResult("space_lipschitz", space <= eps,
                                         eps - space)
    out["vertex_continuity"] = CheckResult(
        "vertex_continuity", cont <= _TRACE_TOL, _TRACE_TOL - cont)
    room_wit["width_beyond_table"] = beyond
    out["headroom"] = CheckResult("headroom", room >= 0.0, room, room_wit)
    return VerifyReport([out[c] for c in CHECK_NAMES if c in want], eps)


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
    sols = []
    for k in range(levels):
        ns_k = scenario.ns * (2 ** k)
        sols.append(solve(with_resolution(scenario, ns_k)))
    C = 0.0
    details = []
    for coarse, fine in zip(sols, sols[1:]):
        d = _level_diff(coarse, fine)
        gc = coarse.grid
        C = max(C, d / (gc.ds + gc.dt))
        details.append({"ns": gc.ns, "dt": gc.dt, "diff": d})
    return C, details


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
        worst = max(worst, float(np.max(np.abs(fc - interp))))
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
    gap = max(float(np.max(np.abs(np.asarray(scenario.initial[e])
                                  - np.asarray(sc2.initial[e]))))
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
    differ in the last bit (the sublevel-width bisection runs at levels a
    apart), and one shared theta makes the identity exact for the scheme.
    """
    fam2 = HamiltonianFamily({aid: shift_hamiltonian(H, a)
                              for aid, H in scenario.hamiltonians.by_arc.items()})
    lim2 = {x: c - a for x, c in scenario.limiter_values().items()}
    sc2 = replace(scenario, hamiltonians=fam2, limiter=lim2)
    params = plan_solve(scenario)
    p2 = plan_solve(sc2)
    if (p2.ns, p2.dt, p2.nt) != (params.ns, params.dt, params.nt):
        raise ValidationError("shifted run landed on a different grid")
    u1, u2 = solve_ensemble([scenario, sc2], params)
    lift = _time_shift(a, u1.grid)
    dev = max(float(np.max(np.abs(u2.fields[e] + lift[:, None]
                                  - u1.fields[e])))
              for e in u1.fields)
    scale = 1.0 + max(float(np.max(np.abs(u1.fields[e]))) for e in u1.fields)
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
            fam = HamiltonianFamily({aid: shift_hamiltonian(H, eps_h * f)
                                     for aid, H in fam.by_arc.items()})
            lim = {x: c - eps_h * f for x, c in lim.items()}
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
    """Solve [t0, t0+T] against [t0, t0+T/2] + restart; byte-compare.

    The split is step nt // 2, at any nt; the restart reuses the full run's
    parameters, so every step replays the same operations.  The glued run is
    byte-identical when the positivity shift is zero.  A nonzero shift a
    lifts the restart datum by a T/2, which the march carries as a constant
    and may round in the last bit; the returned sup difference shows it.
    """
    if params is None:
        params = plan_solve(scenario)
    nt = params.nt
    half = nt // 2
    full = solve(scenario, params)
    p1 = replace(params, nt=half)
    sol1 = solve(replace(scenario, horizon=half * params.dt), p1)
    g2 = {eid: sol1.fields[eid][-1].copy() for eid in sol1.fields}
    sc2 = replace(scenario, t0=scenario.t0 + half * params.dt,
                  horizon=(nt - half) * params.dt, initial=g2)
    sol2 = solve(sc2, replace(params, nt=nt - half))
    equal = True
    worst = 0.0
    for eid in full.fields:
        glued = np.vstack([sol1.fields[eid], sol2.fields[eid][1:]])
        if not np.array_equal(glued, full.fields[eid]):
            equal = False
        worst = max(worst, float(np.max(np.abs(glued - full.fields[eid]))))
    return equal, worst
