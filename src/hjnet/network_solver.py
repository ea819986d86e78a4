"""Constructive solver for the network problem, plus its checks.

All edges march as one (E, ns+1) stack, coupled only at the vertices.  Each
time step advances every arc by one monotone scheme step, whose endpoint
columns are state-constraint candidates; then every vertex x takes

    v[k+1] = min(v[k] + c_x dt, min of the incident arcs' candidates),

the one-step recursion of the slope-cap transform at the flux limiter c_x,
applied online, and writes v[k+1] back to both ends of its edges, so all
traces at a vertex agree exactly.

Everything runs on a normalized family with strictly positive Hamiltonians
(adding a constant a to all of them and subtracting it from the limiter);
the output is corrected back by u -> u + a (t - t0).

The verification battery re-derives the certificate of the semidiscrete
vertex system, interior scheme residuals, slope bounds, vertex continuity
and limiter admissibility from a finished solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .arc_solver import (
    ArcField,
    Grid2D,
    _ArcStack,
    _arc_theta,
    _lf_step,
    free,
    subsolution_residual,
    supersolution_residual,
)
from .errors import CFLViolationError, NonNegativeSlopeError, ValidationError
from .hamiltonians import (
    HamiltonianFamily,
    global_min,
    momentum_lipschitz,
    positive_shift,
    shift_hamiltonian,
    sublevel_width,
    subsolution_level,
)
from .network import FluxLimiter, validate_flux_limiter
from .semidiscrete import VertexTraceSet, discr_residual
from .slope_cap import TimeSeries

__all__ = [
    "Scenario",
    "SolveParams",
    "NetworkSolution",
    "validate_scenario",
    "with_resolution",
    "compute_m0",
    "plan_solve",
    "solve_constants",
    "solve",
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
        vals = self.limiter.values if isinstance(self.limiter, FluxLimiter) \
            else self.limiter
        return dict(vals)


def validate_scenario(sc: Scenario):
    """Limiter admissibility, datum shape, vertex consistency of the datum."""
    if sc.horizon <= 0:
        raise ValidationError("horizon must be positive")
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
            if abs(ref - val) > 1e-9 * (1.0 + abs(ref)):
                raise ValidationError(
                    f"initial datum inconsistent at vertex {vid!r}: "
                    f"{ref} vs {val}")
    return rep


def with_resolution(sc: Scenario, ns: int) -> Scenario:
    """Resample the (piecewise-linear) initial datum onto a new s-grid."""
    s_old = np.linspace(0.0, 1.0, sc.ns + 1)
    s_new = np.linspace(0.0, 1.0, ns + 1)
    g = {eid: np.interp(s_new, s_old, np.asarray(arr, dtype=float))
         for eid, arr in sc.initial.items()}
    return replace(sc, ns=ns, initial=g)


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
    width_beyond_table: bool = False  # a sampled table's p-range bound the width


def _shifted(sc: Scenario):
    return positive_shift(sc.hamiltonians, sc.limiter_values())


def plan_solve(scenario: Scenario, others=(), cfl=None) -> SolveParams:
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
    width_clipped = False
    for sc in scens:
        fam, a, lim = _shifted(sc)
        m0s = compute_m0(replace(sc, hamiltonians=fam, limiter=lim))
        for arc in sc.network.edge_arcs():
            H = fam[arc.id]
            width = sublevel_width(H, m0s)
            if H.kind == "sampled" and width >= max(abs(H.p_knots[0]),
                                                    abs(H.p_knots[-1])) - 1e-12:
                width_clipped = True  # coercivity proxy decided the width
            gmax = float(np.max(np.abs(np.diff(sc.initial[arc.id])))) * sc.ns
            budgets[arc.id] = max(budgets.get(arc.id, 0.0), width, gmax)
    theta = {arc.id: momentum_lipschitz(scenario.hamiltonians[arc.id],
                                        budgets[arc.id] + 1.0) * (1.0 + ds)
             for arc in scenario.network.edge_arcs()}
    th_max = max(theta.values())
    dt_cap = ds / th_max
    want = scenario.cfl if cfl is None else cfl
    if scenario.dt is not None:
        if scenario.dt > dt_cap * (1.0 + 1e-12):
            raise CFLViolationError(
                f"requested dt {scenario.dt} exceeds {dt_cap:.3e}")
        dt0 = scenario.dt
    elif want is not None:
        if not 0 < want <= 1:
            raise ValidationError("cfl must lie in (0, 1]")
        dt0 = want * dt_cap
    else:
        dt0 = dt_cap
    T = scenario.horizon
    nt = max(1, int(np.ceil(T / dt0 - 1e-9)))
    return SolveParams(ns=scenario.ns, dt=T / nt, nt=nt, theta=theta,
                       width_beyond_table=width_clipped)


@dataclass(frozen=True)
class SolveConstants:
    shift: float
    m0: float               # slope budget of the normalized problem
    l_bound: dict           # edge id -> space-slope bound at m0


def solve_constants(scenario: Scenario) -> SolveConstants:
    """Positivity shift, slope budget and space-slope bounds of a scenario;
    they depend on nothing else, so a reloaded solution rebuilds them."""
    fam, shift_a, lim = _shifted(scenario)
    m0s = compute_m0(replace(scenario, hamiltonians=fam, limiter=lim))
    return SolveConstants(shift=shift_a, m0=m0s,
                          l_bound={a.id: sublevel_width(fam[a.id], m0s)
                                   for a in scenario.network.edge_arcs()})


@dataclass(eq=False)
class NetworkSolution:
    scenario: Scenario
    params: SolveParams
    grid: Grid2D
    fields: dict            # edge id -> (nt+1, ns+1) original-problem values
    vertex: dict            # vertex id -> (nt+1,)
    constants: SolveConstants

    def field(self, arc_id):
        """Values along an oriented arc; reverse arcs are s-reflections."""
        if arc_id in self.fields:
            return self.fields[arc_id]
        return self.fields[arc_id[:-1] if arc_id.endswith("~") else arc_id + "~"][:, ::-1]

    def vertex_series(self, x) -> TimeSeries:
        return TimeSeries(self.grid.t0, self.grid.dt, self.vertex[x])

    def trace_set(self, shifted=False) -> VertexTraceSet:
        t = self.grid.t_nodes() - self.grid.t0
        a = self.constants.shift if shifted else 0.0
        traces = {x: v - a * t for x, v in self.vertex.items()}
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
    net = scenario.network
    fam, shift_a, lim = _shifted(scenario)
    ns, dt, nt = params.ns, params.dt, params.nt
    edges = net.edge_arcs()
    n_e = len(edges)
    vids = net.vertex_ids()
    for x in vids:
        if not lim[x] < 0:
            raise NonNegativeSlopeError(
                f"flux limiter at vertex {x!r} must be negative after the "
                f"positivity shift, got {lim[x]}")
    c_dt = np.array([lim[x] for x in vids]) * dt
    grid = Grid2D(ns, scenario.t0, dt, nt)
    init = [np.asarray(scenario.initial[a.id], dtype=float) for a in edges]
    half_theta = 0.5 * np.array([[_arc_theta(fam[a.id], g, free(), free(),
                                             grid, params.theta[a.id])]
                                 for a, g in zip(edges, init)])
    u = np.array(init)
    tab = _ArcStack([fam[a.id] for a in edges], ns)

    # endpoint slots: column 0 of edge i is slot i (its reverse arc ends
    # there), column ns is slot E + i; vertex groups follow incident_arcs
    slot = {a.id: n_e + i for i, a in enumerate(edges)}
    slot.update({a.inverse_id: i for i, a in enumerate(edges)})
    into = net.incidence()
    order = np.array([slot[aid] for x in vids for aid in into[x]])
    starts = np.cumsum([0] + [len(into[x]) for x in vids[:-1]])
    vix = {x: i for i, x in enumerate(vids)}
    start_ix = np.array([vix[a.start] for a in edges])
    end_ix = np.array([vix[a.end] for a in edges])

    def ends(rows):
        return np.concatenate([rows[:, 0], rows[:, -1]])

    def vertex_min(slots):
        return np.minimum.reduceat(slots[order], starts)

    fields = np.empty((n_e, nt + 1, ns + 1))
    fields[:, 0] = u
    vtr = np.empty((len(vids), nt + 1))
    vtr[:, 0] = ends(u)[order[starts]]
    vval = vertex_min(ends(u))
    for k in range(1, nt + 1):
        u = _lf_step(tab, u, half_theta, dt)[0]
        vval = np.minimum(vval + c_dt, vertex_min(ends(u)))
        u[:, 0] = vval[start_ix]
        u[:, -1] = vval[end_ix]
        fields[:, k] = u
        vtr[:, k] = vval

    if shift_a != 0.0:
        tshift = shift_a * (np.arange(nt + 1) * dt)
        fields += tshift[:, None]
        vtr += tshift
    return NetworkSolution(scenario=scenario, params=params, grid=grid,
                           fields={a.id: fields[i] for i, a in enumerate(edges)},
                           vertex={x: vtr[i] for i, x in enumerate(vids)},
                           constants=solve_constants(scenario))


def default_epsilon(solution: NetworkSolution) -> float:
    """Fallback scheme tolerance when no refinement calibration is at hand."""
    g = solution.grid
    return 3.0 * (1.0 + solution.constants.m0) * (g.ds + g.dt)


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
    "inverse_consistency",
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


def verify(solution: NetworkSolution, eps_scheme=None, resid_tol=1e-9,
           trace_tol=1e-12, checks=None) -> VerifyReport:
    """Run the verification battery on a finished solution.

    All PDE-level checks run in the normalized (positive-Hamiltonian) frame;
    slope checks and the vertex certificate then transfer to the original
    problem by the exact shift identity.  ``checks`` selects a subset of
    CHECK_NAMES; an unknown name raises ValidationError.
    """
    if checks is not None:
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ValidationError(f"unknown check {unknown[0]!r}")
    sc = solution.scenario
    params = solution.params
    fam, a, lim = _shifted(sc)
    grid = solution.grid
    eps = default_epsilon(solution) if eps_scheme is None else float(eps_scheme)
    want = None if checks is None else set(checks)

    def enabled(name):
        return want is None or name in want

    t_rel = grid.t_nodes() - grid.t0
    out = []
    shifted_fields = {eid: solution.fields[eid] - a * t_rel[:, None]
                      for eid in solution.fields}
    shifted_vertex = {x: solution.vertex[x] - a * t_rel
                      for x in solution.vertex}
    m0s = solution.constants.m0

    if enabled("limiter"):
        rep = validate_flux_limiter(sc.network, sc.limiter_values(),
                                    sc.hamiltonians.by_arc)
        worst = max((e.margin for e in rep.entries), default=0.0)
        out.append(CheckResult("limiter", rep.ok, -worst))

    if enabled("interior_residual"):
        worst, wit = 0.0, {}
        for arc in sc.network.edge_arcs():
            fld = _as_arc_field(solution, arc.id, shifted_fields[arc.id])
            r = max(subsolution_residual(fld, fam[arc.id], params.theta[arc.id]),
                    supersolution_residual(fld, fam[arc.id], params.theta[arc.id]))
            if r > worst:
                worst, wit = r, {"edge": arc.id}
        out.append(CheckResult("interior_residual", worst <= resid_tol,
                               resid_tol - worst, wit))

    if enabled("discr_certificate"):
        ts = VertexTraceSet(grid, shifted_vertex,
                            {eid: shifted_fields[eid][0] for eid in shifted_fields})
        rep = discr_residual(ts, sc.network, fam, lim, eps, thetas=params.theta)
        wit = {e.vertex: e.residual for e in rep.entries if not e.ok}
        out.append(CheckResult("discr_certificate", rep.ok, eps - rep.worst, wit))

    if enabled("vertex_slope"):
        worst, wit = -np.inf, {}
        for x, tr in shifted_vertex.items():
            if grid.nt == 0:
                continue
            excess = float(np.max(np.diff(tr) / grid.dt - lim[x]))
            if excess > worst:
                worst, wit = excess, {"vertex": x}
        worst = max(worst, 0.0) if worst == -np.inf else worst
        out.append(CheckResult("vertex_slope", worst <= eps, eps - worst, wit))

    if enabled("time_monotone"):
        if min(global_min(H) for H in sc.hamiltonians.by_arc.values()) > 0:
            worst = max(float(np.max(np.diff(f, axis=0))) / grid.dt
                        for f in solution.fields.values()) if grid.nt else 0.0
            out.append(CheckResult("time_monotone", worst <= eps, eps - worst))
        else:
            out.append(CheckResult("time_monotone", True, 0.0,
                                   {"skipped": "Hamiltonians not positive"}))

    if enabled("time_lipschitz"):
        worst = 0.0
        if grid.nt:
            worst = max(float(np.max(-np.diff(f, axis=0) / grid.dt)) - m0s
                        for f in shifted_fields.values())
        out.append(CheckResult("time_lipschitz", worst <= eps, eps - worst))

    if enabled("space_lipschitz"):
        worst = -np.inf
        for arc in sc.network.edge_arcs():
            sl = np.max(np.abs(np.diff(solution.fields[arc.id], axis=1))) * grid.ns
            worst = max(worst, float(sl) - solution.constants.l_bound[arc.id])
        out.append(CheckResult("space_lipschitz", worst <= eps, eps - worst))

    if enabled("vertex_continuity"):
        worst = 0.0
        for arc in sc.network.edge_arcs():
            f = solution.fields[arc.id]
            worst = max(worst,
                        float(np.max(np.abs(f[:, 0] - solution.vertex[arc.start]))),
                        float(np.max(np.abs(f[:, -1] - solution.vertex[arc.end]))))
        out.append(CheckResult("vertex_continuity", worst <= trace_tol,
                               trace_tol - worst))

    if enabled("inverse_consistency"):
        worst = 0.0
        for arc in sc.network.edge_arcs():
            d = np.max(np.abs(solution.field(arc.inverse_id)
                              - solution.fields[arc.id][:, ::-1]))
            worst = max(worst, float(d))
        out.append(CheckResult("inverse_consistency", worst <= trace_tol,
                               trace_tol - worst))

    if enabled("headroom"):
        # theta must cover the momentum-Lipschitz constant at the slopes the
        # march differenced (rows 0..nt-1), floored at ds around p = 0
        worst, wit = np.inf, {}
        for arc in sc.network.edge_arcs():
            pm = np.diff(solution.fields[arc.id][:-1], axis=1)
            seen = float(np.max(np.abs(pm), initial=0.0)) * grid.ns
            room = params.theta[arc.id] - momentum_lipschitz(
                sc.hamiltonians[arc.id], max(seen, grid.ds))
            if room < worst:
                worst, wit = room, {"edge": arc.id, "slope_seen": seen}
        wit["width_beyond_table"] = params.width_beyond_table
        out.append(CheckResult("headroom", worst >= 0.0, worst, wit))

    return VerifyReport(out, eps)


def _as_arc_field(solution, edge_id, values):
    return ArcField(grid=solution.grid, values=values, left=free(),
                    right=free(), initial=values[0],
                    theta=solution.params.theta[edge_id])


def calibrate_epsilon(scenario: Scenario, levels=3):
    """Fit the scheme-error constant from a grid-refinement study.

    Solves at ns, 2 ns, 4 ns, ..., measures sup differences of consecutive
    levels on the coarser grid (linear interpolation in time), and returns
    (C, details) with C = max diff / (ds + dt) of the coarser level.  The
    usable tolerance at a level is 3 * C * (ds + dt).
    """
    sols = []
    sc = scenario
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


def contraction_check(scenario: Scenario, initial2: dict,
                      slack=1e-11) -> ContractionReport:
    """Nonexpansiveness in the initial datum, on one shared grid."""
    sc2 = replace(scenario, initial={k: np.asarray(v, dtype=float)
                                     for k, v in initial2.items()})
    params = plan_solve(scenario, others=[sc2])
    u1 = solve(scenario, params)
    u2 = solve(sc2, params)
    gap = max(float(np.max(np.abs(np.asarray(scenario.initial[e])
                                  - np.asarray(sc2.initial[e]))))
              for e in scenario.initial)
    d = u1.sup_diff(u2)
    ordered = None
    if all(np.all(np.asarray(scenario.initial[e]) <= np.asarray(sc2.initial[e]))
           for e in scenario.initial):
        ordered = all(np.all(u1.fields[e] <= u2.fields[e] + slack)
                      for e in u1.fields)
    return ContractionReport(sup_diff=d, datum_gap=gap,
                             ok=d <= gap + slack * (1.0 + gap), ordered=ordered)


@dataclass(frozen=True)
class ShiftReport:
    shift: float
    max_dev: float
    ok: bool


def shift_check(scenario: Scenario, a: float, tol=1e-12) -> ShiftReport:
    """Adding a to all Hamiltonians and subtracting it from the limiter
    must reproduce the solution minus a*(t-t0), to near machine accuracy."""
    fam2 = HamiltonianFamily({aid: shift_hamiltonian(H, a)
                              for aid, H in scenario.hamiltonians.by_arc.items()})
    lim2 = {x: c - a for x, c in scenario.limiter_values().items()}
    sc2 = replace(scenario, hamiltonians=fam2, limiter=lim2)
    u1 = solve(scenario)
    u2 = solve(sc2)
    if u1.grid.nt != u2.grid.nt:
        raise ValidationError("shifted run landed on a different grid")
    t_rel = u1.grid.t_nodes() - u1.grid.t0
    dev = max(float(np.max(np.abs(u2.fields[e] + a * t_rel[:, None]
                                  - u1.fields[e])))
              for e in u1.fields)
    scale = 1.0 + max(float(np.max(np.abs(u1.fields[e]))) for e in u1.fields)
    return ShiftReport(shift=a, max_dev=dev, ok=dev <= tol * scale)


def interior_bump(ns, height=1.0, center=0.5, halfwidth=0.25):
    """Datum perturbation vanishing at both arc endpoints."""
    s = np.linspace(0.0, 1.0, ns + 1)
    y = np.maximum(0.0, 1.0 - np.abs(s - center) / halfwidth)
    y[0] = 0.0
    y[-1] = 0.0
    return height * y


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
    params = plan_solve(scenario, others=perturbed)
    base = solve(scenario, params)
    diffs = [solve(sc, params).sup_diff(base) for sc in perturbed]
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
