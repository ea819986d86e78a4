"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion.  Scheme tolerances are calibrated per scenario family from a
grid-refinement study: eps(level) = 3 * C_fit * (ds + dt).
"""

import dataclasses

import numpy as np
import pytest

import hjnet as hj
from hjnet.network_solver import interior_bump
from hjnet.semidiscrete import VertexTraceSet, discr_compare, discr_residual
from hjnet.slope_cap import TimeSeries, apply_g, apply_g_bruteforce, contact_set

from conftest import dyadic_series, eps_at, make_path, make_tripod

H1 = hj.abs_hamiltonian(kappa=1.0)


def _announce(num, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {state}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------- criterion 1


def test_c01_slope_cap_exactness_and_properties():
    rng = np.random.default_rng(101)
    worst = 0
    for k in range(1000):
        n = int(rng.integers(513, 2049)) if k % 10 == 0 else int(rng.integers(1, 513))
        psi = TimeSeries(0.0, 0.0078125, dyadic_series(rng, n))
        a = -float(rng.integers(1, 64)) / 16.0
        d = apply_g(psi, a).values - apply_g_bruteforce(psi, a).values
        worst = max(worst, float(np.max(np.abs(d))))
    assert worst == 0.0

    tol = 1e-9
    dt = 0.125
    for _ in range(500):
        v = dyadic_series(rng, 128, granularity=2.0 ** -6, span=2.0 ** 8)
        psi = TimeSeries(0.0, dt, v)
        a = -float(rng.integers(1, 32)) / 8.0
        g = apply_g(psi, a)
        # semigroup / idempotence
        assert np.max(np.abs(apply_g(g, a).values - g.values)) <= tol
        # constant equivariance
        c = float(rng.integers(-16, 17)) / 4.0
        gc = apply_g(TimeSeries(0.0, dt, v + c), a).values
        assert np.max(np.abs(gc - (g.values + c))) <= tol
        # nonexpansiveness
        w = v + rng.normal(scale=0.4, size=v.size)
        gw = apply_g(TimeSeries(0.0, dt, w), a).values
        assert np.max(np.abs(gw - g.values)) <= np.max(np.abs(w - v)) + tol
        # monotonicity with a strict gap
        b = float(rng.integers(1, 9)) / 4.0
        gb = apply_g(TimeSeries(0.0, dt, v + b), a).values
        assert np.all(gb >= g.values + b - tol)
        # contact where both one-sided slopes drop below the cap
        contact = contact_set(psi, a, tol)
        sl = np.diff(g.values) / dt
        strict = (sl[:-1] < a - tol) & (sl[1:] < a - tol)
        assert np.all(contact[1:-1][strict])
        # lower-bound propagation for a piecewise-linear competitor
        wv = np.empty(v.size)
        wv[0] = v[0] + float(rng.integers(0, 8)) / 4.0
        steep, flat = a - 1.25, a + 0.75
        for i in range(v.size - 1):
            cand = wv[i] + steep * dt
            wv[i + 1] = cand if (wv[i] >= v[i] and cand >= v[i + 1]) \
                else wv[i] + flat * dt
        assert np.all(wv >= g.values - tol)
    _announce(1, True, "bitwise oracle equality on 1000 series; "
                       "6 property families x 500 trials at 1e-9")


# ---------------------------------------------------------------- criterion 2


def test_c02_arc_solver_oracles():
    errs = []
    for ns in (100, 200, 400):
        ds = 1.0 / ns
        theta = 1.0 + ds
        grid = hj.Grid2D(ns, 0.0, ds / theta, int(round(1.0 * (ns + 1))))
        fld = hj.max_subsolution(H1, np.linspace(0, 1, ns + 1), hj.free(),
                                 hj.free(), grid, theta=theta)
        s, t = grid.s_nodes(), grid.t_nodes()
        exact = np.maximum(0.0, s[None, :] - t[:, None]) - t[:, None]
        errs.append(float(np.max(np.abs(fld.values - exact))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 0.8)

    _announce(2, True, f"covering-line sup-errors {['%.2e' % e for e in errs]}, "
                       f"orders {[f'{o:.2f}' for o in orders]} >= 0.8")


# ---------------------------------------------------------------- criterion 3


def test_c03_discrete_comparison_zero_violations():
    rng = np.random.default_rng(303)
    ns, nt = 64, 16
    grid = hj.Grid2D(ns, 0.0, 2.0 ** -8, nt)
    violations = 0
    for _ in range(200):
        q = lambda n: rng.integers(-8, 9, size=n) / 4.0
        g1 = q(ns + 1)
        lift_c = float(rng.integers(0, 9)) / 4.0
        lift = rng.integers(0, int(lift_c * 4) + 1, size=ns + 1) / 4.0
        lift[0] = lift[-1] = lift_c
        g2 = g1 + lift
        d1l = g1[0] + np.concatenate(
            [[0.0], np.cumsum(rng.integers(-6, 3, size=nt) / 4.0)])
        d1r = g1[-1] + np.concatenate(
            [[0.0], np.cumsum(rng.integers(-6, 3, size=nt) / 4.0)])
        u1 = hj.max_subsolution(H1, g1, hj.constrained(d1l),
                                hj.constrained(d1r), grid, theta=1.0)
        u2 = hj.max_subsolution(H1, g2, hj.constrained(d1l + lift_c),
                                hj.constrained(d1r + lift_c), grid, theta=1.0)
        violations += int(np.sum(u1.values > u2.values))
    assert violations == 0
    _announce(3, True, "200 ordered boundary-data pairs, 0 of "
                       f"{200 * (nt + 1) * (ns + 1)} grid points out of order")


# ------------------------------------------------------- criteria 4,5,6,7,...


@pytest.fixture(scope="module")
def tripod_pack():
    sols = {ns: hj.solve(make_tripod(ns)) for ns in (100, 200, 400)}
    C, details = hj.calibrate_epsilon(make_tripod(100), levels=3)
    return sols, C


def test_c04_shift_equivariance(tripod_pack):
    devs = []
    for a in (1.0, 5.0):
        rep = hj.shift_check(make_tripod(100), a)
        devs.append(rep.max_dev)
        assert rep.max_dev <= 1e-12
    _announce(4, True, f"shift deviations {['%.1e' % d for d in devs]} <= 1e-12")


def test_c05_contraction(tripod_pack):
    _, C = tripod_pack
    sc = make_tripod(100)
    eps = eps_at(C, hj.solve(sc).grid)
    bump = interior_bump(100, 0.2)
    rep = hj.contraction_check(sc, {e: v + bump for e, v in sc.initial.items()})
    assert rep.sup_diff <= 0.2 + eps
    rep_c = hj.contraction_check(sc, {e: v + 0.3 for e, v in sc.initial.items()})
    assert abs(rep_c.sup_diff - 0.3) <= 1e-12
    _announce(5, True, f"bump diff {rep.sup_diff:.6f} <= 0.2 + {eps:.3f}; "
                       f"constant diff {rep_c.sup_diff:.15f}")


def test_c06_flux_limiter_closed_form(tripod_pack):
    sols, C = tripod_pack
    errs = {}
    for ns, sol in sols.items():
        t, s = sol.grid.t_nodes(), sol.grid.s_nodes()
        exact = np.minimum(-t[:, None], -2.0 * t[:, None] + (1.0 - s)[None, :])
        errs[ns] = max(float(np.max(np.abs(sol.fields[e] - exact)))
                       for e in sol.fields)
    eps200 = eps_at(C, sols[200].grid)
    assert errs[200] <= eps200
    r1, r2 = errs[100] / errs[200], errs[200] / errs[400]
    assert 1.4 <= r1 <= 2.6 and 1.4 <= r2 <= 2.6
    _announce(6, True, f"sup-error {errs[200]:.2e} <= eps {eps200:.2e} at "
                       f"ns=200; halving ratios {r1:.2f}, {r2:.2f}")


def test_c07_semidiscrete_certificate(tripod_pack):
    sols, C = tripod_pack
    worst_ratio = 0.0
    for ns, sol in sols.items():
        sc = sol.scenario
        eps = eps_at(C, sol.grid)
        rep = discr_residual(sol.trace_set(), sc.network, sc.hamiltonians,
                             sc.limiter_values(), eps, thetas=sol.params.theta)
        assert rep.ok
        worst_ratio = max(worst_ratio, rep.worst / eps)
    scp = make_path(100)
    Cp, _ = hj.calibrate_epsilon(scp, levels=3)
    solp = hj.solve(scp)
    epsp = eps_at(Cp, solp.grid)
    repp = discr_residual(solp.trace_set(), scp.network, scp.hamiltonians,
                          scp.limiter_values(), epsp, thetas=solp.params.theta)
    assert repp.ok

    sol = sols[100]
    sc = sol.scenario
    eps = eps_at(C, sol.grid)
    ts = sol.trace_set()
    t = sol.grid.t_nodes()
    traces = {x: v.copy() for x, v in ts.traces.items()}
    traces["x0"] = traces["x0"] + 0.1 * (t > 1.0)
    pert = discr_residual(VertexTraceSet(sol.grid, traces, ts.initial),
                          sc.network, sc.hamiltonians, sc.limiter_values(),
                          eps, thetas=sol.params.theta)
    bad = next(e for e in pert.entries if e.vertex == "x0")
    assert bad.residual >= 0.1 - eps
    _announce(7, True, "certificate residuals within eps on tripod x3 and "
                       f"path; injected 0.1 offset detected at {bad.residual:.3f}")


# ---------------------------------------------------------------- criterion 8


def _random_ordered_pair(rng, kind, ns):
    """A random scenario plus an ordered lift of its initial datum."""
    if kind == "tripod":
        names = ["x0", "x1", "x2", "x3"]
        edges = [("e1", "x1", "x0"), ("e2", "x2", "x0"), ("e3", "x3", "x0")]
    else:
        names = ["v0", "v1", "v2"]
        edges = [("a", "v0", "v1"), ("b", "v1", "v2")]
    net = hj.build_network(names, edges)
    per_edge = {}
    for eid, _, _ in edges:
        per_edge[eid] = hj.abs_hamiltonian(
            alpha=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(-0.5, 0.5)),
            kappa=float(rng.uniform(0.5, 1.5)))
    fam = hj.family_from_edges(net, per_edge)
    lim = {}
    for x in net.vertex_ids():
        cmin = min(hj.c_gamma(fam[a.id]) for a in hj.incident_arcs(net, x))
        lim[x] = cmin - float(rng.uniform(0.0, 0.5))
    vval = {x: float(rng.uniform(-0.5, 0.5)) for x in net.vertex_ids()}
    vlift = {x: float(rng.uniform(0.0, 0.4)) for x in net.vertex_ids()}
    s = np.linspace(0.0, 1.0, ns + 1)
    g, g2 = {}, {}
    for eid, a, b in edges:
        knots = rng.uniform(-0.4, 0.4, size=5)
        knots[0], knots[-1] = vval[a], vval[b]
        base = np.interp(s, np.linspace(0, 1, 5), knots)
        lift = np.interp(s, [0.0, 1.0], [vlift[a], vlift[b]])
        lift = lift + float(rng.uniform(0.0, 0.3)) * np.sin(np.pi * s) ** 2
        g[eid] = base
        g2[eid] = base + lift
    sc = hj.Scenario(net, fam, lim, g, horizon=1.0, ns=ns, name=f"rand-{kind}")
    return sc, g2


def test_c08_network_comparison_and_maximality(tripod_pack):
    rng = np.random.default_rng(808)
    worst_gap = 0.0
    for trial in range(20):
        kind = "tripod" if trial % 2 == 0 else "path"
        sc, g2 = _random_ordered_pair(rng, kind, ns=64)
        sc2 = dataclasses.replace(sc, initial=g2)
        u1, u2 = hj.solve_ensemble([sc, sc2], hj.plan_solve(sc, others=[sc2]))
        for e in u1.fields:
            worst_gap = max(worst_gap, float(np.max(u1.fields[e] - u2.fields[e])))
    assert worst_gap <= 1e-11

    sols, C = tripod_pack
    sol = sols[100]
    eps = eps_at(C, sol.grid)
    t_rel = sol.grid.t_nodes()
    K = max(2.0, sol.constants.m0)
    floor = min(float(np.min(v)) for v in sol.scenario.initial.values())
    ramp = floor - K * t_rel
    for e in sol.fields:
        assert np.all(ramp[:, None] <= sol.fields[e] + eps)
    for x in sol.vertex:
        assert np.all(ramp <= sol.vertex[x] + eps)

    # the discrete comparison of the vertex-trace system, against the
    # solution, on subsolution trace sets that are not trivially ordered
    sc = sol.scenario
    low = dataclasses.replace(sc, limiter={**sc.limiter,
                                           "x0": sc.limiter["x0"] - 0.3})
    params = hj.plan_solve(sc, others=[low])
    u, u_low = hj.solve_ensemble([sc, low], params)
    sup = u.trace_set()

    def compare(sub):
        return discr_compare(sub, sup, sc.network, sc.hamiltonians,
                             sc.limiter_values(), eps, thetas=params.theta)

    # cap at c' <= c stays below cap at c: a subsolution trace set
    lowered = compare(u_low.trace_set())
    assert lowered.ok, lowered
    assert float(np.max(sup.traces["x0"] - u_low.vertex["x0"])) > 0.5
    t = u.grid.t_nodes() - u.grid.t0
    ramp_set = VertexTraceSet(u.grid, {x: floor - K * t for x in u.vertex},
                              {e: np.full(sc.ns + 1, floor) for e in u.fields})
    ramped = compare(ramp_set)
    assert ramped.ok, ramped
    # control: lifting the centre 2 eps above the solution for t > 1 breaks
    # the subsolution precondition by more than eps
    traces = {x: v.copy() for x, v in sup.traces.items()}
    traces["x0"] = traces["x0"] + 2.0 * eps * (t > 1.0)
    lifted = compare(VertexTraceSet(u.grid, traces, sup.initial))
    assert not lifted.ok
    assert lifted.precondition_gaps["sub"] > eps
    _announce(8, True, f"20 ordered scenario pairs, worst gap {worst_gap:.2e}; "
                       f"lowered limiter margin {lowered.margin:.3f} and ramp "
                       f"margin {ramped.margin:.1e} compare below the "
                       f"solution; a 2 eps lift fails by "
                       f"{lifted.precondition_gaps['sub']:.3f} > eps {eps:.3f}")


# ---------------------------------------------------------------- criterion 9


def test_c09_gluing_restart_and_determinism():
    sc = make_tripod(107)  # nt = 216, split at step 108
    equal, worst = hj.restart_check(sc)
    assert equal and worst == 0.0
    s1, s2 = hj.solve(sc), hj.solve(sc)
    assert all(np.array_equal(s1.fields[e], s2.fields[e]) for e in s1.fields)
    assert all(np.array_equal(s1.vertex[x], s2.vertex[x]) for x in s1.vertex)
    _announce(9, True, "restart at T/2 and repeated runs byte-identical")


# --------------------------------------------------------------- criterion 10


def test_c10_finite_speed_window():
    delta = hj.propagation_window(H1, 1.0)
    assert delta == pytest.approx(1.0 / 36.0, abs=1e-15)
    ns = 72
    grid = hj.Grid2D(ns, 0.0, 1.0 / 144.0, 4)  # horizon exactly delta
    rng = np.random.default_rng(1010)
    g = np.cumsum(rng.uniform(-1.0, 1.0, size=ns + 1)) / ns
    g -= g[0]
    t = grid.t_nodes()
    d_l, d_r = g[0] - 2.0 * t, g[-1] - 2.0 * t
    u1 = hj.max_subsolution(H1, g, hj.constrained(d_l), hj.constrained(d_r),
                            grid, theta=1.0)
    u2 = hj.max_subsolution(H1, g, hj.constrained(d_l + 1.0),
                            hj.constrained(d_r + 1.0), grid, theta=1.0)
    lo = int(np.floor((0.5 - delta) * ns))
    hi = int(np.ceil((0.5 + delta) * ns))
    gap = float(np.max(np.abs(u1.values[:, lo:hi + 1]
                              - u2.values[:, lo:hi + 1])))
    assert gap <= 1e-12
    assert float(np.max(np.abs(u1.values - u2.values))) > 0.01
    _announce(10, True, f"solutions agree to {gap:.1e} on the midcell window "
                        f"delta = 1/36 while differing elsewhere")


# --------------------------------------------------------------- criterion 11


def test_c11_lipschitz_bounds(tripod_pack):
    sols, C = tripod_pack
    sol = sols[200]
    eps = eps_at(C, sol.grid)
    m0 = sol.constants.m0
    l0 = max(sol.constants.l_bound.values())
    sol_long = hj.solve(make_tripod(200, horizon=4.0))
    for run in (sol, sol_long):
        for e in run.fields:
            ts = np.diff(run.fields[e], axis=0) / run.grid.dt
            ss = np.diff(run.fields[e], axis=1) * run.grid.ns
            assert np.min(ts) >= -m0 - eps
            assert np.max(ts) <= 1e-12
            assert np.max(np.abs(ss)) <= l0 + eps
    assert sol_long.constants.m0 == m0
    assert max(sol_long.constants.l_bound.values()) == l0
    _announce(11, True, f"time slopes in [-{m0}-eps, 0], space slopes within "
                        f"+-{l0}+eps, bounds unchanged at double horizon")


# --------------------------------------------------------------- criterion 12


def test_c12_stability_sweep(tripod_pack):
    _, C = tripod_pack
    sc = make_tripod(100)
    eps = eps_at(C, hj.solve(sc).grid)
    rep = hj.stability_sweep(sc, eps_h=0.4, eps_c=0.2, eps_g=0.2, levels=3,
                             eps_scheme=eps)
    assert rep.monotone_ok
    assert rep.diffs[-1] < rep.diffs[0]
    _announce(12, True, "perturbation diffs "
                        f"{['%.3f' % d for d in rep.diffs]} decrease "
                        "monotonically under halving")
