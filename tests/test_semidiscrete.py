"""Vertex-trace system: arc/vertex transforms and the coupling certificate."""

import numpy as np
import pytest

import hjnet as hj
from hjnet import semidiscrete
from hjnet.errors import (CFLViolationError, CornerMismatchError,
                          GridMismatchError, NonNegativeSlopeError,
                          ValidationError)
from hjnet.semidiscrete import (
    VertexTraceSet,
    arc_initial,
    discr_compare,
    discr_residual,
    f_gamma,
    f_x,
    f_x_selected,
)
from hjnet.slope_cap import TimeSeries, apply_g

from conftest import (dyadic_series, make_mixed, make_path, make_tripod,
                      random_scenario)


H1 = hj.abs_hamiltonian(kappa=1.0)


def single_edge_traces(ns, T, left_fn, right_fn=None, g=None, theta=1.0):
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    fam = hj.family_from_edges(net, {"e": H1})
    th = theta * (1.0 + 1.0 / ns)
    dt = (1.0 / ns) / th
    nt = int(round(T / dt))
    grid = hj.Grid2D(ns, 0.0, dt, nt)
    t = grid.t_nodes()
    g = np.zeros(ns + 1) if g is None else g
    right = right_fn(t) if right_fn else np.full(nt + 1, g[-1])
    ts = VertexTraceSet(grid, {"a": left_fn(t), "b": right}, {"e": g})
    return net, fam, ts, grid, th


def test_arc_initial_reflects_for_reverse_arcs():
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    grid = hj.Grid2D(4, 0.0, 0.1, 1)
    ts = VertexTraceSet(grid, {"a": np.zeros(2), "b": np.full(2, 4.0)},
                        {"e": np.array([0.0, 1.0, 2.0, 3.0, 4.0])})
    assert np.array_equal(arc_initial(ts, "e~"),
                          np.array([4.0, 3.0, 2.0, 1.0, 0.0]))


def test_arc_transform_matching_speed_trace_is_flat_decay():
    net, fam, ts, grid, th = single_edge_traces(100, 1.0, lambda t: -t)
    fld = f_gamma(ts, net, fam, "e", theta=th)
    t = grid.t_nodes()
    assert np.max(np.abs(fld.values + t[:, None])) < 1e-12


def test_arc_transform_fast_datum_wave():
    # left trace -3t launches a slope-2 wave: the sublevel at level 3 allows
    # |p| <= 2, so the wave is min(-t, -3t + 2s); frozen from a refinement
    # study of the marching scheme
    errs = []
    for ns in (100, 200):
        net, fam, ts, grid, th = single_edge_traces(ns, 1.0, lambda t: -3.0 * t)
        fld = f_gamma(ts, net, fam, "e", theta=th)
        t, s = grid.t_nodes(), grid.s_nodes()
        exact = np.minimum(-t[:, None], -3.0 * t[:, None] + 2.0 * s[None, :])
        errs.append(np.max(np.abs(fld.values - exact)))
    assert errs[1] < errs[0]
    assert errs[1] < 0.01
    net, fam, ts, grid, th = single_edge_traces(200, 1.0, lambda t: -3.0 * t)
    fld = f_gamma(ts, net, fam, "e", theta=th)
    T = grid.t_nodes()[-1]
    assert fld.values[-1, -1] == pytest.approx(min(-T, -3.0 * T + 2.0), abs=0.01)


def test_arc_transform_constant_datum_clip_inactive():
    c = 0.7
    net, fam, ts, grid, th = single_edge_traces(
        80, 1.0, lambda t: np.full(t.size, c), g=np.full(81, c))
    fld = f_gamma(ts, net, fam, "e", theta=th)
    t = grid.t_nodes()
    assert np.max(np.abs(fld.values - (c - t[:, None]))) < 1e-12


def _tripod_traces(sol):
    return sol.trace_set()


def test_vertex_transform_symmetric_min_and_selection():
    sc = make_tripod(60)
    sol = hj.solve(sc)
    ts = _tripod_traces(sol)
    fx = f_x(ts, sc.network, sc.hamiltonians, "x0", thetas=sol.params.theta)
    one = f_gamma(ts, sc.network, sc.hamiltonians, "e1",
                  theta=sol.params.theta["e1"]).values[:, -1]
    assert np.array_equal(fx, one)  # symmetry: every arc gives the same trace
    _, chosen = f_x_selected(ts, sc.network, sc.hamiltonians, "x0",
                             thetas=sol.params.theta)
    assert set(chosen) == {"e1"}  # ties resolve to the smallest arc id


def test_vertex_transform_takes_the_pointwise_min():
    net = hj.build_network(["a", "b", "c"],
                           [("e1", "a", "c"), ("e2", "b", "c")])
    fam = hj.family_from_edges(net, {"e1": H1, "e2": H1})
    ns = 80
    th = 1.0 + 1.0 / ns
    dt = (1.0 / ns) / th
    nt = int(round(1.0 / dt))
    grid = hj.Grid2D(ns, 0.0, dt, nt)
    t = grid.t_nodes()
    ts = VertexTraceSet(grid,
                        {"a": -t, "b": -3.0 * t, "c": np.zeros(nt + 1)},
                        {"e1": np.zeros(ns + 1), "e2": np.zeros(ns + 1)})
    fx = f_x(ts, net, fam, "c", thetas={"e1": th, "e2": th})
    f1 = f_gamma(ts, net, fam, "e1", theta=th).values[:, -1]
    f2 = f_gamma(ts, net, fam, "e2", theta=th).values[:, -1]
    assert np.array_equal(fx, np.minimum(f1, f2))
    assert np.min(f1 - f2) >= 0.0  # the faster datum pulls e2 lower


def test_leaf_vertex_single_arc():
    sc = make_tripod(60)
    sol = hj.solve(sc)
    ts = _tripod_traces(sol)
    fx = f_x(ts, sc.network, sc.hamiltonians, "x1", thetas=sol.params.theta)
    only = f_gamma(ts, sc.network, sc.hamiltonians, "e1~",
                   theta=sol.params.theta["e1"]).values[:, -1]
    assert np.array_equal(fx, only)


def test_certificate_of_a_converged_solve():
    sc = make_path(100)
    sol = hj.solve(sc)
    rep = discr_residual(sol.trace_set(), sc.network, sc.hamiltonians,
                         sc.limiter_values(), tolerance=0.03,
                         thetas=sol.params.theta)
    assert rep.ok
    assert rep.worst <= 0.03


def test_certificate_detects_an_injected_offset():
    sc = make_path(100)
    sol = hj.solve(sc)
    ts = sol.trace_set()
    t = sol.grid.t_nodes()
    traces = {x: v.copy() for x, v in ts.traces.items()}
    traces["v1"] = traces["v1"] + 0.1 * (t > 1.0)
    rep = discr_residual(VertexTraceSet(sol.grid, traces, ts.initial),
                         sc.network, sc.hamiltonians, sc.limiter_values(),
                         tolerance=0.03, thetas=sol.params.theta)
    v1 = next(e for e in rep.entries if e.vertex == "v1")
    assert v1.residual >= 0.1 - 0.03
    assert not v1.ok


def test_certificate_trivial_on_initial_slice_only():
    sc = make_tripod(40)
    sol = hj.solve(sc)
    grid0 = hj.Grid2D(40, 0.0, sol.grid.dt, 0)
    ts = VertexTraceSet(grid0,
                        {x: sol.vertex[x][:1].copy() for x in sol.vertex},
                        {e: sol.fields[e][0].copy() for e in sol.fields})
    rep = discr_residual(ts, sc.network, sc.hamiltonians, sc.limiter_values(),
                         tolerance=1e-12, thetas=sol.params.theta)
    assert rep.ok and rep.worst == 0.0


def test_trace_set_validation():
    sc = make_tripod(40)
    sol = hj.solve(sc)
    ts = sol.trace_set()
    ts.validate(sc.network)
    bad = {x: v.copy() for x, v in ts.traces.items()}
    bad["x0"] = bad["x0"] + 1.0
    with pytest.raises(ValidationError):
        VertexTraceSet(sol.grid, bad, ts.initial).validate(sc.network)
    missing = {x: v for x, v in ts.traces.items() if x != "x2"}
    with pytest.raises(ValidationError, match="missing trace for vertex 'x2'"):
        VertexTraceSet(sol.grid, missing, ts.initial).validate(sc.network)
    short = {**ts.traces, "x1": ts.traces["x1"][:-1]}
    with pytest.raises(GridMismatchError, match="trace at 'x1' off the time"):
        VertexTraceSet(sol.grid, short, ts.initial).validate(sc.network)
    for initial in ({e: v for e, v in ts.initial.items() if e != "e3"},
                    {**ts.initial, "e3": ts.initial["e3"][:-1]}):
        with pytest.raises(GridMismatchError,
                           match="initial datum of 'e3' off the s-grid"):
            VertexTraceSet(sol.grid, ts.traces, initial).validate(sc.network)


def test_transform_equivariance_and_monotonicity():
    sc = make_tripod(60)
    sol = hj.solve(sc)
    ts = sol.trace_set()
    lift = 0.75
    lifted = VertexTraceSet(ts.grid,
                            {x: v + lift for x, v in ts.traces.items()},
                            {e: v + lift for e, v in ts.initial.items()})
    for x in ("x0", "x1"):
        base = f_x(ts, sc.network, sc.hamiltonians, x, thetas=sol.params.theta)
        up = f_x(lifted, sc.network, sc.hamiltonians, x,
                 thetas=sol.params.theta)
        assert np.max(np.abs(up - (base + lift))) < 1e-12
        assert np.all(up >= base - 1e-12)


def test_comparison_of_trace_sets():
    sc = make_tripod(60)
    sol = hj.solve(sc)
    ts = sol.trace_set()
    lim = sc.limiter_values()
    eps = 0.05
    # identical sets compare with near-zero margin
    rep = discr_compare(ts, ts, sc.network, sc.hamiltonians, lim, eps,
                        thetas=sol.params.theta)
    assert rep.ok and abs(rep.margin) <= 1e-12
    # a constant lift of the supersolution gives that margin back
    up = VertexTraceSet(ts.grid, {x: v + 1.0 for x, v in ts.traces.items()},
                        {e: v + 1.0 for e, v in ts.initial.items()})
    rep = discr_compare(ts, up, sc.network, sc.hamiltonians, lim, eps,
                        thetas=sol.params.theta)
    assert rep.ok and rep.margin >= 1.0 - 1e-12
    # the strictified subsolution stays below
    t_rel = ts.grid.t_nodes() - ts.grid.t0
    strict = VertexTraceSet(ts.grid,
                            {x: v - 0.05 * t_rel for x, v in ts.traces.items()},
                            ts.initial)
    rep = discr_compare(strict, ts, sc.network, sc.hamiltonians, lim, eps,
                        thetas=sol.params.theta)
    assert rep.ok and rep.margin >= -1e-12
    # trace sets on two time grids do not compare
    short = hj.solve(make_tripod(60, horizon=1.0)).trace_set()
    with pytest.raises(GridMismatchError, match="share the time grid"):
        discr_compare(ts, short, sc.network, sc.hamiltonians, lim, eps,
                      thetas=sol.params.theta)


def test_resolving_arcs_from_converged_traces_replays_the_fields():
    sc = make_path(80)
    sol = hj.solve(sc)
    fam, a, lim = hj.positive_shift(sc.hamiltonians, sc.limiter_values())
    assert a == 0.0
    for arc in sc.network.edge_arcs():
        re = hj.max_subsolution(
            sc.hamiltonians[arc.id], sol.fields[arc.id][0],
            hj.constrained(sol.vertex[arc.start]),
            hj.constrained(sol.vertex[arc.end]),
            sol.grid, theta=sol.params.theta[arc.id])
        assert np.array_equal(re.values, sol.fields[arc.id])


def _error_of(call):
    with pytest.raises(Exception) as err:
        call()
    return err.type, str(err.value)


def _tripod_with(sol, traces=None, initial=None):
    ts = sol.trace_set()
    return VertexTraceSet(sol.grid, {**ts.traces, **(traces or {})},
                          {**ts.initial, **(initial or {})})


def test_the_certificate_residual_converges_at_half_order():
    # a monotone scheme's error is of half order (Crandall & Lions), so the
    # certificate residual, measured as verify computes it, falls by about
    # 2^-0.5 per grid doubling; random_scenario draw 3 of default_rng(7), a
    # tripod, has orders 0.41 and 0.62 between ns 100, 200 and 400
    worst = []
    for ns in (100, 200, 400):
        rng = np.random.default_rng(7)
        for draw in range(4):
            sc = random_scenario(rng, "tripod" if draw % 2 else "path", ns)
        sol = hj.solve(sc)
        const = sc.constants
        rep = discr_residual(sol.trace_set(shifted=True), sc.network,
                             const.hamiltonians, const.limiter,
                             hj.default_epsilon(sol),
                             thetas=sol.params.theta)
        assert rep.ok
        worst.append(rep.worst)
    orders = np.log2(np.array(worst[:-1]) / worst[1:])
    assert np.all((orders > 0.35) & (orders < 0.7)), orders
    assert 0.45 < np.log2(worst[0] / worst[-1]) / 2 < 0.6, worst


def test_stacked_arc_checks_raise_what_the_bad_arc_raises_alone():
    sc = make_tripod(24)
    sol = hj.solve(sc)
    net, fam, lim = sc.network, sc.hamiltonians, sc.limiter_values()
    th = sol.params.theta
    x1 = sol.vertex["x1"]
    cases = [   # (trace set, thetas, error of e1, which starts at x1, alone)
        (_tripod_with(sol, traces={"x1": x1 - 1e-6}), th, CornerMismatchError),
        (_tripod_with(sol), {**th, "e1": 2.0 * sol.grid.ds / sol.grid.dt},
         CFLViolationError),
        # a NaN theta fails the step check and hides no other arc's failure
        (_tripod_with(sol), {**th, "e1": float("nan"),
                             "e2": 2.0 * sol.grid.ds / sol.grid.dt},
         CFLViolationError),
        (_tripod_with(sol, traces={"x1": x1[:-1]}), th, GridMismatchError),
        (_tripod_with(sol, initial={"e1": sol.fields["e1"][0][:-1]}), th,
         GridMismatchError),
    ]
    for ts, thetas, kind in cases:
        alone = _error_of(lambda: f_gamma(ts, net, fam, "e1", theta=thetas["e1"]))
        assert alone[0] is kind
        assert _error_of(lambda: f_x(ts, net, fam, "x0", thetas=thetas)) == alone
        assert _error_of(lambda: discr_residual(
            ts, net, fam, lim, 0.1, thetas=thetas)) == alone
    ts = sol.trace_set()
    for x in ("x0", "x2"):
        bad = {**lim, x: 0.25}
        assert _error_of(lambda: discr_residual(ts, net, fam, bad, 0.1,
                                                thetas=th)) == (
            NonNegativeSlopeError, "slope must be negative, got 0.25")


def test_a_trace_set_missing_a_trace_or_a_datum_is_named():
    sol = hj.solve(make_tripod(24))
    sc, full = sol.scenario, sol.trace_set()
    net, fam, lim = sc.network, sc.hamiltonians, sc.limiter_values()
    th = sol.params.theta
    no_x1 = VertexTraceSet(sol.grid, {x: v for x, v in full.traces.items()
                                      if x != "x1"}, full.initial)
    no_e2 = VertexTraceSet(sol.grid, full.traces, {e: g for e, g in
                                                   full.initial.items()
                                                   if e != "e2"})
    no_e2_theta = {e: v for e, v in th.items() if e != "e2"}
    for ts, thetas, missing in (
            (no_x1, th, "trace set has no trace for vertex 'x1'"),
            (no_e2, th, "trace set has no initial datum for edge 'e2'"),
            (full, no_e2_theta, "params carry no theta for edge 'e2'")):
        for call in (lambda: discr_residual(ts, net, fam, lim, 0.1, thetas),
                     lambda: discr_compare(ts, full, net, fam, lim, 0.1,
                                           thetas),
                     lambda: discr_compare(full, ts, net, fam, lim, 0.1,
                                           thetas),
                     lambda: f_x(ts, net, fam, "x0", thetas),
                     lambda: f_x_selected(ts, net, fam, "x0", thetas)):
            assert _error_of(call) == (ValidationError, missing)
    # an arc transform reads only its own datum and its start trace
    with pytest.raises(ValidationError, match="vertex 'x1'"):
        f_gamma(no_x1, net, fam, "e1", th["e1"])
    with pytest.raises(ValidationError, match="edge 'e2'"):
        f_gamma(no_e2, net, fam, "e2~", th["e2"])
    assert f_gamma(no_e2, net, fam, "e1", th["e1"]).values.shape == (
        sol.grid.nt + 1, sol.grid.ns + 1)


def test_every_arc_march_takes_its_theta_from_the_caller():
    # the plan's theta is the one dissipation rule; none is derived here
    sol = hj.solve(make_tripod(16))
    sc, ts = sol.scenario, sol.trace_set()
    net, fam, lim = sc.network, sc.hamiltonians, sc.limiter_values()
    for call in (lambda: f_gamma(ts, net, fam, "e1"),
                 lambda: f_x(ts, net, fam, "x0"),
                 lambda: f_x_selected(ts, net, fam, "x0"),
                 lambda: discr_residual(ts, net, fam, lim, 0.1),
                 lambda: discr_compare(ts, ts, net, fam, lim, 0.1),
                 lambda: hj.max_subsolution(fam["e1"], ts.initial["e1"],
                                            hj.free(), hj.free(), sol.grid)):
        with pytest.raises(TypeError, match="theta"):
            call()


def test_discr_compare_names_a_datum_off_the_network_before_marching(
        monkeypatch):
    sol = hj.solve(make_tripod(16))
    sc, full = sol.scenario, sol.trace_set()
    net, fam, lim = sc.network, sc.hamiltonians, sc.limiter_values()
    extra = VertexTraceSet(sol.grid, full.traces,
                           {**full.initial, "zz": full.initial["e1"]})

    def no_march(*args, **kwargs):
        raise AssertionError("marched before the data were checked")

    monkeypatch.setattr(semidiscrete, "_march_arcs", no_march)
    for sub, sup in ((extra, full), (full, extra), (extra, extra)):
        with pytest.raises(ValidationError, match="datum for 'zz', which is "
                                                  "not an edge of the network"):
            discr_compare(sub, sup, net, fam, lim, 0.1, sol.params.theta)
    no_e2 = VertexTraceSet(sol.grid, full.traces,
                           {e: g for e, g in full.initial.items() if e != "e2"})
    for sub, sup in ((no_e2, full), (full, no_e2)):
        with pytest.raises(ValidationError, match="no initial datum for edge "
                                                  "'e2'"):
            discr_compare(sub, sup, net, fam, lim, 0.1, sol.params.theta)


def test_a_non_finite_trace_raises_the_same_error_in_every_transform():
    net, fam, ts, grid, th = single_edge_traces(4, 2.4, lambda t: -t)
    assert grid.nt == 12
    ts.traces["a"][3] = np.nan
    alone = _error_of(lambda: f_gamma(ts, net, fam, "e", theta=th))
    assert alone == (ValidationError, "lateral datum must be finite")
    assert _error_of(lambda: f_x(ts, net, fam, "b", thetas={"e": th})) == alone
    assert _error_of(lambda: discr_residual(
        ts, net, fam, {"a": -1.0, "b": -1.0}, 0.1, thetas={"e": th})) == alone


def _cap_by_scalar_loop(psi, a, dt):
    # the cap's one-step recursion in Python floats, one vertex at a time:
    # the oracle for the stacked caps; min keeps psi[k] on a tie
    out, acc = [psi[0]], psi[0]
    for v in psi[1:]:
        acc = min(v, acc + a * dt)
        out.append(acc)
    return np.array(out)


def _caps_one_vertex_at_a_time(ts, net, fam, lim, thetas):
    ids = [a.id for x in net.vertex_ids() for a in hj.incident_arcs(net, x)]
    per_arc = dict(zip(ids, semidiscrete._arc_transform_traces(
        ts, net, fam, ids, thetas)))
    return {x: _cap_by_scalar_loop(np.min(
        [per_arc[a.id] for a in hj.incident_arcs(net, x)], axis=0),
        lim[x], ts.grid.dt) for x in net.vertex_ids()}


def test_stacked_caps_equal_a_scalar_loop_bitwise_on_random_traces():
    rng = np.random.default_rng(4)
    sol = hj.solve(make_mixed(24))
    const, base = sol.constants, sol.trace_set(shifted=True)
    net, fam = sol.scenario.network, const.hamiltonians
    for _ in range(5):
        noise = {x: np.concatenate([[0.0], rng.normal(0.0, 0.05, v.size - 1)])
                 for x, v in base.traces.items()}
        ts = VertexTraceSet(base.grid,
                            {x: v + noise[x] for x, v in base.traces.items()},
                            base.initial)
        got = semidiscrete._capped_transforms(ts, net, fam, const.limiter,
                                              sol.params.theta)
        want = _caps_one_vertex_at_a_time(ts, net, fam, const.limiter,
                                          sol.params.theta)
        for x in net.vertex_ids():
            assert got[x].tobytes() == want[x].tobytes(), x


def test_stacked_caps_and_apply_g_keep_ties_and_signed_zeros(monkeypatch):
    # dyadic transforms that fall at the limiter's rate, give or take a few
    # ulps of the grid, tie the cap with the series all along; where both
    # are zero, -0.0 against 0.0 shows which of the two a tie keeps
    rng = np.random.default_rng(9)
    net = make_mixed(8).network
    into = {x: [a.id for a in hj.incident_arcs(net, x)]
            for x in net.vertex_ids()}
    ids = [aid for x in into for aid in into[x]]
    grid = hj.Grid2D(8, 0.0, 2.0 ** -6, 200)
    lim = {x: -float(rng.integers(1, 4)) / 4.0 for x in into}
    k = np.arange(grid.nt + 1)
    for _ in range(30):
        rows = np.array([lim[x] * grid.dt * (k - rng.integers(grid.nt))
                         + dyadic_series(rng, k.size, 2.0 ** -8, 2)
                         * (rng.random(k.size) < 0.1)
                         for x in into for _ in into[x]])
        rows[rows == 0.0] *= rng.choice([1.0, -1.0], np.sum(rows == 0.0))
        monkeypatch.setattr(semidiscrete, "_arc_transform_traces",
                            lambda *args, rows=rows: rows)
        got = semidiscrete._capped_transforms(
            VertexTraceSet(grid, {}, {}), net, None, lim, None)
        by_arc = dict(zip(ids, rows))
        for x in into:
            psi = np.min([by_arc[aid] for aid in into[x]], axis=0)
            want = _cap_by_scalar_loop(psi, lim[x], grid.dt).tobytes()
            assert got[x].tobytes() == want, x
            assert apply_g(TimeSeries(0.0, grid.dt, psi),
                           lim[x]).values.tobytes() == want, x
