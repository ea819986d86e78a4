"""Network solver: constants, closed forms, well-posedness checks."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import hjnet as hj
from hjnet.errors import (CFLViolationError, GridMismatchError, HJNetError,
                          NonNegativeSlopeError, ValidationError)
from hjnet import hamiltonians, network_solver
from hjnet.hamiltonians import shift_hamiltonian
from hjnet.network_solver import interior_bump

from conftest import (make_comb, make_mixed, make_path, make_single_edge,
                      make_tripod)


def test_m0_joins_datum_level_and_limiter():
    sc = make_tripod(50)
    assert hj.compute_m0(sc) == 2.0  # level(g=0) = 1, |c_center| = 2

    sc1 = make_single_edge(50, c=-1.0,
                           initial={"e": np.linspace(0.0, 1.0, 51)})
    assert hj.compute_m0(sc1) == pytest.approx(2.0, rel=1e-12)  # level of g = s

    sc0 = make_single_edge(50, c=-1.0)
    assert hj.compute_m0(sc0) == 1.0  # zero datum: level H(0) = 1 = |c|


def test_normalization_is_derived_once_per_scenario(monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(network_solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("positive_shift", "sublevel_width"):
        monkeypatch.setattr(network_solver, name, counted(name))
    sc = make_mixed(12)
    n_edges = len(sc.network.edge_arcs())
    sol = hj.solve(sc, hj.plan_solve(sc))
    hj.verify(sol)
    assert calls == {"positive_shift": 1, "sublevel_width": n_edges}
    assert sol.constants is sc.constants

    # a changed input is a new object with its own record
    lowered = dataclasses.replace(
        sc, limiter={x: c - 0.5 for x, c in sc.limiter.items()},
        hamiltonians=hj.HamiltonianFamily(
            {a: shift_hamiltonian(H, -0.5)
             for a, H in sc.hamiltonians.by_arc.items()}))
    assert lowered.constants.shift == pytest.approx(sc.constants.shift + 0.5,
                                                    abs=1e-12)
    assert calls == {"positive_shift": 2, "sublevel_width": 2 * n_edges}


def test_tripod_closed_form():
    sc = make_tripod(100)
    sol = hj.solve(sc)
    t, s = sol.grid.t_nodes(), sol.grid.s_nodes()
    exact = np.minimum(-t[:, None], -2.0 * t[:, None] + (1.0 - s)[None, :])
    err = max(float(np.max(np.abs(sol.fields[e] - exact)))
              for e in sol.fields)
    assert err < 0.01
    # flux limiter binds at the center from the first step on
    assert np.max(np.abs(sol.vertex["x0"] - (-2.0 * t))) < 1e-12
    assert np.max(np.abs(sol.vertex["x1"] - np.minimum(-t, -2.0 * t + 1.0))) < 0.01


def test_constant_datum_with_slack_limiter_decays_uniformly():
    sc = make_tripod(60, c_center=-1.0, c_leaf=-1.0,
                     initial={e: np.full(61, 0.4) for e in ("e1", "e2", "e3")})
    sol = hj.solve(sc)
    t = sol.grid.t_nodes()
    err = max(float(np.max(np.abs(sol.fields[e] - (0.4 - t)[:, None])))
              for e in sol.fields)
    assert err < 1e-12


def test_single_edge_network_agrees_with_free_arc_solve():
    sc = make_single_edge(80, horizon=1.0, c=-1.0)
    sol = hj.solve(sc)
    fld = hj.max_subsolution(hj.abs_hamiltonian(kappa=1.0), np.zeros(81),
                             hj.free(), hj.free(), sol.grid,
                             theta=sol.params.theta["e"])
    assert np.max(np.abs(sol.fields["e"] - fld.values)) < 1e-12


def test_solver_rejects_bad_inputs():
    sc = make_tripod(40)
    bad_lim = dict(sc.limiter_values(), x0=0.5)
    with pytest.raises(ValidationError):
        hj.solve(dataclasses.replace(sc, limiter=bad_lim))
    bad_g = {e: v.copy() for e, v in sc.initial.items()}
    bad_g["e2"] = bad_g["e2"] + 1.0  # breaks consistency at the center
    with pytest.raises(ValidationError):
        hj.solve(dataclasses.replace(sc, initial=bad_g))
    with pytest.raises(CFLViolationError):
        hj.plan_solve(dataclasses.replace(sc, dt=1.0))
    with pytest.raises(ValidationError):
        hj.plan_solve(dataclasses.replace(sc, cfl=1.5))


def test_missing_initial_datum_is_named():
    sc = make_tripod(20)
    initial = {e: v for e, v in sc.initial.items() if e != "e2"}
    with pytest.raises(ValidationError,
                       match="edge 'e2' is missing its initial datum"):
        hj.validate_scenario(dataclasses.replace(sc, initial=initial))


def test_too_few_space_cells_are_named():
    sc = make_tripod(1)
    with pytest.raises(ValidationError, match="ns must be at least 2"):
        hj.validate_scenario(sc)
    with pytest.raises(ValidationError, match="ns must be at least 2"):
        hj.solve(sc)


def test_calibration_needs_two_levels():
    for levels in (1, 0, -1):
        with pytest.raises(ValidationError, match="levels >= 2"):
            hj.calibrate_epsilon(make_tripod(16), levels=levels)


def test_repeated_checks_derive_no_invariant_again(monkeypatch):
    # a shifted Hamiltonian is kept per (H, a), so a second run of a check
    # on a negative-valued family meets the widths and minima it derived
    calls = []
    check_grid = hamiltonians._s_check_grid

    def counted(H, s_grid=None, n=257):
        calls.append(H.kind)
        return check_grid(H, s_grid, n)

    monkeypatch.setattr(hamiltonians, "_s_check_grid", counted)
    sc = make_mixed(16)
    assert sc.constants.shift == pytest.approx(0.500001, abs=1e-12)
    lifted = {e: np.asarray(v) + 0.2 for e, v in sc.initial.items()}
    for check in (lambda: network_solver.shift_check(sc, 1.0),
                  lambda: network_solver.contraction_check(sc, lifted)):
        first = check()
        n = len(calls)
        assert n > 0
        assert check() == first
        assert len(calls) == n


def test_explicit_time_step_is_honored():
    sc = dataclasses.replace(make_tripod(40), dt=0.002)
    params = hj.plan_solve(sc)
    assert params.dt <= 0.002 + 1e-15
    assert params.nt * params.dt == pytest.approx(sc.horizon, rel=1e-12)
    hj.solve(sc, params)


def test_verify_passes_on_solver_output():
    for sc in (make_tripod(60), make_path(60)):
        rep = hj.verify(hj.solve(sc))
        assert rep.ok, [c.name for c in rep.checks if not c.ok]


def test_verify_rejects_unknown_check_names():
    sol = hj.solve(make_path(20))
    with pytest.raises(ValidationError, match="window"):
        hj.verify(sol, checks=["headroom", "window"])
    assert [c.name for c in hj.verify(sol, checks=["headroom"]).checks] \
        == ["headroom"]


def test_verify_flags_forced_vertex_slope():
    sc = make_tripod(60)
    sol = hj.solve(sc)
    t = sol.grid.t_nodes()
    vert = {x: v.copy() for x, v in sol.vertex.items()}
    ramp = np.where(t > 1.0, 0.5 * (t - 1.0), 0.0)
    vert["x0"] = vert["x0"] + ramp  # slope becomes c_x + 0.5 past t = 1
    broken = dataclasses.replace(sol, vertex=vert)
    rep = hj.verify(broken)
    assert not rep["vertex_slope"].ok
    assert rep["vertex_slope"].witness == {"vertex": "x0"}
    assert not rep["vertex_continuity"].ok


def test_verify_flags_lifted_arc_field():
    sc = make_tripod(60)
    sol = hj.solve(sc)
    t = sol.grid.t_nodes()
    fields = {e: v.copy() for e, v in sol.fields.items()}
    fields["e2"] = fields["e2"] + 0.1 * (t > 0.5)[:, None]
    broken = dataclasses.replace(sol, fields=fields)
    rep = hj.verify(broken)
    assert not rep["vertex_continuity"].ok
    assert not rep["interior_residual"].ok


def test_contraction_constant_is_exact():
    sc = make_tripod(80)
    rep = hj.contraction_check(sc, {e: v + 0.3 for e, v in sc.initial.items()})
    assert rep.ok
    assert rep.sup_diff == pytest.approx(0.3, abs=1e-12)
    assert rep.ordered


def test_contraction_bump_bounded_by_its_height():
    sc = make_tripod(80)
    bump = interior_bump(80, 0.2)
    rep = hj.contraction_check(sc, {e: v + bump for e, v in sc.initial.items()})
    assert rep.ok
    assert rep.sup_diff <= 0.2 + 1e-11
    assert rep.ordered


def test_contraction_identical_data_gives_zero():
    sc = make_tripod(60)
    rep = hj.contraction_check(sc, {e: v.copy() for e, v in sc.initial.items()})
    assert rep.sup_diff == 0.0


def test_shift_identity():
    sc = make_tripod(80)
    for a in (0.0, 1.0, 5.0):
        if a == 0.0:
            sol = hj.solve(sc)
            again = hj.solve(sc)
            assert all(np.array_equal(sol.fields[e], again.fields[e])
                       for e in sol.fields)
            continue
        rep = hj.shift_check(sc, a)
        assert rep.ok, rep.max_dev


def test_stability_sweep_halves_monotonically():
    sc = make_tripod(60)
    rep = hj.stability_sweep(sc, eps_h=0.4, eps_c=0.2, eps_g=0.2, levels=3)
    assert rep.monotone_ok
    assert rep.diffs[0] > rep.diffs[-1] > 0.0
    only_g = hj.stability_sweep(sc, eps_g=0.2, levels=3)
    for k, d in enumerate(only_g.diffs):
        assert d <= 0.2 * 2.0 ** (-k) + 1e-11  # contraction bound per level
    none = hj.stability_sweep(sc, levels=2)
    assert none.diffs == [0.0, 0.0]


def test_restart_replays_byte_identically():
    sc = make_tripod(107)  # nt = 216, half = 108
    equal, worst = hj.restart_check(sc)
    assert equal and worst == 0.0


def test_restart_at_odd_splits_replays_byte_identically():
    # splits at step 101 of 202 (tripod), 140 of 280 (path, two kinds) and
    # 27 of 55 (comb, all three kinds); no positivity shift in any of them
    for sc, nt in ((make_tripod(100), 202), (make_path(40), 280),
                   (make_comb(3), 55)):
        params = hj.plan_solve(sc)
        assert params.nt == nt
        equal, worst = hj.restart_check(sc, params)
        assert equal and worst == 0.0, sc.name


def test_headroom_flags_underdissipated_arc():
    sc = make_path(40)
    params = hj.plan_solve(sc)
    assert hj.verify(hj.solve(sc, params)).ok
    # theta 1 on the quadratic arc b is below 2 * slope seen there
    low = dataclasses.replace(params, theta={**params.theta, "b": 1.0})
    rep = hj.verify(hj.solve(sc, low), checks=["headroom"])
    head = rep["headroom"]
    assert not head.ok and head.margin < 0.0
    assert head.witness["edge"] == "b"
    assert head.witness["width_beyond_table"] is False


def test_solve_rejects_nonnegative_shifted_limiter():
    sc = make_tripod(40)
    params = hj.plan_solve(sc)
    bad = dataclasses.replace(sc, limiter={**sc.limiter, "x0": 0.5})
    with pytest.raises(NonNegativeSlopeError, match="vertex 'x0'"):
        hj.solve(bad, params)


def _ensemble_equals_solo_solves(members, params):
    sols = hj.solve_ensemble(members, params)
    assert len(sols) == len(members)
    for sc, sol in zip(members, sols):
        alone = hj.solve(sc, params)
        assert sol.scenario is sc and sol.params is params
        assert sol.grid == alone.grid
        assert sorted(sol.fields) == sorted(alone.fields)
        assert sorted(sol.vertex) == sorted(alone.vertex)
        for e in alone.fields:
            assert np.array_equal(sol.fields[e], alone.fields[e]), (sc.name, e)
        for x in alone.vertex:
            assert np.array_equal(sol.vertex[x], alone.vertex[x]), (sc.name, x)
    return sols


def test_ensemble_members_equal_their_own_solves():
    # make_mixed: all three kinds, a cycle, a multi-edge, a non-zero shift
    for sc in (make_mixed(16), make_comb(0)):
        lifted = dataclasses.replace(
            sc, initial={e: v + 0.1 for e, v in sc.initial.items()})
        bumped = dataclasses.replace(
            sc, initial={e: v + interior_bump(sc.ns, 0.2)
                         for e, v in sc.initial.items()})
        members = [sc, lifted, bumped]
        _ensemble_equals_solo_solves(
            members, hj.plan_solve(sc, others=members[1:]))


def test_ensemble_members_keep_their_own_positivity_shift():
    sc = make_mixed(16)
    raised = dataclasses.replace(
        sc, limiter={x: c - 2.0 for x, c in sc.limiter.items()},
        hamiltonians=hj.HamiltonianFamily(
            {a: shift_hamiltonian(H, 2.0)
             for a, H in sc.hamiltonians.by_arc.items()}))
    assert sc.constants.shift > 0.0 and raised.constants.shift == 0.0
    _ensemble_equals_solo_solves([sc, raised],
                                 hj.plan_solve(sc, others=[raised]))


def test_ensemble_members_may_come_from_different_networks():
    members = [make_tripod(16, horizon=0.25), make_path(16, horizon=0.25),
               make_comb(0, ns=16, horizon=0.25)]
    plans = [hj.plan_solve(sc) for sc in members]
    finest = min(plans, key=lambda p: p.dt)
    params = dataclasses.replace(
        finest, theta={e: th for p in plans for e, th in p.theta.items()})
    sols = _ensemble_equals_solo_solves(members, params)
    assert [len(s.fields) for s in sols] == [3, 2, 8]


def test_ensemble_rejects_members_off_its_grid():
    sc = make_tripod(16, horizon=0.25)
    params = hj.plan_solve(sc)
    with pytest.raises(ValidationError, match="at least one scenario"):
        hj.solve_ensemble([], params)
    with pytest.raises(GridMismatchError, match="ns=20"):
        hj.solve_ensemble([sc, make_tripod(20, horizon=0.25)], params)
    with pytest.raises(GridMismatchError, match="t0=0.5"):
        hj.solve_ensemble([sc, dataclasses.replace(sc, t0=0.5)], params)
    with pytest.raises(ValidationError, match="no theta for edge 'a'"):
        hj.solve_ensemble([sc, make_path(16, horizon=0.25)], params)
    fast = dataclasses.replace(params, theta={**params.theta,
                                              "e2": 2.0 * params.theta["e2"]})
    with pytest.raises(CFLViolationError, match="edge 'e2'"):
        hj.solve_ensemble([sc], fast)
    bad = dataclasses.replace(sc, limiter={**sc.limiter, "x0": 0.5})
    with pytest.raises(NonNegativeSlopeError, match="vertex 'x0'"):
        hj.solve_ensemble([sc, bad], params)
    for err in (GridMismatchError, CFLViolationError, NonNegativeSlopeError):
        assert issubclass(err, HJNetError)


def _patch_shifted_plan(monkeypatch, sc, change):
    """plan_solve that hands every scenario but sc a changed plan."""
    plan = network_solver.plan_solve

    def patched(scenario, *args, **kwargs):
        params = plan(scenario, *args, **kwargs)
        return params if scenario is sc else change(params)

    monkeypatch.setattr(network_solver, "plan_solve", patched)


def test_shift_check_requires_the_shifted_run_on_the_same_grid(monkeypatch):
    sc = make_tripod(40)
    assert hj.shift_check(sc, 1.0).ok
    _patch_shifted_plan(monkeypatch, sc, lambda p: dataclasses.replace(
        p, nt=p.nt + 1, dt=sc.horizon / (p.nt + 1)))
    with pytest.raises(ValidationError, match="different grid"):
        hj.shift_check(sc, 1.0)


def test_shift_check_marches_both_runs_on_one_theta(monkeypatch):
    # at ns=8 the path's two plans differ in the last bit of theta on the
    # quadratic edge; both runs march on the original's, so nothing raises
    sc = make_path(8)
    rep = hj.shift_check(sc, 1.0)
    _patch_shifted_plan(monkeypatch, sc, lambda p: dataclasses.replace(
        p, theta={e: 2.0 * th for e, th in p.theta.items()}))
    assert hj.shift_check(sc, 1.0) == rep and rep.ok


def test_handcrafted_subsolutions_stay_below_the_solution():
    sc = make_tripod(80)
    sol = hj.solve(sc)
    t_rel = sol.grid.t_nodes() - sol.grid.t0
    eps = hj.default_epsilon(sol)
    # constant minus a steep ramp, at the worst admissible rate
    K = max(2.0, sol.constants.m0)
    ramp = {x: np.min([v.min() for v in sc.initial.values()]) - K * t_rel
            for x in sol.vertex}
    for x, w in ramp.items():
        assert np.all(w <= sol.vertex[x] + eps)
    for e in sol.fields:
        assert np.all(ramp["x0"][:, None] <= sol.fields[e] + eps)
    # strictified traces
    for x in sol.vertex:
        assert np.all(sol.vertex[x] - 0.1 * t_rel <= sol.vertex[x] + eps)


def test_lipschitz_bounds_do_not_grow_with_the_horizon():
    sols = {}
    for T in (1.0, 2.0):
        sc = make_tripod(80, horizon=T)
        sols[T] = hj.solve(sc)
    m0 = sols[2.0].constants.m0
    l0 = max(sols[2.0].constants.l_bound.values())
    for T, sol in sols.items():
        dtg = sol.grid.dt
        tslopes = np.diff(sol.fields["e1"], axis=0) / dtg
        sslopes = np.diff(sol.fields["e1"], axis=1) * sol.grid.ns
        assert np.min(tslopes) >= -m0 - 1e-9
        assert np.max(tslopes) <= 1e-12
        assert np.max(np.abs(sslopes)) <= l0 + 1e-9
    assert sols[1.0].constants.m0 == sols[2.0].constants.m0


def test_cyclic_network_solves_and_verifies():
    # cycles are allowed (only self-loops are rejected); coupling at the
    # vertices does not assume tree structure
    net = hj.build_network(["p", "q", "r"],
                           [("pq", "p", "q"), ("qr", "q", "r"), ("rp", "r", "p")])
    H = hj.abs_hamiltonian(kappa=1.0)
    fam = hj.family_from_edges(net, {"pq": H, "qr": H, "rp": H})
    ns = 90
    s = np.linspace(0.0, 1.0, ns + 1)
    sc = hj.Scenario(net, fam, {"p": -1.0, "q": -2.0, "r": -1.0},
                     {"pq": 0.3 * np.sin(np.pi * s) ** 2,
                      "qr": np.zeros(ns + 1), "rp": np.zeros(ns + 1)},
                     horizon=1.5, ns=ns, name="triangle")
    sol = hj.solve(sc)
    assert hj.verify(sol).ok
    t = sol.grid.t_nodes()
    assert np.max(np.abs(sol.vertex["q"] + 2.0 * t)) < 1e-12


def test_core_checks_hold_on_randomized_scenarios():
    # certificate, interior residuals, vertex slope cap and continuity are
    # robust across mixed Hamiltonian kinds and rough piecewise-linear data;
    # the time-monotonicity check is exercised separately since dissipative
    # schemes transiently overshoot at under-resolved convex datum kinks
    from conftest import random_scenario
    rng = np.random.default_rng(4242)
    core = ("interior_residual", "discr_certificate", "vertex_slope",
            "vertex_continuity", "inverse_consistency", "limiter")
    for trial in range(8):
        sc = random_scenario(rng, "tripod" if trial % 2 else "path", 64)
        rep = hj.verify(hj.solve(sc), checks=core)
        assert rep.ok, (trial, [c.name for c in rep.checks if not c.ok])


def test_negative_hamiltonians_solve_through_the_positivity_shift():
    # H = p^2 - 1 has critical value +1, so a positive limiter is legal and
    # the solution may rise in time at up to that rate
    net = hj.build_network(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    H = hj.quadratic_hamiltonian(kappa=-1.0)
    fam = hj.family_from_edges(net, {"e1": H, "e2": H})
    ns = 80
    s = np.linspace(0.0, 1.0, ns + 1)
    sc = hj.Scenario(net, fam, {"a": 0.5, "b": 0.3, "c": 1.0},
                     {"e1": 0.2 * np.sin(np.pi * s), "e2": np.zeros(ns + 1)},
                     horizon=1.0, ns=ns, name="shifted")
    sol = hj.solve(sc)
    assert sol.constants.shift == pytest.approx(1.0, abs=1e-5)
    rep = hj.verify(sol)
    assert rep.ok, [c.name for c in rep.checks if not c.ok]
    rise = np.max(np.diff(sol.vertex["b"])) / sol.grid.dt
    assert rise == pytest.approx(0.3, abs=1e-12)
    assert hj.shift_check(sc, 2.0).ok


def test_resolution_change_resamples_the_datum():
    sc = make_tripod(40, initial={e: np.linspace(0.0, 0.0, 41)
                                  for e in ("e1", "e2", "e3")})
    fine = hj.with_resolution(sc, 80)
    assert fine.ns == 80
    assert fine.initial["e1"].shape == (81,)


def test_solution_reverse_field_accessor():
    sc = make_path(40)
    sol = hj.solve(sc)
    assert np.array_equal(sol.field("a~"), sol.fields["a"][:, ::-1])
