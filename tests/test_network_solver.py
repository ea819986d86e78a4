"""Network solver: constants, closed forms, well-posedness checks."""

import dataclasses
import os
from collections import Counter

import numpy as np
import pytest

import hjnet as hj
from hjnet.errors import (CFLViolationError, GridMismatchError, HJNetError,
                          NonNegativeSlopeError, UnknownVertexError,
                          ValidationError)
from hjnet import hamiltonians, network_solver
from hjnet.hamiltonians import shift_hamiltonian
from hjnet.network_solver import interior_bump
from hjnet.scenario_io import parse_scenario

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
    # one width per edge and Scenario object
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


def test_cfl_scales_the_default_time_step():
    sc = make_tripod(40)
    full = hj.plan_solve(sc)
    cap = (1.0 / sc.ns) / max(full.theta.values())
    assert full.nt == int(np.ceil(sc.horizon / cap - 1e-9))
    half = hj.plan_solve(dataclasses.replace(sc, cfl=0.5))
    assert half.theta == full.theta
    assert half.nt == int(np.ceil(sc.horizon / (0.5 * cap) - 1e-9))
    assert half.dt == sc.horizon / half.nt and half.dt <= 0.5 * cap


def test_missing_initial_datum_is_named():
    sc = make_tripod(20)
    initial = {e: v for e, v in sc.initial.items() if e != "e2"}
    with pytest.raises(ValidationError,
                       match="edge 'e2' is missing its initial datum"):
        hj.validate_scenario(dataclasses.replace(sc, initial=initial))
    bad = {**sc.initial, "e3": sc.initial["e3"].copy()}
    bad["e3"][7] = np.nan
    with pytest.raises(ValidationError,
                       match="initial datum of edge 'e3' not finite"):
        hj.validate_scenario(dataclasses.replace(sc, initial=bad))


def test_comparable_scenarios_must_share_ns():
    with pytest.raises(ValidationError,
                       match="comparable scenarios must share ns"):
        hj.plan_solve(make_tripod(20), others=[make_tripod(24)])


def test_a_report_names_an_unknown_check_as_a_key_error():
    rep = hj.verify(hj.solve(make_path(20)), checks=["headroom"])
    assert rep["headroom"].name == "headroom"
    with pytest.raises(KeyError, match="limiter"):
        rep["limiter"]


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
def test_non_finite_start_time_is_named(t0):
    sc = dataclasses.replace(make_tripod(20), t0=t0)
    with pytest.raises(ValidationError, match="t0 must be finite"):
        hj.validate_scenario(sc)


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

    def counted(H):
        calls.append(H.kind)
        return check_grid(H)

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
    # the check that compared each reverse arc with its own reflection is gone
    with pytest.raises(ValidationError, match="inverse_consistency"):
        hj.verify(sol, checks=["inverse_consistency"])
    # a subset comes back once per check, in battery order
    picked = ["headroom", "limiter", "time_lipschitz", "limiter", "headroom"]
    assert [c.name for c in hj.verify(sol, checks=picked).checks] \
        == ["limiter", "time_lipschitz", "headroom"]


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
    cert = rep["discr_certificate"]
    assert not cert.ok and cert.witness["vertex"] == "x0"
    assert sol.grid.t0 < cert.witness["t"] <= sol.grid.t0 + sc.horizon
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
    assert rep["vertex_continuity"].witness == {"edge": "e2"}
    assert rep["interior_residual"].witness == {"edge": "e2"}


def test_verify_on_a_zero_step_solution():
    # the first leg of restart_check at nt = 1: no step to difference, so the
    # time-difference checks test nothing and the interior residual is 0
    sc = make_mixed(24)
    sol = hj.solve(sc, dataclasses.replace(hj.plan_solve(sc), nt=0))
    rep = hj.verify(sol)
    assert rep.ok, [c.name for c in rep.checks if not c.ok]
    for name in ("vertex_slope", "time_monotone", "time_lipschitz"):
        assert rep[name].margin == rep.eps_scheme
        assert rep[name].witness == {"rate": 0.0}
    assert rep["interior_residual"].margin == network_solver._RESID_TOL
    assert "edge" in rep["interior_residual"].witness


@pytest.mark.parametrize("name", network_solver.CHECK_NAMES)
def test_each_check_alone_equals_its_row_in_the_full_battery(name):
    # all three kinds and a nonzero shift: the shared edge pass must not
    # couple one check to another
    sol = hj.solve(make_mixed(48))
    assert sol.constants.shift > 0.0
    alone = hj.verify(sol, checks=[name])[name]
    row = hj.verify(sol)[name]
    assert (alone.ok, float(alone.margin).hex(), alone.witness) \
        == (row.ok, float(row.margin).hex(), row.witness)


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
    # splits at step 101 of 202 (tripod), 140 of 280 (path, two kinds),
    # 27 of 55 (comb, all three kinds) and 0 of 1 (a first leg of no step);
    # no positivity shift in any of them
    for sc, nt in ((make_tripod(100), 202), (make_path(40), 280),
                   (make_comb(3), 55),
                   (dataclasses.replace(make_tripod(24), horizon=0.03), 1)):
        params = hj.plan_solve(sc)
        assert params.nt == nt
        equal, worst = hj.restart_check(sc, params)
        assert equal and worst == 0.0, sc.name


@pytest.mark.parametrize("at_c_gamma", [False, True], ids=["plain", "at-c"])
def test_restart_under_a_positivity_shift_differs_by_roundoff(at_c_gamma):
    # the restart datum is lifted by a T/2, which the march may round in
    # the last bits: not byte-identical, but within a few ulps of
    # 1 + sup|u| (at most 6 on rough draws 0-59, plain and at c_gamma)
    from conftest import rough_scenario
    sc = rough_scenario(np.random.default_rng(0), 13, at_c_gamma=at_c_gamma)
    assert sc.constants.shift == pytest.approx(1.298306, abs=1e-6)
    equal, worst = hj.restart_check(sc)
    assert equal is False
    sup = max(float(np.abs(f).max()) for f in hj.solve(sc).fields.values())
    assert 0.0 < worst <= 32.0 * np.spacing(1.0 + sup)


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


def test_headroom_reads_only_the_rows_the_march_differenced():
    # no step differences the last time row, so a kink put there moves the
    # space-slope bound but not the headroom
    sol = hj.solve(make_path(40))
    f = sol.fields["a"].copy()
    f[-1, 20] += 1.0
    kinked = dataclasses.replace(sol, fields={**sol.fields, "a": f})
    pair = ["headroom", "space_lipschitz"]
    before, after = hj.verify(sol, checks=pair), hj.verify(kinked, checks=pair)
    assert after["headroom"] == before["headroom"]
    assert after["space_lipschitz"].margin < before["space_lipschitz"].margin


def test_space_lipschitz_fails_on_one_raised_node_and_names_its_cell():
    sol = hj.solve(make_mixed(48))
    assert hj.verify(sol).ok
    ns, eps = sol.grid.ns, hj.default_epsilon(sol)
    const = sol.constants
    bound = hamiltonians.cell_widths(const.hamiltonians["e3"], ns, const.m0)
    # lift node j of one time row until cell j - 1 climbs 2 eps over its
    # bound; cell j, now falling, may exceed its own bound too
    f = sol.fields["e3"].copy()
    k, j = sol.grid.nt // 2, 12
    f[k, j] = f[k, j - 1] + (bound[j - 1] + 2.0 * eps) / ns
    raised = dataclasses.replace(sol, fields={**sol.fields, "e3": f})
    space = hj.verify(raised, checks=["space_lipschitz"])["space_lipschitz"]
    assert not space.ok and space.margin <= -eps
    assert space.witness["edge"] == "e3"
    assert space.witness["s"] in ((j - 0.5) / ns, (j + 0.5) / ns)


@pytest.mark.parametrize("ns", [24, 48, 96, 192])
def test_whole_battery_holds_on_make_mixed(ns):
    # on e4 the slopes reach past every momentum that the sublevel sets at
    # all s share, but not past the width at their own nodes
    rep = hj.verify(hj.solve(make_mixed(ns)))
    assert rep.ok, [c.name for c in rep.checks if not c.ok]


# draws whose sublevel sets at m0 share no momentum, or share too few for
# the slopes the scheme reaches, once the limiters sit at min c_gamma
_AT_C_GAMMA = (56, 85, 96, 124, 130, 137)


@pytest.mark.parametrize(
    "seed,at_c_gamma",
    [(seed, False) for seed in range(12)]
    + [(seed, True) for seed in _AT_C_GAMMA],
    ids=[*map(str, range(12)), *(f"at_c_gamma-{s}" for s in _AT_C_GAMMA)])
def test_whole_battery_holds_on_rough_scenarios(seed, at_c_gamma):
    # s-dependent coefficients of all three kinds on a cycle with a
    # multi-edge and a pendant edge, a non-zero positivity shift: here the
    # sublevel widths differ from node to node
    from conftest import rough_scenario
    for ns in (37,) if at_c_gamma else (32, 96):
        sc = rough_scenario(np.random.default_rng(seed), ns,
                            at_c_gamma=at_c_gamma)
        assert sc.constants.shift > 0.0
        assert {H.kind for H in sc.hamiltonians.by_arc.values()} \
            == {"abs", "quadratic", "sampled"}
        rep = hj.verify(hj.solve(sc))
        assert rep.ok, (ns, [c.name for c in rep.checks if not c.ok])


_NEAR_POINT = pytest.mark.xfail(strict=True, reason=(
    "open defect: space_lipschitz assumes H(s, u_s) <= m0, but through the "
    "scheme's dissipation H at the cell-averaged slopes exceeds m0 where "
    "the sublevel set at m0 is almost a point; the excess over the cell "
    "width does not shrink with ds"))


@pytest.mark.parametrize("checks", [
    pytest.param([c for c in network_solver.CHECK_NAMES
                  if c != "space_lipschitz"],
                 id="others"),
    pytest.param(["space_lipschitz"], id="space_lipschitz",
                 marks=_NEAR_POINT),
])
@pytest.mark.parametrize("seed", [9, 117])
def test_battery_on_draws_whose_sublevel_set_at_m0_is_almost_a_point(
        seed, checks):
    # limiters at min c_gamma and a zero datum: space_lipschitz fails on e3
    # (seed 9) and on e4 (seed 117) at ns 96 and 192, while -u_t <= m0
    # holds to roundoff and every other check passes
    from conftest import rough_scenario
    sc = rough_scenario(np.random.default_rng(seed), 96, at_c_gamma=True)
    rep = hj.verify(hj.solve(sc), checks=checks)
    assert rep.ok, [c.name for c in rep.checks if not c.ok]


_TRIPOD_SCN = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                           "scenarios", "tripod.scn")


@pytest.mark.parametrize("offset", [
    "1e5",
    pytest.param("1e6", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "ROADMAP item 1: interior_residual is gated at the absolute "
            "_RESID_TOL = 1e-9, below the roundoff of a residual on data "
            "near 1e6 (margin -4.879e-09)"))),
])
def test_a_datum_offset_by_a_constant_passes_the_whole_battery(offset):
    # a constant added to the datum shifts the solution by that constant;
    # at 1e5 interior_residual keeps a margin of 2.651e-10, and at 1e6 it
    # is the one check that fails
    with open(_TRIPOD_SCN, encoding="utf-8") as fh:
        text = fh.read().replace("constant 0\n", f"constant {offset}\n")
    assert text.count(f"constant {offset}\n") == 3
    sc, _ = parse_scenario(text, ns=100)
    rep = hj.verify(hj.solve(sc))
    others = [c.name for c in rep.checks
              if not c.ok and c.name != "interior_residual"]
    assert others == []
    assert rep["interior_residual"].ok, rep["interior_residual"].margin


def test_solve_rejects_nonnegative_shifted_limiter():
    sc = make_tripod(40)
    params = hj.plan_solve(sc)
    bad = dataclasses.replace(sc, limiter={**sc.limiter, "x0": 0.5})
    with pytest.raises(NonNegativeSlopeError, match="vertex 'x0'"):
        hj.solve(bad, params)


def test_solve_on_given_params_validates_the_scenario():
    # with params given, no plan_solve validates the scenario, so the march
    # must; c_gamma is -1 at the tripod center, and -0.5 stays negative
    sc = make_tripod(24)
    params = hj.plan_solve(sc)
    over = dataclasses.replace(sc, limiter={**sc.limiter, "x0": -0.5})
    for march in (lambda: hj.solve(over, params),
                  lambda: hj.solve_ensemble([sc, over], params)):
        with pytest.raises(ValidationError,
                           match="flux limiter exceeds min c_gamma at x0"):
            march()
    off = {e: v.copy() for e, v in sc.initial.items()}
    off["e1"][-1] += 0.3            # e1 ends at x0
    with pytest.raises(ValidationError,
                       match="initial datum inconsistent at vertex 'x0'"):
        hj.solve(dataclasses.replace(sc, initial=off), params)


def test_solve_on_given_params_names_a_missing_datum_or_limiter_vertex():
    # the march validates before it derives the constants, which read every
    # datum and every vertex's limiter
    sc = make_tripod(24)
    params = hj.plan_solve(sc)
    no_e2 = dataclasses.replace(sc, initial={e: v for e, v in sc.initial.items()
                                             if e != "e2"})
    no_x2 = dataclasses.replace(sc, limiter={x: c for x, c in sc.limiter.items()
                                             if x != "x2"})
    for bad, err, match in (
            (no_e2, ValidationError, "edge 'e2' is missing its initial datum"),
            (no_x2, UnknownVertexError, "flux limiter missing vertex 'x2'")):
        for march in (lambda: hj.plan_solve(bad), lambda: hj.solve(bad, params),
                      lambda: hj.solve_ensemble([sc, bad], params)):
            with pytest.raises(err, match=match):
                march()


def _ensemble_equals_solo_solves(members, params):
    sols = hj.solve_ensemble(members, params)
    assert len(sols) == len(members)
    for sc, sol in zip(members, sols):
        alone = hj.solve(sc, params)
        assert sol.scenario is sc and sol.params is params
        assert sol.grid == alone.grid
        assert sorted(sol.fields) == sorted(alone.fields)
        assert sorted(sol.vertex) == sorted(alone.vertex)
        for e, f in alone.fields.items():
            assert sol.fields[e].tobytes() == f.tobytes(), (sc.name, e)
        for x, v in alone.vertex.items():
            assert sol.vertex[x].tobytes() == v.tobytes(), (sc.name, x)
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
    unset = dataclasses.replace(params, theta={**params.theta,
                                               "e2": float("nan")})
    with pytest.raises(CFLViolationError, match="edge 'e2': dt\\*theta = nan"):
        hj.solve_ensemble([sc], unset)
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
    # certificate, interior residuals, vertex slope cap, continuity, the
    # space- and time-slope bounds and the dissipation headroom are robust
    # across mixed Hamiltonian kinds and rough piecewise-linear data; the
    # time checks gate on values, which the scheme's transient overshoot at
    # under-resolved datum kinks moves by O(ds + dt) only
    from conftest import random_scenario
    rng = np.random.default_rng(4242)
    core = ("interior_residual", "discr_certificate", "vertex_slope",
            "vertex_continuity", "space_lipschitz", "headroom", "limiter",
            "time_monotone", "time_lipschitz")
    for trial in range(8):
        sc = random_scenario(rng, "tripod" if trial % 2 else "path", 64)
        rep = hj.verify(hj.solve(sc), checks=core)
        assert rep.ok, (trial, [c.name for c in rep.checks if not c.ok])


def _rise_by_double_loop(u):
    """max over columns j and rows n of u[n, j] - min_{m<=n} u[m, j], one
    Python float at a time."""
    rows, cols = u.shape
    return max(float(u[n, j]) - min(float(u[m, j]) for m in range(n + 1))
               for j in range(cols) for n in range(rows))


def test_rise_scans_only_rising_columns_and_matches_the_full_scan():
    # _rise scans the columns where u[n+1] > u[n], which for finite floats
    # is diff(u) > 0: gradual underflow never rounds a nonzero difference
    # to 0.  It equals the full scan, and a scalar double loop bit for bit,
    # on tied rows, signed zeros, steps of one subnormal, one row and
    # fields that never rise
    rng = np.random.default_rng(11)
    falling = -np.cumsum(rng.uniform(0.0, 1.0, (9, 5)), axis=0)
    one_rising = falling.copy()
    one_rising[:, 2] = falling[::-1, 2]
    cases = [(rng.standard_normal((9, 5)), True), (one_rising, True),
             (np.cumsum(rng.standard_normal((40, 7)), axis=0), True)]
    ties = rng.integers(-2, 3, (12, 6)).astype(float)
    ties[5] = ties[4]
    walk = np.empty((10, 4))
    walk[0] = rng.choice([0.0, -0.0], 4)
    for n in range(1, 10):      # one subnormal up or down per row
        walk[n] = np.nextafter(walk[n - 1], rng.choice([-np.inf, np.inf], 4))
    cases += [(ties, True), (walk, True), (falling, False),
              (rng.choice([0.0, -0.0], (8, 5)), False),
              (rng.standard_normal((1, 6)), False),
              (np.full((4, 3), 0.25), False)]
    for u, rises in cases:
        assert ((u[1:] > u[:-1]) == (np.diff(u, axis=0) > 0)).all()
        got = network_solver._rise(u)
        assert got == float(np.max(u - np.minimum.accumulate(u, 0)))
        want = _rise_by_double_loop(u)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert (got > 0.0) == rises
    assert network_solver._rise(walk) <= 9 * np.nextafter(0.0, 1.0)


def test_validation_holds_the_datum_at_a_vertex_to_the_continuity_gate():
    # row 0 keeps each edge's own datum and verify gates vertex continuity
    # at _TRACE_TOL (absolute), so validation bounds the spread of the
    # datum's values at a vertex by the same number; e1, e2 and e3 all end
    # at x0
    sc = make_tripod(40)
    for ends, message in (
            ({"e2": 1e-11}, "'x0': 0.0 vs 1e-11"),
            ({"e2": 9e-13, "e3": -9e-13}, "'x0': 9e-13 vs -9e-13")):
        initial = {e: np.full(41, ends.get(e, 0.0)) for e in sc.initial}
        with pytest.raises(ValidationError,
                           match=f"initial datum inconsistent at vertex "
                                 f"{message}"):
            hj.validate_scenario(dataclasses.replace(sc, initial=initial))
    close = dataclasses.replace(
        sc, initial=dict(sc.initial, e2=np.full(41, 1e-13)))
    hj.validate_scenario(close)
    rep = hj.verify(hj.solve(close))
    assert rep.ok, [c.name for c in rep.checks if not c.ok]
    assert rep["vertex_continuity"].margin == pytest.approx(9e-13, rel=1e-9)


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


def test_time_monotone_gates_the_normalized_field_under_a_shift():
    # make_mixed's e4 goes negative, so the original field may rise; the
    # normalized field u - shift t must not, up to O(ds + dt)
    rises = []
    for ns in (24, 48):
        sol = hj.solve(make_mixed(ns))
        assert sol.constants.shift > 0.0
        rep = hj.verify(sol)
        mono = rep["time_monotone"]
        assert mono.ok and set(mono.witness) == {"edge", "rate"}
        rises.append(rep.eps_scheme - mono.margin)
    assert 0.0 < rises[1] <= 0.55 * rises[0]   # first order in ds
    # negative control: one node raised by 2 eps half-way through the run
    eps = rep.eps_scheme
    f = sol.fields["e4"].copy()
    f[sol.grid.nt // 2, sol.grid.ns // 2] += 2.0 * eps
    bad = dataclasses.replace(sol, fields={**sol.fields, "e4": f})
    mono = hj.verify(bad, checks=["time_monotone"])["time_monotone"]
    assert not mono.ok and mono.margin < -0.9 * eps


def test_resolution_change_resamples_the_datum():
    sc = make_tripod(40, initial={e: np.linspace(0.0, 0.0, 41)
                                  for e in ("e1", "e2", "e3")})
    fine = hj.with_resolution(sc, 80)
    assert fine.ns == 80
    assert fine.initial["e1"].shape == (81,)


def test_resolution_change_keeps_a_given_time_step_in_ratio_with_ds():
    sc = dataclasses.replace(make_tripod(40), dt=0.02)
    assert hj.with_resolution(make_tripod(40), 80).dt is None
    assert hj.with_resolution(sc, 40).dt == 0.02
    for ns in (80, 160):
        fine = hj.with_resolution(sc, ns)
        assert fine.dt == 0.02 * 40 / ns
        hj.plan_solve(fine)             # still under the step restriction
    C, details = hj.calibrate_epsilon(sc, levels=3)
    assert C > 0.0 and [d["ns"] for d in details] == [40, 80]


def _count_calls(monkeypatch, *names):
    """Count the calls network_solver makes to the named functions."""
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(network_solver, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(network_solver, name, counted)
    return calls


def test_equal_resolution_is_the_scenario_itself(monkeypatch):
    sc = dataclasses.replace(make_tripod(40), dt=0.02)
    assert hj.with_resolution(sc, sc.ns) is sc
    fine = hj.with_resolution(sc, 2 * sc.ns)
    assert fine is not sc and fine.ns == 2 * sc.ns
    assert hj.with_resolution(fine, fine.ns) is fine
    # level 0 of a refinement study reuses the scenario's cached records
    hj.plan_solve(sc)
    calls = _count_calls(monkeypatch, "positive_shift", "validate_flux_limiter")
    hj.calibrate_epsilon(sc, levels=2)
    assert calls == {"positive_shift": 1, "validate_flux_limiter": 1}


def test_a_scenario_is_validated_and_budgeted_once(monkeypatch):
    calls = _count_calls(monkeypatch, "validate_flux_limiter", "compute_m0")
    sc = make_mixed(12)
    params = hj.plan_solve(sc)
    assert hj.plan_solve(sc) == params
    assert hj.validate_scenario(sc) is sc.limiter_report
    rep = hj.verify(hj.solve(sc, params))
    assert rep["limiter"].ok
    assert calls == {"validate_flux_limiter": 1, "compute_m0": 1}
    assert sc.datum_slopes == {
        a.id: float(np.max(np.abs(np.diff(sc.initial[a.id])))) * sc.ns
        for a in sc.network.edge_arcs()}


def test_a_replaced_invalid_scenario_still_raises_from_plan_solve():
    sc = make_tripod(20)
    hj.plan_solve(sc)
    bad_limiter = dataclasses.replace(sc, limiter=dict(sc.limiter, x0=0.5))
    bad_datum = dataclasses.replace(
        sc, initial=dict(sc.initial, e2=np.zeros(sc.ns)))
    for bad, match in ((bad_limiter, "flux limiter exceeds"),
                       (bad_datum, "must have 21 samples")):
        for _ in range(2):              # a failure caches nothing
            with pytest.raises(ValidationError, match=match):
                hj.plan_solve(bad)
        with pytest.raises(ValidationError, match=match):
            hj.plan_solve(sc, others=[bad])
    assert not bad_limiter.limiter_report.ok


def test_verify_margins_do_not_depend_on_the_start_time():
    # the positivity shift's lift a (t - t0) is computed as a (k dt) wherever
    # it is added or taken off, so no margin moves with t0
    base = make_mixed(24)
    assert base.constants.shift > 0
    runs = []
    for t0 in (0.0, 0.3, 1.7):
        sol = hj.solve(dataclasses.replace(base, t0=t0))
        runs.append((sol, [(c.name, np.float64(c.margin).tobytes())
                           for c in hj.verify(sol).checks]))
    (first, margins), *others = runs
    for sol, m in others:
        assert m == margins
        for e, f in first.fields.items():
            assert sol.fields[e].tobytes() == f.tobytes(), e
