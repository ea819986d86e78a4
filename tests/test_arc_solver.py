"""Single-arc monotone scheme: oracles, exactness identities, properties."""

import numpy as np
import pytest

import hjnet as hj
from hjnet import arc_solver, hamiltonians, network_solver
from hjnet.arc_solver import (_ArcStepper, _Columns, _interior_residuals,
                              _march_arcs)
from hjnet.errors import (CFLViolationError, CornerMismatchError,
                          ValidationError)

from conftest import make_comb, make_tripod


H1 = hj.abs_hamiltonian(kappa=1.0)  # |p| + 1


def fo_grid(ns, T=1.0, theta_base=1.0):
    """Grid at the monotonicity boundary with first-order dissipation."""
    ds = 1.0 / ns
    theta = theta_base * (1.0 + ds)
    dt = ds / theta
    nt = int(round(T / dt))
    return hj.Grid2D(ns, 0.0, dt, nt), theta


@pytest.mark.parametrize("t0, dt", [(0.0, np.nan), (np.nan, 0.1),
                                    (0.0, np.inf), (-np.inf, 0.1)],
                         ids=["dt-nan", "t0-nan", "dt-inf", "t0-inf"])
def test_grid_rejects_a_non_finite_start_or_step(t0, dt):
    with pytest.raises(ValueError):
        hj.Grid2D(4, t0, dt, 3)


def test_grid_and_window_reject_degenerate_sizes():
    with pytest.raises(ValueError, match="need at least 2 space cells"):
        hj.Grid2D(1, 0.0, 0.1, 3)
    for bound in (0.0, -1.0):
        with pytest.raises(ValueError, match="lipschitz_bound must be positive"):
            hj.propagation_window(H1, bound)


def test_flat_datum_decays_at_the_stationary_level():
    grid, theta = fo_grid(50)
    fld = hj.max_subsolution(H1, np.zeros(51), hj.free(), hj.free(), grid,
                             theta=theta)
    t = grid.t_nodes()
    assert np.max(np.abs(fld.values + t[:, None])) < 1e-12


def test_covering_line_oracle_and_convergence_order():
    errs = []
    for ns in (50, 100, 200):
        grid, theta = fo_grid(ns)
        fld = hj.max_subsolution(H1, np.linspace(0, 1, ns + 1), hj.free(),
                                 hj.free(), grid, theta=theta)
        s, t = grid.s_nodes(), grid.t_nodes()
        exact = np.maximum(0.0, s[None, :] - t[:, None]) - t[:, None]
        errs.append(np.max(np.abs(fld.values - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 0.8)


def test_left_constrained_wave():
    grid, theta = fo_grid(200)
    t = grid.t_nodes()
    fld = hj.max_subsolution(H1, np.zeros(201), hj.constrained(-2.0 * t),
                             hj.free(), grid, theta=theta)
    s = grid.s_nodes()
    exact = np.minimum(-t[:, None], -2.0 * t[:, None] + s[None, :])
    assert np.max(np.abs(fld.values - exact)) < 0.01
    # the admissible datum is attained, not just respected
    assert np.max(np.abs(fld.values[:, 0] - (-2.0 * t))) == 0.0


def test_cfl_violation_raises():
    grid = hj.Grid2D(50, 0.0, 0.05, 10)  # dt*theta = 0.05 > ds = 0.02
    with pytest.raises(CFLViolationError):
        hj.max_subsolution(H1, np.zeros(51), hj.free(), hj.free(), grid,
                           theta=1.0)
    with pytest.raises(CFLViolationError, match="nan"):
        hj.max_subsolution(H1, np.zeros(51), hj.free(), hj.free(), grid,
                           theta=float("nan"))


def test_corner_mismatch_raises():
    grid, theta = fo_grid(50)
    datum = np.full(grid.nt + 1, -0.5)
    with pytest.raises(CornerMismatchError):
        hj.max_subsolution(H1, np.zeros(51), hj.constrained(datum), hj.free(),
                           grid, theta=theta)


@pytest.mark.parametrize("side, at", [("initial", 0), ("initial", 7),
                                      ("left", 0), ("left", 3), ("right", 0),
                                      ("right", -1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_raise_a_validation_error(side, at, bad):
    grid, theta = fo_grid(16, T=0.25)
    data = {"initial": np.zeros(17), "left": np.zeros(grid.nt + 1),
            "right": np.zeros(grid.nt + 1)}
    data[side][at] = bad
    with pytest.raises(ValidationError, match=("initial" if side == "initial"
                                               else "lateral")):
        hj.max_subsolution(H1, data["initial"], hj.constrained(data["left"]),
                           hj.constrained(data["right"]), grid, theta=theta)


def test_a_clip_that_ties_keeps_the_scheme_update():
    # H = |p| leaves a flat zero datum at +0.0; the data hold -0.0, so a
    # tie shows which of the two the clip keeps
    grid, theta = fo_grid(8, T=0.25)
    datum = np.full(grid.nt + 1, -0.0)
    fld = hj.max_subsolution(hj.abs_hamiltonian(), np.zeros(9),
                             hj.constrained(datum), hj.constrained(datum),
                             grid, theta=theta)
    assert not np.signbit(fld.values).any()


def _dyadic_pair(rng, ns, nt):
    """Ordered data pairs whose arithmetic stays exact through the march."""
    q = lambda n: rng.integers(-8, 9, size=n) / 4.0
    g1 = q(ns + 1)
    g1[0] = 0.0
    g1[-1] = 0.0
    lift_c = float(rng.integers(0, 9)) / 4.0
    lift = rng.integers(0, int(lift_c * 4) + 1, size=ns + 1) / 4.0
    d1l = np.concatenate([[0.0], np.cumsum(rng.integers(-6, 3, size=nt) / 4.0)])
    d1r = np.concatenate([[0.0], np.cumsum(rng.integers(-6, 3, size=nt) / 4.0)])
    g2 = g1 + lift
    g2[0] = g1[0] + lift_c
    g2[-1] = g1[-1] + lift_c
    lift[0] = lift[-1] = lift_c
    g2 = g1 + lift
    return g1, g2, d1l, d1r, lift_c


def test_comparison_exact_on_ordered_dyadic_data():
    # quarters-granularity data on a dyadic grid keep every operation exact,
    # so the monotone scheme must preserve ordering with zero violations
    rng = np.random.default_rng(41)
    ns, nt = 64, 16
    grid = hj.Grid2D(ns, 0.0, 2.0 ** -8, nt)
    for _ in range(50):
        g1, g2, d1l, d1r, lift = _dyadic_pair(rng, ns, nt)
        u1 = hj.max_subsolution(H1, g1, hj.constrained(d1l),
                                hj.constrained(d1r), grid, theta=1.0)
        u2 = hj.max_subsolution(H1, g2, hj.constrained(d1l + lift),
                                hj.constrained(d1r + lift), grid, theta=1.0)
        assert np.all(u1.values <= u2.values)


def test_constant_equivariance_bitwise_on_dyadic_data():
    rng = np.random.default_rng(43)
    ns, nt = 64, 16
    grid = hj.Grid2D(ns, 0.0, 2.0 ** -8, nt)
    g = rng.integers(-8, 9, size=ns + 1) / 4.0
    d = np.concatenate([[g[0]], g[0] + np.cumsum(rng.integers(-6, 1, size=nt) / 4.0)])
    u = hj.max_subsolution(H1, g, hj.constrained(d), hj.free(), grid, theta=1.0)
    u2 = hj.max_subsolution(H1, g + 0.25, hj.constrained(d + 0.25), hj.free(),
                            grid, theta=1.0)
    assert np.array_equal(u2.values, u.values + 0.25)


def test_shift_equivariance_at_arc_level():
    grid, theta = fo_grid(80)
    g = np.sin(np.pi * np.linspace(0, 1, 81)) * 0.4
    u = hj.max_subsolution(H1, g, hj.free(), hj.free(), grid, theta=theta)
    H2 = hj.abs_hamiltonian(kappa=2.0)  # H1 + 1
    u2 = hj.max_subsolution(H2, g, hj.free(), hj.free(), grid, theta=theta)
    t = grid.t_nodes()
    assert np.max(np.abs(u2.values - (u.values - t[:, None]))) < 1e-12


def test_produced_fields_solve_the_discrete_equation():
    grid, theta = fo_grid(60)
    t = grid.t_nodes()
    for right in (hj.free(), hj.constrained(0.5 - 2.0 * t)):
        fld = hj.max_subsolution(H1, np.linspace(0, 0.5, 61),
                                 hj.constrained(-1.5 * t), right, grid,
                                 theta=theta)
        u = fld.values
        r = _interior_residuals(u, np.diff(u, axis=0) / grid.dt, H1,
                                fld.theta, grid.dt)
        assert r.shape == (grid.nt, grid.ns - 1)
        assert np.max(np.abs(r)) < 1e-9


def test_time_slices_stay_below_the_datum_level():
    # slices of the evolved field satisfy the stationary inequality at the
    # initial datum's level, up to grid wobble
    grid, theta = fo_grid(100)
    g = np.linspace(0, 1, 101)
    fld = hj.max_subsolution(H1, g, hj.free(), hj.free(), grid, theta=theta)
    M0 = hj.subsolution_levels([H1], [g])[0]
    worst = max(hj.subsolution_levels([H1] * (grid.nt + 1), fld.values))
    assert worst <= M0 + 10.0 * grid.ds


def test_restarted_march_replays_identically():
    grid, theta = fo_grid(30, T=0.5)
    g = np.linspace(0.0, 0.5, 31)
    full = hj.max_subsolution(H1, g, hj.free(), hj.free(), grid, theta=theta)
    half = grid.nt // 2
    g1 = hj.Grid2D(30, 0.0, grid.dt, half)
    g2 = hj.Grid2D(30, grid.t_nodes()[half], grid.dt, grid.nt - half)
    first = hj.max_subsolution(H1, g, hj.free(), hj.free(), g1, theta=theta)
    second = hj.max_subsolution(H1, first.values[-1], hj.free(), hj.free(),
                                g2, theta=theta)
    replay = np.vstack([first.values, second.values[1:]])
    assert np.array_equal(replay, full.values)


def test_propagation_window_values():
    assert hj.propagation_window(H1, 1.0) == pytest.approx(1.0 / 36.0, abs=1e-15)
    Hq = hj.quadratic_hamiltonian()
    # momentum Lipschitz over |p| <= 2 is 4; window (1/8 - 1/16)/2
    assert hj.propagation_window(Hq, 2.0) == pytest.approx(1.0 / 32.0, abs=1e-15)


def test_propagation_window_shrinks_with_slope_budget():
    Hq = hj.quadratic_hamiltonian()
    vals = [hj.propagation_window(Hq, L) for L in (2.0, 3.0, 5.0, 9.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_finite_speed_of_the_discrete_scheme():
    # lateral data differing by 1 cannot influence the midcell block within
    # the finite-speed window: the two runs agree there bit for bit
    ns = 72
    grid = hj.Grid2D(ns, 0.0, 1.0 / 144.0, 4)  # horizon = window 1/36
    rng = np.random.default_rng(2)
    g = np.cumsum(rng.uniform(-1, 1, size=ns + 1)) / ns
    g -= g[0]
    t = grid.t_nodes()
    d_l = g[0] - 2.0 * t   # strongly binding on the left
    d_r = g[-1] - 2.0 * t
    u1 = hj.max_subsolution(H1, g, hj.constrained(d_l), hj.constrained(d_r),
                            grid, theta=1.0)
    u2 = hj.max_subsolution(H1, g, hj.constrained(d_l + 1.0),
                            hj.constrained(d_r + 1.0), grid, theta=1.0)
    delta = hj.propagation_window(H1, 1.0)
    lo = int(np.floor((0.5 - delta) * ns))
    hi = int(np.ceil((0.5 + delta) * ns))
    block1 = u1.values[:, lo:hi + 1]
    block2 = u2.values[:, lo:hi + 1]
    assert np.array_equal(block1, block2)
    assert np.max(np.abs(u1.values - u2.values)) > 0.01  # data did influence


def test_strict_subsolution_lies_below_the_maximal_one():
    ns = 120
    grid, theta = fo_grid(ns, T=0.5)
    rng = np.random.default_rng(33)
    g = np.interp(np.linspace(0, 1, ns + 1), np.linspace(0, 1, 7),
                  rng.uniform(-0.3, 0.3, size=7))
    # discrete stationary level of g under the scheme's numerical Hamiltonian
    pm = np.diff(g) * ns
    mid = 0.5 * (pm[:-1] + pm[1:])
    diss = pm[1:] - pm[:-1]
    level = np.max(hj.evaluate(H1, np.linspace(0, 1, ns + 1)[1:-1], mid)
                   - 0.5 * theta * diss)
    delta0 = 0.5
    t = grid.t_nodes()
    w = g[None, :] - (level + delta0) * t[:, None]
    v = hj.max_subsolution(H1, g, hj.constrained(w[:, 0]), hj.free(), grid,
                           theta=theta)
    gap = v.values - w
    interior = gap[2:, 2:]  # away from the initial and constrained sides
    assert np.min(interior) > 0.0


def test_lowered_admissible_datum_is_attained():
    # lowering the lateral datum of a solve while keeping its slopes at or
    # below the critical value leaves a trace that equals the datum exactly
    grid, theta = fo_grid(100, T=1.0)
    t = grid.t_nodes()
    base = -t                       # attained by the solve with g = 0
    lowered = np.minimum(-t, 0.2 - 2.0 * t)   # slopes -1 and -2 <= c_gamma
    fld = hj.max_subsolution(H1, np.zeros(101), hj.constrained(lowered),
                             hj.free(), grid, theta=theta)
    assert np.max(np.abs(fld.values[:, 0] - lowered)) <= 1e-12
    ref = hj.max_subsolution(H1, np.zeros(101), hj.constrained(base),
                             hj.free(), grid, theta=theta)
    assert np.all(fld.values <= ref.values + 1e-12)


def test_split_point_min_bound_for_capped_traces():
    # a field solving the equation on the whole arc dominates, through the
    # slope-cap transform at any interior split point, the smaller of the
    # two one-sided maximal subsolutions fed from either side
    ns = 128
    grid, theta = fo_grid(ns, T=0.75)
    t = grid.t_nodes()
    g = 0.3 * np.sin(np.pi * np.linspace(0, 1, ns + 1))
    u = hj.max_subsolution(H1, g, hj.constrained(g[0] - t),
                           hj.constrained(g[-1] - t), grid, theta=theta)
    mid = ns // 2
    # halves as unit arcs: H(2p) since the half has physical length 1/2
    H2 = hj.abs_hamiltonian(alpha=2.0, kappa=1.0)
    hgrid = hj.Grid2D(ns // 2, 0.0, grid.dt, grid.nt)
    v = hj.max_subsolution(H2, u.values[0, :mid + 1],
                           hj.constrained(u.values[:, 0]), hj.free(), hgrid,
                           theta=2.0 * theta)
    w_init = u.values[0, mid:][::-1]  # right half, reversed toward the split
    w = hj.max_subsolution(H2, w_init, hj.constrained(u.values[:, -1]),
                           hj.free(), hgrid, theta=2.0 * theta)
    c = -1.0
    cap = lambda vals: hj.apply_g(hj.TimeSeries(0.0, grid.dt, vals), c).values
    lhs = cap(u.values[:, mid])
    rhs = np.minimum(cap(v.values[:, -1]), cap(w.values[:, -1]))
    eps = 3.0 * (1.0 + 2.0) * (grid.ds + grid.dt)
    assert np.all(lhs >= rhs - eps)


def test_a_second_stepper_derives_no_grid_data_again(monkeypatch):
    sc = make_comb(3)
    hams = [sc.hamiltonians[a.id] for a in sc.network.edge_arcs()]
    assert {H.kind for H in hams} == {"abs", "quadratic", "sampled"}
    calls = []

    def counting(f):
        def counted(*args):
            calls.append(f.__name__)
            return f(*args)
        return counted

    for name in ("momentum_minimizer", "_sampled_rows_at"):
        monkeypatch.setattr(hamiltonians, name,
                            counting(getattr(hamiltonians, name)))
    first = _ArcStepper(hams, 32, 1.0, 0.01)
    assert calls.count("momentum_minimizer") == len(hams)
    assert calls.count("_sampled_rows_at") > 0
    n = len(calls)
    second = _ArcStepper(hams, 32, 1.0, 0.01)
    assert len(calls) == n
    assert np.array_equal(second.p_star, first.p_star)
    # another grid derives its table rows, but not the end minimizers
    _ArcStepper(hams, 16, 1.0, 0.01)
    assert calls[n:] and set(calls[n:]) == {"_sampled_rows_at"}
    for cols, *_ in second.groups:
        arrays = ((cols.anchor, cols.value, cols.slope, cols.base)
                  if cols.kind == "sampled" else (cols.a, cols.b, cols.k))
        assert all(a.flags.c_contiguous for a in arrays), cols.kind


def _four_kinds():
    """An abs, a quadratic and two sampled Hamiltonians on different
    momentum knots, all s-dependent."""
    sampled = []
    for p, a in ((np.linspace(-3.0, 3.0, 9), [0.6, 0.8, 0.5]),
                 (np.linspace(-2.0, 2.5, 7), [1.1, 0.7, 0.9])):
        table = np.array(a)[:, None] * (p[None, :] + 0.2) ** 2 + 0.6
        edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
        sampled.append(hj.sampled_hamiltonian([0.0, 0.5, 1.0], p, table,
                                              edge + 0.5))
    return [hj.abs_hamiltonian(alpha=[1.0, 2.0, 1.5], beta=[0.0, 0.4, -0.2],
                               kappa=-0.5),
            hj.quadratic_hamiltonian(alpha=[0.5, 1.2], beta=[0.2, -0.4],
                                     kappa=[0.6, 1.1]), *sampled]


def _offset_rows(rng, n, ns):
    """n random rows, each lifted by +1e6 or -1e6, so that every stencil
    entry straddling two rows of a stack is large junk."""
    lift = rng.choice([-1e6, 1e6], size=n)[:, None]
    return lift + rng.normal(scale=0.5, size=(n, ns + 1))


def _step_alone(H, row, ns, theta, dt):
    step = _ArcStepper([H], ns, theta, dt)
    step.state[0] = row
    step.advance()
    return step.state[0]


@pytest.mark.parametrize("seed", range(6))
def test_each_row_of_a_stacked_step_is_that_row_stepped_alone(seed):
    rng = np.random.default_rng(seed)
    kinds = _four_kinds()
    ns, dt = int(rng.integers(2, 40)), 1e-3
    hams = [kinds[k] for k in rng.permutation(
        np.r_[0:4, rng.integers(0, 4, size=int(rng.integers(0, 9)))])]
    theta = rng.uniform(0.5, 8.0, size=len(hams))
    rows = _offset_rows(rng, len(hams), ns)
    step = _ArcStepper(hams, ns, theta, dt)
    step.state[:] = rows[step.order]
    step.advance()
    for r, i in enumerate(step.order):
        alone = _step_alone(hams[i], rows[i], ns, theta[i], dt)
        assert step.state[r].tobytes() == alone.tobytes(), (seed, r)
    # the bound form: one Hamiltonian serving every row of the caller's
    # array, stepped in place
    for H in kinds:
        th = float(rng.uniform(0.5, 8.0))
        u = _offset_rows(rng, 5, ns)
        rows = u.copy()
        _ArcStepper([H], ns, th, dt, state=u).advance()
        for r in range(5):
            alone = _step_alone(H, rows[r], ns, th, dt)
            assert u[r].tobytes() == alone.tobytes(), (seed, H.kind, r)


@pytest.mark.parametrize("seed", range(3))
def test_a_stack_march_clips_each_end_as_one_row_marched_alone(seed):
    # every arc of a stack, rows regrouped by kind, with free sides, falling
    # data and -0.0 data, marches bitwise as a stepper of its own whose ends
    # are clipped to min(datum, update) after every step
    rng = np.random.default_rng(seed)
    kinds = _four_kinds()
    grid = hj.Grid2D(int(rng.integers(2, 30)), 0.0, 1e-3, 40)
    hams = [kinds[k] for k in rng.integers(0, 4, size=7)]
    theta = list(rng.uniform(8.0, 12.0, size=len(hams)))
    init = [np.cumsum(rng.uniform(-1.0, 1.0, size=grid.ns + 1)) / grid.ns
            for _ in hams]
    sides = []
    for g in init:
        lr = []
        for end in (0, -1):
            pick = rng.integers(3)
            if pick == 2:
                lr.append(None)
            elif pick == 1:                # a -0.0 datum on a +0.0 end
                g[end] = 0.0
                lr.append(np.full(grid.nt + 1, -0.0))
            else:                          # falling at a rate of order 1
                lr.append(g[end] + np.cumsum(
                    rng.uniform(-2.0, 0.5, size=grid.nt + 1) * grid.dt))
                lr[-1][0] = g[end]
        sides.append(lr)
    out = _march_arcs(hams, init, *zip(*sides), grid, theta, slice(None))
    for i, H in enumerate(hams):
        step = _ArcStepper([H], grid.ns, theta[i], grid.dt)
        u = step.state[0]
        u[:] = init[i]
        for k in range(1, grid.nt + 1):
            step.advance()
            for end, d in zip((0, -1), sides[i]):
                if d is not None:
                    u[end] = np.minimum(d[k], u[end])
            assert out[i, k].tobytes() == u.tobytes(), (seed, i, k)


def test_end_nodes_hold_h_at_the_clipped_slope_without_dissipation(
        monkeypatch):
    rng = np.random.default_rng(11)
    hams = _four_kinds()
    ns = 16
    step = _ArcStepper(hams, ns, rng.uniform(1.0, 4.0, size=4), 1e-3)
    u = step.state
    u[:] = _offset_rows(rng, 4, ns)
    hh = step.hhat()
    for r, i in enumerate(step.order):
        H = hams[i]
        p0 = min((u[r, 1] - u[r, 0]) * ns, H._p_ends[0])
        pn = max((u[r, ns] - u[r, ns - 1]) * ns, H._p_ends[1])
        assert hh[r, 0].hex() == hj.evaluate(H, 0.0, p0).hex(), H.kind
        assert hh[r, ns].hex() == hj.evaluate(H, 1.0, pn).hex(), H.kind
    # H = |p - 1/4| is exactly +0.0 at both clipped end slopes, so the end
    # values -0.0 of the rows stay -0.0 through the update
    H = hj.abs_hamiltonian(beta=0.25)
    u = np.array([[-0.0, 0.5, 1.25, 0.5, -0.0]] * 3) + [[-1e6], [0.0], [1e6]]
    u[1, ::4] = -0.0
    step = _ArcStepper([H] * 3, 4, [1.0, 2.0, 3.0], 1e-3)
    step.state[:] = u
    step.advance()
    assert not np.signbit(step.hh[:, ::4]).any()
    assert np.signbit(step.state[1, ::4]).all()
    # a column table writing -0.0 everywhere: the ends keep it, so the
    # dissipation term there is +0.0 whatever junk the stencil straddled
    monkeypatch.setattr(_Columns, "bind",
                        lambda self, p, out, tmp: [lambda: out.fill(-0.0)])
    step = _ArcStepper([H] * 3, 4, [1.0, 2.0, 3.0], 1e-3)
    step.state[:] = u
    hh = step.hhat()
    assert np.signbit(hh[:, ::4]).all()
    assert (hh[:, 1:-1] != 0.0).all()


def test_a_stepper_rejects_a_state_that_is_not_c_contiguous():
    hams = _four_kinds()
    u = np.random.default_rng(0).normal(size=(4, 9))
    wide = np.zeros((4, 18))
    for rows in (np.asfortranarray(u), wide[:, ::2], np.empty((9, 4)).T):
        with pytest.raises(ValueError, match="C-contiguous"):
            _ArcStepper(hams[:1], 8, 1.0, 1e-3, state=rows)
    assert not wide.any()
    # a bound state is the caller's array itself: hhat reads it, and
    # advance steps it in place, as a march on its own buffer does
    march = _ArcStepper(hams, 8, [1.0] * 4, 1e-3)
    march.state[:] = u
    march.advance()
    for r, i in enumerate(march.order):
        row = u[r:r + 1].copy()
        step = _ArcStepper([hams[i]], 8, 1.0, 1e-3, state=row)
        assert step.state is row
        hh = step.hhat().copy()
        assert row.tobytes() == u[r].tobytes()
        step.advance()
        assert row.tobytes() == march.state[r].tobytes()
        assert row[0].tobytes() == (u[r] - hh[0] * 1e-3).tobytes()


def test_the_network_march_and_the_lateral_data_marches_share_one_loop(
        monkeypatch):
    # rows marched per call of the one march loop
    rows, march = [], arc_solver._march

    def counted(hams, *args):
        rows.append(len(hams))
        return march(hams, *args)

    for module in (arc_solver, network_solver):
        monkeypatch.setattr(module, "_march", counted)
    sc = make_tripod(16, horizon=0.25)
    sol = hj.solve(sc)
    assert rows == [3]                  # the three edges, one stack
    grid = sol.grid
    datum = hj.constrained(np.zeros(grid.nt + 1))
    hj.max_subsolution(H1, np.zeros(17), datum, hj.free(), grid,
                       theta=sol.params.theta["e1"])
    assert rows == [3, 1]
    const = sc.constants
    hj.discr_residual(sol.trace_set(shifted=True), sc.network,
                      const.hamiltonians, const.limiter, 1e-9,
                      thetas=sol.params.theta)
    assert rows == [3, 1, 6]            # every arc transform, one stack
