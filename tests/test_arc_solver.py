"""Single-arc monotone scheme: oracles, exactness identities, properties."""

import numpy as np
import pytest

import hjnet as hj
from hjnet.arc_solver import _Columns
from hjnet.errors import CFLViolationError, CornerMismatchError


H1 = hj.abs_hamiltonian(kappa=1.0)  # |p| + 1


def fo_grid(ns, T=1.0, theta_base=1.0):
    """Grid at the monotonicity boundary with first-order dissipation."""
    ds = 1.0 / ns
    theta = theta_base * (1.0 + ds)
    dt = ds / theta
    nt = int(round(T / dt))
    return hj.Grid2D(ns, 0.0, dt, nt), theta


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


def test_corner_mismatch_raises():
    grid, theta = fo_grid(50)
    datum = np.full(grid.nt + 1, -0.5)
    with pytest.raises(CornerMismatchError):
        hj.max_subsolution(H1, np.zeros(51), hj.constrained(datum), hj.free(),
                           grid, theta=theta)


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
    fld = hj.max_subsolution(H1, np.linspace(0, 0.5, 61),
                             hj.constrained(-1.5 * t), hj.free(), grid,
                             theta=theta)
    assert hj.subsolution_residual(fld, H1) < 1e-9
    assert hj.supersolution_residual(fld, H1) < 1e-9


def test_residuals_of_handmade_fields():
    grid = hj.Grid2D(20, 0.0, 0.02, 25)
    t = grid.t_nodes()
    flat = hj.ArcField(grid, np.zeros((26, 21)), hj.free(), hj.free(),
                       np.zeros(21), theta=1.0)
    assert hj.subsolution_residual(flat, H1) == pytest.approx(1.0, abs=1e-12)
    assert hj.supersolution_residual(flat, H1) == 0.0
    steep = hj.ArcField(grid, np.broadcast_to(-2.0 * t[:, None], (26, 21)).copy(),
                        hj.free(), hj.free(), np.zeros(21), theta=1.0)
    assert hj.subsolution_residual(steep, H1) == 0.0
    assert hj.supersolution_residual(steep, H1) == pytest.approx(1.0, abs=1e-12)


def test_handmade_field_without_theta_covers_its_own_slopes():
    H = hj.quadratic_hamiltonian()  # momentum_lipschitz(H, M) = 2 M
    grid = hj.Grid2D(20, 0.0, 0.005, 10)
    vals = np.random.default_rng(3).normal(size=(11, 21))
    fld = hj.ArcField(grid, vals, hj.free(), hj.free(), vals[0])
    slope = np.max(np.abs(np.diff(vals, axis=1))) * grid.ns
    own = hj.momentum_lipschitz(H, slope + 1.0)
    for residual in (hj.subsolution_residual, hj.supersolution_residual):
        assert residual(fld, H) == residual(fld, H, theta=own)
        assert residual(fld, H) != residual(fld, H, theta=2.0)


def test_time_slices_stay_below_the_datum_level():
    # slices of the evolved field satisfy the stationary inequality at the
    # initial datum's level, up to grid wobble
    grid, theta = fo_grid(100)
    g = np.linspace(0, 1, 101)
    fld = hj.max_subsolution(H1, g, hj.free(), hj.free(), grid, theta=theta)
    M0 = hj.subsolution_level(H1, g)
    worst = max(hj.subsolution_level(H1, fld.values[k])
                for k in range(grid.nt + 1))
    assert worst <= M0 + 10.0 * grid.ds


def test_cone_solution_zero_data():
    grid = hj.Grid2D(16, 0.0, 0.05, 10)
    fld = hj.cone_solution(1.0, np.zeros(17), np.zeros(11), np.zeros(11), grid)
    assert np.array_equal(fld.values, np.zeros((11, 17)))


def test_cone_solution_spike_spreads_at_speed_one():
    grid = hj.Grid2D(20, 0.0, 0.05, 20)
    left = np.zeros(21)
    kstar = 4
    left[kstar] = 1.0
    fld = hj.cone_solution(1.0, np.zeros(21), left, np.zeros(21), grid)
    s, t = grid.s_nodes(), grid.t_nodes()
    expect = (s[None, :] <= (t[:, None] - t[kstar])).astype(float)
    assert np.array_equal(fld.values, expect)


def test_cone_solution_matches_reversed_scan():
    rng = np.random.default_rng(3)
    grid = hj.Grid2D(15, 0.0, 0.07, 12)
    initial = rng.normal(size=16)
    left = rng.normal(size=13)
    right = rng.normal(size=13)
    fld = hj.cone_solution(1.3, initial, left, right, grid)
    s, t = grid.s_nodes(), grid.t_nodes()
    for k in range(13):
        for i in range(16):
            best = -np.inf
            for l in range(12, -1, -1):  # reversed traversal
                if 1.0 - s[i] <= 1.3 * (t[k] - t[l]):
                    best = max(best, right[l])
                if s[i] <= 1.3 * (t[k] - t[l]):
                    best = max(best, left[l])
            for j in range(15, -1, -1):
                if abs(s[i] - s[j]) <= 1.3 * (t[k] - t[0]):
                    best = max(best, initial[j])
            assert best == fld.values[k, i]


def test_envelope_fixed_point():
    rng = np.random.default_rng(9)
    vals = np.cumsum(rng.uniform(-0.1, 0.1, size=40))
    env = hj.lipschitz_envelope_above(vals, n=10.0, dt=0.05)
    assert np.array_equal(env, vals)  # already 2-Lipschitz << 10


def test_envelope_step_ramps_at_slope_n():
    vals = np.zeros(11)
    vals[5:] = 1.0
    env = hj.lipschitz_envelope_above(vals, n=2.0, dt=0.1)
    expect = np.maximum(vals, 1.0 - 2.0 * 0.1 * np.maximum(0, 5 - np.arange(11)))
    assert np.allclose(env, expect, atol=1e-14)


def test_envelope_converges_from_above():
    rng = np.random.default_rng(15)
    field = rng.normal(size=(30, 25))
    errs = []
    for n in (2.0, 8.0, 32.0, 128.0, 512.0):
        env = hj.lipschitz_envelope_above(field, n, dt=0.05, ds=0.04)
        assert np.all(env >= field - 1e-12)
        errs.append(np.max(env - field))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]


def test_sup_convolution_constant_field():
    grid = hj.Grid2D(8, 0.0, 0.05, 10)
    fld = hj.ArcField(grid, np.ones((11, 9)), hj.free(), hj.free(),
                      np.ones(9), theta=1.0)
    out, tdelta = hj.sup_convolution_t(fld, 0.1)
    assert np.array_equal(out.values, fld.values)
    assert tdelta == 0.0


def test_sup_convolution_linear_decay_gains_half_delta():
    grid = hj.Grid2D(8, 0.0, 0.05, 40)
    t = grid.t_nodes()
    vals = np.broadcast_to(-t[:, None], (41, 9)).copy()
    fld = hj.ArcField(grid, vals, hj.free(), hj.free(), vals[0], theta=1.0)
    delta = 8 * grid.dt  # optimizer t - delta lands on the grid
    out, tdelta = hj.sup_convolution_t(fld, delta)
    inner = out.values[8:, :]
    expect = -t[8:, None] + delta / 2.0
    assert np.max(np.abs(inner - expect)) < 1e-12
    assert tdelta == pytest.approx(delta, abs=grid.dt)


def test_sup_convolution_shift_bounded_by_lipschitz_budget():
    rng = np.random.default_rng(21)
    grid = hj.Grid2D(6, 0.0, 0.02, 80)
    for ell in (0.5, 1.0, 3.0):
        slopes = rng.uniform(-ell, ell, size=(80, 7))
        vals = np.vstack([np.zeros((1, 7)), np.cumsum(slopes * grid.dt, axis=0)])
        fld = hj.ArcField(grid, vals, hj.free(), hj.free(), vals[0], theta=1.0)
        for delta in (0.05, 0.2):
            _, tdelta = hj.sup_convolution_t(fld, delta)
            assert tdelta <= delta * ell + grid.dt + 1e-12


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
