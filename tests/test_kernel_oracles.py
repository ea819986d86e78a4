"""Scalar oracles for the marching stepper.

max_subsolution and the vertex transforms go through one arc march, and it
and the network solver step with one stepper over stacks of arc rows
grouped by kind; these tests rebuild them from scalar evaluations, arc by
arc in the callers' order, and require equality bit for bit (the arc
marches byte for byte, so signed zeros count).  The scalar evaluations
never go through the column evaluator: the symbolic kinds take their
formula in Python floats, and the sampled kind a scalar search over each
row's own momentum knots and the point-slope form of the piece it finds.
Each is also checked against the column evaluator directly, the symbolic
kinds on every shortened call sequence.  The residual scan, one stepper per
kernel re-pointed from arc to arc, is checked against a stepper built for
each arc alone.
"""

import bisect
import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

import hjnet as hj
from hjnet import arc_solver, network_solver
from hjnet.arc_solver import _ArcStepper, _residual_scan
from hjnet.hamiltonians import (_Columns, _coefficients, _kernel,
                                momentum_minimizer)
from hjnet.semidiscrete import (VertexTraceSet, _arc_transform_traces,
                                arc_initial, f_gamma, f_x, f_x_selected)

from conftest import (make_comb, make_mixed, make_path, make_tripod,
                      rough_scenario)


def scalar_sampled(H, s, p):
    """A sampled H at one (s, p), in scalar arithmetic: the table row
    interpolated in s, and in it the piece that holds p, found by a
    right-sided search over all the row's own knots (the left extension
    below the first knot, the right one at or above the last), evaluated in
    point-slope form: the row's value at the piece's anchor knot plus its
    slope times p minus that knot."""
    sk, pk, tab = H.s_knots, H.p_knots, H.table
    i = min(max(int(np.searchsorted(sk, s, side="right")) - 1, 0), sk.size - 2)
    s0, s1 = float(sk[i]), float(sk[i + 1])
    ws = (s - s0) / (s1 - s0) if s1 > s0 else 0.0
    row = [(1.0 - ws) * float(tab[i, k]) + ws * float(tab[i + 1, k])
           for k in range(pk.size)]
    j = int(np.searchsorted(pk, p, side="right"))
    if j == 0:
        a, slope = 0, -H.extension_slope
    elif j == pk.size:
        a, slope = j - 1, H.extension_slope
    else:
        a = j - 1
        slope = (row[j] - row[a]) / (float(pk[j]) - float(pk[a]))
    return row[a] + slope * (p - float(pk[a]))


def scalar_symbolic(H, s, p):
    """An abs or quadratic H at one (s, p), in Python floats: the
    coefficients interpolated on the s-knots, then a |p - b| + k or
    (a p) p + b p + k with every product and sum made."""
    a, b, k = (float(np.interp(s, H.s_knots, c))
               for c in (H.alpha, H.beta, H.kappa))
    if H.kind == "abs":
        return a * abs(p - b) + k
    return (a * p) * p + b * p + k


def scalar_H(H, s, p):
    """H at one (s, p) from its scalar oracle, never through _Columns."""
    return (scalar_sampled if H.kind == "sampled" else scalar_symbolic)(
        H, float(s), float(p))


def scalar_step(H, u, grid, theta):
    """One scheme step of the row u node by node with scalar_H calls; the
    end entries are the state-constraint candidates."""
    ns, dt, s = grid.ns, grid.dt, grid.s_nodes()
    p_l = float(momentum_minimizer(H, 0.0)[0])
    p_r = float(momentum_minimizer(H, 1.0)[0])
    pm = [(u[i + 1] - u[i]) * ns for i in range(ns)]
    new = [u[0] - dt * scalar_H(H, 0.0, min(pm[0], p_l))]
    for i in range(1, ns):
        hhat = (scalar_H(H, s[i], 0.5 * (pm[i - 1] + pm[i]))
                - 0.5 * theta * (pm[i] - pm[i - 1]))
        new.append(u[i] - dt * hhat)
    new.append(u[ns] - dt * scalar_H(H, 1.0, max(pm[-1], p_r)))
    return new


def scalar_march(H, g, left, right, grid, theta):
    """The scheme on one arc; left/right are datum series or None for a
    free side."""
    u = [float(v) for v in g]
    out = [u]
    for k in range(grid.nt):
        u = scalar_step(H, u, grid, theta)
        if left is not None:
            u[0] = min(u[0], left[k + 1])
        if right is not None:
            u[-1] = min(u[-1], right[k + 1])
        out.append(u)
    return np.array(out)


def scalar_network(sc, params):
    """The network march of one scenario, one scalar_step per edge and a
    Python min at every vertex, in the normalized frame; (fields, vertex)
    shifted back as the solver does."""
    const, net = sc.constants, sc.network
    grid = hj.Grid2D(params.ns, sc.t0, params.dt, params.nt)
    edges, into = net.edge_arcs(), net.incidence()
    back = {a.inverse_id: a.id for a in edges}

    def at_end(rows, aid):          # arc aid's value at the vertex it enters
        return rows[back[aid]][0] if aid in back else rows[aid][-1]

    u = {a.id: [float(v) for v in sc.initial[a.id]] for a in edges}
    rows = {a.id: [u[a.id]] for a in edges}
    vrow = {x: [at_end(u, ids[0])] for x, ids in into.items()}
    vval = {x: min(at_end(u, aid) for aid in ids) for x, ids in into.items()}
    for _ in range(grid.nt):
        u = {a.id: scalar_step(const.hamiltonians[a.id], u[a.id], grid,
                               params.theta[a.id]) for a in edges}
        vval = {x: min(vval[x] + const.limiter[x] * grid.dt,
                       min(at_end(u, aid) for aid in ids))
                for x, ids in into.items()}
        for a in edges:
            u[a.id][0], u[a.id][-1] = vval[a.start], vval[a.end]
            rows[a.id].append(u[a.id])
        for x in into:
            vrow[x].append(vval[x])
    fields = {e: np.array(r) for e, r in rows.items()}
    vertex = {x: np.array(v) for x, v in vrow.items()}
    if const.shift:
        tshift = const.shift * (np.arange(grid.nt + 1) * grid.dt)
        fields = {e: f + tshift[:, None] for e, f in fields.items()}
        vertex = {x: v + tshift for x, v in vertex.items()}
    return fields, vertex


def _kinds_interleave(hams):
    """Some kind comes back after another, so the stack regroups rows."""
    kinds = [H.kind for H in hams]
    return len([k for k, _ in itertools.groupby(kinds)]) > len(set(kinds))


def _sampled():
    # knots stop at |p| = 2, so the steep datum also reaches the extension
    p = np.linspace(-2.0, 2.0, 9)
    a = np.array([0.6, 1.0, 0.8])
    k = np.array([0.2, 0.7, 0.5])
    table = a[:, None] * (p[None, :] - 0.3) ** 2 + k[:, None]
    edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
    return hj.sampled_hamiltonian([0.0, 0.6, 1.0], p, table, edge + 0.5)


def _same_knots():
    """Sampled Hamiltonians on one knot vector: _sampled(), one with
    another table, and the reversal of _sampled(), whose knots hold -0.0
    where the others hold 0.0."""
    H = _sampled()
    p = H.p_knots
    table = np.array([[1.5], [1.1]]) * np.abs(p - 0.5) + [[0.3], [0.8]]
    other = hj.sampled_hamiltonian([0.0, 1.0], p, table, 2.0)
    return [H, other, hj.reverse_hamiltonian(H)]


def _probes(H):
    """Every knot, both zeros, points inside the cells, beyond both ends and
    at both infinities."""
    pk = H.p_knots
    inside = pk[:-1] + np.array([0.1, 0.5, 0.9])[:, None] * np.diff(pk)
    return np.concatenate([pk, [0.0, -0.0], inside.ravel(),
                           [pk[0] - 0.7, pk[-1] + 0.7, pk[0] - 1e9,
                            pk[-1] + 1e9, -np.inf, np.inf]])


KINDS = {
    "abs": lambda: hj.abs_hamiltonian(
        alpha=[1.0, 1.8, 1.2], beta=[0.3, -0.2, 0.1], kappa=[0.5, 1.0, 0.7]),
    "quadratic": lambda: hj.quadratic_hamiltonian(
        alpha=[0.6, 1.2], beta=[-0.4, 0.3], kappa=[0.4, 0.9]),
    "sampled": _sampled,
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("sides", ["free-free", "constrained-free",
                                   "free-constrained", "constrained-constrained"])
def test_max_subsolution_equals_scalar_loop(kind, sides):
    H = KINDS[kind]()
    ns = 16
    s = np.linspace(0.0, 1.0, ns + 1)
    g = 0.2 + 0.4 * np.sin(3.0 * s) - 0.5 * np.maximum(0.0, s - 0.6)
    g[4] += 0.15                      # a kink pushes slopes past |p| = 2
    theta = hj.momentum_lipschitz(H, 4.0) * (1.0 + 1.0 / ns)
    grid = hj.Grid2D(ns, 0.0, 0.9 / (ns * theta), 24)
    t = grid.t_nodes()
    lmode, rmode = sides.split("-")
    left = g[0] - 1.5 * t if lmode == "constrained" else None
    right = (g[-1] - 0.4 * t + 0.05 * np.sin(9.0 * t)
             if rmode == "constrained" else None)

    def mode(datum):
        return hj.free() if datum is None else hj.constrained(datum)

    fld = hj.max_subsolution(H, g, mode(left), mode(right), grid, theta=theta)
    assert fld.values.tobytes() == scalar_march(H, g, left, right, grid,
                                                theta).tobytes()


def test_vertex_transforms_equal_per_arc_min_and_argmin():
    sol = hj.solve(make_mixed(16))
    sc = sol.scenario
    fam = hj.positive_shift(sc.hamiltonians, sc.limiter_values())[0]
    ts = sol.trace_set(shifted=True)
    t = sol.grid.t_nodes()
    # off consistency, so the arcs compete
    traces = {x: v + 0.03 * (i + 1) * np.cos(5.0 * t)
              for i, (x, v) in enumerate(sorted(ts.traces.items()))}
    ts = VertexTraceSet(sol.grid, traces, ts.initial)
    thetas = sol.params.theta
    for x in sc.network.vertex_ids():
        ids = [arc.id for arc in hj.incident_arcs(sc.network, x)]
        per_arc = np.array([
            f_gamma(ts, sc.network, fam, aid,
                    theta=thetas[aid.rstrip("~")]).values[:, -1]
            for aid in ids])
        fx = f_x(ts, sc.network, fam, x, thetas=thetas)
        vals, chosen = f_x_selected(ts, sc.network, fam, x, thetas=thetas)
        assert np.array_equal(fx, per_arc.min(axis=0))
        assert np.array_equal(vals, per_arc.min(axis=0))
        assert chosen == [ids[i] for i in per_arc.argmin(axis=0)]


@pytest.mark.parametrize("make", [lambda: make_comb(0, horizon=0.1),
                                  lambda: make_mixed(16),
                                  lambda: _two_knot_sets(16)],
                         ids=["comb", "mixed", "two-knot-sets"])
def test_arc_transforms_of_interleaved_kinds_equal_scalar_marches(make):
    sc = make()
    sol = hj.solve(sc)
    fam = sc.constants.hamiltonians
    ts = sol.trace_set(shifted=True)
    t = sol.grid.t_nodes()
    traces = {x: v + 0.03 * (i + 1) * np.cos(5.0 * t)
              for i, (x, v) in enumerate(sorted(ts.traces.items()))}
    ts = VertexTraceSet(sol.grid, traces, ts.initial)
    ids = [aid for ids in sc.network.incidence().values() for aid in ids]
    theta = [sol.params.theta[aid.rstrip("~")] for aid in ids]
    assert _kinds_interleave([fam[aid] for aid in ids])
    assert len(set(theta)) > 1
    got = _arc_transform_traces(ts, sc.network, fam, ids, sol.params.theta)
    for row, aid, th in zip(got, ids, theta):
        want = scalar_march(fam[aid], arc_initial(ts, aid),
                            ts.traces[sc.network.arc(aid).start], None,
                            sol.grid, th)[:, -1]
        assert row.tobytes() == want.tobytes(), aid


def test_network_march_of_interleaved_kinds_equals_scalar_marches():
    members = [make_comb(0, horizon=0.1), make_mixed(24, horizon=0.1)]
    assert [sc.constants.shift > 0 for sc in members] == [False, True]
    plans = [hj.plan_solve(sc) for sc in members]
    params = dataclasses.replace(
        min(plans, key=lambda p: p.dt),
        theta={e: th for p in plans for e, th in p.theta.items()})
    for sc in members:
        edges = sc.network.edge_arcs()
        assert _kinds_interleave([sc.hamiltonians[a.id] for a in edges])
        assert len({params.theta[a.id] for a in edges}) > 1
    together = hj.solve_ensemble(members, params)
    for sc, ens in zip(members, together):
        fields, vertex = scalar_network(sc, params)
        for sol in (hj.solve(sc, params), ens):
            for e, f in fields.items():
                assert sol.fields[e].tobytes() == f.tobytes(), (sc.name, e)
            for x, v in vertex.items():
                assert sol.vertex[x].tobytes() == v.tobytes(), (sc.name, x)


def test_sampled_columns_equal_the_scalar_lookup():
    hams = _same_knots()
    assert hams[2].p_knots.tobytes() != hams[0].p_knots.tobytes()
    probes = _probes(hams[0])
    s = np.linspace(0.0, 1.0, 11)

    def want(H, sv, pv):
        return scalar_sampled(H, float(sv), float(pv))

    # (R, C): each block of rows takes the next probes, cycling through them
    p = np.resize(probes, (len(hams), s.size * 4)).reshape(-1, s.size)
    for lo in range(0, p.shape[0], len(hams)):
        q = p[lo:lo + len(hams)]
        got = _Columns(hams, s)(q)
        ref = [[want(H, sv, pv) for sv, pv in zip(s, row)]
               for H, row in zip(hams, q)]
        assert np.array_equal(got, ref)
        out, tmp = np.empty_like(q), np.empty_like(q)
        assert _Columns(hams, s)(q, out=out, tmp=tmp) is out
        assert np.array_equal(out, ref)
    for H in hams:
        cols = _Columns([H], s)
        # (N, C) with R = 1, and the (n, 1) column every column sees
        grid = np.broadcast_to(probes[:, None], (probes.size, s.size))
        ref = [[want(H, sv, pv) for sv in s] for pv in probes]
        for q in (grid.copy(), probes[:, None]):
            assert np.array_equal(cols(q), ref)
        for pv in probes:              # a scalar momentum
            assert np.array_equal(cols(pv)[0], [want(H, sv, pv) for sv in s])
            assert hj.evaluate(H, 0.3, pv) == want(H, 0.3, pv)


def _convex_table(rng):
    """A sampled H on 3-11 non-uniform knots (cell widths 1-100 times apart),
    with 2-4 convex rows over s whose cell slopes rise by 0.05-2 from cell
    to cell, the values and knots at drawn scales."""
    k = int(rng.integers(3, 12))
    scale = 10.0 ** rng.uniform(-1.0, 2.0)
    knots = scale * (rng.uniform(-1.0, 0.5)
                     + np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, k - 1)]))
    s = np.r_[0.0, np.sort(rng.uniform(0.0, 1.0, int(rng.integers(0, 3)))),
              1.0]
    slopes = (rng.uniform(-3.0, 0.0, (s.size, 1))
              + np.cumsum(rng.uniform(0.05, 2.0, (s.size, k - 1)), axis=1))
    offset = rng.uniform(-1.0, 1.0, (s.size, 1)) * 10.0 ** rng.uniform(-1, 3)
    table = offset + np.c_[np.zeros(s.size),
                           np.cumsum(slopes * np.diff(knots), axis=1)]
    cell = np.diff(table, axis=1) / np.diff(knots)
    ext = max(np.max(-cell[:, 0]), np.max(cell[:, -1]), 0.0) \
        + rng.uniform(0.1, 1.0)
    return hj.sampled_hamiltonian(s, knots, table, ext)


def _exact_row(knots, row, ext, p):
    """The value at p of the piecewise-linear row through (knots, row) with
    slopes -ext and ext beyond its ends, in rational arithmetic, and the
    forward error bound of its point-slope form, u |value at the anchor| +
    gamma_6 |slope d| (u = 2^-53, gamma_n = n u / (1 - n u)).  The computed
    product slope * d carries at most five relative roundings (the slope's
    two differences and quotient, d = p - anchor, the product), so it errs
    by gamma_5 at most (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemma 3.1); the sum's rounding adds u times both
    terms, and gamma_5 + u (1 + gamma_5) <= gamma_6."""
    u = Fraction(1, 2 ** 53)
    j = bisect.bisect_right(knots, p)
    a = max(j - 1, 0)
    if 0 < j < len(knots):
        slope = (Fraction(row[j]) - Fraction(row[a])) \
            / (Fraction(knots[j]) - Fraction(knots[a]))
    else:
        slope = Fraction(ext) * (-1 if j == 0 else 1)
    rise = slope * (Fraction(p) - Fraction(knots[a]))
    return (Fraction(row[a]) + rise,
            u * abs(Fraction(row[a])) + 6 * u / (1 - 6 * u) * abs(rise))


def check_sampled_columns_against_exact(n, seed):
    """Sampled columns against exact rational arithmetic at n or more
    (column, momentum) points: seeded ``_convex_table`` draws, each at its
    s-knots and two drawn s, at every knot, at three points inside each
    cell, at three points on each extension (10^-3 to 10^3 spans beyond the
    ends), at +-inf and at nan.  The reference is the exact value of the
    same s-interpolated row: a value must equal it at every knot, be +inf
    at infinite momenta, nan at nan, and elsewhere lie within the bound of
    ``_exact_row``.  Raises AssertionError naming the first point that does
    not; returns the number of points and the largest error over its
    bound."""
    rng = np.random.default_rng(seed)
    points, worst = 0, Fraction(0)
    while points < n:
        H = _convex_table(rng)
        pk = H.p_knots
        s = np.r_[H.s_knots, rng.uniform(0.0, 1.0, 2)]
        span = pk[-1] - pk[0]
        beyond = span * 10.0 ** rng.uniform(-3.0, 3.0, (2, 3))
        p = np.r_[pk, (pk[:-1] + rng.uniform(0.0, 1.0, (3, 1))
                       * np.diff(pk)).ravel(),
                  pk[0] - beyond[0], pk[-1] + beyond[1], -np.inf, np.inf,
                  np.nan]
        got = _Columns([H], s)(p[:, None])
        knots = pk.tolist()
        for c, row in enumerate(_coefficients(H, s).tolist()):
            for pv, v in zip(p.tolist(), got[:, c].tolist()):
                where = (seed, points, float(s[c]), pv, v)
                if np.isnan(pv):
                    assert np.isnan(v), where
                elif np.isinf(pv):
                    assert v == np.inf, where
                else:
                    exact, bound = _exact_row(knots, row,
                                              H.extension_slope, pv)
                    err = abs(Fraction(v) - exact)
                    assert err == 0 if pv in knots else err <= bound, \
                        (*where, float(exact), float(bound))
                    if bound:
                        worst = max(worst, err / bound)
                points += 1
    return points, float(worst)


def test_sampled_columns_are_exact_at_knots_and_within_roundoff_off_them():
    points, worst = check_sampled_columns_against_exact(3000, seed=33)
    assert points >= 3000 and worst <= 1.0


def _one_sided(H, rng):
    """H with its knots moved by a drawn positive offset so that all of them
    lie above 0, and its reversal, whose knots all lie below 0.  A shift
    keeps every cell's width up to its rounding, so both stay convex."""
    pk = H.p_knots
    span = pk[-1] - pk[0]
    up = hj.sampled_hamiltonian(H.s_knots, pk - pk[0] + span
                                * 10.0 ** rng.uniform(-3.0, 1.0),
                                H.table, H.extension_slope)
    return [up, hj.reverse_hamiltonian(up)]


def check_sampled_lipschitz_against_exact(n, seed):
    """``momentum_lipschitz`` of the sampled kind against exact rational
    arithmetic on n seeded ``_convex_table`` draws, each also moved to lie
    above 0 and, reversed, below it.  The bounds M: every |knot|, its two
    ``nextafter`` neighbours, a point inside the cell that holds 0, the
    midpoints between the sorted |knots| and points beyond both ends.  The
    reference is the exact maximum of |rise / run| over the cells of the
    table's s-knot rows that meet (-M, M).  The result must be within 3
    ulps (relative) of it; it must equal the extension slope exactly when M
    passes an end of the table and the extension slope is the larger; and
    it must never decrease as M grows.  Raises AssertionError naming the
    first bound that fails; returns the number of (table, M) cases and the
    largest error in ulps of the exact maximum."""
    rng = np.random.default_rng(seed)
    cases, worst = 0, Fraction(0)
    for _ in range(n):
        H0 = _convex_table(rng)
        for H in [H0, *_one_sided(H0, rng)]:
            pk = H.p_knots
            knots = [Fraction(p) for p in pk.tolist()]
            cells = [max(abs((Fraction(r[j + 1]) - Fraction(r[j]))
                             / (knots[j + 1] - knots[j]))
                         for r in H.table.tolist())
                     for j in range(pk.size - 1)]
            ends = np.abs(pk[pk != 0.0])
            ends.sort()
            bounds = np.r_[ends, np.nextafter(ends, 0.0),
                           np.nextafter(ends, np.inf),
                           0.5 * ends[0] * rng.uniform(0.0, 1.0),
                           0.5 * (ends[:-1] + ends[1:]),
                           ends[-1] * 10.0 ** rng.uniform(0.0, 3.0, 2)]
            bounds.sort()
            last = 0.0
            for M in bounds[bounds > 0.0].tolist():
                got = hj.momentum_lipschitz(H, M)
                m = Fraction(M)
                exact = max((c for c, a, b in zip(cells, knots, knots[1:])
                             if a < m and b > -m), default=Fraction(0))
                where = (seed, cases, M, got, float(exact))
                ext = M > pk[-1] or -M < pk[0]
                if ext and Fraction(H.extension_slope) >= exact:
                    assert got == H.extension_slope, where
                else:
                    err = abs(Fraction(got) - exact)
                    assert err <= 3 * exact / 2 ** 52, where
                    if exact:
                        worst = max(worst, err / exact * 2 ** 52)
                assert got >= last, (*where, last)
                last = got
                cases += 1
    return cases, float(worst)


def test_sampled_lipschitz_is_within_3_ulps_of_the_exact_cell_slope():
    cases, worst = check_sampled_lipschitz_against_exact(60, seed=34)
    assert cases >= 60 * 3 * 4 and worst <= 3.0


def _two_knot_sets(ns, horizon=0.1):
    """make_mixed with e5 sampled on other knots than e3's (as many of
    them), limiters redrawn below the new critical values."""
    sc = make_mixed(ns, horizon=horizon)
    p = np.linspace(-2.0, 2.0, 9)
    table = np.array([0.7, 1.1])[:, None] * (p[None, :] + 0.2) ** 2 + 0.6
    edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
    per = {a.id: sc.hamiltonians[a.id] for a in sc.network.edge_arcs()}
    per["e5"] = hj.sampled_hamiltonian([0.0, 1.0], p, table, edge + 0.5)
    fam = hj.family_from_edges(sc.network, per)
    lim = {x: min(hj.c_gamma(fam[a.id])
                  for a in hj.incident_arcs(sc.network, x)) - 0.2
           for x in sc.network.vertex_ids()}
    return dataclasses.replace(sc, hamiltonians=fam, limiter=lim,
                               name="two-knot-sets")


def test_network_march_on_two_knot_vectors_equals_scalar_marches():
    sc = _two_knot_sets(24)
    params = hj.plan_solve(sc)
    hams = [sc.constants.hamiltonians[a.id] for a in sc.network.edge_arcs()]
    step = _ArcStepper(hams, params.ns, 1.0, params.dt)
    knots = sorted(tuple(cols.knots) for cols, *_ in step.groups
                   if cols.kind == "sampled")
    assert knots == sorted({tuple(H.p_knots) for H in hams
                            if H.kind == "sampled"})
    assert len(knots) == 2
    fields, vertex = scalar_network(sc, params)
    sol = hj.solve(sc, params)
    for e, f in fields.items():
        assert sol.fields[e].tobytes() == f.tobytes(), e
    for x, v in vertex.items():
        assert sol.vertex[x].tobytes() == v.tobytes(), x


def _symbolic_groups():
    """Groups of one kind for every unit (alpha = 1) x centered (beta = 0)
    combination and the edge cases, each with the number of ufunc calls it
    binds.  beta = -0.0 from a reversal is centered; beta = 5e-324 is not.
    alpha one ulp above 1 is not unit.  A group whose rows mix alpha 1 and
    2, or beta 0 and 0.5, loses that flag, and so do knots that leave 1 or
    0 along s."""
    out = []
    for kind, make, n_full in (("abs", hj.abs_hamiltonian, 4),
                               ("quadratic", hj.quadratic_hamiltonian, 5)):
        skip_b = 1 if kind == "abs" else 2        # b p and its add
        for unit, centered in itertools.product((True, False), repeat=2):
            H = make(alpha=1.0 if unit else [0.75, 2.0, 1.25],
                     beta=0.0 if centered else [0.3, -0.2, 0.1],
                     kappa=[0.5, 1.0, 0.7])
            out.append(pytest.param(
                [H], n_full - unit - skip_b * centered,
                id=f"{kind}-unit={unit}-centered={centered}"))
        reversed_zero = hj.reverse_hamiltonian(make(kappa=1.0))
        assert np.signbit(reversed_zero.beta).all()
        cases = {
            "reversed": ([reversed_zero], n_full - 1 - skip_b),
            "beta-5e-324": ([make(beta=5e-324, kappa=1.0)], n_full - 1),
            "alpha-above-1": ([make(alpha=np.nextafter(1.0, 2.0), kappa=1.0)],
                              n_full - skip_b),
            "alpha-1-and-2": ([make(kappa=1.0), make(alpha=2.0, kappa=1.0)],
                              n_full - skip_b),
            "beta-0-and-0.5": ([make(kappa=1.0), make(beta=0.5, kappa=1.0)],
                               n_full - 1),
            "knots-off-1-and-0": ([make(alpha=[1.0, 2.0], beta=[0.0, 0.5])],
                                  n_full),
        }
        out += [pytest.param(hams, n, id=f"{kind}-{case}")
                for case, (hams, n) in cases.items()]
    return out


@pytest.mark.parametrize("hams, n_calls", _symbolic_groups())
def test_symbolic_columns_equal_the_scalar_formula(hams, n_calls):
    s = np.linspace(0.0, 1.0, 7)
    cols = _Columns(hams, s)
    p = np.empty((len(hams), s.size))
    assert len(cols.bind(p, np.empty_like(p), np.empty_like(p))) == n_calls
    # both zeros, momenta on either side of the betas, values whose square
    # underflows to +0.0, and large finite ones
    probes = [0.0, -0.0, 0.3, -0.2, 5e-324, -5e-324, 1e-170, -1e-170, 0.75,
              -3.5, 1e150, -1e150]
    for pv in probes:
        p[:] = pv
        want = np.array([[scalar_symbolic(H, float(sv), pv) for sv in s]
                         for H in hams])
        assert cols(p).tobytes() == want.tobytes(), pv
        for H, row in zip(hams, want):
            assert hj.evaluate(H, s, p[0]).tobytes() == row.tobytes(), pv


def test_a_centered_quadratic_is_inf_at_infinite_momenta():
    # the centered kernel makes no beta p term, so no 0 * inf = nan
    H = hj.quadratic_hamiltonian(alpha=[1.0, 2.0], kappa=1.0)
    assert hj.evaluate(H, [0.0, 0.5], [np.inf, -np.inf]).tolist() \
        == [np.inf, np.inf]


@pytest.mark.parametrize("make", [lambda: make_tripod(24),
                                  lambda: make_path(24)],
                         ids=["tripod", "path"])
def test_network_march_of_unit_centered_arcs_equals_scalar_marches(make):
    sc = make()
    fam = sc.constants.hamiltonians
    assert all((fam[a.id].alpha == 1.0).all() and (fam[a.id].beta == 0.0).all()
               for a in sc.network.edge_arcs())
    params = hj.plan_solve(sc)
    fields, vertex = scalar_network(sc, params)
    sol = hj.solve(sc, params)
    for e, f in fields.items():
        assert sol.fields[e].tobytes() == f.tobytes(), e
    for x, v in vertex.items():
        assert sol.vertex[x].tobytes() == v.tobytes(), x


def _fresh_residual(u, H, theta, dt):
    """u_t + Hhat at the interior nodes of the rows u, read from a stepper
    built for them alone."""
    rows = np.ascontiguousarray(u[:-1])
    hh = _ArcStepper([H], u.shape[1] - 1, theta, dt, state=rows).hhat()
    return ((u[1:] - u[:-1]) / dt + hh)[:, 1:-1]


def _scan_against_fresh(hams, theta, rows, ns, dt):
    """The residual scan of every arc against ``_fresh_residual``, bit for
    bit; returns each arc's fresh residual, in arc order."""
    scanned = dict(_residual_scan(hams, theta, rows, ns, dt))
    assert sorted(scanned) == list(range(len(hams)))
    fresh = [_fresh_residual(rows(i), H, th, dt)
             for i, (H, th) in enumerate(zip(hams, theta))]
    for i, want in enumerate(fresh):
        assert scanned[i].shape == want.shape, i
        assert scanned[i].tobytes() == want.tobytes(), i
    return fresh


def check_residual_scan_against_fresh_steppers(solutions):
    """verify's residual scan on each solution against a fresh stepper per
    edge: every residual bit for bit, and the interior_residual margin and
    witness those residuals give.  Returns (edges checked, worst |r|)."""
    n, worst_all = 0, 0.0
    for sol in solutions:
        const, grid = sol.constants, sol.grid
        edges = sol.scenario.network.edge_arcs()
        lift = network_solver._time_shift(const.shift, grid)[:, None]
        g = [sol.fields[a.id] - lift if const.shift else sol.fields[a.id]
             for a in edges]
        hams = [const.hamiltonians[a.id] for a in edges]
        theta = [sol.params.theta[a.id] for a in edges]
        fresh = _scan_against_fresh(hams, theta, g.__getitem__, grid.ns,
                                    grid.dt)
        worst = [float(np.abs(r).max(initial=0.0)) for r in fresh]
        i = int(np.argmax(worst))
        rep = hj.verify(sol, checks=["interior_residual"])["interior_residual"]
        assert float(rep.margin).hex() == \
            float(network_solver._RESID_TOL - worst[i]).hex()
        assert rep.witness == {"edge": edges[i].id}
        n, worst_all = n + len(edges), max(worst_all, worst[i])
    return n, worst_all


def check_residual_scan_on_rough_draws(seeds, ns=37):
    """``check_residual_scan_against_fresh_steppers`` on the solutions of
    ``rough_scenario`` draws, plain and at c_gamma, at ns."""
    return check_residual_scan_against_fresh_steppers(
        hj.solve(rough_scenario(np.random.default_rng(seed), ns,
                                at_c_gamma=at))
        for seed in seeds for at in (False, True))


@pytest.mark.parametrize("make", [
    *(lambda k=k: make_comb(k) for k in range(4)),
    lambda: make_mixed(24), lambda: make_path(37), lambda: make_tripod(37)],
    ids=[*(f"comb-{k}" for k in range(4)), "mixed", "path", "tripod"])
def test_verify_residual_scan_equals_fresh_steppers(make):
    sol = hj.solve(make())
    n, worst = check_residual_scan_against_fresh_steppers([sol])
    assert n == len(sol.fields) and worst < 1e-9


def test_verify_residual_scan_equals_fresh_steppers_on_rough_draws():
    n, worst = check_residual_scan_on_rough_draws(range(12))
    assert n == 12 * 2 * 5 and worst < 1e-9


def _kernel_mix():
    """Arcs of nine kernels, two or more on each, with momentum minimizers
    that differ within a kernel wherever its flags allow: abs and quadratic
    arcs with every unit/centered flag pair, general abs arcs along s, and
    sampled arcs on two momentum-knot vectors."""
    p9, p7 = np.linspace(-3.0, 3.0, 9), np.linspace(-2.0, 2.5, 7)
    hams = []
    for make in (hj.abs_hamiltonian, hj.quadratic_hamiltonian):
        for alpha, beta in ((1.0, 0.0), (1.0, 0.3), (1.5, 0.0)):
            hams += [make(alpha=alpha, beta=b, kappa=k)
                     for b, k in ((beta, 0.5), (-2.0 * beta, 0.9))]
    hams += [hj.abs_hamiltonian(alpha=[1.0, 2.0, 1.5], beta=b, kappa=k)
             for b, k in (([0.0, 0.4, -0.2], 0.5), ([0.3, -0.1, 0.6], 1.2))]
    for p, a, c in ((p9, (0.6, 0.8), 0.2), (p9, (0.5, 0.9), -1.4),
                    (p7, (1.1, 0.7), 0.2), (p7, (0.4, 0.6), -1.1)):
        table = np.array(a)[:, None] * (p[None, :] + c) ** 2 + 0.6
        edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
        hams.append(hj.sampled_hamiltonian([0.0, 1.0], p, table, edge + 0.5))
    return hams


@pytest.mark.parametrize("nt", [1, 2, 9])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_residual_scan_of_mixed_kernels_equals_fresh_steppers(
        nt, layout, monkeypatch):
    rng = np.random.default_rng(nt)
    ns, dt = 13, 1e-3
    mix = _kernel_mix()
    kernels = {_kernel(H, ns) for H in mix}
    assert len(kernels) == 9
    hams = [mix[i] for i in rng.permutation(len(mix))]
    theta = list(rng.uniform(0.5, 8.0, size=len(hams)))
    rows = []
    for _ in hams:
        u = rng.normal(scale=0.5, size=(nt + 1, ns + 1))
        if layout == "F":
            u = np.asfortranarray(u)
        elif layout == "strided":
            wide = np.zeros((nt + 1, 2 * (ns + 1)))
            wide[:, ::2] = u
            u = wide[:, ::2]
        rows.append(u)
    built = []

    class Counted(_ArcStepper):
        def __init__(self, hams, *args, **kwargs):
            built.append(_kernel(hams[0], ns))
            super().__init__(hams, *args, **kwargs)

    monkeypatch.setattr(arc_solver, "_ArcStepper", Counted)
    _scan_against_fresh(hams, theta, rows.__getitem__, ns, dt)
    # one stepper per kernel, each kernel's arcs in one run
    assert sorted(built) == sorted(kernels)
    # no time step: no residual, and no stepper
    built.clear()
    first = [u[:1] for u in rows]
    assert all(r.shape == (0, ns - 1) for _, r in _residual_scan(
        hams, theta, first.__getitem__, ns, dt))
    assert not built


def test_a_re_pointed_stepper_equals_one_built_for_its_new_arc():
    # all of Hhat, the end nodes' clipped slopes included, and a step
    rng = np.random.default_rng(7)
    ns, dt = 11, 1e-3
    by_kernel = {}
    for H in _kernel_mix():
        by_kernel.setdefault(_kernel(H, ns), []).append(H)
    for hams in by_kernel.values():
        first, *others = hams
        rows = rng.normal(size=(3, ns + 1))
        step = _ArcStepper([first], ns, 2.0, dt, state=rows)
        for H in others:
            theta = float(rng.uniform(0.5, 8.0))
            rows = rng.normal(size=(3, ns + 1))
            alone = rows.copy()
            step.point(H, theta, rows)
            fresh = _ArcStepper([H], ns, theta, dt, state=alone)
            assert step.state is rows
            assert step.hhat().tobytes() == fresh.hhat().tobytes(), H.kind
            step.advance()
            fresh.advance()
            assert rows.tobytes() == alone.tobytes(), H.kind
        with pytest.raises(ValueError, match="shape"):
            step.point(first, 2.0, np.zeros((4, ns + 1)))
        with pytest.raises(ValueError, match="C-contiguous"):
            step.point(first, 2.0, np.zeros((ns + 1, 3)).T)
