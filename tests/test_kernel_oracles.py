"""Scalar oracles for the marching stepper.

max_subsolution, the network solver and the vertex transforms march on one
stepper over stacks of arc rows grouped by kind; these tests rebuild them
from scalar evaluations, arc by arc in the callers' order, and require
equality bit for bit.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import hjnet as hj
from hjnet.hamiltonians import momentum_minimizer
from hjnet.semidiscrete import (VertexTraceSet, _arc_transform_traces,
                                arc_initial, f_gamma, f_x, f_x_selected)

from conftest import make_comb, make_mixed


def scalar_step(H, u, grid, theta):
    """One scheme step of the row u node by node with scalar hj.evaluate
    calls; the end entries are the state-constraint candidates."""
    ns, dt, s = grid.ns, grid.dt, grid.s_nodes()
    p_l = float(momentum_minimizer(H, 0.0)[0])
    p_r = float(momentum_minimizer(H, 1.0)[0])
    pm = [(u[i + 1] - u[i]) * ns for i in range(ns)]
    new = [u[0] - dt * hj.evaluate(H, 0.0, min(pm[0], p_l))]
    for i in range(1, ns):
        hhat = (hj.evaluate(H, s[i], 0.5 * (pm[i - 1] + pm[i]))
                - 0.5 * theta * (pm[i] - pm[i - 1]))
        new.append(u[i] - dt * hhat)
    new.append(u[ns] - dt * hj.evaluate(H, 1.0, max(pm[-1], p_r)))
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
    assert np.array_equal(fld.values,
                          scalar_march(H, g, left, right, grid, theta))


@pytest.mark.parametrize("planned", [True, False],
                         ids=["plan-theta", "default-theta"])
def test_vertex_transforms_equal_per_arc_min_and_argmin(planned):
    sol = hj.solve(make_mixed(16))
    sc = sol.scenario
    fam = hj.positive_shift(sc.hamiltonians, sc.limiter_values())[0]
    ts = sol.trace_set(shifted=True)
    t = sol.grid.t_nodes()
    if planned:                       # off consistency, so the arcs compete
        traces = {x: v + 0.03 * (i + 1) * np.cos(5.0 * t)
                  for i, (x, v) in enumerate(sorted(ts.traces.items()))}
        ts = VertexTraceSet(sol.grid, traces, ts.initial)
    thetas = sol.params.theta if planned else None
    for x in sc.network.vertex_ids():
        ids = [arc.id for arc in hj.incident_arcs(sc.network, x)]
        per_arc = np.array([
            f_gamma(ts, sc.network, fam, aid,
                    theta=thetas and thetas[aid.rstrip("~")]).values[:, -1]
            for aid in ids])
        fx = f_x(ts, sc.network, fam, x, thetas=thetas)
        vals, chosen = f_x_selected(ts, sc.network, fam, x, thetas=thetas)
        assert np.array_equal(fx, per_arc.min(axis=0))
        assert np.array_equal(vals, per_arc.min(axis=0))
        assert chosen == [ids[i] for i in per_arc.argmin(axis=0)]


@pytest.mark.parametrize("make", [lambda: make_comb(0, horizon=0.1),
                                  lambda: make_mixed(16)],
                         ids=["comb", "mixed"])
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
        assert np.array_equal(row, want), aid


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
                assert np.array_equal(sol.fields[e], f), (sc.name, e)
            for x, v in vertex.items():
                assert np.array_equal(sol.vertex[x], v), (sc.name, x)
