"""Scalar oracles for the batched marching kernel.

max_subsolution and the vertex transforms march on one batched step over
stacks of arc rows; these tests rebuild them from scalar evaluations and
require equality bit for bit.
"""

import numpy as np
import pytest

import hjnet as hj
from hjnet.hamiltonians import momentum_minimizer
from hjnet.semidiscrete import VertexTraceSet, f_gamma, f_x, f_x_selected

from conftest import make_mixed


def scalar_march(H, g, left, right, grid, theta):
    """The scheme node by node with scalar hj.evaluate calls; left/right
    are datum series or None for a free side."""
    ns, dt, s = grid.ns, grid.dt, grid.s_nodes()
    p_l = float(momentum_minimizer(H, 0.0)[0])
    p_r = float(momentum_minimizer(H, 1.0)[0])
    u = [float(v) for v in g]
    out = [u]
    for k in range(grid.nt):
        pm = [(u[i + 1] - u[i]) * ns for i in range(ns)]
        new = [u[0] - dt * hj.evaluate(H, 0.0, min(pm[0], p_l))]
        for i in range(1, ns):
            hhat = (hj.evaluate(H, s[i], 0.5 * (pm[i - 1] + pm[i]))
                    - 0.5 * theta * (pm[i] - pm[i - 1]))
            new.append(u[i] - dt * hhat)
        new.append(u[ns] - dt * hj.evaluate(H, 1.0, max(pm[-1], p_r)))
        if left is not None:
            new[0] = min(new[0], left[k + 1])
        if right is not None:
            new[-1] = min(new[-1], right[k + 1])
        u = new
        out.append(u)
    return np.array(out)


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
