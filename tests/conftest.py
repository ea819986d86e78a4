"""Shared scenario builders for the test suite."""

import numpy as np
import pytest

import hjnet as hj


def make_tripod(ns, c_center=-2.0, c_leaf=-1.0, horizon=2.0, initial=None):
    """Star network: leaves x1..x3 joined at x0, H = |p| + 1 on every arc."""
    net = hj.build_network(
        ["x0", "x1", "x2", "x3"],
        [("e1", "x1", "x0"), ("e2", "x2", "x0"), ("e3", "x3", "x0")])
    H = hj.abs_hamiltonian(kappa=1.0)
    fam = hj.family_from_edges(net, {"e1": H, "e2": H, "e3": H})
    lim = {"x0": c_center, "x1": c_leaf, "x2": c_leaf, "x3": c_leaf}
    if initial is None:
        initial = {e: np.zeros(ns + 1) for e in ("e1", "e2", "e3")}
    return hj.Scenario(net, fam, lim, initial, horizon=horizon, ns=ns,
                       name="tripod")


def make_path(ns, horizon=2.0):
    """Two-edge path with one abs and one quadratic Hamiltonian."""
    net = hj.build_network(["v0", "v1", "v2"],
                           [("a", "v0", "v1"), ("b", "v1", "v2")])
    fam = hj.family_from_edges(net, {
        "a": hj.abs_hamiltonian(kappa=1.0),
        "b": hj.quadratic_hamiltonian(alpha=1.0, beta=0.0, kappa=1.0),
    })
    lim = {"v0": -1.0, "v1": -1.5, "v2": -1.0}
    s = np.linspace(0.0, 1.0, ns + 1)
    initial = {"a": 0.5 * s, "b": 0.5 * (1.0 - s)}
    return hj.Scenario(net, fam, lim, initial, horizon=horizon, ns=ns,
                       name="path")


def make_single_edge(ns, horizon=1.0, c=-1.0, initial=None):
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    fam = hj.family_from_edges(net, {"e": hj.abs_hamiltonian(kappa=1.0)})
    if initial is None:
        initial = {"e": np.zeros(ns + 1)}
    return hj.Scenario(net, fam, {"a": c, "b": c}, initial,
                       horizon=horizon, ns=ns, name="single")


def make_mixed(ns, horizon=0.25):
    """All three kinds on a cycle A-B-C-A with a multi-edge A-B and a pendant
    edge C-D; e4's Hamiltonian goes negative, so the positivity shift is
    non-zero."""
    net = hj.build_network(["A", "B", "C", "D"],
                           [("e1", "A", "B"), ("e2", "A", "B"), ("e3", "B", "C"),
                            ("e4", "C", "A"), ("e5", "C", "D")])
    p = np.linspace(-3.0, 3.0, 9)
    a = np.array([0.6, 0.8, 0.5])
    k = np.array([0.7, 1.2, 0.9])
    table = a[:, None] * p[None, :] ** 2 + k[:, None]
    edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
    fam = hj.family_from_edges(net, {
        "e1": hj.abs_hamiltonian(alpha=1.5, beta=0.25, kappa=1.0),
        "e2": hj.quadratic_hamiltonian(alpha=1.0, beta=-0.3, kappa=0.8),
        "e3": hj.sampled_hamiltonian([0.0, 0.5, 1.0], p, table, edge + 0.5),
        "e4": hj.abs_hamiltonian(alpha=[1.0, 2.0, 1.5], beta=[0.0, 0.4, -0.2],
                                 kappa=-0.5),
        "e5": hj.quadratic_hamiltonian(alpha=[0.5, 1.2], beta=[0.2, -0.4],
                                       kappa=[0.6, 1.1]),
    })
    lim = {x: min(hj.c_gamma(fam[a.id]) for a in hj.incident_arcs(net, x)) - d
           for x, d in zip(net.vertex_ids(), (0.3, 0.1, 0.5, 0.2))}
    vval = {"A": 0.1, "B": -0.2, "C": 0.3, "D": 0.0}
    bump = {"e1": 0.2, "e2": -0.3, "e3": 0.1, "e4": 0.25, "e5": -0.15}
    s = np.linspace(0.0, 1.0, ns + 1)
    g = {arc.id: vval[arc.start] + (vval[arc.end] - vval[arc.start]) * s
         + 2.0 * bump[arc.id] * np.minimum(s, 1.0 - s)
         for arc in net.edge_arcs()}
    return hj.Scenario(net, fam, lim, g, horizon=horizon, ns=ns, name="mixed")


def make_comb(seed, spine_edges=4, ns=24, horizon=0.25):
    """Comb: a spine path s0..sN with a leaf on every spine vertex but the
    last; abs, quadratic and sampled arcs in turn, drawn coefficients and
    limiters, and a piecewise-linear datum through drawn knots."""
    rng = np.random.default_rng(seed)
    n = spine_edges
    spine = [f"s{i}" for i in range(n + 1)]
    edges = [(f"q{i}", f"l{i}", spine[i]) for i in range(n)]
    edges += [(f"p{i}", spine[i], spine[i + 1]) for i in range(n)]
    net = hj.build_network(spine + [f"l{i}" for i in range(n)], edges)
    p = np.linspace(-3.0, 3.0, 9)
    per = {}
    for j, (eid, _, _) in enumerate(edges):
        if j % 3 == 0:
            per[eid] = hj.abs_hamiltonian(alpha=float(rng.uniform(0.5, 2.0)),
                                          beta=float(rng.uniform(-0.5, 0.5)),
                                          kappa=float(rng.uniform(0.5, 1.5)))
        elif j % 3 == 1:
            per[eid] = hj.quadratic_hamiltonian(
                alpha=float(rng.uniform(0.5, 1.5)),
                beta=float(rng.uniform(-0.5, 0.5)),
                kappa=float(rng.uniform(0.5, 1.5)))
        else:
            table = (rng.uniform(0.4, 0.9, size=3)[:, None] * p[None, :] ** 2
                     + rng.uniform(0.5, 1.5, size=3)[:, None])
            edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
            per[eid] = hj.sampled_hamiltonian([0.0, 0.5, 1.0], p, table,
                                              edge + 0.5)
    fam = hj.family_from_edges(net, per)
    lim = {x: min(hj.c_gamma(fam[a.id]) for a in hj.incident_arcs(net, x))
           - float(rng.uniform(0.0, 0.8)) for x in net.vertex_ids()}
    vval = {x: float(rng.uniform(-0.5, 0.5)) for x in net.vertex_ids()}
    s = np.linspace(0.0, 1.0, ns + 1)
    g = {}
    for eid, a, b in edges:
        knots = rng.uniform(-0.4, 0.4, size=5)
        knots[0], knots[-1] = vval[a], vval[b]
        g[eid] = np.interp(s, np.linspace(0.0, 1.0, 5), knots)
    return hj.Scenario(net, fam, lim, g, horizon=horizon, ns=ns, name="comb")


def dyadic_series(rng, n, granularity=2.0 ** -10, span=2.0 ** 20):
    """Random values exactly representable at a coarse dyadic granularity."""
    return rng.integers(-int(span), int(span), size=n) * granularity


def random_scenario(rng, kind, ns, horizon=1.0):
    """Random star or path scenario with mixed Hamiltonian kinds."""
    if kind == "tripod":
        names = ["x0", "x1", "x2", "x3"]
        edges = [("e1", "x1", "x0"), ("e2", "x2", "x0"), ("e3", "x3", "x0")]
    else:
        names = ["v0", "v1", "v2"]
        edges = [("a", "v0", "v1"), ("b", "v1", "v2")]
    net = hj.build_network(names, edges)
    per = {}
    for eid, _, _ in edges:
        if rng.integers(2):
            per[eid] = hj.abs_hamiltonian(alpha=float(rng.uniform(0.5, 2.0)),
                                          beta=float(rng.uniform(-0.5, 0.5)),
                                          kappa=float(rng.uniform(0.5, 1.5)))
        else:
            per[eid] = hj.quadratic_hamiltonian(
                alpha=float(rng.uniform(0.5, 1.5)),
                beta=float(rng.uniform(-0.5, 0.5)),
                kappa=float(rng.uniform(0.5, 1.5)))
    fam = hj.family_from_edges(net, per)
    lim = {}
    for x in net.vertex_ids():
        cmin = min(hj.c_gamma(fam[a.id]) for a in hj.incident_arcs(net, x))
        lim[x] = cmin - float(rng.uniform(0.0, 0.8))
    vval = {x: float(rng.uniform(-0.5, 0.5)) for x in net.vertex_ids()}
    s = np.linspace(0.0, 1.0, ns + 1)
    g = {}
    for eid, a, b in edges:
        knots = rng.uniform(-0.4, 0.4, size=5)
        knots[0], knots[-1] = vval[a], vval[b]
        g[eid] = np.interp(s, np.linspace(0, 1, 5), knots)
    return hj.Scenario(net, fam, lim, g, horizon=horizon, ns=ns,
                       name=f"random-{kind}")


def _rough_arc(rng, kind, negative):
    """One arc's Hamiltonian with 2 or 3 s-knots of drawn coefficients or
    table rows; ``negative`` lowers it until its minimum is below 0."""
    n = int(rng.integers(2, 4))
    s = np.array([0.0, float(rng.uniform(0.2, 0.8)), 1.0]) if n == 3 \
        else np.array([0.0, 1.0])
    drop = float(rng.uniform(1.6, 2.4)) if negative else 0.0
    kappa = rng.uniform(0.3, 1.5, size=n) - drop
    if kind == "sampled":
        p = np.linspace(-3.0, 3.0, 9)
        centre = rng.uniform(-0.8, 0.8, size=n)
        table = (rng.uniform(0.4, 0.9, size=n)[:, None]
                 * (p[None, :] - centre[:, None]) ** 2 + kappa[:, None])
        edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
        return hj.sampled_hamiltonian(s, p, table, edge + 0.5)
    make = hj.abs_hamiltonian if kind == "abs" else hj.quadratic_hamiltonian
    return make(alpha=rng.uniform(0.5, 2.0 if kind == "abs" else 1.5, size=n),
                beta=rng.uniform(-0.5, 0.5, size=n), kappa=kappa, s_knots=s)


def rough_scenario(rng, ns, horizon=0.25, at_c_gamma=False):
    """A cycle A-B-C-A with a multi-edge A-B and a pendant edge C-D.

    Every kind appears, on arcs whose coefficients vary in s; one or two
    of the five arcs go negative, so the positivity shift is non-zero; the
    limiters lie below min c_gamma and the datum is piecewise linear
    through drawn knots.  With ``at_c_gamma`` the same draws give limiters
    at min c_gamma and a zero datum.
    """
    net = hj.build_network(["A", "B", "C", "D"],
                           [("e1", "A", "B"), ("e2", "A", "B"), ("e3", "B", "C"),
                            ("e4", "C", "A"), ("e5", "C", "D")])
    arcs = net.edge_arcs()
    kinds = ["abs", "quadratic", "sampled",
             *rng.choice(["abs", "quadratic", "sampled"], size=2)]
    kinds = [kinds[i] for i in rng.permutation(len(arcs))]
    low = set(rng.choice(len(arcs), size=int(rng.integers(1, 3)),
                         replace=False).tolist())
    fam = hj.family_from_edges(net, {
        arc.id: _rough_arc(rng, kind, i in low)
        for i, (arc, kind) in enumerate(zip(arcs, kinds))})
    lim = {x: min(hj.c_gamma(fam[a.id]) for a in hj.incident_arcs(net, x))
           - float(rng.uniform(0.0, 0.8)) for x in net.vertex_ids()}
    vval = {x: float(rng.uniform(-0.5, 0.5)) for x in net.vertex_ids()}
    s = np.linspace(0.0, 1.0, ns + 1)
    g = {}
    for arc in arcs:
        knots = rng.uniform(-0.4, 0.4, size=5)
        knots[0], knots[-1] = vval[arc.start], vval[arc.end]
        g[arc.id] = np.interp(s, np.linspace(0.0, 1.0, 5), knots)
    if at_c_gamma:
        lim = {x: min(hj.c_gamma(fam[a.id]) for a in hj.incident_arcs(net, x))
               for x in net.vertex_ids()}
        g = {arc.id: np.zeros(ns + 1) for arc in arcs}
    return hj.Scenario(net, fam, lim, g, horizon=horizon, ns=ns, name="rough")


@pytest.fixture(scope="session")
def tripod_solutions():
    """Tripod solves at three refinement levels plus the fitted tolerance."""
    sols = {ns: hj.solve(make_tripod(ns)) for ns in (100, 200, 400)}
    C, details = hj.calibrate_epsilon(make_tripod(100), levels=3)
    return {"solutions": sols, "C": C, "details": details}


def eps_at(C, grid):
    """Scheme tolerance at a grid level from the fitted constant."""
    return 3.0 * C * (grid.ds + grid.dt)
