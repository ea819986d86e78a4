"""Seeded scenario generators for the benchmark workloads.

Each generator draws from ``numpy.random.default_rng(seed)`` and returns hjnet
inputs plus the generator parameters, so a result records exactly what was
solved.  The draws vary the data, not the size of the work: the edge count,
the grid and the number of time steps are the same for every seed, so the
seed spread of a timing is mostly machine noise.  (The comb's window length
still follows its draw, as it would for a user's network.)
"""

from __future__ import annotations

import hashlib

import numpy as np

import hjnet as hj


def tripod_closed_form(c0, s, t):
    """Exact solution of the zero-datum tripod with H = |p| + 1 on every arc,
    leaf limiters -1 and centre limiter c0 <= -1; s = 1 is the centre."""
    d = 1.0 - s
    return np.minimum(-t, c0 * (t - d) - d)


def tripod_scn(seed):
    """Scenario-file text of the tripod in demos/scenarios/tripod.scn, with
    the centre limiter drawn from the seed; returns (text, params).

    The centre limiter does not enter the dissipation (theta = alpha for the
    abs kind) nor the window, so the grid is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    c0 = float(rng.uniform(-2.5, -1.5))
    text = "\n".join([
        "# Tripod junction; centre limiter drawn by the benchmark.",
        "[vertices]",
        "x0 0.0 0.0",
        "x1 1.0 0.0",
        "x2 -0.5 0.87",
        "x3 -0.5 -0.87",
        "[edges]",
        "e1 x1 x0 abs alpha=1 beta=0 kappa=1",
        "e2 x2 x0 abs alpha=1 beta=0 kappa=1",
        "e3 x3 x0 abs alpha=1 beta=0 kappa=1",
        "[limiter]",
        "default -1",
        f"x0 {c0!r}",
        "[initial]",
        "e1 constant 0",
        "e2 constant 0",
        "e3 constant 0",
        "[run]",
        "T = 2.0",
        "ns = 100",
        "checks = all",
        "",
    ])
    return text, {"generator": "tripod_scn", "seed": seed, "c0": c0,
                  "horizon": 2.0}


def _pl_datum(rng, s, v_start, v_end, amp, knots=4):
    """Piecewise-linear datum through drawn interior knots."""
    k = rng.uniform(-amp, amp, size=knots)
    k[0], k[-1] = v_start, v_end
    return np.interp(s, np.linspace(0.0, 1.0, knots), k)


def tripod(seed, ns, horizon=2.0):
    """Tripod with H = |p| + 1 and a small drawn piecewise-linear datum.

    The abs kind makes theta and the window independent of the datum, so
    the grid (and a restart split) is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    net = hj.build_network(
        ["x0", "x1", "x2", "x3"],
        [("e1", "x1", "x0"), ("e2", "x2", "x0"), ("e3", "x3", "x0")])
    H = hj.abs_hamiltonian(kappa=1.0)
    fam = hj.family_from_edges(net, {"e1": H, "e2": H, "e3": H})
    lim = {"x0": -2.0, "x1": -1.0, "x2": -1.0, "x3": -1.0}
    vval = {x: float(rng.uniform(-0.2, 0.2)) for x in net.vertex_ids()}
    s = np.linspace(0.0, 1.0, ns + 1)
    initial = {e: _pl_datum(rng, s, vval[a], vval["x0"], 0.2)
               for e, a in (("e1", "x1"), ("e2", "x2"), ("e3", "x3"))}
    sc = hj.Scenario(net, fam, lim, initial, horizon=horizon, ns=ns,
                     name="tripod")
    return sc, {"generator": "tripod", "seed": seed, "ns": ns,
                "horizon": horizon, "datum_amp": 0.2}


def path(ns, horizon=2.0):
    """Two-edge path, abs then quadratic, with a fixed linear datum.

    The datum stays fixed because the quadratic arc's dissipation, and so
    the time step, depends on the datum slopes.
    """
    net = hj.build_network(["v0", "v1", "v2"],
                           [("a", "v0", "v1"), ("b", "v1", "v2")])
    fam = hj.family_from_edges(net, {
        "a": hj.abs_hamiltonian(kappa=1.0),
        "b": hj.quadratic_hamiltonian(alpha=1.0, beta=0.0, kappa=1.0),
    })
    lim = {"v0": -1.0, "v1": -1.5, "v2": -1.0}
    s = np.linspace(0.0, 1.0, ns + 1)
    initial = {"a": 0.5 * s, "b": 0.5 * (1.0 - s)}
    sc = hj.Scenario(net, fam, lim, initial, horizon=horizon, ns=ns,
                     name="path")
    return sc, {"generator": "path", "ns": ns, "horizon": horizon}


# Coefficient ranges of the comb, those of the random scenarios the test
# suite draws.  They bound the dissipation: theta <= 15.6 (1 + ds) for every
# draw (a quadratic arc with alpha 1.5, |beta| 0.5, kappa 0.5 at the largest
# slope budget the datum and limiter ranges allow), so the fixed time step
# below stays inside the monotonicity bound dt <= ds / theta.
_ABS = {"alpha": (0.5, 2.0), "beta": (-0.5, 0.5), "kappa": (0.5, 1.5)}
_QUAD = {"alpha": (0.5, 1.5), "beta": (-0.5, 0.5), "kappa": (0.5, 1.5)}
_SAMPLED = {"a": (0.4, 0.9), "kappa": (0.5, 1.5)}
_LIMITER_DROP = 0.8    # c_x = min c_gamma - U(0, drop)
_VERTEX_AMP = 0.5      # datum at a vertex: U(-amp, amp)
_KNOT_AMP = 0.4        # interior datum knots: U(-amp, amp)
_KNOTS = 5


def _draw(rng, ranges):
    return {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in ranges.items()}


def _sampled_arc(rng):
    """Tabulated a(s) p^2 + kappa(s) on p in [-3, 3], coercive beyond."""
    s = np.array([0.0, 0.5, 1.0])
    p = np.linspace(-3.0, 3.0, 9)
    a = rng.uniform(*_SAMPLED["a"], size=s.size)
    k = rng.uniform(*_SAMPLED["kappa"], size=s.size)
    table = a[:, None] * p[None, :] ** 2 + k[:, None]
    edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
    return hj.sampled_hamiltonian(s, p, table, edge + 0.5)


def comb(seed, spine_edges, ns, horizon, dt):
    """Comb: a spine path s00..sNN with a leaf on each spine vertex but the
    last, so 2 * spine_edges edges.

    The edges take a seeded permutation of an equal share of the abs,
    quadratic and sampled kinds, so every draw does the same per-step work;
    coefficients, limiters and a piecewise-linear datum are drawn in the
    ranges above.  The time step is given (a scenario's ``dt``) rather than
    left at the monotonicity bound, which moves with the draw, so every seed
    runs the same number of steps.
    """
    rng = np.random.default_rng(seed)
    n = spine_edges
    spine = [f"s{i:02d}" for i in range(n + 1)]
    leaves = [f"l{i:02d}" for i in range(n)]
    edges = [(f"q{i:02d}", leaves[i], spine[i]) for i in range(n)]
    edges += [(f"p{i:02d}", spine[i], spine[i + 1]) for i in range(n)]
    net = hj.build_network(spine + leaves, edges)
    kinds = (["abs", "quadratic", "sampled"] * len(edges))[:len(edges)]
    kinds = [kinds[i] for i in rng.permutation(len(edges))]
    per = {}
    for (eid, _, _), kind in zip(edges, kinds):
        if kind == "abs":
            per[eid] = hj.abs_hamiltonian(**_draw(rng, _ABS))
        elif kind == "quadratic":
            per[eid] = hj.quadratic_hamiltonian(**_draw(rng, _QUAD))
        else:
            per[eid] = _sampled_arc(rng)
    fam = hj.family_from_edges(net, per)
    lim = {x: min(hj.c_gamma(fam[a.id]) for a in hj.incident_arcs(net, x))
           - float(rng.uniform(0.0, _LIMITER_DROP))
           for x in net.vertex_ids()}
    vval = {x: float(rng.uniform(-_VERTEX_AMP, _VERTEX_AMP))
            for x in net.vertex_ids()}
    s = np.linspace(0.0, 1.0, ns + 1)
    initial = {eid: _pl_datum(rng, s, vval[a], vval[b], _KNOT_AMP, _KNOTS)
               for eid, a, b in edges}
    sc = hj.Scenario(net, fam, lim, initial, horizon=horizon, ns=ns, dt=dt,
                     name="comb")
    kind_count = {k: kinds.count(k) for k in ("abs", "quadratic", "sampled")}
    return sc, {"generator": "comb", "seed": seed, "edges": len(edges),
                "spine_edges": n, "ns": ns, "horizon": horizon, "dt": dt,
                "kinds": kind_count}


def scenario_digest(sc) -> str:
    """sha256 over everything a solve reads from a scenario."""
    h = hashlib.sha256()
    h.update(repr((sc.name, sc.horizon, sc.t0, sc.ns, sc.dt, sc.cfl)).encode())
    for aid, a in sorted(sc.network.arcs.items()):
        h.update(repr((aid, a.start, a.end)).encode())
    for aid in sc.hamiltonians.arcs():
        H = sc.hamiltonians[aid]
        h.update(aid.encode() + H.kind.encode())
        for name in ("s_knots", "alpha", "beta", "kappa", "p_knots", "table"):
            v = getattr(H, name, None)
            if v is not None:
                h.update(np.ascontiguousarray(v, dtype=float).tobytes())
        h.update(repr(getattr(H, "extension_slope", None)).encode())
    h.update(repr(sorted(sc.limiter_values().items())).encode())
    for eid in sorted(sc.initial):
        h.update(eid.encode())
        h.update(np.ascontiguousarray(sc.initial[eid], dtype=float).tobytes())
    return h.hexdigest()
