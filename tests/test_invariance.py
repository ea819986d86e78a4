"""Metamorphic invariances of a whole run.

The network problem has one solution, so renaming its edges and vertices,
or moving its initial time, changes nothing but names and clock readings.
The discrete run keeps both exactly: planning, the march and every check
reduce over edges and vertices by maxima and minima, which no order
changes, and no step reads t0.  Each check function here solves and
verifies a scenario and its transform, and requires the fields, the vertex
traces, every check's margin and every vertex's or edge's record in every
check to agree bit for bit.  A check's witness is its first record of
largest excess, so it maps through a renaming except on a tie; there the
two witnesses must both attain the largest excess.
"""

import dataclasses

import numpy as np

import hjnet as hj
from hjnet import network_solver

from conftest import make_comb, make_mixed, rough_scenario


def sweep_scenarios(seeds, ns=37):
    """``rough_scenario`` draws of seeds at ns, plain and at c_gamma, then
    ``make_comb(0..3)`` and ``make_mixed(24)``."""
    for seed in seeds:
        for at in (False, True):
            yield rough_scenario(np.random.default_rng(seed), ns,
                                 at_c_gamma=at)
    yield from (make_comb(k) for k in range(4))
    yield make_mixed(24)


def _run(sc):
    """The solution of sc on its own plan, its verify report, and each
    check's records as verify reduces them: name -> [(excess, witness)]."""
    seen, worst = [], network_solver._worst
    network_solver._worst = lambda records: seen.append(records) or \
        worst(records)
    try:
        sol = hj.solve(sc, hj.plan_solve(sc))
        rep = hj.verify(sol)
    finally:
        network_solver._worst = worst
    return sol, rep, {c.name: r for c, r in zip(rep.checks, seen)}


def _bits(witness, rename=None):
    """The witness with its floats as hex and its vertex or edge renamed."""
    out = {k: v.hex() if isinstance(v, float) else v
           for k, v in witness.items()}
    for key in ("vertex", "edge") if rename else ():
        if key in out:
            out[key] = rename[key][out[key]]
    return out


def _named(witness):
    return witness.get("vertex", witness.get("edge"))


def _keyed(records, rename=None):
    """A check's records by the vertex or edge they name, in bits."""
    out = {}
    for excess, w in records:
        w = _bits(w, rename)
        out[_named(w)] = (float(excess).hex(), w)
    return out


def _same_solution(a, b, vmap=None, emap=None):
    """Solution a against b, its run on renamed or moved input: the same
    grid, and each edge's theta and field and each vertex trace bitwise."""
    vmap = vmap or {x: x for x in a.vertex}
    emap = emap or {e: e for e in a.fields}
    assert (a.params.ns, a.params.dt, a.params.nt) == \
        (b.params.ns, b.params.dt, b.params.nt)
    for e, f in a.fields.items():
        assert a.params.theta[e] == b.params.theta[emap[e]], e
        assert f.tobytes() == b.fields[emap[e]].tobytes(), e
    for x, tr in a.vertex.items():
        assert tr.tobytes() == b.vertex[vmap[x]].tobytes(), x


def _relabelled(sc, rng):
    """sc with its vertex ids permuted among themselves and its edge ids
    among themselves, both by rng; also the two renamings."""
    vids = list(sc.network.vertex_ids())
    edges = sc.network.edge_arcs()
    eids = [a.id for a in edges]
    vmap = dict(zip(vids, rng.permutation(vids).tolist()))
    emap = dict(zip(eids, rng.permutation(eids).tolist()))
    net = hj.build_network(vmap.values(), [
        (emap[a.id], vmap[a.start], vmap[a.end]) for a in edges])
    fam = hj.family_from_edges(net, {emap[a.id]: sc.hamiltonians[a.id]
                                     for a in edges})
    return dataclasses.replace(
        sc, network=net, hamiltonians=fam,
        limiter={vmap[x]: c for x, c in sc.limiter.items()},
        initial={emap[e]: g for e, g in sc.initial.items()}), vmap, emap


def check_relabelling_invariance(scenarios, seed=0):
    """Each scenario against a seeded renaming of its vertex and edge ids:
    fields, vertex traces, margins and every record bitwise equal under the
    renaming, and each witness renamed, or tied with the renamed run's.
    Returns (check results compared, witnesses that sat on a tie)."""
    rng = np.random.default_rng(seed)
    n = ties = 0
    for sc in scenarios:
        renamed, vmap, emap = _relabelled(sc, rng)
        rename = {"vertex": vmap, "edge": emap}
        sol, rep, rec = _run(sc)
        sol2, rep2, rec2 = _run(renamed)
        _same_solution(sol, sol2, vmap, emap)
        for c, c2 in zip(rep.checks, rep2.checks):
            assert (c.name, c.ok, float(c.margin).hex()) == \
                (c2.name, c2.ok, float(c2.margin).hex()), c.name
            mine = _keyed(rec[c.name], rename)
            assert mine == _keyed(rec2[c.name]), c.name
            w, w2 = _bits(c.witness, rename), _bits(c2.witness)
            if w != w2:
                assert mine[_named(w)][0] == mine[_named(w2)][0], c.name
                ties += 1
            n += 1
    return n, ties


def check_time_translation_invariance(scenarios, offsets=(0.75, 1e3, -2.5)):
    """Each scenario against itself with t0 moved by each offset: fields,
    vertex traces, margins and every record bitwise equal, every witness
    the same, and a witness time at the same step of its grid.  Returns
    the number of check results compared."""
    n = 0
    for sc in scenarios:
        sol, rep, rec = _run(sc)
        for offset in offsets:
            sol2, rep2, rec2 = _run(dataclasses.replace(sc, t0=sc.t0 + offset))
            _same_solution(sol, sol2)
            for c, c2 in zip(rep.checks, rep2.checks):
                assert (c.name, c.ok, float(c.margin).hex()) == \
                    (c2.name, c2.ok, float(c2.margin).hex()), c.name
                assert _clocked(c.witness, sol.grid) == \
                    _clocked(c2.witness, sol2.grid), c.name
                assert [(float(x).hex(), _clocked(w, sol.grid))
                        for x, w in rec[c.name]] == \
                    [(float(x).hex(), _clocked(w, sol2.grid))
                     for x, w in rec2[c.name]], c.name
                n += 1
    return n


def _clocked(witness, grid):
    """The witness in bits, a witness time as its step index on grid; the
    time must be that step's node exactly."""
    w = _bits(witness)
    if "t" in witness:
        k = round((witness["t"] - grid.t0) / grid.dt)
        assert grid.t0 + k * grid.dt == witness["t"], witness
        w["t"] = k
    return w


def test_relabelling_changes_nothing_but_names():
    n, ties = check_relabelling_invariance(sweep_scenarios(range(3)))
    assert n == 11 * len(network_solver.CHECK_NAMES) and ties < n


def test_moving_t0_changes_nothing_but_the_clock():
    assert check_time_translation_invariance(sweep_scenarios(range(2))) \
        == 9 * 3 * len(network_solver.CHECK_NAMES)
