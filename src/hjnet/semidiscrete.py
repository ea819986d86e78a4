"""The vertex-trace system coupling the arcs.

For a trace set u (initial data on the arcs plus one time series per vertex)
and an arc ending at vertex x, the arc transform solves the arc equation with
the arc's initial datum, the trace at the far endpoint as a constrained left
datum, and a state-constraint right side; the vertex transform takes the
minimum of those right-endpoint traces over all arcs into x.  A trace set is
consistent exactly when every vertex series equals the slope-capped vertex
transform,

    u(x, t) = cap_{c_x}[ F_x[u] ](t),

and the residual of that identity is the solver's convergence certificate.
A discrete comparison harness for sub/supersolution trace sets rounds out
the module.

The vertex transforms, the certificate and the comparison march the arc
transforms they need, up to all 2E, as one call of the arc solver's stack
march, which checks them as ``f_gamma`` checks one and keeps only their
right-end traces; the certificate and the comparison then cap every
vertex's minimum in one recursion over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arc_solver import (_START_TOL, Grid2D, _march_arcs, constrained, free,
                         max_subsolution)
from .errors import GridMismatchError, ValidationError
from .network import incident_arcs, reverse_arc_id
from .slope_cap import _cap_columns

__all__ = [
    "VertexTraceSet",
    "DiscrEntry",
    "DiscrReport",
    "arc_initial",
    "f_gamma",
    "f_x",
    "f_x_selected",
    "discr_residual",
    "discr_compare",
]


@dataclass(frozen=True)
class VertexTraceSet:
    """Per-vertex series on one shared time grid, plus per-edge initial data.

    ``initial`` maps forward (edge) arc ids to samples of the network datum
    along the arc; the reverse arc's datum is the reflection.  At the initial
    time every vertex series must equal the datum at that vertex.
    """

    grid: Grid2D
    traces: dict
    initial: dict

    def validate(self, network):
        nt, ns = self.grid.nt, self.grid.ns
        for x in network.vertex_ids():
            if x not in self.traces:
                raise ValidationError(f"missing trace for vertex {x!r}")
            if np.shape(self.traces[x]) != (nt + 1,):
                raise GridMismatchError(f"trace at {x!r} off the time grid")
        for arc in network.edge_arcs():
            g = self.initial.get(arc.id)
            if g is None or np.shape(g) != (ns + 1,):
                raise GridMismatchError(f"initial datum of {arc.id!r} off the s-grid")
            for vid, val in ((arc.start, g[0]), (arc.end, g[-1])):
                tv = self.traces[vid][0]
                if abs(tv - val) > _START_TOL * (1.0 + abs(val)):
                    raise ValidationError(
                        f"trace at {vid!r} starts at {tv}, datum gives {val}")
        return self


def arc_initial(traces: VertexTraceSet, arc_id) -> np.ndarray:
    """Initial datum along an oriented arc (reflected for reverse arcs)."""
    if arc_id in traces.initial:
        return np.asarray(traces.initial[arc_id], dtype=float)
    rid = reverse_arc_id(arc_id)
    if rid not in traces.initial:
        edge = min(arc_id, rid, key=len)    # the forward arc's id
        raise ValidationError(f"trace set has no initial datum for edge "
                              f"{edge!r}")
    return np.asarray(traces.initial[rid], dtype=float)[::-1]


def _start_trace(traces, network, arc_id):
    """The trace at the arc's start vertex, which its transform reads."""
    x = network.arc(arc_id).start
    if x not in traces.traces:
        raise ValidationError(f"trace set has no trace for vertex {x!r}")
    return traces.traces[x]


def f_gamma(traces, network, hams, arc_id, theta):
    """Arc transform: maximal subsolution fed by the far-endpoint trace.

    Left side constrained by the trace at the arc's start vertex, right side
    a state constraint, marched with the dissipation theta; the field's
    right trace is what the vertex transform consumes.
    """
    return max_subsolution(
        hams[arc_id], arc_initial(traces, arc_id),
        constrained(_start_trace(traces, network, arc_id)), free(),
        traces.grid, theta)


def _arc_transform_traces(traces, network, hams, ids, thetas):
    """Right-end traces (len(ids), nt+1) of the arc transforms of ids, from
    one march of them all, checked with the errors of ``f_gamma``; each arc
    marches with its edge's theta, and ``thetas`` must hold every edge."""
    edges = [min(aid, reverse_arc_id(aid), key=len) for aid in ids]
    for eid in edges:
        if eid not in thetas:
            raise ValidationError(f"params carry no theta for edge {eid!r}")
    return _march_arcs(
        [hams[aid] for aid in ids], [arc_initial(traces, aid) for aid in ids],
        [_start_trace(traces, network, aid) for aid in ids],
        [None] * len(ids), traces.grid, [thetas[eid] for eid in edges], -1)


def f_x(traces, network, hams, x, thetas) -> np.ndarray:
    """Vertex transform: pointwise min of arc transforms over arcs into x."""
    return f_x_selected(traces, network, hams, x, thetas)[0]


def f_x_selected(traces, network, hams, x, thetas):
    """Vertex transform plus the per-time selected arc (smallest id on ties)."""
    ids = [arc.id for arc in incident_arcs(network, x)]
    per_arc = _arc_transform_traces(traces, network, hams, ids, thetas)
    idx = np.argmin(per_arc, axis=0)  # argmin takes the first (smallest id)
    return np.min(per_arc, axis=0), [ids[i] for i in idx]


def _capped_transforms(traces, network, hams, limiter, thetas):
    """cap_{c_x}[F_x[u]] at every vertex x, from one march of all arcs.

    Every vertex's minimum is one reduceat row, and all rows are capped at
    once by the recursion ``apply_g`` runs.
    """
    into = network.incidence()
    per_arc = _arc_transform_traces(
        traces, network, hams, [aid for ids in into.values() for aid in ids],
        thetas)
    starts = np.cumsum([0] + [len(ids) for ids in into.values()])[:-1]
    g = np.minimum.reduceat(per_arc, starts, axis=0).T.copy()  # [time, vertex]
    _cap_columns(g, [limiter[x] for x in into], traces.grid.dt)
    return {x: g[:, i] for i, x in enumerate(into)}


@dataclass(frozen=True)
class DiscrEntry:
    vertex: str
    residual: float
    witness_time: float
    ok: bool


@dataclass(frozen=True)
class DiscrReport:
    entries: list
    tolerance: float

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    @property
    def worst(self):
        return max((e.residual for e in self.entries), default=0.0)


def discr_residual(traces, network, hams, limiter, tolerance,
                   thetas) -> DiscrReport:
    """Per-vertex sup distance between the trace and its coupled prediction."""
    grid = traces.grid
    capped = _capped_transforms(traces, network, hams, limiter, thetas)
    entries = []
    for x in network.vertex_ids():
        resid = np.abs(np.asarray(traces.traces[x], dtype=float) - capped[x])
        k = int(resid.argmax())
        entries.append(DiscrEntry(x, float(resid[k]), grid.t0 + k * grid.dt,
                                  float(resid[k]) <= tolerance))
    return DiscrReport(entries, tolerance)


@dataclass(frozen=True)
class CompareReport:
    ok: bool
    margin: float          # min over vertices/times of super - sub
    witness_vertex: str
    precondition_gaps: dict

    def __bool__(self):
        return self.ok


def discr_compare(sub, sup, network, hams, limiter, tolerance,
                  thetas) -> CompareReport:
    """Discrete comparison: a subsolution trace set stays below a supersolution.

    Preconditions (checked, reported, and the comparison still evaluated):
    sub <= cap[F_x[sub]] + tol, sup >= cap[F_x[sup]] - tol at every vertex,
    and ordered initial data on the arcs.  Both sets must hold a datum for
    exactly the network's edges, or ValidationError names the first edge
    that breaks this, before anything is marched.
    """
    if not (_same_time_grid(sub.grid, sup.grid)):
        raise GridMismatchError("trace sets must share the time grid")
    # the initial gap reads both data of every edge either set holds
    edges = {arc.id for arc in network.edge_arcs()}
    for eid in sorted(edges | sub.initial.keys() | sup.initial.keys()):
        if eid not in edges:
            raise ValidationError(f"trace set has a datum for {eid!r}, "
                                  "which is not an edge of the network")
        if eid not in sub.initial or eid not in sup.initial:
            raise ValidationError(
                f"trace set has no initial datum for edge {eid!r}")
    gaps = {"sub": 0.0, "sup": 0.0, "initial": 0.0}
    fx_sub = _capped_transforms(sub, network, hams, limiter, thetas)
    fx_sup = _capped_transforms(sup, network, hams, limiter, thetas)
    for x in network.vertex_ids():
        gaps["sub"] = max(gaps["sub"], float(np.max(sub.traces[x] - fx_sub[x])))
        gaps["sup"] = max(gaps["sup"], float(np.max(fx_sup[x] - sup.traces[x])))
    for eid in sub.initial:
        gaps["initial"] = max(gaps["initial"], float(
            np.max(np.asarray(sub.initial[eid]) - np.asarray(sup.initial[eid]))))
    margin = np.inf
    witness = ""
    for x in network.vertex_ids():
        m = float(np.min(np.asarray(sup.traces[x]) - np.asarray(sub.traces[x])))
        if m < margin:
            margin, witness = m, x
    pre_ok = all(v <= tolerance for v in gaps.values())
    return CompareReport(ok=pre_ok and margin >= -tolerance, margin=margin,
                         witness_vertex=witness, precondition_gaps=gaps)


def _same_time_grid(g1, g2):
    return (g1.nt == g2.nt and abs(g1.dt - g2.dt) <= 1e-12 * g1.dt
            and abs(g1.t0 - g2.t0) <= 1e-9 * (1.0 + abs(g1.t0)))
