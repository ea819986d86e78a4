"""Compact networks: vertex ids, oriented arc pairs, incidence.

Arcs are purely combinatorial and parametrized on [0,1]; geometry only
enters through the per-arc Hamiltonians.  Every undirected edge expands to
an oriented arc and its inverse (s -> 1-s), and incidence at a vertex x
collects the arcs that *end* at x.  Loops are rejected outright; multi-edges
between the same vertex pair are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import (
    DisconnectedNetworkError,
    DuplicateIdError,
    EmptyNetworkError,
    LoopEdgeError,
    UnknownVertexError,
    ValidationError,
)
from .hamiltonians import c_gamma

__all__ = [
    "Arc",
    "Network",
    "build_network",
    "incident_arcs",
    "validate_flux_limiter",
    "reverse_arc_id",
]

_REV = "~"
_LIMITER_TOL = 1e-12  # c_x may exceed min c_gamma by this much


def reverse_arc_id(arc_id: str) -> str:
    return arc_id[:-1] if arc_id.endswith(_REV) else arc_id + _REV


def _csv_safe(kind, ident):
    """Ids are the first CSV column of every dump, so they may hold no comma,
    whitespace or control character."""
    if ("," in ident or not ident.isprintable()
            or any(c.isspace() for c in ident)):
        raise ValidationError(f"{kind} id {ident!r} contains a comma, "
                              "whitespace or a control character")
    return ident


@dataclass(frozen=True)
class Arc:
    id: str
    start: str  # gamma(0)
    end: str    # gamma(1)
    inverse_id: str


@dataclass(frozen=True)
class Network:
    vertices: frozenset = frozenset()
    arcs: dict = field(default_factory=dict)

    # The orderings are derived once per Network object and handed out as
    # tuples (the incidence as a read-only mapping of tuples), so no caller
    # can change what the next one reads.

    def vertex_ids(self):
        return self._vertex_ids

    def edge_arcs(self):
        """One representative (forward) arc per edge, sorted by id."""
        return self._edge_arcs

    def arc(self, arc_id):
        return self.arcs[arc_id]

    def incidence(self):
        """Arc ids ending at each vertex, sorted by arc id."""
        return self._incidence

    @cached_property
    def _vertex_ids(self):
        return tuple(sorted(self.vertices))

    @cached_property
    def _edge_arcs(self):
        return tuple(self.arcs[a] for a in sorted(self.arcs)
                     if not a.endswith(_REV))

    @cached_property
    def _incidence(self):
        into = {x: [] for x in self._vertex_ids}
        for aid in sorted(self.arcs):
            into[self.arcs[aid].end].append(aid)
        return MappingProxyType({x: tuple(ids) for x, ids in into.items()})


def build_network(vertices, edges) -> Network:
    """Build and validate a network.

    vertices: iterable of vertex ids.
    edges: iterable of (edge_id, start_vertex, end_vertex); each edge yields
    the oriented arc pair (edge_id, edge_id + '~').
    """
    vids = set()
    for v in vertices:
        vid = _csv_safe("vertex", str(v))
        if vid in vids:
            raise DuplicateIdError(f"duplicate vertex id {vid!r}")
        vids.add(vid)

    arcs = {}
    for eid, u, v in edges:
        eid, u, v = _csv_safe("edge", str(eid)), str(u), str(v)
        if u not in vids or v not in vids:
            raise UnknownVertexError(f"edge {eid!r} references unknown vertex")
        if u == v:
            raise LoopEdgeError(f"edge {eid!r} is a loop at {u!r}; loops are unsupported")
        if eid.endswith(_REV):
            raise DuplicateIdError(f"edge id {eid!r} may not end with {_REV!r}")
        rid = reverse_arc_id(eid)
        if eid in arcs or rid in arcs:
            raise DuplicateIdError(f"duplicate edge id {eid!r}")
        arcs[eid] = Arc(eid, u, v, rid)
        arcs[rid] = Arc(rid, v, u, eid)

    if not vids:
        raise DisconnectedNetworkError("network has no vertices")
    if not arcs:
        raise EmptyNetworkError("network has no edges")
    seen = set()
    stack = [min(vids)]
    adj = {vid: set() for vid in vids}
    for a in arcs.values():
        adj[a.start].add(a.end)
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adj[x] - seen)
    if seen != vids:
        missing = sorted(vids - seen)
        raise DisconnectedNetworkError(f"network is disconnected; unreachable: {missing}")

    return Network(vertices=frozenset(vids), arcs=arcs)


def incident_arcs(net: Network, x) -> list:
    """Arcs ending at vertex x, sorted by arc id (deterministic min-order)."""
    x = str(x)
    if x not in net.vertices:
        raise UnknownVertexError(f"unknown vertex {x!r}")
    return [net.arcs[a] for a in net.incidence()[x]]


@dataclass(frozen=True)
class LimiterEntry:
    vertex: str
    c_x: float
    min_c_gamma: float
    margin: float  # c_x - min c_gamma; positive means violation
    ok: bool


@dataclass(frozen=True)
class LimiterReport:
    entries: list

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]


def validate_flux_limiter(net, limiter, hams) -> LimiterReport:
    """Check c_x <= min over incident arcs of c_gamma, vertex by vertex."""
    entries = []
    cgam = {aid: c_gamma(hams[aid]) for aid in net.arcs}
    for x, into in net.incidence().items():
        if x not in limiter:
            raise UnknownVertexError(f"flux limiter missing vertex {x!r}")
        cmin = min(cgam[aid] for aid in into)
        margin = limiter[x] - cmin
        entries.append(LimiterEntry(x, limiter[x], cmin, margin,
                                    margin <= _LIMITER_TOL))
    return LimiterReport(entries)
