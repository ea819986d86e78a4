"""Network construction, incidence, limiter validation."""

import numpy as np
import pytest

import hjnet as hj
from hjnet import network
from hjnet.errors import (
    DisconnectedNetworkError,
    DuplicateIdError,
    EmptyNetworkError,
    HJNetError,
    LoopEdgeError,
    UnknownVertexError,
    ValidationError,
)

from conftest import rough_scenario


def tripod():
    return hj.build_network(
        ["x0", "x1", "x2", "x3"],
        [("e1", "x1", "x0"), ("e2", "x2", "x0"), ("e3", "x3", "x0")])


def test_minimal_network_expands_to_arc_pair():
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    assert len(net.arcs) == 2
    assert net.arcs["e~"].start == "b" and net.arcs["e~"].end == "a"
    assert net.arcs[net.arcs["e"].inverse_id].inverse_id == "e"


def test_tripod_star_expansion():
    net = tripod()
    assert len(net.arcs) == 6
    assert len(hj.incident_arcs(net, "x0")) == 3


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        hj.build_network(["v"], [("e", "v", "v")])


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateIdError):
        hj.build_network(["a", "a"], [])
    with pytest.raises(DuplicateIdError):
        hj.build_network(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedNetworkError):
        hj.build_network(["a", "b", "c", "d"], [("e", "a", "b")])


def test_a_network_without_edges_is_rejected_with_its_cause():
    for vertices in (["a"], ["a", "b"]):
        with pytest.raises(EmptyNetworkError, match="no edges"):
            hj.build_network(vertices, [])
    assert issubclass(EmptyNetworkError, ValidationError)
    assert issubclass(EmptyNetworkError, HJNetError)
    # the checks that come first still name their own cause
    with pytest.raises(DuplicateIdError):
        hj.build_network(["a", "a"], [])
    with pytest.raises(DisconnectedNetworkError, match="no vertices"):
        hj.build_network([], [])


def test_incident_arcs_orientation():
    net = tripod()
    inc = hj.incident_arcs(net, "x0")
    assert all(a.end == "x0" for a in inc)
    assert [a.id for a in inc] == ["e1", "e2", "e3"]  # sorted, leaf -> center
    leaf = hj.incident_arcs(net, "x1")
    assert len(leaf) == 1 and leaf[0].id == "e1~"


def test_incident_arcs_path():
    net = hj.build_network(["v0", "v1", "v2"],
                           [("a", "v0", "v1"), ("b", "v1", "v2")])
    assert len(hj.incident_arcs(net, "v1")) == 2
    with pytest.raises(UnknownVertexError):
        hj.incident_arcs(net, "zz")


def test_every_arc_is_incident_to_its_end():
    net = tripod()
    for arc in net.arcs.values():
        assert arc in hj.incident_arcs(net, arc.end)
    total = sum(len(hj.incident_arcs(net, x)) for x in net.vertex_ids())
    assert total == len(net.arcs)


def test_orderings_are_derived_once_and_read_only():
    net = tripod()
    for order in (net.vertex_ids, net.edge_arcs, net.incidence):
        assert order() is order()
    assert net.vertex_ids() == ("x0", "x1", "x2", "x3")
    assert [a.id for a in net.edge_arcs()] == ["e1", "e2", "e3"]
    into = net.incidence()
    assert into["x0"] == ("e1", "e2", "e3") and into["x1"] == ("e1~",)
    with pytest.raises(TypeError):
        into["x0"] = ()
    with pytest.raises(AttributeError):
        into["x0"].append("e1~")
    assert net.incidence()["x0"] == ("e1", "e2", "e3")


def test_multi_edges_allowed():
    net = hj.build_network(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
    assert len(net.arcs) == 4


def test_reverse_marker_reserved():
    with pytest.raises(DuplicateIdError):
        hj.build_network(["a", "b"], [("e~", "a", "b")])


@pytest.mark.parametrize("vertices,edges,bad", [
    (["a,b", "c"], [("e", "a,b", "c")], "'a,b'"),
    (["a", "c"], [("e,1", "a", "c")], "'e,1'"),
    (["a b", "c"], [("e", "a b", "c")], "'a b'"),
    (["a", "c"], [("e\t1", "a", "c")], r"'e\\t1'"),
    (["a\x00", "c"], [("e", "a\x00", "c")], r"'a\\x00'"),
], ids=["comma_vertex", "comma_edge", "space", "tab", "nul"])
def test_ids_that_break_the_csv_rejected(vertices, edges, bad):
    with pytest.raises(ValidationError, match=bad):
        hj.build_network(vertices, edges)


def _uniform_family(net, H):
    return hj.family_from_edges(net, {a.id: H for a in net.edge_arcs()})


def test_limiter_accepts_equality():
    net = tripod()
    fam = _uniform_family(net, hj.abs_hamiltonian(kappa=1.0))  # c_gamma = -1
    rep = hj.validate_flux_limiter(net, {x: -1.0 for x in net.vertex_ids()},
                                   fam.by_arc)
    assert rep.ok


def test_limiter_accepts_stricter_value():
    net = tripod()
    fam = _uniform_family(net, hj.abs_hamiltonian(kappa=1.0))
    values = {x: -1.0 for x in net.vertex_ids()}
    values["x0"] = -2.0
    assert hj.validate_flux_limiter(net, values, fam.by_arc).ok


def test_both_arcs_of_an_edge_read_the_forward_c_gamma(monkeypatch):
    # rough seed 18's e1 is sampled on s-knots [0, 0.538.., 1], where 1 - s
    # is not exact: its reverse's own c_gamma is one ulp lower
    H = rough_scenario(np.random.default_rng(18), 37).hamiltonians["e1"]
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    fam = hj.family_from_edges(net, {"e": H})
    assert hj.c_gamma(fam["e~"]) == np.nextafter(hj.c_gamma(H), -np.inf)
    read = []
    monkeypatch.setattr(network, "c_gamma",
                        lambda G: read.append(G) or hj.c_gamma(G))
    rep = hj.validate_flux_limiter(net, {"a": -2.0, "b": -2.0}, fam)
    assert len(read) == 1 and read[0] is H
    assert [e.min_c_gamma for e in rep.entries] == [hj.c_gamma(H)] * 2


def test_limiter_rejects_excess_with_margin():
    net = tripod()
    fam = _uniform_family(net, hj.abs_hamiltonian(kappa=1.0))
    values = {x: -1.0 for x in net.vertex_ids()}
    values["x0"] = 0.0
    rep = hj.validate_flux_limiter(net, values, fam.by_arc)
    assert not rep.ok
    bad = rep.failures()
    assert len(bad) == 1 and bad[0].vertex == "x0"
    assert bad[0].margin == pytest.approx(1.0, abs=1e-12)
