"""Unit tests for nodes, topology, routing, and path channels."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_unit_case
from repro.net.geo import WORLD_CITIES, GeoPoint
from repro.net.node import Node, connect
from repro.net.packet import Packet
from repro.net.topology import Site, Topology
from repro.simkit import Simulator


def build_triangle(sim):
    """cwb -- gz -- kaist with a slow direct cwb--kaist edge."""
    topo = Topology(sim)
    topo.add_site(Site("cwb", WORLD_CITIES["hkust_cwb"], "east_asia"))
    topo.add_site(Site("gz", WORLD_CITIES["hkust_gz"], "east_asia"))
    topo.add_site(Site("kaist", WORLD_CITIES["kaist"], "east_asia"))
    topo.connect("cwb", "gz", rate_bps=1e9)
    topo.connect("gz", "kaist", rate_bps=1e9)
    topo.connect("cwb", "kaist", rate_bps=1e9, prop_delay=1.0)  # bad route
    return topo


def test_node_dispatch_by_kind():
    sim = Simulator()
    a, b = Node("a"), Node("b")
    connect(sim, a, b, rate_bps=1e9, prop_delay=0.001)
    seen = []
    b.on("pose", lambda p: seen.append(("pose", p.payload)))
    b.on_default(lambda p: seen.append(("other", p.payload)))
    a.send(b, Packet(src="a", dst="b", size_bytes=100, kind="pose", payload=1))
    a.send(b, Packet(src="a", dst="b", size_bytes=100, kind="video", payload=2))
    sim.run()
    assert seen == [("pose", 1), ("other", 2)]
    assert b.received == 2


def test_node_missing_handler_raises():
    sim = Simulator()
    a, b = Node("a"), Node("b")
    connect(sim, a, b, rate_bps=1e9, prop_delay=0.0)
    a.send(b, Packet(src="a", dst="b", size_bytes=10, kind="mystery"))
    with pytest.raises(KeyError):
        sim.run()


def test_node_unknown_link():
    with pytest.raises(KeyError):
        Node("a").link_to("nowhere")


def test_topology_duplicate_site_rejected():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_site(Site("x", GeoPoint(0, 0)))
    with pytest.raises(ValueError):
        topo.add_site(Site("x", GeoPoint(1, 1)))


def test_topology_connect_unknown_site():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_site(Site("x", GeoPoint(0, 0)))
    with pytest.raises(KeyError):
        topo.connect("x", "y", rate_bps=1e6)


def test_shortest_path_avoids_slow_edge():
    sim = Simulator()
    topo = build_triangle(sim)
    assert topo.shortest_path("cwb", "kaist") == ["cwb", "gz", "kaist"]


def test_no_route_raises():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_site(Site("x", GeoPoint(0, 0)))
    topo.add_site(Site("y", GeoPoint(1, 1)))
    with pytest.raises(ValueError):
        topo.shortest_path("x", "y")


def test_shortest_path_unknown_site_raises_key_error():
    sim = Simulator()
    topo = build_triangle(sim)
    with pytest.raises(KeyError):
        topo.shortest_path("cwb", "nowhere")
    with pytest.raises(KeyError):
        topo.channel("nowhere", "cwb")


def _oracle_graph(topo):
    """The topology as a networkx graph weighted by propagation delay."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.sites)
    for a, links in topo._links.items():
        for b, link in links.items():
            graph.add_edge(a, b, delay=link.prop_delay)
    return graph


def _route_delay(topo, route):
    return sum(topo.link(u, v).prop_delay for u, v in zip(route, route[1:]))


# Small graphs over few integer delays, so equal-delay ties are common
# and every path sum is exact in floating point.
_EDGES = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from([0, 1, 2, 3])),
    max_size=14)


@settings(max_examples=150, deadline=None)
@given(n_sites=st.integers(1, 7), edges=_EDGES)
def test_shortest_path_matches_networkx_oracle(n_sites, edges):
    topo = Topology(Simulator())
    for i in range(n_sites):
        topo.add_site(Site(f"s{i}", GeoPoint(0, 0)))
    for a, b, delay in edges:
        if a < n_sites and b < n_sites and a != b:
            topo.connect(f"s{a}", f"s{b}", rate_bps=1e9, prop_delay=float(delay))
    graph = _oracle_graph(topo)
    for a, b in itertools.product(topo.sites, repeat=2):
        if not nx.has_path(graph, a, b):
            with pytest.raises(ValueError):
                topo.shortest_path(a, b)
            continue
        route = topo.shortest_path(a, b)
        assert route[0] == a and route[-1] == b
        best = nx.shortest_path_length(graph, a, b, weight="delay")
        assert _route_delay(topo, route) == best
        shortest = list(nx.all_shortest_paths(graph, a, b, weight="delay"))
        assert len(route) == min(map(len, shortest))  # ties: fewest hops
        if len(shortest) == 1:
            assert route == shortest[0]


def test_unit_case_routes_match_networkx():
    # The cloud site shares HKUST CWB's coordinates, so cwb--cloud has
    # zero delay and gz reaches either of them over two equal-delay
    # routes.  Ties go to fewer hops, the direct edge here, which is the
    # route networkx picks too.
    topo = build_unit_case(Simulator(seed=1)).topology
    graph = _oracle_graph(topo)
    for a, b in itertools.product(topo.sites, repeat=2):
        assert topo.shortest_path(a, b) == nx.shortest_path(
            graph, a, b, weight="delay")
    assert topo.shortest_path("gz", "cwb") == ["gz", "cwb"]
    assert topo.shortest_path("cwb", "gz") == ["cwb", "gz"]


def test_path_channel_end_to_end_delay():
    sim = Simulator()
    topo = build_triangle(sim)
    channel = topo.channel("cwb", "kaist")
    expected_floor = channel.min_delay(packet_size=500)
    arrivals = []
    packet = Packet(src="cwb", dst="kaist", size_bytes=500)
    channel.send(packet, lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals[0] == pytest.approx(expected_floor)
    assert expected_floor == pytest.approx(
        topo.path_propagation_delay("cwb", "kaist") + 2 * 500 * 8 / 1e9
    )


def test_path_channel_same_site_is_local():
    sim = Simulator()
    topo = build_triangle(sim)
    channel = topo.channel("cwb", "cwb")
    arrivals = []
    channel.send(Packet(src="cwb", dst="cwb", size_bytes=10), lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [0.0]

