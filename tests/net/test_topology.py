"""Unit tests for nodes, topology, routing, and path channels."""

import pytest

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

