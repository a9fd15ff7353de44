"""Property tests: fault storms never leave the routing cache stale.

A fault storm can flap and reload many links between two VRA decisions.
Each mutation moves the routing epoch, and the epoch cache must flush on
it — so an epoch-cached VRA still produces exactly the decisions a
cache-less VRA computes from scratch.  A stale route would mean streaming
over a link the storm already killed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vra import VirtualRoutingAlgorithm
from repro.errors import RoutingError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology

NODES = ("A", "B", "C", "D", "E")
EDGES = (
    ("A", "B", 10.0),
    ("B", "C", 10.0),
    ("C", "D", 10.0),
    ("D", "E", 10.0),
    ("A", "E", 10.0),
    ("B", "D", 4.0),
)
#: Most link mutations one storm batch applies between two decisions.
MAX_STORM_OPS = 12


def build_topology():
    topology = Topology(name="storm")
    for uid in NODES:
        topology.add_node(Node(uid=uid))
    for a, b, capacity in EDGES:
        topology.add_link(Link(a, b, capacity_mbps=capacity))
    return topology


def cached_vra(topology):
    """An epoch-cached VRA over ground-truth link usage."""
    return VirtualRoutingAlgorithm(
        topology,
        epoch_of=lambda: (topology.traffic_version, topology.state_version),
    )


def apply_storm(topology, ops):
    for link_index, kind, level in ops:
        link = list(topology.links())[link_index % topology.link_count]
        if kind == "flap":
            link.online = not link.online
        else:
            link.set_background_mbps(level * link.capacity_mbps)


def fingerprint(vra, home):
    holders = [uid for uid in NODES if uid != home]
    try:
        d = vra.decide(home, "t", holders=holders)
    except RoutingError as exc:
        return ("error", str(exc))
    return (
        d.chosen_uid,
        d.path.nodes,
        d.cost,
        sorted(d.weights.items()),
    )


storm_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(EDGES) - 1),
        st.sampled_from(["flap", "traffic"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=0,
    max_size=MAX_STORM_OPS,
)
storm_runs = st.lists(
    st.tuples(storm_ops, st.sampled_from(NODES)), min_size=2, max_size=8
)


@given(storm_runs)
@settings(max_examples=60, deadline=None)
def test_storms_never_yield_stale_routes(runs):
    topology = build_topology()
    cached = cached_vra(topology)
    plain = VirtualRoutingAlgorithm(topology)
    for ops, home in runs:
        apply_storm(topology, ops)
        assert fingerprint(cached, home) == fingerprint(plain, home)


def test_storm_killing_every_route_matches_cold_error():
    """All links down mid-storm: both VRAs must refuse identically, and
    both must recover identically when one path returns."""
    topology = build_topology()
    cached = cached_vra(topology)
    plain = VirtualRoutingAlgorithm(topology)
    for link in topology.links():
        link.online = False
    down = fingerprint(cached, "A")
    assert down == fingerprint(plain, "A")
    assert down[0] == "error"
    topology.link_named("A-B").online = True
    up = fingerprint(cached, "A")
    assert up == fingerprint(plain, "A")
    assert up[0] != "error"
