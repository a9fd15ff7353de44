"""Property tests: epoch-cached routing is bit-for-bit cold routing.

The epoch routing cache (one LVN table and one Dijkstra tree per home
server, flushed whenever the routing epoch moves) is an optimisation with a
correctness contract: under ANY interleaving of traffic rewrites, link
failures/recoveries, and SNMP-style database writes (including same-value
drumbeat writes), an epoch-cached VRA must produce exactly the decisions a
cache-less VRA computes from scratch — same server, same path, same cost,
same weight table, and the same exceptions when routing is impossible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vra import VirtualRoutingAlgorithm
from repro.database.records import LinkEntry, LinkStats
from repro.database.store import ServiceDatabase
from repro.errors import RoutingError
from repro.network.grnet import GRNET_LINKS, GRNET_NODES, build_grnet_topology

NODES = sorted(GRNET_NODES)
LINK_NAMES = [name for name, _, _ in GRNET_LINKS]
CAPACITY = {name: capacity for name, _, capacity in GRNET_LINKS}

#: One churn op: (link, kind, utilisation).  "traffic" rewrites background
#: load, "toggle" flips online, "same" rewrites the current value — the
#: SNMP drumbeat that writes the value the VRA already sees.
link_ops = st.lists(
    st.tuples(
        st.sampled_from(LINK_NAMES),
        st.sampled_from(["traffic", "toggle", "same"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=0,
    max_size=5,
)
#: A run: churn batches, each followed by one decision from a random home.
churn_runs = st.lists(
    st.tuples(link_ops, st.sampled_from(NODES)), min_size=2, max_size=10
)


def apply_ops(topology, ops):
    for name, kind, u in ops:
        link = topology.link_named(name)
        if kind == "traffic":
            link.set_background_mbps(u * CAPACITY[name])
        elif kind == "toggle":
            link.online = not link.online
        else:
            link.set_background_mbps(link.used_mbps)


def cached_vra(topology, used_of=None, db=None):
    """An epoch-cached VRA keyed the way VoDService.routing_epoch keys one."""

    def epoch_of():
        if db is None:
            return ("net", topology.traffic_version, topology.state_version)
        return ("db", db.link_stats_version, topology.state_version)

    vra = VirtualRoutingAlgorithm(topology, used_of=used_of, epoch_of=epoch_of)
    assert vra.cache is not None
    return vra


def decision_fingerprint(vra, home):
    """Everything observable about one decision, exceptions included."""
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
        {uid: (p.nodes, p.cost) for uid, p in d.candidate_paths.items()},
    )


@given(churn_runs)
@settings(max_examples=60, deadline=None)
def test_ground_truth_churn_decisions_match_cold(runs):
    topology = build_grnet_topology()
    cached = cached_vra(topology)
    plain = VirtualRoutingAlgorithm(topology)
    for ops, home in runs:
        apply_ops(topology, ops)
        assert decision_fingerprint(cached, home) == decision_fingerprint(plain, home)


@given(churn_runs)
@settings(max_examples=60, deadline=None)
def test_reported_stats_churn_decisions_match_cold(runs):
    """The paper-faithful path: the VRA reads SNMP samples from the DB."""
    topology = build_grnet_topology()
    db = ServiceDatabase()
    for link in topology.links():
        db.register_link(
            LinkEntry(
                link_name=link.name,
                endpoints=link.endpoints,
                total_bandwidth_mbps=link.capacity_mbps,
            )
        )

    def reported(link):
        return db.link_entry(link.name).used_mbps

    cached = cached_vra(topology, used_of=reported, db=db)
    plain = VirtualRoutingAlgorithm(topology, used_of=reported)
    clock = [0.0]
    for ops, home in runs:
        apply_ops(topology, ops)
        # SNMP round: every link reports, changed or not (the drumbeat).
        clock[0] += 60.0
        for link in topology.links():
            db.update_link_stats(
                link.name,
                LinkStats(
                    used_mbps=link.used_mbps,
                    utilization=min(link.used_mbps / link.capacity_mbps, 1.0),
                    timestamp=clock[0],
                ),
            )
        assert decision_fingerprint(cached, home) == decision_fingerprint(plain, home)
    # Every SNMP round is a new epoch, so every decision after the first
    # ran on a freshly flushed cache.
    assert cached.cache_stats.invalidations == len(runs) - 1


def test_link_failure_disconnecting_cached_tree_source():
    """Edge case: link failures kill the only path out of a cached tree's root.

    Patra (U2) hangs off Athens and Ioannina; failing both links strands
    it.  The epoch-cached VRA must report the same RoutingError a cold VRA
    does, and recover identically when a link comes back.
    """
    topology = build_grnet_topology()
    cached = cached_vra(topology)
    plain = VirtualRoutingAlgorithm(topology)

    assert decision_fingerprint(cached, "U2") == decision_fingerprint(plain, "U2")
    topology.link_named("Patra-Athens").online = False
    topology.link_named("Patra-Ioannina").online = False
    stranded_cached = decision_fingerprint(cached, "U2")
    assert stranded_cached == decision_fingerprint(plain, "U2")
    assert stranded_cached[0] == "error"
    topology.link_named("Patra-Athens").online = True
    recovered = decision_fingerprint(cached, "U2")
    assert recovered == decision_fingerprint(plain, "U2")
    assert recovered[0] != "error"
