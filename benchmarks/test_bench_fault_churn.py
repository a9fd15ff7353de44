"""Routing-cache behaviour under a link-flap fault storm.

A flapping link is the worst case for the epoch-versioned routing
cache: every transition bumps ``state_version``, so each flap forces an
epoch change between decisions, and the cache flushes the LVN table and
every Dijkstra tree.

The storm comes from the fault-injection subsystem itself: a seeded
:class:`~repro.faults.FaultSchedule` of link flaps replayed by a
:class:`~repro.faults.FaultInjector` on the sim clock.  The *same*
seeded schedule runs against three services — routing cache off, epoch
routing cache, epoch routing cache plus the whole-decision memo — which
keeps the decision streams comparable.  The bit-for-bit equivalence
asserts inside ``measure`` are the real acceptance criterion: a cache
that is fast but wrong under churn would stream over a dead link.

Acceptance bars: decisions stay bit-for-bit identical across all three
(including identical refusals while a storm severs every path), the
routing cache still answers a majority of lookups from memory despite
an epoch change on every flap, and the memo answers at least as many
whole decisions warm as the tree layer answers trees warm.  The three
decision rates are printed, not gated.
"""

import time

from repro.core.service import ServiceConfig, VoDService
from repro.errors import RoutingError
from repro.experiments.report import render_decision_cache, render_routing_cache
from repro.faults import FaultInjector, FaultSchedule
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

MOVIE = VideoTitle("movie", size_mb=600.0, duration_s=3_600.0)

HOMES = ("U1", "U2", "U3", "U5", "U6")
DECISIONS = 600
STEP_S = 10.0  # sim-time between decisions; flaps land in the gaps
FLAP_RATE_PER_H = 120.0  # ~one flap every 30 s of sim time
MEAN_FLAP_S = 60.0
STORM_SEED = 23


def build_service(routing_cache_size, decision_cache_size=0):
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(
        Simulator(),
        topology,
        ServiceConfig(
            routing_cache_size=routing_cache_size,
            decision_cache_size=decision_cache_size,
            use_reported_stats=False,
        ),
    )
    service.seed_title("U4", MOVIE)
    return service


def flap_schedule():
    topology = build_grnet_topology()
    return FaultSchedule.seeded(
        STORM_SEED,
        DECISIONS * STEP_S,
        link_names=[link.name for link in topology.links()],
        link_flap_rate_per_h=FLAP_RATE_PER_H,
        mean_fault_duration_s=MEAN_FLAP_S,
    )


def churn_rate(service, schedule):
    """Decisions/sec with the injector replaying the storm in between.

    Returns (rate, decision log) so callers can assert equivalence.  A
    storm can sever every path to the holder; identical refusals count
    as identical decisions.
    """
    FaultInjector(service, schedule).start()
    sim = service.sim
    decisions = []
    start = time.perf_counter()
    for i in range(DECISIONS):
        sim.run(until=(i + 1) * STEP_S)
        try:
            d = service.decide(HOMES[i % len(HOMES)], "movie")
        except RoutingError as exc:
            decisions.append(("error", str(exc)))
        else:
            decisions.append((d.home_uid, d.chosen_uid, d.path.nodes, d.cost))
    return DECISIONS / (time.perf_counter() - start), decisions


def measure():
    schedule = flap_schedule()
    assert len(schedule) > 0  # the storm actually storms
    off = build_service(routing_cache_size=0)
    epoch = build_service(routing_cache_size=128)
    memo = build_service(routing_cache_size=128, decision_cache_size=128)
    for home in HOMES:  # warm all caches before timing
        off.decide(home, "movie")
        epoch.decide(home, "movie")
        memo.decide(home, "movie")
    off_rate, off_decisions = churn_rate(off, schedule)
    epoch_rate, epoch_decisions = churn_rate(epoch, schedule)
    memo_rate, memo_decisions = churn_rate(memo, schedule)
    assert epoch_decisions == off_decisions  # bit-for-bit under the storm
    assert memo_decisions == off_decisions  # ... with the decision memo too
    return (
        off_rate,
        epoch_rate,
        memo_rate,
        epoch.vra.cache_stats,
        memo.vra.decision_cache_stats,
    )


def test_fault_churn_cache_behaviour(benchmark, show):
    off_rate, epoch_rate, memo_rate, stats, memo_stats = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    tree_lookups = stats.tree_hits + stats.tree_misses
    show(
        f"Fault churn [GRNET, seeded link-flap storm, "
        f"{FLAP_RATE_PER_H:.0f} flaps/h]: {off_rate:,.0f} decisions/s "
        f"cache-off vs {epoch_rate:,.0f} epoch cache "
        f"({epoch_rate / off_rate:.1f}x) vs {memo_rate:,.0f} with the "
        f"decision memo, routing hit rate {stats.hit_rate:.1%} "
        f"(tree hit rate {stats.tree_hits / tree_lookups:.1%}), "
        f"decision hit rate {memo_stats.hit_rate:.1%}\n"
        + render_routing_cache(stats, title="Link-flap churn routing-cache counters")
        + "\n"
        + render_decision_cache(
            memo_stats, title="Link-flap churn decision-memo counters"
        )
    )
    # Whole-decision memoization under the same storm.  A decision
    # survives only within one epoch, exactly like a cached tree, and the
    # memo skips the holder poll and min-cost scan on top, so its hit
    # rate is held to the tree layer's.
    assert memo_stats.hit_rate >= stats.tree_hits / tree_lookups
    assert memo_stats.hit_rate > 0.0
    # Every flap is a real epoch change; the cache must still answer a
    # majority of lookups from memory.
    assert stats.hit_rate >= 0.5
