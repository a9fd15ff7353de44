"""The layers the benchmark traces, and the numbers it reads off them.

Layer names follow the package's modules: ``sim`` (the event engine),
``flows`` (link flow accounting behind every transfer quantum),
``service`` and ``vra`` (the decision path), ``placement`` (the DMA
pass), ``snmp`` (statistics collection), ``resilience`` (the failover
supervisor) and ``obs`` (the telemetry sampler).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.service import VoDService
from repro.core.vra import VirtualRoutingAlgorithm
from repro.errors import LinkCapacityError, RoutingError
from repro.network.flows import FlowManager
from repro.obs.sampler import TelemetrySampler
from repro.resilience.supervisor import SessionSupervisor
from repro.server.video_server import VideoServer
from repro.snmp.collector import NodeStatisticsModule

from tracing import Hook, LayerTracer
from workloads import RunOutput

HOOKS = (
    # A LinkCapacityError out of reserve() is a floor fallback: the
    # session then moves at the 0.05 Mbps floor with no reservation.
    Hook("flows.reserve", FlowManager, "reserve", (LinkCapacityError,)),
    Hook("flows.release", FlowManager, "release"),
    Hook("flows.bottleneck", FlowManager, "bottleneck_mbps"),
    Hook("service.decide", VoDService, "decide", (RoutingError,)),
    Hook("vra.decide", VirtualRoutingAlgorithm, "decide", (RoutingError,)),
    Hook("placement", VideoServer, "on_download_begins"),
    Hook("snmp.collect", NodeStatisticsModule, "collect"),
    Hook("resilience.supervisor", SessionSupervisor, "on_server_state"),
    Hook("resilience.supervisor", SessionSupervisor, "on_link_state"),
    Hook("resilience.supervisor", SessionSupervisor, "on_disk_failure"),
    # The sampler's periodic task holds a bound method taken at
    # construction, so this must be on the class before the build.
    Hook("obs.sample", TelemetrySampler, "sample"),
)


def state_counters(out: RunOutput, scheduled: int) -> Dict[str, int]:
    """Deterministic counters the program keeps itself (no tracing needed)."""
    service = out.service
    sim = service.sim
    counters = {
        "sessions.scheduled": scheduled,
        "sessions.records": len(service.sessions),
        "sim.events": sim.events_fired,
        "sim.heap_compactions": sim.compactions,
        "faults.injected": out.faults_injected,
        "snmp.samples_written": sum(m.samples_written for m in service.statistics.modules),
        "snmp.changed_samples": sum(m.changed_samples for m in service.statistics.modules),
        "snmp.blackout_skips": service.statistics.blackout_skips,
        "obs.sampler_rounds": service.telemetry.sample_count,
        "placement.passes": sum(s.policy.pass_count for s in service.servers.values()),
        "placement.hits": sum(s.policy.hit_count for s in service.servers.values()),
        "obs.spans": len(service.spans),
    }
    routing = service.vra.cache_stats
    if routing is not None:
        counters.update(
            {
                "vra.weight_hits": routing.weight_hits,
                "vra.weight_misses": routing.weight_misses,
                "vra.tree_hits": routing.tree_hits,
                "vra.tree_misses": routing.tree_misses,
                "vra.invalidations": routing.invalidations,
                "vra.trees_repaired": routing.trees_repaired,
                "vra.trees_rerooted": routing.trees_rerooted,
                "vra.dirty_links": routing.dirty_links,
            }
        )
    memo = service.vra.decision_cache_stats
    if memo is not None:
        counters.update(
            {
                "vra.memo.hits": memo.hits,
                "vra.memo.misses": memo.misses,
                "vra.memo.invalidations": memo.invalidations,
                "vra.memo.dropped": memo.decisions_dropped,
            }
        )
    supervisor = service.supervisor
    if supervisor is not None:
        counters.update(
            {
                "resilience.preemptions": supervisor.preemption_count,
                "resilience.failovers": supervisor.failover_count,
                "resilience.failed_no_holder": supervisor.failed_count,
            }
        )
    if service.breakers is not None:
        counters["resilience.breaker_trips"] = sum(service.breakers.opened_by_kind.values())
    return counters


def traced_counters(tracer: LayerTracer) -> Dict[str, int]:
    """Deterministic call counts the wrappers took."""
    counters: Dict[str, int] = {}
    for layer, stat in tracer.stats.items():
        counters[f"trace.{layer}.calls"] = stat.calls
        counters[f"trace.{layer}.failed"] = stat.failed
    return counters


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile_us(durations: List[float], q: float) -> float:
    """Nearest-rank percentile of host seconds, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1e6


def per_layer_metrics(
    tracer: LayerTracer,
    counters: Dict[str, int],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run."""
    stats = tracer.stats
    wall = stats["sim"].total_s
    events = counters["sim.events"]
    sessions = counters["sessions.scheduled"]
    reserve = stats["flows.reserve"]
    flows_self = sum(stats[f"flows.{part}"].self_s for part in ("reserve", "release", "bottleneck"))
    decide = stats["service.decide"]
    decide_durations = tracer.durations("service.decide")
    tree_lookups = counters.get("vra.tree_hits", 0) + counters.get("vra.tree_misses", 0)
    memo_lookups = counters.get("vra.memo.hits", 0) + counters.get("vra.memo.misses", 0)
    placement = stats["placement"]
    return {
        "sim.events": events,
        "sim.self_s": stats["sim"].self_s,
        "sim.us_per_event": _ratio(stats["sim"].self_s, events) * 1e6,
        "sim.heap_compactions": counters["sim.heap_compactions"],
        "trace.wall_s": wall,
        "trace.overhead_ratio": overhead_ratio,
        "flows.reserve.calls": reserve.calls,
        "flows.reserve.s": reserve.total_s,
        "flows.reserve.failed": reserve.failed,
        "flows.floor_fallback_ratio": _ratio(reserve.failed, reserve.calls),
        "flows.reserve_per_session": _ratio(reserve.calls, sessions),
        "flows.release.calls": stats["flows.release"].calls,
        "flows.release.s": stats["flows.release"].total_s,
        "flows.bottleneck.calls": stats["flows.bottleneck"].calls,
        "flows.bottleneck.s": stats["flows.bottleneck"].total_s,
        "flows.share": _ratio(flows_self, wall),
        "service.decide.calls": decide.calls,
        "service.decide.failed": decide.failed,
        "service.decide.s": decide.total_s,
        "service.decide.self_s": decide.self_s,
        "service.decide.p50_us": _percentile_us(decide_durations, 50.0),
        "service.decide.p99_us": _percentile_us(decide_durations, 99.0),
        "service.decide.share": _ratio(decide.total_s, wall),
        "vra.decide.calls": stats["vra.decide"].calls,
        "vra.decide.s": stats["vra.decide"].total_s,
        "vra.decide.self_s": stats["vra.decide"].self_s,
        "vra.tree_hit_rate": _ratio(counters.get("vra.tree_hits", 0), tree_lookups),
        "vra.trees_rerooted": counters.get("vra.trees_rerooted", 0),
        "vra.invalidations": counters.get("vra.invalidations", 0),
        "vra.memo.lookups": memo_lookups,
        "vra.memo_hit_rate": _ratio(counters.get("vra.memo.hits", 0), memo_lookups),
        "placement.calls": placement.calls,
        "placement.s": placement.total_s,
        "placement.hit_ratio": _ratio(counters["placement.hits"], counters["placement.passes"]),
        "snmp.collect.calls": stats["snmp.collect"].calls,
        "snmp.collect.s": stats["snmp.collect"].total_s,
        "snmp.changed_samples": counters["snmp.changed_samples"],
        "faults.injected": counters["faults.injected"],
        "resilience.preemptions": counters.get("resilience.preemptions", 0),
        "resilience.failovers": counters.get("resilience.failovers", 0),
        "resilience.breaker_trips": counters.get("resilience.breaker_trips", 0),
        "resilience.supervisor.calls": stats["resilience.supervisor"].calls,
        "resilience.supervisor.share": _ratio(stats["resilience.supervisor"].self_s, wall),
        "obs.sample.calls": stats["obs.sample"].calls,
        "obs.sample.share": _ratio(stats["obs.sample"].self_s, wall),
        "obs.spans": counters["obs.spans"],
    }


def layer_shares(tracer: LayerTracer) -> Dict[str, float]:
    """Self time of each layer as a share of the traced run's wall."""
    wall = tracer.stats["sim"].total_s
    return {layer: _ratio(stat.self_s, wall) for layer, stat in tracer.stats.items()}
