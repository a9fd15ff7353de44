"""The benchmark's workloads, built only through the package's public API.

Each workload turns a seed into one complete simulated run and hands back
the live service plus the request schedule it was given, so the caller
can check the outputs.  Host timing happens outside, in ``run.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List

from repro.core.service import ServiceConfig, VoDService
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.experiments.resilience import run_resilience_experiment
from repro.metrics.collectors import SessionMetrics, summarize_sessions
from repro.network.grnet import GRNET_NODES, build_grnet_topology
from repro.network.topologies import random_topology
from repro.storage.video import VideoTitle
from repro.workload.scenarios import WorkloadScenario, regional_scenario

HOUR_S = 3600.0


@dataclass
class RunOutput:
    """What one finished simulated run leaves behind.

    Attributes:
        service: The live service after ``Simulator.run`` returned.
        metrics: The package's own session aggregate of the run.
        faults_injected: Fault injections applied (fault workloads only).
    """

    service: VoDService
    metrics: SessionMetrics
    faults_injected: int = 0


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: The name passed as ``--workload``.
        config: The workload's exact parameters, for the run manifest.
        schedule: The request schedule a seed gives (the run builds the
            same one; the output checks compare against it).
        run: Builds and runs the workload for a seed.
    """

    name: str
    config: Dict[str, Any]
    schedule: Callable[[int], WorkloadScenario]
    run: Callable[[int], RunOutput]


def _catalog(count: int, size_mb: float, minutes: float) -> List[VideoTitle]:
    return [
        VideoTitle(f"title-{i:03d}", size_mb=size_mb, duration_s=minutes * 60.0)
        for i in range(1, count + 1)
    ]


GRNET_CONGESTED = {
    "topology": "grnet",
    "requests_per_node": 400,
    "zipf_exponent": 1.0,
    "titles": 18,
    "title_mb": 150.0,
    "title_minutes": 60.0,
    "service": {
        "cluster_mb": 50.0,
        "disk_count": 3,
        "disk_capacity_mb": 250.0,
        "max_streams": 64,
        "use_reported_stats": False,
    },
}


def schedule_grnet_congested(seed: int) -> WorkloadScenario:
    cfg = GRNET_CONGESTED
    return regional_scenario(
        list(GRNET_NODES),
        requests_per_node=cfg["requests_per_node"],
        zipf_exponent=cfg["zipf_exponent"],
        seed=seed,
        catalog=_catalog(cfg["titles"], cfg["title_mb"], cfg["title_minutes"]),
    )


def run_grnet_congested(seed: int) -> RunOutput:
    """The ``simulate`` CLI configuration at 400 requests per node."""
    result = run_service_experiment(
        ServiceExperiment(
            name="grnet-congested",
            scenario=schedule_grnet_congested(seed),
            config=ServiceConfig(**GRNET_CONGESTED["service"]),
            topology_factory=build_grnet_topology,
            seed=seed,
        )
    )
    return RunOutput(result.service, result.metrics)


BACKBONE_DECIDE = {
    "topology": "random_topology(60, extra_links=60, capacity_mbps=10.0, rng=Random(0))",
    "requests_per_node": 20,
    "horizon_s": 4 * HOUR_S,
    "titles": 40,
    "title_mb": 150.0,
    "title_minutes": 60.0,
    "service": {
        "cluster_mb": 10.0,
        "use_reported_stats": False,
        "decision_cache_size": 0,
    },
}


#: The backbone is fixed (``random_topology``'s default rng); the seed
#: only draws the requests.
_backbone = partial(random_topology, 60, extra_links=60)


def schedule_backbone_decide(seed: int) -> WorkloadScenario:
    cfg = BACKBONE_DECIDE
    return regional_scenario(
        _backbone().node_uids(),
        requests_per_node=cfg["requests_per_node"],
        horizon_s=cfg["horizon_s"],
        seed=seed,
        catalog=_catalog(cfg["titles"], cfg["title_mb"], cfg["title_minutes"]),
    )


def run_backbone_decide(seed: int) -> RunOutput:
    """A 60-node backbone large enough for the compiled routing core."""
    result = run_service_experiment(
        ServiceExperiment(
            name="backbone-decide",
            scenario=schedule_backbone_decide(seed),
            config=ServiceConfig(**BACKBONE_DECIDE["service"]),
            topology_factory=_backbone,
            seed=seed,
        )
    )
    return RunOutput(result.service, result.metrics)


#: The storm is pinned to one seed.  Its catalog, requests and faults all
#: come from run_resilience_experiment's single seed, and across seeds 1-5
#: they moved host time per request by 46% (events per request from 325
#: to 516), wider than any regression bound could absorb; so
#: ``--seed`` does not reach this workload and every run replays seed 42.
CHAOS_STORM = {
    "seed": 42,
    "topology": "grnet",
    "requests_per_node": 60,
    "duration_s": 6 * HOUR_S,
    "fault_rates": "run_resilience_experiment defaults",
    "service": {
        "retry_attempts": 5,
        "retry_backoff_s": 20.0,
        "session_failover": True,
        "failover_backoff_s": 15.0,
        "breaker_threshold": 2,
        "max_stats_age_s": 300.0,
        "decision_cache_size": 256,
        "observability": True,
    },
}


def schedule_chaos_storm(seed: int) -> WorkloadScenario:
    # run_resilience_experiment draws this same schedule internally.
    return regional_scenario(
        list(build_grnet_topology().node_uids()),
        requests_per_node=CHAOS_STORM["requests_per_node"],
        horizon_s=CHAOS_STORM["duration_s"],
        seed=CHAOS_STORM["seed"],
    )


def run_chaos_storm(seed: int) -> RunOutput:
    """A seeded fault storm with every resilience layer switched on."""
    cfg = CHAOS_STORM
    run = run_resilience_experiment(
        seed=cfg["seed"],
        duration_s=cfg["duration_s"],
        requests_per_node=cfg["requests_per_node"],
        config=ServiceConfig(**cfg["service"]),
        name="chaos-storm",
    )
    return RunOutput(
        run.service,
        summarize_sessions(run.service.sessions),
        faults_injected=sum(run.injector.injected_by_kind.values()),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "grnet-congested",
            GRNET_CONGESTED,
            schedule_grnet_congested,
            run_grnet_congested,
        ),
        Workload(
            "backbone-decide",
            BACKBONE_DECIDE,
            schedule_backbone_decide,
            run_backbone_decide,
        ),
        Workload("chaos-storm", CHAOS_STORM, schedule_chaos_storm, run_chaos_storm),
    )
}
