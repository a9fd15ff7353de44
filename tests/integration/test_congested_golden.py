"""Golden run: a small congested GRNET workload, pinned bit for bit.

The per-quantum transfer path (engine events, link headroom, the floor
fallback when a reservation does not fit) is optimised for host time
only; every simulated outcome must stay exactly what it was.  This run
is small enough for the unit suite yet congested enough that some
transfer quanta fall back to the floor rate, so it pins that path too.
The expected values were recorded before the engine's event record, the
stored link headroom and the lazily formatted shortfall were introduced.
"""

from repro.core.service import ServiceConfig
from repro.errors import LinkCapacityError
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.experiments.placement import session_fingerprint
from repro.network.grnet import GRNET_NODES, build_grnet_topology
from repro.storage.video import VideoTitle
from repro.workload.scenarios import regional_scenario

FINGERPRINT = "d520560d60933584a34f70d6fcee995d169edae0a9f5b968bac703d6f2cff391"
EVENTS_FIRED = 9016
RESERVE_CALLS = 7841
FLOOR_FALLBACKS = 363


def test_congested_grnet_run_is_unchanged():
    catalog = [
        VideoTitle(f"title-{i:03d}", size_mb=150.0, duration_s=3600.0) for i in range(1, 19)
    ]
    scenario = regional_scenario(
        list(GRNET_NODES), requests_per_node=40, zipf_exponent=1.0, seed=1, catalog=catalog
    )
    calls = {"reserve": 0, "fallback": 0}

    def count_reserves(service):
        reserve = service.flows.reserve

        def counted(node_path, rate_mbps):
            calls["reserve"] += 1
            try:
                return reserve(node_path, rate_mbps)
            except LinkCapacityError:
                calls["fallback"] += 1
                raise

        service.flows.reserve = counted

    result = run_service_experiment(
        ServiceExperiment(
            name="congested-golden",
            scenario=scenario,
            config=ServiceConfig(
                cluster_mb=50.0,
                disk_count=3,
                disk_capacity_mb=250.0,
                max_streams=64,
                use_reported_stats=False,
            ),
            topology_factory=build_grnet_topology,
            seed=1,
            service_hook=count_reserves,
        )
    )
    service = result.service
    assert calls == {"reserve": RESERVE_CALLS, "fallback": FLOOR_FALLBACKS}
    assert service.sim.events_fired == EVENTS_FIRED
    assert session_fingerprint(service.sessions) == FINGERPRINT
    assert result.metrics.completed_count == len(service.sessions) == 223
