"""Integration tests: the service's unified telemetry layer end to end."""

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.errors import ServiceError
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.storage.video import VideoTitle


def run_service(topology, observability=True, tracer=None, period=30.0):
    sim = Simulator(start_time=8 * 3600.0)
    service = VoDService(
        sim,
        topology,
        ServiceConfig(
            cluster_mb=100.0,
            use_reported_stats=False,
            observability=observability,
            telemetry_period_s=period,
        ),
        tracer=tracer,
    )
    service.seed_title("U4", VideoTitle("m", size_mb=200.0, duration_s=1200.0))
    service.start()
    service.request_by_home("U2", "m")
    sim.run(until=sim.now + 3600.0)
    return service


class TestEnabled:
    def test_instrument_families_cover_every_subsystem(self, grnet_8am):
        service = run_service(grnet_8am)
        families = set(service.obs.families())
        assert {
            "link.utilization",
            "link.reserved_mbps",
            "server.cache_fraction",
            "server.stream_load",
            "dma.points_table_size",
            "routing.cache_hit_rate",
            "vra.decisions",
            "vra.decision_latency_ms",
            "service.requests_submitted",
            "session.clusters_delivered",
            "sim.events_fired",
            "snmp.rounds",
        } <= families

    def test_counters_and_histograms_reflect_the_run(self, grnet_8am):
        service = run_service(grnet_8am)
        obs = service.obs
        assert obs.counter("service.requests_submitted").value == 1.0
        assert obs.counter("service.sessions_completed").value == 1.0
        assert obs.counter("vra.decisions").value >= 2.0
        assert obs.counter("session.clusters_delivered").value == 2.0
        latency = obs.histogram("vra.decision_latency_ms")
        assert latency.count >= 2
        assert latency.max > 0.0
        assert obs.histogram("session.startup_s").count == 1

    def test_sampler_records_link_utilisation_timeline(self, grnet_8am):
        service = run_service(grnet_8am)
        pairs = service.telemetry.series_for("link.utilization")
        assert len(pairs) == service.topology.link_count
        assert all(len(series) > 1 for _, series in pairs)
        # The transfer reserved bandwidth somewhere: some link peaked > 0.
        assert any(series.maximum() > 0.0 for _, series in pairs)

    def test_span_follows_the_request_end_to_end(self, grnet_8am):
        tracer = Tracer()
        service = run_service(grnet_8am, tracer=tracer)
        assert len(service.spans) == 1
        span = service.spans[0]
        assert not span.open
        assert span.status == "completed"
        assert span.home_uid == "U2"
        assert span.decision_count == 2  # one per 100 MB cluster
        assert span.servers_used == ["U4"]
        decision = span.events_of("vra.decision")[0]
        assert decision.attrs["chosen_uid"] == "U4"
        assert decision.attrs["latency_ms"] > 0.0
        assert isinstance(decision.attrs["epoch"], list)
        # Span events also landed in the tracer sink.
        assert "span.vra.decision" in tracer.categories()
        assert "span.cluster.delivered" in tracer.categories()

    def test_per_server_labeled_counters(self, grnet_8am):
        service = run_service(grnet_8am)
        serves = {
            c.label_dict()["server"]: c.value
            for c in service.obs.find("server.serves")
        }
        assert serves["U4"] == 2.0  # sourced both clusters
        assert serves["U2"] == 0.0


class TestDisabled:
    def test_disabled_service_registers_nothing(self, grnet_8am):
        service = run_service(grnet_8am, observability=False)
        assert len(service.obs) == 0
        assert service.spans == []
        assert service.telemetry.series() == {}
        # The run itself is unaffected.
        assert service.sessions[0].completed

    def test_explicit_registry_overrides_config(self, grnet_8am):
        from repro.obs.registry import MetricsRegistry

        sim = Simulator(start_time=8 * 3600.0)
        registry = MetricsRegistry(enabled=True)
        service = VoDService(
            sim,
            grnet_8am,
            ServiceConfig(use_reported_stats=False),  # observability off
            registry=registry,
        )
        assert service.obs is registry
        assert len(registry) > 0


class TestRuntimeExpansion:
    def test_added_server_gets_instruments_and_gauges(self, grnet_8am):
        from repro.network.link import Link
        from repro.network.node import Node

        service = run_service(grnet_8am)
        node = Node("U7", name="Larissa")
        link = Link("U7", "U1", capacity_mbps=34.0, name="Larissa-Athens")
        service.add_server(node, [link])
        assert any(
            c.label_dict().get("server") == "U7"
            for c in service.obs.find("server.serves")
        )
        service.telemetry.sample()
        assert service.telemetry.get(
            "link.utilization", {"link": "Larissa-Athens"}
        ) is not None


class TestBlockedRequests:
    def test_blocked_request_counted_and_span_finished(self, grnet_8am):
        sim = Simulator(start_time=8 * 3600.0)
        service = VoDService(
            sim,
            grnet_8am,
            ServiceConfig(
                cluster_mb=100.0,
                use_reported_stats=False,
                observability=True,
                strict_qos_admission=True,
            ),
        )
        # A title whose bitrate no GRNET link can sustain.
        service.seed_title(
            "U4", VideoTitle("huge", size_mb=2000.0, duration_s=60.0)
        )
        service.start()
        request, _, _ = service.request_by_home("U2", "huge")
        assert request.finished
        assert request.status.value == "failed"
        assert service.obs.counter("service.requests_blocked").value == 1.0
        assert len(service.spans) == 1
        assert service.spans[0].status == "failed"


class TestPhaseProfilingWiring:
    def test_profiling_without_observability_is_refused(self, grnet_8am):
        # It used to build a service whose profiler silently recorded nothing.
        with pytest.raises(ServiceError, match="phase_profiling"):
            VoDService(Simulator(), grnet_8am, ServiceConfig(phase_profiling=True))

    def test_profiling_with_observability_records_phases(self, grnet_8am):
        service = VoDService(
            Simulator(),
            grnet_8am,
            ServiceConfig(observability=True, phase_profiling=True),
        )
        assert service.profiler.enabled
        service.seed_title("U4", VideoTitle("m", size_mb=200.0, duration_s=1200.0))
        service.decide("U2", "m")
        assert service.obs.histogram("obs.phase.vra_decide_ms").count == 1
