"""The benchmark's definition: workloads, metrics, bounds and run length.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-definition``), so the file and the
metrics the runner prints cannot drift apart.  This module imports
nothing from the package under test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Host seconds one run spends measuring.
RUN_SECONDS = 40

def _wrapped_shares(m: Dict[str, float]) -> Dict[str, float]:
    """Share of traced wall per wrapped layer (decide counted inclusively)."""
    wall = m["trace.wall_s"]
    return {
        "flows": m["flows.share"],
        "service.decide": m["service.decide.share"],
        "placement": m["placement.s"] / wall,
        "snmp": m["snmp.collect.s"] / wall,
        "resilience": m["resilience.supervisor.share"],
        "obs": m["obs.sample.share"],
    }


def _largest(m: Dict[str, float]) -> str:
    shares = _wrapped_shares(m)
    return max(shares, key=shares.get)


#: name -> why (one line, copied into BENCHMARK.json), the layer shares of
#: traced host time predicted when the benchmark was defined, and checks
#: of those predictions over the per-layer metrics.  The checks are
#: reported, not enforced: a later change may legitimately move a layer.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "grnet-congested": {
        "why": (
            "GRNET at 400 requests/node, congested: flow accounting is the "
            "largest layer (~40% of traced wall, ~84% floor fallbacks); "
            "service.decide under 10%"
        ),
        "predicted": {
            "flows": "largest wrapped layer, about 40% of traced wall",
            "flows.floor_fallback_ratio": "about 0.84",
            "service.decide": "under 10% of traced wall",
            "placement": "1-2% of traced wall",
        },
        "checks": {
            "flows is the largest wrapped layer": lambda m: _largest(m) == "flows",
            "service.decide under 10% of traced wall": (
                lambda m: m["service.decide.share"] < 0.10
            ),
        },
    },
    "backbone-decide": {
        "why": (
            "60-node random backbone, cold VRA: service.decide is the "
            "largest layer (~54% of traced wall); flows uncongested (~18%, "
            "0 floor fallbacks); snmp ~7%"
        ),
        "predicted": {
            "service.decide": "largest wrapped layer, about 54% of traced wall",
            "flows": "about 18% of traced wall, 0 floor fallbacks",
            "snmp": "about 7% of traced wall",
            "placement": "1-2% of traced wall",
        },
        "checks": {
            "service.decide is the largest wrapped layer": (
                lambda m: _largest(m) == "service.decide"
            ),
            "no floor fallbacks": lambda m: m["flows.reserve.failed"] == 0,
        },
    },
    "chaos-storm": {
        "why": (
            "GRNET fault storm with failover, breakers, decision memo and "
            "telemetry: writes invalidate routing state mid-read; the only "
            "workload with faults, memo and obs"
        ),
        "predicted": {
            "faults / resilience": "non-zero injections, preemptions, failovers",
            "vra.memo": "non-zero lookups, hit rate about 2%",
            "obs.sample": "non-zero sampling rounds",
            "placement": "1-2% of traced wall",
        },
        "checks": {
            "faults, preemptions, memo lookups and sampling are non-zero": (
                lambda m: all(
                    m[name] > 0
                    for name in (
                        "faults.injected",
                        "resilience.preemptions",
                        "vra.memo.lookups",
                        "obs.sample.calls",
                    )
                )
            ),
        },
    },
}


def prediction_checks(workload: str, metrics: Dict[str, float]) -> Dict[str, bool]:
    """Each recorded prediction of ``workload`` against one traced run."""
    return {text: bool(check(metrics)) for text, check in WORKLOADS[workload]["checks"].items()}


#: (name, unit, better, bound); all from untraced runs, in host time at
#: nominal host speed (see hostspeed.py).
END_TO_END = [
    ("sessions_per_s", "1/s", "higher", 0.25),
    ("wall_s_per_sim_hour", "s/h", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better); from the traced run.
PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.heap_compactions", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("flows.reserve.calls", "count", "lower"),
    ("flows.reserve.s", "s", "lower"),
    ("flows.reserve.failed", "count", "lower"),
    ("flows.floor_fallback_ratio", "ratio", "lower"),
    ("flows.reserve_per_session", "count", "lower"),
    ("flows.release.calls", "count", "lower"),
    ("flows.release.s", "s", "lower"),
    ("flows.bottleneck.calls", "count", "lower"),
    ("flows.bottleneck.s", "s", "lower"),
    ("flows.share", "ratio", "lower"),
    ("service.decide.calls", "count", "lower"),
    ("service.decide.failed", "count", "lower"),
    ("service.decide.s", "s", "lower"),
    ("service.decide.self_s", "s", "lower"),
    ("service.decide.p50_us", "us", "lower"),
    ("service.decide.p99_us", "us", "lower"),
    ("service.decide.share", "ratio", "lower"),
    ("vra.decide.calls", "count", "lower"),
    ("vra.decide.s", "s", "lower"),
    ("vra.decide.self_s", "s", "lower"),
    ("vra.tree_hit_rate", "ratio", "higher"),
    ("vra.trees_rerooted", "count", "lower"),
    ("vra.invalidations", "count", "lower"),
    ("vra.memo.lookups", "count", "lower"),
    ("vra.memo_hit_rate", "ratio", "higher"),
    ("placement.calls", "count", "lower"),
    ("placement.s", "s", "lower"),
    ("placement.hit_ratio", "ratio", "higher"),
    ("snmp.collect.calls", "count", "lower"),
    ("snmp.collect.s", "s", "lower"),
    ("snmp.changed_samples", "count", "lower"),
    ("faults.injected", "count", "higher"),
    ("resilience.preemptions", "count", "lower"),
    ("resilience.failovers", "count", "lower"),
    ("resilience.breaker_trips", "count", "lower"),
    ("resilience.supervisor.calls", "count", "lower"),
    ("resilience.supervisor.share", "ratio", "lower"),
    ("obs.sample.calls", "count", "lower"),
    ("obs.sample.share", "ratio", "lower"),
    ("obs.spans", "count", "lower"),
]


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def write_benchmark_json(root: Path) -> Path:
    """Write ``BENCHMARK.json`` under ``root`` and return its path."""
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path


def units(names: List[tuple]) -> Dict[str, str]:
    """Metric name -> unit for one of the metric lists above."""
    return {entry[0]: entry[1] for entry in names}
