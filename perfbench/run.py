"""Run one benchmark workload in this process and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grnet-congested --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --write-definition      # regenerate BENCHMARK.json

A run repeats the full simulated workload, each time after three
set-up-only passes, until ``--seconds`` of host time are used (at least
once), with no threads and no worker processes.  A fixed reference job
(``hostspeed.py``) runs between them, and every end-to-end time is
reported at nominal host speed; the raw figures are in the report.
``--trace 0`` reports the end-to-end metrics of untraced repetitions;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the first traced one, plus the tracing overhead.

Every repetition is checked: each scheduled request has exactly one
session record, each completed session's clusters add up to its title,
and every repetition of the run yields the same session fingerprint and
the same deterministic counters.  The report (manifest, model block,
counters, fingerprint, layer shares) is printed and written under
``perfbench/out/``; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# The package under test is the one in this checkout, never an installed one.
sys.path.insert(0, str(ROOT / "src"))

import definition  # noqa: E402
import layers  # noqa: E402
from repro.experiments.placement import session_fingerprint  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from hostspeed import NOMINAL_S, RUN_EXPONENTS, reference_s  # noqa: E402
from tracing import LayerTracer, SetupDone, SimClock, patched  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Set-up-only passes before each repetition (each also times its own).
SETUP_PASSES = 3

#: Largest |sum of self times - traced wall| accepted, as a share of wall.
SELF_TIME_TOLERANCE = 1e-6

_SIMULATOR_RUN = vars(Simulator)["run"]


@dataclass
class Rep:
    """One full simulated repetition of the workload."""

    traced: bool
    setup_s: float
    run_s: float
    sim_hours: float
    scheduled: int
    failed: int
    problems: List[str]
    fingerprint: str
    counters: Dict[str, int]
    model: Dict[str, float]
    service_config: Dict[str, object]
    tracer: Optional[LayerTracer] = None


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=definition.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-definition",
        action="store_true",
        help="write BENCHMARK.json at the repository root and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_definition and args.workload is None:
        parser.error("--workload is required")
    return args


def git_rev(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` files (no subprocess)."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def package_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def check_outputs(service, scenario) -> Tuple[Set[str], List[str]]:
    """Failed request ids and run-level problems of one finished run."""
    scheduled = Counter(event.client_id for event in scenario.events)
    records = Counter(record.request.client_id for record in service.sessions)
    failed = {cid for cid in scheduled if records.get(cid, 0) != 1}
    problems = []
    unexpected = sum(1 for cid in records if cid not in scheduled)
    if unexpected:
        problems.append(f"{unexpected} session record(s) for unscheduled requests")
    title_mb = {title.title_id: title.size_mb for title in scenario.catalog}
    for record in service.sessions:
        if not record.completed:
            continue
        expected = title_mb[record.request.title_id]
        delivered = sum(cluster.size_mb for cluster in record.clusters)
        if abs(delivered - expected) > 1e-6 * expected:
            failed.add(record.request.client_id)
    if failed:
        problems.append(f"{len(failed)} request(s) lost, duplicated or short-delivered")
    return failed, problems


def model_block(metrics) -> Dict[str, float]:
    """The simulated outcome (simulated time and units, never host time)."""
    return {
        "sessions": metrics.session_count,
        "completed": metrics.completed_count,
        "failed": metrics.failed_count,
        "unfinished": metrics.session_count - metrics.completed_count - metrics.failed_count,
        "p95_startup_s": metrics.p95_startup_s,
        "mean_stall_s": metrics.mean_stall_s,
        "local_serve_fraction": metrics.local_serve_fraction,
        "megabyte_hops": metrics.megabyte_hops,
    }


def _patches(clock: SimClock, tracer: Optional[LayerTracer]) -> list:
    replacements = [(Simulator, "run", clock.wrap(_SIMULATOR_RUN))]
    if tracer is not None:
        replacements += tracer.replacements(layers.HOOKS)
    return replacements


def setup_pass(workload: Workload, seed: int) -> float:
    """Host seconds from the start of the build to the simulator's start."""
    # Start from a collected heap, as a fresh process would: otherwise the
    # garbage of earlier passes sets off full collections inside this one.
    gc.collect()
    clock = SimClock(setup_only=True)
    began = perf_counter()
    with patched(_patches(clock, None)):
        try:
            workload.run(seed)
        except SetupDone:
            pass
    if clock.entered_at is None:
        raise RuntimeError(f"{workload.name}: Simulator.run was never entered")
    return clock.entered_at - began


def repetition(workload: Workload, seed: int, traced: bool) -> Rep:
    """One full run of the workload, checked and counted."""
    gc.collect()  # same starting heap for every repetition
    tracer = LayerTracer() if traced else None
    clock = SimClock(tracer)
    began = perf_counter()
    with patched(_patches(clock, tracer)):
        out = workload.run(seed)
    scenario = workload.schedule(seed)
    failed, problems = check_outputs(out.service, scenario)
    if clock.calls != 1:
        problems.append(f"Simulator.run entered {clock.calls} times, expected once")
    counters = layers.state_counters(out, len(scenario.events))
    if tracer is not None:
        if tracer.missing:
            problems.append("functions to trace are missing: " + ", ".join(tracer.missing))
        counters.update(layers.traced_counters(tracer))
        wall = tracer.stats["sim"].total_s
        attributed = sum(stat.self_s for stat in tracer.stats.values())
        if abs(attributed - wall) > SELF_TIME_TOLERANCE * wall:
            problems.append(f"self times add to {attributed:.6f} s, traced wall is {wall:.6f} s")
        misnested = tracer.nesting_errors()
        if misnested:
            problems.append(f"{misnested} span(s) lie outside their parent span")
    return Rep(
        traced=traced,
        setup_s=clock.entered_at - began,
        run_s=clock.run_s,
        sim_hours=clock.sim_s / 3600.0,
        scheduled=len(scenario.events),
        failed=len(failed),
        problems=problems,
        fingerprint=session_fingerprint(out.service.sessions),
        counters=counters,
        model=model_block(out.metrics),
        service_config=asdict(out.service.config),
        tracer=tracer,
    )


def consistency_problems(reps: List[Rep]) -> List[str]:
    """Repetitions of one run must agree on every deterministic output."""
    problems = []
    if len({rep.fingerprint for rep in reps}) > 1:
        problems.append("session fingerprints differ between repetitions")
    state_keys = [k for k in reps[0].counters if not k.startswith("trace.")]
    if len({tuple(rep.counters[k] for k in state_keys) for rep in reps}) > 1:
        problems.append("counter sections differ between repetitions")
    traced = [rep.counters for rep in reps if rep.traced]
    if len({tuple(sorted(c.items())) for c in traced}) > 1:
        problems.append("traced call counts differ between repetitions")
    return problems


@dataclass
class Measurement:
    """Everything one run measured."""

    setups: List[float]
    reps: List[Rep]
    reference: List[float]
    crashed: bool

    @property
    def speed_scale(self) -> float:
        """Factor taking this run's set-up seconds to nominal host speed."""
        return NOMINAL_S / statistics.median(self.reference)

    @property
    def run_speed_scale(self) -> float:
        """Factor taking this run's run seconds to nominal host speed."""
        by_median, by_fastest = RUN_EXPONENTS
        return self.speed_scale**by_median * (NOMINAL_S / min(self.reference)) ** by_fastest


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Repetitions, each after a few set-up passes, until the budget is used.

    Spreading the set-up passes over the whole run samples the shared
    host's speed at many moments rather than one; the reference job runs
    before every set-up pass and around every repetition.
    """
    deadline = perf_counter() + seconds
    m = Measurement(setups=[], reps=[], reference=[], crashed=False)
    longest = 0.0
    while True:
        began = perf_counter()
        for _ in range(SETUP_PASSES):
            m.reference.append(reference_s())
            m.setups.append(setup_pass(workload, seed))
        traced = trace and len(m.reps) % 2 == 1
        m.reference.append(reference_s())
        try:
            rep = repetition(workload, seed, traced)
        except Exception:  # the simulator raised: report it, do not hide it
            traceback.print_exc(file=sys.stderr)
            m.crashed = True
            return m
        m.reference.append(reference_s())
        if traced and any(r.traced for r in m.reps):
            rep.tracer = None  # per-layer numbers come from the first traced run
        m.reps.append(rep)
        longest = max(longest, perf_counter() - began)
        if trace and not any(r.traced for r in m.reps):
            continue
        if perf_counter() + longest > deadline:
            return m


def end_to_end(m: Measurement, nominal: bool) -> Dict[str, float]:
    """Untraced rates (total work over total time) and the set-up median.

    In raw host seconds, or with ``nominal`` at nominal host speed:
    set-up seconds multiplied by :attr:`Measurement.speed_scale`, run
    seconds by :attr:`Measurement.run_speed_scale` (see hostspeed.py).
    """
    setup_scale = m.speed_scale if nominal else 1.0
    run_scale = m.run_speed_scale if nominal else 1.0
    plain = [rep for rep in m.reps if not rep.traced]
    run_s = sum(r.run_s for r in plain) * run_scale
    return {
        "sessions_per_s": sum(r.scheduled for r in plain) / run_s,
        "wall_s_per_sim_hour": run_s / sum(r.sim_hours for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(m.setups + [r.setup_s for r in m.reps]) * setup_scale,
    }


def per_layer(args: argparse.Namespace, reps: List[Rep], report: Dict[str, object]):
    """Per-layer metrics of the first traced repetition; spans go to a file."""
    traced = next(rep for rep in reps if rep.traced)
    tracer = traced.tracer
    overhead = statistics.median(r.run_s for r in reps if r.traced) / statistics.median(
        r.run_s for r in reps if not r.traced
    )
    metrics = layers.per_layer_metrics(tracer, traced.counters, overhead)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    report["counters"] = traced.counters
    report["layer_shares"] = layers.layer_shares(tracer)
    report["prediction_checks"] = definition.prediction_checks(args.workload, metrics)
    report["spans"] = {"file": str(spans.relative_to(ROOT)), "count": tracer.write_spans(spans)}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.write_definition:
        print(definition.write_benchmark_json(ROOT))
        return 0
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    m = measure(workload, args.seed, args.seconds, bool(args.trace))
    reps = m.reps
    problems = sorted({p for rep in reps for p in rep.problems})
    attempted = sum(rep.scheduled for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if m.crashed:
        # Every request of the repetition that raised is counted as failed.
        lost = len(workload.schedule(args.seed).events)
        attempted += lost
        failed += lost
        problems.append("the simulator raised; see stderr")
    if reps:
        problems += consistency_problems(reps)

    report: Dict[str, object] = {
        "manifest": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_rev": git_rev(ROOT),
            "python": platform.python_version(),
            "numpy": package_version("numpy"),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "workload_config": workload.config,
            "service_config": reps[0].service_config if reps else None,
            "predicted": definition.WORKLOADS[args.workload]["predicted"],
        },
        "repetitions": [
            {"traced": r.traced, "setup_s": r.setup_s, "run_s": r.run_s, "sim_hours": r.sim_hours}
            for r in reps
        ],
        "setup_passes_s": m.setups,
        "host_speed": {
            "reference_s": m.reference,
            "nominal_s": NOMINAL_S,
            "scale": m.speed_scale,
            "run_scale": m.run_speed_scale,
        },
        "problems": problems,
    }
    if reps:
        report["fingerprint"] = reps[0].fingerprint
        report["model"] = {f"model.{k}": v for k, v in reps[0].model.items()}
        report["counters"] = reps[0].counters
    metrics: Dict[str, float] = {}
    if any(not rep.traced for rep in reps) and not m.crashed:
        report["end_to_end_raw_host_time"] = end_to_end(m, nominal=False)
        report["end_to_end"] = end_to_end(m, nominal=True)
        metrics = per_layer(args, reps, report) if args.trace else report["end_to_end"]
    report["metrics"] = metrics

    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))

    units = definition.units(definition.PER_LAYER if args.trace else definition.END_TO_END)
    result = {
        "correct": bool(metrics) and not problems and set(metrics) == set(units),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
