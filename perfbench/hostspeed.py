"""A fixed reference job that measures how fast the shared host is right now.

The benchmark runs on shared hosts whose speed moves on a scale of
seconds to tens of minutes: on the 2-vCPU host it was defined on, the
same repetition of a workload took from 3.7 s to 10 s depending on the
moment, and the quartile spread of ten runs' raw rates reached 0.26-0.29
of the median.

So every run also times this job before each set-up pass and around
each repetition, and reports its end-to-end times at the host speed at
which the job takes :data:`NOMINAL_S`.  With ``scale = NOMINAL_S /
median(job)``:

- set-up seconds are multiplied by ``scale``.  A set-up pass lasts only
  10-30 ms, like the job, and moves with the host as much as the job
  does; scaling cut the spread of ``setup_s`` over ten runs from
  0.26-0.36 of the median to 0.03-0.14.
- run seconds (the rates) are multiplied by ``scale ** 0.5 * (NOMINAL_S
  / min(job)) ** 0.25``.  The long runs move with the host less than the
  job does: a log-log fit of 50 repetition times on the job around them
  gave a slope of 0.55, and scaling them by ``scale`` itself left them
  noisier than raw.  The job's fastest time adds what its median
  misses: in some stretches the host is slow without a break (the
  fastest job near the median, 30-35 ms instead of 16-18 ms) and the
  runs slow down more than the median says.  Over six sets of ten runs
  per workload, taken over about five hours (the last set after the
  exponents were chosen), the quartile spread of the rates within a set
  was at most 0.26 of the median raw, 0.16 with ``scale ** 0.5`` alone
  and 0.13 with both factors (mean 0.16, 0.11, 0.10), and the highest
  set median of a workload exceeded its lowest by 36-64% raw, 11-31%
  with ``scale ** 0.5`` and 9-13% with both.  Neighbouring exponents
  (0.25-0.5 for either) did about as well; the job's quartiles in place
  of median or minimum did worse.

Also tried and dropped: a job with a working set of megabytes (tracked
the runs no better), timing a tenth of the job every 0.1 s inside the
runs (no steadier on two workloads of three), and the fastest time of
each 250-event piece over a run's repetitions (biased by how many
repetitions fit in a run).

The job is plain Python shaped like set-up and the simulator's inner
loop (a heap of timed generator steps updating slotted objects and a
dict), imports nothing from the package under test and runs with the
garbage collector paused, so no change to the package moves it.  Raw
host seconds and the job's samples stay in each report.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import Iterator, List

#: Duration of one :func:`reference_s` job at nominal host speed: its
#: typical duration on the host the benchmark was defined on.
NOMINAL_S = 0.030

#: Powers of ``NOMINAL_S / median(job)`` and ``NOMINAL_S / min(job)``
#: whose product scales run seconds (see above).
RUN_EXPONENTS = (0.5, 0.25)


class _Link:
    __slots__ = ("used", "capacity")

    def __init__(self) -> None:
        self.used = 0.0
        self.capacity = 10.0


def _transfer(links: List[_Link], steps: int) -> Iterator[float]:
    for step in range(steps):
        link = links[step % len(links)]
        rate = min(link.capacity - link.used, 1.5)
        if rate > 0.05:
            link.used += rate
        yield 0.5 + (step % 7) * 0.25
        link.used = max(0.0, link.used - rate)


def reference_s() -> float:
    """Host seconds one fixed, deterministic reference job takes now.

    The collector is paused so that the heap the package left behind
    cannot set off a collection inside the job.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _job()
    finally:
        if was_enabled:
            gc.enable()


def _job() -> float:
    start = perf_counter()
    links = [_Link() for _ in range(20)]
    heap = []
    last_seen = {}
    for serial in range(60):
        heapq.heappush(heap, (0.0, serial, _transfer(links, 300)))
    serial = 60
    while heap:
        now, _, process = heapq.heappop(heap)
        try:
            delay = next(process)
        except StopIteration:
            continue
        last_seen[serial & 255] = now
        serial += 1
        heapq.heappush(heap, (now + delay, serial, process))
    return perf_counter() - start

