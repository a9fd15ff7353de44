"""The discrete-event simulation engine.

:class:`Simulator` maintains a binary heap of :class:`~repro.sim.events.Event`
records and a simulated clock.  Everything in the reproduction — SNMP
collector periods, video cluster transfer completions, client arrivals —
is driven by this one loop, which keeps runs fully deterministic for a given
seed and schedule.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event, Label, describe

#: Heaps smaller than this are never compacted: sweeping a few dozen
#: entries off the top lazily is cheaper than any rebuild.
COMPACTION_FLOOR = 64

#: Handle states.  Only pending handles count in ``pending_count``; a
#: cancelled handle stays in the heap as a carcass until swept.
_PENDING, _FIRED, _CANCELLED = 0, 1, 2

_INF = float("inf")


class EventHandle:
    """One scheduled event: the engine's record and the caller's handle.

    The heap holds ``(time, seq, handle)`` entries, so ordering is the
    C-level tuple comparison and the handle itself is never compared
    (``seq`` is unique).  The handle carries what firing needs; the
    immutable :class:`~repro.sim.events.Event` view is built only when
    :attr:`event` is read.  Cancelling is O(1): the handle is flagged
    and the engine discards it when it reaches the top of the heap.
    """

    __slots__ = ("_time", "_seq", "_callback", "_args", "_name", "_state", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        name: Label,
        sim: "Simulator",
    ):
        self._time = time
        self._seq = seq
        self._callback = callback
        self._args = args
        self._name = name
        self._state = _PENDING
        self._sim = sim

    @property
    def event(self) -> Event:
        """The immutable record of what this handle schedules."""
        return Event(self._time, self._seq, self._callback, self._args, self._name)

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        """True once the event's callback has run."""
        return self._state == _FIRED

    @property
    def pending(self) -> bool:
        """True while the event is still waiting in the heap."""
        return self._state == _PENDING

    def cancel(self) -> bool:
        """Prevent the event from firing.

        Returns:
            True if the event was pending and is now cancelled; False if it
            had already fired or was already cancelled.
        """
        if self._state != _PENDING:
            return False
        self._state = _CANCELLED
        self._sim._note_cancel()
        return True


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, my_callback, arg1)
        sim.run(until=100.0)

    Time units are seconds by convention throughout the library (the GRNET
    case study expresses times of day as seconds since midnight).
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_fired = 0
        self._pending = 0
        self._compactions = 0
        #: Optional callback invoked after each cancelled-carcass heap
        #: compaction; the service wires this to the
        #: ``engine.heap_compactions`` telemetry counter.
        self.on_compaction: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (diagnostic)."""
        return self._events_fired

    @property
    def pending_count(self) -> int:
        """Number of pending (scheduled, not cancelled, not fired) events.

        Maintained as a live counter updated on schedule/cancel/fire, so
        reading it is O(1) rather than a scan of the heap.
        """
        return self._pending

    @property
    def heap_depth(self) -> int:
        """Raw heap length, cancelled carcasses included.

        Telemetry gauge: ``heap_depth - pending_count`` is the number of
        cancelled events still waiting to be swept off the heap, which is
        the engine's memory overhead from cancellation-heavy workloads.
        """
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """Cancelled-carcass heap compactions performed (diagnostic).

        The engine rebuilds the heap whenever carcasses outnumber pending
        events (above :data:`COMPACTION_FLOOR`), so cancellation-heavy
        retry/requeue workloads hold O(pending) memory instead of growing
        the heap until the carcasses happen to reach the top.
        """
        return self._compactions

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: Label = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` from now.

        Args:
            delay: Non-negative offset from the current simulated time.
            callback: Callable invoked when the event fires.
            *args: Positional arguments stored with the event.
            name: Optional label used in error messages and traces: text,
                or a zero-argument callable producing it when asked.

        Raises:
            SchedulingError: If ``delay`` is negative or not finite.
        """
        if not (0.0 <= delay < _INF):  # also rejects NaN
            self._check_delay(delay)
        time = self._now + float(delay)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, name, self)
        heapq.heappush(self._heap, (time, seq, handle))
        self._pending += 1
        return handle

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        name: Label = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time.

        Raises:
            SchedulingError: If ``time`` is before the current time.
        """
        time = self._check_time(time, callback, name)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, name, self)
        heapq.heappush(self._heap, (time, seq, handle))
        self._pending += 1
        return handle

    def schedule_many(
        self,
        entries: Iterable[Sequence[Any]],
        *,
        absolute: bool = False,
    ) -> List[EventHandle]:
        """Bulk-schedule a batch of events in one heap operation.

        Each entry is ``(delay, callback)``, ``(delay, callback, args)`` or
        ``(delay, callback, args, name)`` — the same semantics as one
        :meth:`schedule` call per entry (``absolute=True`` reads the first
        element as an absolute time, i.e. :meth:`schedule_at`), and the
        resulting firing order is identical: events pop by ``(time, seq)``
        no matter how they entered the heap.  For batches that rival the
        heap's size, one ``heapify`` over the extended list is O(n + k)
        instead of k pushes at O(k log n).

        Returns:
            Handles in entry order.

        Raises:
            SchedulingError: On the first invalid entry; the heap is left
                untouched (no partial batch is scheduled).
        """
        new: List[Tuple[float, int, EventHandle]] = []
        now = self._now
        seq = self._seq
        # Every record a batch allocates stays live until it fires, so the
        # cyclic collector can free nothing mid-batch.  Pausing it spares
        # the collections (full ones scan the whole process heap) that tens
        # of thousands of new records would otherwise set off.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for entry in entries:
                size = len(entry)
                time_value, callback = entry[0], entry[1]
                args = tuple(entry[2]) if size > 2 else ()
                name = entry[3] if size > 3 else ""
                if absolute:
                    time = self._check_time(time_value, callback, name)
                elif 0.0 <= time_value < _INF:
                    time = now + float(time_value)
                else:
                    time = now + self._check_delay(time_value)  # raises
                new.append((time, seq, EventHandle(time, seq, callback, args, name, self)))
                seq += 1
        finally:
            if collecting:
                gc.enable()
        self._seq = seq
        handles = [entry[2] for entry in new]
        if not new:
            return handles
        heap = self._heap
        if len(new) >= max(len(heap) // 4, 8):
            heap.extend(new)
            heapq.heapify(heap)
        else:
            for item in new:
                heapq.heappush(heap, item)
        self._pending += len(new)
        return handles

    def _note_cancel(self) -> None:
        self._pending -= 1
        # Compact when carcasses outnumber live events: lazy top-sweeping
        # alone lets a cancellation-heavy workload (retry storms, requeue
        # churn) grow the heap with bodies that never reach the top.
        heap = self._heap
        if len(heap) >= COMPACTION_FLOOR and len(heap) - self._pending > self._pending:
            self._compact()

    def _compact(self) -> None:
        heap = self._heap
        live = [entry for entry in heap if entry[2]._state == _PENDING]
        # In-place so a running event loop holding a reference to the heap
        # list keeps seeing the compacted state.
        heap[:] = live
        heapq.heapify(heap)
        self._compactions += 1
        if self.on_compaction is not None:
            self.on_compaction()

    def _check_time(self, time: float, callback: Callable[..., Any], name: Label) -> float:
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event {describe(name, callback)!r} at t={time}, "
                f"which is before current time t={self._now}"
            )
        return float(time)

    @staticmethod
    def _check_delay(delay: float) -> float:
        if not (delay >= 0.0):  # also rejects NaN
            raise SchedulingError(f"delay must be non-negative and finite, got {delay!r}")
        if delay == _INF:
            raise SchedulingError("delay must be finite")
        return float(delay)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the heap is empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> Optional[Event]:
        """Fire the single next pending event.

        Returns:
            The event that fired, or None if no pending events remain.
        """
        self._drop_cancelled()
        if not self._heap:
            return None
        time, _, handle = heapq.heappop(self._heap)
        self._now = time
        handle._state = _FIRED
        self._pending -= 1
        self._events_fired += 1
        handle._callback(*handle._args)
        return handle.event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: Stop once simulated time would pass this instant; events
                scheduled exactly at ``until`` still fire.  None runs until
                the heap drains.
            max_events: Optional safety valve on the number of events fired.

        Returns:
            The simulated time when the loop stopped.  If ``until`` was given
            and the heap drained early, the clock is advanced to ``until`` so
            back-to-back ``run`` calls compose naturally.

        Raises:
            SimulationError: If the simulator is already running (re-entrant
                ``run`` from inside a callback).
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant; use schedule from callbacks")
        if until is not None and until < self._now:
            raise SchedulingError(f"run until={until} is before current time t={self._now}")
        self._running = True
        self._stopped = False
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            # One heap read and one pop per event; the firing bookkeeping
            # is :meth:`step`'s, inlined because this is the hottest loop
            # of every run.
            while not self._stopped:
                if not heap:
                    break
                time, _, handle = heap[0]
                if handle._state:  # a cancelled carcass (fired ones are popped)
                    pop(heap)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                pop(heap)
                self._now = time
                handle._state = _FIRED
                self._pending -= 1
                self._events_fired += 1
                handle._callback(*handle._args)
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to exit after this event."""
        self._stopped = True

    def _drop_cancelled(self) -> None:
        """Sweep cancelled carcasses off the heap top (:meth:`peek`,
        :meth:`step`; the :meth:`run` loop skips them as it pops)."""
        heap = self._heap
        while heap and heap[0][2]._state:
            heapq.heappop(heap)
