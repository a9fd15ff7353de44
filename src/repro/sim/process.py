"""Generator-based cooperative processes on top of the event engine.

A :class:`Process` wraps a generator that yields either

* :class:`Delay` (or a bare non-negative number) — suspend for that long, or
* :class:`WaitSignal` — suspend until a :class:`Signal` is triggered.

This is the idiom used by long-lived actors in the simulation, e.g. a
streaming session that alternates "download cluster" / "re-run VRA" steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import EventHandle, Simulator


class Delay:
    """Yield value: suspend the process for ``duration`` simulated seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        self.duration = duration

    def __repr__(self) -> str:
        return f"Delay(duration={self.duration!r})"


class Signal:
    """A one-to-many wake-up condition.

    Processes yield :class:`WaitSignal` on a signal; :meth:`trigger` resumes
    every waiter at the current simulated time, passing ``payload`` back as
    the value of the ``yield`` expression.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._waiters: List[Process] = []
        self._trigger_count = 0

    @property
    def trigger_count(self) -> int:
        """Number of times this signal has been triggered."""
        return self._trigger_count

    @property
    def waiter_count(self) -> int:
        """Number of processes currently blocked on this signal."""
        return len(self._waiters)

    def trigger(self, sim: Simulator, payload: Any = None) -> int:
        """Wake all waiting processes via zero-delay events.

        Returns:
            The number of processes that were woken.
        """
        self._trigger_count += 1
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            sim.schedule(0.0, process._resume, payload, name=self._label)
        return len(waiters)

    def _label(self) -> str:
        return f"signal:{self.name}"

    def _register(self, process: "Process") -> None:
        self._waiters.append(process)


@dataclass(frozen=True)
class WaitSignal:
    """Yield value: suspend the process until ``signal`` is triggered."""

    signal: Signal


class Process:
    """Drives a generator as a cooperative simulated process.

    The generator's ``return`` value is captured in :attr:`result`; an
    uncaught exception is captured in :attr:`error` and re-raised from
    :meth:`check`.  ``on_error`` (optional) is called with the process
    once, when it captures one, so an owner can tell a crash from a
    process that simply has not finished.

    Wake-up events carry lazy labels (``delay:<name>``, ``start:<name>``,
    ``poke:<name>``), formatted only if a trace or error asks for them.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, Any, Any],
        name: str = "",
        on_error: Optional[Callable[["Process"], None]] = None,
    ):
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process requires a generator, got {type(generator).__name__}")
        self._sim = sim
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._on_error = on_error
        self._finished = False
        self._pending_handle: Optional[EventHandle] = None
        self.finished_signal = Signal(name=f"{self.name}.finished")
        # Kick off on the next zero-delay tick so construction never runs
        # user code synchronously.
        self._pending_handle = sim.schedule(0.0, self._resume, None, name=self._start_label)

    @property
    def finished(self) -> bool:
        """True once the generator has returned or raised."""
        return self._finished

    def check(self) -> Any:
        """Return the process result, re-raising any captured exception."""
        if self.error is not None:
            raise self.error
        return self.result

    def interrupt(self) -> bool:
        """Cancel the process's pending wake-up and finish it immediately.

        Returns:
            True if the process was running and is now interrupted.
        """
        if self._finished:
            return False
        if self._pending_handle is not None:
            self._pending_handle.cancel()
            self._pending_handle = None
        self._generator.close()
        self._finish()
        return True

    def poke(self, payload: Any = None) -> bool:
        """Wake a process sleeping on a :class:`Delay` at the current time.

        The pending delay event is cancelled and the generator resumes via
        a zero-delay event with ``payload`` as the value of the ``yield``
        expression.  Unlike :meth:`interrupt` the generator keeps running —
        this is the preemption primitive the session supervisor uses to
        pull a streaming session out of a long transfer step the moment a
        fault hits its source.  A process waiting on a signal (no pending
        delay event) or already finished is left alone.

        Returns:
            True if the process was sleeping and has been rescheduled.
        """
        if self._finished or self._pending_handle is None:
            return False
        if not self._pending_handle.pending:
            return False
        self._pending_handle.cancel()
        self._pending_handle = self._sim.schedule(
            0.0, self._resume, payload, name=self._poke_label
        )
        return True

    def _start_label(self) -> str:
        return f"start:{self.name}"

    def _poke_label(self) -> str:
        return f"poke:{self.name}"

    def _delay_label(self) -> str:
        return f"delay:{self.name}"

    # ------------------------------------------------------------------ #
    def _resume(self, payload: Any) -> None:
        if self._finished:
            return
        self._pending_handle = None
        try:
            yielded = self._generator.send(payload)
        except StopIteration as stop:
            self.result = stop.value
            self._finish()
            return
        except Exception as exc:  # capture, don't kill the event loop
            self._fail(exc)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, Delay):
            self._pending_handle = self._sim.schedule(
                yielded.duration, self._resume, None, name=self._delay_label
            )
        elif isinstance(yielded, (int, float)):
            self._pending_handle = self._sim.schedule(
                float(yielded), self._resume, None, name=self._delay_label
            )
        elif isinstance(yielded, WaitSignal):
            yielded.signal._register(self)
        else:
            self._generator.close()
            self._fail(
                SimulationError(
                    f"process {self.name} yielded unsupported value {yielded!r}; "
                    "yield a Delay, a number, or a WaitSignal"
                )
            )

    def _fail(self, exc: BaseException) -> None:
        self.error = exc
        self._finish()
        if self._on_error is not None:
            self._on_error(self)

    def _finish(self) -> None:
        self._finished = True
        self.finished_signal.trigger(self._sim, self)
