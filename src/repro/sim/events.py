"""Event record used by the simulation engine.

An :class:`Event` pairs a firing time with a callback.  Events are ordered by
``(time, seq)`` where ``seq`` is a monotonically increasing sequence number,
so two events scheduled for the same instant fire in FIFO order — a property
the tests assert because stream bookkeeping depends on it.

The engine's heap holds :class:`~repro.sim.engine.EventHandle` records; an
:class:`Event` is the immutable view of one, built only when something asks
for it (:attr:`EventHandle.event`, :meth:`Simulator.step`).
"""

from __future__ import annotations

from typing import Any, Callable, Tuple, Union

#: An event label: the text itself, or a zero-argument callable that
#: produces it when asked (so a hot scheduler formats nothing per event).
Label = Union[str, Callable[[], str]]


def describe(name: Label, callback: Callable[..., Any]) -> str:
    """Readable label for traces and error text: ``name`` or the callback."""
    if callable(name):
        return name()
    if name:
        return name
    return getattr(callback, "__qualname__", repr(callback))


class Event:
    """A scheduled callback (immutable).

    Attributes:
        time: Simulated time at which the event fires.
        seq: Tie-breaking sequence number (scheduling order).
        callback: Zero-result callable invoked when the event fires.
        args: Positional arguments passed to ``callback``.
        name: Optional label: text, or a zero-argument callable returning
            it (see :meth:`label`).
        key: The ``(time, seq)`` order key, built once at construction.
    """

    __slots__ = ("time", "seq", "callback", "args", "name", "key")

    time: float
    seq: int
    callback: Callable[..., Any]
    args: Tuple[Any, ...]
    name: Label
    key: Tuple[float, int]

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        name: Label = "",
    ):
        init = object.__setattr__
        init(self, "time", time)
        init(self, "seq", seq)
        init(self, "callback", callback)
        init(self, "args", args)
        init(self, "name", name)
        init(self, "key", (time, seq))

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"Event is immutable; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"Event is immutable; cannot delete {attr!r}")

    def __repr__(self) -> str:
        return f"Event(time={self.time!r}, seq={self.seq!r}, label={self.label()!r})"

    def sort_key(self) -> Tuple[float, int]:
        """Key defining the engine's total order over events."""
        return self.key

    def fire(self) -> Any:
        """Invoke the callback with its stored arguments."""
        return self.callback(*self.args)

    def label(self) -> str:
        """Readable label for traces: the explicit name or callback repr."""
        return describe(self.name, self.callback)
