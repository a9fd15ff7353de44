"""The engine's event record: FIFO ties, cancel, poke and compaction.

Every way into the heap (``schedule``, ``schedule_at``, ``schedule_many``)
must share one ``(time, seq)`` order, and cancellation, a process poke and
a carcass compaction must leave that order intact.  Labels are computed
only when something asks for one.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sim.engine import COMPACTION_FLOOR, Simulator
from repro.sim.events import Event
from repro.sim.process import Delay, Process


class TestFifoAcrossEntryPoints:
    def test_equal_times_fire_in_call_order_whatever_the_entry_point(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule(5.0, fired.append, "schedule-1")
        sim.schedule_at(15.0, fired.append, "at-1")
        sim.schedule_many(
            [(5.0, fired.append, ("many-1",)), (5.0, fired.append, ("many-2",))]
        )
        sim.schedule_many([(15.0, fired.append, ("many-abs",))], absolute=True)
        sim.schedule(5.0, fired.append, "schedule-2")
        sim.schedule_at(15.0, fired.append, "at-2")
        sim.run()
        assert fired == [
            "schedule-1", "at-1", "many-1", "many-2", "many-abs", "schedule-2", "at-2",
        ]
        assert sim.now == 15.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["schedule", "at", "many", "many-abs"]),
                st.integers(min_value=0, max_value=4),
                st.booleans(),
            ),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_order_is_time_then_call_order_with_cancels(self, plan):
        sim = Simulator()
        fired = []
        expected = []
        for serial, (how, slot, cancel) in enumerate(plan):
            time = float(slot * 10)
            if how == "schedule":
                handle = sim.schedule(time, fired.append, serial)
            elif how == "at":
                handle = sim.schedule_at(time, fired.append, serial)
            else:
                (handle,) = sim.schedule_many(
                    [(time, fired.append, (serial,))], absolute=how == "many-abs"
                )
            if cancel:
                assert handle.cancel()
                assert handle.cancelled and not handle.pending
            else:
                expected.append((time, serial))
        assert sim.pending_count == len(expected)
        sim.run()
        assert fired == [serial for _, serial in sorted(expected)]
        assert sim.events_fired == len(expected)
        assert sim.pending_count == 0


class TestHandleRecord:
    def test_event_view_is_immutable_and_matches_the_schedule(self):
        sim = Simulator(start_time=2.0)
        callback = lambda *args: None  # noqa: E731
        handle = sim.schedule(3.0, callback, 1, 2, name="tick")
        event = handle.event
        assert isinstance(event, Event)
        assert (event.time, event.seq, event.callback, event.args) == (5.0, 0, callback, (1, 2))
        assert event.key == (5.0, 0) and event.label() == "tick"
        with pytest.raises(AttributeError):
            event.args = ()  # type: ignore[misc]
        assert not hasattr(event, "__dict__")

    def test_step_returns_the_fired_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x", name="one")
        event = sim.step()
        assert fired == ["x"]
        assert (event.time, event.args, event.name) == (1.0, ("x",), "one")

    def test_labels_are_formatted_only_when_asked(self):
        sim = Simulator()
        asked = []

        def label():
            asked.append(1)
            return "lazy:label"

        handle = sim.schedule(1.0, lambda: None, name=label)
        sim.run()
        assert asked == []
        assert handle.event.label() == "lazy:label"
        assert asked == [1]

    def test_process_wakes_carry_lazy_labels(self):
        sim = Simulator()

        def body():
            yield Delay(4.0)

        process = Process(sim, body(), name="p")
        assert sim._heap[0][2].event.label() == "start:p"
        sim.step()
        assert sim._heap[0][2].event.label() == "delay:p"
        assert process.poke()
        assert sim._heap[0][2].event.label() == "poke:p"

    def test_delay_is_slotted(self):
        delay = Delay(2.5)
        assert delay.duration == 2.5
        assert not hasattr(delay, "__dict__")
        assert repr(delay) == "Delay(duration=2.5)"


class TestPokeAndCompaction:
    def test_poke_wakes_now_after_events_already_due_now(self):
        sim = Simulator()
        order = []

        def sleeper():
            payload = yield Delay(100.0)
            order.append(("woke", sim.now, payload))

        process = Process(sim, sleeper())
        sim.run(until=1.0)
        sim.schedule(0.0, order.append, ("due", sim.now))
        assert process.poke("hey")
        sim.run()
        assert order == [("due", 1.0), ("woke", 1.0, "hey")]
        assert sim.pending_count == 0

    def test_poked_delay_leaves_a_carcass_that_never_fires(self):
        sim = Simulator()
        wakes = []

        def sleeper():
            while True:
                yield Delay(50.0)
                wakes.append(sim.now)

        process = Process(sim, sleeper())
        sim.run(until=10.0)
        process.poke()
        sim.run(until=200.0)
        # Poked at 10, then every 50 s; the cancelled wake at 50 never fired.
        assert wakes == [10.0, 60.0, 110.0, 160.0]

    def test_compaction_keeps_fifo_among_survivors_of_every_entry_point(self):
        sim = Simulator()
        fired = []
        handles = []
        for i in range(3 * COMPACTION_FLOOR):
            time = float(i // 6)  # six events per instant
            kind = i % 3
            if kind == 0:
                handles.append(sim.schedule(time, fired.append, i))
            elif kind == 1:
                handles.append(sim.schedule_at(time, fired.append, i))
            else:
                handles += sim.schedule_many([(time, fired.append, (i,))])
        survivors = [i for i in range(len(handles)) if i % 4 == 0]
        for i, handle in enumerate(handles):
            if i % 4:
                handle.cancel()
        assert sim.compactions >= 1
        assert sim.heap_depth < len(handles)
        assert sim.pending_count == len(survivors)
        sim.run()
        assert fired == survivors


class TestBatchCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored_after_a_batch(self, enabled):
        sim = Simulator()
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            sim.schedule_many([(1.0, lambda: None)] * 10)
            assert gc.isenabled() is enabled
            with pytest.raises(SchedulingError):
                sim.schedule_many([(1.0, lambda: None), (-1.0, lambda: None)])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert sim.pending_count == 10
