"""Property-based tests: a link's stored headroom is its derived headroom.

``Link.free_mbps`` is kept as a value that only construction and the
three bandwidth mutators write.  Under any sequence of reservations,
releases, background writes and online flips it must equal, bit for bit,
the expression it replaced, and the change counters must move exactly on
the writes that change what they count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinkCapacityError
from repro.network.link import STATE_CHANGE, Link

CAPACITY = 34.0

operations = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"), st.floats(min_value=0.0, max_value=40.0)),
        st.tuples(st.just("release"), st.floats(min_value=0.0, max_value=40.0)),
        st.tuples(st.just("background"), st.floats(min_value=0.0, max_value=50.0)),
        st.tuples(st.just("background"), st.sampled_from([0.0, 17.0, CAPACITY, 99.0])),
        st.tuples(st.just("online"), st.sampled_from([True, False, 0, 1])),
    ),
    min_size=1,
    max_size=80,
)


def derived_free(link: Link) -> float:
    """The headroom as the link used to compute it on every read."""
    used = min(link.background_mbps + link.reserved_mbps, link.capacity_mbps)
    return max(link.capacity_mbps - used, 0.0)


@given(operations)
@settings(max_examples=200, deadline=None)
def test_stored_headroom_matches_the_derived_expression(ops):
    link = Link("A", "B", capacity_mbps=CAPACITY)
    notified = []
    link._version_listener = lambda kind, source: notified.append(kind)
    state, traffic = link.state_version, link.traffic_version
    assert link.free_mbps.hex() == derived_free(link).hex()
    for op, value in ops:
        free_before = link.free_mbps
        if op == "reserve":
            fits = value <= free_before + 1e-9
            try:
                link.reserve(value)
            except LinkCapacityError:
                assert not fits
            else:
                assert fits
                traffic += value > 0.0
        elif op == "release":
            if value > link.reserved_mbps + 1e-9:
                reserved = link.reserved_mbps
                try:
                    link.release(value)
                except LinkCapacityError:
                    assert link.reserved_mbps == reserved
                else:
                    raise AssertionError("over-release accepted")
            else:
                link.release(value)
                traffic += value > 0.0
        elif op == "background":
            changed = min(value, link.capacity_mbps) != link.background_mbps
            link.set_background_mbps(value)
            traffic += changed
        else:
            flipped = bool(value) != bool(link.online)
            link.online = value
            state += flipped
        assert link.free_mbps.hex() == derived_free(link).hex()
        assert link.state_version == state
        assert link.traffic_version == traffic
    assert notified.count(STATE_CHANGE) == state
    assert len(notified) == state + traffic


@given(st.floats(min_value=0.0, max_value=CAPACITY), st.floats(min_value=0.01, max_value=40.0))
@settings(max_examples=100, deadline=None)
def test_failed_reservation_touches_nothing(background, rate):
    link = Link("A", "B", capacity_mbps=CAPACITY)
    link.set_background_mbps(background)
    before = (link.free_mbps, link.reserved_mbps, link.traffic_version, link.reserve_count)
    try:
        link.reserve(rate)
    except LinkCapacityError as error:
        assert (link.free_mbps, link.reserved_mbps, link.traffic_version, link.reserve_count) == before
        assert str(error) == (
            f"link A-B: reserving {rate:.3f} Mbps exceeds free capacity {before[0]:.3f} Mbps"
        )
    else:
        assert rate <= before[0] + 1e-9
