"""Incremental-vs-batch parity: the store's exact-equivalence guarantee.

Property test over randomized event streams — including out-of-order
delivery within the retained horizon, trips still in transit at the
window edge, dirty negative-duration records, and slot-boundary
rollover — asserting that :class:`FlowStateStore`'s retained slots are
**bitwise** equal to :func:`build_flow_tensors` over the same history,
and that the windows ``sample()`` keeps assembled between calls never
drift from the ring or from :meth:`BikeShareDataset.sample`.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continual import GraphEvolution, evolve_flow_store
from repro.data.dataset import BikeShareDataset, FlowDataConfig
from repro.data.flows import build_flow_tensors
from repro.data.records import TripRecord
from repro.data.stations import Station, StationRegistry
from repro.serve import FlowStateConfig, FlowStateStore

SLOT = 1800.0  # 30-minute slots keep slots_per_day (48) honest but small


@st.composite
def event_streams(draw):
    """A trip log plus a bounded-lateness delivery order."""
    num_stations = draw(st.integers(min_value=2, max_value=5))
    num_slots = draw(st.integers(min_value=8, max_value=120))
    num_trips = draw(st.integers(min_value=0, max_value=120))
    trips = []
    for trip_id in range(num_trips):
        origin = draw(st.integers(0, num_stations - 1))
        destination = draw(st.integers(0, num_stations - 1))
        start_slot = draw(st.integers(0, num_slots - 1))
        # Cap the offset below SLOT with margin: a float a hair under
        # SLOT can round start_slot*SLOT + offset up into the next slot.
        offset = draw(st.floats(min_value=0.0, max_value=SLOT - 1.0))
        start = start_slot * SLOT + offset
        # Durations from dirty-negative through in-transit-past-the-end.
        duration = draw(st.floats(min_value=-2 * SLOT, max_value=6 * SLOT))
        trips.append(TripRecord(trip_id, origin, destination, start,
                                float(start + duration)))
    # Deliver roughly in event-time order with local shuffling: sort by
    # start, then swap adjacent trips whose slot gap stays well inside
    # the retained horizon (>= 48 slots for 30-minute slots) — out of
    # order, but never late enough to trigger the drop policy.
    trips.sort(key=lambda t: t.start_time)
    for i in range(len(trips) - 1):
        gap = trips[i + 1].start_slot(SLOT) - trips[i].start_slot(SLOT)
        if gap <= 40 and draw(st.booleans()):
            trips[i], trips[i + 1] = trips[i + 1], trips[i]
    short_window = draw(st.integers(min_value=1, max_value=12))
    long_days = draw(st.integers(min_value=1, max_value=2))
    return num_stations, num_slots, trips, short_window, long_days


@given(event_streams())
@settings(max_examples=60, deadline=None)
def test_incremental_matches_batch_bitwise(stream):
    num_stations, num_slots, trips, short_window, long_days = stream
    batch_inflow, batch_outflow = build_flow_tensors(
        trips, num_stations, num_slots, SLOT
    )
    config = FlowStateConfig(
        num_stations=num_stations,
        slot_seconds=SLOT,
        short_window=short_window,
        long_days=long_days,
    )
    store = FlowStateStore(config)
    for trip in trips:
        assert store.ingest(trip)
    store.advance_to(num_slots)

    first, inflow, outflow = store.retained_tensors()
    finalized = num_slots - first  # the frontier row is the open slot
    assert np.array_equal(inflow[:finalized], batch_inflow[first:num_slots])
    assert np.array_equal(outflow[:finalized], batch_outflow[first:num_slots])


@given(event_streams())
@settings(max_examples=30, deadline=None)
def test_sample_windows_match_batch_dataset_windows(stream):
    """End-to-end: the FlowSample the store serves equals batch slicing."""
    num_stations, num_slots, trips, short_window, long_days = stream
    config = FlowStateConfig(
        num_stations=num_stations,
        slot_seconds=SLOT,
        short_window=short_window,
        long_days=long_days,
    )
    if num_slots < config.horizon:
        return  # not enough history for a full window; nothing to check
    batch_inflow, batch_outflow = build_flow_tensors(
        trips, num_stations, num_slots, SLOT
    )
    store = FlowStateStore(config)
    for trip in trips:
        store.ingest(trip)
    store.advance_to(num_slots)

    sample = store.sample()
    t, k, spd = num_slots, short_window, config.slots_per_day
    np.testing.assert_array_equal(sample.short_inflow, batch_inflow[t - k : t])
    np.testing.assert_array_equal(sample.short_outflow, batch_outflow[t - k : t])
    long_slots = np.arange(t - long_days * spd, t, spd)
    np.testing.assert_array_equal(sample.long_inflow, batch_inflow[long_slots])
    np.testing.assert_array_equal(sample.long_outflow, batch_outflow[long_slots])


def test_interleaved_ingest_and_rollover_matches_batch():
    """Slot-by-slot live operation: ingest, advance, repeat — vs batch."""
    rng = np.random.default_rng(7)
    num_stations, num_slots = 4, 72
    trips = []
    for trip_id in range(300):
        start = rng.uniform(0, num_slots * SLOT)
        trips.append(TripRecord(
            trip_id,
            int(rng.integers(num_stations)),
            int(rng.integers(num_stations)),
            float(start),
            float(start + rng.uniform(60.0, 4 * SLOT)),
        ))
    trips.sort(key=lambda t: t.start_time)

    config = FlowStateConfig(
        num_stations=num_stations, slot_seconds=SLOT,
        short_window=8, long_days=1,
    )
    store = FlowStateStore(config)
    queue = list(trips)
    for slot in range(num_slots + 1):
        store.advance_to(slot)  # the clock ticks even with no events
        while queue and queue[0].start_slot(SLOT) <= slot:
            assert store.ingest(queue.pop(0))

    batch_inflow, batch_outflow = build_flow_tensors(
        trips, num_stations, num_slots, SLOT
    )
    first, inflow, outflow = store.retained_tensors()
    finalized = num_slots - first
    assert np.array_equal(inflow[:finalized], batch_inflow[first:num_slots])
    assert np.array_equal(outflow[:finalized], batch_outflow[first:num_slots])


WINDOWS = ("short_inflow", "short_outflow", "long_inflow", "long_outflow")


def _assert_sample_matches(store, trips):
    """``store.sample()`` vs a fresh ring gather and the batch dataset."""
    config = store.config
    n, k, d, spd = (config.num_stations, config.short_window,
                    config.long_days, config.slots_per_day)
    sample = store.sample()
    t = store.frontier
    assert sample.t == t and sample.version == store.version
    first, inflow, outflow = store.retained_tensors()
    short = np.arange(t - k, t) - first
    long = np.arange(t - d * spd, t, spd) - first
    ring = {"short_inflow": inflow[short], "short_outflow": outflow[short],
            "long_inflow": inflow[long], "long_outflow": outflow[long]}
    num_slots = (t // spd + 1) * spd  # whole days, covering the frontier
    batch_inflow, batch_outflow = build_flow_tensors(trips, n, num_slots, SLOT)
    dataset = BikeShareDataset(
        StationRegistry([Station(i, 0.0, 0.0) for i in range(n)]),
        batch_inflow, batch_outflow,
        FlowDataConfig(slot_seconds=SLOT, short_window=k, long_days=d),
    )
    expected = dataset.sample(t)
    for name in WINDOWS:
        assert np.array_equal(getattr(sample, name), ring[name]), name
        assert np.array_equal(getattr(sample, name), getattr(expected, name)), name


_EVENT = st.tuples(
    st.just("event"),
    st.sampled_from(
        ["frontier", "late", "late_long", "transit", "too_old", "future"]
    ),
    st.integers(0, 10**6),  # origin / destination / slot picks, reduced mod range
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(-2, 6),  # duration in slots: dirty negative .. in transit
    st.floats(min_value=0.0, max_value=SLOT - 1.0),
)
_OPS = st.one_of(
    _EVENT,
    st.tuples(st.just("advance"), st.integers(1, 3)),
    st.tuples(st.just("sample")),
    st.tuples(st.just("evolve"), st.booleans(), st.integers(0, 10**6)),
)


@given(
    num_stations=st.integers(2, 4),
    # Past 48 slots per day, one slot sits in both windows.
    short_window=st.one_of(st.integers(1, 12), st.integers(44, 60)),
    long_days=st.integers(1, 2),
    warmup=st.integers(0, 6),
    ops=st.lists(_OPS, min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_assembled_windows_track_interleaved_live_operation(
    num_stations, short_window, long_days, warmup, ops
):
    """On-frontier, late, in-transit and too-old events interleaved with
    rollover, sampling and a station-set evolution: every sample() is
    bitwise a from-scratch gather and the batch dataset's window."""
    config = FlowStateConfig(
        num_stations=num_stations, slot_seconds=SLOT,
        short_window=short_window, long_days=long_days,
    )
    capacity = config.retention + 1
    store = FlowStateStore(config)
    store.advance_to(capacity + warmup)  # full windows and a too-old range
    n, trips = num_stations, []  # trips: the accepted log, current ids
    for op in ops:
        f = store.frontier
        if op[0] == "event":
            _, kind, a, b, pick, duration, offset = op
            start_slot = {
                "frontier": f,
                "late": f - 1 - pick % (capacity - 1),
                # Checkout and return in exactly a long-window slot
                # (also a short-window one when short_window >= 48).
                "late_long": f - config.slots_per_day * (1 + pick % long_days),
                "transit": f,
                "too_old": (f - capacity) - pick % (f - capacity + 1),
                "future": f + 1 + pick % 2,
            }[kind]
            if kind == "transit":
                duration = abs(duration) + 1
            elif kind == "late_long":
                duration = 0
            start = start_slot * SLOT + offset
            trip = TripRecord(len(trips), a % n, b % n, start,
                              start + duration * SLOT)
            accepted = store.ingest(trip)
            assert accepted == (kind != "too_old")
            if accepted:
                trips.append(trip)
        elif op[0] == "advance":
            store.advance_to(f + op[1])
        elif op[0] == "sample":
            _assert_sample_matches(store, trips)
        else:
            _, grow, pick = op
            if grow and n < 5 or n == 2:
                evolution = GraphEvolution.grow(n, 1)
            else:
                evolution = GraphEvolution.shrink(n, [pick % n])
            evolve_flow_store(store, evolution)
            new_id = {old: new for new, old in enumerate(evolution.kept)}
            trips = [
                TripRecord(t.trip_id, new_id[t.origin], new_id[t.destination],
                           t.start_time, t.end_time)
                for t in trips
                if t.origin in new_id and t.destination in new_id
            ]
            n = evolution.num_stations
    _assert_sample_matches(store, trips)


@pytest.mark.parametrize("late_slots_back", [[48], [96], [1, 48, 96], [50]])
def test_late_events_refresh_every_window_holding_their_slot(late_slots_back):
    """With k = 60 > 48 slots per day, slot t-48 sits in the short and
    the long window, t-96 in the long one only, t-50 in the short one
    only; each late trip must reach every window copy of its slot."""
    config = FlowStateConfig(
        num_stations=3, slot_seconds=SLOT, short_window=60, long_days=2,
    )
    store = FlowStateStore(config, frontier=config.horizon + 3)
    store.sample()  # assemble, then dirty a few slots at this frontier
    trips = []
    for i, back in enumerate(late_slots_back):
        start = (store.frontier - back) * SLOT + 10.0
        trip = TripRecord(i, i % 3, (i + 1) % 3, start, start + 60.0)
        assert store.ingest(trip)
        trips.append(trip)
    _assert_sample_matches(store, trips)


def test_concurrent_late_ingest_and_sampling_lose_no_dirty_slot():
    """Feeders landing late trips while a dispatcher samples: a dirty
    mark lost between ingest and sample() would leave the final
    windows out of step with the ring."""
    config = FlowStateConfig(
        num_stations=4, slot_seconds=SLOT, short_window=60, long_days=2,
    )
    store = FlowStateStore(config, frontier=config.horizon + 3)
    frontier = store.frontier
    done = threading.Event()
    errors: list[BaseException] = []

    def feed(seed):
        rng = np.random.default_rng(seed)
        try:
            for i in range(400):
                back = int(rng.integers(1, config.horizon + 1))
                start = (frontier - back) * SLOT + 1.0
                store.ingest_event(int(rng.integers(4)), int(rng.integers(4)),
                                   start, start + float(rng.uniform(0, 3 * SLOT)))
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def sample_loop():
        while not done.is_set():
            store.sample()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sampler = threading.Thread(target=sample_loop)
        feeders = [threading.Thread(target=feed, args=(i,)) for i in range(4)]
        sampler.start()
        for thread in feeders:
            thread.start()
        for thread in feeders:
            thread.join(timeout=60.0)
        done.set()
        sampler.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not sampler.is_alive() and not any(t.is_alive() for t in feeders)
    sample = store.sample()
    first, inflow, outflow = store.retained_tensors()
    t, k, spd = store.frontier, config.short_window, config.slots_per_day
    long = np.arange(t - 2 * spd, t, spd) - first
    assert np.array_equal(sample.short_inflow, inflow[t - k - first : t - first])
    assert np.array_equal(sample.short_outflow, outflow[t - k - first : t - first])
    assert np.array_equal(sample.long_inflow, inflow[long])
    assert np.array_equal(sample.long_outflow, outflow[long])


def test_bulk_history_load_reassembles_the_windows():
    """load_history() rewrites the ring behind assembled windows."""
    config = FlowStateConfig(
        num_stations=3, slot_seconds=SLOT, short_window=4, long_days=1,
    )
    store = FlowStateStore(config, frontier=config.horizon)
    assert not store.sample().short_inflow.any()
    first = store.oldest_retained
    history = np.arange(
        (config.horizon + 1) * 9, dtype=float
    ).reshape(config.horizon + 1, 3, 3)
    store.load_history(first, history, 2 * history)
    sample = store.sample()
    t = store.frontier
    assert np.array_equal(sample.short_inflow, history[t - 4 - first : t - first])
    assert np.array_equal(sample.long_outflow, 2 * history[[t - 48 - first]])


def test_sample_windows_are_read_only_views():
    """A consumer cannot write into the buffers the store keeps assembled."""
    store = FlowStateStore(FlowStateConfig(
        num_stations=3, slot_seconds=SLOT, short_window=4, long_days=1,
    ))
    store.advance_to(store.horizon)
    sample = store.sample()
    for name in WINDOWS:
        window = getattr(sample, name)
        assert window.base is not None
        with pytest.raises(ValueError):
            window[...] = 1.0
    assert not any(getattr(store.sample(), name).any() for name in WINDOWS)
