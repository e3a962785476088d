"""Station-sharded flow state: city → K shards, one coherent clock.

A single :class:`~repro.serve.state.FlowStateStore` holds the whole
city's ``(H + 1, n, n)`` flow rings — at the paper's 571-station scale
that is gigabytes of hot state in one process. The fleet tier
partitions it: a :class:`ShardMap` assigns every station to one of ``K``
shards (balanced contiguous blocks), and :class:`ShardedFlowStore`
holds ``K`` row-partitioned stores whose rings are ``(H + 1, n_k, n)``,
``sum(n_k) == n`` — the same total state, split into independently
placeable pieces.

Routing
-------
A trip ``o -> d`` decomposes into exactly two sub-updates: the outflow
cell ``(o, d)`` at the checkout slot (owned by ``shard(o)``) and the
inflow cell ``(d, o)`` at the return slot (owned by ``shard(d)``). The
sharded store runs the ingest chaos seams and validation **once**, then
delivers the event to the origin shard and — when different — the
destination shard through
:meth:`~repro.serve.state.FlowStateStore.apply_event`, which applies
only the sub-updates landing in rows the shard owns.

Coherent slot clocks
--------------------
All shards share one frontier. Rollover goes through
:meth:`ShardedFlowStore.advance_to`, which advances every shard under
the fleet lock; the fleet frontier is the *minimum* shard frontier, so
a rollover torn mid-way by an injected fault (some shards advanced,
some not) leaves the fleet conservatively behind and the next advance
heals it — laggards catch up, already-advanced shards no-op, and
pending inflow folds into each ring exactly once either way.

Bitwise reassembly
------------------
Every flow cell is owned by exactly one shard and receives its
``+= 1.0`` updates in the same per-cell order the single store would
apply them (float64 integer sums are exact regardless of order, and
unowned cells stay exactly ``0.0``). Scattering the K row blocks back
into a full-city tensor therefore reproduces the unpartitioned store
**bitwise** — the property ``tests/serve/test_fleet_shard.py`` pins
over out-of-order, dirty, late-heavy streams for K ∈ {1, 2, 7}.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.data.dataset import BikeShareDataset
from repro.data.records import TripRecord
from repro.faults import fault_point, fault_transform
from repro.obs.registry import default_registry
from repro.serve.state import FlowStateConfig, FlowStateStore, StoreSample


class ShardMap:
    """Deterministic station → shard assignment in balanced blocks.

    Stations are split into ``num_shards`` contiguous blocks (the first
    ``n % K`` blocks get one extra station), so a shard's rows are a
    basic slice of the full-city row axis — scatter/gather is plain
    block copies, and ``shard_of`` is one ``searchsorted``.
    """

    def __init__(self, num_stations: int, num_shards: int) -> None:
        if num_stations < 1:
            raise ValueError(f"num_stations must be >= 1, got {num_stations}")
        if not 1 <= num_shards <= num_stations:
            raise ValueError(
                f"num_shards must be in 1..{num_stations} (one station per "
                f"shard minimum), got {num_shards}"
            )
        self.num_stations = num_stations
        self.num_shards = num_shards
        base, extra = divmod(num_stations, num_shards)
        sizes = [base + 1] * extra + [base] * (num_shards - extra)
        self._bounds = np.concatenate(([0], np.cumsum(sizes)))

    def shard_of(self, station: int) -> int:
        """The shard owning ``station``."""
        if not 0 <= station < self.num_stations:
            raise ValueError(
                f"station must be in 0..{self.num_stations - 1}, got {station}"
            )
        return int(np.searchsorted(self._bounds, station, side="right")) - 1

    def stations(self, shard: int) -> np.ndarray:
        """Global station ids owned by ``shard`` (a contiguous block)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in 0..{self.num_shards - 1}, got {shard}"
            )
        return np.arange(self._bounds[shard], self._bounds[shard + 1])

    def sizes(self) -> list[int]:
        return list(np.diff(self._bounds))

    def __len__(self) -> int:
        return self.num_shards

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardMap)
            and other.num_stations == self.num_stations
            and other.num_shards == self.num_shards
        )

    def __repr__(self) -> str:
        return (
            f"ShardMap(stations={self.num_stations}, shards={self.num_shards}, "
            f"sizes={self.sizes()})"
        )


class ShardedFlowStore:
    """K row-partitioned flow stores behind the single-store interface.

    Duck-types the :class:`~repro.serve.state.FlowStateStore` surface
    the serving stack consumes — ``config``/``frontier``/``version``/
    ``warmed_up``/``ingest``/``ingest_event``/``advance_to``/``sample``/
    ``realized``/``retained_tensors``/``add_rollover_listener`` — so a
    :class:`~repro.serve.service.PredictionService` (or a whole replica
    fleet) runs unchanged on top of it.
    """

    def __init__(
        self,
        config: FlowStateConfig,
        num_shards: int = 2,
        frontier: int = 0,
        shard_map: ShardMap | None = None,
        _warm_dataset: BikeShareDataset | None = None,
    ) -> None:
        self.config = config
        n = config.num_stations
        self.map = shard_map or ShardMap(n, num_shards)
        if self.map.num_stations != n:
            raise ValueError(
                f"shard map covers {self.map.num_stations} stations, "
                f"store has {n}"
            )
        self._lock = threading.RLock()
        self.shards: list[FlowStateStore] = []
        for k in range(self.map.num_shards):
            owned = self.map.stations(k)
            prefix = f"serve.shard{k}"
            if _warm_dataset is not None:
                shard = FlowStateStore.from_dataset(
                    _warm_dataset,
                    frontier=frontier,
                    late_policy=config.late_policy,
                    owned_stations=owned,
                    metric_prefix=prefix,
                    retained_slots=config.retained_slots,
                )
            else:
                shard = FlowStateStore(
                    config, frontier=frontier,
                    owned_stations=owned, metric_prefix=prefix,
                )
            self.shards.append(shard)
        self._zero_target = np.zeros(n)
        self._zero_target.setflags(write=False)
        obs = default_registry()
        self._events_counter = obs.counter("fleet.ingest_events")
        self._late_dropped_counter = obs.counter("fleet.ingest_dropped_late")
        self._cross_shard_counter = obs.counter("fleet.cross_shard_events")
        self._rollover_counter = obs.counter("fleet.rollovers")
        self._frontier_gauge = obs.gauge("fleet.frontier")
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: BikeShareDataset,
        num_shards: int = 2,
        frontier: int | None = None,
        late_policy: str = "drop",
        retained_slots: int | None = None,
    ) -> "ShardedFlowStore":
        """Warm-start every shard from a dataset's flow history."""
        config = FlowStateConfig.for_dataset(
            dataset, late_policy=late_policy, retained_slots=retained_slots
        )
        frontier = dataset.num_slots if frontier is None else frontier
        return cls(
            config, num_shards=num_shards, frontier=frontier,
            _warm_dataset=dataset,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.map.num_shards

    @property
    def frontier(self) -> int:
        """The coherent fleet frontier: the minimum shard frontier.

        Equal across shards except transiently inside a torn rollover;
        taking the minimum keeps reads conservative until the next
        advance heals the stragglers.
        """
        return min(shard.frontier for shard in self.shards)

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def oldest_retained(self) -> int:
        return max(0, self.frontier - self.config.retention)

    @property
    def warmed_up(self) -> bool:
        return all(shard.warmed_up for shard in self.shards)

    @property
    def version(self) -> int:
        """Monotonic change counter: the sum of shard versions."""
        return sum(shard.version for shard in self.shards)

    @property
    def coherent(self) -> bool:
        """Whether every shard sits at the same frontier slot."""
        fronts = {shard.frontier for shard in self.shards}
        return len(fronts) == 1

    def __repr__(self) -> str:
        return (
            f"ShardedFlowStore(stations={self.config.num_stations}, "
            f"shards={self.num_shards}, frontier={self.frontier}, "
            f"version={self.version})"
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, trip: TripRecord) -> bool:
        """Fold one trip into the sharded state; ``False`` if late-dropped."""
        return self.ingest_event(
            trip.origin, trip.destination, trip.start_time, trip.end_time
        )

    def ingest_event(
        self,
        origin: int,
        destination: int,
        start_time: float,
        end_time: float,
    ) -> bool:
        """Route one event to its origin and destination shards.

        Runs the same per-event chaos seams (``state.ingest``,
        ``state.clock``) exactly once — shard delivery goes through
        :meth:`FlowStateStore.apply_event`, which skips them — so a
        chaos plan written against the single store fires identically
        against the fleet.
        """
        # Same seam-then-validate order as the single store, so a chaos
        # plan's per-event firing counts line up exactly.
        fault_point("state.ingest")
        start_time, end_time = fault_transform(
            "state.clock", (start_time, end_time)
        )
        n = self.config.num_stations
        if not (0 <= origin < n and 0 <= destination < n):
            raise ValueError(
                f"station ids must be in 0..{n - 1}, got {origin}->{destination}"
            )
        start_slot = int(start_time // self.config.slot_seconds)
        if start_slot < 0:
            raise ValueError(f"event starts before slot 0 (start_time={start_time})")
        with self._lock:
            if start_slot > self.frontier:
                self.advance_to(start_slot)
            primary = self.map.shard_of(origin)
            secondary = self.map.shard_of(destination)
            accepted = self.shards[primary].apply_event(
                origin, destination, start_time, end_time
            )
            if secondary != primary:
                self.shards[secondary].apply_event(
                    origin, destination, start_time, end_time
                )
                self._cross_shard_counter.inc()
            if accepted:
                self._events_counter.inc()
            else:
                self._late_dropped_counter.inc()
            return accepted

    # ------------------------------------------------------------------
    # Rollover
    # ------------------------------------------------------------------
    def advance_to(self, slot: int) -> None:
        """Advance every shard to ``slot`` under one lock.

        Also the self-healing path: if a previous advance was torn by a
        fault (shard frontiers diverged), the target is raised to the
        highest shard frontier so stragglers catch up instead of the
        advanced shards failing the "cannot advance backwards" check.
        """
        with self._lock:
            fronts = [shard.frontier for shard in self.shards]
            old = min(fronts)
            if slot < old:
                raise ValueError(
                    f"cannot advance backwards: frontier={old}, got {slot}"
                )
            target = max(slot, max(fronts))
            if target == old:
                return
            fault_point("fleet.rollover")
            for shard in self.shards:
                if shard.frontier < target:
                    shard.advance_to(target)
            self._rollover_counter.inc(target - old)
            self._frontier_gauge.set(target)
            if self._listeners:
                closed = range(old, target)
                for listener in self._listeners:
                    listener(self, closed)

    def add_rollover_listener(self, listener) -> None:
        """Register ``fn(store, closed_slots)`` on fleet-level advances."""
        with self._lock:
            self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Reads (full-city assembly)
    # ------------------------------------------------------------------
    def realized(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Full-city realized ``(demand, supply)`` for a retained slot."""
        slot = int(slot)
        n = self.config.num_stations
        with self._lock:
            self._heal()
            if not self.oldest_retained <= slot <= self.frontier:
                raise IndexError(
                    f"slot {slot} is not retained "
                    f"({self.oldest_retained}..{self.frontier})"
                )
            demand = np.empty(n)
            supply = np.empty(n)
            for shard in self.shards:
                d, s = shard.realized(slot)
                demand[shard.owned_selector] = d
                supply[shard.owned_selector] = s
            return demand, supply

    def sample(self) -> StoreSample:
        """The model input for the frontier slot, assembled across shards.

        Bitwise equal to the single store's :meth:`FlowStateStore.sample`
        over the same event history, and stamped with the fleet version
        read under the same lock. Unlike the single store (one
        dispatcher, reusable buffers), a sharded store feeds *N replica
        dispatchers concurrently* — each call assembles into fresh
        arrays so one replica's forward never reads windows another
        replica is mid-overwrite on. The allocation only happens on
        forecast-cache misses, so it is off the hot path.
        """
        config = self.config
        n = config.num_stations
        with self._lock:
            self._heal()
            t = self.frontier
            if t < config.horizon:
                raise IndexError(
                    f"frontier {t} has incomplete history windows "
                    f"(need at least {config.horizon} finalized slots)"
                )
            k, d, spd = config.short_window, config.long_days, config.slots_per_day
            short_slots = np.arange(t - k, t)
            long_slots = np.arange(t - d * spd, t, spd)
            short_in = np.empty((k, n, n))
            short_out = np.empty((k, n, n))
            long_in = np.empty((d, n, n))
            long_out = np.empty((d, n, n))
            for shard in self.shards:
                shard.scatter_window(short_slots, short_in, short_out)
                shard.scatter_window(long_slots, long_in, long_out)
            return StoreSample(
                t=t,
                short_inflow=short_in,
                short_outflow=short_out,
                long_inflow=long_in,
                long_outflow=long_out,
                target_demand=self._zero_target,
                target_supply=self._zero_target,
                version=self.version,
            )

    def retained_tensors(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(first_slot, inflow, outflow)`` reassembled across shards.

        ``(m, n, n)`` full-city copies, bitwise equal to the single
        store's retained tensors over the same history.
        """
        n = self.config.num_stations
        with self._lock:
            self._heal()
            first = self.oldest_retained
            slots = np.arange(first, self.frontier + 1)
            inflow = np.empty((len(slots), n, n))
            outflow = np.empty((len(slots), n, n))
            for shard in self.shards:
                shard.scatter_window(slots, inflow, outflow)
            return first, inflow, outflow

    def history_window(
        self, slots: int | None = None, end: int | None = None
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Full-city training tensors assembled across shards.

        Same contract as :meth:`FlowStateStore.history_window` —
        finalized slots only, bitwise equal to ``build_flow_tensors``
        rows — with the K row blocks scattered back into one
        ``(m, n, n)`` pair under the fleet lock.
        """
        n = self.config.num_stations
        with self._lock:
            self._heal()
            stop = self.frontier if end is None else int(end)
            if not 0 <= stop <= self.frontier:
                raise ValueError(
                    f"end must be in 0..{self.frontier} (the frontier), got {stop}"
                )
            if slots is None:
                start = min(stop, self.oldest_retained)
            else:
                if slots < 0:
                    raise ValueError(f"slots must be >= 0, got {slots}")
                start = stop - int(slots)
            if start < self.oldest_retained and start < stop:
                raise ValueError(
                    f"history window {start}..{stop} reaches behind the oldest "
                    f"retained slot {self.oldest_retained}; raise "
                    f"FlowStateConfig.retained_slots to keep a deeper history"
                )
            slot_ids = np.arange(start, stop)
            inflow = np.empty((len(slot_ids), n, n))
            outflow = np.empty((len(slot_ids), n, n))
            for shard in self.shards:
                shard.scatter_window(slot_ids, inflow, outflow)
            return start, inflow, outflow

    def _heal(self) -> None:
        # Called under the fleet lock before any assembled read: a torn
        # advance leaves shards at mixed frontiers, and assembling rows
        # across mixed clocks would mix slot generations.
        if not self.coherent:
            self.advance_to(max(shard.frontier for shard in self.shards))
