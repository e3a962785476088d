"""Incremental flow state for online serving.

The batch pipeline (:func:`repro.data.flows.build_flow_tensors`) folds a
complete trip log into ``(T, n, n)`` inflow/outflow tensors; a serving
process cannot afford that — it sees one trip at a time and must keep
the model's input windows current as the clock rolls over slot
boundaries. :class:`FlowStateStore` is the streaming counterpart: it
ingests individual trip events and maintains exactly the slots that
STGNN-DJD's sampler reads — the short-term window (last ``k`` slots) and
the long-term window (same slot-of-day over the previous ``d`` days) —
in O(1) amortized work per event.

Mechanics
---------
* **Ring buffers** — the store retains the last ``H + 1`` slots where
  ``H = max(k, d * slots_per_day)`` is the deepest lookback any window
  needs; slot ``s`` lives at ring row ``s % (H + 1)``. Advancing the
  frontier one slot zeroes exactly one row (evicting the slot that just
  fell off the horizon), so rollover is O(n^2), independent of history
  length.
* **Per-event accumulation** — a trip increments one cell of the
  outflow matrix at its checkout slot and one cell of the inflow matrix
  at its return slot, the same ``+= 1.0`` the batch builder performs.
* **In-transit inflow** — a trip that ends after the frontier parks its
  inflow contribution in a pending per-slot matrix, folded into the
  ring when the frontier reaches that slot. This mirrors the batch
  semantics where a trip ending beyond the window contributes outflow
  only.
* **Late events** — events landing in a retained slot behind the
  frontier are applied in place (and bump :attr:`FlowStateStore.version`
  so forecast caches invalidate); events older than the retained
  horizon follow ``late_policy``: counted and dropped by default, or a
  hard error for pipelines that consider lateness a bug.
* **Assembled windows** — an unpartitioned store keeps its four window
  buffers assembled for the frontier they were last built at. A late
  event marks the slot it changed dirty, and the next ``sample()`` at
  the same frontier re-copies only the dirty slots that fall inside a
  window (one ring row per direction) instead of re-gathering all
  ``k + d`` of them; a rollover or a bulk rewrite of the rings
  triggers the full gather.
* **Station partitioning** — a store constructed with
  ``owned_stations`` holds only the matrix *rows* of those stations
  (``(H + 1, n_owned, n)`` rings instead of ``(H + 1, n, n)``) and
  applies only the sub-updates that land in them: the outflow update of
  a trip whose *origin* it owns, the inflow update of a trip whose
  *destination* it owns. :class:`repro.serve.fleet.ShardedFlowStore`
  routes every trip to its origin and destination shards and
  reassembles full-city tensors bitwise equal to an unpartitioned
  store, because each cell is owned by exactly one shard and receives
  its updates in the same per-cell order.

Equivalence guarantee
---------------------
After ingesting a trip log (in any order whose lateness stays within the
horizon) and advancing to slot ``T``, the retained slots are **bitwise
equal** to the corresponding rows of ``build_flow_tensors(trips, n, T,
slot_seconds)``. Both paths accumulate ``+= 1.0`` into float64 zeros;
integer-valued float64 sums are exact far beyond any realistic trip
count, so the accumulation order cannot change a single bit. The
property test in ``tests/serve/test_state_parity.py`` asserts this over
randomized, shuffled, late-heavy event streams.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.data.dataset import BikeShareDataset, FlowSample
from repro.data.records import SECONDS_PER_DAY, TripRecord
from repro.faults import fault_point, fault_transform
from repro.obs.registry import default_registry


@dataclass(frozen=True, slots=True)
class FlowStateConfig:
    """Dimensions and policies of an incremental flow store.

    ``num_stations``, ``slot_seconds``, ``short_window`` (``k``) and
    ``long_days`` (``d``) mirror :class:`repro.data.dataset.FlowDataConfig`;
    ``late_policy`` decides what happens to events older than the
    retained horizon: ``"drop"`` counts and ignores them, ``"error"``
    raises. ``retained_slots`` optionally deepens retention beyond the
    sampling horizon so an online trainer can pull multi-day training
    windows out of the live store (:meth:`FlowStateStore.history_window`)
    — it never shrinks below :attr:`horizon`.
    """

    num_stations: int
    slot_seconds: float = 900.0
    short_window: int = 96
    long_days: int = 7
    late_policy: str = "drop"
    retained_slots: int | None = None

    def __post_init__(self) -> None:
        if self.num_stations < 1:
            raise ValueError(f"num_stations must be >= 1, got {self.num_stations}")
        if self.slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {self.slot_seconds}")
        if SECONDS_PER_DAY % self.slot_seconds != 0:
            raise ValueError(
                f"slot_seconds ({self.slot_seconds}) must divide a day evenly"
            )
        if self.short_window < 1:
            raise ValueError(f"short_window must be >= 1, got {self.short_window}")
        if self.long_days < 1:
            raise ValueError(f"long_days must be >= 1, got {self.long_days}")
        if self.late_policy not in ("drop", "error"):
            raise ValueError(
                f"late_policy must be 'drop' or 'error', got {self.late_policy!r}"
            )
        if self.retained_slots is not None and self.retained_slots < 1:
            raise ValueError(
                f"retained_slots must be >= 1 when set, got {self.retained_slots}"
            )

    @property
    def slots_per_day(self) -> int:
        return int(SECONDS_PER_DAY // self.slot_seconds)

    @property
    def horizon(self) -> int:
        """Deepest lookback any sample window needs, in slots."""
        return max(self.short_window, self.long_days * self.slots_per_day)

    @property
    def retention(self) -> int:
        """Slots kept behind the frontier: the sampling horizon, or more
        when ``retained_slots`` asks for a deeper training window."""
        return max(self.horizon, self.retained_slots or 0)

    @classmethod
    def for_dataset(
        cls,
        dataset: BikeShareDataset,
        late_policy: str = "drop",
        retained_slots: int | None = None,
    ) -> "FlowStateConfig":
        """A config matching a dataset's dimensions and windows."""
        return cls(
            num_stations=dataset.num_stations,
            slot_seconds=dataset.config.slot_seconds,
            short_window=dataset.config.short_window,
            long_days=dataset.config.long_days,
            late_policy=late_policy,
            retained_slots=retained_slots,
        )


@dataclass(frozen=True, slots=True)
class StoreSample(FlowSample):
    """A :class:`FlowSample` stamped with the store version it was read at.

    ``t`` and ``version`` are read under the same lock as the windows, so
    a forecast cache keyed on them never files a forecast under a version
    older than the windows it was computed from.
    """

    version: int


class LateEventError(ValueError):
    """An event landed behind the retained horizon under ``late_policy='error'``."""


class FlowStateStore:
    """Rolling inflow/outflow state, updated one trip event at a time.

    Thread-safe: ingest/advance/sample take an internal lock, so HTTP
    handler threads can feed the store while the prediction dispatcher
    reads windows from it.
    """

    def __init__(
        self,
        config: FlowStateConfig,
        frontier: int = 0,
        owned_stations: "np.ndarray | list[int] | None" = None,
        metric_prefix: str = "serve",
    ) -> None:
        if frontier < 0:
            raise ValueError(f"frontier must be >= 0, got {frontier}")
        self.config = config
        n = config.num_stations
        if owned_stations is None:
            self._owned: np.ndarray | None = None
            self._owned_sel: "slice | np.ndarray" = slice(0, n)
            self._local: np.ndarray | None = None
            rows = n
        else:
            owned = np.unique(np.asarray(owned_stations, dtype=int))
            if owned.size == 0:
                raise ValueError("owned_stations must name at least one station")
            if owned[0] < 0 or owned[-1] >= n:
                raise ValueError(
                    f"owned_stations must be in 0..{n - 1}, got "
                    f"{owned[0]}..{owned[-1]}"
                )
            self._owned = owned
            # Contiguous blocks (the ShardMap layout) scatter/gather with
            # a basic slice instead of fancy indexing.
            if owned.size == owned[-1] - owned[0] + 1:
                self._owned_sel = slice(int(owned[0]), int(owned[-1]) + 1)
            else:
                self._owned_sel = owned
            local = np.full(n, -1, dtype=np.int64)
            local[owned] = np.arange(owned.size)
            self._local = local
            rows = int(owned.size)
        self._rows = rows
        self._capacity = config.retention + 1  # retained slots: (f - R, f]
        self._inflow = np.zeros((self._capacity, rows, n))
        self._outflow = np.zeros((self._capacity, rows, n))
        self._pending_inflow: dict[int, np.ndarray] = {}
        self._frontier = frontier
        self._start_frontier = frontier
        self._warm_started = False
        #: Monotonic counter bumped whenever the windows visible to
        #: ``sample()`` may have changed (rollover or a late event
        #: landing behind the frontier). Forecast caches key on it.
        self.version = 0
        self._lock = threading.RLock()
        # Window buffers assembled for frontier ``_windows_at`` (None:
        # not assembled since the last bulk ring rewrite) and the slots
        # late events changed since the last sample(). Partitioned
        # stores cannot serve full windows (the fleet assembles them),
        # so they keep neither.
        self._windows_at: int | None = None
        self._dirty: set[int] | None = None
        if self._owned is None:
            self._dirty = set()
            self._alloc_windows()
        obs = default_registry()
        self._events_counter = obs.counter(f"{metric_prefix}.ingest_events")
        self._late_dropped_counter = obs.counter(
            f"{metric_prefix}.ingest_dropped_late"
        )
        self._rollover_counter = obs.counter(f"{metric_prefix}.rollovers")
        self._frontier_gauge = obs.gauge(f"{metric_prefix}.frontier")
        #: Rollover listeners: fn(store, closed_slots) called after each
        #: frontier advance with the range of slots that just closed.
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: BikeShareDataset,
        frontier: int | None = None,
        late_policy: str = "drop",
        owned_stations: "np.ndarray | list[int] | None" = None,
        metric_prefix: str = "serve",
        retained_slots: int | None = None,
    ) -> "FlowStateStore":
        """Warm-start a store from a dataset's materialized flow history.

        ``frontier`` defaults to ``dataset.num_slots`` — the store picks
        up exactly where the offline tensors end, with every retained
        slot already populated, so the first online prediction has full
        windows instead of a zero-padded warm-up. A partitioned store
        (``owned_stations``) copies only its own rows.
        """
        config = FlowStateConfig.for_dataset(
            dataset, late_policy=late_policy, retained_slots=retained_slots
        )
        frontier = dataset.num_slots if frontier is None else frontier
        if not 0 <= frontier <= dataset.num_slots:
            raise ValueError(
                f"frontier {frontier} outside the dataset's 0..{dataset.num_slots}"
            )
        store = cls(
            config,
            frontier=frontier,
            owned_stations=owned_stations,
            metric_prefix=metric_prefix,
        )
        first = max(0, frontier - config.retention)
        store.load_history(
            first, dataset.inflow[first:frontier], dataset.outflow[first:frontier]
        )
        return store

    def load_history(
        self,
        first: int,
        inflow: np.ndarray,
        outflow: np.ndarray,
        pending: "dict[int, np.ndarray] | None" = None,
    ) -> None:
        """Bulk-load full-city flow history into the ring (a warm start).

        ``inflow``/``outflow`` are ``(m, n, n)`` tensors for slots
        ``first .. first + m - 1``, all inside the retained range;
        ``pending`` maps return slots beyond the frontier to full-city
        ``(n, n)`` in-transit inflow. A partitioned store copies only
        its own rows. Marks the store warm and invalidates the assembled
        windows; :attr:`version` is the caller's to bump.
        """
        sel = self._owned_sel
        with self._lock:
            for idx in range(len(inflow)):
                row = (first + idx) % self._capacity
                self._inflow[row] = inflow[idx][sel]
                self._outflow[row] = outflow[idx][sel]
            for slot, full in (pending or {}).items():
                part = full[sel]
                if part.any():
                    self._pending_inflow[slot] = part.copy()
            self._warm_started = True
            self._windows_at = None

    def remap_stations(self, kept: np.ndarray, num_stations: int) -> float:
        """Re-index the station axes in place (continual graph evolution).

        Station ``kept[i]`` moves to position ``i`` on both axes of every
        retained slot and pending inflow; positions ``len(kept) ..
        num_stations - 1`` are new stations with zero history. Pending
        inflow touching a removed station is drained and its mass
        returned. Reallocates the window buffers and bumps
        :attr:`version`, invalidating every forecast cached on the old
        windows.
        """
        if self._owned is not None:
            raise ValueError(
                "evolve a partitioned store through its ShardedFlowStore"
            )
        kept = np.asarray(kept, dtype=int)
        k = len(kept)
        with self._lock:
            new_inflow = np.zeros((self._capacity, num_stations, num_stations))
            new_outflow = np.zeros_like(new_inflow)
            new_inflow[:, :k, :k] = self._inflow[:, kept][:, :, kept]
            new_outflow[:, :k, :k] = self._outflow[:, kept][:, :, kept]
            drained = 0.0
            new_pending: dict[int, np.ndarray] = {}
            for slot, pending in self._pending_inflow.items():
                sub = pending[np.ix_(kept, kept)]
                drained += float(pending.sum()) - float(sub.sum())
                if sub.any():
                    remapped = np.zeros((num_stations, num_stations))
                    remapped[:k, :k] = sub
                    new_pending[slot] = remapped
            self.config = replace(self.config, num_stations=num_stations)
            self._inflow = new_inflow
            self._outflow = new_outflow
            self._pending_inflow = new_pending
            self._rows = num_stations
            self._owned_sel = slice(0, num_stations)
            self._alloc_windows()
            self.version += 1
            return drained

    def _alloc_windows(self) -> None:
        """(Re)allocate the window buffers sample() assembles into.

        ``sample()`` hands out read-only views of them, so no consumer
        can put a buffer out of step with the ring it mirrors.
        """
        config = self.config
        n, k, d = config.num_stations, config.short_window, config.long_days
        self._short_in = np.empty((k, n, n))
        self._short_out = np.empty((k, n, n))
        self._long_in = np.empty((d, n, n))
        self._long_out = np.empty((d, n, n))
        views = []
        for buffer in (self._short_in, self._short_out, self._long_in, self._long_out):
            view = buffer.view()
            view.setflags(write=False)
            views.append(view)
        self._window_views = tuple(views)
        self._zero_target = np.zeros(n)
        self._zero_target.setflags(write=False)
        self._windows_at = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def frontier(self) -> int:
        """The open slot currently accumulating events."""
        return self._frontier

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def oldest_retained(self) -> int:
        """Oldest slot still held in the ring (never below 0)."""
        return max(0, self._frontier - self.config.retention)

    @property
    def owned_stations(self) -> "np.ndarray | None":
        """Global station ids this store holds rows for (None: all)."""
        return self._owned

    @property
    def owned_selector(self) -> "slice | np.ndarray":
        """Index into a full-city row axis selecting this store's rows."""
        return self._owned_sel

    @property
    def warmed_up(self) -> bool:
        """Whether every retained slot has been observed (or warm-started).

        A store constructed cold at ``frontier > 0`` reads zeros for the
        slots it never saw; until one full horizon of rollover those
        zeros leak into the sample windows.
        """
        return (
            self._warm_started
            or self._start_frontier == 0
            or self._frontier - self._start_frontier >= self.config.horizon
        )

    def __repr__(self) -> str:
        owned = "" if self._owned is None else f", owned={self._rows}"
        return (
            f"FlowStateStore(stations={self.config.num_stations}{owned}, "
            f"frontier={self._frontier}, horizon={self.config.horizon}, "
            f"pending={len(self._pending_inflow)}, version={self.version})"
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, trip: TripRecord) -> bool:
        """Fold one trip into the flow state; ``False`` if dropped as late."""
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
        """Fold one (origin, destination, start, end) event into the state.

        The frontier auto-advances when the event starts in a future
        slot, so a store fed in event-time order needs no external
        clock. Returns ``True`` if the event was applied, ``False`` if
        it was dropped by the late policy.
        """
        # Chaos seams: "state.clock" lets a plan skew this event's
        # timestamps in flight (modelling feed clock drift); the skewed
        # times then flow through the exact same validation and late
        # policy as real ones. "state.ingest" can crash/raise per event.
        fault_point("state.ingest")
        start_time, end_time = fault_transform(
            "state.clock", (start_time, end_time)
        )
        return self.apply_event(origin, destination, start_time, end_time)

    def apply_event(
        self,
        origin: int,
        destination: int,
        start_time: float,
        end_time: float,
    ) -> bool:
        """The validated application path behind :meth:`ingest_event`.

        Bypasses the per-event chaos seams so a routing layer
        (:class:`repro.serve.fleet.ShardedFlowStore`) that already ran
        them once can deliver the same event to both its origin and
        destination shards without double-firing ``state.ingest`` /
        ``state.clock``. A partitioned store applies only the
        sub-updates landing in rows it owns; the accept/drop verdict
        depends only on the (shared) slot clock, so every shard of a
        coherent fleet returns the same answer for the same event.
        """
        n = self.config.num_stations
        if not (0 <= origin < n and 0 <= destination < n):
            raise ValueError(
                f"station ids must be in 0..{n - 1}, got {origin}->{destination}"
            )
        slot_seconds = self.config.slot_seconds
        start_slot = int(start_time // slot_seconds)
        end_slot = int(end_time // slot_seconds)
        if start_slot < 0:
            raise ValueError(f"event starts before slot 0 (start_time={start_time})")
        with self._lock:
            if start_slot > self._frontier:
                self.advance_to(start_slot)
            if start_slot <= self._frontier - self._capacity:
                if self.config.late_policy == "error":
                    raise LateEventError(
                        f"event starting in slot {start_slot} is behind the "
                        f"retained horizon (oldest retained: "
                        f"{self._frontier - self.config.retention})"
                    )
                self._late_dropped_counter.inc()
                return False
            row = origin if self._local is None else int(self._local[origin])
            if row >= 0:
                self._outflow[start_slot % self._capacity][row, destination] += 1.0
                if start_slot < self._frontier:
                    # A late checkout changed an already-closed slot: any
                    # forecast computed from the old windows is stale.
                    self.version += 1
                    if self._dirty is not None:
                        self._dirty.add(start_slot)
            self._apply_inflow(destination, origin, end_slot)
            self._events_counter.inc()
            return True

    def _apply_inflow(self, station: int, counterpart: int, end_slot: int) -> None:
        """Credit an inflow at ``end_slot``, wherever that slot lives.

        Matches the batch builder: returns before slot 0 are ignored,
        returns beyond the frontier wait in the pending map, returns
        behind the horizon fall off (they can never be read again).
        Unowned rows of a partitioned store are skipped — the shard
        owning the destination station applies them instead.
        """
        row = station if self._local is None else int(self._local[station])
        if end_slot < 0 or row < 0:
            return
        if end_slot > self._frontier:
            pending = self._pending_inflow.get(end_slot)
            if pending is None:
                pending = np.zeros((self._rows, self.config.num_stations))
                self._pending_inflow[end_slot] = pending
            pending[row, counterpart] += 1.0
            return
        if end_slot <= self._frontier - self._capacity:
            return  # behind the horizon: unreadable, matches eviction
        self._inflow[end_slot % self._capacity][row, counterpart] += 1.0
        if end_slot < self._frontier:
            self.version += 1
            if self._dirty is not None:
                self._dirty.add(end_slot)

    # ------------------------------------------------------------------
    # Rollover
    # ------------------------------------------------------------------
    def advance_to(self, slot: int) -> None:
        """Move the frontier to ``slot``, finalizing every slot passed.

        Each newly opened slot starts from zeros (the ring row it
        claims belonged to the slot one full horizon earlier) plus any
        pending inflow from trips already known to end in it.
        """
        with self._lock:
            if slot < self._frontier:
                raise ValueError(
                    f"cannot advance backwards: frontier={self._frontier}, got {slot}"
                )
            if slot == self._frontier:
                return
            fault_point("state.rollover")
            gap = slot - self._frontier
            if gap >= self._capacity:
                # The entire ring is evicted; skip per-slot zeroing.
                self._inflow[:] = 0.0
                self._outflow[:] = 0.0
                fresh = range(slot - self._capacity + 1, slot + 1)
            else:
                fresh = range(self._frontier + 1, slot + 1)
                for s in fresh:
                    row = s % self._capacity
                    self._inflow[row] = 0.0
                    self._outflow[row] = 0.0
            for s in fresh:
                pending = self._pending_inflow.pop(s, None)
                if pending is not None:
                    self._inflow[s % self._capacity] += pending
            # Pending inflow for slots the frontier jumped clean over
            # (possible when gap >= capacity) is now behind the horizon.
            for s in [s for s in self._pending_inflow if s <= slot - self._capacity]:
                del self._pending_inflow[s]
            old_frontier = self._frontier
            self._frontier = slot
            self.version += 1
            if self._dirty is not None:
                self._dirty.clear()  # the next sample() regathers every window
            self._rollover_counter.inc(gap)
            self._frontier_gauge.set(slot)
            if self._listeners:
                # Still under the (reentrant) lock: listeners may call
                # realized()/sample() but must not block on other locks
                # held by ingest threads.
                closed = range(old_frontier, slot)
                for listener in self._listeners:
                    listener(self, closed)

    def add_rollover_listener(self, listener) -> None:
        """Register ``fn(store, closed_slots)`` to run after each advance.

        ``closed_slots`` is the ``range`` of slots finalized by that
        advance (old frontier inclusive, new frontier exclusive). The
        quality monitor uses this to reconcile forecasts the moment
        their target slot's realized flows are complete.
        """
        with self._lock:
            self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def realized(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Realized per-station ``(demand, supply)`` for a retained slot.

        Demand is the station's total outflow, supply its total inflow —
        the same row sums :func:`repro.data.flows.demand_supply` takes,
        so reconciliation compares forecasts against exactly what the
        offline evaluation would. Raises :class:`IndexError` once the
        slot has been evicted from the ring. A partitioned store
        returns ``(n_owned,)`` vectors covering :attr:`owned_stations`
        in ascending-id order.
        """
        slot = int(slot)
        with self._lock:
            if not self.oldest_retained <= slot <= self._frontier:
                raise IndexError(
                    f"slot {slot} is not retained "
                    f"({self.oldest_retained}..{self._frontier})"
                )
            row = slot % self._capacity
            return (
                self._outflow[row].sum(axis=1),
                self._inflow[row].sum(axis=1),
            )

    def sample(self) -> StoreSample:
        """The model input for predicting the current frontier slot.

        Windows are read-only views of buffers owned by the store
        (stable until the next ``sample()`` call), ordered exactly as
        :meth:`repro.data.dataset.BikeShareDataset.sample` orders them:
        short window oldest-first over ``[t-k, t)``, long window
        oldest-first over the same slot-of-day of the previous ``d``
        days. Target fields are zeros — the future is what the model is
        being asked for; ``version`` is the store version the windows
        were read at.

        The buffers stay assembled between calls. At the frontier they
        were built for, only the slots late events touched since the
        last call are re-copied from the ring; after a rollover or a
        bulk ring rewrite every window row is gathered afresh. Either
        way each window row is a plain copy of its ring row, so the
        result is bitwise the same.
        """
        config = self.config
        if self._owned is not None:
            raise ValueError(
                "a station-partitioned store holds only its own rows; "
                "assemble full windows through ShardedFlowStore.sample()"
            )
        with self._lock:
            t = self._frontier
            if t < config.horizon:
                raise IndexError(
                    f"frontier {t} has incomplete history windows "
                    f"(need at least {config.horizon} finalized slots)"
                )
            k, d, spd = config.short_window, config.long_days, config.slots_per_day
            if self._windows_at != t:
                short_rows = np.arange(t - k, t) % self._capacity
                long_rows = np.arange(t - d * spd, t, spd) % self._capacity
                np.take(self._inflow, short_rows, axis=0, out=self._short_in)
                np.take(self._outflow, short_rows, axis=0, out=self._short_out)
                np.take(self._inflow, long_rows, axis=0, out=self._long_in)
                np.take(self._outflow, long_rows, axis=0, out=self._long_out)
                self._windows_at = t
            else:
                # Every dirty slot was recorded at this frontier, so it
                # lies behind t: at most one short and one long row each.
                for slot in self._dirty:
                    row = slot % self._capacity
                    i = slot - (t - k)
                    if i >= 0:
                        self._short_in[i] = self._inflow[row]
                        self._short_out[i] = self._outflow[row]
                    days, rem = divmod(t - slot, spd)
                    if rem == 0 and days <= d:
                        self._long_in[d - days] = self._inflow[row]
                        self._long_out[d - days] = self._outflow[row]
            self._dirty.clear()
            short_in, short_out, long_in, long_out = self._window_views
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

    def scatter_window(
        self,
        slots: np.ndarray,
        inflow_out: np.ndarray,
        outflow_out: np.ndarray,
    ) -> None:
        """Copy the ring rows for ``slots`` into full-city buffers.

        ``*_out`` are ``(len(slots), n, n)`` arrays; only the rows this
        store owns are written (all of them for an unpartitioned store),
        so K disjoint shards scattering into the same buffers assemble
        the complete city bitwise. The caller is responsible for slot
        validity — this is the fleet's assembly primitive, running
        under the fleet lock with coherent shard clocks.
        """
        with self._lock:
            rows = slots % self._capacity
            inflow_out[:, self._owned_sel, :] = self._inflow[rows]
            outflow_out[:, self._owned_sel, :] = self._outflow[rows]

    def retained_tensors(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(first_slot, inflow, outflow)`` for every retained slot.

        The arrays are ``(m, n, n)`` contiguous copies covering slots
        ``first_slot .. frontier`` inclusive — the view the parity tests
        compare bitwise against ``build_flow_tensors``. A partitioned
        store returns its ``(m, n_owned, n)`` rows.
        """
        with self._lock:
            first = self.oldest_retained
            slots = np.arange(first, self._frontier + 1)
            rows = slots % self._capacity
            return first, self._inflow[rows].copy(), self._outflow[rows].copy()

    def history_window(
        self, slots: int | None = None, end: int | None = None
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Training-ready ``(first_slot, inflow, outflow)`` flow tensors.

        Returns contiguous copies of the last ``slots`` *finalized*
        slots ending at ``end`` (exclusive; defaults to the frontier, so
        the open, still-accumulating frontier row is never included).
        Rows are bitwise equal to the corresponding rows of
        :func:`repro.data.flows.build_flow_tensors` over the same event
        log — both paths accumulate integer-valued ``+= 1.0`` into
        float64 zeros, so the continual trainer retrains on exactly the
        tensors the offline pipeline would have built. Raises
        :class:`ValueError` when the requested range reaches behind
        :attr:`oldest_retained` (deepen ``retained_slots`` to keep
        more). A partitioned store returns its owned rows only;
        :meth:`repro.serve.fleet.ShardedFlowStore.history_window`
        assembles the full city.
        """
        with self._lock:
            stop = self._frontier if end is None else int(end)
            if not 0 <= stop <= self._frontier:
                raise ValueError(
                    f"end must be in 0..{self._frontier} (the frontier), got {stop}"
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
            rows = slot_ids % self._capacity
            return start, self._inflow[rows].copy(), self._outflow[rows].copy()
