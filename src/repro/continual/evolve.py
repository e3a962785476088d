"""Graph evolution: grow/shrink the station set without a restart.

Real systems open and close docked stations while the service runs.
Every station-indexed structure in the stack — the ``(T, n, n)`` flow
tensors, the FCG/PCG (recomputed per forward from node features), the
model's parameter matrices, the optimizer's Adam moments — carries the
station axis explicitly, so evolving the graph is a *remap*, not a
retrain:

* A :class:`GraphEvolution` names which old stations survive (``kept``,
  ascending; a kept station's new id is its position in ``kept``) and
  how many brand-new stations are appended after them.
* :func:`evolve_model` builds a **donor** model at the new size from a
  seeded RNG — running the exact constructor-time initializers (xavier
  fans at the new width, the projection's identity stack, the
  PatternGNN value scaling) — then copies every kept station's rows and
  columns out of the old parameters. New stations keep the donor's
  deterministic initialization; two calls with the same seed produce
  bitwise-identical models.
* :func:`evolve_flow_store` / :func:`evolve_sharded_store` remap the
  live ring buffers in place under the store lock (kept rows/columns
  copied, removed stations' pending inflows drained and counted), so
  serving never restarts.
* :func:`evolve_training_snapshot` carries the warm-start state across:
  kept positions of the Adam moments move with their parameters, new
  positions start at zero (a fresh station has no gradient history).

Because a kept position is copied verbatim, **grow-then-shrink back to
the original station set is bitwise-identity** on every parameter — the
golden test ``tests/golden/test_golden_evolution.py`` pins this all the
way through FCG/PCG construction to the forward outputs.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from repro.core.model import STGNNDJD
from repro.core.persistence import TrainingSnapshot, training_fingerprint
from repro.data.stations import Station, StationRegistry
from repro.serve.fleet.shard import ShardedFlowStore, ShardMap
from repro.serve.state import FlowStateStore


@dataclasses.dataclass(frozen=True)
class GraphEvolution:
    """One station-set change: which old ids survive, how many appear.

    ``kept`` lists the surviving *old* station ids in ascending order; a
    kept station's **new** id is its index in ``kept``. ``new_count``
    brand-new stations are appended after the kept block (new ids
    ``len(kept) .. len(kept)+new_count-1``).
    """

    old_num_stations: int
    kept: tuple[int, ...]
    new_count: int = 0

    def __post_init__(self) -> None:
        if self.old_num_stations < 1:
            raise ValueError("old_num_stations must be >= 1")
        if self.new_count < 0:
            raise ValueError(f"new_count must be >= 0, got {self.new_count}")
        kept = tuple(int(i) for i in self.kept)
        object.__setattr__(self, "kept", kept)
        if not kept:
            raise ValueError("at least one station must be kept")
        if list(kept) != sorted(set(kept)):
            raise ValueError("kept must be strictly ascending without duplicates")
        if kept[0] < 0 or kept[-1] >= self.old_num_stations:
            raise ValueError(
                f"kept ids must be in 0..{self.old_num_stations - 1}"
            )
        if self.num_stations < 2:
            raise ValueError(
                "the evolved city needs at least 2 stations (model minimum)"
            )

    @property
    def num_stations(self) -> int:
        return len(self.kept) + self.new_count

    @property
    def removed(self) -> tuple[int, ...]:
        kept = set(self.kept)
        return tuple(
            i for i in range(self.old_num_stations) if i not in kept
        )

    @property
    def kept_array(self) -> np.ndarray:
        return np.asarray(self.kept, dtype=np.int64)

    def is_identity(self) -> bool:
        return (
            self.new_count == 0
            and len(self.kept) == self.old_num_stations
        )

    @classmethod
    def grow(cls, num_stations: int, add: int) -> "GraphEvolution":
        """Append ``add`` new stations, keeping every existing one."""
        return cls(num_stations, tuple(range(num_stations)), add)

    @classmethod
    def shrink(cls, num_stations: int, removed) -> "GraphEvolution":
        """Retire the stations in ``removed``, keeping the rest."""
        gone = {int(i) for i in removed}
        kept = tuple(i for i in range(num_stations) if i not in gone)
        return cls(num_stations, kept, 0)


# ----------------------------------------------------------------------
# Parameter remapping
# ----------------------------------------------------------------------
#: Parameters with no station-indexed axis: copied verbatim.
_VERBATIM = tuple(
    re.compile(p)
    for p in (
        r"flow_conv\.(short|long)_(in|out)flow_conv\.weight$",
        r"predictor\.bias$",
    )
)

#: name pattern -> per-axis flags (True = station-indexed). A station
#: axis has length ``blocks * n`` for an integer block count inferred
#: from the shapes (2 for the [U_in; U_out] concat transforms, the head
#: count for the attention mix, the branch count for the predictor).
_STATION_AXES = tuple(
    (re.compile(p), flags)
    for p, flags in (
        (r"flow_conv\.(short|long)_(in|out)flow_conv\.bias$", (True, True)),
        (r"flow_conv\.gate_(in|out)flow$", (True, True)),
        (r"flow_conv\.projection$", (True, True)),
        (r"free_features$", (True, True)),
        (r"flow_gnn\.aggregators\.\d+\.transform\.weight$", (True, True)),
        (r"flow_gnn\.aggregators\.\d+\.transform\.bias$", (True,)),
        (r"flow_gnn\.transforms\.\d+\.weight$", (True, True)),
        (r"flow_gnn\.transforms\.\d+\.bias$", (True,)),
        (r"pattern_gnn\.layers\.\d+\.mix$", (True, True)),
        (r"pattern_gnn\.layers\.\d+\.attentions\.\d+\.weight$", (True, True)),
        (
            r"pattern_gnn\.layers\.\d+\.attentions\.\d+\.attn_(src|dst)$",
            (True, False),
        ),
        (r"pattern_gnn\.layers\.\d+\.(values|selves)\.\d+\.weight$", (True, True)),
        (r"pattern_gnn\.pools\.\d+\.transform\.weight$", (True, True)),
        (r"pattern_gnn\.pools\.\d+\.transform\.bias$", (True,)),
        (r"pattern_gnn\.transforms\.\d+\.weight$", (True, True)),
        (r"pattern_gnn\.transforms\.\d+\.bias$", (True,)),
        (r"predictor\.weight$", (True, False)),
    )
)


def _station_axis_flags(name: str, ndim: int) -> tuple[bool, ...] | None:
    """Which axes of parameter ``name`` index stations; None = verbatim."""
    for pattern in _VERBATIM:
        if pattern.match(name):
            return None
    for pattern, flags in _STATION_AXES:
        if pattern.match(name):
            if len(flags) != ndim:
                raise ValueError(
                    f"parameter {name!r} has {ndim} axes, rule expects "
                    f"{len(flags)}"
                )
            return flags
    raise KeyError(
        f"no graph-evolution rule for parameter {name!r}; add one to "
        f"repro.continual.evolve before evolving this architecture"
    )


def evolve_array(
    name: str,
    old: np.ndarray,
    donor: np.ndarray,
    evolution: GraphEvolution,
) -> np.ndarray:
    """Copy kept station positions of ``old`` into a copy of ``donor``.

    ``donor`` supplies the values for new-station positions (a seeded
    fresh initialization, or zeros for optimizer moments). Verbatim
    parameters ignore the donor entirely.
    """
    old_n = evolution.old_num_stations
    new_n = evolution.num_stations
    flags = _station_axis_flags(name, old.ndim)
    out = np.array(donor, copy=True)
    if flags is None:
        if old.shape != donor.shape:
            raise ValueError(
                f"verbatim parameter {name!r} changed shape: "
                f"{old.shape} -> {donor.shape}"
            )
        out[...] = old
        return out
    kept = evolution.kept_array
    src_axes = []
    dst_axes = []
    for axis, station_indexed in enumerate(flags):
        if not station_indexed:
            if old.shape[axis] != donor.shape[axis]:
                raise ValueError(
                    f"non-station axis {axis} of {name!r} changed size: "
                    f"{old.shape[axis]} -> {donor.shape[axis]}"
                )
            src_axes.append(np.arange(old.shape[axis]))
            dst_axes.append(np.arange(donor.shape[axis]))
            continue
        blocks, rem = divmod(old.shape[axis], old_n)
        if rem or blocks < 1 or donor.shape[axis] != blocks * new_n:
            raise ValueError(
                f"axis {axis} of {name!r} is not station-blocked: "
                f"old {old.shape[axis]} (n={old_n}), "
                f"donor {donor.shape[axis]} (n={new_n})"
            )
        src_axes.append(
            np.concatenate([b * old_n + kept for b in range(blocks)])
        )
        dst_axes.append(
            np.concatenate(
                [b * new_n + np.arange(len(kept)) for b in range(blocks)]
            )
        )
    out[np.ix_(*dst_axes)] = old[np.ix_(*src_axes)]
    return out


def evolve_state_dict(
    old_state: dict[str, np.ndarray],
    donor_state: dict[str, np.ndarray],
    evolution: GraphEvolution,
) -> dict[str, np.ndarray]:
    """Remap a full parameter dict; name sets must match exactly."""
    if set(old_state) != set(donor_state):
        missing = set(donor_state) - set(old_state)
        extra = set(old_state) - set(donor_state)
        raise KeyError(
            f"state dicts disagree (missing={sorted(missing)}, "
            f"extra={sorted(extra)}); graph evolution cannot change the "
            f"architecture, only the station count"
        )
    return {
        name: evolve_array(name, old_state[name], donor_state[name], evolution)
        for name in donor_state
    }


def evolve_model(
    model: STGNNDJD, evolution: GraphEvolution, seed: int = 0
) -> STGNNDJD:
    """A new-size model: kept stations keep their weights, new ones get
    a deterministic seeded initialization (the donor's constructor)."""
    if model.config.num_stations != evolution.old_num_stations:
        raise ValueError(
            f"model has {model.config.num_stations} stations, evolution "
            f"starts from {evolution.old_num_stations}"
        )
    new_config = dataclasses.replace(
        model.config, num_stations=evolution.num_stations
    )
    donor = STGNNDJD(new_config, rng=np.random.default_rng(seed))
    state = evolve_state_dict(
        model.state_dict(), donor.state_dict(), evolution
    )
    donor.load_state_dict(state)
    donor.eval()
    return donor


def evolve_training_snapshot(
    snapshot: TrainingSnapshot,
    old_config,
    evolution: GraphEvolution,
    seed: int = 0,
) -> TrainingSnapshot:
    """Carry warm-start state across a station-set change.

    Model parameters (and the early-stopping best state, if present)
    remap like the live model; Adam's first/second moments move with
    their kept positions and start at **zero** for new stations — a
    fresh station has no gradient history, and nonzero moments would
    bias its first updates. The fingerprint is recomputed for the new
    station count so :meth:`repro.core.trainer.Trainer.warm_start`
    accepts the evolved snapshot against an evolved model.
    """
    if old_config.num_stations != evolution.old_num_stations:
        raise ValueError(
            f"config has {old_config.num_stations} stations, evolution "
            f"starts from {evolution.old_num_stations}"
        )
    new_config = dataclasses.replace(
        old_config, num_stations=evolution.num_stations
    )
    donor = STGNNDJD(new_config, rng=np.random.default_rng(seed))
    donor_state = donor.state_dict()
    names = [name for name, _ in donor.named_parameters()]
    if len(names) != len(snapshot.adam_m):
        raise ValueError(
            f"snapshot carries {len(snapshot.adam_m)} moment arrays for "
            f"{len(names)} parameters; architecture mismatch"
        )
    model_state = evolve_state_dict(
        snapshot.model_state, donor_state, evolution
    )
    best_state = None
    if snapshot.best_state is not None:
        best_state = evolve_state_dict(
            snapshot.best_state, donor_state, evolution
        )
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for i, name in enumerate(names):
        key = f"{i:04d}"
        zero = np.zeros_like(donor_state[name])
        adam_m[key] = evolve_array(
            name, snapshot.adam_m[key], zero, evolution
        )
        adam_v[key] = evolve_array(
            name, snapshot.adam_v[key], np.zeros_like(zero), evolution
        )
    return dataclasses.replace(
        snapshot,
        model_state=model_state,
        best_state=best_state,
        adam_m=adam_m,
        adam_v=adam_v,
        fingerprint=training_fingerprint(donor),
    )


def evolve_registry(
    registry: StationRegistry,
    evolution: GraphEvolution,
    new_stations: list[Station] | None = None,
) -> StationRegistry:
    """The evolved station registry (kept stations re-id'd by position).

    ``new_stations`` supplies metadata for appended stations; omitted,
    they get placeholder coordinates at the kept stations' centroid.
    """
    stations = list(registry)
    picked = [stations[i] for i in evolution.kept]
    if new_stations is not None and len(new_stations) != evolution.new_count:
        raise ValueError(
            f"expected {evolution.new_count} new stations, got "
            f"{len(new_stations)}"
        )
    out: list[Station] = []
    for new_id, station in enumerate(picked):
        out.append(
            dataclasses.replace(station, station_id=new_id)
        )
    if evolution.new_count:
        lon = float(np.mean([s.longitude for s in picked]))
        lat = float(np.mean([s.latitude for s in picked]))
        for j in range(evolution.new_count):
            new_id = len(picked) + j
            if new_stations is not None:
                station = dataclasses.replace(
                    new_stations[j], station_id=new_id
                )
            else:
                station = Station(
                    station_id=new_id, longitude=lon, latitude=lat,
                    name=f"new-{new_id}",
                )
            out.append(station)
    return StationRegistry(out)


# ----------------------------------------------------------------------
# Live store evolution
# ----------------------------------------------------------------------
def evolve_flow_store(
    store: FlowStateStore, evolution: GraphEvolution
) -> float:
    """Grow/shrink a live store's station axes in place.

    Kept stations' retained rows and columns (and pending inflows) move
    to their new positions; new stations start with zero history;
    removed stations' pending inflows are drained — returned as the
    dropped event mass so callers can account for the retired trips.
    Runs under the store lock and bumps :attr:`FlowStateStore.version`,
    invalidating every forecast cache keyed on the old windows.
    """
    if store.config.num_stations != evolution.old_num_stations:
        raise ValueError(
            f"store has {store.config.num_stations} stations, evolution "
            f"starts from {evolution.old_num_stations}"
        )
    return store.remap_stations(evolution.kept_array, evolution.num_stations)


def evolve_sharded_store(
    fleet: ShardedFlowStore, evolution: GraphEvolution
) -> float:
    """Grow/shrink a sharded store in place (rebalanced shard blocks).

    Retained history is assembled, remapped exactly like the single
    store's, and redistributed over a fresh :class:`ShardMap` at the new
    station count (shard count capped at the new count). The fleet
    object identity — and its registered rollover listeners — survive,
    so services keep their store reference across the evolution.
    """
    with fleet._lock:
        fleet._heal()
        old_cfg = fleet.config
        if old_cfg.num_stations != evolution.old_num_stations:
            raise ValueError(
                f"store has {old_cfg.num_stations} stations, evolution "
                f"starts from {evolution.old_num_stations}"
            )
        frontier = fleet.frontier
        old_version = fleet.version
        new_n = evolution.num_stations
        kept = evolution.kept_array
        k = len(kept)
        first, inflow, outflow = fleet.retained_tensors()
        new_inflow = np.zeros((inflow.shape[0], new_n, new_n))
        new_outflow = np.zeros_like(new_inflow)
        new_inflow[:, :k, :k] = inflow[:, kept][:, :, kept]
        new_outflow[:, :k, :k] = outflow[:, kept][:, :, kept]
        # Assemble full-city pending inflow per slot before remapping.
        old_n = old_cfg.num_stations
        pending_full: dict[int, np.ndarray] = {}
        for shard in fleet.shards:
            sel = shard.owned_selector
            for slot, pending in shard._pending_inflow.items():
                full = pending_full.get(slot)
                if full is None:
                    full = np.zeros((old_n, old_n))
                    pending_full[slot] = full
                full[sel] = pending
        new_cfg = dataclasses.replace(old_cfg, num_stations=new_n)
        num_shards = min(fleet.map.num_shards, new_n)
        fleet.map = ShardMap(new_n, num_shards)
        fleet.config = new_cfg
        drained = 0.0
        new_pending: dict[int, np.ndarray] = {}
        for slot, full in pending_full.items():
            sub = full[np.ix_(kept, kept)]
            drained += float(full.sum()) - float(sub.sum())
            if sub.any():
                remapped = np.zeros((new_n, new_n))
                remapped[:k, :k] = sub
                new_pending[slot] = remapped
        shards: list[FlowStateStore] = []
        for i in range(num_shards):
            shard = FlowStateStore(
                new_cfg,
                frontier=frontier,
                owned_stations=fleet.map.stations(i),
                metric_prefix=f"serve.shard{i}",
            )
            shard.load_history(first, new_inflow, new_outflow, new_pending)
            shards.append(shard)
        # Keep the fleet version monotonic across the rebuild: forecast
        # caches key on it, and a reset-to-zero could collide with an
        # old key.
        shards[0].version = old_version + 1
        fleet.shards = shards
        fleet._zero_target = np.zeros(new_n)
        fleet._zero_target.setflags(write=False)
        return drained
