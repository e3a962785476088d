"""Seeded workload inputs: station layouts and trip streams.

Everything the system under test receives is made here from the run's
``--seed`` and nothing else, as plain columnar numpy arrays. The system
builds its own datasets, stores and models from them through the
library's public API, so a later change to ``repro.data`` (cleaning,
flow building, the synthetic city generator) changes the measured
system, never the inputs.

The generator is deliberately simple and fast (vectorised, well under a
second for a week of 571-station traffic): popularity-weighted origins
and destinations, a two-peak commute day plus a flat background, and
5-60 minute rides. It is not ``repro.data.synthetic``: that generator is
part of the program and takes ~1.5 s per simulated 571-station day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class CitySpec:
    """Shape of one benchmark city (mirrors a ``SyntheticCityConfig`` preset)."""

    name: str
    num_stations: int
    days: int
    trips_per_station_day: float
    slot_seconds: float
    short_window: int
    long_days: int

    @property
    def slots_per_day(self) -> int:
        return int(SECONDS_PER_DAY // self.slot_seconds)

    @property
    def num_slots(self) -> int:
        return self.days * self.slots_per_day

    @property
    def horizon_slots(self) -> int:
        """Slots a serving store retains behind its frontier (the deepest sample window)."""
        return max(self.short_window, self.long_days * self.slots_per_day)


# The paper-scale Divvy tier (SyntheticCityConfig.chicago_571) with the
# fewest days that still give it a train and a validation day: the
# 3-day long window eats days 0-2, day 3 trains, day 4 validates.
CHICAGO_571 = CitySpec("chicago-571", 571, 6, 30.0, 1800.0, 48, 3)
# SyntheticCityConfig.chicago_like(num_stations=40): Divvy traffic
# density on a city small enough that its flow matrices fit in cache.
# 14 days leave 2 train days and 1 validation day after the 7-day window.
CHICAGO_40 = CitySpec("chicago-40", 40, 14, 300.0, 900.0, 96, 7)
# Same city for the fleet; 12 days is the least that still fits the
# dataset's normalisers (1 train day after the 7-day long window).
CHICAGO_40_FLEET = CitySpec("chicago-40", 40, 12, 300.0, 900.0, 96, 7)


def station_coords(spec: CitySpec, seed: int) -> np.ndarray:
    """``(n, 2)`` longitude/latitude around Chicago's centre."""
    rng = np.random.default_rng([seed, 1])
    offsets = rng.normal(0.0, 0.04, size=(spec.num_stations, 2))
    return offsets + np.array([-87.63, 41.88])


def _trips(rng: np.random.Generator, n: int, count: int, t0: float,
           t1: float, popularity: np.ndarray) -> dict[str, np.ndarray]:
    """``count`` trips starting in ``[t0, t1)``, sorted by start time."""
    day0 = np.floor(t0 / SECONDS_PER_DAY)
    span_days = max(1, int(np.ceil((t1 - day0 * SECONDS_PER_DAY) / SECONDS_PER_DAY)))
    kind = rng.random(count)
    tod = np.where(
        kind < 0.35, rng.normal(8.5 * 3600, 3600, count),
        np.where(kind < 0.7, rng.normal(17.5 * 3600, 4300, count),
                 rng.uniform(6 * 3600, 23 * 3600, count)),
    )
    tod = np.clip(tod, 0.0, SECONDS_PER_DAY - 1.0)
    start = (day0 + rng.integers(0, span_days, count)) * SECONDS_PER_DAY + tod
    start = np.where((start < t0) | (start >= t1), rng.uniform(t0, t1, count), start)
    order = np.argsort(start, kind="stable")
    start = start[order]
    duration = rng.uniform(300.0, 3600.0, count)
    return {
        "origin": rng.choice(n, size=count, p=popularity),
        "destination": rng.choice(n, size=count, p=popularity),
        "start_time": start,
        "end_time": start + duration,
    }


def _popularity(spec: CitySpec, seed: int) -> np.ndarray:
    weights = np.random.default_rng([seed, 2]).lognormal(0.0, 0.8, spec.num_stations)
    return weights / weights.sum()


def history_trips(spec: CitySpec, seed: int) -> dict[str, np.ndarray]:
    """The trip log the system builds its training/warm-start dataset from."""
    rng = np.random.default_rng([seed, 3])
    count = int(spec.trips_per_station_day * spec.num_stations * spec.days)
    return _trips(rng, spec.num_stations, count, 0.0,
                  spec.num_slots * spec.slot_seconds, _popularity(spec, seed))


def live_stream(spec: CitySpec, seed: int, days: int) -> dict[str, np.ndarray]:
    """``days`` of live traffic after the history ends, made dirty.

    The dirt and its proportions are those of the repository's fleet
    replay (``benchmarks/loadgen.py``, ``generate_trips``), so this
    workload weighs the store's paths as that replay does:

    * every event shuffled within its window of 64 (out-of-order feeds);
    * 0.5% late by 0.5-3 slots: applied in place into a closed slot
      (they bump the store version);
    * 0.05% ancient, 6-106 slots behind the retained horizon: the store
      drops and counts them;
    * 2% negative durations, the return up to 10 minutes before the
      checkout.
    """
    rng = np.random.default_rng([seed, 4])
    t0 = spec.num_slots * spec.slot_seconds
    count = int(spec.trips_per_station_day * spec.num_stations * days)
    trips = _trips(rng, spec.num_stations, count, t0,
                   t0 + days * SECONDS_PER_DAY, _popularity(spec, seed))
    order = np.argsort(np.arange(count) // 64 + rng.random(count), kind="stable")
    trips = {key: column[order] for key, column in trips.items()}
    start, duration = trips["start_time"], trips["end_time"] - trips["start_time"]
    late = rng.random(count) < 0.005
    start = start - np.where(late, rng.uniform(0.5, 3.0, count) * spec.slot_seconds, 0.0)
    ancient = rng.random(count) < 0.0005
    behind = spec.horizon_slots + rng.uniform(6.0, 106.0, count)
    start = start - np.where(ancient, behind * spec.slot_seconds, 0.0)
    negative = rng.random(count) < 0.02
    duration = np.where(negative, -rng.uniform(0.0, 600.0, count), duration)
    trips["start_time"], trips["end_time"] = start, start + duration
    return trips


def late_trips(spec: CitySpec, seed: int, count: int) -> dict[str, np.ndarray]:
    """Single late trips landing in the closed slots just behind the frontier."""
    rng = np.random.default_rng([seed, 5])
    frontier_start = spec.num_slots * spec.slot_seconds
    start = frontier_start - rng.uniform(1.0, 12 * spec.slot_seconds, count)
    end = np.minimum(start + rng.uniform(60.0, 1800.0, count), frontier_start - 1.0)
    n = spec.num_stations
    return {
        "origin": rng.integers(0, n, count),
        "destination": rng.integers(0, n, count),
        "start_time": start,
        "end_time": end,
    }
