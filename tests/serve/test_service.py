"""PredictionService: batching, caching, backpressure, hot-reload."""

import threading

import numpy as np
import pytest

from repro.core import STGNNDJD, Trainer, save_checkpoint
from repro.core.persistence import CheckpointSchemaError
from repro.faults import FaultPlan, injected
from repro.serve import (
    FlowStateStore,
    PredictionService,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    ShardedFlowStore,
)
from repro.serve.service import _Request


@pytest.fixture(scope="module")
def served_model(tiny_dataset):
    """An untrained (but fully functional) model sized to the dataset."""
    return STGNNDJD.from_dataset(tiny_dataset, seed=3)


@pytest.fixture
def service(served_model, tiny_dataset):
    return PredictionService.for_dataset(served_model, tiny_dataset)


class TestSynchronousPath:
    def test_full_forecast_shapes(self, service, tiny_dataset):
        forecast = service.predict()
        n = tiny_dataset.num_stations
        assert forecast.slot == tiny_dataset.num_slots
        assert forecast.demand.shape == (n,)
        assert forecast.supply.shape == (n,)
        assert list(forecast.stations) == list(range(n))

    def test_station_subset(self, service):
        full = service.predict()
        subset = service.predict(stations=[2, 0])
        np.testing.assert_array_equal(subset.demand, full.demand[[2, 0]])
        np.testing.assert_array_equal(subset.supply, full.supply[[2, 0]])

    def test_unknown_station_rejected(self, service, tiny_dataset):
        with pytest.raises(ValueError):
            service.predict(stations=[tiny_dataset.num_stations])

    def test_matches_trainer_predict(self, served_model, tiny_dataset):
        """The serving path reproduces the offline prediction exactly."""
        t = tiny_dataset.min_history + 5
        service = PredictionService.for_dataset(
            served_model, tiny_dataset, frontier=t
        )
        offline_demand, offline_supply = Trainer(
            served_model, tiny_dataset
        ).predict(t)
        forecast = service.predict()
        np.testing.assert_allclose(forecast.demand, offline_demand, rtol=1e-12)
        np.testing.assert_allclose(forecast.supply, offline_supply, rtol=1e-12)

    def test_incompatible_model_rejected(self, tiny_dataset, mini_dataset):
        wrong = STGNNDJD.from_dataset(mini_dataset, seed=0)
        with pytest.raises(ServiceError):
            PredictionService.for_dataset(wrong, tiny_dataset)


class TestForecastCache:
    def test_second_request_is_cached(self, service):
        assert service.predict().cached is False
        assert service.predict().cached is True

    def test_cache_invalidated_by_rollover(self, service, tiny_dataset):
        service.predict()
        service.store.advance_to(service.store.frontier + 1)
        forecast = service.predict()
        assert forecast.cached is False
        assert forecast.slot == tiny_dataset.num_slots + 1

    def test_cache_invalidated_by_late_event(self, service, tiny_dataset):
        service.predict()
        # A late return lands in a closed slot inside the window.
        slot_seconds = tiny_dataset.config.slot_seconds
        late = (service.store.frontier - 1) * slot_seconds + 1.0
        service.store.ingest_event(0, 1, start_time=late, end_time=late + 60.0)
        assert service.predict().cached is False

    def test_open_slot_events_do_not_invalidate(self, service, tiny_dataset):
        service.predict()
        now = service.store.frontier * tiny_dataset.config.slot_seconds + 1.0
        service.store.ingest_event(0, 1, start_time=now, end_time=now + 60.0)
        assert service.predict().cached is True

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "fleet"])
    def test_event_before_sampling_files_forecast_under_sampled_version(
        self, served_model, tiny_dataset, sharded
    ):
        """A late trip landing between the cache lookup and sample() must
        not leave the forecast filed under the pre-event version."""
        if sharded:
            store = ShardedFlowStore.from_dataset(tiny_dataset, num_shards=2)
        else:
            store = FlowStateStore.from_dataset(tiny_dataset)
        service = PredictionService(
            served_model, store,
            tiny_dataset.demand_normalizer, tiny_dataset.supply_normalizer,
        )
        late = (store.frontier - 1) * tiny_dataset.config.slot_seconds + 1.0
        plan = FaultPlan(seed=0).on(
            "serve.forecast", action="call", at=1,
            callback=lambda site: store.ingest_event(0, 1, late, late + 60.0),
        )
        with injected(plan):
            first = service.predict()
        assert len(plan.fired) == 1 and first.cached is False
        again = service.predict()
        assert again.cached is True
        np.testing.assert_array_equal(again.demand, first.demand)
        np.testing.assert_array_equal(again.supply, first.supply)

    def test_cache_disabled(self, served_model, tiny_dataset):
        service = PredictionService.for_dataset(
            served_model, tiny_dataset, config=ServiceConfig(cache=False)
        )
        assert service.predict().cached is False
        assert service.predict().cached is False


class TestDispatcher:
    def test_concurrent_requests_coalesce_to_one_forward(
        self, served_model, tiny_dataset
    ):
        service = PredictionService.for_dataset(
            served_model, tiny_dataset,
            config=ServiceConfig(max_batch=32, batch_wait_seconds=0.05),
        )
        # store.sample() runs exactly once per actual model forward, so
        # counting it measures how many forwards 16 concurrent requests
        # cost. Batching + the forecast cache must collapse them to one.
        forwards = 0
        original_sample = service.store.sample

        def counting_sample():
            nonlocal forwards
            forwards += 1
            return original_sample()

        service.store.sample = counting_sample
        results = [None] * 16
        with service:
            def call(i):
                results[i] = service.predict()

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert all(r is not None for r in results)
        assert forwards == 1
        reference = results[0]
        for result in results[1:]:
            np.testing.assert_array_equal(result.demand, reference.demand)

    def test_backpressure_rejects_when_queue_full(
        self, served_model, tiny_dataset
    ):
        service = PredictionService.for_dataset(
            served_model, tiny_dataset,
            config=ServiceConfig(
                max_batch=1, batch_wait_seconds=0.0, queue_depth=2,
                retry_after_seconds=0.123,
            ),
        )
        release = threading.Event()
        first_picked = threading.Event()
        original = service._full_forecast

        def blocking(model, version):
            first_picked.set()
            release.wait(timeout=10.0)
            return original(model, version)

        service._full_forecast = blocking
        errors: list[BaseException] = []
        done: list = []

        def call():
            try:
                done.append(service.predict(timeout=10.0))
            except BaseException as error:
                errors.append(error)

        with service:
            t1 = threading.Thread(target=call)
            t1.start()
            assert first_picked.wait(timeout=5.0)  # dispatcher is busy
            # Fill the queue (depth 2) synchronously behind the wedged
            # dispatcher — no polling, the state is deterministic.
            backlog = [_Request(None), _Request(None)]
            for request in backlog:
                service._queue.put_nowait(request)
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.predict()
            # The hint is jittered (thundering-herd decorrelation):
            # base <= hint <= base * (1 + retry_jitter).
            assert 0.123 <= excinfo.value.retry_after <= 0.123 * 1.5
            release.set()
            t1.join(timeout=10.0)
            for request in backlog:  # rejected != dropped: these finish
                assert request.done.wait(timeout=10.0)
                assert request.error is None
                assert request.forecast is not None
        assert not errors
        assert len(done) == 1

    def test_stop_fails_queued_requests(self, service):
        # Stopping is safe to call repeatedly and without starting.
        service.stop()
        service.start()
        service.stop()
        assert not service.running
        assert service.predict() is not None  # falls back to sync path


class TestHotReload:
    def _checkpoint(self, dataset, path, seed):
        model = STGNNDJD.from_dataset(dataset, seed=seed)
        save_checkpoint(model, path)
        return model

    def test_reload_swaps_weights_atomically(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        self._checkpoint(tiny_dataset, path, seed=1)
        service = PredictionService.from_checkpoint(
            path,
            FlowStateStore.from_dataset(tiny_dataset),
            tiny_dataset.demand_normalizer,
            tiny_dataset.supply_normalizer,
        )
        before = service.predict()
        assert service.model_version == 0

        self._checkpoint(tiny_dataset, path, seed=2)  # different weights
        version = service.reload()
        assert version == 1 == service.model_version
        after = service.predict()
        assert after.cached is False  # model version keys the cache
        assert not np.array_equal(before.demand, after.demand)

    def test_reload_requires_a_path(self, service):
        with pytest.raises(ServiceError):
            service.reload()

    def test_schema_mismatch_fails_loudly_and_keeps_old_model(
        self, service, tiny_dataset, tmp_path
    ):
        bad = tmp_path / "bad.npz"
        np.savez(bad, __schema_version__=np.asarray(99, dtype=np.int64))
        before = service.predict()
        with pytest.raises(CheckpointSchemaError):
            service.reload(bad)
        assert service.model_version == 0
        np.testing.assert_array_equal(service.predict().demand, before.demand)

    def test_dimension_mismatch_rejected(self, service, mini_dataset, tmp_path):
        path = tmp_path / "wrong.npz"
        save_checkpoint(STGNNDJD.from_dataset(mini_dataset, seed=0), path)
        with pytest.raises(ServiceError):
            service.reload(path)
        assert service.model_version == 0

    def test_watcher_reloads_on_file_change(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        self._checkpoint(tiny_dataset, path, seed=1)
        service = PredictionService.from_checkpoint(
            path,
            FlowStateStore.from_dataset(tiny_dataset),
            tiny_dataset.demand_normalizer,
            tiny_dataset.supply_normalizer,
            config=ServiceConfig(
                checkpoint_path=str(path), reload_poll_seconds=0.05
            ),
        )
        with service:
            self._checkpoint(tiny_dataset, path, seed=2)
            # Event-based wait: the service signals every reload outcome.
            assert service.reload_ok_event.wait(timeout=10.0)
        assert service.model_version >= 1
