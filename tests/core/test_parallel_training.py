"""Data-parallel gradient engine: serial equivalence and lifecycle.

The contract under test (see ``core/parallel.py``): with a deterministic
model (dropout 0), training with ``workers=K`` must reproduce the serial
loss curves to within float64 summation reordering — we assert 1e-9,
orders of magnitude tighter than any training-relevant difference — and
the pool must degrade to the serial loop when fork or shared memory is
unavailable.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.model import STGNNDJD
from repro.core.parallel import GradientWorkerPool, fork_available
from repro.core.trainer import Trainer, TrainingConfig
from repro.obs import (
    JsonlExporter,
    default_registry,
    metrics_scope,
    read_events,
    sink_scope,
)

PARITY_ATOL = 1e-9

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def make_trainer(
    dataset, workers: int, epochs: int = 2, transport: str = "auto"
) -> Trainer:
    model = STGNNDJD.from_dataset(
        dataset, seed=3, fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0
    )
    config = TrainingConfig(
        epochs=epochs, batch_size=8, seed=5, patience=10, workers=workers,
        transport=transport,
    )
    return Trainer(model, dataset, config)


def serial_reference(trainer: Trainer, batch, scale: float):
    """The serial loop's (loss, grads) for one batch, on a fresh trainer."""
    trainer.optimizer.zero_grad()
    loss_sum = 0.0
    for t in batch:
        loss = trainer._sample_loss(int(t))
        loss.backward(np.asarray(scale))
        loss_sum += loss.item()
    return loss_sum, [np.array(p.grad) for p in trainer.optimizer.parameters]


def assert_serial_fallback(trainer: Trainer, tmp_path, reason: str) -> None:
    """``create()`` yields no pool, counts and emits ``reason``, and
    ``fit()`` still trains (serially)."""
    sink = JsonlExporter(tmp_path / "fallback.jsonl")
    with metrics_scope(), sink_scope(sink):
        registry = default_registry()
        registry.reset()
        registry.enabled = True  # reset() clears the scope's flag
        assert GradientWorkerPool.create(trainer, 2) is None
        assert registry.counter("parallel.fallback").value == 1
    sink.close()
    events = [e for e in read_events(sink.path)
              if e["name"] == "parallel.fallback"]
    assert [e["data"]["reason"] for e in events] == [reason]
    history = trainer.fit()
    assert len(history.train_loss) == 1


class TestConfig:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            TrainingConfig(workers=-1)

    def test_serial_default(self):
        assert TrainingConfig().workers == 0

    def test_invalid_transport_rejected(self):
        for transport in ("carrier-pigeon", "pipe"):
            with pytest.raises(ValueError, match="transport"):
                TrainingConfig(transport=transport)


@needs_fork
class TestSerialParallelParity:
    @pytest.mark.parametrize("transport", ["shm"])
    def test_loss_curves_match_serial(self, mini_dataset, transport):
        serial = make_trainer(mini_dataset, workers=0).fit()
        parallel = make_trainer(mini_dataset, workers=2, transport=transport).fit()
        assert len(serial.train_loss) == len(parallel.train_loss)
        np.testing.assert_allclose(
            parallel.train_loss, serial.train_loss, rtol=0, atol=PARITY_ATOL
        )
        np.testing.assert_allclose(
            parallel.val_loss, serial.val_loss, rtol=0, atol=PARITY_ATOL
        )

    def test_single_batch_gradients_match_serial(self, mini_dataset):
        batch = mini_dataset.split_indices()[0][:6]
        scale = 1.0 / len(batch)
        serial_loss, serial_grads = serial_reference(
            make_trainer(mini_dataset, workers=0), batch, scale
        )

        parallel = make_trainer(mini_dataset, workers=2)
        parallel.optimizer.zero_grad()
        with GradientWorkerPool(parallel, 2) as pool:
            assert pool.transport == "shm"
            parallel_loss = pool.accumulate_gradients(batch, scale)

        assert parallel_loss == pytest.approx(serial_loss, abs=PARITY_ATOL)
        for grad_serial, p_parallel in zip(
            serial_grads, parallel.optimizer.parameters
        ):
            np.testing.assert_allclose(
                p_parallel.grad, grad_serial, rtol=0, atol=PARITY_ATOL
            )

    def test_epoch_schedule_matches_serial(self, mini_dataset):
        # Batches inside a begin_epoch/end_epoch bracket (the trainer's
        # path) must produce the same gradients as ad-hoc calls — which
        # themselves match serial.
        train_idx = mini_dataset.split_indices()[0]
        batches = [train_idx[:6], train_idx[6:12]]
        scale = 1.0 / 6

        trainer = make_trainer(mini_dataset, workers=2)
        with GradientWorkerPool(trainer, 2) as pool:
            assert pool.transport == "shm"
            pool.begin_epoch()
            for batch in batches:
                reference = make_trainer(mini_dataset, workers=0)
                # Match parameters mid-epoch (no optimizer steps here,
                # so the fresh reference model is identical by seed).
                serial_loss, serial_grads = serial_reference(
                    reference, batch, scale
                )
                trainer.optimizer.zero_grad()
                loss = pool.accumulate_gradients(batch, scale)
                assert loss == pytest.approx(serial_loss, abs=PARITY_ATOL)
                for grad_serial, param in zip(
                    serial_grads, trainer.optimizer.parameters
                ):
                    np.testing.assert_allclose(
                        param.grad, grad_serial, rtol=0, atol=PARITY_ATOL
                    )
            pool.end_epoch()


class TestFallback:
    def test_zero_workers_returns_none(self, mini_dataset):
        trainer = make_trainer(mini_dataset, workers=0)
        assert GradientWorkerPool.create(trainer, 0) is None

    def test_no_fork_falls_back_to_serial(self, mini_dataset, monkeypatch):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "fork_available", lambda: False)
        trainer = make_trainer(mini_dataset, workers=2, epochs=1)
        assert GradientWorkerPool.create(trainer, 2) is None
        # fit() must still train (serially) rather than fail.
        history = trainer.fit()
        assert len(history.train_loss) == 1

    def test_direct_construction_requires_fork(self, mini_dataset, monkeypatch):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "fork_available", lambda: False)
        trainer = make_trainer(mini_dataset, workers=2)
        with pytest.raises(RuntimeError, match="fork"):
            GradientWorkerPool(trainer, 2)

    @needs_fork
    def test_shm_unavailable_falls_back_to_serial(
        self, mini_dataset, monkeypatch, tmp_path
    ):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "shm_available", lambda: False)
        trainer = make_trainer(mini_dataset, workers=2, epochs=1)
        assert_serial_fallback(trainer, tmp_path, "shm_unavailable")

    @needs_fork
    def test_arena_creation_failure_falls_back_to_serial(
        self, mini_dataset, monkeypatch, tmp_path
    ):
        import repro.core.parallel as parallel_module

        def no_room(nbytes):
            raise OSError("No space left on device")

        monkeypatch.setattr(parallel_module, "SharedArena", no_room)
        trainer = make_trainer(mini_dataset, workers=2, epochs=1)
        assert_serial_fallback(
            trainer, tmp_path,
            "arena_creation_failed: No space left on device",
        )

    def test_invalid_transport_rejected(self, mini_dataset):
        trainer = make_trainer(mini_dataset, workers=1)
        for transport in ("carrier-pigeon", "pipe"):
            with pytest.raises(ValueError, match="transport"):
                GradientWorkerPool(trainer, 1, transport=transport)


@needs_fork
class TestLifecycle:
    def test_close_is_idempotent(self, mini_dataset):
        pool = GradientWorkerPool(make_trainer(mini_dataset, workers=1), 1)
        pool.close()
        pool.close()

    def test_closed_pool_rejects_batches(self, mini_dataset):
        trainer = make_trainer(mini_dataset, workers=1)
        pool = GradientWorkerPool(trainer, 1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.accumulate_gradients([trainer.dataset.min_history], 1.0)

    def test_worker_error_is_surfaced(self, mini_dataset):
        trainer = make_trainer(mini_dataset, workers=1)
        # Sabotage the per-sample loss; the forked worker inherits the
        # broken trainer and must report the failure, not hang. The
        # parent then recovers the shard serially — and because the bug
        # is deterministic, the recovery reproduces the *original*
        # exception instead of swallowing it.
        def boom(t):
            raise ValueError("sabotaged sample")

        trainer._sample_loss = boom
        with GradientWorkerPool(trainer, 1) as pool:
            with pytest.raises(ValueError, match="sabotaged sample"):
                pool.accumulate_gradients([trainer.dataset.min_history], 1.0)

    def test_invalid_worker_count(self, mini_dataset):
        trainer = make_trainer(mini_dataset, workers=0)
        with pytest.raises(ValueError, match="num_workers"):
            GradientWorkerPool(trainer, 0)

    def test_no_shm_segments_leak_after_close(self, mini_dataset):
        pool = GradientWorkerPool(make_trainer(mini_dataset, workers=2), 2)
        names = list(pool.shm_segment_names)
        assert len(names) == 3  # one param arena + one grad arena per worker
        assert all(os.path.exists(f"/dev/shm/{name}") for name in names)
        pool.close()
        assert pool.shm_segment_names == []
        leaked = [name for name in names if os.path.exists(f"/dev/shm/{name}")]
        assert leaked == []

    def test_no_shm_segments_leak_after_fit(self, mini_dataset):
        before = set(os.listdir("/dev/shm"))
        make_trainer(mini_dataset, workers=2, epochs=1).fit()
        leaked = {
            name for name in set(os.listdir("/dev/shm")) - before
            if name.startswith("psm_")
        }
        assert leaked == set()
