"""Injected worker failures: crash, hang, raise, poison — with parity.

The resilience contract of ``core/parallel.py``: any worker failure is
recovered by the parent recomputing the lost shard with the worker's
exact arithmetic, so an injured batch is **bitwise identical** to the
batch an uninjured pool would have produced (dropout 0). These tests
inject each failure mode at a seam and assert that parity directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import STGNNDJD
from repro.core.parallel import GradientWorkerPool, fork_available
from repro.core.trainer import Trainer, TrainingConfig
from repro.faults import FaultPlan, injected
from repro.obs import default_registry, metrics_scope

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def make_trainer(dataset, workers: int, epochs: int = 2, **config_kwargs) -> Trainer:
    model = STGNNDJD.from_dataset(
        dataset, seed=3, fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0
    )
    config = TrainingConfig(
        epochs=epochs, batch_size=8, seed=5, patience=10, workers=workers,
        **config_kwargs,
    )
    return Trainer(model, dataset, config)


def run_batch(trainer: Trainer, batch, plan: FaultPlan | None = None, **pool_kwargs):
    """One pooled gradient batch (optionally under an armed plan);
    returns (loss, grads, pool) with the pool already closed."""
    trainer.optimizer.zero_grad()
    if plan is not None:
        # Arm before the fork so workers inherit the plan copy-on-write.
        with injected(plan):
            pool = GradientWorkerPool(trainer, 2, **pool_kwargs)
            loss = pool.accumulate_gradients(batch, 1.0 / len(batch))
    else:
        pool = GradientWorkerPool(trainer, 2, **pool_kwargs)
        loss = pool.accumulate_gradients(batch, 1.0 / len(batch))
    pool.close()
    grads = [np.array(p.grad) for p in trainer.optimizer.parameters]
    return loss, grads, pool


def assert_bitwise_parity(trainer_a: Trainer, loss_a, grads_a, loss_b, grads_b):
    assert loss_b == loss_a  # exact, not approx: recovery is bitwise
    for grad_a, grad_b in zip(grads_a, grads_b):
        np.testing.assert_array_equal(grad_b, grad_a)


@pytest.fixture
def batch(mini_dataset):
    return mini_dataset.split_indices()[0][:6]


@pytest.fixture
def uninjured(mini_dataset, batch):
    trainer = make_trainer(mini_dataset, workers=2)
    loss, grads, _ = run_batch(trainer, batch)
    return trainer, loss, grads


class TestCrash:
    @pytest.mark.parametrize("transport", ["shm"])
    def test_crashed_worker_is_bitwise_recovered(
        self, mini_dataset, batch, uninjured, transport
    ):
        trainer_a, loss_a, grads_a = uninjured
        plan = FaultPlan(seed=0).on(
            "parallel.worker0.sample", action="crash", at=1
        )
        trainer = make_trainer(mini_dataset, workers=2)
        loss, grads, _ = run_batch(trainer, batch, plan, transport=transport)
        assert_bitwise_parity(trainer_a, loss_a, grads_a, loss, grads)

    def test_crashed_worker_is_respawned(self, mini_dataset, batch):
        plan = FaultPlan(seed=0).on(
            "parallel.worker0.sample", action="crash", at=1
        )
        trainer = make_trainer(mini_dataset, workers=2)
        with metrics_scope():
            registry = default_registry()
            registry.reset()
            registry.enabled = True  # reset() clears the scope's flag
            trainer.optimizer.zero_grad()
            with injected(plan):
                with GradientWorkerPool(trainer, 2) as pool:
                    first_pid = pool._procs[0].pid
                    pool.accumulate_gradients(batch, 1.0 / len(batch))
                    assert pool.active
                    assert pool._procs[0].pid != first_pid
                    assert registry.counter("parallel.worker_failures").value == 1
                    assert registry.counter("parallel.worker_respawns").value == 1
                    assert registry.counter("parallel.shards_recovered").value == 1


class TestShmSeams:
    """Failures at the shared-memory transport's own seams.

    A crash at ``shm.commit`` is the nastiest case the arena design has
    to survive: the worker has fully (or partially) written its gradient
    arena but dies before acknowledging, so the parent must discard the
    arena contents and recover the shard — never reduce unacked bytes.
    """

    def test_crash_at_commit_leaves_arena_unread(
        self, mini_dataset, batch, uninjured
    ):
        trainer_a, loss_a, grads_a = uninjured
        plan = FaultPlan(seed=0).on(
            "parallel.worker0.shm.commit", action="crash", at=1
        )
        trainer = make_trainer(mini_dataset, workers=2)
        loss, grads, _ = run_batch(trainer, batch, plan)
        assert_bitwise_parity(trainer_a, loss_a, grads_a, loss, grads)

    def test_crash_at_attach_is_recovered(self, mini_dataset, batch, uninjured):
        # The worker dies before it ever maps its views: the parent sees
        # EOF at the first receive, recovers the shard, and respawns.
        trainer_a, loss_a, grads_a = uninjured
        plan = FaultPlan(seed=0).on(
            "parallel.worker1.shm.attach", action="crash", at=1
        )
        trainer = make_trainer(mini_dataset, workers=2)
        loss, grads, _ = run_batch(trainer, batch, plan)
        assert_bitwise_parity(trainer_a, loss_a, grads_a, loss, grads)

    def test_publish_seam_fires_in_the_parent(self, mini_dataset, batch):
        from repro.faults import InjectedFault

        plan = FaultPlan(seed=0).on("parallel.shm.publish", at=1)
        trainer = make_trainer(mini_dataset, workers=2)
        trainer.optimizer.zero_grad()
        with GradientWorkerPool(trainer, 2) as pool:
            with injected(plan):
                with pytest.raises(InjectedFault):
                    pool.accumulate_gradients(batch, 1.0 / len(batch))
        assert plan.fired and plan.fired[0].site == "parallel.shm.publish"

    def test_no_segments_leak_after_chaos_death(self, mini_dataset, batch):
        import os

        plan = FaultPlan(seed=0).on(
            "parallel.worker0.sample", action="crash", at=1
        )
        trainer = make_trainer(mini_dataset, workers=2)
        trainer.optimizer.zero_grad()
        with injected(plan):
            pool = GradientWorkerPool(trainer, 2)
            names = list(pool.shm_segment_names)
            assert names
            pool.accumulate_gradients(batch, 1.0 / len(batch))
            # The respawned worker reattached to the same arenas.
            assert pool.shm_segment_names == names
            pool.close()
        leaked = [name for name in names if os.path.exists(f"/dev/shm/{name}")]
        assert leaked == []

    def test_mid_epoch_crash_with_schedule_matches_serial(self, mini_dataset):
        # Full fit() inside the trainer's epoch brackets: a worker crash
        # a few batches into an epoch must not disturb the loss curves
        # (the respawned worker takes the epoch's next batch as usual).
        serial = make_trainer(mini_dataset, workers=0).fit()
        plan = FaultPlan(seed=0).on(
            "parallel.worker0.sample", action="crash", at=9
        )
        trainer = make_trainer(mini_dataset, workers=2)
        with injected(plan):
            injured = trainer.fit()
        # (The crash fires in the forked worker, so the parent-side
        # plan records nothing — the recovery warnings are the trace.)
        np.testing.assert_allclose(
            injured.train_loss, serial.train_loss, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            injured.val_loss, serial.val_loss, rtol=0, atol=1e-9
        )


class TestHang:
    def test_hung_worker_is_recovered_within_timeout(
        self, mini_dataset, batch, uninjured
    ):
        trainer_a, loss_a, grads_a = uninjured
        plan = FaultPlan(seed=0).on(
            "parallel.worker0.task", action="hang", at=1, hang_seconds=30.0
        )
        trainer = make_trainer(mini_dataset, workers=2)
        loss, grads, pool = run_batch(trainer, batch, plan, reply_timeout=0.25)
        assert_bitwise_parity(trainer_a, loss_a, grads_a, loss, grads)


class TestRaise:
    def test_injected_exception_keeps_the_worker(
        self, mini_dataset, batch, uninjured
    ):
        trainer_a, loss_a, grads_a = uninjured
        plan = FaultPlan(seed=0).on("parallel.worker0.task", at=1)
        trainer = make_trainer(mini_dataset, workers=2)
        trainer.optimizer.zero_grad()
        with injected(plan):
            with GradientWorkerPool(trainer, 2) as pool:
                pid = pool._procs[0].pid
                loss = pool.accumulate_gradients(batch, 1.0 / len(batch))
                # The pipe stayed in sync: no respawn, same process.
                assert pool._procs[0].pid == pid
                assert pool._procs[0].is_alive()
                # And the next batch uses the worker normally.
                trainer.optimizer.zero_grad()
                loss2 = pool.accumulate_gradients(batch, 1.0 / len(batch))
        grads = [np.array(p.grad) for p in trainer.optimizer.parameters]
        assert loss == loss_a
        assert loss2 == pytest.approx(loss_a)


class TestPoison:
    def test_nan_loss_reply_is_discarded_and_recovered(
        self, mini_dataset, batch, uninjured
    ):
        trainer_a, loss_a, grads_a = uninjured
        plan = FaultPlan(seed=0).on(
            "parallel.worker0.reply",
            action="call",
            at=1,
            callback=lambda payload: (float("nan"), payload[1], payload[2]),
        )
        trainer = make_trainer(mini_dataset, workers=2)
        loss, grads, _ = run_batch(trainer, batch, plan)
        assert_bitwise_parity(trainer_a, loss_a, grads_a, loss, grads)

    def test_nan_gradient_reply_is_discarded_and_recovered(
        self, mini_dataset, batch, uninjured
    ):
        trainer_a, loss_a, grads_a = uninjured

        def poison_grads(payload):
            loss_sum, grads, delta = payload
            bad = [np.full_like(g, np.nan) if g is not None else None for g in grads]
            return (loss_sum, bad, delta)

        plan = FaultPlan(seed=0).on(
            "parallel.worker1.reply", action="call", at=1, callback=poison_grads
        )
        trainer = make_trainer(mini_dataset, workers=2)
        loss, grads, _ = run_batch(trainer, batch, plan)
        assert_bitwise_parity(trainer_a, loss_a, grads_a, loss, grads)


class TestDegradedFallback:
    def test_failed_respawn_degrades_pool_but_finishes_batch(
        self, mini_dataset, batch, uninjured, monkeypatch
    ):
        trainer_a, loss_a, grads_a = uninjured
        plan = FaultPlan(seed=0).on(
            "parallel.worker0.sample", action="crash", at=1
        )
        trainer = make_trainer(mini_dataset, workers=2)
        trainer.optimizer.zero_grad()
        with injected(plan):
            pool = GradientWorkerPool(trainer, 2)
            monkeypatch.setattr(
                pool, "_spawn_worker",
                lambda index: (_ for _ in ()).throw(OSError("fork limit")),
            )
            loss = pool.accumulate_gradients(batch, 1.0 / len(batch))
            assert not pool.active
            pool.close()
        grads = [np.array(p.grad) for p in trainer.optimizer.parameters]
        assert_bitwise_parity(trainer_a, loss_a, grads_a, loss, grads)

    @pytest.mark.slow
    def test_fit_falls_back_to_serial_after_degradation(
        self, mini_dataset, monkeypatch
    ):
        # Initial spawns succeed; every respawn fails — the pool
        # degrades on the first crash and fit() must finish serially,
        # matching the uninjured serial run.
        serial = make_trainer(mini_dataset, workers=0).fit()

        spawns = {"count": 0}
        original = GradientWorkerPool._spawn_worker

        def flaky_spawn(self, index):
            spawns["count"] += 1
            if spawns["count"] > 2:
                raise OSError("fork limit")
            original(self, index)

        monkeypatch.setattr(GradientWorkerPool, "_spawn_worker", flaky_spawn)
        plan = FaultPlan(seed=0).on(
            "parallel.worker0.sample", action="crash", at=1
        )
        trainer = make_trainer(mini_dataset, workers=2)
        with injected(plan):
            injured = trainer.fit()

        assert len(injured.train_loss) == len(serial.train_loss)
        np.testing.assert_allclose(
            injured.train_loss, serial.train_loss, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            injured.val_loss, serial.val_loss, rtol=0, atol=1e-9
        )
