"""Data-parallel gradient workers for the training loop.

A :class:`GradientWorkerPool` is a persistent pool of fork-based worker
processes that splits a training batch into contiguous shards, computes
per-sample loss + gradients in each worker, and reduces the results in
the parent in a fixed order. It exists because the model is a
per-time-step graph program: a "batch" is N independent single-sample
forward/backward passes whose gradients are averaged (see
``core/trainer.py``), which is embarrassingly parallel across samples.

Transport
---------
Parameters and gradients move through persistent shared-memory arenas
(``core/shm_arena.py``); the duplex pipe carries only small control
messages. One *parameter arena* holds the flat ``ParamLayout`` image of
the model: the parent publishes the current parameter values into it
once per sync point (one ``np.copyto`` per batch, after the optimizer
step), and every worker's model parameters are zero-copy read-only
views into it. Each worker additionally owns one *gradient arena* — a
small header (shard loss + per-parameter has-grad flags) followed by
the same flat layout — and its parameters' persistent ``_grad_buffer``
accumulation targets are views into that arena, so the worker's
backward passes write gradients **directly into shared memory** and
the parent's reduction is a straight numpy sum over mapped views.
Nothing gradient- or parameter-sized is ever pickled.

Each batch sends every worker one ``(shard, scale, trace_ctx)``
message — its contiguous slice of the batch's sample indices — and
gets a tiny acknowledgement back. The parent reduces worker *i*'s
completed arena while workers *i+1..K* are still computing — reduction
overlaps compute instead of serialising behind the slowest worker —
but always folds results in worker index order, which is what keeps
the float64 sums deterministic.

Determinism / serial equivalence
--------------------------------
Shards are contiguous and ordered, reduction order is fixed, and every
worker performs the same per-sample arithmetic as the serial loop: the
arenas change where the bytes live, not a single floating-point
operation. The only difference from serial training is the association
order of the gradient sums (per-shard partial sums instead of one
running sum), so for a deterministic model (``dropout == 0``) the
training losses of ``workers=0`` and ``workers=K`` runs agree to within
float64 summation reordering — empirically < 1e-9 relative, which the
parity tests assert. Models that draw training-time randomness
(``dropout > 0``) remain seeded-deterministic for a *fixed* worker
count, but are not sample-for-sample identical to serial runs: each
forked worker advances its own copy of the model's RNG.

Resilience
----------
A worker that **dies mid-batch** (its pipe hits EOF — possibly leaving
a half-written gradient arena), **hangs** past ``reply_timeout``,
replies with a **poisoned result** (non-finite loss or gradients), or
raises, does not take training down. The parent never trusts an arena
without its owner's acknowledgement: it recomputes the lost shard
*itself*, reproducing the worker's exact arithmetic — gradients summed
into fresh buffers, then folded in at the dead worker's reduction
slot — so the recovered batch is **bitwise identical** to the batch an
uninjured pool would have produced (for deterministic models). Dead or
hung workers are respawned against the *same* arenas; if the respawn
itself fails, the pool marks itself inactive and the trainer falls
back to the serial loop for the rest of the run. The chaos suite
(``tests/faults/test_parallel_chaos.py``) drives every one of these
paths with injected faults — including the arena seams
``parallel.shm.publish``, ``parallel.worker{i}.shm.attach`` and
``parallel.worker{i}.shm.commit`` — and asserts the parity.

Arena lifecycle: only the parent creates or unlinks shared-memory
segments. :meth:`GradientWorkerPool.close` drops the parent's views and
destroys every arena unlink-first (crash-safe, idempotent); workers
exit without cleanup, so a chaos-killed worker can never leak or
corrupt a segment. The fallback ladder is ``shm → serial``: when fork
or ``multiprocessing.shared_memory`` is unavailable, or arena or pool
creation fails, :meth:`GradientWorkerPool.create` returns ``None`` and
the trainer runs the serial loop; every degradation is logged, counted
(``parallel.fallback``) and emitted as an event with its reason.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.shm_arena import (
    GradHeaderLayout,
    ParamLayout,
    SharedArena,
    shm_available,
)
from repro.faults import fault_point, fault_transform
from repro.obs import emit_event
from repro.obs.registry import default_registry
from repro.obs.trace import (
    NULL_SPAN,
    TraceContext,
    begin_worker_spans,
    current_context,
    discard_spans,
    drain_spans,
    emit_spans,
    trace_span,
)
from repro.utils import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.trainer import Trainer

logger = get_logger("parallel")

_OK = "ok"
_ERROR = "error"

SHM = "shm"
#: Accepted ``transport`` values; both select the shared-memory arenas.
TRANSPORTS = ("auto", SHM)


def fork_available() -> bool:
    """Whether fork-based worker processes can be used on this platform."""
    return "fork" in mp.get_all_start_methods()


def _trace_ctx_tuple() -> tuple | None:
    """The current trace context as a plain picklable tuple, or ``None``.

    Unsampled contexts collapse to ``None`` at the source: the worker
    would open a non-recording span anyway, so there is nothing worth
    shipping across the pipe for them.
    """
    ctx = current_context()
    if ctx is None or not ctx.sampled:
        return None
    return (ctx.trace_id, ctx.span_id, ctx.sampled)


class _ArenaCreationError(OSError):
    """The shared-memory arenas could not be created (``/dev/shm`` full)."""


def _worker_main(conn, trainer: "Trainer", params: list, index: int,
                 param_arena: SharedArena, grad_arena: SharedArena,
                 layout: ParamLayout, header: GradHeaderLayout) -> None:
    """Worker loop: compute one shard per message until ``None``.

    Runs in the forked child. ``trainer`` and ``params`` are inherited
    copy-on-write, as are the parent's arena objects (the mapping is
    ``MAP_SHARED``). The worker rebinds every parameter's ``data`` to a
    read-only view of the parameter arena (tracking the parent's
    optimizer steps with zero copies) and attaches its gradient arena
    views as the parameters' persistent grad buffers, so backward
    passes accumulate straight into shared memory. Views are built here,
    after the fork, so the attach step has its own fault seam.

    Every message is ``(shard, scale, trace_ctx)``: the sample indices
    this worker computes, each sample's upstream gradient, and the
    parent's trace context (``None`` when untraced) that the shard span
    parents under. ``None`` shuts the worker down.

    Metrics are fork-merged: the worker's (inherited) default registry
    is reset once at startup so pre-fork parent values are not double
    counted, then each reply carries the registry delta accumulated
    while processing the shard. The parent folds deltas in during the
    reduce, making worker-merged counters equal their serial values.

    Fault seams (armed plans are inherited through the fork, each worker
    counts its own hits): ``parallel.worker{index}.task`` per task,
    ``parallel.worker{index}.sample`` per sample, the
    ``parallel.worker{index}.reply`` transform over the reply payload,
    ``parallel.worker{index}.shm.attach`` at view construction and
    ``parallel.worker{index}.shm.commit`` between the arena write and
    the acknowledgement.
    """
    task_site = f"parallel.worker{index}.task"
    sample_site = f"parallel.worker{index}.sample"
    reply_site = f"parallel.worker{index}.reply"
    registry = default_registry()
    registry.reset()
    # Fork-worker trace mode: fresh id stream (the inherited counter
    # would collide with the parent's), spans buffered locally and
    # shipped home with each reply instead of written to the shared fd.
    begin_worker_spans((os.getpid() << 8) | index)
    fault_point(f"parallel.worker{index}.shm.attach")
    param_views = layout.views(param_arena.buf, writeable=False)
    grad_views = layout.views(grad_arena.buf, base_offset=header.header_bytes)
    flags = header.flags_view(grad_arena.buf)
    loss_out = header.loss_view(grad_arena.buf)
    for param, view, grad_view in zip(params, param_views, grad_views):
        param.data = view
        param.attach_grad_buffer(grad_view)
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                return
            try:
                shard, scale, ctx = msg
                fault_point(task_site)
                busy_start = time.perf_counter()
                for param in params:
                    param.grad = None
                upstream = np.asarray(scale)
                loss_sum = 0.0
                worker_span = (
                    trace_span("parallel.worker", parent=TraceContext(*ctx),
                               worker=index, samples=int(len(shard)))
                    if ctx is not None else NULL_SPAN
                )
                with worker_span:
                    for t in shard:
                        fault_point(sample_site)
                        loss = trainer._sample_loss(int(t))
                        loss.backward(upstream)
                        loss_sum += loss.item()
                delta = None
                if registry.enabled:
                    registry.counter("parallel.worker_busy_seconds").inc(
                        time.perf_counter() - busy_start
                    )
                    registry.counter("parallel.worker_tasks").inc()
                    delta = registry.drain()
                loss_sum, grads, delta = fault_transform(
                    reply_site, (loss_sum, [p.grad for p in params], delta)
                )
                spans = drain_spans()
                for i, (param, grad) in enumerate(zip(params, grads)):
                    flags[i] = 0 if grad is None else 1
                    # Accumulation already landed in the arena via the
                    # attached buffer; only a transformed (poisoned)
                    # reply needs an explicit write.
                    if grad is not None and grad is not param.grad:
                        np.copyto(grad_views[i], grad)
                loss_out[0] = loss_sum
                fault_point(f"parallel.worker{index}.shm.commit")
                conn.send((_OK, delta, spans))
            except Exception as exc:  # surface worker errors in the parent
                # A failed task's spans never ship: the parent recovers
                # the shard itself and its recovery span replaces them —
                # emitting both would double-count the work.
                discard_spans()
                conn.send((_ERROR, f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    finally:
        conn.close()


class GradientWorkerPool:
    """Persistent fork-based pool of per-sample gradient workers."""

    def __init__(
        self,
        trainer: "Trainer",
        num_workers: int,
        reply_timeout: float | None = None,
        transport: str = "auto",
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if reply_timeout is not None and reply_timeout <= 0:
            raise ValueError(f"reply_timeout must be positive, got {reply_timeout}")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {transport!r}"
            )
        if not fork_available():
            raise RuntimeError("fork start method is not available on this platform")
        if not shm_available():
            raise RuntimeError(
                "multiprocessing.shared_memory is not available on this platform"
            )
        self._trainer = trainer
        self._params = list(trainer.optimizer.parameters)
        self.num_workers = num_workers
        self.reply_timeout = reply_timeout
        self.transport = SHM
        self._closed = False
        self._degraded = False
        #: Cumulative parent-side seconds per transport phase (always on;
        #: a handful of ``perf_counter`` reads per batch). ``serialize``
        #: is parameter publish + control-message send, ``compute_wait``
        #: is time blocked on worker replies, ``reduce`` is the gradient
        #: summation + metrics merge.
        self.phase_seconds = {"serialize": 0.0, "compute_wait": 0.0, "reduce": 0.0}
        self._epoch_phase_base = dict(self.phase_seconds)

        # Set between begin_epoch and end_epoch: every batch's shard
        # spans parent under the epoch's trace context.
        self._in_epoch = False
        self._epoch_ctx: tuple | None = None

        self._param_arena: SharedArena | None = None
        self._grad_arenas: list[SharedArena] = []
        self._publish_views: list[np.ndarray] | None = None
        self._worker_grad_views: list[list[np.ndarray]] = []
        self._worker_flags: list[np.ndarray] = []
        self._worker_loss: list[np.ndarray] = []
        self._ctx = mp.get_context("fork")
        self._conns: list = [None] * num_workers
        self._procs: list = [None] * num_workers
        self._build_arenas()

        # Touch lazily-built dataset state *before* forking so workers
        # share it copy-on-write instead of each rebuilding it.
        trainer.dataset.demand_normalizer
        trainer.dataset.supply_normalizer
        try:
            for index in range(num_workers):
                self._spawn_worker(index)
        except BaseException:
            self._destroy_arenas()
            raise

    # ------------------------------------------------------------------
    # Arenas + workers
    # ------------------------------------------------------------------
    def _build_arenas(self) -> None:
        """Create the parameter arena + one gradient arena per worker."""
        datas = [param.data for param in self._params]
        self._param_layout = ParamLayout(datas)
        self._grad_header = GradHeaderLayout(len(datas))
        grad_bytes = self._grad_header.header_bytes + self._param_layout.total_bytes
        created: list[SharedArena] = []
        try:
            param_arena = SharedArena(self._param_layout.total_bytes)
            created.append(param_arena)
            grad_arenas = []
            for _ in range(self.num_workers):
                arena = SharedArena(grad_bytes)
                created.append(arena)
                grad_arenas.append(arena)
        except OSError as exc:  # /dev/shm full or unmapped
            for arena in created:
                arena.destroy()
            raise _ArenaCreationError(str(exc)) from exc
        self._param_arena = param_arena
        self._grad_arenas = grad_arenas
        self._publish_views = self._param_layout.views(param_arena.buf)
        self._worker_grad_views = [
            self._param_layout.views(
                arena.buf, base_offset=self._grad_header.header_bytes
            )
            for arena in grad_arenas
        ]
        self._worker_flags = [
            self._grad_header.flags_view(arena.buf) for arena in grad_arenas
        ]
        self._worker_loss = [
            self._grad_header.loss_view(arena.buf) for arena in grad_arenas
        ]
        registry = default_registry()
        registry.gauge("parallel.shm.param_arena_bytes").set(
            self._param_layout.total_bytes
        )
        registry.gauge("parallel.shm.grad_arena_bytes").set(grad_bytes)
        registry.gauge("parallel.shm.arena_bytes_total").set(
            self._param_layout.total_bytes + grad_bytes * self.num_workers
        )

    @property
    def shm_segment_names(self) -> list[str]:
        """``/dev/shm`` names of the live arenas (empty once closed)."""
        names = []
        if self._param_arena is not None:
            names.append(self._param_arena.name)
        names.extend(arena.name for arena in self._grad_arenas)
        return names

    def _spawn_worker(self, index: int) -> None:
        """(Re)fork worker ``index``; replaces any previous pipe/process.

        A respawned worker attaches to the *same* arenas (they are
        inherited through the fresh fork).
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._trainer, self._params, index,
                  self._param_arena, self._grad_arenas[index],
                  self._param_layout, self._grad_header),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[index] = parent_conn
        self._procs[index] = proc

    @classmethod
    def create(
        cls,
        trainer: "Trainer",
        num_workers: int,
        reply_timeout: float | None = None,
        transport: str = "auto",
    ) -> "GradientWorkerPool | None":
        """Build a pool, or return ``None`` (serial fallback) if unsupported."""
        if num_workers < 1:
            return None
        for available, reason in ((fork_available, "fork_unavailable"),
                                  (shm_available, "shm_unavailable")):
            if not available():
                logger.warning("workers=%d requested (%s); training serially",
                               num_workers, reason)
                cls._record_fallback(reason, num_workers)
                return None
        try:
            return cls(trainer, num_workers, reply_timeout=reply_timeout,
                       transport=transport)
        except OSError as exc:  # /dev/shm full, fork/pipe resource limits
            stage = ("arena_creation_failed"
                     if isinstance(exc, _ArenaCreationError)
                     else "pool_creation_failed")
            logger.warning("%s (%s); training serially", stage, exc)
            cls._record_fallback(f"{stage}: {exc}", num_workers)
            return None

    @staticmethod
    def _record_fallback(reason: str, num_workers: int) -> None:
        """Count + emit a serial-fallback event so it is visible in runs."""
        default_registry().counter("parallel.fallback").inc()
        emit_event("event", "parallel.fallback",
                   reason=reason, requested_workers=num_workers)

    # ------------------------------------------------------------------
    # Epoch bracketing
    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Open an epoch: capture its trace context and phase baseline.

        Every batch until :meth:`end_epoch` parents its worker shard
        spans under the caller's current span (``trainer.epoch``), and
        the epoch's phase split is measured from here. No-op on closed
        pools.
        """
        if self._closed:
            return
        self._in_epoch = True
        self._epoch_ctx = _trace_ctx_tuple()
        self._epoch_phase_base = dict(self.phase_seconds)

    def end_epoch(self) -> None:
        """Close the epoch; emit the phase/overlap telemetry."""
        if not self._in_epoch:
            return
        self._in_epoch = False
        self._epoch_ctx = None
        registry = default_registry()
        if registry.enabled:
            phases = {
                key: self.phase_seconds[key] - self._epoch_phase_base.get(key, 0.0)
                for key in self.phase_seconds
            }
            window = phases["compute_wait"] + phases["reduce"]
            # Fraction of the post-publish window the parent spent
            # reducing already-complete arenas — work overlapped with
            # the remaining workers' compute by construction.
            overlap = phases["reduce"] / window if window > 0 else 0.0
            registry.gauge("parallel.reduce_overlap_ratio").set(overlap)
            emit_event("event", "parallel.epoch_phases",
                       transport=self.transport,
                       overlap_ratio=overlap, **phases)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the pool can take another batch (open and not degraded)."""
        return not self._closed and not self._degraded

    def accumulate_gradients(self, batch: Sequence[int], scale: float) -> float:
        """Compute and reduce gradients for ``batch``; return the loss sum.

        Each sample's upstream gradient is ``scale`` (the trainer passes
        ``1/len(batch)``, matching the serial loop's gradient averaging).
        Gradients are accumulated into the parameters' ``.grad`` buffers
        in worker index order — the caller must have zeroed them.

        Worker failures (death, hang, poisoned or errored replies) are
        recovered in-line: the lost shard is recomputed in the parent at
        the failed worker's reduction slot, so the batch result is the
        same as an uninjured pool's (see the module docstring).
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        shards = np.array_split(np.asarray(batch), self.num_workers)
        registry = default_registry()
        failed_send: set[int] = set()
        serialize_start = time.perf_counter()
        # Sync point: publish the post-step parameters once; every
        # worker's parameter views read them zero-copy.
        fault_point("parallel.shm.publish")
        for view, param in zip(self._publish_views, self._params):
            np.copyto(view, param.data)
        ctx = self._epoch_ctx if self._in_epoch else _trace_ctx_tuple()
        for index, (conn, shard) in enumerate(zip(self._conns, shards)):
            if conn is None:  # lost in a previous batch, respawn failed
                failed_send.add(index)
                continue
            try:
                conn.send((shard, scale, ctx))
            except (BrokenPipeError, OSError):
                failed_send.add(index)
        serialize_seconds = time.perf_counter() - serialize_start

        total = 0.0
        wait_seconds = 0.0
        reduce_seconds = 0.0
        for index, shard in enumerate(shards):
            if index in failed_send:
                if self._conns[index] is not None:
                    self._worker_failed(index, "pipe closed at send", respawn=True)
                payload = None
            else:
                wait_start = time.perf_counter()
                payload = self._receive(index)
                wait_seconds += time.perf_counter() - wait_start
            if payload is None:
                total += self._recover_shard(shard, scale)
                continue
            reduce_start = time.perf_counter()
            loss_sum, grads, metrics_delta = payload
            total += loss_sum
            for param, grad in zip(self._params, grads):
                if grad is not None:
                    param._accumulate(grad)
            if metrics_delta:
                registry.merge(metrics_delta)
            reduce_seconds += time.perf_counter() - reduce_start
        self.phase_seconds["serialize"] += serialize_seconds
        self.phase_seconds["compute_wait"] += wait_seconds
        self.phase_seconds["reduce"] += reduce_seconds
        if registry.enabled:
            registry.timer("parallel.serialize_seconds").observe(serialize_seconds)
            registry.timer("parallel.wait_seconds").observe(wait_seconds)
            registry.timer("parallel.reduce_seconds").observe(reduce_seconds)
            registry.counter("parallel.batches").inc()
        return total

    # ------------------------------------------------------------------
    # Failure classification + recovery
    # ------------------------------------------------------------------
    def _receive(self, index: int):
        """Worker ``index``'s result payload, or ``None`` after a failure.

        Always ``(loss_sum, grads, metrics_delta)``. The reply is a
        bare acknowledgement carrying the metrics delta; loss, flags and
        gradients are read from the worker's arena views — but only
        *after* the acknowledgement, so a half-written arena from a
        crashed worker is never reduced.

        Classifies the four injected-failure modes: a hung worker (no
        reply within ``reply_timeout``), a dead worker (EOF/reset on the
        pipe), a worker-side exception (clean ``_ERROR`` reply), and a
        poisoned result (non-finite loss or gradients). Hung and dead
        workers are respawned; erroring and poisoning workers stay — the
        pipe is still in sync and the next batch may well succeed.
        """
        conn = self._conns[index]
        try:
            if self.reply_timeout is not None and not conn.poll(self.reply_timeout):
                self._worker_failed(
                    index, f"no reply within {self.reply_timeout}s", respawn=True
                )
                return None
            msg = conn.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            self._worker_failed(
                index, f"died mid-batch ({exc or 'EOF'})", respawn=True
            )
            return None
        status, body = msg[0], msg[1]
        spans = msg[2] if len(msg) > 2 else None
        if status != _OK:
            self._worker_failed(index, f"raised: {body}", respawn=False)
            return None
        flags = self._worker_flags[index]
        grads = [
            view if flags[i] else None
            for i, view in enumerate(self._worker_grad_views[index])
        ]
        loss_sum = float(self._worker_loss[index][0])
        if not np.isfinite(loss_sum) or any(
            grad is not None and not np.isfinite(grad).all() for grad in grads
        ):
            self._worker_failed(
                index, "poisoned result (non-finite loss or gradients)",
                respawn=False,
            )
            return None
        # Worker spans join the parent's stream only for results that
        # are actually reduced: a rejected reply's shard is recomputed
        # under a parent-side recovery span instead, so each unit of
        # work appears in the trace exactly once.
        emit_spans(spans)
        return loss_sum, grads, body

    def _worker_failed(self, index: int, reason: str, respawn: bool) -> None:
        """Log/count a worker failure; respawn or degrade to serial."""
        logger.warning(
            "gradient worker %d failed (%s); recovering its shard serially",
            index, reason,
        )
        default_registry().counter("parallel.worker_failures").inc()
        emit_event("event", "parallel.worker_failure",
                   worker=index, reason=reason)
        if not respawn:
            return
        proc, conn = self._procs[index], self._conns[index]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if conn is not None:
            conn.close()
        try:
            self._spawn_worker(index)
            default_registry().counter("parallel.worker_respawns").inc()
        except OSError as exc:
            # Cannot rebuild the pool: finish this batch via recovery,
            # then hand the rest of the run to the serial loop.
            self._conns[index] = None
            self._procs[index] = None
            self._degraded = True
            logger.warning(
                "worker %d respawn failed (%s); pool degraded, "
                "falling back to serial training", index, exc,
            )
            self._record_fallback(f"respawn_failed: {exc}", self.num_workers)

    def _recover_shard(self, shard: np.ndarray, scale: float) -> float:
        """Recompute a lost shard in the parent, worker-bitwise.

        Reproduces the worker protocol exactly: gradients accumulate
        into fresh per-shard buffers (not the live ``.grad`` running
        sums), then fold in at this worker's slot in the reduction
        order. Same arithmetic, same association order — the recovered
        batch matches an uninjured pool's bit for bit. The dead
        worker's arena contents (possibly half-written) are never read.
        """
        params = self._params
        saved = [param.grad for param in params]
        saved_buffers = [param._grad_buffer for param in params]
        for param in params:
            # Detach the persistent grad buffer too: ``.grad`` IS that
            # buffer after a normal accumulation, and the shard backward
            # below would otherwise write straight over the stashed sums.
            param.grad = None
            param._grad_buffer = None
        upstream = np.asarray(scale)
        loss_sum = 0.0
        try:
            with trace_span("parallel.recover", samples=int(len(shard))):
                for t in shard:
                    loss = self._trainer._sample_loss(int(t))
                    loss.backward(upstream)
                    loss_sum += loss.item()
            shard_grads = [param.grad for param in params]
        finally:
            for param, grad, buffer in zip(params, saved, saved_buffers):
                param.grad = grad
                param._grad_buffer = buffer
        for param, grad in zip(params, shard_grads):
            if grad is not None:
                param._accumulate(grad)
        default_registry().counter("parallel.shards_recovered").inc()
        return loss_sum

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def transport_summary(self) -> dict:
        """JSON-able transport-health summary for run reports.

        Mirrors the per-epoch ``parallel.epoch_phases`` event but over
        the pool's whole lifetime, so the report CLI can show transport,
        phase split and reduce/compute overlap without grepping the
        JSONL stream.
        """
        phases = dict(self.phase_seconds)
        window = phases["compute_wait"] + phases["reduce"]
        overlap = phases["reduce"] / window if window > 0 else 0.0
        return {
            "transport": self.transport,
            "workers": self.num_workers,
            "degraded": self._degraded,
            "phase_seconds": {k: round(v, 6) for k, v in phases.items()},
            "overlap_ratio": round(overlap, 6),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and destroy the arenas; idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=5.0)
        for proc in self._procs:
            if proc is not None and proc.is_alive():  # pragma: no cover - hung worker safety net
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self._destroy_arenas()

    def _destroy_arenas(self) -> None:
        """Drop the parent's views, then unlink every segment; idempotent."""
        self._publish_views = None
        self._worker_grad_views = []
        self._worker_flags = []
        self._worker_loss = []
        arenas = list(self._grad_arenas)
        if self._param_arena is not None:
            arenas.append(self._param_arena)
        self._param_arena = None
        self._grad_arenas = []
        for arena in arenas:
            arena.destroy()

    def __enter__(self) -> "GradientWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("degraded" if self._degraded else "open")
        return (
            f"GradientWorkerPool(workers={self.num_workers}, "
            f"transport={self.transport}, {state})"
        )
