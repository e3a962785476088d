"""The system under test, run as a child process of the benchmark.

``python3 paperbench/sut.py`` reads one pickled request from stdin and
answers with pickled replies on its original stdout (its stdout proper
is pointed at stderr, so library output can never corrupt the channel).
Everything is built from the request's generated inputs through the
public API: ``BikeShareDataset`` from trip records, ``STGNNDJD``,
``Trainer`` for training; ``PredictionService`` + ``make_server`` or
``FleetRouter`` + ``make_fleet_server`` for serving.

Set-up is repeated ``request["setup_repeats"]`` times and each
repetition timed, so the reported set-up time is a median, not one
cold sample.
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
import threading
from time import perf_counter


def build_dataset(spec, trips, coords):
    """The system's data layer: trip records -> cleaned -> flow tensors -> dataset."""
    from repro.data import BikeShareDataset, FlowDataConfig, Station, StationRegistry
    from repro.data import TripRecord, clean_trips
    from repro.data.flows import build_flow_tensors

    registry = StationRegistry([Station(i, float(lon), float(lat))
                                for i, (lon, lat) in enumerate(coords)])
    records = [TripRecord(i, int(o), int(d), float(s), float(e)) for i, (o, d, s, e) in
               enumerate(zip(trips["origin"], trips["destination"],
                             trips["start_time"], trips["end_time"]))]
    clean, _ = clean_trips(records, spec.num_stations)
    inflow, outflow = build_flow_tensors(clean, spec.num_stations, spec.num_slots,
                                         spec.slot_seconds)
    dataset = BikeShareDataset(
        registry, inflow, outflow,
        FlowDataConfig(slot_seconds=spec.slot_seconds, short_window=spec.short_window,
                       long_days=spec.long_days),
        name=spec.name,
    )
    dataset.demand_normalizer  # fit the normalisers: part of loading a dataset
    return dataset


class StepClock:
    """Times each optimizer step from ``zero_grad`` entry to ``step`` exit.

    With :attr:`after_step` set, it is called with the optimizer after
    every timed step (parameter snapshots are taken there);
    :attr:`paused` is the time those calls took, which the caller leaves
    out of the fit's time.
    """

    def __init__(self) -> None:
        self.steps: list[float] = []
        self._start = None
        self.after_step = None
        self.paused = 0.0

    def install(self) -> "StepClock":
        from repro.optim.adam import Adam
        from repro.optim.optimizer import Optimizer

        clock = self
        zero_grad, step = Optimizer.zero_grad, Adam.step

        def timed_zero_grad(optimizer):
            clock._start = perf_counter()
            return zero_grad(optimizer)

        def timed_step(optimizer):
            result = step(optimizer)
            if clock._start is not None:
                clock.steps.append(perf_counter() - clock._start)
                clock._start = None
                if clock.after_step is not None:
                    start = perf_counter()
                    try:
                        clock.after_step(optimizer)
                    finally:
                        clock.paused += perf_counter() - start
            return result

        Optimizer.zero_grad, Adam.step = timed_zero_grad, timed_step
        return self


class TwinDone(Exception):
    """Raised from the step hook to end a twin fit once it has taken its steps."""


def parameter_copies(optimizer) -> list:
    return [p.data.copy() for p in optimizer.parameters]


def same_arrays(a: list, b: list) -> bool:
    import numpy as np

    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def shm_parity(trainer, batch) -> bool:
    """Shared-memory pool gradients equal the serial ones, bit for bit.

    Both sides run ``Trainer._sample_loss``, the per-sample loss the
    trainer's serial loop and the pool's workers call. The serial reference walks the pool's shards in order, each shard's
    samples summed into fresh gradients and the shards folded together
    in worker order: the pool's reduction, computed in one process.
    """
    import numpy as np

    from repro import backend
    from repro.core.parallel import GradientWorkerPool

    optimizer = trainer.optimizer
    scale = 1.0 / len(batch)
    reference = None
    with backend.dtype_scope(np.float64):
        trainer.model.train()
        for shard in np.array_split(np.asarray(batch), 2):
            optimizer.zero_grad()
            for t in shard:
                trainer._sample_loss(int(t)).backward(np.asarray(scale))
            grads = [None if p.grad is None else p.grad.copy() for p in optimizer.parameters]
            reference = grads if reference is None else [
                g if r is None else (r if g is None else r + g)
                for r, g in zip(reference, grads)
            ]
        optimizer.zero_grad()
        with GradientWorkerPool(trainer, 2, transport="shm") as pool:
            pool.accumulate_gradients(batch, scale)
            transport = pool.transport
        parallel = [None if p.grad is None else p.grad.copy() for p in optimizer.parameters]
        optimizer.zero_grad()
    same = all(
        (r is None and g is None) or (r is not None and g is not None and np.array_equal(r, g))
        for r, g in zip(reference, parallel)
    )
    return transport == "shm" and same


def record_arena_bytes(sink: list) -> None:
    """Append the shm arena size (``parallel.shm.arena_bytes_total``) of each pool fit() creates.

    Read right after creation: the gauge is set in the parent when the
    arenas are built, and later worker registry merges overwrite gauges
    with the workers' reset values.
    """
    from repro.core.parallel import GradientWorkerPool
    from repro.obs.registry import default_registry

    create = GradientWorkerPool.create

    def recorded(cls, *args, **kwargs):
        pool = create(*args, **kwargs)
        sink.append(default_registry().gauge("parallel.shm.arena_bytes_total").value)
        return pool

    GradientWorkerPool.create = classmethod(recorded)


def log_shm_segments(path: str) -> None:
    """Append the name of every shared-memory arena this process creates to ``path``.

    Written at creation, so the benchmark can unlink what a crashed or
    killed run left behind without touching anyone else's segments.
    """
    from repro.core.shm_arena import SharedArena

    create = SharedArena.__init__

    def logged(self, nbytes: int) -> None:
        create(self, nbytes)
        with open(path, "a") as handle:
            handle.write(self.name + "\n")

    SharedArena.__init__ = logged


def stop_resource_tracker() -> None:
    """Stop and join multiprocessing's resource tracker if this process started one."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def layer_report(tracer, registry) -> dict:
    """Per-layer totals, named-layer self time by root, connection trees, span counts, counters."""
    counters = {name: metric.value for name, metric in registry.metrics().items()
                if metric.kind in ("counter", "gauge")
                and not name.startswith("paperbench.")}
    named = {root: tracer.named_self(root) for root in tracer.root_self}
    return {"totals": tracer.layer_totals(registry), "named_self": named,
            "connections": tracer.connections, "spans": tracer.span_count(),
            "unlinked": tracer.unlinked, "counters": counters}


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def build_trainer(request):
    """Dataset, model and trainer from the request: one training set-up."""
    from repro import STGNNDJD, Trainer, TrainingConfig

    dataset = build_dataset(request["spec"], request["trips"], request["coords"])
    model = STGNNDJD.from_dataset(dataset, seed=request["seed"], **request["model"])
    return Trainer(model, dataset, TrainingConfig(**request["training"]))


def run_train(request, send, receive) -> None:
    from repro.obs.registry import default_registry, enable_metrics

    from measure import warm_up
    from tracer import Tracer

    tracer = None
    if request["trace"]:
        # Workers fork with the registry enabled, so their span counters
        # ride home on the pool's metrics merge.
        enable_metrics(True)
        tracer = Tracer().install()
    log_shm_segments(request["shm_log"])
    clock = StepClock().install()
    arena_bytes: list = []
    record_arena_bytes(arena_bytes)

    setups, trainer = [], None
    for _ in range(request["setup_repeats"]):
        trainer = None
        gc.collect()
        start = perf_counter()
        trainer = build_trainer(request)
        setups.append(perf_counter() - start)

    gates = {}
    if request["training"]["workers"] > 0:
        train_idx = trainer.dataset.split_indices()[0]
        gates["shm_parity"] = shm_parity(trainer, train_idx[:2])

    val_idx = trainer.dataset.split_indices()[1]

    def validate_one() -> float:
        start = perf_counter()
        trainer.validation_loss(val_idx[:1])
        return perf_counter() - start

    warm = warm_up(validate_one, max_seconds=6.0)

    registry = default_registry()
    if tracer is not None:
        tracer.reset()
        registry.reset()
    clock.steps.clear()
    send("ready")
    receive()

    twin_steps = request["twin_steps"]
    timed_params: list = []

    def after_timed_step(optimizer) -> None:
        if len(clock.steps) <= twin_steps:
            timed_params.append(parameter_copies(optimizer))

    clock.after_step = after_timed_step
    start = perf_counter()
    history = trainer.fit()
    wall = perf_counter() - start - clock.paused
    clock.after_step = None
    steps = list(clock.steps)
    layers = None
    if tracer is not None:
        layers = layer_report(tracer, registry)
        layers["counters"]["parallel.shm.arena_bytes_total"] = \
            arena_bytes[-1] if arena_bytes else 0.0
        tracer.write(request["trace_path"])  # the twin's spans come after: not reported

    # The twin (not timed): a second trainer built from the same seed
    # starts the same fit(); its parameters after each of its first
    # twin_steps optimizer steps must equal the timed fit's bit for bit.
    twin_params: list = []

    def after_twin_step(optimizer) -> None:
        twin_params.append(parameter_copies(optimizer))
        if len(twin_params) == twin_steps:
            raise TwinDone

    config = trainer.config
    train_size = len(trainer.dataset.split_indices()[0])
    trainer = None
    gc.collect()
    twin = build_trainer(request)
    clock.after_step = after_twin_step
    try:
        twin.fit()
    except TwinDone:
        pass
    clock.after_step = None
    gates["twin_fit_repeats_in_run"] = len(twin_params) == twin_steps and all(
        same_arrays(a, b) for a, b in zip(timed_params, twin_params))
    stop_resource_tracker()

    per_epoch = train_size if config.max_batches_per_epoch is None else \
        min(train_size, config.batch_size * config.max_batches_per_epoch)
    reply = {
        "setups": setups,
        "gates": gates,
        "warmup": warm,
        "wall": wall,
        "steps": steps,
        "samples": per_epoch * len(history.train_loss),
        "epochs": len(history.train_loss),
        "batches_per_epoch": -(-per_epoch // config.batch_size),
        "val_loss": float(history.val_loss[-1]),
    }
    if layers is not None:
        reply["layers"] = layers
    send(reply)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class Server:
    """One serving stack: service (or fleet) behind an HTTP server thread."""

    def __init__(self, request) -> None:
        from repro import STGNNDJD
        from repro.serve import FleetRouter, PredictionService, make_fleet_server, make_server

        spec = request["spec"]
        dataset = build_dataset(spec, request["trips"], request["coords"])
        model = STGNNDJD.from_dataset(dataset, seed=request["seed"], **request["model"])
        self.model = model
        if request["fleet"] is None:
            self.service = PredictionService.for_dataset(model, dataset)
            self.http = make_server(self.service)
        else:
            shards, replicas = request["fleet"]
            self.service = FleetRouter.for_dataset(model, dataset, num_shards=shards,
                                                   num_replicas=replicas)
            self.http = make_fleet_server(self.service)
        self.service.start()
        self.thread = threading.Thread(target=self.http.serve_forever,
                                       name="http-acceptor", daemon=True)
        self.thread.start()

    @property
    def port(self) -> int:
        return self.http.server_address[1]

    def close(self) -> None:
        self.http.shutdown()
        self.http.server_close()
        self.thread.join()
        self.service.stop()


def run_serve(request, send, receive) -> None:
    from repro.obs.registry import default_registry, enable_metrics
    from repro.tensor import inference_mode

    from tracer import Tracer

    tracer = None
    if request["trace"]:
        enable_metrics(True)
        tracer = Tracer().install()

    setups, server = [], None
    for _ in range(request["setup_repeats"]):
        if server is not None:
            server.close()
            server = None
            gc.collect()
        start = perf_counter()
        server = Server(request)
        setups.append(perf_counter() - start)
    gc.collect()
    send({"port": server.port, "setups": setups})

    registry = default_registry()
    while True:
        command = receive()
        if command == "measure":
            if tracer is not None:
                tracer.reset()
                registry.reset()
            send("ok")
        elif command == "finish":
            break
    server.close()
    reply = {}
    store = server.service.store
    if request["fleet"] is None:
        # The reference forecast: the served model on the store's current
        # window, in this process, bypassing HTTP, queue and cache.
        service = server.service
        with inference_mode():
            demand, supply = server.model(store.sample())
            reply["reference"] = (
                service.demand_normalizer.inverse_transform(demand.data),
                service.supply_normalizer.inverse_transform(supply.data),
            )
    else:
        reply["state"] = (store.frontier,) + store.retained_tensors()
    if tracer is not None:
        reply["layers"] = layer_report(tracer, registry)
        tracer.write(request["trace_path"])
    send(reply)


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    channel_in = sys.stdin.buffer
    channel_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)

    def send(obj) -> None:
        pickle.dump(obj, channel_out, protocol=pickle.HIGHEST_PROTOCOL)
        channel_out.flush()

    def receive():
        return pickle.load(channel_in)

    request = receive()
    if request["role"] == "train":
        run_train(request, send, receive)
        try:
            receive()  # stay idle until the benchmark closes the channel
        except EOFError:
            pass
    else:
        run_serve(request, send, receive)
    channel_out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
