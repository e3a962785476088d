"""The four workloads: why each exists, what it loads, what it bypasses.

Every workload runs the system in a child process (``sut.py``) built
from the seed's generated inputs, and returns an :class:`Outcome`: the
correctness gates, the operation counts, the end-to-end metrics and,
for a traced run, the per-layer metrics.

Every run prints every end-to-end metric, so the five names are the
same on every workload, each measured on that workload's own unit of
work (times calibrated to a reference host speed, see ``run.py``):

===================  ==========================  ==================  ===================
workload             operation (latency)         throughput unit     set-up
===================  ==========================  ==================  ===================
``train_571``        one optimizer step          training samples    dataset+model+Trainer
``train_40``         one optimizer step          training samples    dataset+model+Trainer
``predict_571``      one ``GET /predict`` (all)  predictions         dataset+service+HTTP
``ingest_fleet``     one 500-trip ``POST`` ack   trip events         dataset+fleet+HTTP
===================  ==========================  ==================  ===================

Why the earlier attempt was noisy, and what replaced it
-------------------------------------------------------
A first version of this benchmark drove ``/predict`` *open-loop* at a
rate where the dispatcher never idled: requests queued behind each
other, so each latency sample measured the queue's length at that
moment as much as the forward pass, and two runs of identical code
moved p50 by 9% and p90 by 12%. ``predict_571`` is now closed-loop with
one client: every GET pays exactly one window assembly, one forward
and one JSON encoding, with nothing queued ahead of it. The same
version timed ``train_571`` as a single ``fit`` call, so its "p50" and
"p90" were one sample; the training workloads now time every optimizer
step and report a percentile only when at least ten steps lie beyond
it (see :func:`measure.percentile`).

Why there is no p90 among the end-to-end metrics
-------------------------------------------------
A p90 needs 100 operations per run. At 571 stations a GET costs about
0.45 s and a two-sample training step about 1.3 s on a 2-CPU box, so
100 of either per run does not fit the benchmark's time budget across
four workloads. The median needs 20 and is reported everywhere.

``peak_pss_mb`` is the system's alone: PSS summed over the system
child's process tree (gradient workers included), sampled through the
timed phase. The load generator's own PSS (it holds the generated
inputs) is on the details line.

Model quality is a gate, not a metric: ``ingest_fleet`` has no loss to
report, and a metric must be reported on every workload. After the
timed ``fit``, the training workloads start a second ``fit`` (not
timed) on a trainer built afresh from the seed; its parameters after
each of its first optimizer steps must equal the timed fit's bit for
bit. The validation loss must also repeat bit for bit across runs of
one seed on the same code. ``predict_571``'s served forecast must equal
the model run in-process on the store's window. The validation loss is
on the details line.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import inputs
from client import request
from measure import (
    HostProbe,
    PeakPssSampler,
    latencies_with_failures,
    percentile,
    reap_group,
    unlink_logged_segments,
    warm_up,
)
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# The 571-station model: the paper's architecture with one FCG layer,
# one PCG layer and two attention heads, the configuration the repo's
# scaling benchmark already uses at this size. The paper's 2/3/4 takes
# ~1 s per inference forward and ~3 s per training sample here, which
# leaves too few operations per run to measure. Dropout is off so that
# training is deterministic across processes (the parity gate).
MODEL_571 = dict(fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0)
PREDICT_MIN_GETS = 25
INGEST_BATCH = 500
INGEST_POLL_SECONDS = 0.25
INGEST_POLL_STATIONS = 8
INGEST_STREAM_DAYS = 120


@dataclass
class Outcome:
    gates: dict[str, bool]
    attempted: int
    failed: int
    metrics: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(self.gates.values())


class Child:
    """The system-under-test process, in its own session.

    Closing it stops the child, kills anything left in its process
    group (gradient workers, the resource tracker), waits until the
    group is empty and unlinks shared-memory segments the child created
    and did not remove.
    """

    def __init__(self, request_obj: dict, cpus: set[int] | None = None) -> None:
        self._shm_log = request_obj["shm_log"]
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sut.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )
        if cpus is not None:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.leaked: list = []
        self.send(request_obj)

    def send(self, obj) -> None:
        pickle.dump(obj, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()

    def receive(self):
        return pickle.load(self.proc.stdout)

    def close(self, graceful: bool = True) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20 if graceful else 0.1)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.leaked = reap_group(self.proc.pid) + unlink_logged_segments(self._shm_log)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(graceful=exc_type is None)


def _pin_single_cpu_system(host: HostProbe) -> set[int] | None:
    """Put the load generator on one CPU; return the rest for the system.

    A serving child (one interpreter, so about one CPU of work) or a
    serial trainer would otherwise share a CPU with the client on some
    runs and not on others. The host-speed probe moves with the system,
    so it measures the CPU the measured work runs on.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    os.sched_setaffinity(host.proc.pid, set(cpus[1:]))
    return set(cpus[1:])


def _request(role: str, spec: inputs.CitySpec, seed: int, trace: bool, workload: str,
             **extra) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    return {
        "role": role, "spec": spec, "seed": seed, "trace": trace,
        "trips": inputs.history_trips(spec, seed),
        "coords": inputs.station_coords(spec, seed),
        "trace_path": os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl"),
        "shm_log": os.path.join(OUT_DIR, f"shm-{os.getpid()}.log"),
        # Set-up is timed as the median of several; a 571-station build
        # takes seconds, so fewer repeats there.
        "setup_repeats": 3 if spec.num_stations > 100 else 5,
        **extra,
    }


def _per_call_ms(totals: dict, *layers: str) -> float:
    """Self milliseconds of ``layers`` together, per call of the first."""
    calls = totals.get(layers[0], [0, 0.0])[0]
    if not calls:
        return 0.0
    return 1000.0 * sum(totals.get(layer, [0, 0.0])[1] for layer in layers) / calls


def _overhead_ratio(wall: float, spans: float) -> float:
    """Traced over untraced time, estimated from span count × per-span cost."""
    cost = spans * Tracer.span_cost()
    return wall / max(wall - cost, 1e-9)


def _request_coverage(report: dict, requests: list) -> float:
    """Share of the timed requests' client-side time inside a named layer's span.

    Each request is served by two span trees tagged with the client's
    port: the acceptor's ``serve.http.accept`` (spawning the request
    thread) and the request thread's, rooted at the stdlib
    ``serve.http.request`` wrapper, with the dispatcher's work for it
    hanging under its ``predict``. A request's covered time is the union
    of the outermost named spans of both trees, clipped to its
    client-side interval (client and server read one monotonic clock),
    so overlapping threads count once. What the ``serve.http.request``
    catch-all's own self time holds, the wire and the client all count
    as uncovered.
    """
    trees: dict[int, list] = {}
    for _, port, start, end, named in report["connections"]:
        trees.setdefault(port, []).append((start, end, named))
    covered = 0.0
    for r in requests:
        low, high = r.start, r.start + r.seconds
        spans = sorted(interval for start, end, named in trees.get(r.port, ())
                       if start < high and end > low for interval in named)
        cursor = low
        for start, end in spans:
            start, end = max(start, cursor), min(end, high)
            if end > start:
                covered += end - start
                cursor = end
    return covered / sum(r.seconds for r in requests)


def _layer_metrics(report: dict, coverage: float, wall: float, spans: float,
                   serve: dict | None = None) -> dict[str, float]:
    totals, counters = report["totals"], report["counters"]
    hits = sum(v for k, v in counters.items() if k.endswith(".cache_hits"))
    misses = sum(v for k, v in counters.items() if k.endswith(".cache_misses"))
    serve = serve or {}
    return {
        "data.sample_ms": _per_call_ms(totals, "data.sample"),
        "graphs.flow_conv_ms": _per_call_ms(totals, "graphs.flow_conv"),
        "graphs.fcg_ms": _per_call_ms(totals, "graphs.fcg"),
        "core.flow_gnn_ms": _per_call_ms(totals, "core.flow_gnn"),
        "core.pattern_gnn_ms": _per_call_ms(totals, "core.pattern_gnn"),
        "core.model_self_ms": _per_call_ms(totals, "core.model"),
        "tensor.backward_ms": _per_call_ms(totals, "tensor.backward"),
        "optim.step_ms": _per_call_ms(totals, "optim.step", "optim.clip"),
        "core.validation_ms": _per_call_ms(totals, "core.validation"),
        "core.parallel.wait_ms": _per_call_ms(totals, "core.parallel.wait"),
        "core.parallel.bytes_per_step": float(counters.get("parallel.shm.arena_bytes_total", 0.0)),
        "serve.state.sample_ms": _per_call_ms(totals, "serve.state.sample"),
        "serve.service.wait_ms": _per_call_ms(totals, "serve.service.predict"),
        "serve.http.accept_ms": _per_call_ms(totals, "serve.http.accept"),
        "serve.http.request_ms": _per_call_ms(totals, "serve.http.request"),
        "serve.http.parse_ms": _per_call_ms(totals, "serve.http.parse"),
        "serve.http.close_ms": _per_call_ms(totals, "serve.http.close"),
        "serve.http.predict_ms": _per_call_ms(totals, "serve.http.get"),
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.http.ingest_ms": _per_call_ms(totals, "serve.http.post"),
        "serve.fleet.ingest_us": 1000.0 * _per_call_ms(totals, "serve.fleet.ingest"),
        "serve.state.advance_ms": _per_call_ms(totals, "serve.state.advance"),
        "serve.fleet.predict_ms": _per_call_ms(totals, "serve.fleet.predict"),
        "serve.fleet.sample_ms": _per_call_ms(totals, "serve.fleet.sample"),
        "serve.state.rollovers": float(serve.get("rollovers", 0)),
        "serve.state.late_dropped_ratio": float(serve.get("late_dropped_ratio", 0.0)),
        "trace.coverage_ratio": coverage,
        "trace.overhead_ratio": _overhead_ratio(wall, spans),
    }


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def _train(workload: str, spec, seed: int, seconds: int, trace: bool, host: HostProbe, *,
           model: dict, training: dict, twin_steps: int) -> Outcome:
    req = _request("train", spec, seed, trace, workload, model=model, training=training,
                   twin_steps=twin_steps)
    cpus = _pin_single_cpu_system(host) if training["workers"] == 0 else None
    with Child(req, cpus) as child:
        child.receive()  # set-up, gates and warm-up done; the child waits
        child.send("fit")
        with PeakPssSampler(child.proc.pid, load_pid=os.getpid()) as pss:
            reply = child.receive()
    steps = reply["steps"]
    gates = dict(reply["gates"])
    gates["val_loss_finite"] = bool(np.isfinite(reply["val_loss"]))
    gates["val_loss_repeats_across_runs"] = _same_as_recorded(
        f"{workload}:{seed}:{seconds}:{code_identity()}", reply["val_loss"])
    expected = training["epochs"] * reply["batches_per_epoch"]
    gates["no_early_stop"] = reply["epochs"] == training["epochs"]
    gates["all_steps_ran"] = len(steps) == expected
    gates["no_leaked_processes"] = not child.leaked
    metrics = {
        "setup_s": statistics.median(reply["setups"]),
        "peak_pss_mb": pss.peak_mib * 1.048576,
        "ok_ratio": len(steps) / expected,
        "throughput_per_s": reply["samples"] / reply["wall"],
        "latency_p50_ms": 1000.0 * percentile(steps, 0.5),
    }
    layers = {}
    if trace:
        report = reply["layers"]
        workers = training["workers"]
        worker_calls = sum(calls for layer, (calls, _) in report["totals"].items()) - report["spans"]
        spans = report["spans"] + worker_calls / max(workers, 1)
        covered = sum(report["named_self"].values())
        layers = _layer_metrics(report, covered / reply["wall"], reply["wall"], spans)
    details = {"steps": len(steps), "fit_s": reply["wall"], "val_loss": reply["val_loss"],
               "setups_s": reply["setups"], "warmup_s": reply["warmup"],
               "load_generator_pss_mb": pss.load_peak_mib * 1.048576}
    return Outcome(gates, expected, expected - len(steps), metrics, layers, details)


def code_identity() -> str:
    """Digest of the system's and the benchmark's Python source.

    A recorded value holds for one version of the code: a change that
    legitimately moves floating-point rounding gets a new key instead of
    failing against the old code's value.
    """
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for directory, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _same_as_recorded(key: str, value: float) -> bool:
    """Whether ``value`` equals, bit for bit, what an earlier run with ``key`` recorded.

    The first run with a key records its value; later runs in the same
    checkout with the same code, seed and length must reproduce it. On
    its first run a key cannot fail, so the training workloads also
    repeat the start of their fit inside every run
    (``twin_fit_repeats_in_run``).
    """
    path = os.path.join(OUT_DIR, "val_loss.json")
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {}
    if key in record:
        return record[key] == value.hex()
    record[key] = value.hex()
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return True


def train_571(seed: int, seconds: int, trace: bool, host: HostProbe) -> Outcome:
    """Paper-scale training epoch: ``Trainer.fit`` on 571 stations, 2 shm workers.

    Why: ROADMAP aim 1's first end-to-end number is a chicago_571
    training epoch; the paper's scale is where the dense O(n^2) graph
    work and the gradient transport matter.
    Loads: ``data`` (sample), ``graphs`` (flow convolution, FCG),
    ``core`` model/GNNs in the workers, ``tensor.backward`` (most of
    the time), ``core.parallel`` (shm publish, wait, reduce), ``optim``,
    and the validation pass over one day (48 inference forwards).
    Bypasses: all of ``serve``.
    A fixed schedule: one epoch of two-sample batches (one per worker),
    at least 20 of them so the step median is supported. The in-run
    twin repeats the first two steps.
    """
    batches = max(20, round(seconds))
    training = dict(epochs=1, batch_size=2, max_batches_per_epoch=batches, workers=2,
                    transport="shm", seed=seed, patience=10)
    return _train("train_571", inputs.CHICAGO_571, seed, seconds, trace, host,
                  model=MODEL_571, training=training, twin_steps=2)


def train_40(seed: int, seconds: int, trace: bool, host: HostProbe) -> Outcome:
    """Serial training on 40 stations with the paper's model.

    Why: the flow matrices fit in cache and an 8-sample step takes tens
    of milliseconds, so Python op dispatch dominates: the workload that
    op-seam work (ROADMAP item 2) should move. It is also the
    single-worker baseline: ``core.parallel`` does no work here, so a
    transport change (ROADMAP item 3) predicts no change on it.
    Loads: ``data``, ``graphs``, ``core``, ``nn``/``tensor`` forward
    and backward, ``optim``, validation. Bypasses: ``core.parallel``
    and all of ``serve``.
    """
    epochs = max(2, round(seconds / 1.5))
    training = dict(epochs=epochs, batch_size=8, workers=0, seed=seed, patience=epochs + 1)
    return _train("train_40", inputs.CHICAGO_40, seed, seconds, trace, host,
                  model={}, training=training, twin_steps=24)


# ----------------------------------------------------------------------
# Serving: one 571-station predictor
# ----------------------------------------------------------------------
class TripEncoder:
    """JSON ``/ingest`` bodies for slices of a columnar trip table."""

    def __init__(self, trips: dict) -> None:
        self._columns = [trips[key] for key in
                         ("origin", "destination", "start_time", "end_time")]
        self.size = len(self._columns[0])

    def body(self, start: int, stop: int) -> bytes:
        rows = zip(*(column[start:stop].tolist() for column in self._columns))
        return ('{"trips":[' + ",".join(
            f'{{"origin":{o},"destination":{d},"start_time":{s!r},"end_time":{e!r}}}'
            for o, d, s, e in rows) + "]}").encode()


def predict_571(seed: int, seconds: int, trace: bool, host: HostProbe) -> Outcome:
    """Closed-loop ``/predict`` for all 571 stations, one client.

    Why: the paper's efficiency claim (Sec. VII-I) is a per-slot
    prediction for every Chicago station; ROADMAP aim 1's second
    end-to-end number is ``/predict`` latency at 571 stations.
    Each iteration POSTs one late trip into a closed slot (which bumps
    the store version, so the forecast cache cannot answer) and then
    GETs ``/predict``; only the GET is timed. Every timed GET therefore
    pays window assembly (``serve.state.sample``), one inference
    forward (``graphs``, ``core``) and JSON encoding (``serve.http``),
    with no queueing: one request in flight, so latency is service
    time, not queue length.
    Loads: ``serve.http``, ``serve.service``, ``serve.state``, forward
    ``graphs``/``core``/``nn``. Bypasses: backward, ``optim``,
    ``core.parallel``, ``serve.fleet``, the forecast cache (hit ratio 0
    by construction).
    """
    spec = inputs.CHICAGO_571
    late = TripEncoder(inputs.late_trips(spec, seed, 4096))
    req = _request("serve", spec, seed, trace, "predict_571", model=MODEL_571, fleet=None)
    gets: list = []
    posts_ok = True
    with Child(req, _pin_single_cpu_system(host)) as child:
        ready = child.receive()
        port = ready["port"]
        cursor = iter(range(late.size))

        async def iteration() -> tuple:
            row = next(cursor)
            post = await request(port, "POST", "/ingest", late.body(row, row + 1))
            get = await request(port, "GET", "/predict")
            return post, get

        def warm_call() -> float:
            return asyncio.run(iteration())[1].seconds

        warm = warm_up(warm_call, max_calls=12, max_seconds=10.0)
        child.send("measure")
        child.receive()

        async def measure() -> float:
            nonlocal posts_ok
            start = perf_counter()
            while perf_counter() - start < seconds or len(gets) < PREDICT_MIN_GETS:
                post, get = await iteration()
                posts_ok &= post.status == 200 and json.loads(post.body)["accepted"] == 1
                gets.append(get)
            return perf_counter() - start

        with PeakPssSampler(child.proc.pid, load_pid=os.getpid()) as pss:
            wall = asyncio.run(measure())
        child.send("finish")
        reply = child.receive()

    failed = sum(g.status != 200 for g in gets)
    ok = [g for g in gets if g.status == 200]
    bodies = [json.loads(g.body) for g in ok]
    last = bodies[-1] if bodies else None
    reference = reply["reference"]
    gates = {
        "posts_accepted": posts_ok,
        "all_stations": all(len(b["demand"]) == spec.num_stations for b in bodies),
        "never_cached": not any(b["cached"] for b in bodies),
        "matches_in_process_forward": last is not None
        and np.array_equal(np.asarray(last["demand"]), reference[0])
        and np.array_equal(np.asarray(last["supply"]), reference[1]),
        "no_leaked_processes": not child.leaked,
    }
    latencies = latencies_with_failures([g.seconds for g in ok], failed)
    get_seconds = sum(g.seconds for g in ok)
    metrics = {
        "setup_s": statistics.median(ready["setups"]),
        "peak_pss_mb": pss.peak_mib * 1.048576,
        "ok_ratio": len(ok) / len(gets),
        "throughput_per_s": len(ok) / get_seconds,
        "latency_p50_ms": 1000.0 * percentile(latencies, 0.5),
    }
    layers = {}
    if trace:
        report = reply["layers"]
        coverage = _request_coverage(report, ok)
        layers = _layer_metrics(report, coverage, wall, report["spans"])
    details = {"gets": len(gets), "setups_s": ready["setups"], "warmup_s": warm,
               "measure_s": wall, "load_generator_pss_mb": pss.load_peak_mib * 1.048576}
    if trace:
        details["unlinked_spans"] = report["unlinked"]
    return Outcome(gates, len(gets), failed, metrics, layers, details)


# ----------------------------------------------------------------------
# Serving: the write side, a 2-shard x 2-replica fleet
# ----------------------------------------------------------------------
def ingest_fleet(seed: int, seconds: int, trace: bool, host: HostProbe) -> Outcome:
    """Closed-loop dirty trip ingest into a 2-shard x 2-replica fleet.

    Why: the write side of the system (ROADMAP aim 1's third number,
    fleet events/sec): ``serve.state`` ingest and slot rollover behind
    ``serve.fleet`` routing. One connection posts 500-trip batches back
    to back (mostly in order, with the dirt of the repository's fleet
    replay, see ``inputs.live_stream``); the other polls ``/predict``
    for 8 stations every 0.25 s, so forecasts are read while the state
    moves.
    Loads: ``serve.http`` (POST parsing), ``serve.fleet`` (event
    routing, ``ShardedFlowStore.sample``, router), ``serve.state``
    (apply, ``advance_to`` ring zeroing), and a small forward per poll.
    Bypasses: backward, ``optim``, ``core.parallel``.
    Correctness: a mirror ``FlowStateStore`` in this process is fed the
    same events in the same order after the run; the fleet's retained
    tensors must equal it bit for bit (zero lost updates) and every
    POST's accepted/dropped counts must equal the mirror's verdicts.
    """
    from sut import build_dataset

    from repro.serve import FlowStateStore

    spec = inputs.CHICAGO_40_FLEET
    stream = inputs.live_stream(spec, seed, INGEST_STREAM_DAYS)
    encoder = TripEncoder(stream)
    batches = -(-encoder.size // INGEST_BATCH)
    rng = np.random.default_rng([seed, 6])
    req = _request("serve", spec, seed, trace, "ingest_fleet", model={}, fleet=(2, 2))
    posted: list = []  # (batch index, response, timed)
    polls: list = []
    with Child(req, _pin_single_cpu_system(host)) as child:
        ready = child.receive()
        port = ready["port"]
        pending = {"index": 0, "body": encoder.body(0, INGEST_BATCH)}

        def encode_next() -> None:
            index = pending["index"] + 1
            pending["index"] = index
            pending["body"] = encoder.body(index * INGEST_BATCH, (index + 1) * INGEST_BATCH)

        async def post_next(timed: bool):
            """POST the next batch, encoding the one after while the server works."""
            index = pending["index"]
            if index >= batches:
                return None
            response = await request(port, "POST", "/ingest", pending["body"],
                                     while_waiting=encode_next)
            posted.append((index, response, timed))
            return response

        warm = warm_up(lambda: asyncio.run(post_next(False)).seconds,
                       min_calls=10, max_calls=60, max_seconds=5.0)
        child.send("measure")
        child.receive()
        done = asyncio.Event()

        async def feeder(deadline: float) -> float:
            while perf_counter() < deadline:
                if await post_next(True) is None:
                    break
            done.set()
            return perf_counter()

        async def poller() -> None:
            while not done.is_set():
                stations = rng.choice(spec.num_stations, INGEST_POLL_STATIONS, replace=False)
                query = ",".join(str(s) for s in stations)
                polls.append(await request(port, "GET", f"/predict?stations={query}"))
                try:
                    await asyncio.wait_for(done.wait(), INGEST_POLL_SECONDS)
                except asyncio.TimeoutError:
                    pass

        async def measure() -> float:
            """Wall time of the feed (it ends early if the stream runs out)."""
            start = perf_counter()
            end, _ = await asyncio.gather(feeder(start + seconds), poller())
            return end - start

        with PeakPssSampler(child.proc.pid, load_pid=os.getpid()) as pss:
            wall = asyncio.run(measure())
        child.send("finish")
        reply = child.receive()

    # Replay the exact posted sequence into an unsharded mirror store.
    dataset = build_dataset(spec, req["trips"], req["coords"])
    mirror = FlowStateStore.from_dataset(dataset)
    verdicts_match = True
    columns = [stream[key] for key in ("origin", "destination", "start_time", "end_time")]
    for index, response, _ in posted:
        rows = slice(index * INGEST_BATCH, (index + 1) * INGEST_BATCH)
        batch = list(zip(*(column[rows].tolist() for column in columns)))
        accepted = sum(mirror.ingest_event(*event) for event in batch)
        if response.status == 200:
            body = json.loads(response.body)
            verdicts_match &= (body["accepted"], body["dropped_late"]) == (accepted, len(batch) - accepted)
    frontier, first, inflow, outflow = reply["state"]
    m_first, m_inflow, m_outflow = mirror.retained_tensors()
    timed = [(index, r) for index, r, is_timed in posted if is_timed]
    failed_posts = sum(r.status != 200 for _, r in timed)
    failed_polls = sum(p.status != 200 for p in polls)
    ok_bodies = [json.loads(r.body) for _, r in timed if r.status == 200]
    gates = {
        "all_posts_ok": all(r.status == 200 for _, r, _ in posted),
        "verdicts_match_mirror": verdicts_match,
        "state_matches_mirror": frontier == mirror.frontier and first == m_first
        and np.array_equal(inflow, m_inflow) and np.array_equal(outflow, m_outflow),
        "polls_answered": all(p.status == 200 and len(json.loads(p.body)["demand"]) == INGEST_POLL_STATIONS
                              for p in polls),
        "no_leaked_processes": not child.leaked,
    }
    events = sum(b["accepted"] + b["dropped_late"] for b in ok_bodies)
    dropped = sum(b["dropped_late"] for b in ok_bodies)
    acks = latencies_with_failures([r.seconds for _, r in timed if r.status == 200], failed_posts)
    attempted = len(timed) + len(polls)
    metrics = {
        "setup_s": statistics.median(ready["setups"]),
        "peak_pss_mb": pss.peak_mib * 1.048576,
        "ok_ratio": (attempted - failed_posts - failed_polls) / attempted,
        "throughput_per_s": events / wall,
        "latency_p50_ms": 1000.0 * percentile(acks, 0.5),
    }
    layers = {}
    if trace:
        report = reply["layers"]
        coverage = _request_coverage(report, [r for _, r in timed])
        serve = {
            "rollovers": ok_bodies[-1]["frontier"] - ok_bodies[0]["frontier"] if ok_bodies else 0,
            "late_dropped_ratio": dropped / events if events else 0.0,
        }
        layers = _layer_metrics(report, coverage, wall, report["spans"], serve)
    details = {"posts": len(timed), "polls": len(polls), "events": events,
               "setups_s": ready["setups"], "warmup_s": warm,
               "batches_left": batches - len(posted),
               "load_generator_pss_mb": pss.load_peak_mib * 1.048576}
    if trace:
        details["unlinked_spans"] = report["unlinked"]
    return Outcome(gates, attempted, failed_posts + failed_polls, metrics, layers, details)


WORKLOADS = {
    "train_571": train_571,
    "train_40": train_40,
    "predict_571": predict_571,
    "ingest_fleet": ingest_fleet,
}
