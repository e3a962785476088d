"""Layer spans recorded from outside the library.

:class:`Tracer` replaces a public entry point of each layer (a method, a
classmethod, or a module-level name the caller resolves at call time)
with a wrapper that opens a span on entry and closes it on exit. A span
is ``(id, name, start, end, parent)``; spans are kept in memory and
written out as JSON lines when the run ends (:meth:`Tracer.write`).

Self time is a span's duration minus the time its child spans cover.
It is computed as each span closes (the parent accumulates its
children's durations), so per-layer totals are available without a pass
over the span list, and spans closing in a forked gradient worker can
be booked there: a worker cannot hand its span list back, so it adds
its self times to ``paperbench.<layer>.self_s`` / ``.calls`` counters in
the library's default metrics registry, and the gradient pool's existing
registry merge (``GradientWorkerPool.accumulate_gradients``) brings them
home with every reply. The registry must therefore be enabled before
the pool forks.

Cross-thread parenting: :class:`~repro.serve.service.PredictionService`
answers a request on its dispatcher thread while the request's own
thread waits in ``predict``. A span opened with an empty stack on a
thread named ``*-dispatcher`` is parented to the one open span marked
``handoff`` (the waiting ``predict``). The benchmark's serving loads
keep at most one prediction in flight, so the match is unambiguous; if
two were ever open the dispatcher span stays a root and is counted in
:attr:`Tracer.unlinked`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from time import perf_counter

# Span record fields (a list, mutated in place while the span is open).
# _IN_NAMED: some ancestor is a named layer (not a CATCH_ALL span).
_ID, _NAME, _START, _COVERED, _PARENT, _ROOT, _IN_NAMED = range(7)
# Root fields, a list shared by a whole tree: its name, its connection's
# client port (None outside serving), the intervals of its outermost
# named-layer spans.
_ROOT_NAME, _ROOT_PORT, _ROOT_NAMED = range(3)

# (module, owner class or None for a module-level name, attribute,
#  layer name, role). Module-level names are patched where the caller
# looks them up (``repro.core.model`` calls its own ``build_fcg``).
# Roles: HANDOFF spans adopt dispatcher-thread work (see above);
# REQUEST spans name the request they run in, so a request's whole
# subtree is attributed to ``serve.http.get`` or ``serve.http.post``
# even though the method is known only after the request line is parsed;
# CONNECTION spans (``(self, request, client_address)`` methods) tag
# their tree with the client's port, which ties the acceptor's tree and
# the request thread's tree to the client request they served.
HANDOFF, REQUEST, CONNECTION = "handoff", "request", "connection"
LAYERS = (
    ("repro.data.dataset", "BikeShareDataset", "sample", "data.sample", None),
    ("repro.graphs.flow_convolution", "FlowConvolution", "forward", "graphs.flow_conv", None),
    ("repro.core.model", None, "build_fcg", "graphs.fcg", None),
    ("repro.core.gnn", "FlowGNN", "forward", "core.flow_gnn", None),
    ("repro.core.gnn", "PatternGNN", "forward", "core.pattern_gnn", None),
    ("repro.core.model", "STGNNDJD", "forward", "core.model", None),
    ("repro.core.trainer", None, "joint_demand_supply_loss", "nn.loss", None),
    ("repro.tensor.tensor", "Tensor", "backward", "tensor.backward", None),
    ("repro.optim.optimizer", "Optimizer", "zero_grad", "optim.zero_grad", None),
    ("repro.optim.adam", "Adam", "step", "optim.step", None),
    ("repro.core.trainer", None, "clip_grad_norm", "optim.clip", None),
    ("repro.core.trainer", "Trainer", "validation_loss", "core.validation", None),
    ("repro.core.parallel", "GradientWorkerPool", "create", "core.parallel.create", None),
    ("repro.core.parallel", "GradientWorkerPool", "accumulate_gradients", "core.parallel.wait", None),
    ("repro.core.parallel", "GradientWorkerPool", "close", "core.parallel.close", None),
    # The stdlib server the serving layer is built on (make_server's
    # ThreadingHTTPServer): the acceptor spawns one thread per
    # connection (serve.http.accept), which parses the request
    # (serve.http.parse), runs the handler and shuts the socket down
    # (serve.http.close). serve.http.request wraps that whole thread:
    # its self time is whatever no named span accounts for (handler
    # construction, reading the request line, flushing), so it is a
    # CATCH_ALL and never counts as covered.
    ("socketserver", "ThreadingMixIn", "process_request", "serve.http.accept", CONNECTION),
    ("socketserver", "ThreadingMixIn", "process_request_thread", "serve.http.request", CONNECTION),
    ("http.server", "BaseHTTPRequestHandler", "parse_request", "serve.http.parse", None),
    ("socketserver", "TCPServer", "shutdown_request", "serve.http.close", None),
    ("repro.serve.http", "ServingHandler", "do_GET", "serve.http.get", REQUEST),
    ("repro.serve.http", "ServingHandler", "do_POST", "serve.http.post", REQUEST),
    ("repro.serve.service", "PredictionService", "predict", "serve.service.predict", HANDOFF),
    ("repro.serve.state", "FlowStateStore", "sample", "serve.state.sample", None),
    ("repro.serve.state", "FlowStateStore", "ingest_event", "serve.state.ingest", None),
    ("repro.serve.state", "FlowStateStore", "advance_to", "serve.state.advance", None),
    ("repro.serve.fleet.shard", "ShardedFlowStore", "ingest_event", "serve.fleet.ingest", None),
    ("repro.serve.fleet.shard", "ShardedFlowStore", "sample", "serve.fleet.sample", None),
    ("repro.serve.fleet.router", "FleetRouter", "predict", "serve.fleet.predict", None),
)

# Spans that exist to give a request's threads a root, not to name a
# layer: their self time is the part of a request no layer accounts for.
CATCH_ALL = frozenset({"serve.http.request"})

WORKER_PREFIX = "paperbench."


class Tracer:
    """In-memory span recorder with live self-time accounting."""

    def __init__(self, keep: int = 100_000) -> None:
        self.pid = os.getpid()
        self.keep = keep
        self._local = threading.local()
        self._lock = threading.Lock()
        self._handoff: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every closed span (open spans keep running)."""
        with self._lock:
            self.spans: list[tuple] = []
            self.dropped = 0
            self.totals: dict[str, list] = {}  # layer -> [calls, self seconds]
            # root layer -> layer -> self seconds of that layer in trees under the root
            self.root_self: dict[str, dict[str, float]] = {}
            # (root name, client port, start, end, outermost named intervals)
            # of every closed tree that served a connection
            self.connections: list[tuple] = []
            self.unlinked = 0

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, role: str | None = None, port: int | None = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and threading.current_thread().name.endswith("-dispatcher"):
            with self._lock:
                if len(self._handoff) == 1:
                    parent = self._handoff[0]
                else:
                    self.unlinked += 1
        # The root lives in a list shared by the whole subtree, so a
        # REQUEST span can rename the tree it runs in.
        if parent is None:
            root = [name, port, []]
            in_named = False
        else:
            root = parent[_ROOT]
            if role == REQUEST:
                root[_ROOT_NAME] = name
            in_named = parent[_IN_NAMED] or parent[_NAME] not in CATCH_ALL
        record = [next(self._ids), name, perf_counter(), 0.0, parent, root, in_named]
        stack.append(record)
        if role == HANDOFF:
            with self._lock:
                self._handoff.append(record)
        return record

    def end(self, record: list, role: str | None = None) -> None:
        end = perf_counter()
        self._stack().pop()
        duration = end - record[_START]
        self_seconds = duration - record[_COVERED]
        parent = record[_PARENT]
        name = record[_NAME]
        if os.getpid() != self.pid:  # a forked gradient worker
            if parent is not None:
                parent[_COVERED] += duration
            from repro.obs.registry import default_registry

            registry = default_registry()
            registry.counter(f"{WORKER_PREFIX}{name}.self_s").inc(self_seconds)
            registry.counter(f"{WORKER_PREFIX}{name}.calls").inc()
            return
        with self._lock:
            if role == HANDOFF:
                self._handoff.remove(record)
            if parent is not None:
                parent[_COVERED] += duration
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0]
            total[0] += 1
            total[1] += self_seconds
            root = record[_ROOT]
            by_layer = self.root_self.setdefault(root[_ROOT_NAME], {})
            by_layer[name] = by_layer.get(name, 0.0) + self_seconds
            if name not in CATCH_ALL and not record[_IN_NAMED]:
                root[_ROOT_NAMED].append((record[_START], end))
            if parent is None and root[_ROOT_PORT] is not None:
                self.connections.append((root[_ROOT_NAME], root[_ROOT_PORT], record[_START],
                                         end, root[_ROOT_NAMED]))
            if len(self.spans) < self.keep:
                self.spans.append((record[_ID], name, record[_START], end,
                                   None if parent is None else parent[_ID],
                                   self_seconds))
            else:
                self.dropped += 1

    def named_self(self, root: str | None = None) -> float:
        """Self seconds of library layers (not :data:`CATCH_ALL`) under ``root``, or all roots."""
        roots = self.root_self.values() if root is None else [self.root_self.get(root, {})]
        return sum(seconds for by_layer in roots for layer, seconds in by_layer.items()
                   if layer not in CATCH_ALL)

    def span_count(self) -> int:
        return sum(calls for calls, _ in self.totals.values())

    # -- patching ----------------------------------------------------------
    def _wrap(self, fn, name: str, role: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            port = args[2][1] if role == CONNECTION else None
            record = tracer.begin(name, role, port)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(record, role)

        return traced

    def patch(self, owner, attr: str, name: str, role: str | None = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`unpatch`)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, role))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, name, role))
        else:
            new = self._wrap(raw, name, role)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self, layers=LAYERS) -> "Tracer":
        for module_name, owner_name, attr, name, role in layers:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self.patch(owner, attr, name, role)
        return self

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------
    def layer_totals(self, registry=None) -> dict[str, list]:
        """``layer -> [calls, self seconds]``, worker-merged counters included."""
        totals = {name: list(value) for name, value in self.totals.items()}
        if registry is not None:
            for metric_name, metric in registry.metrics().items():
                if metric_name.startswith(WORKER_PREFIX) and metric_name.endswith(".calls"):
                    layer = metric_name[len(WORKER_PREFIX):-len(".calls")]
                    self_s = registry.counter(f"{WORKER_PREFIX}{layer}.self_s").value
                    total = totals.setdefault(layer, [0, 0.0])
                    total[0] += int(metric.value)
                    total[1] += self_s
        return totals

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in seconds, perf_counter base)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, self_s in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "self": self_s}) + "\n")
            if self.dropped:
                handle.write(json.dumps({"dropped": self.dropped}) + "\n")

    # -- calibration and self-check ---------------------------------------
    @staticmethod
    def span_cost(calls: int = 20_000) -> float:
        """Seconds one traced call adds over the bare call, measured here."""
        class Probe:
            def noop(self):
                return None

        probe = Probe()
        start = perf_counter()
        for _ in range(calls):
            probe.noop()
        bare = perf_counter() - start
        tracer = Tracer(keep=0)
        tracer.patch(Probe, "noop", "probe")
        start = perf_counter()
        for _ in range(calls):
            probe.noop()
        traced = perf_counter() - start
        tracer.unpatch()
        return max(0.0, (traced - bare) / calls)

    @staticmethod
    def self_check() -> list[str]:
        """Self time, nesting and dispatcher handoff on a synthetic call tree."""
        failures = []

        class Work:
            def outer(self):
                time.sleep(0.004)
                self.inner()

            def inner(self):
                time.sleep(0.003)

            def wait(self, done: threading.Event):
                worker = threading.Thread(target=self.served, name="probe-dispatcher")
                worker.start()
                worker.join()
                done.set()

            def served(self):
                time.sleep(0.003)

        tracer = Tracer()
        tracer.patch(Work, "outer", "outer")
        tracer.patch(Work, "inner", "inner")
        tracer.patch(Work, "wait", "wait", HANDOFF)
        tracer.patch(Work, "served", "served")
        try:
            Work().outer()
            Work().wait(threading.Event())
        finally:
            tracer.unpatch()
        by_name = {span[1]: span for span in tracer.spans}
        if set(by_name) != {"outer", "inner", "wait", "served"}:
            return [f"tracer: recorded {sorted(by_name)}"]
        outer, inner = by_name["outer"], by_name["inner"]
        if inner[4] != outer[0]:
            failures.append("tracer: nested span lost its parent")
        if abs(outer[5] + inner[5] - (outer[3] - outer[2])) > 1e-9:
            failures.append("tracer: self times do not add up to the root's duration")
        if not 0.0035 <= outer[5] <= outer[3] - outer[2] - 0.0025:
            failures.append("tracer: parent self time includes its child")
        wait, served = by_name["wait"], by_name["served"]
        if served[4] != wait[0] or wait[5] > (wait[3] - wait[2]) - 0.0025:
            failures.append("tracer: dispatcher span not parented to the waiting span")
        if tracer.named_self("outer") <= 0.0 or tracer.unlinked:
            failures.append("tracer: root attribution broken")
        return failures
