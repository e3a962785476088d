"""Tests of the benchmark's measurement primitives.

Run with ``python3 -m pytest paperbench/test_measure.py -q``.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import measure
from measure import InsufficientSample, latencies_with_failures, percentile
from tracer import Tracer


def test_percentile_is_nearest_rank():
    sample = [float(i) for i in range(100, 0, -1)]
    assert percentile(sample, 0.5) == 50.0
    assert percentile(sample, 0.9) == 90.0


@pytest.mark.parametrize("n, q", [(19, 0.5), (99, 0.9), (10, 0.01)])
def test_percentile_refuses_unsupported_quantiles(n, q):
    with pytest.raises(InsufficientSample):
        percentile([1.0] * n, q)


def test_percentile_accepts_exactly_ten_beyond():
    assert percentile([float(i) for i in range(1, 21)], 0.5) == 10.0
    assert percentile([float(i) for i in range(1, 101)], 0.9) == 90.0


def test_failed_operations_miss_every_latency_limit():
    ok = [0.01] * 85
    sample = latencies_with_failures(ok, failed=15)
    assert len(sample) == 100
    assert percentile(sample, 0.9) == math.inf
    assert percentile(sample, 0.5) == 0.01


def _hold(ready, release):
    ready.set()
    release.wait(30)


def test_tree_pss_counts_copy_on_write_pages_once():
    block = np.ones(64 * 1024 * 1024 // 8)  # 64 MiB, touched
    before = measure.tree_pss_mib(os.getpid())
    ctx = mp.get_context("fork")
    ready, release = ctx.Event(), ctx.Event()
    child = ctx.Process(target=_hold, args=(ready, release))
    child.start()
    try:
        assert ready.wait(10)
        assert child.pid in measure.process_tree(os.getpid())
        after = measure.tree_pss_mib(os.getpid())
        # The child shares the block copy-on-write: summed PSS must not
        # double it the way summed RSS would.
        assert after < before + 32
        assert measure.pss_kib(child.pid) > 0
    finally:
        release.set()
        child.join(10)
    assert not child.is_alive()
    assert block.sum() > 0


def test_settled_and_warm_up():
    assert not measure.settled([1.0, 0.5, 1.0])
    assert measure.settled([3.0, 1.0, 1.05, 0.98])
    times = iter([5.0, 2.0, 1.0, 1.02, 0.99, 9.0])
    assert measure.warm_up(lambda: next(times)) == [5.0, 2.0, 1.0, 1.02, 0.99]


def test_reap_group_kills_and_waits_for_stragglers():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                            start_new_session=True)
    try:
        killed = measure.reap_group(proc.pid)
        assert killed == [proc.pid]
        assert proc.wait(5) != 0
        assert measure.group_members(proc.pid) == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_unlink_logged_segments_removes_only_logged_ones(tmp_path):
    logged = f"/dev/shm/psm_benchtest_{os.getpid()}"
    other = f"/dev/shm/psm_benchother_{os.getpid()}"
    log = tmp_path / "shm.log"
    log.write_text(os.path.basename(logged) + "\npsm_benchgone\n")
    for path in (logged, other):
        with open(path, "w"):
            pass
    try:
        assert measure.unlink_logged_segments(str(log)) == [os.path.basename(logged)]
        assert not os.path.exists(logged)
        assert os.path.exists(other)
        assert not log.exists()
        assert measure.unlink_logged_segments(str(log)) == []
    finally:
        for path in (logged, other):
            if os.path.exists(path):
                os.unlink(path)


def test_tracer_self_time_and_handoff():
    assert Tracer.self_check() == []


def test_tracer_unpatch_restores_originals():
    class Thing:
        def work(self):
            return 7

        @classmethod
        def make(cls):
            return cls()

    work, make = Thing.__dict__["work"], Thing.__dict__["make"]
    tracer = Tracer()
    tracer.patch(Thing, "work", "work")
    tracer.patch(Thing, "make", "make")
    assert Thing.make().work() == 7
    assert tracer.totals["work"][0] == 1 and tracer.totals["make"][0] == 1
    tracer.unpatch()
    assert Thing.__dict__["work"] is work and Thing.__dict__["make"] is make


def test_connection_trees_carry_the_client_port_and_outermost_named_spans():
    class Server:
        def process_request_thread(self, request, client_address):
            self.parse_request()
            self.do_POST()

        def parse_request(self):
            time.sleep(0.002)

        def do_POST(self):  # noqa: N802
            self.ingest()

        def ingest(self):
            time.sleep(0.002)

    tracer = Tracer()
    tracer.patch(Server, "process_request_thread", "serve.http.request", "connection")
    tracer.patch(Server, "parse_request", "serve.http.parse")
    tracer.patch(Server, "do_POST", "serve.http.post", "request")
    tracer.patch(Server, "ingest", "serve.state.ingest")
    try:
        Server().process_request_thread(None, ("127.0.0.1", 40123))
    finally:
        tracer.unpatch()
    [(root, port, start, end, named)] = tracer.connections
    assert (root, port) == ("serve.http.post", 40123)
    # parse and do_POST are outermost; ingest nests inside do_POST.
    assert len(named) == 2
    assert all(start <= s < e <= end for s, e in named)


def test_span_cost_is_small_and_positive():
    cost = Tracer.span_cost(5000)
    assert 0.0 <= cost < 1e-4


def test_self_check_passes_here():
    start = time.perf_counter()
    assert measure.self_check() == []
    assert time.perf_counter() - start < 5.0


def test_peak_pss_counts_the_system_tree_not_the_load_generator():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        time.sleep(0.3)
        with measure.PeakPssSampler(proc.pid, load_pid=os.getpid(), interval=0.05) as pss:
            time.sleep(0.2)
        system = measure.tree_pss_mib(proc.pid)
        assert abs(pss.peak_mib - system) < 2.0
        assert pss.load_peak_mib > 0.0
        assert pss.peak_mib + pss.load_peak_mib > system + 1.0
    finally:
        proc.kill()
        proc.wait()


def test_named_self_leaves_out_the_stdlib_catch_alls():
    class Server:
        def process_request_thread(self):
            time.sleep(0.004)
            self.do_GET()

        def do_GET(self):  # noqa: N802
            time.sleep(0.003)

    tracer = Tracer()
    tracer.patch(Server, "process_request_thread", "serve.http.request")
    tracer.patch(Server, "do_GET", "serve.http.get", "request")
    try:
        Server().process_request_thread()
    finally:
        tracer.unpatch()
    layers = tracer.root_self["serve.http.get"]
    assert set(layers) == {"serve.http.request", "serve.http.get"}
    assert tracer.named_self("serve.http.get") == layers["serve.http.get"]
    assert 0.0025 < tracer.named_self() < 0.006


def test_host_probe_reports_a_slowdown_and_exits():
    with measure.HostProbe() as host:
        time.sleep(0.3)
    assert host.proc.returncode == 0
    assert host.result["samples"] >= 2
    assert 0.1 < host.slowdown < 10.0


def test_blas_threads_reads_a_count():
    threads = measure.blas_threads()
    assert threads is None or threads >= 1
