"""HTTP front end: endpoints, error mapping, metrics exposition."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import STGNNDJD, save_checkpoint
from repro.obs import metrics_scope
from repro.serve import (
    FleetRouter,
    PredictionService,
    ServiceConfig,
    make_fleet_server,
    make_server,
)
from repro.serve.http import ServingHandler
from repro.serve.service import _Request


@pytest.fixture
def server(tiny_dataset):
    model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
    service = PredictionService.for_dataset(model, tiny_dataset)
    http_server = make_server(service, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    service.start()
    try:
        yield http_server
    finally:
        service.stop()
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5.0)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10.0) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["warmed_up"] is True
        assert body["dispatcher_running"] is True

    def test_ingest_then_predict(self, server, tiny_dataset):
        slot_seconds = tiny_dataset.config.slot_seconds
        now = server.service.store.frontier * slot_seconds + 1.0
        status, body = _post(server, "/ingest", {"trips": [
            {"origin": 0, "destination": 3,
             "start_time": now, "end_time": now + 300.0},
            {"origin": 2, "destination": 1,
             "start_time": now + 5.0, "end_time": now + 900.0},
        ]})
        assert status == 200
        assert body["accepted"] == 2
        assert body["dropped_late"] == 0

        status, body = _get(server, "/predict?stations=0,3")
        assert status == 200
        assert body["stations"] == [0, 3]
        assert len(body["demand"]) == 2
        assert len(body["supply"]) == 2
        assert body["slot"] == server.service.store.frontier

    def test_predict_post_all_stations(self, server, tiny_dataset):
        status, body = _post(server, "/predict", {})
        assert status == 200
        assert len(body["demand"]) == tiny_dataset.num_stations

    def test_predict_bad_station_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/predict?stations=9999")
        assert excinfo.value.code == 400

    def test_ingest_malformed_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/ingest", {"trips": [{"origin": 0}]})
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_metrics_exposition(self, server):
        with metrics_scope():
            _get(server, "/predict")
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10.0
            ) as response:
                assert response.status == 200
                text = response.read().decode("utf-8")
        assert "serve_requests_total" in text
        assert "serve_request_seconds" in text

    def test_admin_reload(self, server, tiny_dataset, tmp_path):
        path = tmp_path / "next.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=9), path)
        status, body = _post(server, "/admin/reload", {"checkpoint": str(path)})
        assert status == 200
        assert body == {"reloaded": True, "model_version": 1}

    def test_admin_reload_failure_is_500_and_keeps_serving(
        self, server, tmp_path
    ):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/admin/reload", {"checkpoint": str(tmp_path / "x.npz")})
        assert excinfo.value.code == 500
        status, _ = _get(server, "/predict")  # old model still answers
        assert status == 200


class TestOverloadMapping:
    def test_503_with_retry_after(self, tiny_dataset):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
        service = PredictionService.for_dataset(
            model, tiny_dataset,
            # max_batch=1: without it the dispatcher can coalesce all
            # six requests into one batch before the blocked forward
            # starts, leaving the queue empty and nothing to reject.
            config=ServiceConfig(queue_depth=1, retry_after_seconds=0.2,
                                 max_batch=1),
        )
        http_server = make_server(service, port=0)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        release = threading.Event()
        picked = threading.Event()
        original = service._full_forecast

        def blocking(model, version):
            picked.set()
            release.wait(timeout=10.0)
            return original(model, version)

        service._full_forecast = blocking
        service.start()
        try:
            results = []

            def call():
                try:
                    results.append(_get(http_server, "/predict"))
                except urllib.error.HTTPError as error:
                    results.append((error.code, dict(error.headers)))

            # Deterministic overload: wedge the dispatcher on one
            # request, fill the depth-1 queue synchronously, and only
            # then issue the request that must bounce with a 503.
            first = threading.Thread(target=call)
            first.start()
            assert picked.wait(timeout=10.0)
            backlog = _Request(None)
            service._queue.put_nowait(backlog)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(http_server, "/predict")
            assert excinfo.value.code == 503
            assert "Retry-After" in dict(excinfo.value.headers)
            release.set()
            first.join(timeout=10.0)
            assert backlog.done.wait(timeout=10.0)  # rejected != dropped
            assert results and results[0][0] == 200
        finally:
            service.stop()
            release.set()
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5.0)


@pytest.fixture(scope="class", params=["single", "fleet"])
def bare_server(request, tiny_dataset):
    """A single-service or fleet front end; no dispatcher is started,
    since none of these requests gets past body parsing."""
    model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
    if request.param == "single":
        http_server = make_server(
            PredictionService.for_dataset(model, tiny_dataset), port=0
        )
    else:
        router = FleetRouter.for_dataset(
            model, tiny_dataset, num_shards=2, num_replicas=2
        )
        http_server = make_fleet_server(router, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5.0)


def _raw_post(server, path: str, length: str, body: bytes = b"") -> tuple[int, dict]:
    """POST with a verbatim ``Content-Length``; the status and JSON body.

    The client keeps its end open until the server closes it, so a
    handler still waiting for body bytes would never answer (the recv
    times out instead).
    """
    host, port = server.server_address[:2]
    head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(head + body)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    status_line, _, rest = data.partition(b"\r\n")
    assert status_line.startswith(b"HTTP/1.")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


def _assert_no_handler_left(server) -> None:
    # ThreadingMixIn tracks every handler thread it started.
    for thread in list(server._threads):
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestBodyBounds:
    @pytest.mark.parametrize("path", ["/ingest", "/predict", "/admin/reload"])
    @pytest.mark.parametrize("length, status", [
        ("abc", 400), ("-1", 400), ("10000000000", 413),
    ])
    def test_bad_content_length_gets_a_status(self, bare_server, path,
                                              length, status):
        code, body = _raw_post(bare_server, path, length)
        assert code == status
        assert "error" in body
        _assert_no_handler_left(bare_server)

    def test_stalled_body_times_out_with_408(self, bare_server, monkeypatch):
        monkeypatch.setattr(ServingHandler, "timeout", 0.2)
        code, _ = _raw_post(bare_server, "/ingest", "100", b'{"trips": [')
        assert code == 408
        _assert_no_handler_left(bare_server)

    def test_full_ingest_batch_fits_under_the_cap(self, bare_server,
                                                  tiny_dataset):
        start = bare_server.service.store.frontier * tiny_dataset.config.slot_seconds
        trips = [{"origin": i % 8, "destination": (i * 3) % 8,
                  "start_time": start + i / 7, "end_time": start + 600.0 + i / 7}
                 for i in range(500)]
        body = json.dumps({"trips": trips}).encode()
        assert len(body) > 40_000
        code, reply = _raw_post(bare_server, "/ingest", str(len(body)), body)
        assert code == 200 and reply["accepted"] == 500
