"""HTTP layer: endpoints, canonical responses, error mapping.

Starts the real asyncio server on an ephemeral port (in a background
thread) and talks to it with the stdlib client — the same path the CI
smoke job exercises.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.core.canon import canonical_dumps
from repro.core.store import ResultStore
from repro.serve import ReproServer, ServeClient, ServeState
from repro.serve import server as server_mod
from repro.obs import MetricsRegistry, set_metrics, summarize

SMOKE_QUERY = {"kind": "sweep", "apps": ["spmz"], "space": "smoke"}


@pytest.fixture
def server(tmp_path):
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    store = ResultStore(tmp_path / "store.jsonl")
    state = ServeState(store, code_version="httptest")
    srv = ReproServer(state, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    stop = None

    def run():
        nonlocal stop
        asyncio.set_event_loop(loop)

        async def main():
            nonlocal stop
            stop = asyncio.Event()
            await srv.start()
            started.set()
            await stop.wait()
            await srv.close()

        loop.run_until_complete(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    try:
        yield srv, reg
    finally:
        loop.call_soon_threadsafe(stop.set)
        thread.join(timeout=10)
        loop.close()
        store.close()
        set_metrics(prev)


def test_health_and_metrics(server):
    srv, _ = server
    client = ServeClient(port=srv.port)
    health = client.health()
    assert health["ok"] and health["code_version"] == "httptest"
    assert health["store_entries"] == 0
    client.query(SMOKE_QUERY)
    assert client.health()["store_entries"] == 8
    derived = client.metrics()["derived"]
    assert derived["serve_requests"] == 1
    assert derived["store_puts"] == 8


def test_second_query_is_store_hit_and_byte_identical(server):
    srv, reg = server
    client = ServeClient(port=srv.port)
    status1, body1 = client.raw_query(SMOKE_QUERY)
    status2, body2 = client.raw_query(SMOKE_QUERY)
    assert status1 == status2 == 200
    parsed1, parsed2 = json.loads(body1), json.loads(body2)
    assert parsed2["served"]["evaluated"] == 0
    assert parsed2["served"]["store_hits"] == 8
    # The result payload is canonical JSON: byte-identical across
    # servings (the served-accounting block legitimately differs).
    assert canonical_dumps(parsed1["result"]) == \
        canonical_dumps(parsed2["result"])
    status3, body3 = client.raw_query(SMOKE_QUERY)
    assert body3 == body2  # warm-vs-warm: the whole response matches


def test_bad_query_maps_to_400(server):
    srv, _ = server
    client = ServeClient(port=srv.port)
    status, body = client.raw_query({"kind": "nope"})
    assert status == 400
    assert not json.loads(body)["ok"]
    with pytest.raises(RuntimeError):
        client.query({"kind": "nope"})


@pytest.mark.parametrize("ranks", ["abc", 2.5, True, 0, 4097, 10**9])
def test_bad_ranks_is_400_and_moves_no_engine_counter(server, ranks):
    srv, reg = server
    client = ServeClient(port=srv.port)
    status, body = client.raw_query({"kind": "sweep", "apps": ["spmz"],
                                     "space": "smoke", "mode": "replay",
                                     "ranks": ranks})
    assert status == 400
    assert "ranks" in json.loads(body)["error"]
    snap = reg.snapshot()
    for name in ("musa.simulate_node", "phase_sim.calls", "store.miss",
                 "replay.tape.builds"):
        assert snap["counters"].get(name, 0) == 0, name
    assert "trace.burst" not in snap["timers"]


def test_unknown_route_404_and_method_405(server):
    srv, _ = server
    client = ServeClient(port=srv.port)
    status, _ = client._request("GET", "/nonesuch")
    assert status == 404
    status, _ = client._request("GET", "/query")
    assert status == 405


def test_invalidate_endpoint(server):
    srv, _ = server
    client = ServeClient(port=srv.port)
    client.query(SMOKE_QUERY)
    assert client.invalidate({"app": "spmz"}) == 8
    assert client.health()["store_entries"] == 0
    response = client.query(SMOKE_QUERY)
    assert response["served"]["evaluated"] == 8
    with pytest.raises(RuntimeError):
        client.invalidate({"bogus": 1})


def test_malformed_body_is_400(server):
    srv, _ = server
    import http.client
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
    try:
        conn.request("POST", "/query", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
    finally:
        conn.close()


def test_partial_request_times_out_with_408(server, monkeypatch):
    srv, reg = server
    monkeypatch.setattr(server_mod, "_READ_TIMEOUT_S", 0.3)
    with socket.create_connection(("127.0.0.1", srv.port),
                                  timeout=30) as sock:
        sock.sendall(b"POST /que")  # half a request line, then silence
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
    body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
    assert body["ok"] is False and "0.3 s" in body["error"]
    assert reg.counter("serve.timeouts") == 1
    assert summarize(reg.snapshot())["derived"]["serve_timeouts"] == 1
    # The server keeps serving after dropping the slow client.
    assert ServeClient(port=srv.port).health()["ok"]
