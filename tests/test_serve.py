"""The serve daemon: transport-layer purity over the engine.

The contract under test: the HTTP service is *only* a transport —
every payload string it returns is byte-identical to the equivalent
direct :class:`Engine` call, including under concurrent clients; batch
items fail individually; malformed requests get structured 4xx errors;
``/metrics`` counts every request; shutdown releases the port.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import threading
import time

import pytest

from repro.dtd.generate import InstanceGenerator
from repro.engine import Engine, pack_store
from repro.serve import (
    FleetServer,
    ProtocolError,
    ReproServer,
    ServeClient,
    ServeError,
    ServiceState,
    dispatch,
)
from repro.workloads.library import school_example
from repro.workloads.queries import random_queries
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string


@pytest.fixture(scope="module")
def school():
    return school_example()


@pytest.fixture(scope="module")
def store_path(school, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "store"
    engine = Engine()
    engine.compile_embedding(school.sigma1, ensure_valid=True)
    engine.save_store(path)
    return path


@pytest.fixture()
def server(store_path):
    with ReproServer(store=store_path, port=0) as running:
        yield running


@pytest.fixture()
def client(server):
    return ServeClient.for_server(server)


def _documents(school, count=6):
    return [to_string(InstanceGenerator(school.classes, seed=seed,
                                        max_depth=8,
                                        star_mean=2.0).generate())
            for seed in range(count)]


# -- byte-identity ------------------------------------------------------------

def test_map_is_byte_identical_to_direct_engine(school, client):
    engine = Engine()
    for xml in _documents(school, 3):
        served = client.map(xml=xml)["result"]
        direct = to_string(
            engine.apply_embedding(school.sigma1, parse_xml(xml)).tree)
        assert served["ok"]
        assert served["output"] == direct


def test_translate_is_byte_identical_to_direct_engine(school, client):
    engine = Engine()
    queries = [str(q) for q in random_queries(school.classes, 5, seed=3)]
    queries.append("class[cno/text()='CS331']/(type/regular/prereq/class)*")
    response = client.translate(queries=queries)
    assert response["failures"] == 0
    for item, query in zip(response["results"], queries):
        direct = engine.translate_query(school.sigma1,
                                        query).canonical_describe()
        assert item["ok"]
        assert item["anfa"] == direct


def test_invert_roundtrips_through_the_service(school, client):
    for xml in _documents(school, 2):
        mapped = client.map(xml=xml)["result"]["output"]
        recovered = client.invert(xml=mapped)["result"]["output"]
        engine = Engine()
        assert recovered == to_string(
            engine.invert(school.sigma1, parse_xml(mapped)))


def test_concurrent_clients_see_identical_responses(school, server):
    """≥4 concurrent clients hammering /v1/map and /v1/translate all
    get responses byte-identical to direct Engine calls."""
    documents = _documents(school, 4)
    queries = [str(q) for q in random_queries(school.classes, 4, seed=9)]
    engine = Engine()
    expected_maps = [
        to_string(engine.apply_embedding(school.sigma1,
                                         parse_xml(xml)).tree)
        for xml in documents]
    expected_anfas = [
        engine.translate_query(school.sigma1, query).canonical_describe()
        for query in queries]

    errors: list[str] = []

    def worker(offset: int) -> None:
        client = ServeClient.for_server(server)
        try:
            for round_no in range(6):
                index = (offset + round_no) % len(documents)
                served = client.map(xml=documents[index])["result"]
                if not (served["ok"]
                        and served["output"] == expected_maps[index]):
                    errors.append(f"map[{index}] diverged")
                qindex = (offset + round_no) % len(queries)
                item = client.translate(query=queries[qindex])["result"]
                if not (item["ok"]
                        and item["anfa"] == expected_anfas[qindex]):
                    errors.append(f"translate[{qindex}] diverged")
        except Exception as exc:  # surface in the main thread
            errors.append(f"worker {offset}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(offset,))
               for offset in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors[:5]


# -- batch semantics ----------------------------------------------------------

def test_batch_items_fail_individually(school, client):
    good = _documents(school, 1)[0]
    response = client.map(documents=[
        {"name": "good.xml", "xml": good},
        {"name": "bad.xml", "xml": "<1abc></1abc>"},
        {"name": "good2.xml", "xml": good},
    ])
    assert response["failures"] == 1
    flags = [item["ok"] for item in response["results"]]
    assert flags == [True, False, True]
    # Failed items carry 'error', never 'output', so an error string
    # can never be mistaken for document content.
    assert "XMLParseError" in response["results"][1]["error"]
    assert "output" not in response["results"][1]


def test_translate_batch_isolates_bad_queries(client):
    response = client.translate(queries=["class/cno/text()", "class["])
    assert response["failures"] == 1
    assert response["results"][0]["ok"]
    assert not response["results"][1]["ok"]
    assert "error" in response["results"][1]


def test_find_makes_embedding_addressable(school, client):
    source_fp = school.classes.fingerprint()
    target_fp = school.school.fingerprint()
    found = client.find(source=source_fp, target=target_fp, seed=1)
    assert found["found"]
    xml = _documents(school, 1)[0]
    served = client.map(xml=xml, embedding=found["embedding"])
    assert served["result"]["ok"]


# -- protocol errors ----------------------------------------------------------

def test_malformed_json_body_gets_structured_400(server):
    import http.client

    connection = http.client.HTTPConnection(server.host, server.port)
    try:
        connection.request("POST", "/v1/map", body=b"{not json",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 400
    assert payload["error"]["code"] == "bad-json"
    assert "message" in payload["error"]


def test_protocol_error_shapes(client):
    with pytest.raises(ServeError) as excinfo:
        client.request("POST", "/v1/map", {})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.request("POST", "/v1/map", {"xml": "<a/>",
                                           "embedding": "feedface"})
    assert excinfo.value.status == 404
    assert excinfo.value.code == "unknown-embedding"
    with pytest.raises(ServeError) as excinfo:
        client.request("GET", "/v1/map")
    assert excinfo.value.status == 405
    with pytest.raises(ServeError) as excinfo:
        client.request("GET", "/v1/nope")
    assert excinfo.value.status == 404


@pytest.fixture()
def server_sends(tmp_path, monkeypatch):
    """Record every ``socket.sendall`` with its socket's local port and
    ``TCP_NODELAY`` flag, also in processes forked after the fixture is
    set up (fleet workers): each call appends one line to a file before
    it sends.  Returns ``sends(port)``, the ``(nodelay, bytes)`` of
    every send on a socket bound to ``port``, in call order."""
    log = tmp_path / "sendall.jsonl"
    real_sendall = socket.socket.sendall

    def recording_sendall(sock, data, *args):
        record = {"port": sock.getsockname()[1],
                  "nodelay": sock.getsockopt(socket.IPPROTO_TCP,
                                             socket.TCP_NODELAY),
                  "data": bytes(data).decode("latin-1")}
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, (json.dumps(record) + "\n").encode())
        finally:
            os.close(fd)
        return real_sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording_sendall)

    def sends(port: int) -> list[tuple[bool, bytes]]:
        if not log.exists():
            return []
        records = [json.loads(line)
                   for line in log.read_text().splitlines()]
        return [(bool(r["nodelay"]), r["data"].encode("latin-1"))
                for r in records if r["port"] == port]

    return sends


def _read_response(sock: socket.socket) -> bytes:
    """One whole HTTP response (headers plus ``Content-Length`` body)
    from a raw socket; ``b""`` when the server closed the connection."""
    data = b""
    while b"\r\n\r\n" not in data:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(int(line.split(b":", 1)[1])
                  for line in head.split(b"\r\n")
                  if line.lower().startswith(b"content-length:"))
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    assert len(body) == length, "bytes beyond the announced body"
    return head + b"\r\n\r\n" + body


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _post(path: str, length: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


@pytest.mark.parametrize("length,status,code", [
    ("abc", 400, "bad-content-length"),
    ("-3", 413, "body-too-large"),
])
def test_unread_body_closes_the_connection(server, length, status, code):
    """A rejected Content-Length leaves the body unread; keeping the
    connection alive would parse that body as the next request line and
    answer the following request with a stdlib HTML error."""
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(_post("/v1/map", length, b'{"xml": "<a/>"}'))
        response = _read_response(sock)
        assert _status(response) == status
        assert b"\r\nConnection: close\r\n" in response
        payload = json.loads(response.partition(b"\r\n\r\n")[2])
        assert payload["error"]["code"] == code
        try:
            sock.sendall(HEALTHZ)
        except OSError:
            pass  # the server may already have reset the connection
        assert _read_response(sock) == b""


def test_each_response_leaves_in_one_sendall(server, server_sends):
    """The transport contract behind the keep-alive latency: every
    accepted socket has TCP_NODELAY set, and each JSON response (status
    line, headers, body) is one sendall — a split response stalls on
    Nagle's algorithm meeting the client's delayed ACK."""
    _assert_one_sendall_per_response(server.host, server.port,
                                    server_sends)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fleet needs fork")
def test_fleet_worker_response_leaves_in_one_sendall(store_path, tmp_path,
                                                     server_sends):
    """Fleet workers serve through the same handler: the contract holds
    on a worker's direct port (the recording is inherited by fork)."""
    packed = tmp_path / "store"
    shutil.copytree(store_path, packed)
    pack_store(packed)
    with FleetServer(packed, workers=1, port=0) as fleet:
        port = fleet.worker_ports[0]
        client = ServeClient(fleet.host, port, timeout=5.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client.healthz()
                break
            except OSError:
                assert time.monotonic() < deadline, "worker never came up"
                time.sleep(0.05)
        client.close()
        _assert_one_sendall_per_response(fleet.host, port, server_sends)


def _assert_one_sendall_per_response(host: str, port: int,
                                    server_sends) -> None:
    """Send a 200, 404 and 400 on one keep-alive connection and a 413
    on another; each response must be exactly one recorded send."""
    before = len(server_sends(port))
    received = []
    with socket.create_connection((host, port), timeout=10) as sock:
        for request in (HEALTHZ,
                        b"GET /v1/nope HTTP/1.1\r\nHost: test\r\n\r\n",
                        _post("/v1/map", "9", b"{not json")):
            sock.sendall(request)
            received.append(_read_response(sock))
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(_post("/v1/map", str(1 << 40), b""))
        received.append(_read_response(sock))
    assert [_status(r) for r in received] == [200, 404, 400, 413]
    sends = server_sends(port)[before:]
    assert [data for _nodelay, data in sends] == received
    assert all(nodelay for nodelay, _data in sends)


def test_dispatch_without_http(school):
    """The handler layer is pure — tests can drive it with no socket."""
    state = ServiceState.from_embedding(school.sigma1)
    status, payload = dispatch(state, "GET", "/healthz")
    assert status == 200 and payload["ok"]
    status, payload = dispatch(state, "POST", "/v1/map", b"[1, 2]")
    assert status == 400
    assert payload["error"]["code"] == "bad-request"
    with pytest.raises(ProtocolError):
        state.resolve_embedding("nope")


# -- metrics ------------------------------------------------------------------

def test_metrics_counters_advance(school, client):
    before = client.metrics()
    base = before["requests"].get("/v1/map", {}).get("requests", 0)
    xml = _documents(school, 1)[0]
    for _ in range(3):
        client.map(xml=xml)
    after = client.metrics()
    row = after["requests"]["/v1/map"]
    assert row["requests"] == base + 3
    assert row["errors"] == before["requests"].get("/v1/map", {}).get(
        "errors", 0)
    assert row["latency_ms"]["p50"] >= 0.0
    assert row["latency_ms"]["max"] >= row["latency_ms"]["p50"]
    # Warm-started from the store: serving never compiles.
    assert after["engine"]["embeddings"]["misses"] == 0
    assert after["engine"]["schemas"]["misses"] == 0


def test_metrics_count_errors(client):
    before = client.metrics()["requests"].get("/v1/map",
                                              {}).get("errors", 0)
    with pytest.raises(ServeError):
        client.request("POST", "/v1/map", {})
    after = client.metrics()["requests"]["/v1/map"]["errors"]
    assert after == before + 1


# -- lifecycle ----------------------------------------------------------------

def test_graceful_shutdown_releases_port(store_path):
    server = ReproServer(store=store_path, port=0).start()
    port = server.port
    assert ServeClient.for_server(server).healthz()["ok"]
    server.stop()
    assert not server.running
    # The port is immediately bindable by a fresh server.
    rebound = ReproServer(store=store_path, port=port).start()
    try:
        assert rebound.port == port
        assert ServeClient.for_server(rebound).healthz()["ok"]
    finally:
        rebound.stop()


def test_server_requires_exactly_one_source(school, store_path):
    with pytest.raises(ValueError):
        ReproServer()
    with pytest.raises(ValueError):
        ReproServer(store=store_path, embedding=school.sigma1)


# -- keep-alive ---------------------------------------------------------------

def test_client_reuses_one_connection(school, server):
    """The daemon speaks HTTP/1.1 keep-alive and the client holds one
    persistent connection per thread: many requests, zero reconnects."""
    client = ServeClient.for_server(server)
    xml = _documents(school, 1)[0]
    for _ in range(10):
        assert client.map(xml=xml)["result"]["ok"]
        assert client.healthz()["ok"]
    assert client.reconnects == 0
    client.close()


def test_client_reconnects_after_server_restart(school, store_path):
    """A stale keep-alive socket (server bounced between requests) is
    replayed once on a fresh connection instead of surfacing an error."""
    server = ReproServer(store=store_path, port=0).start()
    port = server.port
    client = ServeClient(server.host, port)
    assert client.healthz()["ok"]
    server.stop()
    rebound = ReproServer(store=store_path, port=port).start()
    try:
        assert client.healthz()["ok"]  # same client object, new socket
        assert client.reconnects >= 1
    finally:
        client.close()
        rebound.stop()


# -- graceful drain -----------------------------------------------------------

def test_stop_drains_in_flight_requests(school, store_path):
    """stop() waits for dispatched requests to finish writing their
    responses: a request racing shutdown completes instead of dying."""
    server = ReproServer(store=store_path, port=0).start()
    xml = _documents(school, 1)[0]
    expected = ServeClient.for_server(server).map(
        xml=xml)["result"]["output"]
    results: list = []
    started = threading.Barrier(2)

    def slow_caller() -> None:
        client = ServeClient.for_server(server)
        started.wait()
        try:
            results.append(client.map(xml=xml)["result"]["output"])
        except Exception as exc:
            results.append(exc)
        finally:
            client.close()

    thread = threading.Thread(target=slow_caller)
    thread.start()
    started.wait()
    server.stop()  # races the in-flight map; drain must cover it
    thread.join(timeout=15)
    assert not thread.is_alive()
    assert len(results) == 1
    # Either the request was accepted (then it must have completed
    # byte-identically) or the socket closed before accept (a clean
    # connection error, never a half-written response).
    if isinstance(results[0], str):
        assert results[0] == expected
    else:
        assert isinstance(results[0], (ConnectionError, OSError))
    assert server.in_flight == 0


def test_idle_keepalive_connection_does_not_block_stop(store_path):
    """Draining counts in-flight *requests*, not open connections: an
    idle keep-alive client must not hold shutdown hostage."""
    server = ReproServer(store=store_path, port=0).start()
    client = ServeClient.for_server(server)
    assert client.healthz()["ok"]  # connection now idles, kept alive
    started = time.monotonic()
    server.stop(drain_seconds=30.0)
    assert time.monotonic() - started < 10.0
    assert not server.running
    client.close()
