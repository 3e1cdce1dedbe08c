"""The HTTP transport — a threaded stdlib server over the handlers.

:class:`ReproServer` wraps ``http.server.ThreadingHTTPServer`` (one
thread per connection, stdlib only) around a
:class:`~repro.serve.handlers.ServiceState`.  The transport does three
things and nothing else: read the body, call
:func:`~repro.serve.handlers.dispatch`, write the JSON — all semantics
(routing, batching, failure isolation, metrics) live in the pure
handler layer.

Lifecycle::

    with ReproServer(store="artifacts/", port=0) as server:
        print(server.url)          # port 0 picked a free port
        …                          # serve until the block exits

``stop()`` is graceful: the accept loop halts first, then in-flight
requests drain (bounded wait on an idle event the handler maintains),
then idle keep-alive connections are closed (their handler threads see
EOF instead of idling out a 60 s timeout) and the listening socket is
released, making the port immediately reusable (tested).  Connections are keep-alive (HTTP/1.1): a well-behaved client
reuses one socket across many requests instead of paying connection
setup per call.

Every JSON response — status line, headers and body — leaves in one
``sendall``, and every accepted socket has ``TCP_NODELAY`` set.  A
response split over two writes on a keep-alive connection meets
Nagle's algorithm on the server and the client's delayed ACK, which
holds the second write back by ~40 ms.  A request whose body cannot be
read (a bad or out-of-range ``Content-Length``) gets its error with
``Connection: close``: the unread body would otherwise be parsed as
the next request line.

For the pre-fork fleet (:mod:`repro.serve.fleet`) a server can be
built over an *already bound and listening* socket (``listen_socket=``)
— the supervisor binds (with ``SO_REUSEPORT`` when available) and the
forked workers serve on the inherited listeners.
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union

from repro.core.embedding import SchemaEmbedding
from repro.engine.session import EngineConfig
from repro.serve.handlers import ServiceState, dispatch
from repro.serve.protocol import encode, error_payload

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8421

#: Refuse request bodies beyond this size (64 MiB) — a transport
#: backstop so one request cannot exhaust server memory.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: How long ``stop()`` waits for in-flight requests to finish before
#: closing anyway.
DEFAULT_DRAIN_SECONDS = 10.0


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: Per-connection socket timeout: a client announcing more body
    #: bytes than it sends (or idling mid-request) must not pin a
    #: handler thread forever.
    timeout = 60
    #: Set ``TCP_NODELAY`` on every accepted socket (stdlib ``setup``).
    disable_nagle_algorithm = True

    def _write(self, status: int, payload: dict,
               close: bool = False) -> None:
        """Send one JSON response in a single ``sendall``.  ``close``
        adds ``Connection: close``, which also ends the keep-alive
        loop after this response."""
        body = encode(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        # end_headers() would flush the headers in a write of their
        # own; send them with the body instead.  An HTTP/0.9 request
        # buffers no headers at all.
        head = getattr(self, "_headers_buffer", [])
        if head:
            head.append(b"\r\n")
        self._headers_buffer = []
        self.wfile.write(b"".join(head) + body)

    def _serve(self, method: str) -> None:
        server: _ReproHTTPServer = self.server  # type: ignore[assignment]
        server.request_started()
        try:
            self._serve_inner(method, server.state)
        finally:
            server.request_finished()

    def _serve_inner(self, method: str, state: ServiceState) -> None:
        body: Optional[bytes] = None
        if method == "POST":
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self._write(400, error_payload(
                    400, "bad-content-length",
                    "Content-Length is not an integer"), close=True)
                return
            if length < 0 or length > MAX_BODY_BYTES:
                # Negative lengths would make rfile.read() block until
                # EOF and pin the handler thread; oversized ones would
                # exhaust memory.  Both leave the body unread.
                self._write(413, error_payload(
                    413, "body-too-large",
                    f"request body of {length} bytes is outside "
                    f"[0, {MAX_BODY_BYTES}]"), close=True)
                return
            body = self.rfile.read(length)
        status, payload = dispatch(state, method, self.path, body)
        self._write(status, payload)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._serve("POST")

    def log_message(self, format: str, *args) -> None:
        """Silence the default per-request stderr chatter; request
        accounting lives in /metrics instead."""


class _ReproHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer plus in-flight request accounting.

    ``request_started``/``request_finished`` bracket every dispatched
    request (not every *connection* — an idle keep-alive connection
    must never block a drain), and ``drain()`` waits until the last
    dispatched request has written its response.
    """

    daemon_threads = True

    def __init__(self, address, handler,
                 listen_socket: Optional[socket.socket] = None) -> None:
        if listen_socket is None:
            super().__init__(address, handler)
        else:
            # Serve on a pre-bound, already-listening socket (the
            # fleet's inherited listener): skip bind/activate and adopt
            # the given socket in place of the auto-created one.
            super().__init__(address, handler, bind_and_activate=False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
        self._active = 0
        self._active_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        # Open connection sockets, so shutdown can unblock idle
        # keep-alive handler threads (they otherwise sit in readline
        # until the 60 s connection timeout).
        self._connections: set = set()
        self._conn_lock = threading.Lock()

    def get_request(self):
        request, address = super().get_request()
        with self._conn_lock:
            self._connections.add(request)
        return request, address

    def shutdown_request(self, request) -> None:
        with self._conn_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Half-close every open connection: idle keep-alive handlers
        see EOF and exit; clients reconnect on their next request.
        Called after ``drain()``, so completed responses are not cut."""
        with self._conn_lock:
            pending = list(self._connections)
        for request in pending:
            try:
                # shutdown, not close: the handler thread owns the fd
                # and will close it via shutdown_request.
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def request_started(self) -> None:
        with self._active_lock:
            self._active += 1
            self._idle.clear()

    def request_finished(self) -> None:
        with self._active_lock:
            self._active -= 1
            if self._active <= 0:
                self._idle.set()

    @property
    def in_flight(self) -> int:
        with self._active_lock:
            return self._active

    def drain(self, timeout: float) -> bool:
        """Wait (bounded) for in-flight requests to finish; True when
        the server went idle within ``timeout``."""
        return self._idle.wait(timeout)


class ReproServer:
    """A long-lived serving daemon over one warm engine.

    Construct from an artifact store (the deployment path — every
    stored schema/embedding is compiled before the socket opens) or
    from an in-memory embedding (tests, examples).  ``port=0`` binds an
    ephemeral free port, published as ``.port`` after ``start()``.
    ``listen_socket=`` serves on an externally bound listener instead
    (the fleet's pre-fork path); the caller keeps ownership of binding,
    the server still closes its inherited copy on ``stop()``.
    """

    def __init__(self, store: Optional[Union[str, Path]] = None,
                 embedding: Optional[SchemaEmbedding] = None,
                 state: Optional[ServiceState] = None,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 config: Optional[EngineConfig] = None,
                 default_format: str = "auto",
                 listen_socket: Optional[socket.socket] = None) -> None:
        given = sum(x is not None for x in (store, embedding, state))
        if given != 1:
            raise ValueError("give exactly one of store=, embedding=, "
                             "state=")
        if state is not None:
            if default_format != "auto":
                raise ValueError("set default_format on the "
                                 "ServiceState when passing state=")
            self.state = state
        elif store is not None:
            self.state = ServiceState.from_store(
                store, config=config, default_format=default_format)
        else:
            assert embedding is not None
            self.state = ServiceState.from_embedding(embedding)
            self.state.default_format = default_format
        self._requested = (host, port)
        self._listen_socket = listen_socket
        self._httpd: Optional[_ReproHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ReproServer":
        if self._httpd is not None:
            raise RuntimeError("server is already running")
        httpd = _ReproHTTPServer(self._requested, _Handler,
                                 listen_socket=self._listen_socket)
        httpd.state = self.state  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(target=httpd.serve_forever,
                                        name="repro-serve",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, drain_seconds: float = DEFAULT_DRAIN_SECONDS) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests
        (bounded by ``drain_seconds``), close the listening socket,
        release the port."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.drain(drain_seconds)
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._httpd = None
        self._thread = None

    def serve_forever(self) -> None:
        """Blocking serve loop for the CLI; Ctrl-C (or a SIGTERM the
        CLI converts to ``KeyboardInterrupt``) stops cleanly."""
        if self._httpd is None:
            self.start()
        assert self._thread is not None
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addressing --------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def in_flight(self) -> int:
        """Requests currently being dispatched (0 when idle)."""
        return self._httpd.in_flight if self._httpd is not None else 0

    @property
    def host(self) -> str:
        if self._httpd is not None:
            return self._httpd.server_address[0]
        return self._requested[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        if self._listen_socket is not None:
            return self._listen_socket.getsockname()[1]
        return self._requested[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
