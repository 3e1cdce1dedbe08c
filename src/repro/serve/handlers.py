"""Endpoint logic for the serve daemon — a pure layer over the Engine.

:class:`ServiceState` owns one warm :class:`~repro.engine.session.Engine`
plus the embeddings/schemas it serves (usually loaded from an
:class:`~repro.engine.store.ArtifactStore`); :func:`dispatch` routes one
(method, path, body) triple to a handler and returns ``(status,
payload)``.  No HTTP object ever reaches this layer, so tests and the
transport drive exactly the same code.

The serving contract: the service is a *transport*, not a semantic
layer.  Every ``output``/``anfa`` string in a response is byte-identical
to what the same :class:`Engine` call produces in-process
(``to_string(engine.apply_embedding(…).tree)``,
``engine.translate_query(…).canonical_describe()``, …) — tested in
``tests/test_serve.py`` and asserted under load in
``benchmarks/bench_serve_load.py``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.core.embedding import EmbeddingError, SchemaEmbedding
from repro.dtd.model import DTD
from repro.engine.session import Engine, EngineConfig
from repro.engine.store import ArtifactStore, embedding_to_payload
from repro.schema import (
    SchemaFormatError,
    available_formats,
    detect_format,
    load_schema,
)
from repro.serve.metrics import (
    OVERFLOW_ENDPOINT,
    MetricsRegistry,
    merge_engine_stats,
    merge_request_snapshots,
)
from repro.serve.protocol import (
    ENDPOINT_FIELDS,
    ProtocolError,
    decode_body,
    documents_from,
    parse_fields,
    queries_from,
)
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string

#: Most dynamically-registered artifacts (successful ``/v1/find``
#: results and their schemas) kept before the oldest is evicted.
#: Store-loaded artifacts are never evicted — a long-lived daemon's
#: state must stay bounded no matter what clients post.
MAX_DYNAMIC_EMBEDDINGS = 128
MAX_DYNAMIC_SCHEMAS = 256


@dataclass
class FleetInfo:
    """One worker's knowledge of its fleet: who it is, who its peers
    are (direct per-worker ports for routed traffic and peer metrics),
    and the supervisor's shared restart counter."""

    worker_id: int
    host: str
    shared_port: int
    #: ``[{"id": …, "port": …}, …]`` — every worker incl. this one.
    workers: list = field(default_factory=list)
    #: a ``multiprocessing.Value``-like object (``.value``) the
    #: supervisor increments on every crashed-worker restart.
    restarts: Optional[object] = None

    def restart_count(self) -> int:
        restarts = self.restarts
        return int(restarts.value) if restarts is not None else 0


class ServiceState:
    """One daemon's state: a warm engine + the artifacts it serves.

    Build from a store (``ServiceState.from_store(path)``) for the
    warm-start deployment path, or directly from model objects for
    tests and embedded use.  Thread-safe to the same degree as the
    Engine: compiled artifacts are immutable, cache bookkeeping is
    locked.
    """

    def __init__(self, engine: Optional[Engine] = None,
                 embeddings: Optional[dict[str, SchemaEmbedding]] = None,
                 schemas: Optional[dict[str, DTD]] = None,
                 store_path: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 default_format: str = "auto") -> None:
        self.engine = engine or Engine()
        self.embeddings = dict(embeddings or {})
        self.schemas = dict(schemas or {})
        self.store_path = store_path
        self.metrics = metrics or MetricsRegistry()
        # Applied to inline schema text when a request carries no
        # 'format' field (the CLI's `repro serve --format`).
        self.default_format = default_format
        self.started_at = time.time()
        #: The packed store view this state was warm-started from
        #: (None on the JSON / in-memory paths) and its generation.
        self.view = None
        self.generation: Optional[int] = None
        #: JSON artifact parses paid during warm start (0 on the packed
        #: path — the assertable zero-reparse counter; None when no
        #: store was involved).
        self.store_json_parses: Optional[int] = None
        #: Fleet membership (set by the fleet worker bootstrap).
        self.fleet: Optional[FleetInfo] = None
        #: Completed hot reloads (store-generation bumps picked up).
        self.reloads = 0
        #: Artifacts the latest pack only carries forward (no longer in
        #: the source store) and how many requests resolved one — the
        #: `/metrics` signal that clients still depend on removed
        #: artifacts (blocking a `store pack --compact`).
        self.stale: frozenset = frozenset()
        self.stale_serves = 0
        # Guards the embeddings/schemas dicts against concurrent
        # handler threads (registration during resolution); the
        # OrderedDicts remember insertion order of *dynamic* artifacts
        # for bounded eviction.
        self._lock = threading.Lock()
        self._dynamic_embeddings: "OrderedDict[str, None]" = OrderedDict()
        self._dynamic_schemas: "OrderedDict[str, None]" = OrderedDict()

    @classmethod
    def from_store(cls, path, config: Optional[EngineConfig] = None,
                   default_format: str = "auto") -> "ServiceState":
        """Warm-start: every stored artifact compiled before the first
        request, so serving begins with zero compile misses."""
        store = ArtifactStore(path, create=False)
        # warm_start shares the open store, so each artifact body is
        # read and parsed exactly once between the two of them.
        engine = Engine.warm_start(store, config=config)
        embeddings = {fingerprint: store.get_embedding(fingerprint)
                      for fingerprint in store.embedding_fingerprints()}
        schemas = {fingerprint: store.get_schema(fingerprint)
                   for fingerprint in store.schema_fingerprints()}
        state = cls(engine, embeddings, schemas, store_path=str(path),
                    default_format=default_format)
        state.store_json_parses = store.parses
        return state

    @classmethod
    def from_view(cls, view, store_path: Optional[str] = None,
                  config: Optional[EngineConfig] = None,
                  default_format: str = "auto") -> "ServiceState":
        """Warm-start from a packed store view
        (:class:`~repro.engine.storepack.StoreView`) — the pre-fork
        fleet's worker path: open is O(index), artifact bytes are
        mmap-shared across workers, and **zero** JSON artifact parses
        happen (``state.store_json_parses == 0``, asserted in tests and
        the fleet benchmark)."""
        engine = Engine.warm_start(view, config=config)
        embeddings = {fingerprint: view.get_embedding(fingerprint)
                      for fingerprint in view.embedding_fingerprints()}
        schemas = {fingerprint: view.get_schema(fingerprint)
                   for fingerprint in view.schema_fingerprints()}
        state = cls(engine, embeddings, schemas,
                    store_path=store_path or str(view.path),
                    default_format=default_format)
        state.view = view
        state.generation = view.generation
        state.store_json_parses = view.json_parses
        state.stale = view.stale_fingerprints()
        return state

    def reload_from(self, view) -> int:
        """Adopt a newer pack generation without dropping a request.

        New artifacts are compiled *before* the serving dicts flip, so
        every request — including ones in flight on the old artifacts —
        always resolves against a fully-compiled set; artifacts already
        compiled are fingerprint-cache hits and cost nothing.  The
        reload is additive (packs grow; an artifact removed from the
        store keeps serving until restart).  Returns the number of new
        artifacts adopted.
        """
        self.engine.ensure_capacity(
            schemas=len(view.schema_fingerprints()),
            embeddings=len(view.embedding_fingerprints()))
        new_schemas: dict[str, DTD] = {}
        new_embeddings: dict[str, SchemaEmbedding] = {}
        for fingerprint in view.schema_fingerprints():
            if fingerprint not in self.schemas:
                schema = view.get_schema(fingerprint)
                self.engine.compile_schema(schema)
                new_schemas[fingerprint] = schema
        for fingerprint in view.embedding_fingerprints():
            if fingerprint not in self.embeddings:
                compiled = self.engine.load_embedding(view, fingerprint)
                new_embeddings[fingerprint] = compiled.embedding
        with self._lock:
            self.schemas.update(new_schemas)
            self.embeddings.update(new_embeddings)
            old_view, self.view = self.view, view
            self.generation = view.generation
            self.stale = view.stale_fingerprints()
            self.reloads += 1
        if old_view is not None and old_view is not view:
            # In-flight requests hold plain artifact objects, never the
            # view; the old mmap can drop immediately.
            old_view.close()
        return len(new_schemas) + len(new_embeddings)

    @classmethod
    def from_embedding(cls, embedding: SchemaEmbedding,
                       validate: bool = True) -> "ServiceState":
        """An in-memory service around one embedding (tests, examples)."""
        engine = Engine()
        engine.compile_embedding(embedding, ensure_valid=validate)
        state = cls(engine,
                    {embedding.fingerprint(): embedding},
                    {embedding.source.fingerprint(): embedding.source,
                     embedding.target.fingerprint(): embedding.target})
        engine.reset_stats()
        return state

    # -- resolution --------------------------------------------------------
    def _count_stale(self, fingerprint: str) -> None:
        """One request resolved an artifact the source store dropped
        (served from a carry-forward blob) — surfaced in `/metrics`."""
        if fingerprint in self.stale:
            self.stale_serves += 1

    def resolve_embedding(self, ref: Optional[str],
                          ) -> tuple[str, SchemaEmbedding]:
        """The embedding a request names (by fingerprint or unique
        prefix); with no ``ref`` the store's sole embedding."""
        with self._lock:
            embeddings = dict(self.embeddings)
        if ref is None:
            if len(embeddings) == 1:
                only = next(iter(embeddings.items()))
                self._count_stale(only[0])
                return only
            if not embeddings:
                raise ProtocolError(404, "no-embeddings",
                                    "this server has no embeddings loaded")
            raise ProtocolError(
                400, "ambiguous-embedding",
                "several embeddings are loaded; name one via 'embedding': "
                + ", ".join(sorted(fp[:12] for fp in embeddings)))
        if not isinstance(ref, str):
            raise ProtocolError(400, "bad-request",
                                "'embedding' must be a fingerprint string")
        if ref in embeddings:
            self._count_stale(ref)
            return ref, embeddings[ref]
        matches = [fp for fp in embeddings if fp.startswith(ref)]
        if len(matches) == 1:
            self._count_stale(matches[0])
            return matches[0], embeddings[matches[0]]
        if len(matches) > 1:
            raise ProtocolError(400, "ambiguous-embedding",
                                f"fingerprint prefix {ref!r} matches "
                                f"{len(matches)} embeddings")
        raise ProtocolError(404, "unknown-embedding",
                            f"no embedding {ref!r} on this server")

    def resolve_schema(self, value, what: str,
                       format: Optional[str] = None) -> DTD:
        """A schema by stored fingerprint/prefix, or inline schema text
        in any frontend format.

        ``format`` is the request's ``format`` field: ``None`` (field
        absent) falls back to the state's ``default_format``; an
        explicit ``"auto"`` forces sniffing even when the server was
        started with a concrete ``--format``.  Only when the request
        names a concrete format is undetectable text parsed anyway —
        otherwise text no frontend recognises is treated as an unknown
        fingerprint (404), preserving the pre-frontend contract.
        """
        if not isinstance(value, str) or not value:
            raise ProtocolError(400, "bad-request",
                                f"'{what}' must be a schema fingerprint "
                                "or inline schema text")
        with self._lock:
            schemas = dict(self.schemas)
        if value in schemas:
            self._count_stale(value)
            return schemas[value]
        matches = [fp for fp in schemas if fp.startswith(value)]
        if len(matches) == 1:
            self._count_stale(matches[0])
            return schemas[matches[0]]
        if len(matches) > 1:
            raise ProtocolError(400, "ambiguous-schema",
                                f"'{what}' prefix matches "
                                f"{len(matches)} schemas")
        resolved = self.default_format if format is None else format
        if format is None or format == "auto":
            # No concrete request format: only text some frontend
            # recognises counts as inline — anything else is an
            # unknown fingerprint (404), whatever the server default
            # says; an 'auto' (requested or defaulted) then parses
            # with the detected frontend, a concrete default with that.
            try:
                detected = detect_format(value)
            except SchemaFormatError:
                raise ProtocolError(404, "unknown-schema",
                                    f"no schema {value!r} on this server"
                                    ) from None
            if resolved == "auto":
                resolved = detected
        try:
            return load_schema(value, format=resolved, name=what)
        except ValueError as exc:
            raise ProtocolError(400, "bad-schema",
                                f"'{what}' is not a parseable {resolved} "
                                f"schema: {exc}") from None

    def register_embedding(self, embedding: SchemaEmbedding) -> str:
        """Make a freshly found embedding addressable by later calls.

        Dynamic registrations are bounded: past
        ``MAX_DYNAMIC_EMBEDDINGS``/``MAX_DYNAMIC_SCHEMAS`` the oldest
        dynamically-added artifact is evicted (store-loaded artifacts
        never are)."""
        fingerprint = embedding.fingerprint()
        with self._lock:
            if fingerprint not in self.embeddings:
                self.embeddings[fingerprint] = embedding
                self._dynamic_embeddings[fingerprint] = None
                while len(self._dynamic_embeddings) > \
                        MAX_DYNAMIC_EMBEDDINGS:
                    oldest, _ = self._dynamic_embeddings.popitem(
                        last=False)
                    self.embeddings.pop(oldest, None)
            for schema in (embedding.source, embedding.target):
                schema_fp = schema.fingerprint()
                if schema_fp not in self.schemas:
                    self.schemas[schema_fp] = schema
                    self._dynamic_schemas[schema_fp] = None
                    while len(self._dynamic_schemas) > \
                            MAX_DYNAMIC_SCHEMAS:
                        oldest, _ = self._dynamic_schemas.popitem(
                            last=False)
                        self.schemas.pop(oldest, None)
        return fingerprint


# -- handlers -----------------------------------------------------------------

def _document_batch(state: ServiceState, payload: dict,
                    apply_one: Callable[[SchemaEmbedding, str], str],
                    embedding_ref: Optional[str]) -> dict:
    """The shared map/invert shape: resolve the embedding, run
    ``apply_one(embedding, xml) -> output`` per document with per-item
    failure isolation (CLI batch semantics), and assemble the
    single-vs-batch response.

    Item shape: ``{"name", "ok", "output"}`` on success,
    ``{"name", "ok", "error"}`` on failure — the error string is never
    placed where document content goes, matching ``/v1/translate``.
    """
    fingerprint, embedding = state.resolve_embedding(embedding_ref)
    items, single = documents_from(payload)
    results = []
    failures = 0
    for name, xml in items:
        try:
            results.append({"name": name, "ok": True,
                            "output": apply_one(embedding, xml)})
        except Exception as exc:  # one bad document must not sink the batch
            failures += 1
            results.append({"name": name, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"})
    response = {"embedding": fingerprint, "failures": failures}
    if single:
        response["result"] = results[0]
    else:
        response["results"] = results
    return response


def _handle_map(state: ServiceState, payload: dict) -> dict:
    options = parse_fields(payload, ENDPOINT_FIELDS["/v1/map"])

    def apply_one(embedding: SchemaEmbedding, xml: str) -> str:
        # Parse→map→serialize through the codec when the
        # embedding has one (byte-identical to serializing the
        # interpreted mapping, asserted by the equivalence tests).
        return state.engine.map_text(embedding, xml,
                                     validate=options["validate"])

    return _document_batch(state, payload, apply_one, options["embedding"])


def _handle_invert(state: ServiceState, payload: dict) -> dict:
    options = parse_fields(payload, ENDPOINT_FIELDS["/v1/invert"])

    def apply_one(embedding: SchemaEmbedding, xml: str) -> str:
        return to_string(state.engine.invert(embedding, parse_xml(xml),
                                             strict=options["strict"]))

    return _document_batch(state, payload, apply_one, options["embedding"])


def _handle_translate(state: ServiceState, payload: dict) -> dict:
    options = parse_fields(payload, ENDPOINT_FIELDS["/v1/translate"])
    fingerprint, embedding = state.resolve_embedding(options["embedding"])
    context_type = options["context_type"]
    queries, single = queries_from(payload)
    results = []
    failures = 0
    for query in queries:
        try:
            anfa = state.engine.translate_query(embedding, query,
                                                context_type)
            results.append({"query": query, "ok": True,
                            "anfa": anfa.canonical_describe(),
                            "empty": anfa.is_fail()})
        except Exception as exc:  # one bad query must not sink the batch
            failures += 1
            results.append({"query": query, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"})
    response = {"embedding": fingerprint, "failures": failures}
    if single:
        response["result"] = results[0]
    else:
        response["results"] = results
    return response


def _handle_find(state: ServiceState, payload: dict) -> dict:
    options = parse_fields(payload, ENDPOINT_FIELDS["/v1/find"],
                           available_formats())
    source = state.resolve_schema(payload.get("source"), "source",
                                  format=options["format"])
    target = state.resolve_schema(payload.get("target"), "target",
                                  format=options["format"])
    result = state.engine.find_embedding(
        source, target, method=options["method"] or "auto",
        seed=options["seed"], restarts=options["restarts"])
    response = {
        "found": result.found,
        "method": result.method,
        "quality": result.quality,
        "seconds": result.seconds,
        "embedding": None,
    }
    if result.embedding is not None:
        fingerprint = state.register_embedding(result.embedding)
        response["embedding"] = fingerprint
        response["payload"] = embedding_to_payload(result.embedding)
    return response


def _handle_evolve(state: ServiceState, payload: dict) -> dict:
    """``POST /v1/evolve`` — per-query compatibility verdicts across a
    schema version bump.

    The response is ``EvolutionReport.to_payload()`` verbatim, so the
    served verdicts are byte-identical to a direct ``Engine.evolve``
    call (the same contract every other endpoint honours).  A broken
    query in the batch yields a structured ``broken`` verdict, never an
    HTTP error.
    """
    options = parse_fields(payload, ENDPOINT_FIELDS["/v1/evolve"],
                           available_formats())
    old = state.resolve_schema(payload.get("old"), "old",
                               format=options["format"])
    new = state.resolve_schema(payload.get("new"), "new",
                               format=options["format"])
    queries, _ = queries_from(payload)
    # An absent 'embedding' means "search between the versions" — it is
    # NOT the translate/map shorthand for "the sole loaded embedding",
    # which would silently pair unrelated schemas.
    embedding: Optional[SchemaEmbedding] = None
    if options["embedding"] is not None:
        _, embedding = state.resolve_embedding(options["embedding"])
    try:
        report = state.engine.evolve(
            old, new, queries, embedding=embedding,
            validate=options["validate"],
            method=options["method"] or "auto",
            seed=options["seed"], restarts=options["restarts"],
            samples=options["samples"])
    except EmbeddingError as exc:
        raise ProtocolError(400, "invalid-embedding", str(exc)) from None
    if report.embedding_object is not None:
        state.register_embedding(report.embedding_object)
    return report.to_payload()


def _handle_healthz(state: ServiceState) -> dict:
    payload = {
        "ok": True,
        "uptime_seconds": round(time.time() - state.started_at, 3),
        "embeddings": len(state.embeddings),
        "schemas": len(state.schemas),
        "store": state.store_path,
        "generation": state.generation,
        "store_json_parses": state.store_json_parses,
    }
    if state.fleet is not None:
        payload["worker"] = state.fleet.worker_id
        payload["pid"] = os.getpid()
        payload["reloads"] = state.reloads
    return payload


def _handle_metrics(state: ServiceState) -> dict:
    payload = {
        "requests": state.metrics.snapshot(),
        "engine": state.engine.stats(),
        "generation": state.generation,
        "reloads": state.reloads,
        "stale_artifacts": len(state.stale),
        "stale_serves": state.stale_serves,
    }
    if state.fleet is not None:
        payload["worker"] = state.fleet.worker_id
    return payload


def _handle_fleet(state: ServiceState) -> dict:
    """The fleet topology — what a routing client needs: worker ids
    with their direct ports (the consistent-hash ring nodes), the
    shared port, and the active store generation."""
    fleet = state.fleet
    if fleet is None:
        return {"fleet": False, "workers": [],
                "generation": state.generation}
    return {
        "fleet": True,
        "worker": fleet.worker_id,
        "host": fleet.host,
        "shared_port": fleet.shared_port,
        "workers": [{"id": row["id"], "port": row["port"]}
                    for row in fleet.workers],
        "generation": state.generation,
        "reloads": state.reloads,
        "restarts": fleet.restart_count(),
    }


def _handle_fleet_metrics(state: ServiceState) -> dict:
    """The fleet-wide ``/metrics`` aggregate: this worker fans out to
    every peer's direct port, merges counters (sums; latency tails stay
    per-worker, the aggregate keeps the worst), and reports per-worker
    rows alongside.  A dead peer becomes an ``ok: false`` row — the
    aggregate then covers the workers that answered."""
    from repro.serve.client import ServeClient

    fleet = state.fleet
    local = {"worker": fleet.worker_id if fleet is not None else None,
             "ok": True,
             "requests": state.metrics.snapshot(),
             "engine": state.engine.stats(),
             "generation": state.generation,
             "reloads": state.reloads}
    rows = [local]
    if fleet is not None:
        for row in fleet.workers:
            if row["id"] == fleet.worker_id:
                continue
            try:
                peer = ServeClient(fleet.host, row["port"], timeout=5.0)
                payload = peer.metrics()
                rows.append({"worker": row["id"], "ok": True,
                             "requests": payload.get("requests", {}),
                             "engine": payload.get("engine", {}),
                             "generation": payload.get("generation"),
                             "reloads": payload.get("reloads", 0)})
            except Exception as exc:
                rows.append({"worker": row["id"], "ok": False,
                             "error": f"{type(exc).__name__}: {exc}"})
    answered = [row for row in rows if row["ok"]]
    rows.sort(key=lambda row: (row["worker"] is None, row["worker"]))
    return {
        "fleet": fleet is not None,
        "workers": rows,
        "aggregate": {
            "requests": merge_request_snapshots(
                [row["requests"] for row in answered]),
            "engine": merge_engine_stats(
                [row["engine"] for row in answered]),
        },
        "restarts": (fleet.restart_count() if fleet is not None else 0),
        "generation": state.generation,
    }


_POST_ROUTES: dict[str, Callable[[ServiceState, dict], dict]] = {
    "/v1/map": _handle_map,
    "/v1/invert": _handle_invert,
    "/v1/translate": _handle_translate,
    "/v1/find": _handle_find,
    "/v1/evolve": _handle_evolve,
}

_GET_ROUTES: dict[str, Callable[[ServiceState], dict]] = {
    "/healthz": _handle_healthz,
    "/metrics": _handle_metrics,
    "/metrics/fleet": _handle_fleet_metrics,
    "/fleet": _handle_fleet,
}


def dispatch(state: ServiceState, method: str, path: str,
             body: Union[bytes, dict, None] = None) -> tuple[int, dict]:
    """Route one request; always returns ``(status, payload)``.

    Request metrics (counts, errors, latency) are recorded here, so any
    transport — HTTP, tests, an embedded caller — feeds the same
    ``/metrics`` numbers.
    """
    started = time.perf_counter()
    status, payload = _dispatch(state, method, path, body)
    # Unknown paths share one overflow label so probing clients cannot
    # grow the per-endpoint registry (its own cap is the backstop).
    known = path in _POST_ROUTES or path in _GET_ROUTES
    state.metrics.observe(path if known else OVERFLOW_ENDPOINT,
                          time.perf_counter() - started,
                          ok=status < 400)
    return status, payload


def _dispatch(state: ServiceState, method: str, path: str,
              body: Union[bytes, dict, None]) -> tuple[int, dict]:
    try:
        if method == "GET":
            handler = _GET_ROUTES.get(path)
            if handler is None:
                if path in _POST_ROUTES:
                    raise ProtocolError(405, "method-not-allowed",
                                        f"{path} expects POST")
                raise ProtocolError(404, "not-found",
                                    f"no endpoint {path}")
            return 200, handler(state)
        if method == "POST":
            handler = _POST_ROUTES.get(path)
            if handler is None:
                if path in _GET_ROUTES:
                    raise ProtocolError(405, "method-not-allowed",
                                        f"{path} expects GET")
                raise ProtocolError(404, "not-found",
                                    f"no endpoint {path}")
            payload = (body if isinstance(body, dict)
                       else decode_body(body or b""))
            return 200, handler(state, payload)
        raise ProtocolError(405, "method-not-allowed",
                            f"unsupported method {method}")
    except ProtocolError as exc:
        return exc.status, exc.payload()
    except Exception as exc:  # a handler fault must not kill the thread
        return 500, ProtocolError(500, "internal-error",
                                  f"{type(exc).__name__}: {exc}").payload()
