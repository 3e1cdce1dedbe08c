"""The :class:`Engine` session — fingerprint-keyed LRU caches over the
compiled artifacts of :mod:`repro.engine.compiled`.

An Engine turns the pipeline into "compile once, serve many": schemas
and embeddings are compiled on first use and reused by content
fingerprint; whole query translations and embedding-search results are
LRU-cached on top.  The module-level :func:`default_engine` backs the
classic one-shot API (``apply_embedding``, ``translate_query``,
``invert``, ``find_embedding``), which keeps its signatures and simply
delegates here.

Cache-correctness contract:

* keys are *content* fingerprints — re-parsing the same DTD text or
  re-building an equal embedding hits; a changed schema or embedding
  (built through the functional update paths: ``with_production``,
  ``renamed``, ``build_embedding``) has a new fingerprint and misses.
  Schemas and embeddings are immutable by contract after construction
  (their own classification/edge memos already rely on this); mutating
  one in place is unsupported and would serve stale artifacts;
* per-cache hit/miss/eviction counters (:class:`CacheStats`) make the
  contract testable;
* all caches are bounded LRUs, safe for long-running servers; the
  compiled artifacts below them keep only what depends on the schema
  or embedding alone (a translator's per-edge table, a schema's
  mindef), while per-query and per-search memos die with the call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import astuple, dataclass
from typing import (
    TYPE_CHECKING,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # runtime import stays inside the methods below
    from repro.engine.store import ArtifactStore

from repro.anfa.model import ANFA
from repro.core.embedding import SchemaEmbedding
from repro.core.instmap import MappingResult
from repro.core.similarity import SimilarityMatrix
from repro.dtd.model import DTD
from repro.engine.compiled import CompiledEmbedding, CompiledSchema
from repro.schema import AUTO, detect_format
from repro.schema import load_schema as _load_schema_text
from repro.matching.local import LocalSearchConfig
from repro.matching.search import SearchResult, search_embedding
from repro.xpath.ast import PathExpr
from repro.xpath.parser import parse_xr
from repro.xtree.nodes import ElementNode


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


class _LRUCache:
    """A small LRU: OrderedDict recency + shared stats counters."""

    def __init__(self, maxsize: int, stats: CacheStats) -> None:
        if maxsize < 1:
            raise ValueError("cache size must be >= 1")
        self.maxsize = maxsize
        self.stats = stats
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable):
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> list[tuple[Hashable, object]]:
        """A snapshot of (key, value) pairs, oldest first — does not
        touch recency or the stats counters (used by store export)."""
        return list(self._data.items())

    def clear(self) -> None:
        self._data.clear()


@dataclass
class EngineConfig:
    """Cache bounds for one Engine session."""

    schema_cache: int = 64
    embedding_cache: int = 32
    translation_cache: int = 1024
    search_cache: int = 128


QueryLike = Union[str, PathExpr]


class Engine:
    """A compile-once/serve-many session over the whole pipeline.

    Typical server usage::

        engine = Engine()
        compiled = engine.compile_embedding(sigma)      # pay once
        for doc in documents:
            engine.apply_embedding(sigma, doc)          # cache hits
        for query in queries:
            engine.translate_query(sigma, query)        # LRU'd ANFAs

    All entry points also accept the raw model objects used by the
    classic API; compilation happens transparently behind the
    fingerprint caches.  Thread-safe: cache bookkeeping is guarded by a
    reentrant lock (compiles may run redundantly under contention, but
    results are consistent).
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self._lock = threading.RLock()
        self.schema_stats = CacheStats()
        self.embedding_stats = CacheStats()
        self.translation_stats = CacheStats()
        self.search_stats = CacheStats()
        self._schemas = _LRUCache(self.config.schema_cache,
                                  self.schema_stats)
        self._embeddings = _LRUCache(self.config.embedding_cache,
                                     self.embedding_stats)
        self._translations = _LRUCache(self.config.translation_cache,
                                       self.translation_stats)
        self._searches = _LRUCache(self.config.search_cache,
                                   self.search_stats)
        # (format, source text) provenance per schema fingerprint, kept
        # for save_store; bounded like the caches it shadows.
        self._sources: "OrderedDict[str, tuple[str, str]]" = OrderedDict()
        self._sources_bound = 4 * self.config.schema_cache

    # -- schema loading ----------------------------------------------------
    def load_schema(self, text: str, format: str = AUTO,
                    root: Optional[str] = None, name: str = "dtd") -> DTD:
        """Lower schema text through the frontend registry.

        The resolved format and source text are remembered per
        fingerprint, so :meth:`save_store` can persist provenance
        alongside the schema artifact.
        """
        resolved = detect_format(text) if format == AUTO else format
        dtd = _load_schema_text(text, format=resolved, root=root, name=name)
        with self._lock:
            self._sources[dtd.fingerprint()] = (resolved, text)
            self._sources.move_to_end(dtd.fingerprint())
            while len(self._sources) > self._sources_bound:
                self._sources.popitem(last=False)
        return dtd

    # -- compilation -------------------------------------------------------
    def compile_schema(self, dtd: Union[DTD, str],
                       format: str = AUTO, name: str = "dtd",
                       ) -> CompiledSchema:
        """The compiled artifact for ``dtd``, cached by fingerprint.

        ``dtd`` may be an already-lowered :class:`DTD` or raw schema
        text in any registered frontend format — ``format`` selects the
        frontend (default: auto-detect), exactly like the CLI's
        ``--format``.
        """
        if isinstance(dtd, str):
            dtd = self.load_schema(dtd, format=format, name=name)
        fingerprint = dtd.fingerprint()
        with self._lock:
            cached = self._schemas.get(fingerprint)
        if cached is not None:
            return cached  # type: ignore[return-value]
        compiled = CompiledSchema(dtd)
        with self._lock:
            self._schemas.put(fingerprint, compiled)
        return compiled

    def compile_embedding(self, embedding: SchemaEmbedding,
                          ensure_valid: bool = False) -> CompiledEmbedding:
        """The compiled artifact for ``embedding``, cached by fingerprint.

        Rebuilding an equal embedding (e.g. re-loading its JSON) hits;
        any content change produces a new fingerprint and a fresh
        compile.  With ``ensure_valid`` the Section 4.1 check runs (at
        most once per artifact) *before* compilation, so an invalid
        embedding raises the aggregated ``EmbeddingError`` exactly as
        the uncompiled path always did — never a low-level
        classification error from artifact construction.  Without it,
        no validation happens (see the ``validate`` flags on the
        serving methods).
        """
        fingerprint = embedding.fingerprint()
        with self._lock:
            cached = self._embeddings.get(fingerprint)
        if cached is not None:
            if ensure_valid:
                cached.ensure_valid()  # type: ignore[union-attr]
            return cached  # type: ignore[return-value]
        if ensure_valid:
            embedding.check()
        compiled = CompiledEmbedding(
            embedding,
            source_schema=self.compile_schema(embedding.source),
            target_schema=self.compile_schema(embedding.target))
        if ensure_valid:
            compiled.mark_validated()
        with self._lock:
            self._embeddings.put(fingerprint, compiled)
        return compiled

    # -- serving: mapping --------------------------------------------------
    def apply_embedding(self, embedding: SchemaEmbedding,
                        source_root: ElementNode,
                        validate: bool = True) -> MappingResult:
        """``σd(T1)`` through the compiled-embedding cache."""
        compiled = self.compile_embedding(embedding, ensure_valid=validate)
        return compiled.apply(source_root)

    def map_text(self, embedding: SchemaEmbedding, text: str,
                 validate: bool = True) -> str:
        """Serialized ``σd`` of an XML text through the codec
        (parse→map→serialize fused; byte-identical to serializing
        :meth:`apply_embedding` on the parsed document).  Embeddings
        whose shape has no codec take the interpreted path inside
        :meth:`CompiledEmbedding.map_text`."""
        compiled = self.compile_embedding(embedding, ensure_valid=validate)
        return compiled.map_text(text)

    def map_documents(self, embedding: SchemaEmbedding,
                      documents: Iterable[ElementNode],
                      validate: bool = True) -> list[MappingResult]:
        """Batch ``σd`` over many documents with one compile."""
        compiled = self.compile_embedding(embedding, ensure_valid=validate)
        return [compiled.apply(document) for document in documents]

    # -- serving: translation ----------------------------------------------
    def translate_query(self, embedding: SchemaEmbedding, query: QueryLike,
                        context_type: Optional[str] = None) -> ANFA:
        """``Tr(Q)`` with an LRU over whole-query results.

        ``query`` may be an XR string or an AST.  Strings are keyed on
        their raw text, so a repeated query is served without parsing
        or even touching the compiled embedding; ASTs key structurally.
        The returned ANFA is shared — treat it as immutable (evaluation
        never mutates; use ``ANFA.copy()`` for a private mutable copy).
        """
        fingerprint = embedding.fingerprint()
        if isinstance(query, str):
            key = (fingerprint, "text", query, context_type)
        else:
            key = (fingerprint, "ast", query, context_type)
        with self._lock:
            cached = self._translations.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        parsed = parse_xr(query) if isinstance(query, str) else query
        anfa = self.compile_embedding(embedding).translate(parsed,
                                                           context_type)
        with self._lock:
            self._translations.put(key, anfa)
        return anfa

    def translate_queries(self, embedding: SchemaEmbedding,
                          queries: Sequence[QueryLike],
                          context_type: Optional[str] = None) -> list[ANFA]:
        """Batch ``Tr`` over many queries with one compile."""
        return [self.translate_query(embedding, query, context_type)
                for query in queries]

    # -- serving: inversion ------------------------------------------------
    def invert(self, embedding: SchemaEmbedding, target_root: ElementNode,
               strict: bool = True) -> ElementNode:
        """``σd⁻¹`` through the compiled-embedding cache (no validation,
        matching the classic ``invert`` contract)."""
        compiled = self.compile_embedding(embedding)
        return compiled.invert(target_root, strict=strict)

    # -- serving: embedding search -------------------------------------------
    def find_embedding(self, source: DTD, target: DTD,
                       att: Optional[SimilarityMatrix] = None,
                       method: str = "auto", seed: int = 0,
                       restarts: int = 20,
                       config: Optional[LocalSearchConfig] = None,
                       use_cache: bool = True) -> SearchResult:
        """Schema-Embedding search with whole-result caching.

        The search is deterministic in its arguments, so results are
        cached on (S1, S2, att, parameters) fingerprints; the target's
        compiled mindef is shared across searches, while its candidate
        paths live for one search (shared by every strategy inside
        it).  ``use_cache=False`` forces a fresh search — the
        classic ``find_embedding`` wrapper uses it so repeated calls
        keep their per-call semantics (freshly measured ``seconds``, a
        fresh embedding object), which benchmarks rely on.
        """
        att = att or SimilarityMatrix.permissive()
        if use_cache:
            key = (source.fingerprint(), target.fingerprint(),
                   att.fingerprint(), method, seed, restarts,
                   astuple(config) if config is not None else None)
            with self._lock:
                cached = self._searches.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
        result = search_embedding(source, target, att, method=method,
                                  seed=seed, restarts=restarts,
                                  config=config,
                                  mindef=self.compile_schema(target).mindef)
        if use_cache:
            with self._lock:
                self._searches.put(key, result)
        return result

    # -- serving: schema evolution -------------------------------------------
    def evolve(self, old_schema: DTD, new_schema: DTD,
               queries: Sequence[str],
               embedding: Optional[SchemaEmbedding] = None,
               validate: bool = True, method: str = "auto",
               seed: int = 0, restarts: int = 20,
               samples: Optional[int] = None):
        """Per-query compatibility verdicts across a version bump.

        Finds (or accepts) an embedding ``old_schema → new_schema`` and
        classifies every query as ``still-valid``, ``translatable``
        (re-translated query attached) or ``broken`` (structured
        reason), with per-query failure isolation.  Returns an
        :class:`~repro.evolution.engine.EvolutionReport`; the serve
        layer returns its payload verbatim, so daemon and fleet
        responses are byte-identical to this call.
        """
        # The evolution layer sits above the engine; importing it here
        # (not at module top) keeps the layering acyclic.
        from repro.evolution.engine import evolve
        return evolve(old_schema, new_schema, queries, engine=self,
                      embedding=embedding, validate=validate,
                      method=method, seed=seed, restarts=restarts,
                      samples=samples)

    # -- persistence ---------------------------------------------------------
    def save_store(self, path) -> "ArtifactStore":
        """Persist every cached schema, embedding and search result to
        an artifact store at ``path`` (created if absent).

        The store holds the *declarative* artifacts (the Section 4.5
        transformation-language form), not the compiled objects:
        :meth:`warm_start` recompiles them once at load, after which a
        new process serves with zero compile misses.
        """
        from repro.engine.store import ArtifactStore

        store = ArtifactStore(path)
        with self._lock:
            schemas = self._schemas.items()
            embeddings = self._embeddings.items()
            searches = self._searches.items()
            sources = dict(self._sources)
        for fp, compiled in schemas:
            source_format, source_text = sources.get(fp, (None, None))
            store.put_schema(compiled.dtd,  # type: ignore[union-attr]
                             format=source_format, source_text=source_text)
        for fp, compiled in embeddings:
            store.put_embedding(
                compiled.embedding,  # type: ignore[union-attr]
                validated=compiled.validated)  # type: ignore[union-attr]
        for key, result in searches:
            store.put_search(key, result)  # type: ignore[arg-type]
        return store

    @classmethod
    def warm_start(cls, path, config: Optional[EngineConfig] = None,
                   ) -> "Engine":
        """A new Engine preloaded from the artifact store at ``path``
        (an already-open :class:`ArtifactStore` — or any object with
        its read surface, e.g. a packed
        :class:`~repro.engine.storepack.StoreView` — is also accepted;
        its memoised artifacts are reused instead of re-reading the
        disk).

        Every stored schema and embedding is compiled up front (paying
        each compile exactly once, at load time rather than on the
        first request) and stored search results are re-inserted into
        the search cache.  Stats are reset after loading, so a
        warm-started engine that only sees known artifacts reports
        **zero** compile misses while serving.

        With no explicit ``config`` the cache bounds are grown to fit
        the store: an LRU smaller than the artifact set would evict
        during this very load and silently void the zero-miss
        guarantee.  An explicit ``config`` is respected as given.
        """
        from repro.engine.store import ArtifactStore

        # Duck-typed: ArtifactStore and StoreView share the read
        # surface (fingerprint lists, get_*, iter_searches, manifest).
        store = (path if hasattr(path, "embedding_fingerprints")
                 else ArtifactStore(path, create=False))
        if config is None:
            defaults = EngineConfig()
            config = EngineConfig(
                schema_cache=max(defaults.schema_cache,
                                 len(store.schema_fingerprints())),
                embedding_cache=max(defaults.embedding_cache,
                                    len(store.embedding_fingerprints())),
                translation_cache=defaults.translation_cache,
                search_cache=max(defaults.search_cache,
                                 len(store.manifest["searches"])))
        engine = cls(config)
        for fingerprint in store.schema_fingerprints():
            engine.compile_schema(store.get_schema(fingerprint))
        for fingerprint in store.embedding_fingerprints():
            engine.load_embedding(store, fingerprint)
        for key, result in store.iter_searches():
            with engine._lock:
                engine._searches.put(key, result)
        engine.reset_stats()
        return engine

    def load_embedding(self, store, fingerprint: str) -> CompiledEmbedding:
        """Compile one stored embedding for serving (warm start, fleet
        reload).  An embedding the store marks validated is marked so
        here, and its pfrag templates and codec are built now: the
        first mapping request pays nothing but the walk itself."""
        compiled = self.compile_embedding(store.get_embedding(fingerprint))
        if store.embedding_validated(fingerprint):
            compiled.mark_validated()
            compiled.codec  # builds the InstMap too
        return compiled

    def ensure_capacity(self, schemas: Optional[int] = None,
                        embeddings: Optional[int] = None) -> None:
        """Grow (never shrink) the schema/embedding cache bounds.

        Hot reload can add artifacts past the bounds a warm start was
        sized for; growing before compiling keeps the zero-eviction
        (hence zero-recompile) guarantee for store-loaded artifacts.
        """
        with self._lock:
            if schemas is not None:
                self._schemas.maxsize = max(self._schemas.maxsize, schemas)
            if embeddings is not None:
                self._embeddings.maxsize = max(self._embeddings.maxsize,
                                               embeddings)

    # -- bookkeeping ---------------------------------------------------------
    def stats(self) -> dict[str, dict[str, int]]:
        """Per-cache hit/miss/eviction counters."""
        return {
            "schemas": self.schema_stats.as_dict(),
            "embeddings": self.embedding_stats.as_dict(),
            "translations": self.translation_stats.as_dict(),
            "searches": self.search_stats.as_dict(),
        }

    def describe_stats(self) -> str:
        """A one-line-per-cache rendering for CLI/--stats output."""
        rows = []
        for name, counters in self.stats().items():
            rows.append(f"{name}: {counters['hits']} hits, "
                        f"{counters['misses']} misses, "
                        f"{counters['evictions']} evictions")
        return "\n".join(rows)

    def clear(self) -> None:
        """Drop every cached artifact (counters are kept)."""
        with self._lock:
            self._schemas.clear()
            self._embeddings.clear()
            self._translations.clear()
            self._searches.clear()

    def reset_stats(self) -> None:
        with self._lock:
            for stats in (self.schema_stats, self.embedding_stats,
                          self.translation_stats, self.search_stats):
                stats.hits = stats.misses = stats.evictions = 0


# -- the default engine ------------------------------------------------------

_default_engine: Optional[Engine] = None
_default_lock = threading.Lock()


def default_engine() -> Engine:
    """The process-wide Engine backing the classic one-shot API."""
    global _default_engine
    if _default_engine is None:
        with _default_lock:
            if _default_engine is None:
                _default_engine = Engine()
    return _default_engine


def set_default_engine(engine: Optional[Engine]) -> Optional[Engine]:
    """Swap the process-wide Engine (``None`` resets to a fresh one on
    next use); returns the previous engine for restoration."""
    global _default_engine
    with _default_lock:
        previous = _default_engine
        _default_engine = engine
    return previous
