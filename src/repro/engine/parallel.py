"""Parallel batch serving — fan one corpus across many warm engines.

:class:`ParallelRunner` chunks a document corpus (or query list) across
a ``multiprocessing`` pool.  Each worker owns a private
:class:`~repro.engine.session.Engine`; when an artifact-store path is
given the workers **warm-start** from it, so every process serves with
zero schema/embedding compile misses (the compile was paid once, by
whoever built the store).  Results are re-merged in corpus order —
``jobs=4`` output is element-for-element identical to ``jobs=1`` — and
per-worker cache counters are aggregated into one report.

Two things intentionally do *not* survive the process boundary:

* node ids — each worker draws from its own id counter, so ids are
  unique within a :class:`~repro.core.instmap.MappingResult` but not
  across results from different workers (rendered XML, ``tree_equal``
  and the per-result ``idM`` are unaffected);
* engine identity — workers never share caches; the aggregated stats
  therefore show one embedding compile per worker when no store is
  given, and zero when one is.

``jobs=1`` runs the identical chunk pipeline serially in-process (no
pool, no pickling) — the byte-identity tests compare the two paths.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.anfa.model import ANFA
from repro.core.embedding import SchemaEmbedding
from repro.core.instmap import MappingResult
from repro.engine.corpus import CorpusDocument, iter_corpus
from repro.engine.session import Engine, EngineConfig
from repro.engine.store import ArtifactStore

#: Documents/queries per pool task; small enough that a 4-worker pool
#: stays busy on a few hundred items, large enough to amortise IPC.
DEFAULT_CHUNK_SIZE = 8


@dataclass
class ParallelReport:
    """One batch run: fan-out shape plus aggregated cache counters."""

    jobs: int
    chunks: int
    items: int
    #: summed per-worker Engine stats (hits/misses/evictions per cache).
    stats: dict[str, dict[str, int]] = field(default_factory=dict)

    def describe(self) -> str:
        rows = [f"jobs: {self.jobs}, chunks: {self.chunks}, "
                f"items: {self.items}"]
        for name, counters in self.stats.items():
            rows.append(f"{name}: {counters.get('hits', 0)} hits, "
                        f"{counters.get('misses', 0)} misses, "
                        f"{counters.get('evictions', 0)} evictions")
        return "\n".join(rows)


@dataclass
class CorpusOutcome:
    """One corpus document's result: rendered XML or the failure."""

    name: str
    ok: bool
    #: rendered target document when ``ok``, else the error message.
    output: str


@dataclass
class TranslationOutcome:
    """One query's result: the translated ANFA or the failure."""

    query: str
    ok: bool
    anfa: Optional[ANFA] = None
    error: str = ""


# -- worker-side state --------------------------------------------------------
#
# Pool workers are single-purpose: one initializer installs the engine
# and the batch's embedding, task functions only ship chunk payloads.

class _WorkerContext:
    def __init__(self, store_path: Optional[str],
                 config: Optional[EngineConfig],
                 embedding_ref: Union[SchemaEmbedding, str]) -> None:
        self.engine = Engine(config)
        if store_path is not None:
            # A batch serves exactly one embedding, so the worker loads
            # just that artifact from the store (not the whole store):
            # compile it now, then reset stats so serving reports zero
            # compile misses — the same warm-start contract as
            # Engine.warm_start, scoped to the batch.
            store = ArtifactStore(store_path, create=False)
            fingerprint = (embedding_ref if isinstance(embedding_ref, str)
                           else embedding_ref.fingerprint())
            embedding_ref = self.engine.load_embedding(
                store, fingerprint).embedding
            self.engine.reset_stats()
        assert isinstance(embedding_ref, SchemaEmbedding)
        self.embedding = embedding_ref


_WORKER: Optional[_WorkerContext] = None


def _init_worker(store_path: Optional[str], config: Optional[EngineConfig],
                 embedding_ref: Union[SchemaEmbedding, str]) -> None:
    global _WORKER
    _WORKER = _WorkerContext(store_path, config, embedding_ref)


def _stats_delta(before: dict, after: dict) -> dict:
    return {cache: {counter: after[cache][counter] - before[cache][counter]
                    for counter in after[cache]}
            for cache in after}


def _map_chunk(task):
    index, documents, validate = task
    context = _WORKER
    assert context is not None
    before = context.engine.stats()
    results = [context.engine.apply_embedding(context.embedding, document,
                                              validate=validate)
               for document in documents]
    return index, results, _stats_delta(before, context.engine.stats())


def _translate_chunk(task):
    index, queries, context_type = task
    context = _WORKER
    assert context is not None
    before = context.engine.stats()
    results = [context.engine.translate_query(context.embedding, query,
                                              context_type)
               for query in queries]
    return index, results, _stats_delta(before, context.engine.stats())


def _translate_outcome_chunk(task):
    index, queries, context_type = task
    context = _WORKER
    assert context is not None
    before = context.engine.stats()
    outcomes = []
    for query in queries:
        try:
            anfa = context.engine.translate_query(context.embedding, query,
                                                  context_type)
            outcomes.append(TranslationOutcome(str(query), True, anfa))
        except Exception as exc:  # one bad query must not sink the batch
            outcomes.append(TranslationOutcome(
                str(query), False, error=f"{type(exc).__name__}: {exc}"))
    return index, outcomes, _stats_delta(before, context.engine.stats())


def _corpus_chunk(task):
    index, rows, validate = task
    context = _WORKER
    assert context is not None
    before = context.engine.stats()
    outcomes = []
    for name, text in rows:
        try:
            output = context.engine.map_text(context.embedding, text,
                                             validate=validate)
            outcomes.append(CorpusOutcome(name, True, output))
        except Exception as exc:  # one bad document must not sink the batch
            outcomes.append(CorpusOutcome(
                name, False, f"{type(exc).__name__}: {exc}"))
    return index, outcomes, _stats_delta(before, context.engine.stats())


def _chunked(items: Iterable, size: int) -> Iterator[list]:
    chunk: list = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


# -- the runner ---------------------------------------------------------------

class ParallelRunner:
    """Chunked fan-out of one embedding's batch across worker engines.

    ``jobs=None`` uses every core; ``store`` names an artifact-store
    directory the workers warm-start from (the embedding is added to it
    first, so a fresh store directory works too).  One runner can serve
    many batches; ``last_report`` describes the most recent one.
    """

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 store: Optional[Union[str, Path]] = None,
                 config: Optional[EngineConfig] = None) -> None:
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.chunk_size = max(1, chunk_size or DEFAULT_CHUNK_SIZE)
        self.store_path = str(store) if store is not None else None
        self.config = config
        self.last_report: Optional[ParallelReport] = None

    # -- batch entry points ------------------------------------------------
    def map_documents(self, embedding: SchemaEmbedding,
                      documents: Iterable, validate: bool = True,
                      ) -> list[MappingResult]:
        """``σd`` over a document stream, order preserved."""
        return self._run(_map_chunk, embedding,
                         ((chunk, validate)
                          for chunk in _chunked(documents, self.chunk_size)))

    def translate_queries(self, embedding: SchemaEmbedding,
                          queries: Sequence,
                          context_type: Optional[str] = None) -> list[ANFA]:
        """``Tr`` over a query list, order preserved."""
        return self._run(_translate_chunk, embedding,
                         ((chunk, context_type)
                          for chunk in _chunked(queries, self.chunk_size)))

    def translate_outcomes(self, embedding: SchemaEmbedding,
                           queries: Sequence,
                           context_type: Optional[str] = None,
                           ) -> list[TranslationOutcome]:
        """``Tr`` with per-query failure isolation (the CLI's batch
        path): a malformed query yields a failed outcome instead of
        aborting the rest of the batch."""
        return self._run(_translate_outcome_chunk, embedding,
                         ((chunk, context_type)
                          for chunk in _chunked(queries, self.chunk_size)))

    def map_corpus(self, embedding: SchemaEmbedding,
                   corpus: Union[str, Path, Iterable[CorpusDocument]],
                   validate: bool = True) -> list[CorpusOutcome]:
        """Map a corpus text→text through :meth:`Engine.map_text`,
        the path ``repro map`` and ``/v1/map`` take, so outputs and
        error texts equal theirs; workers absorb the parse cost too.
        ``corpus`` may be a path (directory / NDJSON / XML file) or any
        stream of :class:`CorpusDocument` / ``(name, text)`` pairs.
        Failures come back as per-document outcomes."""
        if isinstance(corpus, (str, Path)):
            corpus = iter_corpus(corpus)
        rows = ((document.name, document.text)
                if isinstance(document, CorpusDocument) else tuple(document)
                for document in corpus)
        return self._run(_corpus_chunk, embedding,
                         ((chunk, validate)
                          for chunk in _chunked(rows, self.chunk_size)))

    # -- execution ---------------------------------------------------------
    def _run(self, worker, embedding: SchemaEmbedding, chunk_args) -> list:
        embedding_ref: Union[SchemaEmbedding, str] = embedding
        if self.store_path is not None:
            # Publish the embedding (and its schemas) so workers load by
            # fingerprint instead of re-pickling the whole object.
            store = ArtifactStore(self.store_path)
            embedding_ref = store.put_embedding(embedding)
        tasks = ((index, *args) for index, args in enumerate(chunk_args))

        outputs: list = []
        stats: dict[str, dict[str, int]] = {}
        chunks = 0

        def consume(result) -> None:
            nonlocal chunks
            _index, payload, delta = result
            outputs.extend(payload)
            chunks += 1
            for cache, counters in delta.items():
                bucket = stats.setdefault(cache, {})
                for counter, value in counters.items():
                    bucket[counter] = bucket.get(counter, 0) + value

        if self.jobs == 1:
            # The identical chunk pipeline, in-process: byte-identity
            # between jobs=1 and jobs=N is tested against this path.
            global _WORKER
            previous = _WORKER
            _init_worker(self.store_path, self.config, embedding_ref)
            try:
                for task in tasks:
                    consume(worker(task))
            finally:
                _WORKER = previous
        else:
            with multiprocessing.Pool(
                    self.jobs, initializer=_init_worker,
                    initargs=(self.store_path, self.config,
                              embedding_ref)) as pool:
                # imap keeps corpus order and consumes the task stream
                # lazily, so corpora never materialise in the parent.
                for result in pool.imap(worker, tasks):
                    consume(result)

        self.last_report = ParallelReport(self.jobs, chunks, len(outputs),
                                          stats)
        return outputs
