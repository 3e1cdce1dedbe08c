"""The compilation-and-caching layer: compile once, serve many — and
persist/parallelise the compiled artifacts.

* :mod:`repro.engine.compiled` — :class:`CompiledSchema` and
  :class:`CompiledEmbedding`, the immutable per-fingerprint artifacts;
* :mod:`repro.engine.plan` — the document-plane fast path:
  :class:`MappingProgram` / :class:`InverseProgram`, flat per-type
  instruction sequences interpreted without recursion (byte-identical
  to the reference InstMap / inverse walkers);
* :mod:`repro.engine.session` — the :class:`Engine` session with LRU
  caches, ``save_store``/``warm_start`` persistence, and the
  process-wide :func:`default_engine` that the classic one-shot API
  delegates to;
* :mod:`repro.engine.store` — :class:`ArtifactStore`, the versioned,
  fingerprint-keyed on-disk form of schemas/embeddings/search results;
* :mod:`repro.engine.storepack` — the packed store: one mmap'd binary
  file per generation (:func:`pack_store` / :class:`StoreView`),
  zero-copy across a pre-fork fleet, zero JSON parses at warm start;
* :mod:`repro.engine.parallel` — :class:`ParallelRunner`, chunked
  corpus fan-out across a pool of warm-started worker engines;
* :mod:`repro.engine.corpus` — streaming corpus I/O (directories,
  NDJSON files, single documents);
* :mod:`repro.engine.stream` — streaming σd entry points: the codec's
  event driver fed from a text or a file, output as chunks or written
  atomically, memory bounded by the largest star instance;
* :mod:`repro.engine.codec` — per-schema codecs: the flat mapping
  program specialised into one handler closure per source type, built
  once per compiled embedding, and the one event driver that runs
  every text→text σd (``map_text``, ``/v1/map``, ``repro map``,
  ``repro batch map``).
"""

from repro.engine.codec import Codec, CodecError, build_codec
from repro.engine.compiled import CompiledEmbedding, CompiledSchema
from repro.engine.plan import InverseProgram, MappingProgram, PlanError
from repro.engine.stream import (
    StreamStats,
    iter_mapped,
    stream_map,
    stream_map_to_path,
)
from repro.engine.corpus import (
    CorpusDocument,
    CorpusError,
    iter_corpora,
    iter_corpus,
    write_ndjson,
)
from repro.engine.parallel import (
    CorpusOutcome,
    ParallelReport,
    ParallelRunner,
    TranslationOutcome,
)
from repro.engine.session import (
    CacheStats,
    Engine,
    EngineConfig,
    default_engine,
    set_default_engine,
)
from repro.engine.store import ArtifactStore, StoreError
from repro.engine.storepack import (
    PackError,
    StoreView,
    current_generation,
    open_view,
    pack_store,
)

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "Codec",
    "CodecError",
    "CompiledEmbedding",
    "CompiledSchema",
    "CorpusDocument",
    "CorpusError",
    "CorpusOutcome",
    "Engine",
    "EngineConfig",
    "InverseProgram",
    "MappingProgram",
    "PackError",
    "ParallelReport",
    "PlanError",
    "ParallelRunner",
    "StoreError",
    "StoreView",
    "StreamStats",
    "TranslationOutcome",
    "build_codec",
    "current_generation",
    "default_engine",
    "iter_corpora",
    "iter_corpus",
    "iter_mapped",
    "open_view",
    "pack_store",
    "set_default_engine",
    "stream_map",
    "stream_map_to_path",
    "write_ndjson",
]
