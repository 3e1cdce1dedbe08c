"""The user-facing Schema-Embedding solver (Section 5's PROBLEM box).

``find_embedding(S1, S2, att, method=…)`` dispatches to:

* ``"random"``          — randomised assembly with restarts;
* ``"quality"``         — quality-ordered assembly;
* ``"indepset"``        — independent-set assembly;
* ``"exact"``           — complete backtracking (small schemas);
* ``"auto"`` (default)  — quality, then random, then indepset.

Returns a :class:`SearchResult` with the embedding (validated), the
method that succeeded, its quality ``qual(σ, att)`` and wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.core.embedding import SchemaEmbedding
from repro.core.similarity import SimilarityMatrix
from repro.dtd.mindef import MinDef
from repro.dtd.model import DTD
from repro.matching.assemble import assemble_quality, assemble_random
from repro.matching.exact import exact_embedding
from repro.matching.indepset import assemble_indepset
from repro.matching.local import LocalSearchConfig, TargetIndex

METHODS = ("auto", "random", "quality", "indepset", "exact")


@dataclass
class SearchResult:
    """Outcome of an embedding search."""

    embedding: Optional[SchemaEmbedding]
    method: str
    seconds: float
    quality: float = 0.0

    @property
    def found(self) -> bool:
        return self.embedding is not None


def search_embedding(source: DTD, target: DTD,
                     att: Optional[SimilarityMatrix] = None,
                     method: str = "auto", seed: int = 0,
                     restarts: int = 20,
                     config: Optional[LocalSearchConfig] = None,
                     mindef: Optional[MinDef] = None) -> SearchResult:
    """The uncached Schema-Embedding solver.

    One :class:`~repro.matching.local.TargetIndex` of ``target`` serves
    the candidate paths to every strategy and restart the dispatch
    tries, and is dropped on return.  ``mindef`` optionally supplies
    the target's precompiled mindef templates (see
    :class:`repro.engine.compiled.CompiledSchema`).  Deterministic in
    all arguments, which is what makes
    :class:`repro.engine.session.Engine` caching of whole search
    results sound.
    """
    att = att or SimilarityMatrix.permissive()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick from {METHODS}")
    started = time.perf_counter()
    target_index = TargetIndex(target, mindef)
    embedding: Optional[SchemaEmbedding] = None
    used = method

    if method in ("quality", "auto"):
        embedding = assemble_quality(source, target, att, seed=seed,
                                     restarts=max(1, restarts // 4),
                                     config=config, target_index=target_index)
        used = "quality"
    if embedding is None and method in ("random", "auto"):
        embedding = assemble_random(source, target, att, seed=seed,
                                    restarts=restarts, config=config,
                                    target_index=target_index)
        used = "random"
    if embedding is None and method in ("indepset", "auto"):
        embedding = assemble_indepset(source, target, att, seed=seed,
                                      restarts=max(1, restarts // 2),
                                      config=config, target_index=target_index)
        used = "indepset"
    if embedding is None and method == "exact":
        embedding = exact_embedding(source, target, att,
                                    target_index=target_index)
        used = "exact"

    elapsed = time.perf_counter() - started
    quality = embedding.quality(att) if embedding is not None else 0.0
    if embedding is not None:
        embedding.check(att)
    return SearchResult(embedding, used if embedding else method,
                        elapsed, quality)


def find_embedding(source: DTD, target: DTD,
                   att: Optional[SimilarityMatrix] = None,
                   method: str = "auto", seed: int = 0,
                   restarts: int = 20,
                   config: Optional[LocalSearchConfig] = None,
                   ) -> SearchResult:
    """Solve Schema-Embedding heuristically (or exactly).

    Delegates to the default :class:`repro.engine.session.Engine` so
    the target's compiled mindef is built once and shared, but
    bypasses the engine's whole-result cache: every call runs (and
    times) a real search, as this function always did.  Use
    ``Engine.find_embedding`` directly for cached request serving.

    >>> from repro.workloads.library import school_example
    >>> bundle = school_example()
    >>> result = find_embedding(bundle.classes, bundle.school)
    >>> result.found
    True
    """
    # Convenience wrapper delegating to the default engine; the
    # engine package imports this module.
    # lint: allow-lazy-import
    from repro.engine.session import default_engine

    return default_engine().find_embedding(source, target, att,
                                           method=method, seed=seed,
                                           restarts=restarts, config=config,
                                           use_cache=False)
