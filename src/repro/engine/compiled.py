"""Compiled schema/embedding artifacts — "compile once, serve many".

The paper presents InstMap, ``Tr`` and ``σd⁻¹`` as one-shot algorithms;
a serving system runs them millions of times against a handful of
schemas and embeddings.  Everything that depends only on the schema or
the embedding — never on the document or query — is hoisted here:

* :class:`CompiledSchema` — an immutable, hashable wrapper over a
  :class:`~repro.dtd.model.DTD` precomputing the production graph, the
  reachability closure and the mindef templates (the candidate target
  paths of an embedding search live for that one search, in
  :class:`~repro.matching.local.TargetIndex`);
* :class:`CompiledEmbedding` — a validated-at-most-once σ carrying the
  prebuilt pfrag templates (the :class:`~repro.core.instmap.InstMap`),
  the per-edge ANFA translation table of a
  :class:`~repro.core.translate.Translator`, and the inverse walker.

Both are keyed by *content fingerprints* (``DTD.fingerprint()`` /
``SchemaEmbedding.fingerprint()``): rebuilding an equal schema from
text reuses the artifact, mutating one in place misses the cache.

Related systems compile the same way: Genevès et al. (PLDI 2008)
precompile schemas into tree automata reused across query-compatibility
checks, and injective tree-pattern matchers precompute per-edge
automaton tables.  The caching session lives in
:mod:`repro.engine.session`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.embedding import SchemaEmbedding
from repro.core.instmap import InstMap, MappingResult
from repro.core.inverse import run_invert
from repro.core.translate import Translator
from repro.dtd.mindef import MinDef
from repro.dtd.model import DTD, Edge
from repro.xpath.ast import PathExpr
from repro.xtree.nodes import ElementNode
from repro.anfa.model import ANFA


class CompiledSchema:
    """An immutable, hashable compilation of one DTD.

    Construction walks the schema once; afterwards every view that the
    hot paths consult — production-graph edges, reachability, mindef
    padding templates — is a dictionary lookup.  Treat instances as
    frozen: they are shared between every embedding and search using
    the schema.
    """

    __slots__ = ("dtd", "fingerprint", "edges", "_mindef", "_reachable")

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self.fingerprint = dtd.fingerprint()
        # Production graph, fully materialised (also prewarms the
        # DTD's own lazy edge cache for code holding the raw object).
        self.edges: dict[str, tuple[Edge, ...]] = {
            element_type: dtd.edges_from(element_type)
            for element_type in dtd.types}
        self._mindef: Optional[MinDef] = None
        self._reachable: Optional[frozenset[str]] = None

    # -- graph views (lazy, computed once per artifact) -------------------
    @property
    def reachable(self) -> frozenset[str]:
        """The reachability closure from the root."""
        if self._reachable is None:
            self._reachable = frozenset(self.dtd.reachable_types())
        return self._reachable

    @property
    def mindef(self) -> MinDef:
        """The shared mindef templates (lazy: only consistent schemas
        have one, and matching-only sources never need it)."""
        if self._mindef is None:
            self._mindef = MinDef(self.dtd)
        return self._mindef

    # -- identity ---------------------------------------------------------
    def __hash__(self) -> int:
        return int(self.fingerprint[:16], 16)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CompiledSchema)
                and other.fingerprint == self.fingerprint)

    def __repr__(self) -> str:
        return (f"CompiledSchema({self.dtd.name!r}, "
                f"types={len(self.edges)}, fp={self.fingerprint[:12]})")


class CompiledEmbedding:
    """A fully compiled σ: validate once, then serve documents/queries.

    * mapping  — ``instmap`` holds the pre-classified pfrag templates;
    * querying — ``translator`` holds the per-edge ANFA table (primed at
      compile time); the structural ``Trl`` memo lives for one query;
    * inversion — path classifications are shared with the above, so
      the inverse walks without re-deriving anything.

    Validation is *separate* from compilation (:meth:`ensure_valid`):
    callers that historically skipped validation (``validate=False``,
    ``invert``) keep their exact behaviour while validating callers pay
    the check at most once per fingerprint.
    """

    __slots__ = ("embedding", "fingerprint", "source_schema",
                 "target_schema", "translator", "edge_table_size",
                 "_instmap", "_inverse", "_codec", "_validated")

    def __init__(self, embedding: SchemaEmbedding,
                 source_schema: Optional[CompiledSchema] = None,
                 target_schema: Optional[CompiledSchema] = None) -> None:
        self.embedding = embedding
        self.fingerprint = embedding.fingerprint()
        self.source_schema = source_schema or CompiledSchema(embedding.source)
        self.target_schema = target_schema or CompiledSchema(embedding.target)
        # per-edge ANFA translation table.
        self.translator = Translator(embedding)
        self.edge_table_size = self.translator.edge_table_size
        # pfrag templates are built on the first mapping (translation /
        # inversion never need them, and the lazy build keeps error
        # behaviour for broken embeddings identical to the seed's
        # lazy classification).
        self._instmap: Optional[InstMap] = None
        self._inverse = None
        self._codec = None
        self._validated = False

    @property
    def instmap(self) -> InstMap:
        """The precompiled InstMap: every edge path classified once,
        the mindef padding shared with the compiled target schema."""
        if self._instmap is None:
            # Share the compiled target mindef with the embedding's
            # own lazy slot (R2 checks) and the InstMap padding.
            if self.embedding._mindef is None:
                self.embedding._mindef = self.target_schema.mindef
            self._instmap = InstMap(self.embedding, validate=False,
                                    mindef=self.target_schema.mindef)
        return self._instmap

    # -- validation --------------------------------------------------------
    def ensure_valid(self) -> "CompiledEmbedding":
        """Run the Section 4.1 validity check at most once."""
        if not self._validated:
            self.embedding.check()
            self._validated = True
        return self

    def mark_validated(self) -> None:
        """Record an external successful check (the engine validates
        *before* compiling so invalid embeddings raise the aggregated
        ``EmbeddingError`` rather than a construction error)."""
        self._validated = True

    @property
    def validated(self) -> bool:
        return self._validated

    # -- serving -----------------------------------------------------------
    def apply(self, source_root: ElementNode) -> MappingResult:
        """``σd(T1)`` via the precompiled InstMap."""
        return self.instmap.apply(source_root)

    def translate(self, query: PathExpr,
                  context_type: Optional[str] = None) -> ANFA:
        """``Tr(Q)`` via the primed per-edge table."""
        return self.translator.translate(query, context_type)

    def invert(self, target_root: ElementNode,
               strict: bool = True) -> ElementNode:
        """``σd⁻¹`` via the compiled inverse program (per-edge step
        templates with pre-resolved occurrence indexes, iterative walk);
        embeddings the plan compiler rejects use the reference walker
        with its exact lazy error behaviour."""
        if self._inverse is None:
            from repro.engine.plan import InverseProgram, PlanError

            try:
                self._inverse = InverseProgram(self.embedding,
                                               self.instmap._infos)
            except PlanError:
                self._inverse = False  # compile refused: reference path
            except Exception:
                if self._validated:
                    raise  # a validated embedding must compile
                # ``invert`` historically never validates: a broken
                # embedding keeps the reference walker's lazy errors.
                self._inverse = False
        if self._inverse:
            return self._inverse.apply(target_root, strict=strict)
        return run_invert(self.embedding, target_root, strict=strict)

    # -- codec ------------------------------------------------------------
    @property
    def codec(self):
        """The parse→map→serialize codec, or ``None`` when the
        embedding's shape cannot be specialised (the interpreter /
        reference path serves those).  Built at most once per artifact;
        warm starts build it up front for validated embeddings."""
        if self._codec is None:
            from repro.engine.codec import CodecError, build_codec

            try:
                self._codec = build_codec(self.instmap)
            except CodecError:
                self._codec = False  # shape refused: no codec
        return self._codec or None

    def map_text(self, text: str) -> str:
        """Serialized ``σd`` of an XML text, through the codec when one
        exists (byte-identical to ``to_string(self.apply(...).tree)``)."""
        codec = self.codec
        if codec is not None:
            return codec.map_text(text)
        from repro.xtree.parser import parse_xml
        from repro.xtree.serialize import to_string

        return to_string(self.instmap.apply(parse_xml(text)).tree)

    # -- identity -----------------------------------------------------------
    def __hash__(self) -> int:
        return int(self.fingerprint[:16], 16)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CompiledEmbedding)
                and other.fingerprint == self.fingerprint)

    def __repr__(self) -> str:
        return (f"CompiledEmbedding({self.embedding.source.name!r} -> "
                f"{self.embedding.target.name!r}, "
                f"edges={self.edge_table_size}, fp={self.fingerprint[:12]})")
