"""Schema-directed translation ``Tr`` of XR queries (Section 4.4).

``Tr`` maps an XR query over the source schema ``S1`` to an ANFA over
the target such that ``Q(T) = Tr(Q)(σd(T))`` modulo ``idM`` for every
instance ``T`` (Theorem 4.2).  The translation is *schema-directed*:
each subquery is translated relative to every source element type it
may be evaluated at — the local translation ``Trl(Q1, A)`` — and final
states carry ``lab(f, M, A)``, the source type reached, which selects
the continuation context (this is what the naive edge-substitution of
Fig. 7 gets wrong; see :mod:`repro.core.naive`).

Cases (mirroring the paper):

(a) ``ε``        — single final state labelled ``A``;
(b) a label ``B`` — the automaton coding ``path(A, B)`` (a union over
    occurrence edges when ``B`` repeats in ``P1(A)``; the unpinned
    multiplicity carrier when ``P1(A) = B*``), or ``Fail`` if ``B`` is
    not a child of ``A``;
(b') ``text()``  — the automaton coding ``path(A, str)``;
(c) union        — automaton union, labs preserved;
(d) concatenation — finals labelled ``B`` are ε-wired into one embedded
    copy of ``Trl(p2, B)``;
(e) qualifiers   — θ annotations per final lab; when the qualifier
    contains ``position()`` it becomes a *call transition* whose filter
    sees the result-list index (refinement R6);
(f)–(j) qualifier translation into boolean trees over sub-ANFAs;
(k) Kleene star  — the worklist construction over source types with
    ``visited`` flags, ε-wiring same-lab finals back to the per-type
    entry states (at most ``|S1|`` iterations).

The ANFA size is bounded by ``O(|Q| · |σ| · |S1|)`` (Theorem 4.3),
measured in ``benchmarks/bench_query_translation.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.anfa.compose import (
    left_spine,
    translated_concat,
    translated_union,
)
from repro.anfa.model import (
    ANFA,
    CallSpec,
    QualAtomExists,
    QualAtomPos,
    QualAtomText,
    QualExpr,
    QualFalse,
    QualTrue,
    STR_LAB,
    fail_anfa,
    qual_and,
    qual_has_position,
    qual_not,
    qual_or,
)
from repro.core.embedding import SchemaEmbedding
from repro.core.errors import TranslationError
from repro.dtd.model import Concat, Disjunction, Star as StarProd, Str
from repro.xpath.ast import (
    EmptyPath,
    Label,
    PathExpr,
    QAnd,
    QNot,
    QOr,
    QPath,
    QPos,
    QText,
    QTrue,
    Qualified,
    Qualifier,
    Seq,
    Star,
    TextStep,
    Union,
    contains_descendant,
    lower_descendants,
)
from repro.xpath.paths import XRPath


def _prewarm_spine(query: PathExpr) -> None:
    """Populate the per-node structural-hash and ``//`` caches
    bottom-up along the left spine, so the memo probes and the
    ``contains_descendant`` gate each descend one level instead of the
    whole chain — a depth-512 spine would otherwise exhaust the
    recursion limit before composition even starts."""
    spine: list[PathExpr] = []
    node = query
    while isinstance(node, (Seq, Union)):
        spine.append(node)
        node = node.left
    for node in reversed(spine):
        hash(node)
        contains_descendant(node)


class Translator:
    """Compiled translator for one embedding: the per-edge ANFA table.

    ``prime_edges`` precompiles ``Trl(B, A)`` / ``Trl(text(), A)`` for
    every schema-graph edge — the automata every translation bottoms
    out in — and that table is all a Translator keeps between calls.
    Each :meth:`translate` (or direct :meth:`trl`) call runs the
    dynamic program of Theorem 4.3 in a :class:`_Translation` of its
    own: the structural ``(subquery, context)`` and qualifier memos
    start from the edge table and die with the call.  So a long-lived
    Translator (inside a :class:`repro.engine.compiled.CompiledEmbedding`)
    stays at its edge-table size whatever the query mix, and threads
    may share one.  Whole-query reuse is the engine's translation LRU
    one level up.
    """

    def __init__(self, embedding: SchemaEmbedding,
                 prime: bool = True) -> None:
        self.embedding = embedding
        self.source = embedding.source
        self._edges: dict[tuple[PathExpr, str], ANFA] = {}
        if prime:
            self.prime_edges()

    def prime_edges(self) -> int:
        """Precompile ``Trl(B, A)`` / ``Trl(text(), A)`` for every
        schema-graph edge of the source — the per-edge ANFA translation
        table.  Returns the number of table entries.

        Edges whose paths fail to translate are skipped; the same error
        surfaces later iff a query actually touches them (keeping
        behaviour identical to the lazy path for broken embeddings).
        """
        translation = _Translation(self)
        for source_type, production in self.source.elements.items():
            queries: list[PathExpr] = []
            if isinstance(production, Str):
                queries.append(TextStep())
            else:
                # Order-preserving dedup: set() here would hand the
                # trim-certificate plane a hash-order edge sequence.
                queries.extend(Label(child) for child
                               in dict.fromkeys(production.child_types()))
            for query in queries:
                try:
                    self._edges[(query, source_type)] = translation.trl(
                        query, source_type)
                except Exception:
                    continue
        return len(self._edges)

    @property
    def edge_table_size(self) -> int:
        """Entries in the per-edge table — everything kept between
        calls."""
        return len(self._edges)

    # -- public -------------------------------------------------------------
    def translate(self, query: PathExpr,
                  context_type: Optional[str] = None) -> ANFA:
        """``Tr(Q) = Trl(Q, r1)`` (or at an explicit context type),
        trimmed.  Per-edge automata are shared with the table: treat
        the result as immutable (``ANFA.copy`` for a private copy), the
        same contract as the engine's translation LRU.
        """
        context = context_type or self.source.root
        if context not in self.source.elements:
            raise TranslationError(f"unknown source type {context!r}")
        _prewarm_spine(query)
        if contains_descendant(query):
            query = lower_descendants(query, self.source.types)
        return _Translation(self).trl(query, context).trim()

    def trl(self, query: PathExpr, context: str) -> ANFA:
        """The local translation ``Trl(Q, A)``, untrimmed, in a memo of
        its own."""
        return _Translation(self).trl(query, context)


class _Translation:
    """One ``Trl`` call: the dynamic program of Theorem 4.3.

    ``trl``/``trl_qual`` memoise on ``(subquery, context)`` and
    ``(qualifier, lab)`` — the XR AST nodes are immutable with
    structural equality — for the life of this object only.
    """

    __slots__ = ("embedding", "source", "_memo", "_qual_memo")

    def __init__(self, translator: Translator) -> None:
        self.embedding = translator.embedding
        self.source = translator.source
        self._memo: dict[tuple[PathExpr, str], ANFA] = dict(
            translator._edges)
        self._qual_memo: dict[tuple[Qualifier, Optional[str]],
                              QualExpr] = {}

    # -- Trl ------------------------------------------------------------------
    def trl(self, query: PathExpr, context: str) -> ANFA:
        key = (query, context)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        built = self._trl(query, context)
        self._memo[key] = built
        return built

    def _trl(self, query: PathExpr, context: str) -> ANFA:
        handler = _TRL_DISPATCH.get(type(query))
        if handler is None:
            raise TranslationError(f"cannot translate {query!r}")
        return handler(self, query, context)

    def _trl_empty(self, query: EmptyPath, context: str) -> ANFA:
        anfa = ANFA()
        anfa.set_final(anfa.start, context)
        anfa._is_trim = True
        return anfa

    # -- case (b): labels ------------------------------------------------------
    def _path_anfa(self, path: XRPath, lab: Optional[str]) -> ANFA:
        """A linear automaton coding one XR path (with local positions)."""
        anfa = ANFA()
        state = anfa.start
        for step in path.steps:
            nxt = anfa.new_state()
            anfa.add_label(state, step.label, nxt, step.pos)
            state = nxt
        if path.text:
            nxt = anfa.new_state()
            anfa.add_str(state, nxt)
            state = nxt
            lab = STR_LAB
        anfa.set_final(state, lab)
        anfa._is_trim = True  # a chain ending in its only final
        return anfa

    def _trl_label(self, label: str, context: str) -> ANFA:
        production = self.source.production(context)
        segments: list[XRPath] = []
        if isinstance(production, Concat):
            count = production.occurrence_count(label)
            segments = [self.embedding.path_for(context, label, occ)
                        for occ in range(1, count + 1)]
        elif isinstance(production, Disjunction):
            if label in production.children:
                segments = [self.embedding.path_for(context, label)]
        elif isinstance(production, StarProd):
            if label == production.child:
                segments = [self.embedding.path_for(context, label)]
        if not segments:
            return fail_anfa()
        if len(segments) == 1:
            return self._path_anfa(segments[0], label)
        anfa = ANFA()
        for segment in segments:
            piece = self._path_anfa(segment, label)
            mapping = anfa.embed(piece)
            anfa.add_eps(anfa.start, mapping.base + piece.start)
        anfa._is_trim = True  # a union of trim chains, all finals kept
        return anfa

    def _trl_text(self, context: str) -> ANFA:
        production = self.source.production(context)
        if not isinstance(production, Str):
            return fail_anfa()
        return self._path_anfa(self.embedding.str_path(context), STR_LAB)

    # -- cases (c)/(d) -----------------------------------------------------------
    # Both are left-associative, so a chain query would otherwise
    # rebuild (re-embed) its whole accumulated prefix at every level —
    # quadratic state copying.  The whole left spine is collected
    # iteratively and composed append-only instead; state numbering is
    # byte-identical to the old per-level build (see anfa.compose).
    def _trl_union(self, query: Union, context: str) -> ANFA:
        return translated_union(
            [self.trl(part, context)
             for part in left_spine(query, Union)])

    def _trl_seq(self, query: Seq, context: str) -> ANFA:
        parts = left_spine(query, Seq)
        return translated_concat(self.trl(parts[0], context), parts[1:],
                                 self.trl)

    # -- case (e): qualifiers -------------------------------------------------------
    def _trl_qualified(self, query: Qualified, context: str) -> ANFA:
        inner = self.trl(query.inner, context)
        if inner.is_fail():
            return fail_anfa()
        labs = sorted(inner.final_labs(), key=lambda lab: lab or "")
        quals = {lab: self.trl_qual(query.qual, lab) for lab in labs}

        if not any(qual_has_position(q) for q in quals.values()):
            # θ-annotation route (the paper's case (e)).  The qualifier
            # goes on a *fresh* accept-only state reached by ε from the
            # old final: θ kills runs entering its state, and a final
            # state of a Kleene-star automaton also has pass-through
            # transitions that the qualifier must not affect.
            anfa = ANFA()
            mapping = anfa.embed(inner)
            base = mapping.base
            anfa.add_eps(anfa.start, base + inner.start)
            for state, lab in inner.finals.items():
                anfa.clear_final(base + state)
                accept = anfa.new_state()
                anfa.add_eps(base + state, accept)
                anfa.set_final(accept, lab)
                anfa.annotate(accept, quals[lab])
            # Every old final gained an ε to a fresh accept state, so
            # liveness is inherited (θ does not affect trimming).
            anfa._is_trim = inner._is_trim
            return anfa

        # Positional qualifier: call transition with list-index filter.
        anfa = ANFA()
        dst_by_lab = []
        for lab in labs:
            dst = anfa.new_state()
            anfa.set_final(dst, lab)
            dst_by_lab.append((lab, dst))
        anfa.add_call(anfa.start, CallSpec(
            sub=inner,
            quals=tuple((lab, quals[lab]) for lab in labs),
            dst_by_lab=tuple(dst_by_lab)))
        anfa._is_trim = True  # start -> call -> per-lab finals
        return anfa

    # -- cases (f)-(j): qualifier translation ------------------------------------------
    def trl_qual(self, qual: Qualifier, lab: Optional[str]) -> QualExpr:
        key = (qual, lab)
        cached = self._qual_memo.get(key)
        if cached is not None:
            return cached
        built = self._trl_qual(qual, lab)
        self._qual_memo[key] = built
        return built

    def _trl_qual(self, qual: Qualifier, lab: Optional[str]) -> QualExpr:
        if isinstance(qual, QTrue):
            return QualTrue()
        if isinstance(qual, QPos):
            return QualAtomPos(qual.k)
        if lab is None or lab == STR_LAB:
            # Path qualifiers never hold on string values.
            if isinstance(qual, (QPath, QText)):
                return QualFalse()
        if isinstance(qual, QPath):
            sub = self.trl(qual.path, lab)  # type: ignore[arg-type]
            if sub.is_fail():
                return QualFalse()
            return QualAtomExists(sub.trim())
        if isinstance(qual, QText):
            sub = self.trl(qual.path, lab)  # type: ignore[arg-type]
            if sub.is_fail():
                return QualFalse()
            return QualAtomText(sub.trim(), qual.value)
        if isinstance(qual, QNot):
            return qual_not(self.trl_qual(qual.inner, lab))
        if isinstance(qual, QAnd):
            return qual_and(self.trl_qual(qual.left, lab),
                            self.trl_qual(qual.right, lab))
        if isinstance(qual, QOr):
            return qual_or(self.trl_qual(qual.left, lab),
                           self.trl_qual(qual.right, lab))
        raise TranslationError(f"cannot translate qualifier {qual!r}")

    # -- case (k): Kleene star ------------------------------------------------------
    def _trl_star(self, query: Star, context: str) -> ANFA:
        anfa = ANFA()
        anfa.set_final(anfa.start, context)  # p^0

        entries: dict[str, Optional[int]] = {}
        copies: list[tuple[int, ANFA]] = []
        pending = [context]
        bodies_trim = True
        while pending:
            source_type = pending.pop()
            if source_type in entries:
                continue
            body = self.trl(query.inner, source_type)
            if body.is_fail():
                entries[source_type] = None
                continue
            mapping = anfa.embed(body)
            entries[source_type] = mapping.base + body.start
            copies.append((mapping.base, body))
            if not body._is_trim:
                bodies_trim = False
            for lab in body.final_labs():
                if lab is not None and lab != STR_LAB and lab not in entries:
                    pending.append(lab)

        start_entry = entries.get(context)
        if start_entry is not None:
            anfa.add_eps(anfa.start, start_entry)
        for base, body in copies:
            for state, lab in body.finals.items():
                if lab is None or lab == STR_LAB:
                    continue
                entry = entries.get(lab)
                if entry is not None:
                    anfa.add_eps(base + state, entry)
        # Every embedded body keeps its finals (each p^k prefix is a
        # result) and is entered from a reachable final of its
        # discovering body, so trimness is inherited from the bodies.
        anfa._is_trim = bodies_trim
        return anfa


#: Type-keyed dispatch for ``Trl`` (one dict probe instead of an
#: isinstance chain on the hottest recursion).
_TRL_DISPATCH = {
    EmptyPath: _Translation._trl_empty,
    Label: lambda self, query, context: self._trl_label(query.name, context),
    TextStep: lambda self, query, context: self._trl_text(context),
    Union: _Translation._trl_union,
    Seq: _Translation._trl_seq,
    Qualified: _Translation._trl_qualified,
    Star: _Translation._trl_star,
}


def translate_query(embedding: SchemaEmbedding, query: PathExpr,
                    context_type: Optional[str] = None) -> ANFA:
    """``Tr(Q)`` over ``embedding`` (Theorem 4.2), served by the
    default compilation engine.

    Repeated translations against one embedding reuse its compiled
    per-edge ANFA table and an LRU of whole-query results.  The result
    is an ANFA over target documents; evaluate it with
    :func:`repro.anfa.evaluate.evaluate_anfa` and map ids back through
    ``idM`` to recover ``Q(T)``.
    """
    # Convenience wrapper delegating to the default engine; the
    # engine package imports this module.
    # lint: allow-lazy-import
    from repro.engine.session import default_engine

    return default_engine().translate_query(embedding, query, context_type)
