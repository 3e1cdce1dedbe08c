"""Compiled document-plane mapping programs — the InstMap fast path.

:class:`~repro.core.instmap.InstMap` (paper §4.2) is linear in
``|T1| + |T2|``, but the reference implementation pays a large constant
per hot node: a ``_FragmentBuilder`` allocation, a ``slots`` dict per
created node, a ``target.production(tag)`` + ``_slot_key`` derivation
per path step, a recursive completion pass with ``mindef`` deep copies,
and a final sort of every child list.  None of that depends on the
document: for a fixed (validated) embedding the *shape* of every
production fragment is static — only the hot endpoints, star
multiplicities, OR choices and text values vary per node.

This module hoists all of it to compile time.  Each source type is
compiled into a :class:`TypeProgram`: a flat instruction sequence
(tuples interpreted by one loop, no recursion, no dict bookkeeping)
with

* pre-resolved slot keys — ``Concat.index_of_occurrence`` per
  :data:`~repro.core.embedding.EdgeKey` is folded into the instruction
  order at compile time;
* pre-walked path-step templates — the prefix-shared trie of the
  fragment's XR paths, already completed and sorted into production
  order;
* prebuilt mindef padding plans — default instances are flattened into
  the same instruction stream (no ``copy_tree`` recursion at runtime).

:class:`MappingProgram.apply` is then an iterative interpreter: a BFS
over hot (image, source-node) pairs, each fragment emitted by running
its type's instruction sequence.  :class:`InverseProgram` does the same
for ``σd⁻¹``: per-edge step templates with precomputed occurrence
indexes, executed with an explicit stack (deep documents never recurse).

The invariant (enforced by ``tests/test_fastpath_equivalence.py`` and
``benchmarks/bench_fastpath.py``): a compiled program produces output
**byte-identical** to the reference path — same serialized tree, same
``idM`` correspondence, same error class on malformed documents.
Fragments whose shape the compiler cannot prove static (a malformed
document, or an invalid embedding compiled with ``validate=False``)
fall back to the reference ``_FragmentBuilder`` per fragment, so
behaviour is preserved bit-for-bit even off the happy path.
"""

from __future__ import annotations

import gc
import threading
from collections import deque
from typing import Optional

from repro.core.embedding import STR_KEY, SchemaEmbedding
from repro.core.errors import EmbeddingError, InverseError
from repro.dtd.mindef import DEFAULT_STRING, MinDef
from repro.dtd.model import (
    Concat,
    Disjunction,
    Empty,
    Star,
    Str,
)
from repro.xpath.paths import PathInfo
from repro.xtree.nodes import ElementNode, TextNode
from repro.xtree.nodes import _id_counter as _ids

# -- instruction opcodes ------------------------------------------------------
#: create an element, append to the current parent, push as parent
OP_OPEN = 0
#: pop the current parent
OP_CLOSE = 1
#: append a childless element (a leaf pad)
OP_LEAF = 2
#: append a static text node (mindef ``#s`` padding)
OP_TEXT = 3
#: append a hot endpoint element bound to the slot-th source child
OP_HOT = 4
#: append the source node's PCDATA (``str`` programs only)
OP_TEXT_COPY = 5

#: OP_HOT slot value meaning "the current star-loop child".
LOOP_SLOT = -1

#: Cache-miss sentinel for the sparse-concat cache (``None`` is a valid
#: cached value: "this shape needs the reference builder").
_UNCOMPILED = object()

#: Distinct (type, child-tag signature) shapes memoised per program
#: before a wholesale flush — partial-document shapes are usually few
#: (a handful of optional fields), so this is a runaway-input backstop,
#: not a working-set tune.
SPARSE_CACHE_LIMIT = 4096


# Deliberately NOT a ValueError: this is the compiler's internal
# control-flow signal, caught by InstMap's constructor.  If it ever
# escaped, the CLI boundary swallowing it into a clean exit-2 would
# hide a compiler bug — a loud traceback is the contract here.
# lint: allow-error-type
class PlanError(Exception):
    """Compilation cannot prove the fragment shape static (invalid
    embedding compiled with ``validate=False``); the caller falls back
    to the reference builder wholesale."""


# -- process-global GC pause (reentrant, thread-safe) ------------------------
# The threaded serve daemon maps documents concurrently: a naive
# isenabled()/disable() pair races between threads.  A depth counter
# under a lock keeps collection off while *any* mapping burst is in
# flight and restores the user's setting when the last one finishes.
_gc_lock = threading.Lock()
_gc_pause_depth = 0
_gc_was_enabled = False


def _pause_gc() -> None:
    global _gc_pause_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_pause_depth == 0:
            _gc_was_enabled = gc.isenabled()
            if _gc_was_enabled:
                gc.disable()
        _gc_pause_depth += 1


def _resume_gc() -> None:
    global _gc_pause_depth
    with _gc_lock:
        _gc_pause_depth -= 1
        if _gc_pause_depth == 0 and _gc_was_enabled:
            gc.enable()


# -- compiled per-type programs ----------------------------------------------

class TypeProgram:
    """The compiled production fragment ``pfrag_A`` of one source type."""

    __slots__ = ("kind", "image", "expected", "ops", "alts", "empty_ops",
                 "head_ops", "body_ops", "tail_ops", "head_depth")

    def __init__(self, kind: str, image: str) -> None:
        self.kind = kind
        self.image = image
        self.expected: tuple[str, ...] = ()
        self.ops: tuple = ()
        self.alts: dict[str, tuple] = {}
        self.empty_ops: tuple = ()
        self.head_ops: tuple = ()
        self.body_ops: tuple = ()
        self.tail_ops: tuple = ()
        self.head_depth = 0


class _TrieNode:
    """One prebuilt target position in a fragment's path trie."""

    __slots__ = ("tag", "target_type", "slots", "payload")

    def __init__(self, tag: str, target_type: str) -> None:
        self.tag = tag
        self.target_type = target_type
        #: slot key -> child _TrieNode (the paper's ``pos()`` bookkeeping,
        #: resolved at compile time)
        self.slots: dict = {}
        #: None (interior) | ("hot", slot) | ("text",)
        self.payload: Optional[tuple] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_TrieNode(<{self.tag}>, {sorted(self.slots)})"


class MappingProgram:
    """All type programs for one embedding, plus the BFS interpreter."""

    def __init__(self, embedding: SchemaEmbedding, mindef: MinDef,
                 infos: dict, instmap) -> None:
        self.embedding = embedding
        self.source = embedding.source
        self.target = embedding.target
        self.mindef = mindef
        self._infos = infos
        #: the owning InstMap — only used for the per-fragment reference
        #: fallback on documents whose shape the program cannot serve.
        self._instmap = instmap
        self.root_image = embedding.lam[self.source.root]
        self._pad_cache: dict[str, tuple] = {}
        #: (source_type, child-tag signature) -> sparse-concat ops, or
        #: None when that shape must use the reference fallback
        #: (an undeclared edge, where the reference's exact error
        #: behaviour is the contract).  Bounded like the translation
        #: memos: flushed wholesale past the cap.
        self._sparse_cache: dict[tuple[str, tuple[str, ...]],
                                 Optional[tuple]] = {}
        #: fragments served by a sparse-concat (or precompiled empty)
        #: program vs. fragments sent to the reference builder.
        self.sparse_served = 0
        self.reference_fallbacks = 0
        self.programs: dict[str, TypeProgram] = {}
        for source_type in self.source.elements:
            self.programs[source_type] = self._compile_type(source_type)

    # -- compilation -------------------------------------------------------
    def _info(self, key) -> PathInfo:
        info = self._infos.get(key)
        if info is None:
            raise PlanError(f"edge {key} unclassified")
        return info

    def _pad_ops(self, target_type: str) -> tuple:
        """``mindef(target_type)`` flattened into instructions."""
        cached = self._pad_cache.get(target_type)
        if cached is not None:
            return cached
        ops: list[tuple] = []
        # Iterative flatten of the shared mindef template.
        stack: list = [("open", self.mindef.template(target_type))]
        while stack:
            action, node = stack.pop()
            if action == "close":
                ops.append((OP_CLOSE,))
                continue
            if isinstance(node, TextNode):
                ops.append((OP_TEXT, node.value))
                continue
            if not node.children:
                ops.append((OP_LEAF, node.tag))
                continue
            ops.append((OP_OPEN, node.tag))
            stack.append(("close", node))
            for child in reversed(node.children):
                stack.append(("open", child))
        result = tuple(ops)
        self._pad_cache[target_type] = result
        return result

    def _slot_key(self, target_type: str, step, edge):
        """The compile-time twin of ``_FragmentBuilder._slot_key``."""
        kind = edge.kind.value
        if kind == "and":
            production = self.target.production(target_type)
            occ = step.pos if step.pos is not None else 1
            return ("c", production.index_of_occurrence(step.label, occ))
        if kind == "or":
            return ("o",)
        if step.pos is None:
            raise PlanError(f"unpinned star step {step} in a trie path")
        return ("s", step.pos)

    def _insert_path(self, root: _TrieNode, info: PathInfo,
                     payload: tuple) -> None:
        """Add one pre-classified path to the fragment trie, sharing the
        longest existing prefix (the reference ``_walk``)."""
        node = root
        for step, edge in zip(info.path.steps, info.edges):
            if node.payload is not None:
                raise PlanError("path passes through a sibling endpoint")
            key = self._slot_key(node.target_type, step, edge)
            existing = node.slots.get(key)
            if existing is not None:
                if existing.tag != step.label:
                    raise PlanError(
                        f"conflicting OR choices: {existing.tag} vs "
                        f"{step.label}")
                node = existing
                continue
            child = _TrieNode(step.label, step.label)
            node.slots[key] = child
            node = child
        if node.slots or node.payload is not None:
            raise PlanError("endpoint interior to a sibling path")
        node.payload = payload

    # Mutual recursion with _emit_child is bounded by the embedding's
    # longest path (a schema artifact, tens of steps), never by
    # document depth — compilation walks the trie, not the instance.
    # lint: allow-recursion
    def _emit_completed(self, node: _TrieNode, ops: list) -> None:
        """Emit ``node``'s completed, production-ordered children — the
        compile-time twin of ``_FragmentBuilder._complete``."""
        production = self.target.production(node.target_type)
        if isinstance(production, Str):
            # Only reachable for a fragment root with no paths (an
            # Empty source mapped onto a str target): pad the value.
            ops.append((OP_TEXT, DEFAULT_STRING))
            return
        if isinstance(production, Empty):
            return
        if isinstance(production, Concat):
            for index, child_type in enumerate(production.children):
                child = node.slots.get(("c", index))
                if child is None:
                    ops.extend(self._pad_ops(child_type))
                else:
                    self._emit_child(child, ops)
        elif isinstance(production, Disjunction):
            child = node.slots.get(("o",))
            if child is not None:
                self._emit_child(child, ops)
            else:
                choice = self.mindef.default_choice[node.target_type]
                if choice is not None:
                    ops.extend(self._pad_ops(choice))
        elif isinstance(production, Star):
            if node.slots:
                top = max(key[1] for key in node.slots)
                for position in range(1, top + 1):
                    child = node.slots.get(("s", position))
                    if child is None:
                        ops.extend(self._pad_ops(production.child))
                    else:
                        self._emit_child(child, ops)

    def _emit_child(self, node: _TrieNode, ops: list) -> None:
        payload = node.payload
        if payload is not None:
            if payload[0] == "hot":
                ops.append((OP_HOT, node.tag, payload[1]))
                return
            # text holder: the Str path endpoint receives the PCDATA.
            ops.append((OP_OPEN, node.tag))
            ops.append((OP_TEXT_COPY,))
            ops.append((OP_CLOSE,))
            return
        mark = len(ops)
        ops.append((OP_OPEN, node.tag))
        self._emit_completed(node, ops)
        if len(ops) == mark + 1:
            ops[mark] = (OP_LEAF, node.tag)
        else:
            ops.append((OP_CLOSE,))

    def _trie_ops(self, image: str,
                  paths: list[tuple[PathInfo, tuple]]) -> tuple:
        root = _TrieNode(image, image)
        for info, payload in paths:
            self._insert_path(root, info, payload)
        if root.payload is not None:
            # An empty-step path: the image itself is the endpoint.  Only
            # ``path(A, str) = text()`` is valid here (Example 4.2); an
            # empty element path is an invalid embedding — fall back.
            if root.payload != ("text",):
                raise PlanError("empty element path (image is an endpoint)")
            return ((OP_TEXT_COPY,),)
        ops: list[tuple] = []
        self._emit_completed(root, ops)
        return tuple(ops)

    def _compile_type(self, source_type: str) -> TypeProgram:
        image = self.embedding.lam.get(source_type)
        if image is None:
            raise PlanError(f"λ undefined on {source_type}")
        production = self.source.production(source_type)

        if isinstance(production, Str):
            program = TypeProgram("str", image)
            info = self._info((source_type, STR_KEY, 1))
            program.ops = self._trie_ops(image, [(info, ("text",))])
            return program

        if isinstance(production, Empty):
            program = TypeProgram("empty", image)
            program.ops = self._trie_ops(image, [])
            return program

        if isinstance(production, Concat):
            program = TypeProgram("concat", image)
            program.expected = production.children
            paths: list[tuple[PathInfo, tuple]] = []
            seen: dict[str, int] = {}
            for slot, child in enumerate(production.children):
                seen[child] = seen.get(child, 0) + 1
                info = self._info((source_type, child, seen[child]))
                paths.append((info, ("hot", slot)))
            program.ops = self._trie_ops(image, paths)
            return program

        if isinstance(production, Disjunction):
            program = TypeProgram("disj", image)
            for child in production.children:
                info = self._info((source_type, child, 1))
                program.alts[child] = self._trie_ops(
                    image, [(info, ("hot", 0))])
            program.empty_ops = self._trie_ops(image, [])
            return program

        assert isinstance(production, Star)
        program = TypeProgram("star", image)
        # Zero instances: pure mindef completion of the image, the same
        # slots the reference pads — precompiled so empty stars never
        # leave the compiled plane.
        program.empty_ops = self._trie_ops(image, [])
        info = self._info((source_type, production.child, 1))
        if not info.is_star_path():
            raise PlanError(f"{info.path} is not a STAR path")
        carrier = info.carrier_index
        # Head: walk (and complete around) the prefix, leaving the
        # carrier parent open; body: one instance (the suffix trie with
        # the hot endpoint); tail: close back up to the fragment root.
        head: list[tuple] = []
        depth = 0
        node_type = image
        for step in info.path.steps[:carrier]:
            production2 = self.target.production(node_type)
            if not isinstance(production2, Concat):
                raise PlanError("STAR path prefix crosses a non-AND edge")
            occ = step.pos if step.pos is not None else 1
            index = production2.index_of_occurrence(step.label, occ)
            for position, child_type in enumerate(production2.children):
                if position == index:
                    break
                head.extend(self._pad_ops(child_type))
            head.append((OP_OPEN, step.label))
            depth += 1
            node_type = step.label
        if not isinstance(self.target.production(node_type), Star):
            raise PlanError("STAR carrier parent is not a star type")
        # Tail: pads after each opened step, innermost first.
        tail: list[tuple] = []
        node_type = image
        opened: list[tuple[str, int]] = []  # (type, index of opened child)
        for step in info.path.steps[:carrier]:
            production2 = self.target.production(node_type)
            occ = step.pos if step.pos is not None else 1
            opened.append((node_type,
                           production2.index_of_occurrence(step.label, occ)))
            node_type = step.label
        for parent_type, index in reversed(opened):
            # Close the open step node first, then pad the positions
            # after it into the (now current) parent.
            production2 = self.target.production(parent_type)
            tail.append((OP_CLOSE,))
            for position in range(index + 1, len(production2.children)):
                tail.extend(self._pad_ops(production2.children[position]))
        # Body: one star instance — the suffix below the carrier step.
        carrier_step = info.path.steps[carrier]
        suffix_info = _SuffixView(info, carrier)
        body: list[tuple] = []
        if carrier + 1 == len(info.path.steps) and not info.path.text:
            body.append((OP_HOT, carrier_step.label, LOOP_SLOT))
        else:
            instance = _TrieNode(carrier_step.label, carrier_step.label)
            node = instance
            for step, edge in zip(suffix_info.steps, suffix_info.edges):
                key = self._slot_key(node.target_type, step, edge)
                child = _TrieNode(step.label, step.label)
                node.slots[key] = child
                node = child
            node.payload = (("text",) if info.path.text
                            else ("hot", LOOP_SLOT))
            self._emit_child(instance, body)
        program.head_ops = tuple(head)
        program.body_ops = tuple(body)
        program.tail_ops = tuple(tail)
        program.head_depth = carrier
        return program

    # -- sparse-concat variants --------------------------------------------
    def _sparse_ops(self, source_type: str,
                    signature: tuple[str, ...]) -> Optional[tuple]:
        """Compiled ops for a *partial* concat document: the fragment a
        concat node with exactly ``signature`` element children (in
        document order) produces.  Occurrences are counted per tag in
        document order — the reference builder's walk — so missing,
        repeated-but-declared and out-of-order children all compile;
        a child edge the embedding does not declare yields ``None``
        (cached), and the caller replays the reference builder for its
        exact ``EmbeddingError`` bytes.
        """
        key = (source_type, signature)
        cached = self._sparse_cache.get(key, _UNCOMPILED)
        if cached is not _UNCOMPILED:
            return cached
        paths: list[tuple[PathInfo, tuple]] = []
        seen: dict[str, int] = {}
        try:
            for slot, tag in enumerate(signature):
                seen[tag] = seen.get(tag, 0) + 1
                paths.append((self._info((source_type, tag, seen[tag])),
                              ("hot", slot)))
            ops = self._trie_ops(self.programs[source_type].image, paths)
        except PlanError:
            ops = None
        if len(self._sparse_cache) >= SPARSE_CACHE_LIMIT:
            self._sparse_cache.clear()
        self._sparse_cache[key] = ops
        return ops

    def _serve_sparse(self, program: TypeProgram, image: ElementNode,
                      source_node: ElementNode, kids, id_map: dict,
                      push, nxt) -> None:
        """One concat fragment whose shape mismatches the static
        program: run the per-signature sparse variant at compiled
        speed, or fall back to the reference builder when the shape
        cannot compile."""
        ops = self._sparse_ops(source_node.tag,
                               tuple(kid.tag for kid in kids))
        if ops is not None:
            self.sparse_served += 1
            self._run(ops, image, kids, None, None, id_map, push, nxt)
        else:
            self.reference_fallbacks += 1
            self._fallback(image, source_node, id_map, push)

    def sparse_fragment(self, image: ElementNode,
                        source_node: ElementNode, id_map: dict,
                        ) -> Optional[list]:
        """One fragment's hot pairs through the compiled (sparse)
        plane, or ``None`` when only the reference builder can serve
        the shape — the single-fragment twin of :meth:`_serve_sparse`
        used by the codecs' fallback splice."""
        program = self.programs.get(source_node.tag)
        if program is None or program.image != image.tag:
            return None
        pairs: list = []
        if program.kind == "concat":
            kids = [c for c in source_node.children
                    if isinstance(c, ElementNode)]
            ops = self._sparse_ops(source_node.tag,
                                   tuple(kid.tag for kid in kids))
            if ops is None:
                return None
            self.sparse_served += 1
            self._run(ops, image, kids, None, None, id_map,
                      pairs.append, _ids.__next__)
            return pairs
        if program.kind == "star":
            kids = [c for c in source_node.children
                    if isinstance(c, ElementNode)]
            if not kids:
                self.sparse_served += 1
                self._run(program.empty_ops, image, (), None, None,
                          id_map, pairs.append, _ids.__next__)
                return pairs
        return None

    # -- interpretation ----------------------------------------------------
    def apply(self, source_root: ElementNode):
        """``σd(T1)`` — byte-identical to the reference InstMap."""
        from repro.core.instmap import MappingResult

        if source_root.tag != self.source.root:
            raise EmbeddingError(
                f"instance root <{source_root.tag}> is not the source root "
                f"<{self.source.root}>")
        nxt = _ids.__next__
        target_root = ElementNode(self.root_image)
        id_map: dict[int, int] = {target_root.node_id: source_root.node_id}
        hot: deque = deque()
        hot.append((target_root, source_root))
        programs = self.programs
        pop = hot.popleft
        push = hot.append
        # The output tree is a large cyclic structure (parent pointers)
        # that is 100% live while being built: generational collections
        # triggered by the allocation burst re-trace it superlinearly
        # for zero reclaim.  Pause collection for the build (restored
        # even on malformed-document errors).
        _pause_gc()
        try:
            self._map_loop(hot, pop, push, programs, id_map, nxt)
        finally:
            _resume_gc()
        return MappingResult(target_root, id_map)

    def _map_loop(self, hot, pop, push, programs, id_map, nxt) -> None:
        while hot:
            image, source_node = pop()
            program = programs.get(source_node.tag)
            if program is None:
                raise EmbeddingError(
                    f"instance element <{source_node.tag}> is not a source "
                    "type of the embedding (document does not conform to "
                    "the source schema)")
            if program.image != image.tag:
                raise EmbeddingError(
                    f"image of <{source_node.tag}> has tag <{image.tag}>, "
                    f"expected λ({source_node.tag}) = {program.image}")
            kind = program.kind
            if kind == "concat":
                kids = [c for c in source_node.children
                        if isinstance(c, ElementNode)]
                if len(kids) == len(program.expected):
                    for kid, expected_tag in zip(kids, program.expected):
                        if kid.tag != expected_tag:
                            self._serve_sparse(program, image, source_node,
                                               kids, id_map, push, nxt)
                            break
                    else:
                        self._run(program.ops, image, kids, None, None,
                                  id_map, push, nxt)
                    continue
                self._serve_sparse(program, image, source_node, kids,
                                   id_map, push, nxt)
            elif kind == "star":
                kids = [c for c in source_node.children
                        if isinstance(c, ElementNode)]
                if kids:
                    self._run_star(program, image, kids, id_map, push, nxt)
                else:
                    # No instances: pure mindef completion of the image,
                    # byte-equal to the reference's padding of the same
                    # slots — precompiled, so empty stars stay compiled.
                    self.sparse_served += 1
                    self._run(program.empty_ops, image, (), None, None,
                              id_map, push, nxt)
            elif kind == "str":
                children = source_node.children
                if not children:
                    self._run(program.ops, image, (), "", None,
                              id_map, push, nxt)
                elif (len(children) == 1
                        and isinstance(children[0], TextNode)):
                    text = children[0]
                    self._run(program.ops, image, (), text.value,
                              text.node_id, id_map, push, nxt)
                else:
                    raise EmbeddingError(
                        f"<{source_node.tag}> has P({source_node.tag}) = str "
                        "but does not contain a single text value")
            elif kind == "disj":
                kids = [c for c in source_node.children
                        if isinstance(c, ElementNode)]
                if kids:
                    chosen = kids[0]
                    ops = program.alts.get(chosen.tag)
                    if ops is None:
                        raise EmbeddingError(
                            f"instance edge ({source_node.tag}, "
                            f"{chosen.tag}, occ 1) is not covered by the "
                            "embedding (document does not conform to the "
                            "source schema)")
                    self._run(ops, image, (chosen,), None, None,
                              id_map, push, nxt)
                else:
                    self._run(program.empty_ops, image, (), None, None,
                              id_map, push, nxt)
            else:  # empty: children (if any) are ignored, as in the paper
                self._run(program.ops, image, (), None, None,
                          id_map, push, nxt)

    def _fallback(self, image: ElementNode, source_node: ElementNode,
                  id_map: dict, push) -> None:
        """Serve one fragment through the reference builder (documents
        whose shape the static program does not cover)."""
        for pair in self._instmap.build_fragment(image, source_node, id_map):
            push(pair)

    def _run(self, ops, root: ElementNode, bind, text_value, text_src,
             id_map: dict, push, nxt, stack: Optional[list] = None) -> None:
        """Interpret one flat instruction sequence below ``root``.

        ``stack`` optionally seeds the open-element stack (the star
        tail replays CLOSE ops against the nodes its head opened).
        """
        parent = root
        children = root.children
        if stack is None:
            stack = []
        for op in ops:
            code = op[0]
            if code == OP_OPEN:
                node = ElementNode.__new__(ElementNode)
                node.node_id = nxt()
                node.parent = parent
                node.tag = op[1]
                node.children = []
                children.append(node)
                stack.append((parent, children))
                parent = node
                children = node.children
            elif code == OP_CLOSE:
                parent, children = stack.pop()
            elif code == OP_LEAF:
                node = ElementNode.__new__(ElementNode)
                node.node_id = nxt()
                node.parent = parent
                node.tag = op[1]
                node.children = []
                children.append(node)
            elif code == OP_HOT:
                node = ElementNode.__new__(ElementNode)
                node.node_id = nxt()
                node.parent = parent
                node.tag = op[1]
                node.children = []
                children.append(node)
                source_child = bind[op[2]]
                id_map[node.node_id] = source_child.node_id
                push((node, source_child))
            elif code == OP_TEXT:
                text = TextNode.__new__(TextNode)
                text.node_id = nxt()
                text.parent = parent
                text.value = op[1]
                children.append(text)
            else:  # OP_TEXT_COPY
                text = TextNode.__new__(TextNode)
                text.node_id = nxt()
                text.parent = parent
                text.value = text_value
                children.append(text)
                if text_src is not None:
                    id_map[text.node_id] = text_src

    def _run_star(self, program: TypeProgram, root: ElementNode, kids,
                  id_map: dict, push, nxt) -> None:
        self._run(program.head_ops, root, (), None, None, id_map, push, nxt)
        # The carrier parent is the innermost node the head left open
        # (always the last child appended at each level).
        depth = program.head_depth
        parent = root
        for _ in range(depth):
            parent = parent.children[-1]
        body = program.body_ops
        for kid in kids:
            self._run(body, parent, (kid,), None, None, id_map, push, nxt)
        # Tail pads/closes replay against the open stack the head
        # created: rebuild the ancestor chain and hand it to _run.
        chain = [root]
        node = root
        for _ in range(depth):
            node = node.children[-1]
            chain.append(node)
        stack = [(ancestor, ancestor.children) for ancestor in chain[:-1]]
        self._run(program.tail_ops, chain[-1], (), None, None,
                  id_map, push, nxt, stack=stack)


class _SuffixView:
    """The (steps, edges) of a STAR path below its carrier step."""

    __slots__ = ("steps", "edges")

    def __init__(self, info: PathInfo, carrier: int) -> None:
        self.steps = info.path.steps[carrier + 1:]
        self.edges = info.edges[carrier + 1:]


# -- compiled inverse ---------------------------------------------------------

class _InverseEdge:
    """One pre-resolved ``path(A, B)`` for the inverse walk."""

    __slots__ = ("child_type", "steps", "carrier_label", "prefix", "suffix",
                 "path_str", "prefix_str")

    def __init__(self, child_type: str, info: PathInfo) -> None:
        self.child_type = child_type
        #: (label, zero-based same-tag index) per step
        self.steps = tuple(
            (step.label, (step.pos or 1) - 1) for step in info.path.steps)
        self.path_str = str(info.path)
        self.carrier_label = None
        self.prefix = ()
        self.suffix = ()
        self.prefix_str = ""


def _walk_steps(node: ElementNode, steps) -> Optional[ElementNode]:
    """The reference ``_walk`` without intermediate list building."""
    current = node
    for label, index in steps:
        found = None
        remaining = index
        for child in current.children:
            if isinstance(child, ElementNode) and child.tag == label:
                if remaining == 0:
                    found = child
                    break
                remaining -= 1
        if found is None:
            return None
        current = found
    return current


class InverseProgram:
    """Compiled ``σd⁻¹``: per-type step templates, iterative walk.

    Byte-identical to :func:`repro.core.inverse.run_invert` (the
    reference), including error classes and strict-mode ambiguity
    checks; exercised by the fast-path equivalence suite.
    """

    def __init__(self, embedding: SchemaEmbedding, infos: dict) -> None:
        self.embedding = embedding
        self.source = embedding.source
        self.table: dict[str, tuple[str, tuple]] = {}
        for source_type, production in self.source.elements.items():
            if isinstance(production, Str):
                info = infos[(source_type, STR_KEY, 1)]
                self.table[source_type] = (
                    "str", (_InverseEdge(STR_KEY, info),))
            elif isinstance(production, Empty):
                self.table[source_type] = ("empty", ())
            elif isinstance(production, Concat):
                edges = []
                seen: dict[str, int] = {}
                for child_type in production.children:
                    seen[child_type] = seen.get(child_type, 0) + 1
                    info = infos[(source_type, child_type, seen[child_type])]
                    edges.append(_InverseEdge(child_type, info))
                self.table[source_type] = ("concat", tuple(edges))
            elif isinstance(production, Disjunction):
                edges = [
                    _InverseEdge(child_type,
                                 infos[(source_type, child_type, 1)])
                    for child_type in production.children]
                self.table[source_type] = (
                    "disj", (tuple(edges), production.optional))
            elif isinstance(production, Star):
                info = infos[(source_type, production.child, 1)]
                edge = _InverseEdge(production.child, info)
                carrier = info.carrier_index
                edge.prefix = edge.steps[:carrier]
                edge.prefix_str = str(info.path.prefix(carrier))
                edge.carrier_label = info.path.steps[carrier].label
                edge.suffix = edge.steps[carrier + 1:]
                self.table[source_type] = ("star", edge)

    def apply(self, target_root: ElementNode,
              strict: bool = True) -> ElementNode:
        if target_root.tag != self.embedding.target.root:
            raise InverseError(
                f"document root <{target_root.tag}> is not the target root "
                f"<{self.embedding.target.root}>")
        root = ElementNode(self.source.root)
        # Preorder DFS with an explicit stack: children are appended to
        # their (already created) parent in visit order, which preserves
        # the reference's production-order child lists.
        stack: list[tuple[ElementNode, str, ElementNode]] = [
            (target_root, self.source.root, root)]
        table = self.table
        while stack:
            image, source_type, node = stack.pop()
            kind, payload = table[source_type]
            if kind == "str":
                edge = payload[0]
                holder = _walk_steps(image, edge.steps)
                if holder is None:
                    raise InverseError(
                        f"text path {edge.path_str} missing below "
                        f"<{image.tag}> (image of {source_type})")
                value = holder.child_text()
                if value is None and holder.children:
                    raise InverseError(
                        f"text path {edge.path_str} endpoint "
                        f"<{holder.tag}> holds element content "
                        f"(image of {source_type})")
                if value:
                    node.append(TextNode(value))
            elif kind == "empty":
                pass
            elif kind == "concat":
                pending = []
                for edge in payload:
                    target = _walk_steps(image, edge.steps)
                    if target is None:
                        raise InverseError(
                            f"AND path {edge.path_str} missing below "
                            f"<{image.tag}> (image of {source_type})")
                    child = ElementNode(edge.child_type)
                    node.append(child)
                    pending.append((target, edge.child_type, child))
                stack.extend(reversed(pending))
            elif kind == "disj":
                edges, optional = payload
                matches = []
                for edge in edges:
                    target = _walk_steps(image, edge.steps)
                    if target is not None:
                        matches.append((edge.child_type, target))
                        if not strict:
                            break
                if len(matches) > 1:
                    raise InverseError(
                        f"ambiguous disjunction at image of {source_type}: "
                        f"{[m[0] for m in matches]} all present")
                if not matches:
                    if not optional:
                        raise InverseError(
                            f"no alternative of {source_type} present below "
                            f"<{image.tag}>")
                else:
                    child_type, target = matches[0]
                    child = ElementNode(child_type)
                    node.append(child)
                    stack.append((target, child_type, child))
            else:  # star
                edge = payload
                parent = _walk_steps(image, edge.prefix)
                if parent is None:
                    raise InverseError(
                        f"STAR path prefix {edge.prefix_str} missing "
                        f"below <{image.tag}> (image of {source_type})")
                label = edge.carrier_label
                pending = []
                for instance in parent.children:
                    if not isinstance(instance, ElementNode) \
                            or instance.tag != label:
                        continue
                    target = _walk_steps(instance, edge.suffix)
                    if target is None:
                        raise InverseError(
                            f"STAR path suffix missing under <{label}> "
                            f"instance (image of {source_type})")
                    child = ElementNode(edge.child_type)
                    node.append(child)
                    pending.append((target, edge.child_type, child))
                stack.extend(reversed(pending))
        return root
