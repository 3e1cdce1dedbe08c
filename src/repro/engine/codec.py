"""Per-schema codecs — map + serialize fused, with no target tree.

The interpreter (:mod:`repro.engine.plan`) runs one generic loop over
flat instructions and then serializes the materialised target tree.
For a fixed compiled embedding none of that genericity is needed: the
per-production dispatch, the static mindef padding, element forms
(``<t/>`` vs inline vs multiline) and the serializer's pad/escape work
are all decidable from the instruction stream when the codec is built.

:func:`build_codec` symbolically executes each type's ``TypeProgram``
ops once and closes one handler per source type over the result:
prerendered static blocks (re-padded once per absolute depth) and push
templates for hot children.  A handler appends static text to the
output and pushes work items onto an explicit stack, so mapping is
iterative and no target tree is ever allocated on the fast path.

:class:`Codec` runs the handlers: ``map_tree`` dispatches a parsed
tree, and ``map_text`` / ``iter_text`` drive them from
:func:`~repro.xtree.parser.iter_events`.  The driver streams star
spines — head block on the first instance, each instance built with
``build_tree`` off the shared iterator, mapped and released, tail at
the end — skips Empty-typed instances with a depth counter, and
buffers the whole document into ``map_tree`` when the root is not a
star.  It is the only text→text ``σd`` path (``/v1/map``, ``repro
map``, ``repro map --stream``, ``repro batch map``).

Byte-identity is inherited, not re-proven: static blocks are rendered
through :func:`repro.xtree.serialize.iter_serialized` over trees built
from the very instruction streams ``MappingProgram._run`` executes,
text escaping *is* ``escape_text``, and every dynamic shape the
interpreter serves through the reference ``_FragmentBuilder``
(concat arity/tag mismatches, zero-instance stars) is routed through
:func:`_codec_fallback`, which builds the same reference fragment and
splices its bytes into the output stream.  Codecs fix ``indent=2``
(the serializer default used across Engine, CLI and serve).
"""
# lint: codec-plane

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

from repro.core.errors import EmbeddingError
from repro.core.instmap import InstMap
from repro.engine.plan import (
    LOOP_SLOT,
    OP_CLOSE,
    OP_HOT,
    OP_LEAF,
    OP_OPEN,
    OP_TEXT,
    MappingProgram,
    _pause_gc,
    _resume_gc,
)
from repro.xtree.nodes import ElementNode, TextNode
from repro.xtree.parser import build_tree, iter_events
from repro.xtree.serialize import escape_text as _esc
from repro.xtree.serialize import iter_serialized

__all__ = ["Codec", "CodecError", "StreamStats", "build_codec"]


class CodecError(ValueError):
    """The embedding's shape cannot be compiled into a codec (the
    interpreter / reference path serves it instead)."""


# -- runtime support shared by every handler ----------------------------------

_PADS: dict[int, str] = {}


def _pad(depth: int) -> str:
    pad = _PADS.get(depth)
    if pad is None:
        pad = "  " * depth
        _PADS[depth] = pad
    return pad


def _sever(root) -> None:
    """Break parent/children cycles so refcounting frees the fragment
    immediately (collection is paused during a mapping burst)."""
    stack = [root]
    while stack:
        node = stack.pop()
        node.parent = None
        children = getattr(node, "children", None)
        if children:
            stack.extend(children)
            node.children = []


def _codec_fallback(instmap: InstMap, out: list, stack: list,
                    node: ElementNode, depth: int, image_tag: str) -> None:
    """Serve one fragment off the codec's static path and splice its
    serialized lines (plus dispatch items for its hot endpoints) into
    the codec's output stream — the codec twin of
    ``MappingProgram._serve_sparse``: sparse-concat shapes run through
    the compiled plane, only non-static shapes hit the reference
    builder."""
    image = ElementNode(image_tag)
    pairs = instmap.fragment_pairs(image, node, {})
    hot = {leaf.node_id: source for leaf, source in pairs}
    items: list = []
    walk: list = [(image, depth)]
    while walk:
        current, level = walk.pop()
        if level is None:
            items.append((1, current, 0, ""))  # prebuilt close line
            continue
        if isinstance(current, TextNode):
            items.append((1, _pad(level) + _esc(current.value), 0, ""))
            continue
        source = hot.get(current.node_id)
        if source is not None:
            items.append((0, source, level, current.tag))
            continue
        children = current.children
        if not children:
            items.append((1, f"{_pad(level)}<{current.tag}/>", 0, ""))
            continue
        only_text = True
        for child in children:
            if not isinstance(child, TextNode):
                only_text = False
                break
        if only_text:
            body = "".join(_esc(child.value) for child in children)
            items.append(
                (1, f"{_pad(level)}<{current.tag}>{body}</{current.tag}>",
                 0, ""))
            continue
        items.append((1, f"{_pad(level)}<{current.tag}>", 0, ""))
        walk.append((f"{_pad(level)}</{current.tag}>", None))
        for child in reversed(children):
            walk.append((child, level + 1))
    stack.extend(reversed(items))
    _sever(image)


# -- build-time virtual interpretation ----------------------------------------

class _V:
    __slots__ = ("tag", "children")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.children: list = []


class _VText:
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value


class _VHole:
    __slots__ = ("tag", "slot")

    def __init__(self, tag: str, slot: int) -> None:
        self.tag = tag
        self.slot = slot


class _VCopy:
    __slots__ = ()


def _vrun(ops, root: _V) -> None:
    """Run instruction ops against a virtual tree: hot endpoints and
    PCDATA copies become markers instead of live nodes."""
    parent = root
    stack: list = []
    for op in ops:
        code = op[0]
        if code == OP_OPEN:
            node = _V(op[1])
            parent.children.append(node)
            stack.append(parent)
            parent = node
        elif code == OP_CLOSE:
            parent = stack.pop()
        elif code == OP_LEAF:
            parent.children.append(_V(op[1]))
        elif code == OP_HOT:
            parent.children.append(_VHole(op[1], op[2]))
        elif code == OP_TEXT:
            parent.children.append(_VText(op[1]))
        else:  # OP_TEXT_COPY
            parent.children.append(_VCopy())


def _is_static(node) -> bool:
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (_VHole, _VCopy)):
            return False
        if isinstance(current, _V):
            stack.extend(current.children)
    return True


def _materialize(node: _V) -> ElementNode:
    """A static virtual subtree as real nodes, for byte-exact line
    rendering through the real serializer."""
    root = ElementNode(node.tag)
    stack = [(node, root)]
    while stack:
        virtual, real = stack.pop()
        for child in virtual.children:
            if isinstance(child, _VText):
                real.append(TextNode(child.value))
            else:
                element = ElementNode(child.tag)
                real.append(element)
                stack.append((child, element))
    return root


def _static_lines(node: _V, rel: int) -> list[str]:
    return list(iter_serialized(_materialize(node), 2, depth=rel))


# Parts of a rendered fragment, in document order:
#   ("lit", line)            — a line pre-padded at its relative depth
#   ("hole", rel, slot, tag) — dispatch a source child here
#   ("copy", rel, tag)       — the holder element of the node's PCDATA
#
# Recursion here is bounded by the embedding's longest XR path (a
# schema artifact, tens of steps), never by document depth —
# building walks the fragment template, not the instance.
# lint: allow-recursion
def _render(node, rel: int, parts: list) -> None:
    if isinstance(node, _VText):
        parts.append(("lit", _pad(rel) + _esc(node.value)))
        return
    if isinstance(node, _VHole):
        parts.append(("hole", rel, node.slot, node.tag))
        return
    if isinstance(node, _VCopy):
        raise CodecError("PCDATA copy outside its holder element")
    if _is_static(node):
        for line in _static_lines(node, rel):
            parts.append(("lit", line))
        return
    children = node.children
    if len(children) == 1 and isinstance(children[0], _VCopy):
        parts.append(("copy", rel, node.tag))
        return
    for child in children:
        if isinstance(child, _VCopy):
            raise CodecError(
                "PCDATA copy is not the sole child of its holder")
    # Dynamic content is always an element child (a hole, or an element
    # containing one), so the multiline form is statically correct.
    parts.append(("lit", f"{_pad(rel)}<{node.tag}>"))
    for child in children:
        _render(child, rel + 1, parts)
    parts.append(("lit", f"{_pad(rel)}</{node.tag}>"))


def _ops_parts(ops, image: str) -> list:
    root = _V(image)
    _vrun(ops, root)
    if len(root.children) == 1 and isinstance(root.children[0], _VCopy):
        # path(A, str) = text(): the image itself holds the PCDATA.
        return [("copy", 0, image)]
    parts: list = []
    _render(root, 0, parts)
    return parts


def _star_layout(program) -> tuple:
    """Head lines / per-kid body parts / tail lines of a star program,
    segmented exactly as ``MappingProgram._run_star`` executes it."""
    dummy = _V(program.image)
    _vrun(program.head_ops, dummy)
    chain = [dummy]
    node = dummy
    for _ in range(program.head_depth):
        node = node.children[-1]
        chain.append(node)
    chain_index = [len(level.children) - 1 for level in chain[:-1]]
    head: list[str] = [f"<{chain[0].tag}>"]
    for level in range(len(chain) - 1):
        for pad_tree in chain[level].children[:-1]:
            head.extend(_static_lines(pad_tree, level + 1))
        head.append(f"{_pad(level + 1)}<{chain[level + 1].tag}>")
    # Replay the tail against the open chain, as _run_star does: CLOSE
    # pops a level, pads land after the chain node of that level.
    parent = chain[-1]
    open_stack = list(chain[:-1])
    for op in program.tail_ops:
        code = op[0]
        if code == OP_OPEN:
            child = _V(op[1])
            parent.children.append(child)
            open_stack.append(parent)
            parent = child
        elif code == OP_CLOSE:
            parent = open_stack.pop()
        elif code == OP_LEAF:
            parent.children.append(_V(op[1]))
        elif code == OP_TEXT:
            parent.children.append(_VText(op[1]))
        else:
            raise CodecError("dynamic op in a star tail")
    tail: list[str] = []
    for level in range(len(chain) - 2, -1, -1):
        tail.append(f"{_pad(level + 1)}</{chain[level + 1].tag}>")
        for pad_tree in chain[level].children[chain_index[level] + 1:]:
            tail.extend(_static_lines(pad_tree, level + 1))
    tail.append(f"</{chain[0].tag}>")
    # Body: one star instance's parts, relative to the kid depth.
    body_root = _V(chain[-1].tag)
    _vrun(program.body_ops, body_root)
    body_parts: list = []
    for child in body_root.children:
        _render(child, 0, body_parts)
    return head, body_parts, tail, len(chain)


# -- handler templates --------------------------------------------------------

def _indent(lines: tuple, depth: int) -> str:
    """Static lines (padded relative to their fragment) as one output
    block at an absolute depth."""
    pad = _pad(depth)
    return "\n".join(pad + line for line in lines)


def _template(parts: list, allow_copy: bool = False) -> tuple:
    """A parts list as template tokens in document order: each run of
    literal lines becomes one ``("lines", lines)`` token, holes and
    copies pass through.  Copies are only legal in ``str`` programs."""
    tokens: list = []
    run: list[str] = []
    for part in parts:
        if part[0] == "lit":
            run.append(part[1])
            continue
        if run:
            tokens.append(("lines", tuple(run)))
            run = []
        if part[0] == "copy" and not allow_copy:
            raise CodecError("PCDATA copy outside a str program")
        tokens.append(part)
    if run:
        tokens.append(("lines", tuple(run)))
    return tuple(tokens)


def _items(tokens: tuple, depth: int) -> list:
    """Work items of static and hole tokens at an absolute depth, in
    document order: ``(1, block, 0, "")`` output blocks, and hole
    templates ``(0, slot, depth, tag)`` whose slot the handler replaces
    by the source child."""
    items: list = []
    for token in tokens:
        if token[0] == "lines":
            items.append((1, _indent(token[1], depth), 0, ""))
        else:
            _, rel, slot, tag = token
            items.append((0, slot, depth + rel, tag))
    return items


class _Fragment:
    """A handler's rendered fragment, planned once per absolute depth.

    Everything before the first hole is the *lead*, appended straight
    to ``out`` as one block; a ``str`` program's lead is split at its
    PCDATA copies and joined around the escaped text.  From the first
    hole on the items are pushed reversed, so they pop in document
    order."""

    __slots__ = ("tokens", "plans")

    def __init__(self, parts: list, allow_copy: bool = False) -> None:
        self.tokens = _template(parts, allow_copy)
        self.plans: dict[int, tuple] = {}

    def _plan(self, depth: int) -> tuple:
        tokens = self.tokens
        first_hole = len(tokens)
        for index, token in enumerate(tokens):
            if token[0] == "hole":
                first_hole = index
                break
        segments: list[str] = []
        lines: list[str] = []
        for token in tokens[:first_hole]:
            if token[0] == "lines":
                lines.append(_indent(token[1], depth))
            else:  # copy: the text joins this segment and the next
                _, rel, tag = token
                lines.append(f"{_pad(depth + rel)}<{tag}>")
                segments.append("\n".join(lines))
                lines = [f"</{tag}>"]
        if lines:
            segments.append("\n".join(lines))
        push = _items(tokens[first_hole:], depth)
        plan = (tuple(segments) or None, tuple(reversed(push)))
        self.plans[depth] = plan
        return plan

    def emit(self, out: list, stack: list, kids, depth: int,
             text: str = "") -> None:
        plan = self.plans.get(depth)
        if plan is None:
            plan = self._plan(depth)
        lead, push = plan
        if lead is not None:
            out.append(text.join(lead))
        for item in push:
            stack.append(item if item[0] else
                         (0, kids[item[1]], item[2], item[3]))


def _build_handler(instmap: InstMap, source_type: str, program):
    """The handler of one source type: ``handler(out, stack, node,
    depth)`` appends the element's leading output blocks to ``out`` and
    pushes the rest as work items, making the interpreter's checks."""
    kind = program.kind
    image = program.image
    if kind == "empty":
        # Children of Empty-typed elements are ignored entirely.
        fragment = _Fragment(_ops_parts(program.ops, image))

        def empty(out, stack, node, depth):
            fragment.emit(out, stack, (), depth)
        return empty

    if kind == "str":
        fragment = _Fragment(_ops_parts(program.ops, image),
                             allow_copy=True)
        message = (f"<{source_type}> has P({source_type}) = str but does "
                   "not contain a single text value")

        def text(out, stack, node, depth):
            children = node.children
            if not children:
                value = ""
            elif len(children) == 1 and isinstance(children[0], TextNode):
                value = _esc(children[0].value)
            else:
                raise EmbeddingError(message)
            fragment.emit(out, stack, (), depth, value)
        return text

    if kind == "concat":
        expected = list(program.expected)
        fragment = _Fragment(_ops_parts(program.ops, image))

        def concat(out, stack, node, depth):
            kids = [c for c in node.children if isinstance(c, ElementNode)]
            if [kid.tag for kid in kids] == expected:
                fragment.emit(out, stack, kids, depth)
            else:
                _codec_fallback(instmap, out, stack, node, depth, image)
        return concat

    if kind == "disj":
        none = _Fragment(_ops_parts(program.empty_ops, image))
        alts = {tag: _Fragment(_ops_parts(ops, image))
                for tag, ops in program.alts.items()}

        def disj(out, stack, node, depth):
            kids = [c for c in node.children if isinstance(c, ElementNode)]
            if not kids:
                none.emit(out, stack, kids, depth)
                return
            alt = alts.get(kids[0].tag)
            if alt is None:
                raise EmbeddingError(
                    f"instance edge ({source_type}, {kids[0].tag}, occ 1) "
                    "is not covered by the embedding (document does not "
                    "conform to the source schema)")
            alt.emit(out, stack, kids, depth)
        return disj

    head, body_parts, tail, kid_rel = _star_layout(program)
    body = _template(body_parts)
    # A body that is one bare hole dispatches each instance directly.
    direct = (body[0][3] if len(body) == 1 and body[0][0] == "hole"
              and body[0][2] == LOOP_SLOT else None)
    plans: dict[int, tuple] = {}

    def star(out, stack, node, depth):
        kids = [c for c in node.children if isinstance(c, ElementNode)]
        if not kids:
            _codec_fallback(instmap, out, stack, node, depth, image)
            return
        plan = plans.get(depth)
        if plan is None:
            d = depth + kid_rel
            plan = plans[depth] = (
                _indent(head, depth), (1, _indent(tail, depth), 0, ""),
                d, _items(body, d))
        head_block, tail_item, d, body_items = plan
        out.append(head_block)
        stack.append(tail_item)
        if direct is not None:
            for kid in reversed(kids):
                stack.append((0, kid, d, direct))
            return
        items = []
        for kid in kids:
            for item in body_items:
                items.append(item if item[0] else
                             (0, kid, item[2], item[3]))
        stack.extend(reversed(items))
    return star


# -- the driver over the handlers ---------------------------------------------

@dataclass
class StreamStats:
    """What the event driver did with one document."""

    #: star frames that streamed (head/instances/tail emitted live)
    frames_streamed: int = 0
    #: star instances built as trees and run through the handlers
    fragments_buffered: int = 0
    #: the root shape could not stream: whole document buffered
    whole_document: bool = False
    #: output size in characters
    chars_out: int = 0


#: output blocks gathered before a streamed chunk is released
_CHUNK_BLOCKS = 512


class _Frame:
    """One open star-typed source element whose instances stream.

    ``head``/``tail`` and the per-instance dispatch come from the star
    handler itself (see :meth:`Codec._frame`), so a streamed
    frame emits the very bytes ``map_tree`` emits for the element."""

    __slots__ = ("tag", "depth", "handler", "head", "tail", "kid_depth",
                 "expected", "kids")

    def __init__(self, tag: str, depth: int, handler, head: str, tail: str,
                 kid_depth: int, expected: Optional[str]) -> None:
        self.tag = tag
        self.depth = depth
        self.handler = handler
        self.head = head
        self.tail = tail
        #: where a directly dispatched instance lands, and the image tag
        #: it must have; ``expected`` is None when the star body wraps
        #: each instance in static blocks (the handler runs per instance)
        self.kid_depth = kid_depth
        self.expected = expected
        self.kids = 0


class Codec:
    """One embedding's handlers and the driver that runs them.

    The handlers are closures built once per source type; the dispatch
    loop and the event driver are written here once."""

    __slots__ = ("_handlers", "_images", "_root", "_root_image", "_stars",
                 "_empties")

    def __init__(self, instmap: InstMap) -> None:
        mp: Optional[MappingProgram] = instmap._program
        if mp is None:
            raise CodecError(
                "embedding compiled onto the reference path; no static "
                "shape to build a codec from")
        programs = mp.programs
        self._handlers = {
            tag: _build_handler(instmap, tag, program)
            for tag, program in programs.items()}
        self._images = {tag: program.image
                        for tag, program in programs.items()}
        self._root = mp.source.root
        self._root_image = mp.root_image
        self._stars = frozenset(
            tag for tag, program in programs.items() if program.kind == "star")
        self._empties = frozenset(
            tag for tag, program in programs.items()
            if program.kind == "empty")

    def _handler(self, tag: str, expected: str):
        """The handler for one source element, after the same checks
        the interpreter makes before mapping it."""
        handler = self._handlers.get(tag)
        if handler is None:
            raise EmbeddingError(
                f"instance element <{tag}> is not a source type of the "
                "embedding (document does not conform to the source "
                "schema)")
        image = self._images[tag]
        if image != expected:
            raise EmbeddingError(
                f"image of <{tag}> has tag <{expected}>, expected "
                f"\u03bb({tag}) = {image}")
        return handler

    def _dispatch(self, out: list, stack: list) -> None:
        """Run work items to exhaustion: ``(1, text, …)`` items are
        output blocks, ``(0, node, depth, expected)`` items dispatch a
        source element to its handler."""
        pop = stack.pop
        get = self._handlers.get
        images = self._images
        while stack:
            kind, payload, depth, expected = pop()
            if kind:
                out.append(payload)
                continue
            tag = payload.tag
            handler = get(tag)
            if handler is None or images[tag] != expected:
                handler = self._handler(tag, expected)  # raises
            handler(out, stack, payload, depth)

    def map_tree(self, root: ElementNode) -> str:
        """Serialized \u03c3d(root) — byte-identical to
        ``to_string(InstMap.apply(root).tree)``."""
        if root.tag != self._root:
            raise EmbeddingError(
                f"instance root <{root.tag}> is not the source root "
                f"<{self._root}>")
        out: list = []
        _pause_gc()
        try:
            self._dispatch(out, [(0, root, 0, self._root_image)])
        finally:
            _resume_gc()
        return "\n".join(out)

    def map_text(self, text: str) -> str:
        """Parse, map and serialize in one pass over parser events."""
        return "\n".join(self.iter_text(iter_events(text), StreamStats()))

    def iter_text(self, events: Iterable, stats: StreamStats) -> Iterator[str]:
        """Yield the serialized \u03c3d of an event stream as chunks; the
        chunks joined with newlines are ``map_tree`` of the document.

        On a mapping error the remaining events are drained before the
        error propagates, so a later parse error wins — the precedence
        of parsing the whole document before mapping it."""
        it = iter(events)
        try:
            yield from self._drive(it, stats)
        except EmbeddingError:
            for _ in it:
                pass
            raise

    def _frame(self, tag: str, depth: int, expected: str) -> _Frame:
        """Open a streaming frame for a star-typed element.

        The star handler is probed with one placeholder instance: what
        it appends to ``out`` is the head block, the first item it
        pushes is the tail, and the rest is the per-instance work — a
        single ``(0, placeholder, …)`` item when instances are
        dispatched directly."""
        handler = self._handler(tag, expected)
        placeholder = ElementNode(tag)
        shell = ElementNode(tag)
        shell.children = [placeholder]
        head: list = []
        items: list = []
        handler(head, items, shell, depth)
        if len(items) == 2 and items[1][1] is placeholder:
            return _Frame(tag, depth, handler, head[0], items[0][1],
                          items[1][2], items[1][3])
        return _Frame(tag, depth, handler, head[0], items[0][1], depth, None)

    def _drive(self, it: Iterator, stats: StreamStats) -> Iterator[str]:
        first = next(it)  # parse errors propagate
        tag = first[1]
        if tag != self._root:
            raise EmbeddingError(
                f"instance root <{tag}> is not the source root "
                f"<{self._root}>")
        if tag not in self._stars:
            # The root shape does not stream: map the whole document.
            stats.whole_document = True
            root = build_tree(chain((first,), it))
            for _ in it:  # raise on trailing content after the root
                pass
            yield self.map_tree(root)
            _sever(root)
            return
        stars = self._stars
        empties = self._empties
        frames = [self._frame(tag, 0, self._root_image)]
        stats.frames_streamed += 1
        out: list = []
        stack: list = []
        skip = 0
        _pause_gc()
        try:
            for event in it:
                kind = event[0]
                if skip:
                    # Inside an Empty-typed instance: handlers ignore
                    # its children, so only the nesting is tracked.
                    if kind == "start":
                        skip += 1
                    elif kind == "end":
                        skip -= 1
                    continue
                if kind == "start":
                    frame = frames[-1]
                    if not frame.kids:
                        out.append(frame.head)
                    frame.kids += 1
                    tag = event[1]
                    expected = frame.expected
                    if expected is not None and tag in stars:
                        frames.append(
                            self._frame(tag, frame.kid_depth, expected))
                        stats.frames_streamed += 1
                    elif expected is not None and tag in empties:
                        # Empty handlers write static blocks only.
                        self._handler(tag, expected)(
                            out, stack, None, frame.kid_depth)
                        skip = 1
                    else:
                        kid = build_tree(chain((event,), it))
                        stats.fragments_buffered += 1
                        if expected is not None:
                            stack.append((0, kid, frame.kid_depth, expected))
                        else:
                            # One instance through the star handler:
                            # drop its head (already out) and its tail.
                            shell = ElementNode(frame.tag)
                            shell.children = [kid]
                            frame.handler([], stack, shell, frame.depth)
                            del stack[0]
                        self._dispatch(out, stack)
                        _sever(kid)
                elif kind == "end":
                    frame = frames.pop()
                    if frame.kids:
                        out.append(frame.tail)
                    else:
                        # No instances: the handler's _codec_fallback
                        # completes the image, as map_tree would.
                        frame.handler(out, stack, ElementNode(frame.tag),
                                      frame.depth)
                        self._dispatch(out, stack)
                    if not frames:
                        break
                # text at a star level is ignored, as by the handlers
                if len(out) >= _CHUNK_BLOCKS:
                    yield "\n".join(out)
                    out.clear()
            for _ in it:  # raise on trailing content after the root
                pass
        finally:
            _resume_gc()
        yield "\n".join(out)


def build_codec(instmap: InstMap) -> Codec:
    """The codec of one compiled embedding; raises :class:`CodecError`
    when the embedding runs on the reference path."""
    return Codec(instmap)
