"""Streaming document plane — bounded-memory ``σd`` over parser events.

``MappingProgram.apply`` materialises the whole source tree and the
whole target tree before the first output byte, so mapping memory is
O(document).  This module drives the *same* compiled per-type programs
straight from SAX-style parser events (:func:`repro.xtree.parser.
iter_events` / ``iter_events_path``) and emits serialized output
incrementally:

* **Star spine** — a source element whose program kind is ``star``
  *streams*: its image's head (open tags + mindef pads before the
  carrier) is emitted as soon as the first star instance starts, each
  instance is emitted as it completes, and the tail (closes + trailing
  pads) on the end event.  Star-of-star documents stream end-to-end;
  peak memory is bounded by the largest single fragment, never the
  document.
* **Buffered fragments** — ``concat``/``disj``/``str`` shapes buffer
  only their enclosing source fragment (pulled off the shared event
  iterator by :func:`~repro.xtree.parser.build_tree`, the very builder
  ``parse_xml`` uses), then run through the *exact* interpreter
  machinery (``MappingProgram._run``/``_map_loop``, including its
  per-fragment reference ``_FragmentBuilder`` fallback), so every
  byte — happy path, mindef padding, malformed-document errors — is
  identical to ``InstMap.apply`` by construction.  The reference path
  is never bypassed, only fed smaller inputs.
* **Ignored subtrees** — children of an ``empty``-typed source element
  are skipped with a depth counter (the interpreter never looks at
  them), so even garbage subtrees below Empty types cost O(depth).

Documents whose *root* program is not a star (or whose embedding
compiled onto the reference path) fall back to whole-document
buffering: ``build_tree`` over the same event stream, ``InstMap.apply``,
serialize — byte-identical, memory O(document), never wrong.

Error contract: malformed XML raises the same ``XMLParseError``
(message/line/column) as ``parse_xml`` on the same input; malformed
instances raise the same ``EmbeddingError`` messages as the
interpreter.  One caveat: the interpreter surfaces instance errors in
BFS order over hot fragments while the streamer surfaces them in
document order — for a document with a *single* defect (the tested
contract) the raised error is identical.  :func:`stream_map_to_path`
writes through a temp file + ``os.replace`` so a mid-stream error
leaves no partial output.
"""
# lint: stream-plane

from __future__ import annotations

import os
import tempfile
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from repro.core.errors import EmbeddingError
from repro.core.instmap import InstMap
from repro.engine.plan import (
    LOOP_SLOT,
    OP_HOT,
    MappingProgram,
    TypeProgram,
    _pause_gc,
    _resume_gc,
)
from repro.xtree.nodes import ElementNode
from repro.xtree.nodes import _id_counter as _ids
from repro.xtree.parser import build_tree, iter_events, iter_events_path
from repro.xtree.serialize import iter_serialized


@dataclass
class StreamStats:
    """What the streamer did with one document."""

    #: star frames that streamed (head/instances/tail emitted live)
    frames_streamed: int = 0
    #: source fragments served through the buffered interpreter path
    fragments_buffered: int = 0
    #: subtrees below Empty-typed elements skipped without buffering
    subtrees_skipped: int = 0
    #: the root shape could not stream: whole document buffered
    whole_document: bool = False
    #: output size in characters
    chars_out: int = 0


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


class _StarSeg:
    """A star program's head/tail, segmented for incremental emission.

    Materialised once per (program, source type) by running the very
    ``head_ops``/``tail_ops`` the interpreter runs, then slicing the
    result around the open chain — the emitted bytes cannot drift from
    ``_run_star`` because they come from the same instructions.
    """

    __slots__ = ("open_tags", "pre_pads", "post_pads", "carrier_tag",
                 "kid_rel_depth")

    def __init__(self, mp: MappingProgram, program: TypeProgram) -> None:
        dummy = ElementNode(program.image)
        nxt = _ids.__next__
        mp._run(program.head_ops, dummy, (), None, None, {}, None, nxt)
        chain = [dummy]
        node = dummy
        for _ in range(program.head_depth):
            node = node.children[-1]
            chain.append(node)
        # Before the tail runs, the chain child is the last child at
        # every level; everything before it is a completed pad subtree.
        chain_index = [len(level.children) - 1 for level in chain[:-1]]
        self.pre_pads = [tuple(level.children[:-1]) for level in chain[:-1]]
        stack = [(ancestor, ancestor.children) for ancestor in chain[:-1]]
        mp._run(program.tail_ops, chain[-1], (), None, None, {}, None, nxt,
                stack=stack)
        self.post_pads = [
            tuple(level.children[index + 1:])
            for level, index in zip(chain[:-1], chain_index)]
        self.open_tags = tuple(n.tag for n in chain)
        self.carrier_tag = self.open_tags[-1]
        self.kid_rel_depth = len(self.open_tags)


def _segments(mp: MappingProgram, tag: str) -> _StarSeg:
    cache = getattr(mp, "_stream_segs", None)
    if cache is None:
        cache = {}
        mp._stream_segs = cache
    seg = cache.get(tag)
    if seg is None:
        seg = _StarSeg(mp, mp.programs[tag])
        cache[tag] = seg
    return seg


def _empty_fragment(mp: MappingProgram, tag: str) -> ElementNode:
    """The static image fragment of an Empty-typed source element."""
    cache = getattr(mp, "_stream_empties", None)
    if cache is None:
        cache = {}
        mp._stream_empties = cache
    fragment = cache.get(tag)
    if fragment is None:
        program = mp.programs[tag]
        fragment = ElementNode(program.image)
        mp._run(program.ops, fragment, (), None, None, {}, None,
                _ids.__next__)
        cache[tag] = fragment
    return fragment


class _StarFrame:
    """One streaming star-typed source element currently open."""

    __slots__ = ("tag", "program", "seg", "depth", "kid_depth", "kids",
                 "head_emitted", "direct", "endpoint")

    def __init__(self, mp: MappingProgram, tag: str, program: TypeProgram,
                 depth: int) -> None:
        self.tag = tag
        self.program = program
        self.seg = _segments(mp, tag)
        self.depth = depth
        self.kid_depth = depth + self.seg.kid_rel_depth
        self.kids = 0
        self.head_emitted = False
        body = program.body_ops
        self.direct = (len(body) == 1 and body[0][0] == OP_HOT
                       and body[0][2] == LOOP_SLOT)
        self.endpoint = body[0][1] if self.direct else None


def _pad(indent: Optional[int], depth: int) -> str:
    return "" if indent is None else " " * (indent * depth)


def _emit_head(frame: _StarFrame, indent: Optional[int]):
    seg = frame.seg
    depth = frame.depth
    yield f"{_pad(indent, depth)}<{seg.open_tags[0]}>"
    for level in range(len(seg.open_tags) - 1):
        for pad_tree in seg.pre_pads[level]:
            yield from iter_serialized(pad_tree, indent,
                                       depth=depth + level + 1)
        yield f"{_pad(indent, depth + level + 1)}<{seg.open_tags[level + 1]}>"
    frame.head_emitted = True


def _emit_tail(frame: _StarFrame, indent: Optional[int]):
    seg = frame.seg
    depth = frame.depth
    for level in range(len(seg.open_tags) - 2, -1, -1):
        yield (f"{_pad(indent, depth + level + 1)}"
               f"</{seg.open_tags[level + 1]}>")
        for pad_tree in seg.post_pads[level]:
            yield from iter_serialized(pad_tree, indent,
                                       depth=depth + level + 1)
    yield f"{_pad(indent, depth)}</{seg.open_tags[0]}>"


def _emit_zero_kids(instmap: InstMap, frame: _StarFrame,
                    indent: Optional[int]):
    # No star instances: the interpreter serves the whole fragment
    # through the reference builder (pure mindef completion) — do the
    # very same.  Text children are ignored by both paths.
    image = ElementNode(frame.program.image)
    instmap.build_fragment(image, ElementNode(frame.tag), {})
    yield from iter_serialized(image, indent, depth=frame.depth)
    _sever(image)


def _emit_buffered(mp: MappingProgram, frame: _StarFrame,
                   kid_root: ElementNode, indent: Optional[int],
                   stats: StreamStats):
    # One star instance whose own shape does not stream: run the
    # instance through the interpreter's body instructions + BFS loop
    # against a detached carrier parent, then serialize the result at
    # the carrier's depth.  Bytes match _run_star on the same kid by
    # construction (same functions, same inputs).
    stats.fragments_buffered += 1
    dummy = ElementNode(frame.seg.carrier_tag)
    id_map: dict[int, int] = {}
    local: deque = deque()
    nxt = _ids.__next__
    mp._run(frame.program.body_ops, dummy, (kid_root,), None, None,
            id_map, local.append, nxt)
    mp._map_loop(local, local.popleft, local.append, mp.programs,
                 id_map, nxt)
    for child in dummy.children:
        yield from iter_serialized(child, indent, depth=frame.kid_depth)
    _sever(dummy)
    _sever(kid_root)


def _stream_pieces(instmap: InstMap, events: Iterable, indent: Optional[int],
                   stats: StreamStats) -> Iterator[str]:
    it = iter(events)
    first = next(it)  # ("start", root_tag); parse errors propagate
    root_tag = first[1]
    if root_tag != instmap.source.root:
        raise EmbeddingError(
            f"instance root <{root_tag}> is not the source root "
            f"<{instmap.source.root}>")
    mp: Optional[MappingProgram] = instmap._program
    if mp is None or mp.programs[root_tag].kind != "star":
        # Non-star root (or reference-path embedding): buffer the whole
        # document and serve through InstMap.apply unchanged.
        stats.whole_document = True
        root = build_tree(chain((first,), it))
        for _ in it:  # surface trailing-content parse errors pre-output
            pass
        result = instmap.apply(root)
        yield from iter_serialized(result.tree, indent)
        _sever(root)
        _sever(result.tree)
        return

    frames = [_StarFrame(mp, root_tag, mp.programs[root_tag], 0)]
    stats.frames_streamed += 1
    skip_depth = 0
    _pause_gc()
    try:
        for event in it:
            kind = event[0]
            if skip_depth:
                if kind == "start":
                    skip_depth += 1
                elif kind == "end":
                    skip_depth -= 1
                continue
            if kind == "start":
                frame = frames[-1]
                if not frame.head_emitted:
                    yield from _emit_head(frame, indent)
                frame.kids += 1
                tag = event[1]
                if frame.direct:
                    program = mp.programs.get(tag)
                    if program is None:
                        raise EmbeddingError(
                            f"instance element <{tag}> is not a source "
                            "type of the embedding (document does not "
                            "conform to the source schema)")
                    if program.image != frame.endpoint:
                        raise EmbeddingError(
                            f"image of <{tag}> has tag <{frame.endpoint}>, "
                            f"expected λ({tag}) = {program.image}")
                    if program.kind == "star":
                        frames.append(_StarFrame(mp, tag, program,
                                                 frame.kid_depth))
                        stats.frames_streamed += 1
                        continue
                    if program.kind == "empty":
                        # Children of Empty types are ignored by the
                        # interpreter: emit the static fragment, skip.
                        stats.subtrees_skipped += 1
                        yield from iter_serialized(
                            _empty_fragment(mp, tag), indent,
                            depth=frame.kid_depth)
                        skip_depth = 1
                        continue
                kid_root = build_tree(chain((event,), it))
                yield from _emit_buffered(mp, frame, kid_root, indent, stats)
            elif kind == "end":
                frame = frames.pop()
                if frame.kids == 0:
                    yield from _emit_zero_kids(instmap, frame, indent)
                else:
                    yield from _emit_tail(frame, indent)
                if not frames:
                    break
            # text events at a star level are ignored (the interpreter
            # maps element children only)
        for _ in it:  # raise on trailing content after the root
            pass
    finally:
        _resume_gc()


def _events_for(text: Optional[str], path) -> Iterable:
    if (text is None) == (path is None):
        raise ValueError("stream_map: pass exactly one of text= or path=")
    if text is not None:
        return iter_events(text)
    return iter_events_path(path)


def iter_mapped(instmap: InstMap, *, text: Optional[str] = None,
                path=None, indent: Optional[int] = 2,
                chunk_pieces: int = 256,
                stats: Optional[StreamStats] = None) -> Iterator[str]:
    """Yield ``σd(document)`` as serialized text chunks.

    Concatenating the chunks equals ``to_string(instmap.apply(...)
    .tree, indent)`` byte for byte.  ``stats`` (optional) is filled in
    as the stream progresses.
    """
    if stats is None:
        stats = StreamStats()
    joiner = "\n" if indent is not None else ""
    buf: list[str] = []
    first = True
    for piece in _stream_pieces(instmap, _events_for(text, path), indent,
                                stats):
        if first:
            first = False
        else:
            buf.append(joiner)
        buf.append(piece)
        if len(buf) >= 2 * chunk_pieces:
            chunk = "".join(buf)
            stats.chars_out += len(chunk)
            buf.clear()
            yield chunk
    if buf:
        chunk = "".join(buf)
        stats.chars_out += len(chunk)
        yield chunk


def stream_map(instmap: InstMap, *, text: Optional[str] = None, path=None,
               write: Callable[[str], object],
               indent: Optional[int] = 2) -> StreamStats:
    """Map a document and push the serialized output through ``write``.

    The ``write`` callback receives text chunks as they are produced;
    on a malformed document a chunk prefix may already have been
    written when the error raises — use :func:`stream_map_to_path` for
    all-or-nothing file output.
    """
    stats = StreamStats()
    for chunk in iter_mapped(instmap, text=text, path=path, indent=indent,
                             stats=stats):
        write(chunk)
    return stats


def stream_map_to_path(instmap: InstMap, out_path, *,
                       text: Optional[str] = None, path=None,
                       indent: Optional[int] = 2) -> StreamStats:
    """Stream-map into ``out_path`` atomically (temp file +
    ``os.replace``): a mid-document error leaves no partial output."""
    out_path = os.fspath(out_path)
    directory = os.path.dirname(out_path) or "."
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".repro-stream-", suffix=".tmp",
        delete=False)
    try:
        with handle:
            stats = stream_map(instmap, text=text, path=path,
                               write=handle.write, indent=indent)
            if indent is not None:
                handle.write("\n")
        os.replace(handle.name, out_path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return stats
