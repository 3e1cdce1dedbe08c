"""Generated per-schema codecs — map + serialize fused into Python.

The interpreter (:mod:`repro.engine.plan`) runs one generic loop over
flat instructions and then serializes the materialised target tree.
For a fixed compiled embedding none of that genericity is needed: the
per-production dispatch, the static mindef padding, element forms
(``<t/>`` vs inline vs multiline) and the serializer's pad/escape work
are all decidable from the instruction stream at *generation* time.

:func:`generate_codec_source` symbolically executes each type's
``TypeProgram`` ops and emits a specialised Python module: one handler
per source type appending prerendered static text blocks and pushing
work items for hot children onto an explicit stack (no recursion — the
generated module is iterative by construction), plus its dispatch
tables.  No target tree is ever allocated on the fast path.

The code that runs a module is written here once, in
:class:`GeneratedCodec`: ``map_tree`` dispatches a parsed tree, and
``map_text`` / ``iter_text`` drive the handlers from
:func:`~repro.xtree.parser.iter_events`.  The driver streams star
spines — head block on the first instance, each instance built with
``build_tree`` off the shared iterator, mapped and released, tail at
the end — skips Empty-typed instances with a depth counter, and
buffers the whole document into ``map_tree`` when the root is not a
star.  It is the only text→text ``σd`` path (``/v1/map``, ``repro
map``, ``repro map --stream``); modules generated before it existed
run through it unchanged.

Byte-identity is inherited, not re-proven: static blocks are rendered
through :func:`repro.xtree.serialize.iter_serialized` over trees built
from the very instruction streams ``MappingProgram._run`` executes,
text escaping *is* ``escape_text``, and every dynamic shape the
interpreter serves through the reference ``_FragmentBuilder``
(concat arity/tag mismatches, zero-instance stars) is routed through
:func:`_codec_fallback`, which builds the same reference fragment and
splices its bytes into the output stream.  Codecs fix ``indent=2``
(the serializer default used across Engine, CLI and serve).

Determinism: generated source is a pure function of the embedding —
handlers are numbered after sorting source type names, dispatch dict
literals are sorted, and nothing else (timestamps, ids, set iteration)
flows in.  Repeated generations are byte-identical, which makes the
source safe to cache in the artifact store keyed by
(schema fingerprint, embedding fingerprint).
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
# Codec modules generated before the event driver import ``parse_xml``.
from repro.xtree.parser import parse_xml  # noqa: F401
from repro.xtree.serialize import escape_text as _esc
from repro.xtree.serialize import iter_serialized

__all__ = ["CodecError", "GeneratedCodec", "StreamStats",
           "generate_codec_source", "compile_codec", "generate_codec"]


class CodecError(ValueError):
    """The embedding's shape cannot be compiled into a codec (the
    interpreter / reference path serves it instead)."""


# -- runtime support shared by every generated module -------------------------

_PADS: dict[int, str] = {}


def _pad(depth: int) -> str:
    pad = _PADS.get(depth)
    if pad is None:
        pad = "  " * depth
        _PADS[depth] = pad
    return pad


def _blk(cache: dict, lines: tuple, depth: int) -> str:
    """One static block (lines pre-padded *relative* to the fragment),
    re-padded to an absolute depth and cached per depth."""
    block = cache.get(depth)
    if block is None:
        pad = _pad(depth)
        block = "\n".join(pad + line for line in lines)
        cache[depth] = block
    return block


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


# -- generation-time virtual interpretation -----------------------------------

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
# generation walks the fragment template, not the instance.
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


# -- code emission ------------------------------------------------------------

class _Writer:
    """Accumulates generated static blocks deterministically."""

    def __init__(self) -> None:
        self.blocks: list[tuple[str, tuple[str, ...]]] = []

    def block(self, lines: list[str]) -> str:
        """Intern one static block; returns its ``_L{i}`` name."""
        name = f"_L{len(self.blocks)}"
        self.blocks.append((name, tuple(lines)))
        return name


def _tokens(writer: _Writer, parts: list, kid_exprs: dict,
            depth_expr: str = "depth", allow_copy: bool = False) -> list:
    """Compile a parts list into ("expr", code) / ("item", code) tokens
    in document order.  Consecutive literal lines are interned as one
    static block; ``kid_exprs`` maps hole slots to source-child
    expressions; copy parts reference ``v`` and are only legal inside
    ``str`` handlers."""
    tokens: list[tuple[str, str]] = []
    lit_run: list[str] = []

    def flush() -> None:
        if lit_run:
            name = writer.block(lit_run)
            tokens.append(
                ("expr", f"_blk(_B{name[2:]}, {name}, {depth_expr})"))
            lit_run.clear()

    for part in parts:
        if part[0] == "lit":
            lit_run.append(part[1])
            continue
        flush()
        if part[0] == "hole":
            _, rel, slot, tag = part
            at = depth_expr if rel == 0 else f"{depth_expr} + {rel}"
            tokens.append(("item", f"(0, {kid_exprs[slot]}, {at}, {tag!r})"))
        else:  # copy
            if not allow_copy:
                raise CodecError("PCDATA copy outside a str program")
            _, rel, tag = part
            at = depth_expr if rel == 0 else f"{depth_expr} + {rel}"
            tokens.append(
                ("expr",
                 f'_pad({at}) + "<{tag}>" + _esc(v) + "</{tag}>"'))
    flush()
    return tokens


def _handler_code(tokens: list, indent: str) -> list[str]:
    """Handler body: the leading static run goes straight to ``out``;
    everything from the first dispatch on is pushed reversed."""
    code: list[str] = []
    position = 0
    while position < len(tokens) and tokens[position][0] == "expr":
        code.append(f"{indent}out.append({tokens[position][1]})")
        position += 1
    for kind, expr in reversed(tokens[position:]):
        if kind == "expr":
            code.append(f'{indent}stack.append((1, {expr}, 0, ""))')
        else:
            code.append(f"{indent}stack.append({expr})")
    return code


def _items_code(tokens: list, indent: str) -> list[str]:
    """Star-body tokens appended to ``items`` in document order (the
    caller pushes ``reversed(items)`` once, after the kid loop)."""
    code: list[str] = []
    for kind, expr in tokens:
        if kind == "expr":
            code.append(f'{indent}items.append((1, {expr}, 0, ""))')
        else:
            code.append(f"{indent}items.append({expr})")
    return code


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


_HEADER = '''\
"""Generated per-schema codec — map + serialize fused.

Generated by repro.engine.codegen; regenerate instead of editing.
Cached by (schema fingerprint, embedding fingerprint).
"""
# lint: codec-plane

from repro.engine.codegen import (
    ElementNode,
    EmbeddingError,
    TextNode,
    _blk,
    _codec_fallback,
    _esc,
    _pad,
)

'''


def generate_codec_source(instmap: InstMap, *,
                          source_fingerprint: str = "",
                          target_fingerprint: str = "",
                          embedding_fingerprint: str = "") -> str:
    """Emit the specialised codec module for one compiled embedding.

    Deterministic: equal embeddings produce byte-identical source.
    Raises :class:`CodecError` when the embedding runs on the
    reference path (no static shape to specialise).
    """
    mp: Optional[MappingProgram] = instmap._program
    if mp is None:
        raise CodecError(
            "embedding compiled onto the reference path; no static "
            "shape to generate a codec from")
    writer = _Writer()
    type_names = sorted(mp.programs)
    handler_names = {name: f"_h{index}"
                     for index, name in enumerate(type_names)}

    bodies: list[list[str]] = []
    for source_type in type_names:
        program = mp.programs[source_type]
        code = [f"def {handler_names[source_type]}(out, stack, node, "
                "depth):"]
        kind = program.kind
        if kind == "empty":
            # Children of Empty-typed elements are ignored entirely.
            parts = _ops_parts(program.ops, program.image)
            code.extend(_handler_code(_tokens(writer, parts, {}), "    "))
        elif kind == "str":
            code.append("    ch = node.children")
            code.append("    if not ch:")
            code.append('        v = ""')
            code.append("    elif len(ch) == 1 and isinstance(ch[0], "
                        "TextNode):")
            code.append("        v = ch[0].value")
            code.append("    else:")
            code.append("        raise EmbeddingError(")
            message = (f"<{source_type}> has P({source_type}) = str but "
                       "does not contain a single text value")
            code.append(f"            {message!r})")
            parts = _ops_parts(program.ops, program.image)
            code.extend(_handler_code(
                _tokens(writer, parts, {}, allow_copy=True), "    "))
        elif kind == "concat":
            code.append("    kids = [c for c in node.children "
                        "if isinstance(c, ElementNode)]")
            checks = [f"len(kids) == {len(program.expected)}"]
            checks += [f"kids[{index}].tag == {tag!r}"
                       for index, tag in enumerate(program.expected)]
            condition = " and ".join(checks)
            if len(condition) <= 68:
                code.append(f"    if ({condition}):")
            else:
                code.append("    if (")
                for check in checks[:-1]:
                    code.append(f"            {check} and")
                code.append(f"            {checks[-1]}):")
            kid_exprs = {index: f"kids[{index}]"
                         for index in range(len(program.expected))}
            parts = _ops_parts(program.ops, program.image)
            code.extend(_handler_code(
                _tokens(writer, parts, kid_exprs), "        "))
            code.append("    else:")
            code.append("        _codec_fallback(_IM, out, stack, node, "
                        f"depth, {program.image!r})")
        elif kind == "disj":
            code.append("    kids = [c for c in node.children "
                        "if isinstance(c, ElementNode)]")
            code.append("    if not kids:")
            empty_parts = _ops_parts(program.empty_ops, program.image)
            empty_code = _handler_code(
                _tokens(writer, empty_parts, {}), "        ")
            code.extend(empty_code if empty_code else ["        pass"])
            code.append("        return")
            code.append("    k = kids[0]")
            code.append("    t = k.tag")
            keyword = "if"
            for alt_tag, alt_ops in program.alts.items():
                code.append(f"    {keyword} t == {alt_tag!r}:")
                parts = _ops_parts(alt_ops, program.image)
                code.extend(_handler_code(
                    _tokens(writer, parts, {0: "k"}), "        "))
                keyword = "elif"
            code.append("    else:")
            code.append("        raise EmbeddingError(")
            code.append(f'            "instance edge ({source_type}, " + t '
                        '+ ", occ 1) is not covered"')
            code.append('            " by the embedding (document does not '
                        'conform to the source"')
            code.append('            " schema)")')
        else:  # star
            head, body_parts, tail, kid_rel = _star_layout(program)
            code.append("    kids = [c for c in node.children "
                        "if isinstance(c, ElementNode)]")
            code.append("    if not kids:")
            code.append("        _codec_fallback(_IM, out, stack, node, "
                        f"depth, {program.image!r})")
            code.append("        return")
            head_name = writer.block(head)
            tail_name = writer.block(tail)
            code.append(f"    out.append(_blk(_B{head_name[2:]}, "
                        f"{head_name}, depth))")
            code.append(f"    d = depth + {kid_rel}")
            code.append(f"    stack.append((1, _blk(_B{tail_name[2:]}, "
                        f'{tail_name}, depth), 0, ""))')
            if (len(body_parts) == 1 and body_parts[0][0] == "hole"
                    and body_parts[0][2] == LOOP_SLOT):
                tag = body_parts[0][3]
                code.append("    for k in reversed(kids):")
                code.append(f"        stack.append((0, k, d, {tag!r}))")
            else:
                body_tokens = _tokens(writer, body_parts,
                                      {LOOP_SLOT: "k"}, "d")
                code.append("    items = []")
                code.append("    for k in kids:")
                code.extend(_items_code(body_tokens, "        "))
                code.append("    stack.extend(reversed(items))")
        bodies.append(code)

    out: list[str] = [_HEADER]
    out.append(f"SOURCE_FINGERPRINT = {source_fingerprint!r}")
    out.append(f"TARGET_FINGERPRINT = {target_fingerprint!r}")
    out.append(f"EMBEDDING_FINGERPRINT = {embedding_fingerprint!r}")
    out.append(f"SOURCE_ROOT = {mp.source.root!r}")
    out.append(f"ROOT_IMAGE = {mp.root_image!r}")
    out.append("")
    out.append("_IM = None")
    out.append("")
    out.append("")
    out.append("def bind(instmap):")
    out.append('    """Late-bind the owning InstMap (reference fallback '
               'fragments)."""')
    out.append("    global _IM")
    out.append("    _IM = instmap")
    out.append("")
    for name, lines in writer.blocks:
        out.append("")
        if len(lines) == 1:
            out.append(f"{name} = ({lines[0]!r},)")
        else:
            out.append(f"{name} = (")
            for line in lines:
                out.append(f"    {line!r},")
            out.append(")")
        out.append(f"_B{name[2:]}" + " = {}")
    for code in bodies:
        out.append("")
        out.append("")
        out.extend(code)
    out.append("")
    out.append("")
    out.append("_H = {")
    for source_type in type_names:
        out.append(f"    {source_type!r}: {handler_names[source_type]},")
    out.append("}")
    out.append("_IMG = {")
    for source_type in type_names:
        out.append(f"    {source_type!r}: "
                   f"{mp.programs[source_type].image!r},")
    out.append("}")
    out.append("")
    return "\n".join(out)


# -- the hand-written driver over a generated module --------------------------

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
    handler itself (see :meth:`GeneratedCodec._frame`), so a streamed
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


class GeneratedCodec:
    """A compiled codec module bound to its InstMap.

    The module contributes one handler per source type; the dispatch
    loop and the event driver are written here once, so modules cached
    before the driver existed run through the same code."""

    __slots__ = ("source", "source_fingerprint", "target_fingerprint",
                 "embedding_fingerprint", "_handlers", "_images", "_root",
                 "_root_image", "_stars", "_empties")

    def __init__(self, source: str, namespace: dict,
                 instmap: InstMap) -> None:
        self.source = source
        self.source_fingerprint = namespace["SOURCE_FINGERPRINT"]
        self.target_fingerprint = namespace["TARGET_FINGERPRINT"]
        self.embedding_fingerprint = namespace["EMBEDDING_FINGERPRINT"]
        self._handlers = namespace["_H"]
        self._images = namespace["_IMG"]
        self._root = namespace["SOURCE_ROOT"]
        self._root_image = namespace["ROOT_IMAGE"]
        programs = instmap._program.programs
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


def compile_codec(source: str, instmap: InstMap) -> GeneratedCodec:
    """Compile codec source and bind it to ``instmap``."""
    fingerprint = ""
    for line in source.splitlines():
        if line.startswith("EMBEDDING_FINGERPRINT"):
            fingerprint = line.split("=", 1)[1].strip().strip("'\"")
            break
    namespace: dict = {}
    code = compile(source, f"<repro-codec {fingerprint[:12]}>", "exec")
    exec(code, namespace)
    namespace["bind"](instmap)
    return GeneratedCodec(source, namespace, instmap)


def generate_codec(instmap: InstMap, *, source_fingerprint: str = "",
                   target_fingerprint: str = "",
                   embedding_fingerprint: str = "") -> GeneratedCodec:
    """Generate, compile and bind in one step."""
    source = generate_codec_source(
        instmap, source_fingerprint=source_fingerprint,
        target_fingerprint=target_fingerprint,
        embedding_fingerprint=embedding_fingerprint)
    return compile_codec(source, instmap)
