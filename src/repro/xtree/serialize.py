"""Serialisation of XML trees back to text.

Rendering is iterative (explicit work stack over a single preallocated
output buffer): deep documents — thousands of nesting levels — must
serialize without touching the Python recursion limit, and the serving
daemon calls this once per mapped document.
"""

from __future__ import annotations

from repro.xtree.nodes import ElementNode, Node, TextNode

_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]


def escape_text(value: str) -> str:
    for raw, cooked in _ESCAPES:
        value = value.replace(raw, cooked)
    return value


def iter_serialized(node: Node, indent: int | None = 2,
                    show_ids: bool = False, depth: int = 0):
    """Yield the serialised pieces of ``node`` one line at a time.

    ``"\\n".join(iter_serialized(...))`` (or ``"".join`` for
    ``indent=None``) equals :func:`to_string` on the same node.  The
    ``depth`` offset renders a fragment as if it sat ``depth`` levels
    inside an enclosing document (the codec generator's static
    blocks), with every line padded accordingly — the fragment's bytes
    land identical to the same subtree serialised in place.
    """
    pieces: list[str] = []
    append = pieces.append
    # Work stack: (node, depth) to open, or (close_text, None) markers
    # pushed beneath a node's children.
    stack: list[tuple] = [(node, depth)]
    pad_cache: dict[int, str] = {}
    while stack:
        # Batched yields keep generator overhead off the per-line hot
        # path while still bounding the buffer for huge documents.
        if len(pieces) >= 64:
            yield from pieces
            pieces.clear()
        item, depth = stack.pop()
        if depth is None:
            append(item)  # prebuilt closing tag line
            continue
        if indent is not None:
            pad = pad_cache.get(depth)
            if pad is None:
                pad = " " * (indent * depth)
                pad_cache[depth] = pad
        else:
            pad = ""
        if isinstance(item, TextNode):
            append(pad + escape_text(item.value))
            continue
        assert isinstance(item, ElementNode)
        attr = f' id="{item.node_id}"' if show_ids else ""
        children = item.children
        if not children:
            append(f"{pad}<{item.tag}{attr}/>")
            continue
        only_text = True
        for child in children:
            if not isinstance(child, TextNode):
                only_text = False
                break
        if only_text:
            body = "".join(escape_text(child.value) for child in children)
            append(f"{pad}<{item.tag}{attr}>{body}</{item.tag}>")
            continue
        append(f"{pad}<{item.tag}{attr}>")
        stack.append((f"{pad}</{item.tag}>", None))
        for child in reversed(children):
            stack.append((child, depth + 1))
    yield from pieces


def to_string(node: Node, indent: int | None = 2, show_ids: bool = False) -> str:
    """Serialise a tree.

    ``indent=None`` produces a compact single-line form; otherwise a
    pretty-printed form with the given indent width.  ``show_ids`` adds
    ``id=`` pseudo-attributes — handy when inspecting ``idM`` mappings,
    mirroring how the paper suggests exposing ids via ``generate-id()``.
    """
    joiner = "\n" if indent is not None else ""
    return joiner.join(iter_serialized(node, indent, show_ids))
