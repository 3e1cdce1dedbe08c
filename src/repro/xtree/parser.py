"""A small XML document parser producing :class:`repro.xtree.ElementNode`.

Supports the subset of XML the paper's data model uses: elements, text,
comments, processing instructions (skipped), CDATA sections and the five
predefined entities.  Attributes are parsed and *rejected by default*
(DTD instances in the paper are attribute-free) unless
``allow_attributes=True``, in which case they are ignored.

Hand-rolled rather than ``xml.etree`` so that node ids are assigned at
parse time and whitespace handling matches the paper's element-only
content models (whitespace-only text between elements is dropped).

There is one scanner loop, :func:`_element_events`, which yields
SAX-style events.  :func:`parse_xml` is :func:`build_tree` over
:func:`iter_events`, and the codecs' event driver
(:mod:`repro.engine.codec`) maps text from the same events, so every
mode lexes, groups text and reports errors identically.
"""

from __future__ import annotations

from typing import Optional

from repro.xtree.nodes import ElementNode, TextNode

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}


class XMLParseError(ValueError):
    """Raised on malformed input, with position information.

    ``source`` only needs ``count``/``rfind`` for the line/column
    arithmetic, so the sliding-window buffer of the streaming scanner
    (:class:`_TextWindow`) reports identical positions to a full
    in-memory parse of the same document.
    """

    def __init__(self, message: str, pos: int, source) -> None:
        line = source.count("\n", 0, pos) + 1
        col = pos - source.rfind("\n", 0, pos)
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos


class _Scanner:
    """Cursor over the source string with primitive lexing helpers."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.source)

    def peek(self, width: int = 1) -> str:
        return self.source[self.pos:self.pos + width]

    def advance(self, width: int = 1) -> str:
        chunk = self.source[self.pos:self.pos + width]
        self.pos += width
        return chunk

    def skip_ws(self) -> None:
        while not self.eof() and self.source[self.pos].isspace():
            self.pos += 1

    def expect(self, literal: str) -> None:
        if not self.source.startswith(literal, self.pos):
            raise XMLParseError(f"expected {literal!r}", self.pos, self.source)
        self.pos += len(literal)

    def read_until(self, literal: str) -> str:
        end = self.source.find(literal, self.pos)
        if end < 0:
            raise XMLParseError(f"unterminated construct, missing {literal!r}",
                                self.pos, self.source)
        chunk = self.source[self.pos:end]
        self.pos = end + len(literal)
        return chunk

    def read_name(self) -> str:
        # The name alphabet matches the DTD parser's _NAME_RE
        # ([A-Za-z_][\w.-]*): a digit/'-'/'.'-leading tag could never be
        # declared by any schema, so the document parser rejects it too.
        start = self.pos
        first = self.peek()
        if not (first.isalpha() or first == "_"):
            raise XMLParseError("expected a name", self.pos, self.source)
        while (not self.eof()
               and (self.source[self.pos].isalnum()
                    or self.source[self.pos] in "_-.:")):
            self.pos += 1
        return self.source[start:self.pos]

    def read_text_run(self) -> str:
        """Consume character data up to (not including) the next ``<``
        — or to end of input, leaving the unterminated-element check to
        the caller's ``eof()`` test."""
        end = self.source.find("<", self.pos)
        if end < 0:
            end = len(self.source)
        chunk = self.source[self.pos:end]
        self.pos = end
        return chunk

    def discard(self) -> None:
        """Hint that everything before ``pos`` is consumed (no-op for
        the in-memory scanner; the streaming scanner drops the prefix)."""


class _TextWindow:
    """A sliding, str-like window over an incrementally read text file.

    Exposes exactly the string surface :class:`_Scanner` lexes against
    (indexing, slicing, ``find``, ``startswith``, and the newline
    ``count``/``rfind`` used for error positions), all in *absolute*
    document coordinates, while keeping only a bounded suffix of the
    document resident.  Newlines in the dropped prefix are counted so
    :class:`XMLParseError` line/column numbers match an in-memory parse
    byte for byte.
    """

    __slots__ = ("_handle", "_chunk", "_buf", "_base", "_eof",
                 "_nl_dropped", "_last_dropped_nl")

    def __init__(self, handle, chunk_chars: int = 1 << 16) -> None:
        self._handle = handle
        self._chunk = max(1024, int(chunk_chars))
        self._buf = ""
        self._base = 0
        self._eof = False
        self._nl_dropped = 0
        self._last_dropped_nl = -1

    def _fill(self, target: int) -> None:
        while not self._eof and self._base + len(self._buf) < target:
            chunk = self._handle.read(self._chunk)
            if not chunk:
                self._eof = True
                break
            self._buf += chunk

    def has(self, index: int) -> bool:
        self._fill(index + 1)
        return index < self._base + len(self._buf)

    def drop(self, upto: int) -> None:
        """Release the window prefix before ``upto`` (batched so the
        slice cost stays amortised-linear)."""
        cut = upto - self._base
        if cut < 4096:
            return
        dropped = self._buf[:cut]
        newlines = dropped.count("\n")
        if newlines:
            self._nl_dropped += newlines
            self._last_dropped_nl = self._base + dropped.rfind("\n")
        self._base = upto
        self._buf = self._buf[cut:]

    # -- the str surface the scanner uses (absolute coordinates) ----------
    def __len__(self) -> int:
        # Only exact once the file is exhausted; the scanner reaches
        # here solely through EOF paths (read_text_run after a failed
        # find), which is after ``_eof`` is set.
        return self._base + len(self._buf)

    def __getitem__(self, key):
        if isinstance(key, slice):
            stop = key.stop if key.stop is not None else (key.start or 0) + 1
            self._fill(stop)
            return self._buf[(key.start or 0) - self._base:
                             stop - self._base]
        self._fill(key + 1)
        return self._buf[key - self._base]

    def startswith(self, literal: str, start: int) -> bool:
        self._fill(start + len(literal))
        return self._buf.startswith(literal, start - self._base)

    def find(self, needle: str, start: int) -> int:
        search_from = start
        while True:
            rel = self._buf.find(needle, search_from - self._base)
            if rel >= 0:
                return self._base + rel
            if self._eof:
                return -1
            end = self._base + len(self._buf)
            # Re-scan only the seam where a needle could span chunks.
            search_from = max(start, end - len(needle) + 1)
            self._fill(end + self._chunk)

    def count(self, needle: str, start: int, stop: int) -> int:
        # Only used for "\n" counting in error positions; the dropped
        # prefix is always entirely before ``stop``.
        dropped = self._nl_dropped if needle == "\n" else 0
        return dropped + self._buf.count(needle, max(0, start - self._base),
                                         stop - self._base)

    def rfind(self, needle: str, start: int, stop: int) -> int:
        rel = self._buf.rfind(needle, max(0, start - self._base),
                              stop - self._base)
        if rel >= 0:
            return self._base + rel
        return self._last_dropped_nl if needle == "\n" else -1


class _StreamScanner(_Scanner):
    """A scanner over a file handle: same lexing, same error messages,
    but only a bounded window of the document is ever resident."""

    def __init__(self, handle, chunk_chars: int = 1 << 16) -> None:
        self.source = _TextWindow(handle, chunk_chars)  # type: ignore[assignment]
        self.pos = 0

    def eof(self) -> bool:
        return not self.source.has(self.pos)

    def discard(self) -> None:
        self.source.drop(self.pos)


def _decode_charref(name: str, scanner: _Scanner) -> str:
    """Decode ``#NNN`` / ``#xHHH`` — malformed or out-of-range references
    raise :class:`XMLParseError`, never a bare ``ValueError``."""
    digits = name[2:] if name[1:2] in ("x", "X") else name[1:]
    base = 16 if name[1:2] in ("x", "X") else 10
    try:
        code = int(digits, base)
    except ValueError:
        raise XMLParseError(f"malformed character reference &{name};",
                            scanner.pos, scanner.source) from None
    if not 0 <= code <= 0x10FFFF:
        raise XMLParseError(
            f"character reference &{name}; is outside the Unicode range",
            scanner.pos, scanner.source)
    if 0xD800 <= code <= 0xDFFF:
        # XML's Char production excludes surrogates; chr() would accept
        # them but the resulting string cannot be UTF-8 encoded, so a
        # write of the mapped output would crash far from the parse.
        raise XMLParseError(
            f"character reference &{name}; is a surrogate code point",
            scanner.pos, scanner.source)
    return chr(code)


def _decode_entities(raw: str, scanner: _Scanner) -> str:
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i)
        if end < 0:
            raise XMLParseError("unterminated entity reference",
                                scanner.pos, scanner.source)
        name = raw[i + 1:end]
        if name.startswith("#"):
            out.append(_decode_charref(name, scanner))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XMLParseError(f"unknown entity &{name};",
                                scanner.pos, scanner.source)
        i = end + 1
    return "".join(out)


def _skip_misc(scanner: _Scanner) -> None:
    """Skip comments, PIs, doctype declarations and whitespace."""
    while True:
        scanner.skip_ws()
        if scanner.peek(4) == "<!--":
            scanner.advance(4)
            scanner.read_until("-->")
        elif scanner.peek(2) == "<?":
            scanner.advance(2)
            scanner.read_until("?>")
        elif scanner.peek(2) == "<!" and scanner.peek(9).upper() == "<!DOCTYPE":
            # Skip a doctype, tracking bracket nesting for internal subsets.
            depth = 0
            while not scanner.eof():
                ch = scanner.advance()
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                elif ch == ">" and depth <= 0:
                    break
        else:
            return


def _parse_attributes(scanner: _Scanner, allow: bool) -> None:
    """Consume attributes inside a start tag (ignored or rejected)."""
    while True:
        scanner.skip_ws()
        ch = scanner.peek()
        if ch in (">", "/", ""):
            return
        name = scanner.read_name()
        scanner.skip_ws()
        scanner.expect("=")
        scanner.skip_ws()
        quote = scanner.advance()
        if quote not in ("'", '"'):
            raise XMLParseError("expected quoted attribute value",
                                scanner.pos, scanner.source)
        scanner.read_until(quote)
        if not allow:
            raise XMLParseError(
                f"attribute {name!r} not supported by the paper's data model "
                "(pass allow_attributes=True to ignore attributes)",
                scanner.pos, scanner.source)


def _flush_value(buffer: list[tuple[str, bool]], scanner: _Scanner,
                 keep_whitespace: bool) -> Optional[str]:
    """Decode the buffered text run into its final value, or ``None``.

    Text segments are (content, is_cdata) — CDATA bypasses entity
    decoding; contiguous segments are grouped so entity references
    spanning several character chunks decode as one run.
    """
    if not buffer:
        return None
    groups: list[tuple[str, bool]] = []
    for chunk, is_cdata in buffer:
        if groups and groups[-1][1] == is_cdata:
            groups[-1] = (groups[-1][0] + chunk, is_cdata)
        else:
            groups.append((chunk, is_cdata))
    decoded = "".join(
        chunk if is_cdata else _decode_entities(chunk, scanner)
        for chunk, is_cdata in groups)
    has_cdata = any(is_cdata for _chunk, is_cdata in buffer)
    buffer.clear()
    if decoded and (keep_whitespace or has_cdata or decoded.strip()):
        return (decoded if keep_whitespace or has_cdata
                else decoded.strip())
    return None


def _open_tag(scanner: _Scanner, allow_attributes: bool) -> tuple[str, bool]:
    """Lex a start tag; returns (tag, closed) — closed for ``<a/>``."""
    scanner.expect("<")
    tag = scanner.read_name()
    _parse_attributes(scanner, allow_attributes)
    if scanner.peek(2) == "/>":
        scanner.advance(2)
        return tag, True
    scanner.expect(">")
    return tag, False


# -- SAX-style event mode -----------------------------------------------------
# _element_events is the only scanner loop.  parse_xml builds trees from
# its events; the codecs' event driver (repro.engine.codec)
# maps straight from them, one star instance at a time, never
# materialising the whole source tree.  A malformed document therefore
# raises the same XMLParseError (message, line, column) in either mode.

#: Event tuples: ("start", tag) / ("text", value) / ("end", tag).
Event = tuple[str, str]


def _element_events(scanner: _Scanner, allow_attributes: bool,
                    keep_whitespace: bool):
    tag, closed = _open_tag(scanner, allow_attributes)
    yield ("start", tag)
    if closed:
        yield ("end", tag)
        return
    # One shared text buffer is enough: it is flushed at every element
    # boundary, comment and PI, so its contents always belong to the
    # innermost open element.  CDATA and character runs accumulate in it
    # and decode as one text value.
    stack: list[str] = [tag]
    buffer: list[tuple[str, bool]] = []
    while stack:
        if scanner.eof():
            raise XMLParseError(f"unterminated element <{stack[-1]}>",
                                scanner.pos, scanner.source)
        if scanner.peek() != "<":
            buffer.append((scanner.read_text_run(), False))
            continue
        if scanner.peek(9) == "<![CDATA[":
            scanner.advance(9)
            buffer.append((scanner.read_until("]]>"), True))
            continue
        # Every other markup ends the current text run.
        value = _flush_value(buffer, scanner, keep_whitespace)
        if value is not None:
            yield ("text", value)
        if scanner.peek(2) == "</":
            scanner.advance(2)
            close = scanner.read_name()
            if close != stack[-1]:
                raise XMLParseError(
                    f"mismatched end tag </{close}>, expected "
                    f"</{stack[-1]}>", scanner.pos, scanner.source)
            scanner.skip_ws()
            scanner.expect(">")
            yield ("end", stack.pop())
            scanner.discard()
        elif scanner.peek(4) == "<!--":
            scanner.advance(4)
            scanner.read_until("-->")
        elif scanner.peek(2) == "<?":
            scanner.advance(2)
            scanner.read_until("?>")
        else:
            tag, closed = _open_tag(scanner, allow_attributes)
            yield ("start", tag)
            if closed:
                yield ("end", tag)
            else:
                stack.append(tag)


def _document_events(scanner: _Scanner, allow_attributes: bool,
                     keep_whitespace: bool):
    _skip_misc(scanner)
    if scanner.eof() or scanner.peek() != "<":
        raise XMLParseError("expected a root element", scanner.pos,
                            scanner.source)
    yield from _element_events(scanner, allow_attributes, keep_whitespace)
    _skip_misc(scanner)
    if not scanner.eof():
        raise XMLParseError("trailing content after the root element",
                            scanner.pos, scanner.source)


def iter_events(source: str, allow_attributes: bool = False,
                keep_whitespace: bool = False):
    """Stream a document string as SAX-style events.

    >>> list(iter_events("<a><b>x</b></a>"))
    [('start', 'a'), ('start', 'b'), ('text', 'x'), ('end', 'b'), ('end', 'a')]
    """
    return _document_events(_Scanner(source), allow_attributes,
                            keep_whitespace)


def iter_events_path(path, allow_attributes: bool = False,
                     keep_whitespace: bool = False,
                     chunk_chars: int = 1 << 16):
    """Stream a document *file* as events, reading it incrementally.

    Only a bounded window of the file is resident (the consumed prefix
    is dropped as end-tag events are emitted), so arbitrarily large
    documents parse in memory bounded by their largest text run plus
    the window chunk size.  Errors carry the same message/line/column
    as an in-memory parse of the same file.
    """
    def _generate():
        with open(path, "r") as handle:
            scanner = _StreamScanner(handle, chunk_chars)
            yield from _document_events(scanner, allow_attributes,
                                        keep_whitespace)
    return _generate()


def build_tree(events) -> ElementNode:
    """Materialise one element's worth of events into a tree.

    The inverse of :func:`iter_events`.  Node ids are allocated in
    event order, i.e. document preorder.  Consumption stops at the end
    event that closes the first element, so over a shared iterator the
    next event is left for the caller.
    """
    root: Optional[ElementNode] = None
    stack: list[ElementNode] = []
    for event in events:
        kind = event[0]
        if kind == "start":
            node = ElementNode(event[1])
            if stack:
                stack[-1].append(node)
            elif root is None:
                root = node
            stack.append(node)
        elif kind == "text":
            stack[-1].append(TextNode(event[1]))
        else:  # end
            stack.pop()
            if not stack:
                break
    if root is None:
        raise ValueError("event stream contained no element")
    return root


def parse_xml(source: str, allow_attributes: bool = False,
              keep_whitespace: bool = False) -> ElementNode:
    """Parse an XML document string into an element tree.

    >>> t = parse_xml("<class><cno>CS331</cno><title>DB</title></class>")
    >>> t.tag, t.children_tagged("cno")[0].child_text()
    ('class', 'CS331')
    """
    events = iter_events(source, allow_attributes, keep_whitespace)
    root = build_tree(events)
    for _ in events:  # raise on trailing content after the root
        pass
    return root
