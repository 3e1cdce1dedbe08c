"""A small XML document parser producing :class:`repro.xtree.ElementNode`.

Supports the subset of XML the paper's data model uses: elements, text,
comments, processing instructions (skipped), CDATA sections and the five
predefined entities.  Attributes are parsed and *rejected by default*
(DTD instances in the paper are attribute-free) unless
``allow_attributes=True``, in which case they are ignored.

Hand-rolled rather than ``xml.etree`` so that node ids are assigned at
parse time and whitespace handling matches the paper's element-only
content models (whitespace-only text between elements is dropped).

There is one scanner, :class:`_Scanner`, over one resident string: the
whole document for :func:`iter_events`, a window of the file that
refills at its end for :func:`iter_events_path`.  Line endings are
normalised to ``\\n`` on both inputs (XML 1.0 §2.11), so a string and a
file holding the same document give the same events and errors.

There is one scanner loop, :func:`_element_events`, which yields
SAX-style events.  Text runs end at ``str.find("<")``; a plain start or
end tag is one compiled-pattern match or ``startswith``; attributes,
doctypes and malformed markup take the step-by-step helpers, which word
every error.  :func:`parse_xml` is :func:`build_tree` over
:func:`iter_events`, and the codecs' event driver
(:mod:`repro.engine.codec`) maps text from the same events, so every
mode lexes, groups text and reports errors identically.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.xtree.nodes import ElementNode, TextNode

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

#: Characters :func:`iter_events_path` reads per refill of its window.
_READ_CHARS = 1 << 13

# The name alphabet matches the DTD parser's _NAME_RE ([A-Za-z_][\w.-]*):
# a digit/'-'/'.'-leading tag could never be declared by any schema, so
# the document parser rejects it too.  ``\w`` is exactly ``isalnum()``
# plus ``_``.  The first character is tested with ``isalpha()``, since
# ``[^\W\d]`` would also admit non-decimal numerics such as ``²``.
_NAME_REST = re.compile(r"[\w.:-]*")
_SPACE = re.compile(r"\s*")
#: An attribute-free ``<name>`` or ``<name/>`` with an ASCII first
#: character; every other start tag takes :func:`_open_tag`.
_PLAIN_TAG = re.compile(r"<([A-Za-z_][\w.:-]*)(/?)>")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")


class XMLParseError(ValueError):
    """Raised on malformed input, with position information.

    ``pos`` is the absolute character offset into the document (after
    line-ending normalisation); the message ends with its line and
    column.
    """

    def __init__(self, message: str, pos: int, line: int,
                 column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.pos = pos


class _Scanner:
    """A cursor over one resident string.

    ``buf[pos:]`` is the unread input.  For a string, ``buf`` is the
    whole document.  For a file it is a window: :meth:`more` drops the
    consumed prefix before ``pos`` and appends one read.  ``base`` is
    the absolute offset of ``buf[0]`` and the dropped newlines are
    counted, so error lines and columns are those of the whole
    document.  The helpers read on at the window's end, so no construct
    is misjudged at a read seam.
    """

    __slots__ = ("buf", "pos", "base", "handle", "lines", "last_nl")

    def __init__(self, text: str, handle=None) -> None:
        self.buf = text
        self.pos = 0
        self.base = 0
        self.handle = handle
        self.lines = 0      # newlines dropped from the window
        self.last_nl = -1   # absolute offset of the last one

    def more(self) -> bool:
        """Append one read to the window; False at end of input."""
        if self.handle is None:
            return False
        chunk = self.handle.read(_READ_CHARS)
        if not chunk:
            self.handle = None
            return False
        buf, pos = self.buf, self.pos
        newlines = buf.count("\n", 0, pos)
        if newlines:
            self.lines += newlines
            self.last_nl = self.base + buf.rfind("\n", 0, pos)
        self.base += pos
        self.pos = 0
        self.buf = buf[pos:] + chunk
        return True

    def need(self, width: int) -> None:
        """Make ``width`` characters after ``pos`` resident (or all that
        is left of the input)."""
        while len(self.buf) - self.pos < width and self.more():
            pass

    def find(self, needle: str) -> int:
        """Index in ``buf`` of ``needle`` at or after ``pos``; -1 if the
        input ends first."""
        at = self.buf.find(needle, self.pos)
        while at < 0:
            seen = max(0, len(self.buf) - self.pos - len(needle) + 1)
            if not self.more():
                return -1
            at = self.buf.find(needle, self.pos + seen)
        return at

    def error(self, message: str) -> XMLParseError:
        buf, pos = self.buf, self.pos
        newline = buf.rfind("\n", 0, pos)
        column = (pos - newline if newline >= 0
                  else self.base + pos - self.last_nl)
        return XMLParseError(message, self.base + pos,
                             self.lines + buf.count("\n", 0, pos) + 1,
                             column)

    def startswith(self, literal: str) -> bool:
        self.need(len(literal))
        return self.buf.startswith(literal, self.pos)

    def skip_ws(self) -> None:
        while True:
            self.pos = _SPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return

    def expect(self, literal: str) -> None:
        if not self.startswith(literal):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def read_until(self, literal: str) -> str:
        end = self.find(literal)
        if end < 0:
            raise self.error(f"unterminated construct, missing {literal!r}")
        chunk = self.buf[self.pos:end]
        self.pos = end + len(literal)
        return chunk

    def read_name(self) -> str:
        self.need(1)
        first = self.buf[self.pos:self.pos + 1]
        if not (first.isalpha() or first == "_"):
            raise self.error("expected a name")
        end = _NAME_REST.match(self.buf, self.pos + 1).end()
        while end == len(self.buf) and self.more():
            end = _NAME_REST.match(self.buf, self.pos + 1).end()
        name = self.buf[self.pos:end]
        self.pos = end
        return name


def _decode_charref(name: str, scanner: _Scanner) -> str:
    """Decode ``#NNN`` / ``#xHHH`` — malformed or out-of-range references
    raise :class:`XMLParseError`, never a bare ``ValueError``."""
    digits = name[2:] if name[1:2] in ("x", "X") else name[1:]
    base = 16 if name[1:2] in ("x", "X") else 10
    try:
        code = int(digits, base)
    except ValueError:
        raise scanner.error(
            f"malformed character reference &{name};") from None
    if not 0 <= code <= 0x10FFFF:
        raise scanner.error(
            f"character reference &{name}; is outside the Unicode range")
    if 0xD800 <= code <= 0xDFFF:
        # XML's Char production excludes surrogates; chr() would accept
        # them but the resulting string cannot be UTF-8 encoded, so a
        # write of the mapped output would crash far from the parse.
        raise scanner.error(
            f"character reference &{name}; is a surrogate code point")
    return chr(code)


def _decode_entities(raw: str, scanner: _Scanner) -> str:
    amp = raw.find("&")
    if amp < 0:
        return raw
    out: list[str] = []
    done = 0
    while amp >= 0:
        end = raw.find(";", amp)
        if end < 0:
            raise scanner.error("unterminated entity reference")
        name = raw[amp + 1:end]
        if name.startswith("#"):
            entity = _decode_charref(name, scanner)
        elif name in _ENTITIES:
            entity = _ENTITIES[name]
        else:
            raise scanner.error(f"unknown entity &{name};")
        out.append(raw[done:amp])
        out.append(entity)
        done = end + 1
        amp = raw.find("&", done)
    out.append(raw[done:])
    return "".join(out)


def _skip_misc(scanner: _Scanner) -> None:
    """Skip comments, PIs, doctype declarations and whitespace."""
    while True:
        scanner.skip_ws()
        scanner.need(9)
        if scanner.startswith("<!--"):
            scanner.pos += 4
            scanner.read_until("-->")
        elif scanner.startswith("<?"):
            scanner.pos += 2
            scanner.read_until("?>")
        elif scanner.buf[scanner.pos:scanner.pos + 9].upper() == "<!DOCTYPE":
            _skip_doctype(scanner)
        else:
            return


def _skip_doctype(scanner: _Scanner) -> None:
    """Skip a doctype, tracking bracket nesting for internal subsets;
    an unterminated one runs to the end of input."""
    depth = 0
    while True:
        mark = _DOCTYPE_MARK.search(scanner.buf, scanner.pos)
        if mark is None:
            scanner.pos = len(scanner.buf)
            if not scanner.more():
                return
            continue
        scanner.pos = mark.end()
        char = mark.group()
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif depth <= 0:
            return


def _parse_attributes(scanner: _Scanner, allow: bool) -> None:
    """Consume attributes inside a start tag (ignored or rejected)."""
    while True:
        scanner.skip_ws()
        if scanner.pos == len(scanner.buf) \
                or scanner.buf[scanner.pos] in ">/":
            return
        name = scanner.read_name()
        scanner.skip_ws()
        scanner.expect("=")
        scanner.skip_ws()
        scanner.need(1)
        quote = scanner.buf[scanner.pos:scanner.pos + 1]
        scanner.pos += 1
        if quote not in ("'", '"'):
            raise scanner.error("expected quoted attribute value")
        scanner.read_until(quote)
        if not allow:
            raise scanner.error(
                f"attribute {name!r} not supported by the paper's data model "
                "(pass allow_attributes=True to ignore attributes)")


def _text_value(texts: list[tuple[str, bool]], scanner: _Scanner,
                keep_whitespace: bool) -> Optional[str]:
    """Decode the buffered text run into its final value, or ``None``.

    Segments are (content, is_cdata): CDATA bypasses entity decoding,
    and every other segment is a whole character run (two runs are
    always split by CDATA), so no entity reference spans segments.
    """
    has_cdata = False
    parts = []
    for chunk, is_cdata in texts:
        if is_cdata:
            has_cdata = True
            parts.append(chunk)
        else:
            parts.append(_decode_entities(chunk, scanner))
    texts.clear()
    value = "".join(parts)
    if not (keep_whitespace or has_cdata):
        value = value.strip()
    return value or None


def _open_tag(scanner: _Scanner, allow_attributes: bool) -> tuple[str, bool]:
    """Lex a start tag; returns (tag, closed) — closed for ``<a/>``."""
    scanner.expect("<")
    tag = scanner.read_name()
    _parse_attributes(scanner, allow_attributes)
    if scanner.startswith("/>"):
        scanner.pos += 2
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
    closers: list[str] = [f"</{tag}>"]
    texts: list[tuple[str, bool]] = []
    while stack:
        at = scanner.find("<")
        buf, pos = scanner.buf, scanner.pos
        if at != pos:
            if at < 0:
                scanner.pos = len(buf)
                raise scanner.error(f"unterminated element <{stack[-1]}>")
            texts.append((buf[pos:at], False))
            scanner.pos = pos = at
        # Read on to the markup's '>': no prefix tested below contains
        # one, so each test is exact even at a window seam.
        if buf.find(">", pos) < 0:
            scanner.find(">")
            buf, pos = scanner.buf, scanner.pos
        if buf.startswith("<![CDATA[", pos):
            scanner.pos = pos + 9
            texts.append((scanner.read_until("]]>"), True))
            continue
        # Every other markup ends the current text run.
        if texts:
            value = _text_value(texts, scanner, keep_whitespace)
            if value is not None:
                yield ("text", value)
        if buf.startswith(closers[-1], pos):
            scanner.pos = pos + len(closers.pop())
            yield ("end", stack.pop())
            continue
        plain = _PLAIN_TAG.match(buf, pos)
        if plain is not None:
            scanner.pos = plain.end()
            tag = plain.group(1)
            yield ("start", tag)
            if plain.group(2):
                yield ("end", tag)
            else:
                stack.append(tag)
                closers.append(f"</{tag}>")
        elif buf.startswith("</", pos):
            scanner.pos = pos + 2
            close = scanner.read_name()
            if close != stack[-1]:
                raise scanner.error(f"mismatched end tag </{close}>, "
                                    f"expected </{stack[-1]}>")
            scanner.skip_ws()
            scanner.expect(">")
            closers.pop()
            yield ("end", stack.pop())
        elif buf.startswith("<!--", pos):
            scanner.pos = pos + 4
            scanner.read_until("-->")
        elif buf.startswith("<?", pos):
            scanner.pos = pos + 2
            scanner.read_until("?>")
        else:
            tag, closed = _open_tag(scanner, allow_attributes)
            yield ("start", tag)
            if closed:
                yield ("end", tag)
            else:
                stack.append(tag)
                closers.append(f"</{tag}>")


def _document_events(scanner: _Scanner, allow_attributes: bool,
                     keep_whitespace: bool):
    _skip_misc(scanner)
    if not scanner.startswith("<"):
        raise scanner.error("expected a root element")
    yield from _element_events(scanner, allow_attributes, keep_whitespace)
    _skip_misc(scanner)
    if scanner.pos < len(scanner.buf):
        raise scanner.error("trailing content after the root element")


def iter_events(source: str, allow_attributes: bool = False,
                keep_whitespace: bool = False):
    """Stream a document string as SAX-style events.

    ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as they do from a file.

    >>> list(iter_events("<a><b>x</b></a>"))
    [('start', 'a'), ('start', 'b'), ('text', 'x'), ('end', 'b'), ('end', 'a')]
    """
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    return _document_events(_Scanner(source), allow_attributes,
                            keep_whitespace)


def iter_events_path(path, allow_attributes: bool = False,
                     keep_whitespace: bool = False):
    """Stream a document *file* as events, reading it incrementally.

    Only a window of the file is resident (the consumed prefix is
    dropped at each read), so arbitrarily large documents parse in
    memory bounded by their largest text run or markup plus one read.
    Events and errors (message, line, column) equal those of
    :func:`iter_events` on the file's text.
    """
    def _generate():
        with open(path, "r") as handle:
            scanner = _Scanner("", handle)
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
