"""Streaming ``σd`` entry points — chunked and atomic-file output.

The mapping itself is the codec's event driver
(:meth:`repro.engine.codec.Codec.iter_text`): star spines stream
instance by instance off :func:`repro.xtree.parser.iter_events` /
``iter_events_path``, each instance is built, mapped by the codec's
handler closures and released, so peak memory is bounded by the
largest star instance rather than the document.  This module only
feeds it a text or a file and hands the output on as chunks, to a
callback, or into a file.

Embeddings without a codec (reference-path or refused shapes) are
mapped whole by the interpreter, byte-identically.  Errors are those
of parsing the whole document and then mapping it: a malformed
document raises ``parse_xml``'s ``XMLParseError`` even when a mapping
error comes earlier in it.  :func:`stream_map_to_path` writes through a
temp file + ``os.replace`` so an error leaves no partial output.
"""
# lint: stream-plane

from __future__ import annotations

import os
import tempfile
from typing import Callable, Iterator, Optional

from repro.engine.codec import StreamStats
from repro.engine.compiled import CompiledEmbedding
from repro.xtree.parser import build_tree, iter_events, iter_events_path
from repro.xtree.serialize import to_string

__all__ = ["StreamStats", "iter_mapped", "stream_map", "stream_map_to_path"]


def _events_for(text: Optional[str], path) -> Iterator:
    if (text is None) == (path is None):
        raise ValueError("stream_map: pass exactly one of text= or path=")
    if text is not None:
        return iter_events(text)
    return iter_events_path(path)


def _interpreted(compiled: CompiledEmbedding, events: Iterator,
                 stats: StreamStats) -> Iterator[str]:
    stats.whole_document = True
    root = build_tree(events)
    for _ in events:  # raise on trailing content after the root
        pass
    yield to_string(compiled.apply(root).tree)


def iter_mapped(compiled: CompiledEmbedding, *, text: Optional[str] = None,
                path=None,
                stats: Optional[StreamStats] = None) -> Iterator[str]:
    """Yield ``σd(document)`` as serialized text chunks.

    Concatenating the chunks equals ``compiled.map_text(text)`` byte
    for byte.  ``stats`` (optional) is filled in as the stream
    progresses.
    """
    if stats is None:
        stats = StreamStats()
    events = _events_for(text, path)
    codec = compiled.codec
    chunks = (codec.iter_text(events, stats) if codec is not None
              else _interpreted(compiled, events, stats))
    separator = ""
    for chunk in chunks:
        chunk = separator + chunk
        separator = "\n"
        stats.chars_out += len(chunk)
        yield chunk


def stream_map(compiled: CompiledEmbedding, *, text: Optional[str] = None,
               path=None, write: Callable[[str], object]) -> StreamStats:
    """Map a document and push the serialized output through ``write``.

    The ``write`` callback receives text chunks as they are produced;
    on a malformed document a chunk prefix may already have been
    written when the error raises — use :func:`stream_map_to_path` for
    all-or-nothing file output.
    """
    stats = StreamStats()
    for chunk in iter_mapped(compiled, text=text, path=path, stats=stats):
        write(chunk)
    return stats


def stream_map_to_path(compiled: CompiledEmbedding, out_path, *,
                       text: Optional[str] = None,
                       path=None) -> StreamStats:
    """Stream-map into ``out_path`` atomically (temp file +
    ``os.replace``): a mid-document error leaves no partial output."""
    out_path = os.fspath(out_path)
    directory = os.path.dirname(out_path) or "."
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".repro-stream-", suffix=".tmp",
        delete=False)
    try:
        with handle:
            stats = stream_map(compiled, text=text, path=path,
                               write=handle.write)
            handle.write("\n")
        os.replace(handle.name, out_path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return stats
