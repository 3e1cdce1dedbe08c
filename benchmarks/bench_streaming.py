"""Streaming document plane: bounded memory on documents that never
fit in RAM comfortably.

``repro.engine.stream`` feeds the generated codec's event driver from a
file: star frames emit head/instances/tail live, and each star instance
is built, mapped and released, so only one instance is ever buffered.
This bench machine-checks the constant-memory claim — it synthesises a
large conforming document *incrementally* to a temp file (the document
never exists in memory), streams it through the school σ1 mapping into
a byte-counting sink, and asserts the process RSS high-water delta
stays a small fraction of the document size.  Byte-identity against
the interpreter's buffered path is checked at a size where buffering
is cheap, streaming the document both as a string and from a file that
spans several reads.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.engine.compiled import CompiledEmbedding
from repro.engine.stream import StreamStats, iter_mapped
from repro.workloads.library import school_example
from repro.xtree.parser import _READ_CHARS, parse_xml
from repro.xtree.serialize import to_string

#: One source fragment of the school classes schema (~120 bytes); the
#: big document is ``<db>`` + N of these + ``</db>``, written in chunks.
_FRAGMENT = ("<class><cno>CS{index}</cno><title>Course {index}</title>"
             "<type><project>term project {index}</project></type></class>")
#: Enough fragments that the identity document spans four reads of the
#: file scanner, so its output is compared across read seams.
_IDENTITY_FRAGMENTS = 4 * _READ_CHARS // len(_FRAGMENT) + 1


def _write_document(path: str, target_bytes: int) -> int:
    """Incrementally write a conforming document of ``>= target_bytes``;
    returns the byte count.  Only one small chunk is in memory at once."""
    written = 0
    with open(path, "w") as handle:
        written += handle.write("<db>")
        index = 0
        while written < target_bytes:
            chunk = "".join(_FRAGMENT.format(index=i)
                            for i in range(index, index + 512))
            index += 512
            written += handle.write(chunk)
        written += handle.write("</db>")
    return written


def _rss_peak_kb() -> int:
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _stream_document(compiled: CompiledEmbedding,
                     path: str) -> tuple[StreamStats, float]:
    stats = StreamStats()
    started = time.perf_counter()
    for _chunk in iter_mapped(compiled, path=path, stats=stats):
        pass  # byte-counting sink: chars_out accumulates in stats
    return stats, time.perf_counter() - started


def _identity_check(compiled: CompiledEmbedding, n_fragments: int) -> bool:
    """Streamed output == buffered output, at bufferable scale, with the
    document streamed both as a string and from a file."""
    text = ("<db>" + "".join(_FRAGMENT.format(index=i)
                             for i in range(n_fragments)) + "</db>")
    buffered = to_string(compiled.apply(parse_xml(text)).tree)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ident-") as tmp:
        path = os.path.join(tmp, "doc.xml")
        with open(path, "w") as handle:
            handle.write(text)
        from_file = "".join(iter_mapped(compiled, path=path))
    return "".join(iter_mapped(compiled, text=text)) == buffered == from_file


@pytest.mark.parametrize("n_fragments", [1, 37, _IDENTITY_FRAGMENTS])
def test_stream_matches_buffered(n_fragments):
    compiled = CompiledEmbedding(school_example().sigma1)
    assert _identity_check(compiled, n_fragments)


def main() -> int:
    import benchlib

    parser = benchlib.make_parser(__doc__)
    args = parser.parse_args()
    # Smoke keeps CI quick; full mode is the actual 50MB-class claim.
    target_bytes = 200_000 if args.smoke else 50_000_000

    compiled = CompiledEmbedding(school_example().sigma1)
    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as tmp:
        doc_path = os.path.join(tmp, "big.xml")
        doc_bytes = _write_document(doc_path, target_bytes)
        rss_before_kb = _rss_peak_kb()
        stats, wall = _stream_document(compiled, doc_path)
        rss_after_kb = _rss_peak_kb()
    # After the RSS probe: the buffered reference tree must not raise
    # the high-water mark the streamer is measured against.
    identical = _identity_check(compiled, _IDENTITY_FRAGMENTS)

    delta_kb = rss_after_kb - rss_before_kb
    # The constant-memory gate: the streamer may grow the high-water
    # mark by at most a quarter of the document it mapped (in practice
    # the delta is near zero — memory is bounded by one fragment).
    bounded = delta_kb * 1024 < 0.25 * doc_bytes
    print(f"[stream] doc={doc_bytes} bytes -> {stats.chars_out} chars "
          f"in {wall:.2f}s; frames={stats.frames_streamed} "
          f"buffered_fragments={stats.fragments_buffered} "
          f"rss_delta={delta_kb}KiB (bound {0.25 * doc_bytes / 1024:.0f}KiB)")

    result = benchlib.record(
        "streaming", args,
        ops_per_sec=doc_bytes / wall if wall > 0 else 0.0,  # input bytes/s
        wall_time_s=wall,
        correct=(identical and bounded and not stats.whole_document
                 and stats.frames_streamed > 0),
        extra={"doc_bytes": doc_bytes,
               "chars_out": stats.chars_out,
               "frames_streamed": stats.frames_streamed,
               "fragments_buffered": stats.fragments_buffered,
               "rss_before_kb": rss_before_kb,
               "rss_delta_kb": delta_kb,
               "identical_at_small_scale": identical})
    return benchlib.finish(result, args)


if __name__ == "__main__":
    raise SystemExit(main())
