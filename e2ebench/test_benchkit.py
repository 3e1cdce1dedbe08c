"""Unit tests of the benchmark's measurement helpers: the span recorder,
self time with overlapping children, the nearest-rank percentile with
its "at least 10 samples beyond" rule, and ``fail_frac`` counting."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from benchkit import (  # noqa: E402
    Span,
    SpanRecorder,
    Tally,
    beyond,
    covered,
    percentile,
    self_time_by_name,
    self_times,
    tail,
)


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_recorder_nests_spans_under_one_request(tmp_path):
    recorder = SpanRecorder(clock=_Clock([0.0, 1.0, 3.0, 4.0]))
    with recorder.span("replay", request=7) as root:
        with recorder.span("xtree.parse", request=7, parent=root):
            pass
    http = recorder.record("serve.http", 10.0, 12.0, request=7)
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["xtree.parse"].parent == root
    assert by_name["replay"].parent is None
    assert (by_name["xtree.parse"].start, by_name["xtree.parse"].end) == \
        (1.0, 3.0)
    assert (by_name["replay"].start, by_name["replay"].end) == (0.0, 4.0)
    assert {span.request for span in recorder.spans} == {7}
    assert len({span.span_id for span in recorder.spans}) == 3
    assert http == max(span.span_id for span in recorder.spans)

    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["span_id"] for row in rows] == sorted(
        row["span_id"] for row in rows)
    assert set(rows[0]) == {"span_id", "name", "start", "end", "request",
                            "parent"}


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 3), (5, 6)], 0, 10) == 3
    # overlapping children cover their common stretch once
    assert covered([(1, 5), (2, 6), (5.5, 7)], 0, 10) == 6
    # a child reaching outside its parent only counts inside it
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([(3, 3), (4, 2)], 0, 10) == 0


def test_self_time_subtracts_merged_children():
    spans = [
        Span(1, "evolution.evolve", 0.0, 10.0, request=1),
        Span(2, "matching.search", 1.0, 4.0, request=1, parent=1),
        Span(3, "core.translate", 3.0, 6.0, request=1, parent=1),
        Span(4, "engine.compile", 3.5, 5.0, request=1, parent=3),
        Span(5, "serve.decode", 0.0, 0.5, request=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # (1,4) ∪ (3,6) = 5 s
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0 - 1.5)   # grandchild only here
    assert own[4] == pytest.approx(1.5)
    totals = self_time_by_name(spans)
    # Concurrent siblings each keep their own time; the parent loses
    # their union once.
    assert sum(totals.values()) == pytest.approx(10.5 + 1.0)
    assert totals["evolution.evolve"] == pytest.approx(5.0)


def test_nearest_rank_percentile():
    samples = [float(v) for v in range(100, 0, -1)]  # unsorted input
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 100) == 100.0
    assert percentile([5.0], 50) == 5.0
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(1000, 99) == 10
    assert tail([float(v) for v in range(100)], 90) == 89.0
    assert tail([float(v) for v in range(99)], 90) is None
    assert tail([float(v) for v in range(999)], 99) is None
    assert tail([float(v) for v in range(1000)], 99) == 989.0
    assert tail([], 50) is None


def _oracle():
    from oracles import Oracle

    workload = SimpleNamespace(embeddings=[], documents=[], queries={},
                               evolve_cases=[])
    oracle = Oracle(workload)
    oracle.maps["doc"] = "<a/>\n"
    oracle.inverts["doc"] = (True, "<s/>\n")
    oracle.inverts["partial"] = (False, "InverseError: missing")
    return oracle


def _call(endpoint, doc):
    return SimpleNamespace(endpoint=endpoint,
                           info={"doc": SimpleNamespace(name=doc)})


def test_fail_frac_counts_every_kind_of_failure():
    oracle = _oracle()
    good_map = {"result": {"ok": True, "output": "<a/>\n"}}
    cases = [
        # (call, status, response, transport error) -> failed?
        (_call("/v1/map", "doc"), 200, good_map, None, False),
        (_call("/v1/map", "doc"), 200,
         {"result": {"ok": True, "output": "<b/>\n"}}, None, True),
        (_call("/v1/map", "doc"), 200,
         {"result": {"ok": False, "error": "boom"}}, None, True),
        (_call("/v1/map", "doc"), 500, None, "http-500", True),
        (_call("/v1/map", "doc"), 0, None, "transport-OSError", True),
        # an expected refusal with the reference error text passes
        (_call("/v1/invert", "partial"), 200,
         {"result": {"ok": False, "error": "InverseError: missing"}},
         None, False),
        (_call("/v1/invert", "partial"), 200,
         {"result": {"ok": False, "error": "InverseError: other"}},
         None, True),
        (_call("/v1/invert", "doc"), 200,
         {"result": {"ok": True, "output": "<s/>\n"}}, None, False),
        (_call("/v1/invert", "doc"), 200,
         {"result": {"ok": False, "error": "InverseError: missing"}},
         None, True),
    ]
    tally = Tally()
    for call, status, response, error, failed in cases:
        failure = oracle.judge(call, status, response, error)
        assert (failure is not None) == failed, (call, response)
        tally.record(failure)
    assert tally.attempted == len(cases)
    assert tally.failed == 6
    assert tally.fail_frac == pytest.approx(6 / 9)
    assert tally.reasons["map-bytes"] == 1
    assert tally.reasons["http-500"] == 1
    assert Tally().fail_frac == 0.0
