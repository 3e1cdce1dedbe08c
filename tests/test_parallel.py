"""The parallel batch runner: order, identity with serial runs, worker
warm starts, per-worker stats aggregation, and corpus streaming.

``jobs=2`` is enough to cross the process boundary; identity with the
``jobs=1`` in-process path is the property every assertion leans on.
"""

from __future__ import annotations

import json

import pytest

from repro.anfa.evaluate import evaluate_anfa_set
from repro.dtd.generate import InstanceGenerator
from repro.core.errors import EmbeddingError
from repro.engine import (
    CompiledEmbedding,
    CorpusDocument,
    CorpusError,
    Engine,
    ParallelRunner,
    iter_corpus,
    write_ndjson,
)
from repro.xtree.nodes import tree_equal
from repro.xtree.serialize import to_string


@pytest.fixture(scope="module")
def sigma(school):
    return school.sigma1


def _documents(school, count=12):
    return [InstanceGenerator(school.classes, seed=seed, max_depth=8,
                              star_mean=1.5).generate()
            for seed in range(count)]


def _corpus(school, count=12):
    return [CorpusDocument(f"doc{seed:03d}.xml", to_string(document))
            for seed, document in enumerate(_documents(school, count))]


# -- corpus I/O ---------------------------------------------------------------

def test_iter_corpus_directory_sorted(tmp_path, school):
    for document in _corpus(school, 5):
        (tmp_path / document.name).write_text(document.text)
    (tmp_path / "notes.txt").write_text("ignored")
    names = [d.name for d in iter_corpus(tmp_path)]
    assert names == sorted(names) and len(names) == 5


def test_iter_corpus_ndjson_roundtrip(tmp_path, school):
    corpus = _corpus(school, 5)
    path = tmp_path / "corpus.ndjson"
    assert write_ndjson(corpus, path) == 5
    assert [(d.name, d.text) for d in iter_corpus(path)] == \
        [(d.name, d.text) for d in corpus]


def test_iter_corpus_ndjson_bare_strings(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps("<a/>") + "\n\n" + json.dumps("<b/>") + "\n")
    docs = list(iter_corpus(path))
    assert [d.text for d in docs] == ["<a/>", "<b/>"]
    assert docs[0].name == "c-1"


def test_iter_corpus_errors(tmp_path):
    with pytest.raises(CorpusError):
        list(iter_corpus(tmp_path / "missing.xml"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CorpusError):
        list(iter_corpus(empty))
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{not json\n")
    with pytest.raises(CorpusError):
        list(iter_corpus(bad))
    bad_row = tmp_path / "row.ndjson"
    bad_row.write_text(json.dumps({"name": "x"}) + "\n")
    with pytest.raises(CorpusError):
        list(iter_corpus(bad_row))


# -- parallel identity --------------------------------------------------------

def test_map_documents_matches_serial_engine(school, sigma):
    documents = _documents(school)
    engine = Engine()
    baseline = [engine.apply_embedding(sigma, d) for d in documents]
    runner = ParallelRunner(jobs=2, chunk_size=3)
    results = runner.map_documents(sigma, documents)
    assert len(results) == len(documents)
    for fresh, served in zip(baseline, results):
        assert tree_equal(fresh.tree, served.tree)
        # idM survives pickling: same source ids, injective per result.
        assert set(served.idM.values()) == set(fresh.idM.values())
        assert served.source_to_target == {
            s: t for t, s in served.idM.items()}
    report = runner.last_report
    assert report.jobs == 2 and report.items == len(documents)
    assert report.chunks == 4


def test_map_corpus_outputs_identical_across_job_counts(tmp_path, school,
                                                        sigma):
    corpus = _corpus(school)
    store = tmp_path / "store"
    serial = ParallelRunner(jobs=1, store=store, chunk_size=3)
    baseline = serial.map_corpus(sigma, iter(corpus))
    parallel = ParallelRunner(jobs=2, store=store, chunk_size=3)
    outcomes = parallel.map_corpus(sigma, iter(corpus))
    assert [o.name for o in outcomes] == [d.name for d in corpus]
    assert all(o.ok for o in outcomes)
    assert [o.output for o in outcomes] == [o.output for o in baseline]
    # Workers warm-started from the store: zero compile misses.
    for report in (serial.last_report, parallel.last_report):
        assert report.stats["schemas"]["misses"] == 0
        assert report.stats["embeddings"]["misses"] == 0
        assert report.stats["embeddings"]["hits"] == len(corpus)


def test_map_corpus_streams_from_ndjson(tmp_path, school, sigma):
    corpus = _corpus(school, 6)
    path = tmp_path / "corpus.ndjson"
    write_ndjson(corpus, path)
    outcomes = ParallelRunner(jobs=2, chunk_size=2).map_corpus(sigma, path)
    baseline = ParallelRunner(jobs=1).map_corpus(sigma, iter(corpus))
    assert [o.output for o in outcomes] == [o.output for o in baseline]


def test_map_corpus_isolates_bad_documents(school, sigma):
    corpus = _corpus(school, 4)
    corpus.insert(2, CorpusDocument("bad-name.xml", "<1abc></1abc>"))
    corpus.insert(4, CorpusDocument("bad-entity.xml", "<db>&#xZZ;</db>"))
    outcomes = ParallelRunner(jobs=2, chunk_size=2).map_corpus(
        sigma, iter(corpus))
    assert [o.name for o in outcomes] == [d.name for d in corpus]
    failed = {o.name: o.output for o in outcomes if not o.ok}
    assert set(failed) == {"bad-name.xml", "bad-entity.xml"}
    # Failures carry the parse error, and never a bare ValueError repr.
    assert "XMLParseError" in failed["bad-name.xml"]
    assert sum(o.ok for o in outcomes) == 4


def test_map_corpus_reports_the_text_surface_error(school, sigma):
    """Batch map runs the text path ``repro map`` and ``/v1/map`` run,
    so outputs and error texts equal ``CompiledEmbedding.map_text``'s —
    also on a document with two mapping defects, where the codec's
    depth-first walk meets the bad <title> before the unknown <klass>."""
    two_defects = ("<db><class><cno>1</cno><title><x/></title>"
                   "<type><project>p</project></type></class><klass/></db>")
    corpus = _corpus(school, 2)
    corpus.append(CorpusDocument("two-defects.xml", two_defects))
    compiled = CompiledEmbedding(sigma)
    with pytest.raises(EmbeddingError) as raised:
        compiled.map_text(two_defects)
    assert "<title> has P(title) = str" in str(raised.value)
    for jobs in (1, 2):
        outcomes = ParallelRunner(jobs=jobs, chunk_size=2).map_corpus(
            sigma, iter(corpus))
        assert [o.output for o in outcomes[:2]] == [
            compiled.map_text(document.text) for document in corpus[:2]]
        assert not outcomes[2].ok
        assert outcomes[2].output == f"EmbeddingError: {raised.value}"


def test_translate_queries_matches_serial(school, sigma):
    queries = ["class/cno/text()", "class/title", "class[type/project]",
               "class/cno/text()"] * 2
    document = _documents(school, 1)[0]
    probe = Engine().apply_embedding(sigma, document).tree
    serial = ParallelRunner(jobs=1).translate_queries(sigma, queries)
    parallel = ParallelRunner(jobs=2, chunk_size=3).translate_queries(
        sigma, queries)
    assert len(parallel) == len(queries)
    for fresh, served in zip(serial, parallel):
        assert evaluate_anfa_set(served, probe) == \
            evaluate_anfa_set(fresh, probe)


def test_translate_outcomes_isolates_bad_queries(sigma):
    outcomes = ParallelRunner(jobs=2, chunk_size=2).translate_outcomes(
        sigma, ["class/cno/text()", "class[", "class/title"])
    assert [o.ok for o in outcomes] == [True, False, True]
    assert outcomes[1].error


def test_serial_runner_restores_worker_state(school, sigma):
    import repro.engine.parallel as parallel_module

    sentinel = object()
    parallel_module._WORKER = sentinel
    try:
        ParallelRunner(jobs=1).map_documents(sigma, _documents(school, 2))
        assert parallel_module._WORKER is sentinel
    finally:
        parallel_module._WORKER = None


def test_runner_without_store_compiles_once_per_worker(school, sigma):
    runner = ParallelRunner(jobs=2, chunk_size=2)
    runner.map_documents(sigma, _documents(school, 8))
    stats = runner.last_report.stats["embeddings"]
    # No store: each worker pays at most one compile miss, the rest hit.
    assert 1 <= stats["misses"] <= 2
    assert stats["hits"] == 8 - stats["misses"]
