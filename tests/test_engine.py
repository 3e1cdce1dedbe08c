"""Cache correctness of the compilation engine (repro.engine).

The contract under test:

* equal inputs hit the caches (observed via the Engine's stats
  counters), including *rebuilt* equal-content schemas/embeddings;
* changed content — a rebuilt schema with a different production, an
  embedding with a different path — misses and recompiles;
* served results are identical to the uncached per-call path for
  mapping, translation, and inversion;
* the classic one-shot API delegates to the default engine without
  changing signatures or behaviour.
"""

from __future__ import annotations

import pytest

from repro.anfa.evaluate import evaluate_anfa_set
from repro.core.embedding import build_embedding
from repro.core.instmap import InstMap, apply_embedding
from repro.core.inverse import invert, run_invert
from repro.core.similarity import SimilarityMatrix
from repro.core.translate import Translator, translate_query
from repro.dtd.generate import InstanceGenerator
from repro.dtd.model import Star, make_dtd
from repro.schema import load_schema
from repro.engine import Engine, EngineConfig, default_engine, \
    set_default_engine
from repro.matching.search import find_embedding
from repro.workloads.library import school_example
from repro.xpath.parser import parse_xr
from repro.xpath.paths import XRPath
from repro.xtree.nodes import tree_equal


@pytest.fixture()
def school():
    return school_example()


@pytest.fixture()
def engine():
    return Engine()


def _documents(source, count=4):
    return [InstanceGenerator(source, seed=seed, max_depth=10,
                              star_mean=2.0).generate()
            for seed in range(count)]


# -- fingerprints / hashability ----------------------------------------------

def test_dtd_hashable_and_fingerprint_stable(school):
    assert isinstance(hash(school.classes), int)
    assert school.classes.fingerprint() == school.classes.fingerprint()
    # Equal content parsed twice -> equal fingerprint and hash.
    text = "a -> b, c\nb -> str\nc -> d*\nd -> str"
    first, second = load_schema(text), load_schema(text)
    assert first.fingerprint() == second.fingerprint()
    assert hash(first) == hash(second)
    # The display name is not content.
    renamed = load_schema(text, name="other")
    assert renamed.fingerprint() == first.fingerprint()
    # A changed production is a different fingerprint.
    changed = first.with_production("c", Star("b"))
    assert changed.fingerprint() != first.fingerprint()


def test_embedding_hashable_and_fingerprint_tracks_content(school):
    sigma = school.sigma1
    assert isinstance(hash(sigma), int)
    rebuilt = build_embedding(sigma.source, sigma.target, dict(sigma.lam),
                              dict(sigma.paths))
    assert rebuilt.fingerprint() == sigma.fingerprint()
    assert hash(rebuilt) == hash(sigma)
    # Change one path -> new fingerprint.
    (key, path), = list(sigma.paths.items())[:1]
    tweaked = dict(sigma.paths)
    tweaked[key] = XRPath.parse(str(path) + "/bogus") \
        if not path.text else XRPath.parse("bogus")
    different = build_embedding(sigma.source, sigma.target, dict(sigma.lam),
                                tweaked)
    assert different.fingerprint() != sigma.fingerprint()


def test_hash_consistent_with_eq_across_definition_order():
    # dict equality ignores insertion order, so hashing must too
    # (fingerprints stay order-sensitive: they also key search results).
    one = make_dtd("r", r="a, b", a="str", b="str")
    elements = {"b": one.elements["b"], "r": one.elements["r"],
                "a": one.elements["a"]}
    from repro.dtd.model import DTD
    two = DTD(elements, "r")
    assert one == two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


def test_invalid_embedding_raises_embedding_error_via_engine(engine):
    source = make_dtd("a", a="b", b="str")
    target = make_dtd("x", x="y", y="str", name="t")
    broken = build_embedding(source, target, {"a": "x", "b": "y"},
                             {("a", "b"): "nonexistent",
                              ("b", "str"): "text()"})
    from repro.core.errors import EmbeddingError
    from repro.xtree.nodes import ElementNode, TextNode
    doc = ElementNode("a")
    child = ElementNode("b")
    child.append(TextNode("v"))
    doc.append(child)
    # The aggregated validity report, not a low-level classification
    # error from artifact construction.
    with pytest.raises(EmbeddingError):
        engine.apply_embedding(broken, doc)


def test_xrpath_hashable_fingerprint():
    one = XRPath.parse("a/b[position()=2]/text()")
    two = XRPath.parse("a/b[position()=2]/text()")
    assert one == two and hash(one) == hash(two)
    assert one.fingerprint() == two.fingerprint()
    assert one.fingerprint() != XRPath.parse("a/b/text()").fingerprint()


def test_similarity_permissive_shared_and_frozen():
    assert SimilarityMatrix.permissive() is SimilarityMatrix.permissive()
    with pytest.raises(ValueError):
        SimilarityMatrix.permissive().set("a", "b", 0.5)
    clone = SimilarityMatrix.permissive().copy()
    clone.set("a", "b", 0.5)  # copies are mutable
    assert clone.fingerprint() != SimilarityMatrix.permissive().fingerprint()


def test_similarity_fingerprint_invalidated_by_set():
    att = SimilarityMatrix()
    before = att.fingerprint()
    att.set("a", "b", 0.5)
    assert att.fingerprint() != before


# -- schema cache --------------------------------------------------------------

def test_compile_schema_hits_for_equal_content(engine, school):
    first = engine.compile_schema(school.school)
    assert engine.schema_stats.misses == 1
    again = engine.compile_schema(school.school)
    assert again is first
    assert engine.schema_stats.hits == 1
    # A rebuilt equal schema (fresh object) also hits.
    rebuilt_text = "a -> b*\nb -> str"
    one = engine.compile_schema(load_schema(rebuilt_text))
    two = engine.compile_schema(load_schema(rebuilt_text))
    assert one is two


def test_compile_schema_misses_for_changed_content(engine):
    base = make_dtd("r", r="x*", x="str")
    compiled = engine.compile_schema(base)
    mutated = base.with_production("x", Star("x"))
    assert engine.compile_schema(mutated) is not compiled
    assert engine.schema_stats.misses == 2


def test_compiled_schema_views(engine, school):
    compiled = engine.compile_schema(school.classes)
    assert set(compiled.edges) == set(school.classes.types)
    assert compiled.reachable == school.classes.reachable_types()
    assert compiled.mindef.instance(school.classes.root) is not None


# -- embedding cache ------------------------------------------------------------

def test_compile_embedding_hits_and_validates_once(engine, school):
    sigma = school.sigma1
    first = engine.compile_embedding(sigma)
    assert engine.embedding_stats.misses == 1
    assert not first.validated
    assert engine.compile_embedding(sigma) is first
    assert engine.embedding_stats.hits == 1
    engine.apply_embedding(sigma, _documents(school.classes, 1)[0])
    assert first.validated


def test_compile_embedding_rebuilt_equal_hits(engine, school):
    sigma = school.sigma1
    first = engine.compile_embedding(sigma)
    rebuilt = build_embedding(sigma.source, sigma.target, dict(sigma.lam),
                              dict(sigma.paths))
    assert engine.compile_embedding(rebuilt) is first


def test_compile_embedding_changed_content_misses(engine):
    source = make_dtd("a", a="b*", b="str")
    target = make_dtd("x", x="y*", y="wrap", wrap="str", name="t")
    sigma = build_embedding(source, target, {"a": "x", "b": "y"},
                            {("a", "b"): "y", ("b", "str"): "wrap/text()"})
    first = engine.compile_embedding(sigma)
    other = build_embedding(source, target, {"a": "x", "b": "y"},
                            {("a", "b"): "y",
                             ("b", "str"): "wrap/text()"})
    assert engine.compile_embedding(other) is first  # equal content
    # Now change the target schema underneath: different embedding.
    target2 = make_dtd("x", x="y*", y="wrap", wrap="str", z="str", name="t")
    changed = build_embedding(source, target2, {"a": "x", "b": "y"},
                              {("a", "b"): "y", ("b", "str"): "wrap/text()"})
    assert engine.compile_embedding(changed) is not first
    assert engine.embedding_stats.misses == 2


# -- served results == uncached results -----------------------------------------

def test_cached_mapping_identical(engine, school):
    sigma = school.sigma1
    for document in _documents(school.classes):
        uncached = InstMap(sigma).apply(document)
        served = engine.apply_embedding(sigma, document)
        again = engine.apply_embedding(sigma, document)
        assert tree_equal(served.tree, uncached.tree)
        assert tree_equal(again.tree, uncached.tree)
        # idM agrees modulo fresh node identities: same source ids.
        assert set(served.idM.values()) == set(uncached.idM.values())


def test_cached_translation_identical(engine, school):
    sigma = school.sigma1
    document = _documents(school.classes, 1)[0]
    mapped = engine.apply_embedding(sigma, document).tree
    for query_text in ("class", "class/cno/text()",
                       "class/type/regular/prereq/class",
                       "class[type/project]"):
        query = parse_xr(query_text)
        uncached = Translator(sigma).translate(query)
        served = engine.translate_query(sigma, query)
        served_again = engine.translate_query(sigma, query_text)
        assert evaluate_anfa_set(served, mapped) == \
            evaluate_anfa_set(uncached, mapped)
        assert evaluate_anfa_set(served_again, mapped) == \
            evaluate_anfa_set(uncached, mapped)


def test_translation_cache_counters(engine, school):
    sigma = school.sigma1
    engine.translate_query(sigma, "class/title")
    assert engine.translation_stats.misses == 1
    engine.translate_query(sigma, "class/title")
    assert engine.translation_stats.hits == 1
    engine.translate_query(sigma, "class/virtual")  # different query
    assert engine.translation_stats.misses == 2


def test_cached_anfa_copy_is_independent(engine, school):
    served = engine.translate_query(school.sigma1, "class/cno/text()")
    private = served.copy()
    private.set_final(private.new_state(), "extra")
    assert private.size() > served.size()
    # The cached automaton is untouched.
    assert engine.translate_query(school.sigma1,
                                  "class/cno/text()").size() == served.size()


def test_cached_inversion_identical(engine, school):
    sigma = school.sigma2
    for document in _documents(school.students, 3):
        mapped = engine.apply_embedding(sigma, document)
        uncached = run_invert(sigma, mapped.tree)
        served = engine.invert(sigma, mapped.tree)
        assert tree_equal(uncached, document)
        assert tree_equal(served, document)


# -- search cache ---------------------------------------------------------------

def test_find_embedding_search_cache(engine, school):
    att = SimilarityMatrix.permissive()
    first = engine.find_embedding(school.classes, school.school, att)
    assert first.found
    assert engine.search_stats.misses == 1
    second = engine.find_embedding(school.classes, school.school, att)
    assert second is first
    assert engine.search_stats.hits == 1
    # Different parameters are a different key.
    engine.find_embedding(school.classes, school.school, att, seed=1)
    assert engine.search_stats.misses == 2


# -- default-engine delegation ---------------------------------------------------

def test_one_shot_api_delegates_to_default_engine(school):
    previous = set_default_engine(Engine())
    try:
        sigma = school.sigma1
        document = _documents(school.classes, 1)[0]
        mapped = apply_embedding(sigma, document)
        mapped_again = apply_embedding(sigma, document)
        assert tree_equal(mapped.tree, mapped_again.tree)
        assert tree_equal(invert(sigma, mapped.tree), document)
        anfa = translate_query(sigma, parse_xr("class/title"))
        assert not anfa.is_fail()
        stats = default_engine().stats()
        assert stats["embeddings"]["hits"] >= 1
        result = find_embedding(school.classes, school.school)
        assert result.found
        # The classic wrapper bypasses the search-result cache (per-call
        # timing semantics) but still compiles the target through the
        # default engine's schema cache.
        assert default_engine().search_stats.lookups == 0
        assert default_engine().schema_stats.lookups >= 1
    finally:
        set_default_engine(previous)


# -- LRU bounds -----------------------------------------------------------------

def test_schema_cache_eviction():
    engine = Engine(EngineConfig(schema_cache=2))
    schemas = [make_dtd("r", r="x*", x="str", **{f"t{i}": "str"})
               for i in range(3)]
    for schema in schemas:
        engine.compile_schema(schema)
    assert engine.schema_stats.evictions == 1
    # The oldest schema was evicted: compiling it again misses.
    engine.compile_schema(schemas[0])
    assert engine.schema_stats.misses == 4


def test_engine_clear_drops_artifacts(engine, school):
    engine.compile_schema(school.classes)
    engine.clear()
    engine.compile_schema(school.classes)
    assert engine.schema_stats.misses == 2


def _candidate_path_lists(root) -> list:
    """Every non-empty list of XR paths reachable from ``root`` through
    instance state (modules, classes and functions are not followed)."""
    import gc
    import types

    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    found, seen, pending = [], {id(root)}, [root]
    while pending:
        obj = pending.pop()
        if isinstance(obj, list) and obj and all(
                isinstance(item, XRPath) for item in obj):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                pending.append(ref)
    return found


def test_search_keeps_no_candidate_paths(engine, school):
    """Candidate target paths live for one search: the engine's caches
    keep the result and the target's compiled mindef, never the path
    index, and a search with no cache runs the same every time."""
    att = SimilarityMatrix.permissive()
    first = engine.find_embedding(school.classes, school.school, att,
                                  use_cache=False)
    second = engine.find_embedding(school.classes, school.school, att,
                                   use_cache=False)
    assert first.found
    assert first.embedding is not second.embedding
    assert first.embedding == second.embedding
    engine.find_embedding(school.classes, school.school, att)
    assert engine.schema_stats.misses == 1  # the target, compiled once
    assert _candidate_path_lists(engine) == []
