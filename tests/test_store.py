"""The persistent artifact store: fingerprint-exact round trips and
Engine.save_store / Engine.warm_start.

The contract under test:

* schemas/embeddings reload with *identical* content fingerprints (so
  a warm-started engine's caches key exactly as the saver's did);
* a warm-started engine serves every known artifact with zero compile
  misses and returns results identical to a fresh serial engine;
* stored search results are served as cache hits in the new process;
* corrupt or alien directories fail loudly with StoreError.
"""

from __future__ import annotations

import json

import pytest

from repro.core.embedding import build_embedding
from repro.core.instmap import InstMap
from repro.dtd.generate import InstanceGenerator
from repro.dtd.model import Concat, Disjunction, Empty, Star, Str
from repro.schema import load_schema
from repro.engine import ArtifactStore, Engine, StoreError
from repro.engine.store import (
    dtd_from_payload,
    dtd_to_payload,
    production_from_payload,
    production_to_payload,
)
from repro.xtree.nodes import tree_equal


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


# -- structural payload round trips ------------------------------------------

def test_production_payload_roundtrip():
    for production in (Str(), Empty(), Concat(("b", "c", "b")),
                       Disjunction(("b", "c")),
                       Disjunction(("b",), optional=True),
                       Disjunction(("b",)),  # ambiguous in compact text
                       Star("b")):
        rebuilt = production_from_payload(production_to_payload(production))
        assert rebuilt == production


def test_dtd_payload_is_fingerprint_exact():
    # Definition order is content (it drives matching enumeration), so
    # the payload must preserve it even when the root is not first.
    dtd = load_schema("b -> str\na -> b, c\nc -> b*", root="a", name="s")
    rebuilt = dtd_from_payload(dtd_to_payload(dtd))
    assert rebuilt.fingerprint() == dtd.fingerprint()
    assert rebuilt.types == dtd.types
    assert rebuilt.name == dtd.name


# -- schema / embedding storage ----------------------------------------------

def test_schema_store_roundtrip(store, school):
    fingerprint = store.put_schema(school.school)
    reloaded = ArtifactStore(store.root, create=False)
    assert reloaded.get_schema(fingerprint).fingerprint() == fingerprint
    assert reloaded.schema_fingerprints() == [fingerprint]
    # Idempotent: putting again changes nothing.
    assert store.put_schema(school.school) == fingerprint
    # No provenance given: records as the dtd format, no source file.
    assert reloaded.schema_format(fingerprint) == "dtd"
    assert reloaded.schema_source_text(fingerprint) is None


def test_schema_store_records_format_and_source_text(store, school):
    from repro.dtd.serialize import dtd_to_compact

    text = dtd_to_compact(school.classes)
    fingerprint = store.put_schema(school.classes, format="compact",
                                   source_text=text)
    reloaded = ArtifactStore(store.root, create=False)
    assert reloaded.schema_format(fingerprint) == "compact"
    assert reloaded.schema_source_text(fingerprint) == text
    assert (store.root / "sources" / f"{fingerprint}.txt").exists()
    # A later put may *add* provenance to a bare record, never lose it.
    bare = store.put_schema(school.students)
    assert store.schema_format(bare) == "dtd"
    store.put_schema(school.students, format="xsd", source_text="<xsd/>")
    assert store.schema_format(bare) == "xsd"
    assert store.schema_source_text(bare) == "<xsd/>"
    # A format flip without matching source text keeps (format, source)
    # pinned and consistent …
    store.put_schema(school.classes, format="dtd")
    assert store.schema_format(fingerprint) == "compact"
    assert store.schema_source_text(fingerprint) == text
    # … while a flip WITH new text updates both together.
    from repro.dtd.serialize import dtd_to_text
    dtd_text = dtd_to_text(school.classes)
    store.put_schema(school.classes, format="dtd", source_text=dtd_text)
    assert store.schema_format(fingerprint) == "dtd"
    assert store.schema_source_text(fingerprint) == dtd_text


def test_engine_save_store_carries_load_schema_provenance(tmp_path,
                                                          school):
    """Schemas that entered the engine as text keep (format, text)
    through save_store; schemas compiled from objects default to dtd."""
    from repro.dtd.serialize import dtd_to_compact

    engine = Engine()
    text = dtd_to_compact(school.classes)
    engine.compile_schema(text, format="compact")
    engine.compile_schema(school.students)  # object path: no provenance
    saved = engine.save_store(tmp_path / "prov")
    classes_fp = school.classes.fingerprint()
    students_fp = school.students.fingerprint()
    assert saved.schema_format(classes_fp) == "compact"
    assert saved.schema_source_text(classes_fp) == text
    assert saved.schema_format(students_fp) == "dtd"
    assert saved.schema_source_text(students_fp) is None


def test_embedding_store_roundtrip(store, school):
    sigma = school.sigma1
    fingerprint = store.put_embedding(sigma, validated=True)
    reloaded = ArtifactStore(store.root, create=False)
    rebuilt = reloaded.get_embedding(fingerprint)
    assert rebuilt.fingerprint() == sigma.fingerprint()
    assert rebuilt.lam == sigma.lam
    assert rebuilt.paths == sigma.paths
    assert reloaded.embedding_validated(fingerprint)
    # The schemas came along automatically.
    assert len(reloaded.schema_fingerprints()) == 2


def test_missing_and_alien_stores_fail_loudly(tmp_path):
    with pytest.raises(StoreError):
        ArtifactStore(tmp_path / "nowhere", create=False)
    alien = tmp_path / "alien"
    alien.mkdir()
    (alien / "manifest.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(StoreError):
        ArtifactStore(alien)


def test_corrupt_artifact_detected(store, school):
    fingerprint = store.put_schema(school.classes)
    path = store.root / "schemas" / f"{fingerprint}.json"
    payload = json.loads(path.read_text())
    payload["types"][1][0] += "_tampered"
    payload["types"][1][1] = {"kind": "str"}
    path.write_text(json.dumps(payload))
    fresh = ArtifactStore(store.root, create=False)
    with pytest.raises(StoreError):
        fresh.get_schema(fingerprint)


# -- Engine.save_store / warm_start ------------------------------------------

def _documents(source, count=4):
    return [InstanceGenerator(source, seed=seed, max_depth=8,
                              star_mean=1.5).generate()
            for seed in range(count)]


def test_warm_start_serves_with_zero_compile_misses(tmp_path, school):
    sigma = school.sigma1
    documents = _documents(school.classes)
    engine = Engine()
    baseline = [engine.apply_embedding(sigma, d) for d in documents]
    engine.save_store(tmp_path / "store")

    warm = Engine.warm_start(tmp_path / "store")
    served = [warm.apply_embedding(sigma, d) for d in documents]
    for fresh, again in zip(baseline, served):
        assert tree_equal(fresh.tree, again.tree)
    assert warm.schema_stats.misses == 0
    assert warm.embedding_stats.misses == 0
    assert warm.embedding_stats.hits == len(documents)
    # Results also match a plain uncached InstMap run.
    for document, again in zip(documents, served):
        assert tree_equal(InstMap(sigma).apply(document).tree, again.tree)


def test_warm_start_preserves_validated_flag(tmp_path):
    source = load_schema("a -> b\nb -> str")
    target = load_schema("x -> y\ny -> str", name="t")
    sigma = build_embedding(source, target, {"a": "x", "b": "y"},
                            {("a", "b"): "y", ("b", "str"): "text()"})
    engine = Engine()
    engine.compile_embedding(sigma, ensure_valid=True)
    engine.save_store(tmp_path / "store")
    warm = Engine.warm_start(tmp_path / "store")
    assert warm.compile_embedding(sigma).validated
    assert warm.embedding_stats.hits == 1


def test_warm_start_serves_stored_search_results(tmp_path, school):
    engine = Engine()
    result = engine.find_embedding(school.classes, school.school, school.att)
    assert result.found
    engine.save_store(tmp_path / "store")

    warm = Engine.warm_start(tmp_path / "store")
    again = warm.find_embedding(school.classes, school.school, school.att)
    assert warm.search_stats.hits == 1 and warm.search_stats.misses == 0
    assert again.found and again.embedding is not None
    assert again.embedding.fingerprint() == result.embedding.fingerprint()
    assert again.method == result.method


def test_save_store_is_reloadable_and_inspectable(tmp_path, school):
    engine = Engine()
    engine.find_embedding(school.classes, school.school, school.att)
    store = engine.save_store(tmp_path / "store")
    summary = store.describe()
    assert len(summary["schemas"]) == 2
    assert len(summary["embeddings"]) == 1
    assert len(summary["searches"]) == 1
    # save_store into the same directory again is idempotent.
    engine.save_store(tmp_path / "store")
    assert ArtifactStore(tmp_path / "store",
                         create=False).describe() == summary


def test_corrupt_manifest_and_artifact_json_raise_store_error(tmp_path,
                                                              school):
    store = ArtifactStore(tmp_path / "store")
    fingerprint = store.put_embedding(school.sigma1)
    (tmp_path / "store" / "manifest.json").write_text("{truncated")
    with pytest.raises(StoreError):
        ArtifactStore(tmp_path / "store", create=False)
    # Repair the manifest, truncate an artifact body instead.
    store._flush_manifest()
    (tmp_path / "store" / "embeddings" / f"{fingerprint}.json").write_text(
        "{truncated")
    fresh = ArtifactStore(tmp_path / "store", create=False)
    with pytest.raises(StoreError):
        fresh.get_embedding(fingerprint)


def test_concurrent_manifest_additions_merge(tmp_path, school):
    """Two store handles adding different artifacts must not lose each
    other's manifest entries (merge-on-flush)."""
    first = ArtifactStore(tmp_path / "store")
    second = ArtifactStore(tmp_path / "store")
    fp_classes = first.put_schema(school.classes)
    fp_school = second.put_schema(school.school)
    merged = ArtifactStore(tmp_path / "store", create=False)
    assert set(merged.schema_fingerprints()) == {fp_classes, fp_school}
    assert merged.get_schema(fp_classes).fingerprint() == fp_classes
    assert merged.get_schema(fp_school).fingerprint() == fp_school


def test_warm_start_grows_caches_to_fit_store(tmp_path):
    """A store larger than the default LRU bounds must not evict during
    warm start (that would silently void the zero-miss guarantee)."""
    from repro.dtd.model import make_dtd

    engine = Engine()
    schemas = [make_dtd("r", r="x*", x="str", **{f"t{i}": "str"})
               for i in range(70)]  # > default schema_cache of 64
    for schema in schemas:
        engine.compile_schema(schema)
    engine.save_store(tmp_path / "store")
    # The engine's own LRU held only 64; the store holds what survived.
    warm = Engine.warm_start(tmp_path / "store")
    stored = ArtifactStore(tmp_path / "store",
                           create=False).schema_fingerprints()
    assert len(stored) == 64
    for schema in schemas[6:]:  # the 64 survivors, oldest first
        warm.compile_schema(schema)
    assert warm.schema_stats.misses == 0
    assert warm.schema_stats.evictions == 0


# -- codecs -------------------------------------------------------------------

_CODEC_XML = ("<db><class><cno>1</cno><title>t</title>"
              "<type><project>p</project></type></class></db>")

#: What a store's ``codecs/<fp>.py`` held when codecs were cached as
#: generated source; the legacy files must never be run or rewritten.
_LEGACY_SOURCE = "raise AssertionError('legacy codec source was run')\n"


def _add_legacy_codec(path, fingerprint: str, school) -> dict:
    """Give a store the ``codecs`` manifest section and ``codecs/<fp>.py``
    file that stores saved while codecs were cached as source carry."""
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["codecs"] = {fingerprint: {
        "source": school.classes.fingerprint(),
        "target": school.school.fingerprint(),
        "provenance": "engine-save"}}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    (path / "codecs").mkdir()
    (path / "codecs" / f"{fingerprint}.py").write_text(_LEGACY_SOURCE)
    return manifest["codecs"]


def test_legacy_codecs_section_is_ignored_and_never_rewritten(tmp_path,
                                                              school):
    """A store with a legacy ``codecs`` section warm-starts with the
    codec built at load and maps byte-identically, accepts a new
    embedding and repacks — and its ``codecs/`` files are never read,
    rewritten or carried into the pack."""
    from repro.engine.storepack import open_view, pack_store

    engine = Engine()
    compiled = engine.compile_embedding(school.sigma1, ensure_valid=True)
    expected = compiled.map_text(_CODEC_XML)
    fingerprint = compiled.fingerprint
    path = tmp_path / "store"
    engine.save_store(path)
    section = _add_legacy_codec(path, fingerprint, school)
    legacy = path / "codecs" / f"{fingerprint}.py"
    stamp = legacy.stat().st_mtime_ns

    warm = Engine.warm_start(path)
    again = warm.compile_embedding(school.sigma1)
    assert again._codec not in (None, False)  # built at warm start
    assert again.map_text(_CODEC_XML) == expected
    assert warm.embedding_stats.misses == 0

    store = ArtifactStore(path, create=False)
    assert "codecs" not in store.describe()
    store.put_embedding(school.sigma2, validated=True)
    pack_store(path)
    with open_view(path) as view:
        assert "codecs" not in view._index
        assert school.sigma2.fingerprint() in view.embedding_fingerprints()
        assert Engine.warm_start(view).map_text(
            school.sigma1, _CODEC_XML) == expected

    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["codecs"] == section  # kept as found
    assert school.sigma2.fingerprint() in manifest["embeddings"]
    assert [p.name for p in (path / "codecs").iterdir()] == [legacy.name]
    assert legacy.read_text() == _LEGACY_SOURCE
    assert legacy.stat().st_mtime_ns == stamp


def test_precodec_store_reads_cleanly_without_rewrite(tmp_path, school):
    """A store with no ``codecs`` manifest section and no ``codecs/``
    directory (what ``save_store`` writes) loads, inspects and
    warm-starts with the codec built — and reading it back must not
    rewrite its files."""
    engine = Engine()
    engine.compile_embedding(school.sigma1, ensure_valid=True)
    path = tmp_path / "store"
    engine.save_store(path)
    before = (path / "manifest.json").read_text()
    assert "codecs" not in json.loads(before)
    assert not (path / "codecs").exists()

    store = ArtifactStore(path, create=False)
    assert "codecs" not in store.describe()
    warm = Engine.warm_start(path)
    compiled = warm.compile_embedding(school.sigma1)
    assert compiled._codec not in (None, False)  # built at warm start
    assert compiled.map_text(_CODEC_XML) == engine.map_text(
        school.sigma1, _CODEC_XML)
    assert (path / "manifest.json").read_text() == before
    assert not (path / "codecs").exists()
