"""The packed store: zero-copy views, generations, zero JSON parses.

The contract under test:

* a pack round-trips every artifact of the JSON store fingerprint-
  exactly (schemas, embeddings with validation flags, search results);
* opening a :class:`StoreView` performs **zero** JSON parses — the
  assertable counter behind the fleet's warm-start guarantee — while
  the JSON store pays one parse per artifact read;
* ``Engine.warm_start(view)`` serves byte-identically to a warm start
  from the JSON store, with zero compile misses;
* generations are monotonic, published atomically via ``CURRENT``, and
  an open view survives a repack (mmap outlives the directory entry);
* ``ServiceState.reload_from`` adopts a new generation additively;
* corrupt and missing packs fail loudly with :class:`PackError`.
"""

from __future__ import annotations

import pytest

from repro.dtd.generate import InstanceGenerator
from repro.engine import (
    ArtifactStore,
    Engine,
    PackError,
    StoreView,
    current_generation,
    open_view,
    pack_store,
)
from repro.engine.storepack import current_pack_path
from repro.serve import ServiceState
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string


@pytest.fixture()
def packed_store(tmp_path, school):
    """A JSON store with two schemas, one validated embedding and one
    search result — packed once (generation 1)."""
    engine = Engine()
    result = engine.find_embedding(school.classes, school.school,
                                   school.att)
    assert result.found
    engine.compile_embedding(school.sigma1, ensure_valid=True)
    path = tmp_path / "store"
    engine.save_store(path)
    pack_store(path)
    return path


# -- round trip ---------------------------------------------------------------

def test_pack_roundtrips_every_artifact(packed_store):
    store = ArtifactStore(packed_store, create=False)
    with open_view(packed_store) as view:
        assert view.schema_fingerprints() == store.schema_fingerprints()
        assert view.embedding_fingerprints() == \
            store.embedding_fingerprints()
        for fingerprint in store.schema_fingerprints():
            assert view.get_schema(fingerprint).fingerprint() == \
                fingerprint
            assert view.schema_format(fingerprint) == \
                store.schema_format(fingerprint)
        for fingerprint in store.embedding_fingerprints():
            assert view.get_embedding(fingerprint).fingerprint() == \
                fingerprint
            assert view.embedding_validated(fingerprint) == \
                store.embedding_validated(fingerprint)
        packed = {key: result for key, result in view.iter_searches()}
        stored = {key: result for key, result in store.iter_searches()}
        assert packed.keys() == stored.keys()
        for key, result in stored.items():
            assert packed[key].method == result.method
            assert packed[key].quality == result.quality
            assert (packed[key].embedding.fingerprint()
                    == result.embedding.fingerprint())


def test_view_parses_no_json_but_json_store_does(packed_store):
    store = ArtifactStore(packed_store, create=False)
    for fingerprint in store.embedding_fingerprints():
        store.get_embedding(fingerprint)
    assert store.parses > 0  # the JSON path pays a parse per artifact
    with open_view(packed_store) as view:
        for fingerprint in view.embedding_fingerprints():
            view.get_embedding(fingerprint)
        assert view.json_parses == 0
        assert view.stats()["json_parses"] == 0
        assert view.unpickles > 0


def test_warm_start_from_view_is_byte_identical(packed_store, school):
    xml = to_string(InstanceGenerator(school.classes, seed=4,
                                      max_depth=8,
                                      star_mean=2.0).generate())
    with open_view(packed_store) as view:
        warm = Engine.warm_start(view)
        reference = Engine.warm_start(packed_store)
        fingerprint = school.sigma1.fingerprint()
        sigma = view.get_embedding(fingerprint)
        served = to_string(
            warm.apply_embedding(sigma, parse_xml(xml)).tree)
        direct = to_string(reference.apply_embedding(
            school.sigma1, parse_xml(xml)).tree)
        assert served == direct
        stats = warm.stats()
        assert stats["schemas"]["misses"] == 0
        assert stats["embeddings"]["misses"] == 0
        assert view.json_parses == 0


# -- generations --------------------------------------------------------------

def test_generations_are_monotonic_and_current(packed_store):
    assert current_generation(packed_store) == 1
    second = pack_store(packed_store)
    assert current_generation(packed_store) == 2
    assert current_pack_path(packed_store) == second
    with open_view(packed_store) as view:
        assert view.generation == 2
    explicit = pack_store(packed_store, generation=9)
    assert current_generation(packed_store) == 9
    assert explicit.name == "pack-00000009.bin"


def test_open_view_survives_repack(packed_store):
    view = open_view(packed_store)
    fingerprint = view.embedding_fingerprints()[0]
    pack_store(packed_store)  # publishes generation 2
    # The old view's mmap stays valid: in-flight work finishes on the
    # old generation while new opens see the new one.
    assert view.get_embedding(fingerprint).fingerprint() == fingerprint
    assert view.generation == 1
    with open_view(packed_store) as fresh:
        assert fresh.generation == 2
    view.close()


def test_unpacked_store_has_no_generation(tmp_path, school):
    engine = Engine()
    engine.compile_embedding(school.sigma1, ensure_valid=True)
    path = tmp_path / "store"
    engine.save_store(path)
    assert current_generation(path) is None
    with pytest.raises(PackError):
        open_view(path)


# -- hot reload through ServiceState ------------------------------------------

def test_reload_from_adopts_new_generation(packed_store, school):
    state = ServiceState.from_view(open_view(packed_store))
    assert state.generation == 1
    assert state.store_json_parses == 0
    before = dict(state.embeddings)

    # A second embedding lands in the store; repack publishes gen 2.
    extra = Engine()
    extra.compile_embedding(school.sigma2, ensure_valid=True)
    extra.save_store(packed_store)
    pack_store(packed_store)

    adopted = state.reload_from(open_view(packed_store))
    assert adopted >= 1
    assert state.generation == 2
    assert state.reloads == 1
    assert set(before) < set(state.embeddings)
    assert school.sigma2.fingerprint() in state.embeddings
    # Reloading the same generation again is a no-op adoption.
    assert state.reload_from(open_view(packed_store)) == 0
    assert state.reloads == 2
    state.view.close()


# -- failure modes ------------------------------------------------------------

def test_corrupt_pack_raises_pack_error(packed_store):
    path = current_pack_path(packed_store)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(PackError):
        StoreView(path)


def test_missing_pack_file_raises_pack_error(tmp_path):
    with pytest.raises(PackError):
        StoreView(tmp_path / "nope.bin")


# -- codecs -------------------------------------------------------------------

_CODEC_XML = ("<db><class><cno>1</cno><title>t</title>"
              "<type><project>p</project></type></class></db>")


def _add_legacy_codecs_index(pack_path, fingerprint: str) -> None:
    """Rewrite a pack as packs were written while codecs were cached as
    generated source: a ``codecs`` index section naming one source
    blob, appended after the artifact blobs."""
    import pickle

    from repro.engine.storepack import _HEADER, MAGIC

    raw = pack_path.read_bytes()
    header_end = len(MAGIC) + _HEADER.size
    generation, index_len = _HEADER.unpack(raw[len(MAGIC):header_end])
    index = pickle.loads(raw[header_end:header_end + index_len])
    blobs = raw[header_end + index_len:]
    source = pickle.dumps("raise AssertionError('legacy codec source')\n",
                          protocol=4)
    index["codecs"] = {fingerprint: {
        "offset": len(blobs), "length": len(source), "source": "",
        "target": "", "provenance": "engine-save"}}
    index_raw = pickle.dumps(index, protocol=4)
    pack_path.write_bytes(MAGIC + _HEADER.pack(generation, len(index_raw))
                          + index_raw + blobs + source)


def test_legacy_pack_codecs_index_is_ignored(packed_store, school):
    """A pack with a legacy ``codecs`` index opens, warm-starts (daemon
    and fleet reload) with the codec built at load and maps
    byte-identically; a repack drops the index instead of carrying it."""
    from repro.core.instmap import InstMap

    fingerprint = school.sigma1.fingerprint()
    _add_legacy_codecs_index(current_pack_path(packed_store), fingerprint)
    expected = to_string(
        InstMap(school.sigma1).apply(parse_xml(_CODEC_XML)).tree)
    with open_view(packed_store) as view:
        assert "codecs" in view._index
        warm = Engine.warm_start(view)
        compiled = warm.compile_embedding(view.get_embedding(fingerprint))
        assert compiled._codec not in (None, False)  # built at warm start
        assert compiled.map_text(_CODEC_XML) == expected
        assert view.json_parses == 0
        assert view.stale_fingerprints() == frozenset()

    state = ServiceState(Engine(), {}, {})
    view = open_view(packed_store)
    assert state.reload_from(view) == (len(view.schema_fingerprints())
                                       + len(view.embedding_fingerprints()))
    compiled = state.engine.compile_embedding(school.sigma1)
    assert compiled._codec not in (None, False)
    assert compiled.map_text(_CODEC_XML) == expected
    state.view.close()

    pack_store(packed_store)
    with open_view(packed_store) as view:
        assert "codecs" not in view._index
        assert view.stale_fingerprints() == frozenset()
        assert Engine.warm_start(view).map_text(
            school.sigma1, _CODEC_XML) == expected


def test_precodec_pack_reads_with_empty_codec_section(tmp_path, school):
    """A pack with no ``codecs`` index section (what ``pack_store``
    writes) opens and serves with the codec built at warm start."""
    engine = Engine()
    engine.compile_embedding(school.sigma1, ensure_valid=True)
    path = tmp_path / "store"
    engine.save_store(path)
    pack_store(path)
    with open_view(path) as view:
        assert "codecs" not in view._index
        assert "codecs" not in view.stats()
        warm = Engine.warm_start(view)
        assert warm.compile_embedding(school.sigma1)._codec not in (None,
                                                                   False)


# -- generation carry-forward and compaction ----------------------------------

def _drop_embedding_from_store(store_root, fingerprint: str) -> None:
    """Simulate an artifact removed from the JSON store (the manifest
    entry disappears; the pack must decide what happens to it)."""
    import json as json_mod

    manifest_path = store_root / "manifest.json"
    manifest = json_mod.loads(manifest_path.read_text())
    del manifest["embeddings"][fingerprint]
    manifest_path.write_text(json_mod.dumps(manifest, indent=2,
                                            sort_keys=True))


def test_pack_carries_forward_dropped_artifacts(packed_store, school):
    """The default repack keeps serving artifacts the source store
    dropped (raw blobs copied from the previous generation, flagged
    stale); ``compact=True`` finally drops them."""
    dropped = school.sigma1.fingerprint()
    _drop_embedding_from_store(packed_store, dropped)

    pack_store(packed_store)  # generation 2: carry-forward by default
    with open_view(packed_store) as view:
        assert dropped in view.embedding_fingerprints()
        assert dropped in view.stale_fingerprints()
        assert view.embedding_validated(dropped)
        assert view.get_embedding(dropped).fingerprint() == dropped
        assert view.stale_serves >= 1
        assert view.stats()["stale"] >= 1

    # The debt persists across further carry-forward generations...
    pack_store(packed_store)  # generation 3
    with open_view(packed_store) as view:
        assert dropped in view.stale_fingerprints()

    # ...until a compact pack drops every carried blob.
    pack_store(packed_store, compact=True)  # generation 4
    with open_view(packed_store) as view:
        assert dropped not in view.embedding_fingerprints()
        assert not view.stale_fingerprints()
        assert view.stats()["stale"] == 0


def test_stale_serves_surface_in_metrics(packed_store, school):
    """A serving state counts requests that resolve carried artifacts
    and reports them via the ``/metrics`` payload."""
    from repro.serve.handlers import _handle_metrics

    dropped = school.sigma1.fingerprint()
    _drop_embedding_from_store(packed_store, dropped)
    pack_store(packed_store)

    state = ServiceState.from_view(open_view(packed_store))
    assert dropped in state.stale
    assert state.stale_serves == 0
    fingerprint, embedding = state.resolve_embedding(dropped[:12])
    assert fingerprint == dropped
    assert embedding.fingerprint() == dropped
    assert state.stale_serves == 1
    # Live artifacts do not count.
    state.resolve_schema(school.classes.fingerprint(), "source")
    assert state.stale_serves == 1

    payload = _handle_metrics(state)
    assert payload["stale_artifacts"] == len(state.stale) >= 1
    assert payload["stale_serves"] == 1
    state.view.close()
