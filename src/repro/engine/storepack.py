"""The packed artifact store — one mmap'd binary file, many readers.

:class:`~repro.engine.store.ArtifactStore` keeps artifacts as one JSON
file each; every process that warm-starts from it pays a full
``json.loads`` per artifact.  A *pack* collapses the whole store into a
single read-only binary file::

    <store>/pack/pack-00000001.bin      the artifacts, one pack per
                                        generation
    <store>/pack/CURRENT                the active pack's file name
                                        (atomically replaced on reload)

Layout of a pack file::

    MAGIC (12 bytes) | generation:u64 | index_len:u64 | index | blobs

The index is one pickled dict mapping fingerprints to ``(offset,
length)`` blob spans; blobs are pickled artifact payloads (the same
structural dicts the JSON store writes, minus the JSON).  Packs
written while codecs were cached as generated source also carry a
``codecs`` index section; it is ignored and never carried forward.  A
:class:`StoreView` mmaps the file and parses *only* the index at open —
O(index), not O(artifacts) — then materialises artifacts lazily from
the mapped pages.  The kernel shares those pages across every process
viewing the same pack, so a pre-fork worker fleet costs one copy of the
artifact bytes no matter how many workers serve them, and a worker
warm-start performs **zero** JSON parses (``StoreView.json_parses``
stays 0 by construction; :class:`ArtifactStore` counts its own parses
in ``.parses`` so the two paths are comparable).

Hot reload: :func:`pack_store` writes a new pack file under the next
generation number and atomically repoints ``CURRENT``.  Readers poll
:func:`current_generation` (one tiny file read) and reopen the view on
a bump; views already open stay valid — an mmap outlives the directory
entry — so in-flight requests finish on the old generation while new
ones see the new artifacts.

A :class:`StoreView` is duck-compatible with the read surface of
:class:`ArtifactStore` (``schema_fingerprints``/``get_schema``/
``embedding_fingerprints``/``get_embedding``/``embedding_validated``/
``iter_searches``/``manifest``), so ``Engine.warm_start(view)`` works
unchanged.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import struct
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.embedding import SchemaEmbedding
from repro.dtd.model import DTD
from repro.engine.store import (
    ArtifactStore,
    StoreError,
    dtd_from_payload,
    dtd_to_payload,
    embedding_from_payload,
    embedding_to_payload,
    search_key_digest,
)
from repro.matching.search import SearchResult

MAGIC = b"REPROPACK\x01\r\n"
_HEADER = struct.Struct(">QQ")  # generation, index length

PACK_DIR = "pack"
CURRENT = "CURRENT"

#: Pickle protocol 4 is supported by every Python this repo targets and
#: keeps packs readable across minor-version upgrades of the fleet.
_PICKLE_PROTOCOL = 4


class PackError(StoreError):
    """Raised on missing, corrupt or version-incompatible packs."""


def _pack_dir(store_root: Union[str, Path]) -> Path:
    return Path(store_root) / PACK_DIR


def _generation_of(pack_name: str) -> int:
    stem = Path(pack_name).stem  # pack-00000007
    try:
        return int(stem.split("-", 1)[1])
    except (IndexError, ValueError):
        raise PackError(f"unparseable pack file name {pack_name!r}") \
            from None


def current_pack_path(store_root: Union[str, Path]) -> Optional[Path]:
    """The active pack file named by ``CURRENT``, or ``None`` when the
    store has never been packed."""
    current = _pack_dir(store_root) / CURRENT
    try:
        name = current.read_text().strip()
    except OSError:
        return None
    if not name:
        return None
    return current.parent / name


def current_generation(store_root: Union[str, Path]) -> Optional[int]:
    """The active pack generation — one tiny file read, cheap enough to
    poll between requests.  ``None`` when the store is unpacked."""
    path = current_pack_path(store_root)
    if path is None:
        return None
    return _generation_of(path.name)


def pack_store(store: Union[str, Path, ArtifactStore],
               generation: Optional[int] = None,
               compact: bool = False) -> Path:
    """Pack every artifact of ``store`` into a new pack file and
    atomically repoint ``CURRENT`` at it.

    The new pack's generation is the current one + 1 (1 for a
    never-packed store) unless given explicitly.  Readers holding the
    old pack keep a valid mmap; new :class:`StoreView` opens see the
    new generation — this is the hot-reload publish step.

    By default the new generation **carries forward** artifacts that
    the previous generation served but the JSON store no longer holds
    (raw blob bytes are copied, marked ``carried`` in the index), so a
    hot-reloading fleet never loses an artifact a client may still
    name — :class:`StoreView` counts serves of carried artifacts so
    ``/metrics`` can surface the debt.  ``compact=True`` packs only the
    store's live artifacts, dropping every carried blob.
    """
    store = (store if isinstance(store, ArtifactStore)
             else ArtifactStore(store, create=False))
    root = store.root
    previous_path = current_pack_path(root)
    if generation is None:
        active = (None if previous_path is None
                  else _generation_of(previous_path.name))
        generation = 1 if active is None else active + 1

    index: dict = {"generation": generation,
                   "schemas": {}, "embeddings": {}, "searches": {}}
    blobs = io.BytesIO()

    def add(payload) -> tuple[int, int]:
        raw = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        offset = blobs.tell()
        blobs.write(raw)
        return offset, len(raw)

    for fingerprint in store.schema_fingerprints():
        offset, length = add(dtd_to_payload(store.get_schema(fingerprint)))
        index["schemas"][fingerprint] = {
            "offset": offset, "length": length,
            "format": store.schema_format(fingerprint)}
    for fingerprint in store.embedding_fingerprints():
        embedding = store.get_embedding(fingerprint)
        offset, length = add(embedding_to_payload(embedding))
        index["embeddings"][fingerprint] = {
            "offset": offset, "length": length,
            "source": embedding.source.fingerprint(),
            "target": embedding.target.fingerprint(),
            "validated": store.embedding_validated(fingerprint)}
    for key, result in store.iter_searches():
        offset, length = add({
            "key": key,
            "embedding": (result.embedding.fingerprint()
                          if result.embedding is not None else None),
            "method": result.method,
            "seconds": result.seconds,
            "quality": result.quality})
        index["searches"][search_key_digest(key)] = {
            "offset": offset, "length": length}

    if not compact and previous_path is not None:
        _carry_forward(index, blobs, previous_path)

    index_raw = pickle.dumps(index, protocol=_PICKLE_PROTOCOL)
    pack_dir = _pack_dir(root)
    pack_dir.mkdir(parents=True, exist_ok=True)
    pack_path = pack_dir / f"pack-{generation:08d}.bin"
    tmp = pack_path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        handle.write(_HEADER.pack(generation, len(index_raw)))
        handle.write(index_raw)
        handle.write(blobs.getvalue())
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, pack_path)
    # Publish: CURRENT flips only after the pack is durably on disk.
    tmp_current = pack_dir / (CURRENT + ".tmp")
    tmp_current.write_text(pack_path.name + "\n")
    os.replace(tmp_current, pack_dir / CURRENT)
    return pack_path


def _carry_forward(index: dict, blobs: io.BytesIO,
                   previous_path: Path) -> None:
    """Copy every previous-generation artifact the new index lacks into
    ``blobs``, marked ``carried``.  Raw blob bytes are copied verbatim
    (no unpickle/repickle), and *every* section is carried, so a
    carried embedding's source/target schemas — themselves absent from
    the store — resolve within the new pack.  Entries already carried
    keep their flag: the debt persists across generations until a
    ``compact`` pack drops it."""
    with StoreView(previous_path) as previous:
        # A legacy "codecs" index (cached codec source) is not carried.
        for section in ("schemas", "embeddings", "searches"):
            live = index[section]
            for key, entry in previous._index.get(section, {}).items():
                if key in live:
                    continue
                raw = previous._raw(entry)
                offset = blobs.tell()
                blobs.write(raw)
                carried = dict(entry)
                carried.update(offset=offset, length=len(raw),
                               carried=True)
                live[key] = carried


class StoreView:
    """A read-only, zero-copy view of one pack generation.

    Opening costs one mmap plus the pickled index — O(index) whatever
    the artifact bodies weigh.  Artifacts materialise lazily from the
    mapped pages (and are memoised), so a worker that serves two
    embeddings touches two blobs, not the whole store.  The view never
    parses JSON; ``json_parses`` exists purely as the assertable
    counter mirroring :attr:`ArtifactStore.parses`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.json_parses = 0   # by construction; the assertable counter
        self.unpickles = 0
        self._schemas: dict[str, DTD] = {}
        self._embeddings: dict[str, SchemaEmbedding] = {}
        try:
            self._file = open(self.path, "rb")
        except OSError as exc:
            raise PackError(f"no pack file at {self.path}: {exc}") from None
        try:
            self._map = mmap.mmap(self._file.fileno(), 0,
                                  access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            self._file.close()
            raise PackError(f"cannot map {self.path}: {exc}") from None
        # Header and index are read as byte *copies* (both are small);
        # only blob reads borrow the mapped pages.  A lingering
        # memoryview export would make mmap.close() raise BufferError.
        header_end = len(MAGIC) + _HEADER.size
        header = bytes(self._map[:header_end])
        if header[:len(MAGIC)] != MAGIC:
            self.close()
            raise PackError(f"{self.path} is not a repro pack")
        self.generation, index_len = _HEADER.unpack(header[len(MAGIC):])
        try:
            self._index = pickle.loads(
                self._map[header_end:header_end + index_len])
        except Exception as exc:
            self.close()
            raise PackError(f"pack index of {self.path} is corrupt: "
                            f"{exc}") from None
        self._blob_base = header_end + index_len
        #: Artifacts carried forward from older generations (absent
        #: from the source store at pack time) and how often this view
        #: served one — the hot-reload debt surfaced via ``/metrics``.
        self._stale = frozenset(
            key
            for section in ("schemas", "embeddings")
            for key, entry in self._index.get(section, {}).items()
            if entry.get("carried"))
        self.stale_serves = 0

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        try:
            self._map.close()
        except AttributeError:
            pass
        self._file.close()

    def __enter__(self) -> "StoreView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- raw access ----------------------------------------------------------
    def _raw(self, entry: dict) -> bytes:
        """One blob's raw pickled bytes (generation carry-forward)."""
        start = self._blob_base + entry["offset"]
        return bytes(self._map[start:start + entry["length"]])

    def _blob(self, entry: dict):
        start = self._blob_base + entry["offset"]
        whole = memoryview(self._map)
        raw = whole[start:start + entry["length"]]
        self.unpickles += 1
        try:
            return pickle.loads(raw)  # zero-copy: unpickles the pages
        except Exception as exc:
            raise PackError(f"pack blob of {self.path} is corrupt: "
                            f"{exc}") from None
        finally:
            # Release the exports even when unpickling raises (a held
            # traceback must not pin the mmap open past close()).
            raw.release()
            whole.release()

    # -- ArtifactStore read surface -----------------------------------------
    @property
    def manifest(self) -> dict:
        """An ArtifactStore-shaped manifest (metadata only), so code
        written against the JSON store's manifest keeps working."""
        return {"schemas": self._index["schemas"],
                "embeddings": self._index["embeddings"],
                "searches": self._index["searches"]}

    def schema_fingerprints(self) -> list[str]:
        return sorted(self._index["schemas"])

    def stale_fingerprints(self) -> frozenset:
        """Fingerprints served from carry-forward blobs: the latest
        source store no longer holds them."""
        return self._stale

    def get_schema(self, fingerprint: str) -> DTD:
        if fingerprint in self._stale:
            self.stale_serves += 1
        cached = self._schemas.get(fingerprint)
        if cached is not None:
            return cached
        entry = self._index["schemas"].get(fingerprint)
        if entry is None:
            raise PackError(f"no schema {fingerprint[:12]}… in {self.path}")
        dtd = dtd_from_payload(self._blob(entry))
        self._schemas[fingerprint] = dtd
        return dtd

    def schema_format(self, fingerprint: str) -> str:
        entry = self._index["schemas"].get(fingerprint)
        if entry is None:
            raise PackError(f"no schema {fingerprint[:12]}… in {self.path}")
        return entry.get("format", "dtd")

    def embedding_fingerprints(self) -> list[str]:
        return sorted(self._index["embeddings"])

    def get_embedding(self, fingerprint: str) -> SchemaEmbedding:
        if fingerprint in self._stale:
            self.stale_serves += 1
        cached = self._embeddings.get(fingerprint)
        if cached is not None:
            return cached
        entry = self._index["embeddings"].get(fingerprint)
        if entry is None:
            raise PackError(
                f"no embedding {fingerprint[:12]}… in {self.path}")
        embedding = embedding_from_payload(
            self._blob(entry), self.get_schema(entry["source"]),
            self.get_schema(entry["target"]))
        self._embeddings[fingerprint] = embedding
        return embedding

    def embedding_validated(self, fingerprint: str) -> bool:
        entry = self._index["embeddings"].get(fingerprint)
        return bool(entry and entry.get("validated"))

    def iter_searches(self) -> Iterator[tuple[tuple, SearchResult]]:
        for digest in sorted(self._index["searches"]):
            payload = self._blob(self._index["searches"][digest])
            embedding = (self.get_embedding(payload["embedding"])
                         if payload["embedding"] else None)
            yield (payload["key"],
                   SearchResult(embedding, payload["method"],
                                payload["seconds"], payload["quality"]))

    # -- inspection ----------------------------------------------------------
    def stats(self) -> dict:
        return {
            "generation": self.generation,
            "bytes": len(self._map),
            "schemas": len(self._index["schemas"]),
            "embeddings": len(self._index["embeddings"]),
            "searches": len(self._index["searches"]),
            "json_parses": self.json_parses,
            "unpickles": self.unpickles,
            "stale": len(self._stale),
            "stale_serves": self.stale_serves,
        }

    def __repr__(self) -> str:
        return (f"StoreView({str(self.path)!r}, gen={self.generation}, "
                f"schemas={len(self._index['schemas'])}, "
                f"embeddings={len(self._index['embeddings'])})")


def open_view(store_root: Union[str, Path]) -> StoreView:
    """The :class:`StoreView` of the store's current pack generation."""
    path = current_pack_path(store_root)
    if path is None:
        raise PackError(f"store at {store_root} has no pack — run "
                        "`repro store pack` (or pack_store()) first")
    return StoreView(path)
