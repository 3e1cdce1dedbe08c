"""The persistent artifact store — compiled-once artifacts across processes.

:class:`~repro.engine.session.Engine` makes the pipeline "compile once,
serve many" *within* a process; the store pushes the same philosophy
across process (and machine) boundaries.  Schemas, embeddings and whole
search results are serialised to a directory keyed by the same content
fingerprints the engine caches use:

* ``manifest.json`` — format/version plus a fingerprint-indexed table
  of every artifact with light metadata (root type, λ endpoints, the
  search parameters);
* ``schemas/<fp>.json`` — one DTD in a structural JSON form that
  round-trips *exactly* (definition order included, so the reloaded
  schema has the same fingerprint); the manifest entry records the
  frontend ``format`` it was ingested through (``dtd``/``compact``/
  ``xsd``; absent in pre-frontend stores, which read back as ``dtd``)
  and, when known, a ``sources/<fp>.txt`` copy of the input text;
* ``embeddings/<fp>.json`` — λ and the path rows of one embedding,
  referencing its schemas by fingerprint;
* ``searches/<digest>.json`` — one cached ``find_embedding`` result,
  keyed by a digest of the engine's search-cache key;
* ``lineage/<digest>.json`` — one schema-evolution edge: a schema
  fingerprint, its successor fingerprint, the embedding (by
  fingerprint, ``null`` when none was found) and free-form provenance
  (who recorded it, verdict counts, …).  The section is lazy: stores
  written before it existed carry no ``lineage`` manifest key and keep
  reading back unchanged, and recording the first edge touches only
  the manifest and the new edge file — never the existing artifacts;
* ``codecs/<fp>.py`` — a legacy section: stores written while codecs
  were generated as Python source cached them here, with a ``codecs``
  manifest section.  Codecs are now built in memory at load, so the
  section is ignored — never read, never written, and kept as found.

A new process calls ``Engine.warm_start(path)`` and serves with zero
schema/embedding compile misses; ``Engine.save_store(path)`` persists a
running session.  The format is declarative (the Section 4.5
transformation-language artifact, extended with schemas and search
outcomes), so stores are diffable, versionable and safe to rsync.

Writes are atomic (temp file + rename) and idempotent: putting an
artifact that is already stored under its fingerprint is a no-op.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.embedding import EdgeKey, SchemaEmbedding
from repro.dtd.model import (
    DTD,
    Concat,
    Disjunction,
    Empty,
    Production,
    Star,
    Str,
)
from repro.matching.search import SearchResult
from repro.xpath.paths import XRPath

FORMAT = "repro-artifact-store"
VERSION = 1

#: JSON-able form of an Engine search-cache key (tuples become lists).
SearchKey = tuple


class StoreError(ValueError):
    """Raised on missing, corrupt or version-incompatible stores."""


# -- structural (de)serialisation ---------------------------------------------
#
# Productions are encoded structurally rather than through the compact
# text syntax: "b" is ambiguous between a one-child concatenation and a
# one-alternative disjunction, and fingerprints must survive the round
# trip bit-for-bit.

def production_to_payload(production: Production) -> dict:
    if isinstance(production, Str):
        return {"kind": "str"}
    if isinstance(production, Empty):
        return {"kind": "empty"}
    if isinstance(production, Concat):
        return {"kind": "concat", "children": list(production.children)}
    if isinstance(production, Disjunction):
        return {"kind": "disjunction", "children": list(production.children),
                "optional": production.optional}
    if isinstance(production, Star):
        return {"kind": "star", "child": production.child}
    raise StoreError(f"unknown production {production!r}")


def production_from_payload(payload: dict) -> Production:
    kind = payload.get("kind")
    if kind == "str":
        return Str()
    if kind == "empty":
        return Empty()
    if kind == "concat":
        return Concat(tuple(payload["children"]))
    if kind == "disjunction":
        return Disjunction(tuple(payload["children"]),
                           optional=bool(payload.get("optional", False)))
    if kind == "star":
        return Star(payload["child"])
    raise StoreError(f"unknown production kind {kind!r}")


def dtd_to_payload(dtd: DTD) -> dict:
    """A DTD as JSON, preserving definition order (fingerprint-exact)."""
    return {
        "name": dtd.name,
        "root": dtd.root,
        "types": [[element_type,
                   production_to_payload(dtd.production(element_type))]
                  for element_type in dtd.types],
    }


def dtd_from_payload(payload: dict) -> DTD:
    elements = {element_type: production_from_payload(row)
                for element_type, row in payload["types"]}
    return DTD(elements, payload["root"], payload.get("name", "dtd"))


def embedding_to_payload(embedding: SchemaEmbedding) -> dict:
    """An embedding as JSON; schemas are referenced by fingerprint."""
    return {
        "source": embedding.source.fingerprint(),
        "target": embedding.target.fingerprint(),
        "lam": dict(embedding.lam),
        "paths": [{"source": a, "child": b, "occ": occ, "path": str(path)}
                  for (a, b, occ), path in sorted(embedding.paths.items())],
    }


def embedding_from_payload(payload: dict, source: DTD,
                           target: DTD) -> SchemaEmbedding:
    paths: dict[EdgeKey, XRPath] = {
        (row["source"], row["child"], row.get("occ", 1)):
            XRPath.parse(row["path"])
        for row in payload["paths"]}
    return SchemaEmbedding(source, target, dict(payload["lam"]), paths)


def search_key_digest(key: SearchKey) -> str:
    """A stable digest of an Engine search-cache key."""
    return hashlib.sha256(
        json.dumps(key, sort_keys=True, default=list).encode("utf-8")
    ).hexdigest()


def lineage_digest(old: str, new: str,
                   embedding: Optional[str] = None) -> str:
    """The content key of one lineage edge (old, new, embedding)."""
    return hashlib.sha256(
        f"{old}\n{new}\n{embedding or ''}".encode("utf-8")).hexdigest()


def _key_from_json(value):
    """Rebuild the engine's tuple-shaped key from its JSON list form."""
    if isinstance(value, list):
        return tuple(_key_from_json(item) for item in value)
    return value


# -- the store ----------------------------------------------------------------

class ArtifactStore:
    """A versioned, fingerprint-keyed artifact directory.

    Opening is cheap (one manifest read); artifact bodies load lazily
    and are memoised, so a store shared by many workers costs each of
    them only the artifacts it actually serves.
    """

    def __init__(self, root: Union[str, Path], create: bool = True) -> None:
        self.root = Path(root)
        #: JSON artifact-body parses this store has performed — the
        #: counter the packed view (`repro.engine.storepack.StoreView`,
        #: whose equivalent stays 0 by construction) is measured
        #: against.
        self.parses = 0
        self._schemas: dict[str, DTD] = {}
        self._embeddings: dict[str, SchemaEmbedding] = {}
        manifest_path = self.root / "manifest.json"
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise StoreError(
                    f"manifest at {self.root} is corrupt: {exc}") from exc
            if manifest.get("format") != FORMAT:
                raise StoreError(f"{self.root} is not an artifact store")
            if manifest.get("version") != VERSION:
                raise StoreError(
                    f"store version {manifest.get('version')} is not the "
                    f"supported version {VERSION}")
            self.manifest = manifest
        elif create:
            self.manifest = {"format": FORMAT, "version": VERSION,
                             "schemas": {}, "embeddings": {}, "searches": {}}
            self.root.mkdir(parents=True, exist_ok=True)
            self._flush_manifest()
        else:
            raise StoreError(f"no artifact store at {self.root}")

    # -- manifest ------------------------------------------------------------
    def _flush_manifest(self) -> None:
        """Atomic manifest write: readers never see a torn file.

        Before writing, entries present on disk are merged in (ours
        win), so two processes adding *different* artifacts to a shared
        store do not lose each other's additions — artifact bodies are
        fingerprint-named and idempotent, only the index races.  True
        concurrent writes of the *same* entry still follow last-writer
        -wins; a multi-writer deployment should build stores up front
        (``repro store build``) and treat them as read-mostly.
        """
        manifest_path = self.root / "manifest.json"
        if manifest_path.exists():
            try:
                on_disk = json.loads(manifest_path.read_text())
            except json.JSONDecodeError:
                on_disk = {}
            if on_disk.get("format") == FORMAT \
                    and on_disk.get("version") == VERSION:
                # "lineage" is lazy — older manifests carry no such
                # key on either side, hence .get/setdefault on both
                # rather than indexing.
                for section in ("schemas", "embeddings", "searches",
                                "lineage"):
                    on_disk_section = on_disk.get(section)
                    if not on_disk_section:
                        continue
                    ours = self.manifest.setdefault(section, {})
                    for key, meta in on_disk_section.items():
                        ours.setdefault(key, meta)
        tmp = self.root / "manifest.json.tmp"
        tmp.write_text(json.dumps(self.manifest, indent=2, sort_keys=True)
                       + "\n")
        os.replace(tmp, manifest_path)

    def _write_artifact(self, relative: str, payload: dict) -> None:
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def _write_text(self, relative: str, text: str) -> None:
        """Atomic plain-text write (schema source provenance)."""
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)

    def _read_artifact(self, relative: str) -> dict:
        path = self.root / relative
        if not path.exists():
            raise StoreError(f"missing artifact file {path}")
        self.parses += 1
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"artifact {path} is corrupt: {exc}") from exc

    # -- schemas ---------------------------------------------------------------
    def put_schema(self, dtd: DTD, format: Optional[str] = None,
                   source_text: Optional[str] = None) -> str:
        """Store ``dtd``; idempotent per fingerprint.

        ``format`` records which frontend the schema came through and
        ``source_text`` the exact input text (written to
        ``sources/<fp>.txt``) — the provenance that ``repro store
        inspect`` surfaces.  Both are optional: schemas built in memory
        store as format ``dtd`` with no source file, and stores written
        before the frontend layer existed (no ``format`` key at all)
        keep loading and read back as ``dtd``.
        """
        fingerprint = dtd.fingerprint()
        entry = self.manifest["schemas"].get(fingerprint)
        dirty = False
        if entry is None:
            self._write_artifact(f"schemas/{fingerprint}.json",
                                 dtd_to_payload(dtd))
            entry = {"name": dtd.name, "root": dtd.root,
                     "types": len(dtd.types), "format": format or "dtd"}
            dirty = True
        elif format is not None and entry.get("format", "dtd") != format:
            # A format flip must keep (format, source) consistent:
            # accept it only when the matching source text comes along
            # (rewriting the provenance file) or none was recorded yet.
            if source_text is not None and entry.get("source"):
                self._write_text(entry["source"], source_text)
                entry = {**entry, "format": format}
                dirty = True
            elif not entry.get("source"):
                entry = {**entry, "format": format}
                dirty = True
        if source_text is not None and not entry.get("source"):
            relative = f"sources/{fingerprint}.txt"
            self._write_text(relative, source_text)
            entry = {**entry, "source": relative}
            dirty = True
        if dirty:
            self.manifest["schemas"][fingerprint] = entry
            self._flush_manifest()
        self._schemas[fingerprint] = dtd
        return fingerprint

    def get_schema(self, fingerprint: str) -> DTD:
        cached = self._schemas.get(fingerprint)
        if cached is not None:
            return cached
        if fingerprint not in self.manifest["schemas"]:
            raise StoreError(f"no schema {fingerprint[:12]}… in {self.root}")
        try:
            dtd = dtd_from_payload(
                self._read_artifact(f"schemas/{fingerprint}.json"))
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(
                f"schema {fingerprint[:12]}… is corrupt: {exc}") from exc
        if dtd.fingerprint() != fingerprint:
            raise StoreError(
                f"schema {fingerprint[:12]}… is corrupt (content "
                f"fingerprint {dtd.fingerprint()[:12]}…)")
        self._schemas[fingerprint] = dtd
        return dtd

    def schema_fingerprints(self) -> list[str]:
        return sorted(self.manifest["schemas"])

    def schema_format(self, fingerprint: str) -> str:
        """The frontend format the schema was ingested through.

        Pre-frontend stores carry no ``format`` key; their schemas read
        back as ``dtd`` (the only format that existed then).
        """
        entry = self.manifest["schemas"].get(fingerprint)
        if entry is None:
            raise StoreError(f"no schema {fingerprint[:12]}… in {self.root}")
        return entry.get("format", "dtd")

    def schema_source_text(self, fingerprint: str) -> Optional[str]:
        """The exact source text the schema was built from, if stored."""
        entry = self.manifest["schemas"].get(fingerprint)
        if entry is None:
            raise StoreError(f"no schema {fingerprint[:12]}… in {self.root}")
        relative = entry.get("source")
        if not relative:
            return None
        path = self.root / relative
        if not path.exists():
            raise StoreError(f"missing source file {path}")
        return path.read_text()

    # -- embeddings --------------------------------------------------------------
    def put_embedding(self, embedding: SchemaEmbedding,
                      validated: bool = False) -> str:
        fingerprint = embedding.fingerprint()
        entry = self.manifest["embeddings"].get(fingerprint)
        if entry is None or (validated and not entry.get("validated")):
            self.put_schema(embedding.source)
            self.put_schema(embedding.target)
            self._write_artifact(f"embeddings/{fingerprint}.json",
                                 embedding_to_payload(embedding))
            self.manifest["embeddings"][fingerprint] = {
                "source": embedding.source.fingerprint(),
                "target": embedding.target.fingerprint(),
                "edges": len(embedding.paths),
                "validated": bool(validated
                                  or (entry or {}).get("validated", False)),
            }
            self._flush_manifest()
        self._embeddings[fingerprint] = embedding
        return fingerprint

    def get_embedding(self, fingerprint: str) -> SchemaEmbedding:
        cached = self._embeddings.get(fingerprint)
        if cached is not None:
            return cached
        entry = self.manifest["embeddings"].get(fingerprint)
        if entry is None:
            raise StoreError(
                f"no embedding {fingerprint[:12]}… in {self.root}")
        payload = self._read_artifact(f"embeddings/{fingerprint}.json")
        try:
            embedding = embedding_from_payload(
                payload, self.get_schema(entry["source"]),
                self.get_schema(entry["target"]))
        except StoreError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(
                f"embedding {fingerprint[:12]}… is corrupt: {exc}") from exc
        if embedding.fingerprint() != fingerprint:
            raise StoreError(
                f"embedding {fingerprint[:12]}… is corrupt (content "
                f"fingerprint {embedding.fingerprint()[:12]}…)")
        self._embeddings[fingerprint] = embedding
        return embedding

    def embedding_validated(self, fingerprint: str) -> bool:
        entry = self.manifest["embeddings"].get(fingerprint)
        return bool(entry and entry.get("validated"))

    def embedding_fingerprints(self) -> list[str]:
        return sorted(self.manifest["embeddings"])

    # -- search results ------------------------------------------------------------
    def put_search(self, key: SearchKey, result: SearchResult) -> str:
        digest = search_key_digest(key)
        embedding_fp: Optional[str] = None
        if result.embedding is not None:
            embedding_fp = self.put_embedding(result.embedding,
                                              validated=True)
        self._write_artifact(f"searches/{digest}.json", {
            "key": list(key),
            "embedding": embedding_fp,
            "method": result.method,
            "seconds": result.seconds,
            "quality": result.quality,
        })
        self.manifest["searches"][digest] = {"method": result.method,
                                             "embedding": embedding_fp}
        self._flush_manifest()
        return digest

    def iter_searches(self) -> Iterator[tuple[SearchKey, SearchResult]]:
        for digest in sorted(self.manifest["searches"]):
            payload = self._read_artifact(f"searches/{digest}.json")
            embedding = (self.get_embedding(payload["embedding"])
                         if payload["embedding"] else None)
            yield (_key_from_json(payload["key"]),
                   SearchResult(embedding, payload["method"],
                                payload["seconds"], payload["quality"]))

    # -- lineage -------------------------------------------------------------------
    def put_lineage(self, payload: dict) -> str:
        """Record one schema-evolution edge; idempotent per digest.

        ``payload`` needs ``old``/``new`` schema fingerprints and may
        carry ``embedding`` (an embedding fingerprint or ``None``) and
        ``provenance`` (a free-form JSON object).  The section is
        created on first write — a pre-lineage store gains it without
        any existing artifact being rewritten.
        """
        old = payload.get("old")
        new = payload.get("new")
        if not isinstance(old, str) or not isinstance(new, str):
            raise StoreError("a lineage edge needs 'old' and 'new' "
                             "schema fingerprints")
        embedding = payload.get("embedding")
        digest = lineage_digest(old, new, embedding)
        section = self.manifest.setdefault("lineage", {})
        if digest not in section:
            self._write_artifact(f"lineage/{digest}.json", payload)
            section[digest] = {"old": old, "new": new,
                               "embedding": embedding}
            self._flush_manifest()
        return digest

    def get_lineage(self, digest: str) -> dict:
        """One recorded edge's full payload (provenance included)."""
        if digest not in self.manifest.get("lineage", {}):
            raise StoreError(
                f"no lineage edge {digest[:12]}… in {self.root}")
        return self._read_artifact(f"lineage/{digest}.json")

    def lineage_digests(self) -> list[str]:
        return sorted(self.manifest.get("lineage", {}))

    def iter_lineage(self) -> Iterator[tuple[str, dict]]:
        for digest in self.lineage_digests():
            yield digest, self.get_lineage(digest)

    # -- inspection ------------------------------------------------------------------
    def describe(self) -> dict:
        """A manifest summary for ``repro store inspect``."""
        return {
            "path": str(self.root),
            "format": FORMAT,
            "version": VERSION,
            "schemas": [
                {"fingerprint": fp, "format": "dtd", "source": None, **meta}
                for fp, meta in sorted(self.manifest["schemas"].items())],
            "embeddings": [
                {"fingerprint": fp, **meta}
                for fp, meta in sorted(self.manifest["embeddings"].items())],
            "searches": [
                {"digest": digest, **meta}
                for digest, meta in sorted(self.manifest["searches"].items())],
            "lineage": [
                {"digest": digest, **meta}
                for digest, meta in sorted(
                    self.manifest.get("lineage", {}).items())],
        }

    def __repr__(self) -> str:
        return (f"ArtifactStore({str(self.root)!r}, "
                f"schemas={len(self.manifest['schemas'])}, "
                f"embeddings={len(self.manifest['embeddings'])}, "
                f"searches={len(self.manifest['searches'])})")
