"""Oracles behind ``fail_frac``: expected responses computed from
paths independent of the served fast path, and the judge that compares
each response with them.

* ``migrate``: ``InstMap.apply_reference`` + ``to_string`` for ``/v1/map``;
  for ``/v1/invert`` the reference inverse walk, which for a conforming
  document must give back the source text byte for byte (the paper's
  invertibility), and for a partial one the reference error text.
* ``query``: a fresh ``Engine``'s ``canonical_describe`` text per query,
  plus query preservation checked on a sample document.
* ``search``: every returned embedding passes ``is_valid``; found,
  method and quality equal an in-process ``find_embedding`` with the
  same arguments; ``/v1/evolve`` payloads equal ``Engine.evolve``.

Volatile fields excluded from comparison: ``/v1/find``'s ``seconds``
and ``/healthz``'s ``uptime_seconds`` (``/healthz`` is only polled,
never judged).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Optional

from repro.core.errors import InverseError
from repro.core.instmap import InstMap
from repro.core.inverse import run_invert
from repro.core.preservation import check_query_preserving
from repro.engine.session import Engine
from repro.dtd.serialize import dtd_to_compact
from repro.engine.store import embedding_from_payload
from repro.schema import load_schema
from repro.xpath.parser import parse_xr
from repro.xtree.serialize import to_string

#: Queries per embedding whose answers are compared over a sample
#: document (source query on T against translated query on σd(T)).
PRESERVATION_SAMPLE = 6


def mapped_reference(instmap: InstMap, doc):
    """The reference σd(T) of a document: (mapped tree, text)."""
    if doc.mapped is not None:
        return doc.mapped
    tree = instmap.apply_reference(doc.tree).tree
    return tree, to_string(tree)


def inverted_reference(embedding, mapped_tree) -> tuple[bool, str]:
    """(ok, output-or-error) of the reference inverse walk, in the
    item shape ``/v1/invert`` reports."""
    try:
        return True, to_string(run_invert(embedding, mapped_tree))
    except InverseError as exc:
        return False, f"{type(exc).__name__}: {exc}"


class Oracle:
    """Expected responses of one workload run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.by_fp = {e.fingerprint(): e for e in workload.embeddings}
        self.maps: dict[str, str] = {}            # doc name -> text
        self.inverts: dict[str, tuple[bool, str]] = {}
        self.translations: dict[tuple[str, str], tuple[str, bool]] = {}
        self.evolves: dict[tuple[int, bool], str] = {}
        self.finds: dict = {}                      # pair -> (found, ...)
        self.problems: list[str] = []
        #: (document, source bytes, source nodes, mapped bytes)
        self.sizes: list[tuple[str, int, int, int]] = []

    # -- before the timed phase --------------------------------------------
    def prepare(self) -> None:
        instmaps = {fp: InstMap(e) for fp, e in self.by_fp.items()}
        for doc in self.workload.documents:
            mapped_tree, text = mapped_reference(instmaps[doc.embedding],
                                                 doc)
            self.maps[doc.name] = text
            self.sizes.append((doc.name, len(doc.text), doc.nodes,
                               len(text)))
            ok, output = inverted_reference(self.by_fp[doc.embedding],
                                            mapped_tree)
            self.inverts[doc.name] = (ok, output)
            if not doc.partial and (not ok or output != doc.text):
                self.problems.append(
                    f"{doc.name}: reference σd⁻¹(σd(T)) differs from T")
        if self.workload.queries:
            self._prepare_queries()
        if self.workload.evolve_cases:
            self._prepare_evolves()

    def _prepare_queries(self) -> None:
        engine = Engine()
        samples = {}
        for doc in self.workload.documents:
            samples.setdefault(doc.embedding, doc)
        for fp, pool in self.workload.queries.items():
            embedding = self.by_fp[fp]
            for text in pool:
                anfa = engine.translate_query(embedding, text)
                self.translations[(fp, text)] = (anfa.canonical_describe(),
                                                 anfa.is_fail())
            doc = samples.get(fp)
            if doc is None:
                continue
            sample = [parse_xr(text) for text in pool[:PRESERVATION_SAMPLE]]
            report = check_query_preserving(embedding, sample, [doc.tree])
            if not report.ok:
                self.problems.extend(report.failures)

    def _prepare_evolves(self) -> None:
        engine = Engine()
        for index, case in enumerate(self.workload.evolve_cases):
            explicit = engine.evolve(case.old, case.new, case.queries,
                                     embedding=case.embedding)
            self.evolves[(index, True)] = _canonical(explicit.to_payload())
            old = load_schema(dtd_to_compact(case.old), format="compact",
                              name="old")
            new = load_schema(dtd_to_compact(case.new), format="compact",
                              name="new")
            searched = engine.evolve(old, new, case.queries)
            self.evolves[(index, False)] = _canonical(searched.to_payload())

    # -- after the timed phase ---------------------------------------------
    def prepare_finds(self, pairs, processes: int) -> None:
        """In-process searches for the pairs the run sent, spread over
        ``processes`` forked workers (the fleet is stopped by then, so
        they do not compete with it).  Fork, not spawn: a spawn context
        starts multiprocessing's resource tracker, a helper process that
        outlives the pool until this interpreter exits; with fork the
        pool's workers are the only processes, and leaving the ``with``
        block waits for each of them to end."""
        todo = sorted(set(pairs),
                      key=lambda p: (p.library, p.source, p.target))
        if not todo:
            return
        with ProcessPoolExecutor(max_workers=processes,
                                 mp_context=get_context("fork")) as pool:
            for pair, result in zip(todo, pool.map(find_reference, todo)):
                self.finds[pair] = result

    # -- judging -------------------------------------------------------------
    def judge(self, call, status: int, response: Optional[dict],
              error: Optional[str]) -> Optional[str]:
        """``None`` when the response matches its oracle, else a short
        failure reason."""
        if error is not None:
            return error
        if status != 200 or response is None:
            return f"http-{status}"
        judge = _JUDGES[call.endpoint]
        return judge(self, call, response)


def find_reference(pair) -> tuple:
    """``/v1/find``'s fields from an in-process search on the same
    inline texts (module level so pool workers can run it)."""
    source = load_schema(pair.source, format=pair.format, name="source")
    target = load_schema(pair.target, format=pair.format, name="target")
    result = Engine().find_embedding(source, target, use_cache=False)
    return (result.found, result.method, result.quality)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _item(response: dict) -> dict:
    return response.get("result") or {}


def _judge_map(oracle: Oracle, call, response: dict) -> Optional[str]:
    item = _item(response)
    if not item.get("ok"):
        return "map-not-ok"
    if item.get("output") != oracle.maps[call.info["doc"].name]:
        return "map-bytes"
    return None


def _judge_invert(oracle: Oracle, call, response: dict) -> Optional[str]:
    item = _item(response)
    ok, expected = oracle.inverts[call.info["doc"].name]
    if bool(item.get("ok")) != ok:
        return "invert-ok-mismatch"
    got = item.get("output") if ok else item.get("error")
    if got != expected:
        return "invert-bytes" if ok else "invert-error-text"
    return None


def _judge_translate(oracle: Oracle, call, response: dict,
                     ) -> Optional[str]:
    item = _item(response)
    if not item.get("ok"):
        return "translate-not-ok"
    describe, empty = oracle.translations[(call.payload["embedding"],
                                           call.payload["query"])]
    if item.get("anfa") != describe or item.get("empty") != empty:
        return "translate-bytes"
    return None


def _judge_find(oracle: Oracle, call, response: dict) -> Optional[str]:
    pair = call.info["pair"]
    found, method, quality = oracle.finds[pair]
    if (response.get("found"), response.get("method"),
            response.get("quality")) != (found, method, quality):
        return "find-differs"
    if not found:
        return None if response.get("embedding") is None else "find-extra"
    source = load_schema(pair.source, format=pair.format, name="source")
    target = load_schema(pair.target, format=pair.format, name="target")
    payload = response.get("payload") or {}
    if (payload.get("source"), payload.get("target")) != (
            source.fingerprint(), target.fingerprint()):
        return "find-schemas"
    embedding = embedding_from_payload(payload, source, target)
    if embedding.fingerprint() != response.get("embedding"):
        return "find-fingerprint"
    if not embedding.is_valid():
        return "find-invalid"
    return None


def _judge_evolve(oracle: Oracle, call, response: dict) -> Optional[str]:
    key = (call.info["case"], call.info["explicit"])
    if _canonical(response) != oracle.evolves[key]:
        return "evolve-bytes"
    return None


_JUDGES = {"/v1/map": _judge_map, "/v1/invert": _judge_invert,
           "/v1/translate": _judge_translate, "/v1/find": _judge_find,
           "/v1/evolve": _judge_evolve}
