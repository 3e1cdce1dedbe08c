"""The traced replay: each request of the traced phase is run again in
this process, stage by stage, through the public call of the layer
that does the stage on the server, with one span per stage.

Stages (span names are ``<module>.<stage>``; the ``replay`` root span
of each request carries the request id of its ``serve.http`` span):

* every request: ``serve.decode`` (``protocol.decode_body`` of the
  body the client sent) and ``serve.encode`` (``protocol.encode`` of
  the response it got);
* ``/v1/map``: ``xtree.parse`` then ``engine.codec_map``
  (``codec.map_tree`` on the parsed tree);
* ``/v1/invert``: ``xtree.parse``, ``engine.invert`` (``Engine.invert``)
  and ``xtree.serialize`` (``to_string``);
* ``/v1/translate``: on a miss of the worker's translation LRU
  (emulated here with the server's capacity) ``xpath.parse``
  (``parse_xr``) and ``core.translate`` (``CompiledEmbedding.translate``);
  always ``anfa.describe`` (``canonical_describe``);
* ``/v1/find``: ``schema.load`` (``load_schema`` of both texts),
  ``engine.compile`` (``compile_schema`` of the target) and
  ``matching.search`` (``find_embedding``, ``use_cache=False``);
* ``/v1/evolve``: ``schema.load`` for inline texts, then an
  ``evolution.evolve`` span whose children are the search
  (``matching.search``), compile (``engine.compile``) and translations
  (``core.translate``) it needs; its self time is ``Engine.evolve``
  on warm caches.
"""

from __future__ import annotations

import json
from collections import OrderedDict

from repro.engine.session import Engine, EngineConfig
from repro.schema import load_schema
from repro.serve.protocol import decode_body, encode
from repro.xpath.parser import parse_xr
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string


class Replay:
    """Replays samples against one warm in-process engine."""

    def __init__(self, workload, recorder) -> None:
        self.workload = workload
        self.rec = recorder
        self.by_fp = {e.fingerprint(): e for e in workload.embeddings}
        self.engine = Engine()
        for embedding in workload.embeddings:
            self.engine.compile_embedding(embedding, ensure_valid=True).codec
        self.capacity = EngineConfig().translation_cache
        #: per-worker emulated translation LRU: key -> ANFA
        self.lru: dict[int, OrderedDict] = {}
        self.parsed_bytes = 0
        self.states: list[int] = []
        self.found = 0
        self.verdicts = 0

    def run(self, samples) -> None:
        for sample in samples:
            if sample.response is None:
                continue
            body = json.dumps(sample.call.payload).encode("utf-8")
            with self.rec.span("replay", sample.request) as root:
                self._stage("serve.decode", sample, root, decode_body, body)
                handler = _HANDLERS[sample.call.endpoint]
                handler(self, sample, root)
                self._stage("serve.encode", sample, root, encode,
                            sample.response)

    def _stage(self, name, sample, parent, fn, *args):
        with self.rec.span(name, sample.request, parent):
            return fn(*args)

    # -- documents -----------------------------------------------------------
    def _parse(self, sample, parent, text: str):
        self.parsed_bytes += len(text.encode("utf-8"))
        return self._stage("xtree.parse", sample, parent, parse_xml, text)

    def _map(self, sample, parent) -> None:
        payload = sample.call.payload
        compiled = self.engine.compile_embedding(
            self.by_fp[payload["embedding"]])
        tree = self._parse(sample, parent, payload["xml"])
        codec = compiled.codec
        mapper = (codec.map_tree if codec is not None
                  else lambda t: to_string(compiled.apply(t).tree))
        self._stage("engine.codec_map", sample, parent, mapper, tree)

    def _invert(self, sample, parent) -> None:
        payload = sample.call.payload
        embedding = self.by_fp[payload["embedding"]]
        tree = self._parse(sample, parent, payload["xml"])
        try:
            inverted = self._stage("engine.invert", sample, parent,
                                   self.engine.invert, embedding, tree)
        except ValueError:
            return  # the expected refusal of a partial document
        self._stage("xtree.serialize", sample, parent, to_string, inverted)

    # -- queries -------------------------------------------------------------
    def _translation(self, sample, parent):
        payload = sample.call.payload
        key = (payload["embedding"], payload["query"])
        lru = self.lru.setdefault(sample.thread, OrderedDict())
        anfa = lru.get(key)
        if anfa is not None:
            lru.move_to_end(key)
            return anfa
        compiled = self.engine.compile_embedding(
            self.by_fp[payload["embedding"]])
        parsed = self._stage("xpath.parse", sample, parent, parse_xr,
                             payload["query"])
        anfa = self._stage("core.translate", sample, parent,
                           compiled.translate, parsed)
        lru[key] = anfa
        if len(lru) > self.capacity:
            lru.popitem(last=False)
        return anfa

    def _translate(self, sample, parent) -> None:
        anfa = self._translation(sample, parent)
        self._stage("anfa.describe", sample, parent,
                    anfa.canonical_describe)
        self.states.append(len(anfa.states()))

    # -- search --------------------------------------------------------------
    def _load(self, sample, parent, text, fmt, name):
        return self._stage("schema.load", sample, parent, load_schema,
                           text, fmt, None, name)

    def _find(self, sample, parent) -> None:
        payload = sample.call.payload
        source = self._load(sample, parent, payload["source"],
                            payload["format"], "source")
        target = self._load(sample, parent, payload["target"],
                            payload["format"], "target")
        self._stage("engine.compile", sample, parent,
                    self.engine.compile_schema, target)
        result = self._stage("matching.search", sample, parent,
                             self.engine.find_embedding, source, target,
                             None, payload["method"], payload["seed"],
                             payload["restarts"], None, False)
        self.found += bool(result.found)

    def _evolve(self, sample, parent) -> None:
        payload = sample.call.payload
        case = self.workload.evolve_cases[sample.call.info["case"]]
        explicit = sample.call.info["explicit"]
        if explicit:
            old, new, given = case.old, case.new, case.embedding
        else:
            old = self._load(sample, parent, payload["old"], "compact", "old")
            new = self._load(sample, parent, payload["new"], "compact", "new")
            given = None
        queries = payload["queries"]
        rid = sample.request
        with self.rec.span("evolution.evolve", rid, parent) as span:
            embedding = given
            if embedding is None:
                result = self._stage("matching.search", sample, span,
                                     self.engine.find_embedding, old, new)
                embedding = result.embedding
            if embedding is not None:
                self._stage("engine.compile", sample, span,
                            self.engine.compile_embedding, embedding, True)
                with self.rec.span("core.translate", rid, span):
                    for text in queries:
                        try:
                            self.engine.translate_query(embedding, text)
                        except ValueError:
                            pass  # a broken query: evolve reports it
            report = self.engine.evolve(old, new, queries, embedding=given)
        self.verdicts += len(report.verdicts)


_HANDLERS = {"/v1/map": Replay._map, "/v1/invert": Replay._invert,
             "/v1/translate": Replay._translate, "/v1/find": Replay._find,
             "/v1/evolve": Replay._evolve}
