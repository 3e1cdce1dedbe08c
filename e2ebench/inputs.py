"""Seeded inputs of the three workloads.

Every input the fleet sees is built here from the run's seed: the
embeddings packed into the store, the documents, queries and schema
pairs, and the per-thread request sequences.  Each generated document
is checked against the size band its workload states; a document
outside the band is regenerated from the next sub-seed, never sent.

Requests are split by fleet worker: thread ``t`` only talks to worker
``t``.  Requests that name an embedding belong to the thread of that
embedding's ring owner (the worker ``FleetClient.route`` picks); every
thread draws its own stream of search pairs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.core.embedding import SchemaEmbedding
from repro.core.instmap import InstMap
from repro.dtd.generate import InstanceGenerator
from repro.dtd.model import DTD, Star
from repro.dtd.serialize import dtd_to_compact
from repro.schema import dtd_to_xsd
from repro.serve.ring import HashRing
from repro.workloads.evolution import scaled_case
from repro.workloads.library import SCHEMA_LIBRARY, school_example
from repro.workloads.noise import expand_schema
from repro.workloads.queries import random_queries
from repro.xtree.nodes import ElementNode, tree_size
from repro.xtree.serialize import to_string


class BandError(ValueError):
    """No in-band input could be generated for a seed."""


@dataclass(frozen=True)
class Band:
    """Closed size band for generated documents (bytes and nodes)."""

    min_bytes: int
    max_bytes: int
    min_nodes: int
    max_nodes: int

    def holds(self, size_bytes: int, nodes: int) -> bool:
        return (self.min_bytes <= size_bytes <= self.max_bytes
                and self.min_nodes <= nodes <= self.max_nodes)


#: ``migrate`` source documents: ~10 KB to a few hundred KB.
MIGRATE_BAND = Band(10_000, 200_000, 300, 20_000)
#: Mapped text over source text for a ``migrate`` embedding (probed on
#: a small document) and for each document (partial ones map smaller).
EMBEDDING_RATIO = (3.5, 4.5)
MIGRATE_RATIO = (2.0, 6.0)
#: ``query`` workload ``/v1/map`` documents: ~1-4 KB.
SMALL_BAND = Band(1_000, 4_000, 30, 400)

#: Documents per thread in the ``migrate`` pool (cycled).
MIGRATE_DOCS = 24
#: Every n-th ``migrate`` document of the classes schema is made
#: partial (every class loses its title).
PARTIAL_EVERY = 2
#: Distinct queries drawn per ``query`` embedding.
QUERIES_PER_EMBEDDING = 300
#: Zipf exponent of the query popularity.
ZIPF_S = 1.0
#: Every n-th ``query`` request is a small ``/v1/map`` call.
QUERY_MAP_EVERY = 10
SMALL_DOCS = 8
#: Every n-th ``search`` request is a ``/v1/evolve`` call.
EVOLVE_EVERY = 10
#: ``search`` pairs come from the library schemas with more than a
#: handful of types: on the tiny ones (parts, school-*) a search takes a
#: few milliseconds, and mixing those in puts the median latency in the
#: gap between trivial and real searches, where it jumps between runs.
#: genealogy is left out too: its searches take ~40 ms, no more than
#: the transport floor, and with it the mix splits evenly into cheap
#: (~0.1 s) and dear (~0.25 s) searches, which puts the median in the
#: gap between them.  With these five it lies among the dear ones.
SEARCH_SCHEMAS = ("auction", "bib", "dblp", "mondial", "orders")
#: Band on a ``search`` target's size, in types per source type.
#: Search time grows with the target, and the rare large expansions
#: take seconds where the rest take tenths.
SEARCH_GROWTH = (2.2, 2.9)
EVOLVE_CASES = 6
EVOLVE_QUERIES = 4

#: Library schemas whose root is a star, so a document grows to any
#: size by adding root children.
STAR_ROOTED = ("bib", "dblp", "mondial", "genealogy", "parts",
               "school-students")
#: ``migrate`` schemas: every worker owns one embedding of each.
MIGRATE_SCHEMAS = STAR_ROOTED + ("school-classes",)


@dataclass
class Document:
    """One generated source document and what it is checked against."""

    name: str
    embedding: str          # embedding fingerprint
    tree: ElementNode
    text: str
    nodes: int
    partial: bool = False
    #: Reference σd(T) (tree, text), when the workload bands its size.
    mapped: Optional[tuple] = None


@dataclass
class Call:
    """One HTTP request of a plan.  ``follow`` builds the request that
    must come next from this one's decoded response (``migrate``'s
    invert after map)."""

    endpoint: str
    payload: dict
    info: dict = field(default_factory=dict)
    follow: Optional[Callable[[dict], Optional["Call"]]] = None


@dataclass
class Workload:
    """Everything one run needs: store contents and per-thread plans."""

    name: str
    embeddings: list[SchemaEmbedding]
    plans: list[Iterator[Call]]
    documents: list[Document] = field(default_factory=list)
    queries: dict[str, list[str]] = field(default_factory=dict)
    evolve_cases: list = field(default_factory=list)


def owners(fingerprints, workers: int) -> dict[str, int]:
    """Ring owner of each fingerprint, as ``FleetClient.route`` picks."""
    ring = HashRing(list(range(workers)))
    return {fp: ring.owner(fp) for fp in fingerprints}


def _balanced_order(costs: list[float]) -> list[int]:
    """Indexes ordered so that the running mean cost of every prefix
    stays as close as possible to the overall mean: a run that stops
    part-way through a pass still carries the pass's mix of sizes."""
    mean = sum(costs) / len(costs)
    remaining = list(range(len(costs)))
    order: list[int] = []
    total = 0.0
    while remaining:
        best = min(remaining, key=lambda i: (
            abs((total + costs[i]) / (len(order) + 1) - mean), i))
        remaining.remove(best)
        order.append(best)
        total += costs[best]
    return order


def _grow(dtd: DTD, target_bytes: int, band: Band,
          rng: random.Random) -> tuple[ElementNode, str]:
    """A conforming document of a star-rooted schema with about
    ``target_bytes`` of text: root children are added until the target
    is met; a child that would overshoot the band is skipped."""
    production = dtd.production(dtd.root)
    if not isinstance(production, Star):
        raise BandError(f"{dtd.name}: root {dtd.root} is not a star")
    for _attempt in range(8):
        generator = InstanceGenerator(dtd, seed=rng.randrange(1 << 30),
                                      max_depth=10, star_mean=3.0)
        root = ElementNode(dtd.root)
        size = len(to_string(root))
        skipped = 0
        while size < target_bytes and skipped < 50:
            child = generator.generate(production.child, 1)
            grown = len(to_string(child))
            if size + grown > max(target_bytes * 1.25, band.min_bytes):
                skipped += 1
                continue
            root.append(child)
            size += grown
        text = to_string(root)
        if band.holds(len(text), tree_size(root)):
            return root, text
    raise BandError(f"{dtd.name}: no document of ~{target_bytes} bytes "
                    f"within {band}")


def _make_partial(tree: ElementNode) -> None:
    """The partial-document recipe: every ``<class>`` loses its
    ``<title>``, so each class misses the static concat shape."""
    for element in tree.iter_elements():
        if element.tag != "class":
            continue
        for child in element.children:
            if isinstance(child, ElementNode) and child.tag == "title":
                element.children.remove(child)
                break


def _expansions(names, rng: random.Random, **options):
    """One ``expand_schema`` expansion per library name, seeded."""
    return [expand_schema(SCHEMA_LIBRARY[name](),
                          seed=rng.randrange(1 << 30), **options)
            for name in names]


def _covering(build: Callable[[random.Random], list[SchemaEmbedding]],
              rng: random.Random, workers: int) -> list[SchemaEmbedding]:
    """Embeddings from ``build`` such that every worker owns at least
    one (otherwise one client thread would have nothing to send)."""
    for _attempt in range(16):
        embeddings = build(rng)
        owned = set(owners([e.fingerprint() for e in embeddings],
                           workers).values())
        if len(owned) == workers:
            return embeddings
    raise BandError("no embedding set covers every worker")


def _small_documents(embedding: SchemaEmbedding, count: int,
                     rng: random.Random) -> list[Document]:
    docs = []
    fp = embedding.fingerprint()
    for index in range(count):
        target = SMALL_BAND.min_bytes * (
            (SMALL_BAND.max_bytes / SMALL_BAND.min_bytes)
            ** ((index + rng.random()) / count)) * 0.85
        tree, text = _grow(embedding.source, int(target), SMALL_BAND, rng)
        docs.append(Document(f"small-{fp[:8]}-{index}", fp, tree, text,
                             tree_size(tree)))
    return docs


# -- migrate ------------------------------------------------------------------

def migrate(seed: int, workers: int) -> Workload:
    rng = random.Random(f"migrate:{seed}")
    sigma1 = school_example().sigma1
    sigma1_owner = owners([sigma1.fingerprint()], workers)[
        sigma1.fingerprint()]
    embeddings: list[SchemaEmbedding] = []
    documents: list[Document] = []
    per_thread: list[list[Document]] = []
    for thread in range(workers):
        # One embedding per schema on every worker, so both threads
        # carry the same schema mix; the paper's sigma1 stands in for
        # its owner's classes expansion.
        mine = [sigma1 if name == "school-classes" and
                thread == sigma1_owner
                else _banded_expansion(name, rng, thread, workers)
                for name in MIGRATE_SCHEMAS]
        embeddings.extend(mine)
        instmaps = [InstMap(embedding) for embedding in mine]
        docs = []
        for index in range(MIGRATE_DOCS):
            slot = index % len(mine)
            # Sizes are stratified over the log-uniform band so every
            # run carries the same size mix; the seed picks contents.
            u = (index + rng.random()) / MIGRATE_DOCS
            target = MIGRATE_BAND.min_bytes * (
                (MIGRATE_BAND.max_bytes / MIGRATE_BAND.min_bytes) ** u)
            target = min(target, MIGRATE_BAND.max_bytes * 0.8)
            partial = (MIGRATE_SCHEMAS[slot] == "school-classes"
                       and (index // len(mine)) % PARTIAL_EVERY == 1)
            docs.append(_migrate_document(f"doc-{thread}-{index}",
                                          mine[slot], instmaps[slot],
                                          int(target), partial, rng))
        docs = [docs[i] for i in _balanced_order(
            [len(d.text) + len(d.mapped[1]) for d in docs])]
        documents.extend(docs)
        per_thread.append(docs)

    def plan(docs: list[Document]) -> Iterator[Call]:
        for doc in itertools.cycle(docs):
            yield Call("/v1/map", {"validate": True, "embedding":
                                   doc.embedding, "xml": doc.text},
                       {"doc": doc}, follow=_invert_after(doc))

    return Workload("migrate", embeddings,
                    [plan(docs) for docs in per_thread],
                    documents=documents)


def _banded_expansion(name: str, rng: random.Random, owner: int,
                      workers: int) -> SchemaEmbedding:
    """An expansion of a library schema owned by worker ``owner`` whose
    images stay within :data:`EMBEDDING_RATIO` of the source size (the
    ratio is a property of the embedding, so it is probed once on a
    small document)."""
    for _attempt in range(128):
        embedding = _expansions([name], rng, wrap_max=1,
                                junk_prob=0.15)[0].embedding
        fp = embedding.fingerprint()
        if owners([fp], workers)[fp] != owner:
            continue
        tree, text = _grow(embedding.source, MIGRATE_BAND.min_bytes,
                           MIGRATE_BAND, rng)
        mapped = to_string(InstMap(embedding).apply_reference(tree).tree)
        if EMBEDDING_RATIO[0] <= len(mapped) / len(text) \
                <= EMBEDDING_RATIO[1]:
            return embedding
    raise BandError(f"{name}: no expansion owned by worker {owner} maps "
                    f"within {EMBEDDING_RATIO}")


def _migrate_document(name: str, embedding: SchemaEmbedding,
                      instmap: InstMap, target: int, partial: bool,
                      rng: random.Random) -> Document:
    """A document in :data:`MIGRATE_BAND` whose reference image is
    within :data:`MIGRATE_RATIO` of its size; others are regenerated."""
    for _attempt in range(8):
        tree, text = _grow(embedding.source, target, MIGRATE_BAND, rng)
        if partial:
            _make_partial(tree)
            text = to_string(tree)
        nodes = tree_size(tree)
        mapped_tree = instmap.apply_reference(tree).tree
        mapped = to_string(mapped_tree)
        ratio = len(mapped) / len(text)
        if (MIGRATE_BAND.holds(len(text), nodes)
                and MIGRATE_RATIO[0] <= ratio <= MIGRATE_RATIO[1]):
            return Document(name, embedding.fingerprint(), tree, text,
                            nodes, partial, (mapped_tree, mapped))
    raise BandError(f"{name}: no document of ~{target} bytes maps within "
                    f"{MIGRATE_RATIO} of its size")


def _invert_after(doc: Document) -> Callable[[dict], Optional[Call]]:
    def follow(response: dict) -> Optional[Call]:
        result = response.get("result") or {}
        if not result.get("ok"):
            return None
        return Call("/v1/invert", {"strict": True, "embedding":
                                   doc.embedding, "xml": result["output"]},
                    {"doc": doc})
    return follow


# -- query --------------------------------------------------------------------

def query(seed: int, workers: int) -> Workload:
    rng = random.Random(f"query:{seed}")
    school = school_example()

    def build(rng: random.Random) -> list[SchemaEmbedding]:
        # Star-rooted schemas only, so each embedding also has small
        # documents for the /v1/map share.
        expansions = _expansions(STAR_ROOTED, rng, wrap_max=1,
                                 junk_prob=0.15)
        return [school.sigma1, school.sigma2] + [
            e.embedding for e in expansions]

    embeddings = _covering(build, rng, workers)
    by_fp = {e.fingerprint(): e for e in embeddings}
    owner = owners(by_fp, workers)
    pools: dict[str, list[str]] = {}
    for fp, embedding in by_fp.items():
        seen: dict[str, None] = {}
        query_seed = rng.randrange(1 << 30)
        for round_ in range(6):
            for parsed in random_queries(embedding.source,
                                         QUERIES_PER_EMBEDDING,
                                         seed=query_seed + round_,
                                         max_steps=6):
                seen.setdefault(str(parsed))
            if len(seen) >= QUERIES_PER_EMBEDDING:
                break
        pools[fp] = list(seen)[:QUERIES_PER_EMBEDDING]
    documents = []
    plans = []
    for thread in range(workers):
        mine = sorted(fp for fp in by_fp if owner[fp] == thread)
        # Zipf popularity over this thread's queries, ranks shuffled.
        items = [(fp, q) for fp in mine for q in pools[fp]]
        rng.shuffle(items)
        weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_S for rank in range(len(items))))
        docs = [doc for fp in mine
                for doc in _small_documents(by_fp[fp], SMALL_DOCS // len(
                    mine) + 1, rng)]
        rng.shuffle(docs)
        documents.extend(docs)
        plans.append(_query_plan(random.Random(rng.randrange(1 << 30)),
                                 items, weights, docs))
    return Workload("query", embeddings, plans, documents=documents,
                    queries=pools)


def _query_plan(rng: random.Random, items, weights,
                docs: list[Document]) -> Iterator[Call]:
    doc_cycle = itertools.cycle(docs)
    for index in itertools.count(1):
        if index % QUERY_MAP_EVERY == 0:
            doc = next(doc_cycle)
            yield Call("/v1/map", {"validate": True, "embedding":
                                   doc.embedding, "xml": doc.text},
                       {"doc": doc})
            continue
        fp, text = rng.choices(items, cum_weights=weights)[0]
        yield Call("/v1/translate", {"embedding": fp, "query": text},
                   {"embedding": fp})


# -- search -------------------------------------------------------------------

@dataclass(frozen=True)
class Pair:
    """One ``/v1/find`` input: inline schema texts in one format."""

    library: str
    source: str
    target: str
    format: str


def _pairs(rng: random.Random) -> Iterator[Pair]:
    """Distinct (library schema, expansion) pairs, cycling through
    :data:`SEARCH_SCHEMAS` so every run carries the same schema mix.
    Expansions outside :data:`SEARCH_GROWTH` are regenerated.  Distinct
    per stream, and each stream feeds one worker, so no ``/v1/find``
    hits a worker's search-result cache."""
    seen: set = set()
    names = list(SEARCH_SCHEMAS)
    while True:
        rng.shuffle(names)
        for name in names:
            yield _pair(name, rng, seen)


def _pair(name: str, rng: random.Random, seen: set) -> Pair:
    source = SCHEMA_LIBRARY[name]()
    for _attempt in range(64):
        target = expand_schema(source, seed=rng.randrange(1 << 30),
                               wrap_max=1, junk_prob=0.15).target
        growth = len(target.types) / len(source.types)
        fmt = rng.choice(("compact", "xsd"))
        render = dtd_to_compact if fmt == "compact" else dtd_to_xsd
        pair = Pair(name, render(source), render(target), fmt)
        if (SEARCH_GROWTH[0] <= growth <= SEARCH_GROWTH[1]
                and (pair.source, pair.target) not in seen):
            seen.add((pair.source, pair.target))
            return pair
    raise BandError(f"{name}: no new expansion within {SEARCH_GROWTH}")


def search(seed: int, workers: int) -> Workload:
    rng = random.Random(f"search:{seed}")
    cases = [scaled_case(EVOLVE_QUERIES, seed=rng.randrange(1 << 30))
             for _ in range(EVOLVE_CASES)]
    # Every scaled_case bump is the same rename; its embedding is
    # stored so "evolve with an explicit embedding" resolves.
    embedding = cases[0].embedding
    fp = embedding.fingerprint()
    owner = owners([fp], workers)[fp]
    plans = [_search_plan(random.Random(rng.randrange(1 << 30)),
                          thread == owner, cases, fp)
             for thread in range(workers)]
    return Workload("search", [embedding], plans,
                    evolve_cases=cases)


def _search_plan(rng: random.Random, owns_embedding: bool,
                 cases, fp: str) -> Iterator[Call]:
    pairs = _pairs(rng)
    for index in itertools.count(1):
        if index % EVOLVE_EVERY:
            pair = next(pairs)
            yield Call("/v1/find", {"source": pair.source,
                                    "target": pair.target,
                                    "format": pair.format,
                                    "method": "auto", "seed": 0,
                                    "restarts": 20},
                       {"pair": pair})
            continue
        turn = index // EVOLVE_EVERY
        case = cases[turn % len(cases)]
        # Evolve calls alternate between naming the stored embedding
        # (only on its owner's thread) and searching between inline texts.
        explicit = owns_embedding and turn % 2 == 0
        payload = {"queries": list(case.queries), "validate": True,
                   "method": "auto", "seed": 0, "restarts": 20}
        if explicit:
            # Stored schemas by fingerprint, routed to the owner.
            payload.update(old=case.old.fingerprint(),
                           new=case.new.fingerprint(), embedding=fp)
        else:
            payload.update(old=dtd_to_compact(case.old),
                           new=dtd_to_compact(case.new), format="compact")
        yield Call("/v1/evolve", payload,
                   {"case": turn % len(cases), "explicit": explicit})


WORKLOADS = {"migrate": migrate, "query": query, "search": search}
