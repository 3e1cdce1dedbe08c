"""Compiled document-plane fast path: reference vs. compiled ops/sec.

Three serving operations — ``σd`` (map), ``σd⁻¹`` (invert) and ``Tr``
(translate) — each timed on the reference walkers and on the compiled
programs of :mod:`repro.engine.plan` / the primed
:class:`~repro.core.translate.Translator`, over small, medium and
~1000-level-deep documents.

``correct`` is the **identity check**, never a timing ratio: the
compiled outputs must be byte-identical to the reference outputs
(serialized tree, structural ``idM`` signature, inverse tree, canonical
automaton rendering), and the deep document must round-trip without
``RecursionError``.
"""

from __future__ import annotations

import time

from repro.core.errors import InverseError
from repro.core.instmap import InstMap
from repro.core.inverse import run_invert
from repro.core.translate import Translator
from repro.dtd.generate import InstanceGenerator
from repro.schema import load_schema
from repro.core.embedding import build_embedding
from repro.engine.plan import InverseProgram
from repro.workloads.library import school_example
from repro.workloads.queries import random_queries
from repro.xtree.nodes import ElementNode, tree_size
from repro.xtree.serialize import to_string


def _idm_signature(result):
    order = {node.node_id: index
             for index, node in enumerate(result.tree.iter())}
    return sorted((order[target], source)
                  for target, source in result.idM.items())


def _deep_bundle(depth: int):
    source = load_schema("node -> node*", format="compact",
                         name="chain-src")
    target = load_schema("wrap -> inner\ninner -> wrap*",
                         format="compact", root="wrap",
                         name="chain-tgt")
    sigma = build_embedding(source, target, {"node": "wrap"},
                            {("node", "node"): "inner/wrap"})
    root = ElementNode("node")
    current = root
    for _ in range(depth - 1):
        child = ElementNode("node")
        current.append(child)
        current = child
    return sigma, root


def _time_ops(fn, budget_s: float, min_rounds: int = 3) -> float:
    """Rounds/second of ``fn`` within a wall budget (min 3 rounds)."""
    rounds = 0
    started = time.perf_counter()
    while True:
        fn()
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= min_rounds and elapsed >= budget_s:
            return rounds / elapsed


def run(smoke: bool) -> tuple[list[dict], bool, float, float]:
    budget = 0.08 if smoke else 0.35
    school = school_example()
    docs = []
    for label, star_mean, depth in (("small", 2.0, 10),
                                    ("medium", 10.0, 14)):
        generator = InstanceGenerator(school.classes, seed=8,
                                      max_depth=depth, star_mean=star_mean)
        docs.append((label, school.sigma1, generator.generate()))
    deep_sigma, deep_doc = _deep_bundle(200 if smoke else 1000)
    docs.append(("deep", deep_sigma, deep_doc))
    # Partial document: every <class> loses its <title> child, so every
    # class fragment misses the static concat shape and is served by
    # the per-signature sparse-concat program (never the reference
    # builder — its fallback counter gates ``correct`` below).
    generator = InstanceGenerator(school.classes, seed=8,
                                  max_depth=14, star_mean=10.0)
    partial_doc = generator.generate()
    for element in partial_doc.iter_elements():
        if element.tag != "class":
            continue
        for child in element.children:
            if isinstance(child, ElementNode) and child.tag == "title":
                element.children.remove(child)
                break
    docs.append(("partial", school.sigma1, partial_doc))

    rows: list[dict] = []
    identical = True
    total_nodes_per_sec = 0.0
    wall_started = time.perf_counter()

    for label, sigma, document in docs:
        instmap = InstMap(sigma)
        nodes = tree_size(document)

        # -- map: compiled program vs reference builder -----------------
        fast = instmap.apply(document)
        reference = instmap.apply_reference(document)
        identical &= to_string(fast.tree) == to_string(reference.tree)
        identical &= _idm_signature(fast) == _idm_signature(reference)
        map_fast = _time_ops(
            lambda im=instmap, doc=document: im.apply(doc), budget)
        map_ref = _time_ops(
            lambda im=instmap, doc=document: im.apply_reference(doc),
            budget)

        # -- invert: compiled inverse program vs reference walk ---------
        inverse = InverseProgram(sigma, instmap._infos)
        mapped = fast.tree
        if label == "partial":
            # A dropped source child leaves no holder in the image —
            # σd⁻¹ must refuse, with the same error text on both paths
            # (there is nothing meaningful to time here).
            try:
                inverse.apply(mapped)
                identical = False
            except InverseError as fast_error:
                try:
                    run_invert(sigma, mapped)
                    identical = False
                except InverseError as reference_error:
                    identical &= str(fast_error) == str(reference_error)
            inv_fast = inv_ref = 1.0
        else:
            identical &= (to_string(inverse.apply(mapped))
                          == to_string(run_invert(sigma, mapped)))
            inv_fast = _time_ops(
                lambda inv=inverse, tree=mapped: inv.apply(tree), budget)
            inv_ref = _time_ops(
                lambda sig=sigma, tree=mapped: run_invert(sig, tree),
                budget)

        row = {
            "doc": label, "nodes": nodes,
            "map-fast-ops": round(map_fast, 1),
            "map-ref-ops": round(map_ref, 1),
            "map-speedup": round(map_fast / map_ref, 2),
        }
        if label != "partial":
            row.update({
                "invert-fast-ops": round(inv_fast, 1),
                "invert-ref-ops": round(inv_ref, 1),
                "invert-speedup": round(inv_fast / inv_ref, 2),
            })
        if label == "partial":
            # Every mismatched fragment must have been served by a
            # sparse-concat program at compiled speed — a reference-
            # builder fallback on these (all-declared-edges) shapes is
            # a fast-path regression.
            program = instmap._program
            row["sparse-served"] = program.sparse_served
            identical &= program.reference_fallbacks == 0
            identical &= program.sparse_served > 0
        rows.append(row)
        total_nodes_per_sec += map_fast * nodes

    # -- translate: primed translator vs per-query compile -------------
    sigma = school.sigma1
    queries = random_queries(sigma.source, 6 if smoke else 14,
                             seed=9, max_steps=7)
    compiled = Translator(sigma)
    for query in queries:  # identity: same automaton bytes per query
        fresh = Translator(sigma, prime=False)
        identical &= (compiled.translate(query).canonical_describe()
                      == fresh.translate(query).canonical_describe())

    def translate_compiled():
        for query in queries:
            compiled.translate(query)

    def translate_reference():
        for query in queries:
            Translator(sigma, prime=False).translate(query)

    tr_fast = _time_ops(translate_compiled, budget) * len(queries)
    tr_ref = _time_ops(translate_reference, budget) * len(queries)
    rows.append({
        "doc": "queries", "nodes": len(queries),
        "translate-fast-ops": round(tr_fast, 1),
        "translate-ref-ops": round(tr_ref, 1),
        "translate-speedup": round(tr_fast / tr_ref, 2),
    })

    wall = time.perf_counter() - wall_started
    return rows, identical, total_nodes_per_sec, wall


def main() -> int:
    import benchlib

    parser = benchlib.make_parser(__doc__)
    args = parser.parse_args()
    rows, identical, nodes_per_sec, wall = run(smoke=args.smoke)
    for row in rows:
        print("  " + "  ".join(f"{key}={value}"
                               for key, value in row.items()))
    result = benchlib.record(
        "fastpath", args,
        ops_per_sec=nodes_per_sec,  # compiled-path nodes mapped/s
        wall_time_s=wall,
        correct=identical,
        extra={"rows": rows})
    return benchlib.finish(result, args)


if __name__ == "__main__":
    raise SystemExit(main())
