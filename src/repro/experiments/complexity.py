"""Experiment E14: the complexity claims of Theorem 4.3, measured.

* ``σd`` runs in time linear in the document sizes (InstMap);
* ``σd⁻¹`` recovers the source in at most quadratic time — we measure
  both the structural inverse and the query-driven inverse from the
  proof of Theorem 3.3;
* ``Tr(Q)`` has automaton size ``O(|Q|·|σ|·|S1|)`` and is computed in
  ``O(|Q|²·|σ|·|S1|²)`` — we record |Q|, the measured ANFA size, the
  bound, and the translation time.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.instmap import InstMap
from repro.core.inverse import invert
from repro.core.inverse_queries import invert_via_queries
from repro.core.translate import Translator
from repro.dtd.generate import InstanceGenerator
from repro.workloads.library import school_example
from repro.workloads.queries import random_queries
from repro.xpath.ast import query_size
from repro.xtree.nodes import tree_size


def _school_instances(sizes: Sequence[int], seed: int = 0):
    """One school document of at least each target size; raises
    ``ValueError`` when no star mean reaches a target."""
    bundle = school_example()
    instmap = InstMap(bundle.sigma1)
    for target_size in sizes:
        for star_mean in (1.5, 2.0, 3.0, 4.0, 6.0, 9.0, 14.0, 20.0, 30.0,
                          45.0, 70.0):
            generator = InstanceGenerator(bundle.classes,
                                          seed=seed + target_size,
                                          max_depth=8, star_mean=star_mean)
            tree = generator.generate()
            if tree_size(tree) >= target_size:
                break
        else:
            raise ValueError(
                f"no generated school document reaches {target_size} "
                f"nodes for seed {seed}")
        yield bundle, tree, instmap


def run_instmap_growth(sizes: Sequence[int] = (100, 400, 1600, 6400),
                       seed: int = 0) -> list[dict]:
    """σd time vs. source/target size (expected: linear)."""
    rows = []
    for bundle, tree, instmap in _school_instances(sizes, seed):
        source_size = tree_size(tree)
        started = time.perf_counter()
        result = instmap.apply(tree)
        elapsed = time.perf_counter() - started
        rows.append({
            "|T1|": source_size,
            "|T2|": tree_size(result.tree),
            "map-sec": round(elapsed, 4),
            "us/node": round(1e6 * elapsed / max(1, source_size), 1),
        })
    return rows


def run_codec_growth(sizes: Sequence[int] = (100, 400, 1600, 6400),
                     seed: int = 0) -> list[dict]:
    """Fused map→serialize throughput of the engine's codec against
    the interpreted InstMap, byte-identity checked per row.

    Both sides start from the same parsed tree (what ``run_instmap_growth``
    has always timed).  The codec row times ``codec.map_tree`` — map and
    serialize fused into one pass producing the output text — while the
    interpreted side owes ``instmap.apply`` *plus* ``to_string``; the
    ``speedup`` column is that full tree→text ratio.
    """
    # The experiment measures the engine's codec against the plane's
    # interpreter, so it must see both layers; lazy keeps the
    # experiments plane import-clean.  # lint: allow-lazy-import
    from repro.engine.compiled import CompiledEmbedding
    from repro.xtree.serialize import to_string

    rows = []
    compiled = None
    for bundle, tree, instmap in _school_instances(sizes, seed):
        if compiled is None:
            compiled = CompiledEmbedding(bundle.sigma1)
            codec = compiled.codec
            assert codec is not None, "school σ1 must have a codec"
        source_size = tree_size(tree)
        started = time.perf_counter()
        result = instmap.apply(tree)
        interp = time.perf_counter() - started
        started = time.perf_counter()
        reference = to_string(result.tree)
        serialize = time.perf_counter() - started
        started = time.perf_counter()
        output = codec.map_tree(tree)
        fused = time.perf_counter() - started
        rows.append({
            "|T1|": source_size,
            "interp-sec": round(interp, 4),
            "ser-sec": round(serialize, 4),
            "codec-sec": round(fused, 4),
            "speedup": (round((interp + serialize) / fused, 2)
                        if fused > 0 else 0.0),
            "identical": output == reference,
        })
    return rows


def run_inverse_growth(sizes: Sequence[int] = (100, 400, 1600),
                       seed: int = 0,
                       include_query_driven: bool = True) -> list[dict]:
    """σd⁻¹ time vs. size: structural vs. query-driven inverse."""
    rows = []
    for bundle, tree, instmap in _school_instances(sizes, seed):
        mapped = instmap.apply(tree)
        target_size = tree_size(mapped.tree)
        started = time.perf_counter()
        invert(bundle.sigma1, mapped.tree)
        structural = time.perf_counter() - started
        row = {
            "|T2|": target_size,
            "structural-sec": round(structural, 4),
        }
        if include_query_driven:
            started = time.perf_counter()
            invert_via_queries(bundle.sigma1, mapped.tree)
            row["query-driven-sec"] = round(time.perf_counter() - started, 4)
        rows.append(row)
    return rows


def run_translation_growth(counts: Sequence[int] = (5, 10, 20),
                           seed: int = 0,
                           max_steps: int = 7) -> list[dict]:
    """Tr(Q) size/time vs. |Q|, against the Theorem 4.3 bound."""
    bundle = school_example()
    sigma = bundle.sigma1
    sigma_size = sigma.size()
    s1_size = sigma.source.node_count()
    translator = Translator(sigma)
    rows = []
    for count in counts:
        queries = random_queries(sigma.source, count, seed=seed + count,
                                 max_steps=max_steps)
        for query in queries:
            size = query_size(query)
            started = time.perf_counter()
            anfa = translator.translate(query)
            elapsed = time.perf_counter() - started
            rows.append({
                "|Q|": size,
                "anfa-size": anfa.size(),
                "bound": size * sigma_size * s1_size,
                "within-bound": anfa.size() <= size * sigma_size * s1_size,
                "trans-ms": round(1e3 * elapsed, 3),
            })
    rows.sort(key=lambda r: r["|Q|"])
    return rows
