"""E7/E14 — query translation: ANFA sizes vs. the Theorem 4.3 bound.

``|Tr(Q)| = O(|Q|·|σ|·|S1|)``, computed in ``O(|Q|²·|σ|·|S1|²)``.
The table reports measured automaton sizes against the bound; the
benchmark times translation of the Example 4.8 query and of larger
random queries, plus a **depth ladder** of deep ``B1/…/Bd`` chains:
relocation-free composition (:mod:`repro.anfa.compose`) makes chain
translation linear in ``d``, so per-level cost must stay flat from
``d=32`` to ``d=512`` (``correct`` gates on it).
"""

from __future__ import annotations

import time

import pytest

from repro.core.embedding import build_embedding
from repro.core.translate import Translator
from repro.engine import Engine
from repro.experiments.complexity import run_translation_growth
from repro.experiments.report import format_table
from repro.schema import load_schema
from repro.workloads.queries import random_queries
from repro.xpath.parser import parse_xr


@pytest.mark.table
def test_table_e14_translation_growth(capsys):
    rows = run_translation_growth(counts=(6, 12, 24), seed=3, max_steps=8)
    with capsys.disabled():
        print()
        print(format_table(rows,
                           title="[E14] |Tr(Q)| vs the O(|Q||σ||S1|) bound"))
    assert all(row["within-bound"] for row in rows)


def test_bench_translate_example_4_8(benchmark, school):
    query = parse_xr(
        "class[cno/text()='CS331']/(type/regular/prereq/class)*")

    def run():
        return Translator(school.sigma1).translate(query)

    benchmark(run)


def test_bench_translate_random_batch(benchmark, school):
    queries = random_queries(school.classes, 10, seed=9, max_steps=7)

    def run():
        translator = Translator(school.sigma1)
        return [translator.translate(query) for query in queries]

    benchmark(run)


def test_bench_translate_memoised(benchmark, school):
    """Re-translation served by the one whole-query cache: a hit in
    the engine's translation LRU (a Translator memoises within one
    call only)."""
    engine = Engine()
    query = "(class/type/regular/prereq/class)*/cno/text()"
    engine.translate_query(school.sigma1, query)
    benchmark(lambda: engine.translate_query(school.sigma1, query))
    assert engine.translation_stats.misses == 1


def _chain_embedding():
    """The bench_fastpath recursive chain pair: every level of a
    ``node/…/node`` query translates through one star edge."""
    source = load_schema("node -> node*", format="compact",
                         name="chain-src")
    target = load_schema("wrap -> inner\ninner -> wrap*",
                         format="compact", root="wrap",
                         name="chain-tgt")
    return build_embedding(source, target, {"node": "wrap"},
                           {("node", "node"): "inner/wrap"})


def run_depth_ladder(depths: tuple[int, ...]) -> tuple[list[dict], bool]:
    """Translate ``node/…/node`` chains of each depth from a cold
    translator; ``linear`` holds iff per-level cost at the deepest
    rung stays within 4x of the shallowest rung's (the old
    copy-on-compose build was quadratic: per-level cost grew ~d)."""
    sigma = _chain_embedding()
    rows: list[dict] = []
    for depth in depths:
        query = parse_xr("/".join(["node"] * depth))
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            anfa = Translator(sigma, prime=False).translate(query)
            best = min(best, time.perf_counter() - started)
        rows.append({"depth": depth, "trans-ms": round(best * 1e3, 3),
                     "us-per-level": round(best * 1e6 / depth, 3),
                     "anfa-states": len(anfa.states()),
                     "fail": anfa.is_fail()})
    first, last = rows[0], rows[-1]
    linear = (not any(row["fail"] for row in rows)
              and last["us-per-level"] <= 4 * max(first["us-per-level"],
                                                 0.001)
              # states are exactly affine in depth for this chain pair
              # (4d - 1): cross-multiplying cancels the slope without
              # hardcoding it, leaving the intercept correction.
              and last["anfa-states"] * first["depth"]
              == first["anfa-states"] * last["depth"]
              + (last["depth"] - first["depth"]))
    for row in rows:
        row["linear"] = linear
    return rows, linear


def main() -> int:
    import benchlib

    parser = benchlib.make_parser(__doc__)
    args = parser.parse_args()
    counts = (6, 12) if args.smoke else (6, 12, 24)
    depths = (8, 32) if args.smoke else (8, 32, 128, 512)

    def run_once():
        rows = run_translation_growth(counts=counts, seed=3, max_steps=8)
        ladder, linear = run_depth_ladder(depths)
        wall = (sum(row["trans-ms"] for row in rows)
                + sum(row["trans-ms"] for row in ladder)) / 1e3
        correct = all(row["within-bound"] for row in rows) and linear
        extra = {"translations": len(rows),
                 "max_anfa_size": max(row["anfa-size"] for row in rows),
                 "depth_ladder": ladder}
        ops = (len(rows) + len(ladder)) / wall if wall > 0 else 0.0
        return ops, wall, correct, extra, rows, ladder

    ops, wall, correct, extra, rows, ladder = run_once()
    print(format_table(rows,
                       title="[E14] |Tr(Q)| vs the O(|Q||σ||S1|) bound"))
    print(format_table(ladder,
                       title="[E14b] deep-chain translation depth ladder"))
    if args.repeats > 1:
        ops, wall, correct, extra = benchlib.run_repeats(
            lambda: run_once()[:4], repeats=args.repeats)
    result = benchlib.record(
        "query_translation", args,
        ops_per_sec=ops,
        wall_time_s=wall,
        correct=correct,
        extra=extra)
    return benchlib.finish(result, args)


if __name__ == "__main__":
    raise SystemExit(main())
