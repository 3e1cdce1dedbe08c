"""E7: schema-directed query translation (Section 4.4, Theorem 4.2).

Includes the Example 4.7/4.8 reproduction: the CS331-prerequisites
query over the class DTD translates to the courses/current/… query of
Fig. 6, and both agree on instances modulo ``idM``.
"""

import pytest

from repro.anfa.evaluate import evaluate_anfa_set
from repro.core.instmap import InstMap
from repro.core.translate import Translator, translate_query
from repro.dtd.generate import random_instance
from repro.xpath.ast import query_size
from repro.xpath.evaluator import evaluate_set
from repro.xpath.parser import parse_xr
from repro.xtree.parser import parse_xml


def _preserved(embedding, query, instance, mapped=None, translator=None):
    mapped = mapped or InstMap(embedding).apply(instance)
    anfa = (translator or Translator(embedding)).translate(query)
    source_result = evaluate_set(query, instance)
    target_result = evaluate_anfa_set(anfa, mapped.tree)
    mapped_back = target_result.map_ids(mapped.idM)
    return (mapped_back.ids == source_result.ids
            and mapped_back.strings == source_result.strings)


SCHOOL_QUERIES = [
    ".",
    "class",
    "class/cno",
    "class/cno/text()",
    "class/type",
    "class/type/regular | class/type/project",
    "class/type/project/text()",
    "class[cno/text()='CS331']",
    "class[position()=2]",
    "class[position()=1]/title/text()",
    "class[type/regular]/cno/text()",
    "class[not(type/regular)]",
    "(class/type/regular/prereq/class)*",
    "class[cno/text()='CS331']/(type/regular/prereq/class)*",
    "class/(type/(regular | project))",
    "//cno/text()",
    "//class",
    "class[type/regular and position()=1]",
    "(class)*[cno]",
]


@pytest.fixture(scope="module")
def cs331_doc():
    """A prerequisite chain: CS331 <- CS240 <- CS101."""
    return parse_xml(
        "<db>"
        "<class><cno>CS331</cno><title>Databases</title>"
        "<type><regular><prereq>"
        "<class><cno>CS240</cno><title>Systems</title>"
        "<type><regular><prereq>"
        "<class><cno>CS101</cno><title>Intro</title>"
        "<type><project>build</project></type></class>"
        "</prereq></regular></type></class>"
        "</prereq></regular></type></class>"
        "<class><cno>MA001</cno><title>Calc</title>"
        "<type><project>none</project></type></class>"
        "</db>")


@pytest.mark.parametrize("source", SCHOOL_QUERIES)
def test_query_preserved_on_school(school, cs331_doc, source):
    query = parse_xr(source)
    assert _preserved(school.sigma1, query, cs331_doc)


def test_example_4_8_prerequisites(school, cs331_doc):
    """Q = class[cno/text()='CS331']/(type/regular/prereq/class)* finds
    all (direct or indirect) prerequisites of CS331 (Example 4.8)."""
    query = parse_xr(
        "class[cno/text()='CS331']/(type/regular/prereq/class)*")
    source_result = evaluate_set(query, cs331_doc)
    # CS331 itself plus CS240 and CS101 = 3 class nodes.
    assert len(source_result.ids) == 3

    mapped = InstMap(school.sigma1).apply(cs331_doc)
    anfa = translate_query(school.sigma1, query)
    target_result = evaluate_anfa_set(anfa, mapped.tree)
    assert target_result.map_ids(mapped.idM).ids == source_result.ids


def test_example_4_7_translated_shape(school):
    """The translated automaton walks the Fig. 6 label sequence
    courses/current/course[…]/(category/mandatory/regular/required/
    prereq/course)*."""
    query = parse_xr(
        "class[cno/text()='CS331']/(type/regular/prereq/class)*")
    anfa = translate_query(school.sigma1, query)
    description = anfa.describe()
    for label in ["courses", "current", "course", "category", "mandatory",
                  "regular", "required", "prereq"]:
        assert f"--{label}--" in description
    # The qualifier becomes a ν-referenced sub-automaton (basic/cno).
    sub_names = anfa.nu()
    assert sub_names, "qualifier sub-automaton missing"


def test_translation_size_bound(school):
    """|Tr(Q)| = O(|Q| · |σ| · |S1|) (Theorem 4.3(b))."""
    sigma = school.sigma1
    factor = sigma.size() * sigma.source.node_count()
    translator = Translator(sigma)
    for source in SCHOOL_QUERIES:
        query = parse_xr(source)
        anfa = translator.translate(query)
        assert anfa.size() <= query_size(query) * factor


def test_unknown_labels_translate_to_fail(school):
    anfa = translate_query(school.sigma1, parse_xr("ghost/label"))
    assert anfa.is_fail()


def test_text_on_non_str_type_fails(school):
    anfa = translate_query(school.sigma1, parse_xr("class/text()"))
    assert anfa.is_fail()


def test_translation_at_inner_context(school):
    """Trl(Q1, A) — translation relative to a non-root type."""
    instance = parse_xml(
        "<db><class><cno>1</cno><title>t</title>"
        "<type><regular><prereq/></regular></type></class></db>")
    mapped = InstMap(school.sigma1).apply(instance)
    anfa = translate_query(school.sigma1, parse_xr("cno/text()"),
                           context_type="class")
    # Evaluate at the image of the class node.
    class_node = instance.children_tagged("class")[0]
    image_id = mapped.source_to_target[class_node.node_id]
    image = mapped.tree.find_by_id(image_id)
    result = evaluate_anfa_set(anfa, image)
    assert result.strings == frozenset({"1"})


def test_union_continues_per_branch_type(school, cs331_doc):
    """(B ∪ C)/D-style queries need per-lab continuations — the
    first mis-translation hazard of Section 4.4."""
    query = parse_xr("class/type/(regular | project)/"
                     "(prereq | text())")
    # regular continues with prereq; project with text().
    assert _preserved(school.sigma1, query, cs331_doc)


def test_star_iteration_covers_all_types(bib_expansion):
    from repro.workloads.queries import random_queries

    source = bib_expansion.source
    instance = random_instance(source, seed=2)
    mapped = InstMap(bib_expansion.embedding).apply(instance)
    translator = Translator(bib_expansion.embedding)
    for query in random_queries(source, 12, seed=5):
        assert _preserved(bib_expansion.embedding, query, instance,
                          mapped, translator), str(query)


def test_memoisation_stable(school):
    translator = Translator(school.sigma1)
    query = parse_xr("(class/type/regular/prereq/class)*")
    first = translator.translate(query)
    second = translator.translate(query)
    assert first.size() == second.size()


def test_translator_keeps_only_its_edge_table(bib_expansion):
    """The subquery and qualifier memos live for one call: after
    hundreds of distinct queries the translator holds no more than the
    per-edge table it was primed with."""
    from repro.workloads.queries import random_queries

    translator = Translator(bib_expansion.embedding)
    primed = translator.edge_table_size
    assert primed > 0
    queries = {str(q): q for q in random_queries(bib_expansion.source,
                                                 500, seed=13)}
    assert len(queries) >= 300
    for query in queries.values():
        translator.translate(query)
    held = sum(len(value) for value in vars(translator).values()
               if isinstance(value, dict))
    assert held == translator.edge_table_size == primed


def test_shared_translator_is_thread_safe(bib_expansion):
    """Eight threads on one Translator render exactly what a fresh
    serial Translator renders per query."""
    import sys
    import threading

    from repro.workloads.queries import random_queries

    embedding = bib_expansion.embedding
    queries = random_queries(bib_expansion.source, 40, seed=17)
    expected = [Translator(embedding).translate(q).canonical_describe()
                for q in queries]
    shared = Translator(embedding)
    results: dict[int, list[str]] = {}

    def worker(offset: int) -> None:
        order = list(range(offset, len(queries))) + list(range(offset))
        rendered = {i: shared.translate(queries[i]).canonical_describe()
                    for i in order}
        results[offset] = [rendered[i] for i in range(len(queries))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(5 * k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [5 * k for k in range(8)]
    for rendered in results.values():
        assert rendered == expected
