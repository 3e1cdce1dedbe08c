"""Fast-path equivalence: compiled programs vs. the reference walkers.

The compiled document plane (:mod:`repro.engine.plan`), the per-schema
codecs (:mod:`repro.engine.codec`) over trees and over parser events,
and the streaming entry points over that event driver
(:mod:`repro.engine.stream`) must all be **byte-identical** to the
reference implementations — same serialized trees, same ``idM``
correspondence, same inverse, same query answers, same errors — on
randomized corpora over every library schema pair and a set of
synthetic random schemas.  This suite is the invariant's enforcement
point (see ROADMAP "fast-path invariant").
"""

from __future__ import annotations

import pytest

from repro.anfa.evaluate import evaluate_anfa
from repro.core.embedding import build_embedding
from repro.core.instmap import InstMap, MappingResult
from repro.core.inverse import run_invert
from repro.core.translate import Translator
from repro.dtd.generate import random_instance
from repro.engine.codec import build_codec
from repro.engine.compiled import CompiledEmbedding
from repro.engine.plan import InverseProgram
from repro.engine.stream import StreamStats, iter_mapped, stream_map_to_path
from repro.schema import load_schema
from repro.workloads.library import SCHEMA_LIBRARY
from repro.workloads.noise import expand_schema
from repro.workloads.queries import random_queries
from repro.workloads.synthetic import random_dtd
from repro.xtree.nodes import ElementNode, tree_equal
from repro.xtree.parser import XMLParseError, parse_xml
from repro.xtree.serialize import to_string


def _idm_signature(result: MappingResult) -> list[tuple[int, int]]:
    """``idM`` rendered structurally: (pre-order index of the target
    node, source node id).  Comparable across two runs on the same
    source document even though target ids are globally fresh."""
    order = {node.node_id: index
             for index, node in enumerate(result.tree.iter())}
    return sorted((order[target], source)
                  for target, source in result.idM.items())


def _answers(anfa, result: MappingResult) -> list[object]:
    """Query answers mapped back through ``idM``: source ids for
    elements, values for strings — comparable across runs."""
    out = []
    for item in evaluate_anfa(anfa, result.tree):
        if isinstance(item, ElementNode):
            out.append(("id", result.idM.get(item.node_id)))
        else:
            out.append(("str", item))
    return out


def _assert_equivalent(embedding, instance, queries) -> None:
    instmap = InstMap(embedding)
    assert instmap._program is not None, "fast path failed to compile"
    fast = instmap.apply(instance)
    reference = instmap.apply_reference(instance)

    # Identical trees (bytes) and identical idM correspondence.
    assert to_string(fast.tree) == to_string(reference.tree)
    assert _idm_signature(fast) == _idm_signature(reference)

    # Identical inverses, and both recover the source.
    inverse = InverseProgram(embedding, instmap._infos)
    recovered_fast = inverse.apply(fast.tree)
    recovered_reference = run_invert(embedding, reference.tree)
    assert to_string(recovered_fast) == to_string(recovered_reference)
    assert tree_equal(recovered_fast, instance)

    # Identical query answers through either mapped document.
    translator = Translator(embedding)
    for query in queries:
        anfa = translator.translate(query)
        assert _answers(anfa, fast) == _answers(anfa, reference), str(query)

    # Streaming mode: event-driven chunks concatenate to exactly the
    # bytes of the buffered pipeline over the same serialized text.
    text = to_string(instance)
    buffered = to_string(instmap.apply(parse_xml(text)).tree)
    compiled = CompiledEmbedding(embedding)
    assert "".join(iter_mapped(compiled, text=text)) == buffered

    # Codec mode: the generated parse→map→serialize module produces the
    # same bytes from the tree and from text.  Every corpus shape here
    # is expected to specialise — a CodecError is a generator regression.
    codec = build_codec(instmap)
    assert codec.map_tree(instance) == to_string(fast.tree)
    assert codec.map_text(text) == buffered


@pytest.mark.parametrize("name", sorted(SCHEMA_LIBRARY))
def test_library_pair_equivalence(name):
    source = SCHEMA_LIBRARY[name]()
    expansion = expand_schema(source, seed=5)
    queries = random_queries(source, 6, seed=21, max_steps=6)
    for seed in range(4):
        instance = random_instance(source, seed=seed, max_depth=8)
        _assert_equivalent(expansion.embedding, instance, queries)


def test_school_pair_equivalence(school):
    bundle = school
    for sigma, dtd in ((bundle.sigma1, bundle.classes),
                       (bundle.sigma2, bundle.students)):
        queries = random_queries(dtd, 8, seed=13, max_steps=7)
        for seed in range(6):
            instance = random_instance(dtd, seed=seed, max_depth=9)
            _assert_equivalent(sigma, instance, queries)


@pytest.mark.parametrize("n_types,seed", [(8, 1), (14, 2), (20, 3),
                                          (26, 4), (12, 7)])
def test_synthetic_pair_equivalence(n_types, seed):
    """Random schemas from the synthetic generator, expanded into
    embedding pairs — shapes the library does not cover (deep stars,
    optional disjunctions, repeated concat children)."""
    source = random_dtd(n_types, seed=seed, star_p=0.3, or_p=0.3,
                        recursive_p=0.15)
    expansion = expand_schema(source, seed=seed + 50)
    queries = random_queries(source, 5, seed=seed, max_steps=6)
    for instance_seed in range(3):
        instance = random_instance(source, seed=instance_seed, max_depth=7)
        _assert_equivalent(expansion.embedding, instance, queries)


def test_stream_and_codec_parse_errors_match_reference(school, tmp_path):
    """A document that breaks mid-parse raises the same ValueError-
    rooted error from the streamer and the codec as from the buffered
    ``parse_xml`` — and the atomic streaming writer leaves no partial
    output behind."""
    instmap = InstMap(school.sigma1)
    compiled = CompiledEmbedding(school.sigma1)
    codec = build_codec(instmap)
    prefix = ("<db><class><cno>1</cno><title>t</title>"
              "<type><project>p</project></type></class>")
    bad_documents = [
        prefix + "</dbx>",        # close tag mismatches the open root
        prefix,                   # truncated: the root never closes
        prefix + "<bro ken</db>",  # malformed markup mid-document
    ]
    for xml in bad_documents:
        with pytest.raises(ValueError) as reference:
            parse_xml(xml)
        with pytest.raises(ValueError) as streamed:
            "".join(iter_mapped(compiled, text=xml))
        assert str(streamed.value) == str(reference.value)
        with pytest.raises(ValueError) as generated:
            codec.map_text(xml)
        assert str(generated.value) == str(reference.value)

        out_path = tmp_path / "mapped.xml"
        with pytest.raises(ValueError):
            stream_map_to_path(compiled, out_path, text=xml)
        assert not out_path.exists()
        assert not list(tmp_path.glob(".repro-stream-*"))


def test_stream_and_codec_mapping_errors_match_interpreter(school):
    """Well-formed but non-conforming documents (single defect) raise
    the interpreter's exact error text from every execution mode."""
    instmap = InstMap(school.sigma1)
    compiled = CompiledEmbedding(school.sigma1)
    codec = build_codec(instmap)
    bad_documents = [
        "<dbx/>",                                   # wrong root element
        "<db><klass><cno>1</cno></klass></db>",     # unknown source type
    ]
    for xml in bad_documents:
        document = parse_xml(xml)
        with pytest.raises(ValueError) as reference:
            instmap.apply(document)
        with pytest.raises(ValueError) as streamed:
            "".join(iter_mapped(compiled, text=xml))
        assert str(streamed.value) == str(reference.value)
        with pytest.raises(ValueError) as generated:
            codec.map_text(xml)
        assert str(generated.value) == str(reference.value)


def test_parse_error_wins_over_earlier_mapping_error(school, tmp_path):
    """A mapping defect followed by a parse defect raises the parse
    error from every text surface — the precedence of parsing the whole
    document before mapping it."""
    compiled = CompiledEmbedding(school.sigma1)
    cases = [
        # unknown source type <klass>, then malformed markup
        ("<db><klass><cno>1</cno></klass><bro ken</db>",
         "expected '=' at line 1, column 40"),
        # wrong root element, then malformed markup
        ("<dbx><class></class><bro ken</dbx>",
         "expected '=' at line 1, column 29"),
    ]
    for xml, message in cases:
        with pytest.raises(XMLParseError, match=message):
            parse_xml(xml)
        with pytest.raises(XMLParseError, match=message):
            compiled.map_text(xml)
        with pytest.raises(XMLParseError, match=message):
            "".join(iter_mapped(compiled, text=xml))
        out_path = tmp_path / "mapped.xml"
        with pytest.raises(XMLParseError, match=message):
            stream_map_to_path(compiled, out_path, text=xml)
        assert not out_path.exists()
        assert not list(tmp_path.glob(".repro-stream-*"))


def test_stream_skips_empty_instances_and_nests_star_frames():
    """A star spine of star-typed groups whose Empty-typed items carry
    undeclared child subtrees: items are skipped without building them,
    groups stream as nested frames, and the bytes equal both the codec
    over the parsed tree and the interpreter."""
    source = load_schema("""
        db -> group*
        group -> item*
        item -> eps
    """, name="spine-src")
    target = load_schema("""
        db -> meta, groups
        meta -> str
        groups -> group*
        group -> item*
        item -> eps
    """, name="spine-tgt")
    embedding = build_embedding(
        source, target,
        lam={"db": "db", "group": "group", "item": "item"},
        paths={("db", "group"): "groups/group", ("group", "item"): "item"})
    embedding.check()
    xml = ("<db><group><item><junk><deep>x</deep></junk>text</item>"
           "<item/><item><undeclared/></item></group>"
           "<group/>"
           "<group><item><a><b><c/></b></a></item></group></db>")
    compiled = CompiledEmbedding(embedding)
    stats = StreamStats()
    streamed = "".join(iter_mapped(compiled, text=xml, stats=stats))
    document = parse_xml(xml)
    assert streamed == compiled.codec.map_tree(document)
    assert streamed == to_string(InstMap(embedding).apply(document).tree)
    assert stats.frames_streamed == 4  # the root and three groups
    assert stats.fragments_buffered == 0
    assert not stats.whole_document


def test_partial_documents_fall_back_identically(school):
    """Documents with missing/extra children are served by the
    sparse-concat programs — output must still match the reference run,
    and no declared-edge shape may reach the reference builder."""
    bundle = school
    instmap = InstMap(bundle.sigma1)
    program = instmap._program

    partials = [
        # A class missing its title: concat shape mismatch -> sparse.
        "<db><class><cno>1</cno><type><project>p</project></type>"
        "</class></db>",
        # Children out of production order.
        "<db><class><title>t</title><cno>1</cno>"
        "<type><project>p</project></type></class></db>",
    ]
    for xml in partials:
        document = parse_xml(xml)
        before = program.reference_fallbacks
        fast = instmap.apply(document)
        reference = instmap.apply_reference(document)
        assert to_string(fast.tree) == to_string(reference.tree)
        assert _idm_signature(fast) == _idm_signature(reference)
        assert program.reference_fallbacks == before
    assert program.sparse_served > 0


def _mutate_partial(document, rng):
    """Deterministically drop and shuffle element children: every
    resulting instance-edge key stays declared (occurrence counts only
    drop), so the sparse plane must serve every fragment."""
    import copy

    mutated = copy.deepcopy(document)
    changed = False
    for element in mutated.iter_elements():
        kids = element.element_children()
        if len(kids) >= 2 and rng.random() < 0.4:
            order = list(element.children)
            rng.shuffle(order)
            element.children[:] = order
            changed = True
        kids = element.element_children()
        if kids and rng.random() < 0.4:
            element.children.remove(rng.choice(kids))
            changed = True
    return mutated, changed


def _inverse_parity(embedding, instmap, fast, reference) -> None:
    """σd⁻¹ on a partial image either succeeds with identical bytes on
    the compiled and reference paths, or refuses with identical error
    text (dropped children can leave no holder to invert)."""
    from repro.core.errors import InverseError

    inverse = InverseProgram(embedding, instmap._infos)
    try:
        fast_inverse = to_string(inverse.apply(fast.tree))
    except InverseError as error:
        with pytest.raises(InverseError) as reference_error:
            run_invert(embedding, reference.tree)
        assert str(reference_error.value) == str(error)
    else:
        assert to_string(run_invert(embedding, reference.tree)) \
            == fast_inverse


@pytest.mark.parametrize("name", ["bib", "orders", "mondial"])
def test_partial_document_corpora_sparse_identical(name):
    """Randomized partial-document corpora: children dropped and
    shuffled at random.  The sparse-concat plane must serve every
    fragment (no reference fallback — all edges stay declared) with
    byte-identical trees, idM signatures, inverse behaviour and codec
    output."""
    import random

    source = SCHEMA_LIBRARY[name]()
    expansion = expand_schema(source, seed=5)
    instmap = InstMap(expansion.embedding)
    program = instmap._program
    assert program is not None
    codec = build_codec(instmap)
    rng = random.Random(97)
    served_any = False
    for seed in range(6):
        instance = random_instance(source, seed=seed, max_depth=8)
        mutated, changed = _mutate_partial(instance, rng)
        before = program.reference_fallbacks
        fast = instmap.apply(mutated)
        reference = instmap.apply_reference(mutated)
        assert to_string(fast.tree) == to_string(reference.tree)
        assert _idm_signature(fast) == _idm_signature(reference)
        # Declared-edge shapes never reach the reference builder.
        assert program.reference_fallbacks == before, \
            f"reference fallback on a declared shape (seed {seed})"
        _inverse_parity(expansion.embedding, instmap, fast, reference)
        # The generated codec's splice path serves the same bytes.
        assert codec.map_tree(mutated) == to_string(reference.tree)
        served_any |= changed
    assert served_any and program.sparse_served > 0
