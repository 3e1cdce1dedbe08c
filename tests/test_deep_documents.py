"""Deep-document regression: ~1000-level documents must map, invert,
parse and serialize without ``RecursionError``.

The seed implementation recursed once per tree level in
``_FragmentBuilder._complete``, ``xtree.serialize._render``, the XML
parser and ``core.inverse._Inverter.rebuild`` — all now explicit-stack
iterative.  The fast path
(:mod:`repro.engine.plan`) is iterative by construction; both paths are
exercised here, end to end through :class:`repro.engine.Engine` and the
``/v1/map`` + ``/v1/invert`` HTTP handlers.
"""

from __future__ import annotations

import pytest

from repro.core.instmap import InstMap
from repro.core.inverse import run_invert
from repro.schema import load_schema
from repro.engine import Engine
from repro.core.embedding import build_embedding
from repro.serve import ReproServer, ServeClient
from repro.xtree.nodes import ElementNode, TextNode, tree_equal, tree_size
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string

DEPTH = 1000


def _chain_bundle():
    """A recursive source (``node -> node*``) whose instances form
    chains, and a target that wraps every level (so the mapped document
    is even deeper than the source)."""
    source = load_schema("node -> node*", format="compact",
                         name="chain-src")
    target = load_schema("wrap -> inner\ninner -> wrap*",
                         format="compact", root="wrap",
                         name="chain-tgt")
    sigma = build_embedding(source, target, {"node": "wrap"},
                            {("node", "node"): "inner/wrap"})
    return source, target, sigma


def _deep_instance(depth: int) -> ElementNode:
    root = ElementNode("node")
    current = root
    for _ in range(depth - 1):
        child = ElementNode("node")
        current.append(child)
        current = child
    return root


@pytest.fixture(scope="module")
def bundle():
    return _chain_bundle()


def test_deep_document_maps_and_inverts_through_engine(bundle):
    _source, _target, sigma = bundle
    document = _deep_instance(DEPTH)
    engine = Engine()
    result = engine.apply_embedding(sigma, document)
    assert tree_size(result.tree) == 2 * DEPTH  # wrap+inner per level
    recovered = engine.invert(sigma, result.tree)
    assert tree_equal(recovered, document)


def test_deep_document_reference_paths(bundle):
    """The reference (non-compiled) walkers must survive the same depth."""
    _source, _target, sigma = bundle
    document = _deep_instance(DEPTH)
    instmap = InstMap(sigma)
    reference = instmap.apply_reference(document)
    fast = instmap.apply(document)
    assert to_string(reference.tree) == to_string(fast.tree)
    recovered = run_invert(sigma, reference.tree)
    assert tree_equal(recovered, document)


def test_deep_document_serializes_and_reparses(bundle):
    _source, _target, sigma = bundle
    document = _deep_instance(DEPTH)
    engine = Engine()
    mapped = engine.apply_embedding(sigma, document).tree
    for indent in (2, None):
        text = to_string(mapped, indent=indent)
        reparsed = parse_xml(text)
        assert tree_equal(reparsed, mapped)


def test_deep_text_values_survive():
    """A deep document ending in PCDATA keeps its value end to end."""
    source = load_schema("node -> leaf + node\nleaf -> str",
                         format="compact", name="deep-str-src")
    target = load_schema("wrap -> leaf + wrap\nleaf -> str",
                         format="compact", root="wrap",
                         name="deep-str-tgt")
    sigma = build_embedding(
        source, target, {"node": "wrap", "leaf": "leaf"},
        {("node", "node"): "wrap", ("node", "leaf"): "leaf",
         ("leaf", "str"): "text()"})
    root = ElementNode("node")
    current = root
    for _ in range(DEPTH - 1):
        child = ElementNode("node")
        current.append(child)
        current = child
    leaf = ElementNode("leaf")
    leaf.append(TextNode("payload"))
    current.append(leaf)
    engine = Engine()
    mapped = engine.apply_embedding(sigma, root)
    recovered = engine.invert(sigma, mapped.tree)
    assert tree_equal(recovered, root)
    assert "payload" in to_string(mapped.tree, indent=None)


def test_deep_document_through_v1_map_and_invert(bundle, tmp_path):
    _source, _target, sigma = bundle
    engine = Engine()
    engine.compile_embedding(sigma, ensure_valid=True)
    store = tmp_path / "store"
    engine.save_store(store)
    document = _deep_instance(DEPTH)
    xml = to_string(document, indent=None)
    with ReproServer(store=store, port=0) as server:
        client = ServeClient.for_server(server)
        mapped = client.request("POST", "/v1/map", {"xml": xml})
        assert mapped["result"]["ok"], mapped
        mapped_xml = mapped["result"]["output"]
        inverted = client.request("POST", "/v1/invert",
                                  {"xml": mapped_xml})
        assert inverted["result"]["ok"], inverted
        assert tree_equal(parse_xml(inverted["result"]["output"]), document)
