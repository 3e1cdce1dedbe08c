"""Unit tests: the XML parser and serializer round-trip."""

import random

import pytest

from repro.dtd.generate import InstanceGenerator
from repro.workloads.library import school_example
from repro.xtree import parser
from repro.xtree.nodes import tree_equal
from repro.xtree.parser import (
    XMLParseError,
    build_tree,
    iter_events,
    iter_events_path,
    parse_xml,
)
from repro.xtree.serialize import to_string


def test_basic_document():
    tree = parse_xml("<class><cno>CS331</cno><title>DB</title></class>")
    assert tree.tag == "class"
    assert tree.children_tagged("cno")[0].child_text() == "CS331"


def test_self_closing_and_empty():
    tree = parse_xml("<r><a/><b></b></r>")
    assert [c.tag for c in tree.element_children()] == ["a", "b"]
    assert all(not c.children for c in tree.element_children())


def test_entities_decoded():
    tree = parse_xml("<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>")
    assert tree.child_text() == "x & y <z> AB"


def test_unknown_entity_rejected():
    with pytest.raises(XMLParseError):
        parse_xml("<a>&nope;</a>")


def test_whitespace_between_elements_dropped():
    tree = parse_xml("<r>\n  <a>x</a>\n  <b>y</b>\n</r>")
    assert [c.tag for c in tree.element_children()] == ["a", "b"]


def test_keep_whitespace_mode():
    tree = parse_xml("<a> x </a>", keep_whitespace=True)
    assert tree.child_text() == " x "


def test_comments_and_pis_skipped():
    tree = parse_xml("<?xml version='1.0'?><!-- hi --><r><!-- x --><a/></r>")
    assert [c.tag for c in tree.element_children()] == ["a"]


def test_doctype_skipped():
    tree = parse_xml("<!DOCTYPE r [<!ELEMENT r (a)>]><r><a/></r>")
    assert tree.tag == "r"


def test_cdata():
    tree = parse_xml("<a><![CDATA[<raw> & stuff]]></a>")
    assert tree.child_text() == "<raw> & stuff"


def test_mismatched_tags_rejected():
    with pytest.raises(XMLParseError) as err:
        parse_xml("<a><b></a></b>")
    assert "mismatched" in str(err.value)


def test_unterminated_rejected():
    with pytest.raises(XMLParseError):
        parse_xml("<a><b>")


def test_trailing_content_rejected():
    with pytest.raises(XMLParseError):
        parse_xml("<a/><b/>")


def test_attributes_rejected_by_default():
    with pytest.raises(XMLParseError) as err:
        parse_xml('<a x="1"/>')
    assert "attribute" in str(err.value)


def test_attributes_ignored_when_allowed():
    tree = parse_xml('<a x="1" y=\'2\'><b/></a>', allow_attributes=True)
    assert [c.tag for c in tree.element_children()] == ["b"]


def test_parse_error_reports_position():
    with pytest.raises(XMLParseError) as err:
        parse_xml("<a>\n<b>oops</a>")
    assert "line 2" in str(err.value)


def test_roundtrip_pretty_and_compact():
    source = "<r><a>x &amp; y</a><b><c/></b></r>"
    tree = parse_xml(source)
    assert tree_equal(parse_xml(to_string(tree)), tree)
    assert to_string(tree, indent=None) == source


def test_serialize_show_ids():
    tree = parse_xml("<a><b/></a>")
    rendered = to_string(tree, show_ids=True)
    assert f'id="{tree.node_id}"' in rendered


# -- hostile inputs: always XMLParseError, never a raw ValueError ------------

def test_malformed_charref_hex_digits():
    with pytest.raises(XMLParseError) as err:
        parse_xml("<a>&#xZZ;</a>")
    assert "character reference" in str(err.value)
    assert "line 1" in str(err.value)


def test_malformed_charref_empty():
    with pytest.raises(XMLParseError):
        parse_xml("<a>&#;</a>")


def test_charref_out_of_unicode_range():
    with pytest.raises(XMLParseError) as err:
        parse_xml("<a>&#x110000;</a>")
    assert "Unicode range" in str(err.value)
    with pytest.raises(XMLParseError):
        parse_xml("<a>&#1114112;</a>")  # the same code point, decimal


def test_charref_negative_rejected():
    with pytest.raises(XMLParseError):
        parse_xml("<a>&#-65;</a>")


def test_charref_boundaries_accepted():
    assert parse_xml("<a>&#x41;&#66;</a>").child_text() == "AB"
    assert parse_xml("<a>&#x10FFFF;</a>").child_text() == "\U0010ffff"


def test_charref_surrogates_rejected():
    # XML's Char production excludes surrogates, and chr(0xD800) would
    # produce a string that cannot even be UTF-8 encoded on output.
    for snippet in ("<a>&#xD800;</a>", "<a>&#xDFFF;</a>", "<a>&#55296;</a>"):
        with pytest.raises(XMLParseError):
            parse_xml(snippet)


def test_digit_leading_name_rejected():
    # dtd/parser's _NAME_RE ([A-Za-z_][\w.-]*) can never declare <1abc>,
    # so the document parser must reject it too.
    with pytest.raises(XMLParseError):
        parse_xml("<1abc></1abc>")


def test_punctuation_leading_names_rejected():
    for source in ("<-a/>", "<.a/>", "<a><2b/></a>"):
        with pytest.raises(XMLParseError):
            parse_xml(source)


def test_underscore_leading_name_accepted():
    assert parse_xml("<_a><b.c-d/></_a>").tag == "_a"


#: (snippet, exact error text) — message, line and column are pinned so
#: any change to the scanner shows up here, not only a change of type.
HOSTILE_SNIPPETS = [
    ("<a>&#xZZ;</a>",
     "malformed character reference &#xZZ; at line 1, column 10"),
    ("<a>&#;</a>",
     "malformed character reference &#; at line 1, column 7"),
    ("<a>&#x110000;</a>",
     "character reference &#x110000; is outside the Unicode range "
     "at line 1, column 14"),
    ("<a>&#xFFFFFFFFFFFF;</a>",
     "character reference &#xFFFFFFFFFFFF; is outside the Unicode range "
     "at line 1, column 20"),
    ("<a>&#-1;</a>",
     "character reference &#-1; is outside the Unicode range "
     "at line 1, column 9"),
    ("<a>&#x;</a>",
     "malformed character reference &#x; at line 1, column 8"),
    ("<a>&#xD800;</a>",
     "character reference &#xD800; is a surrogate code point "
     "at line 1, column 12"),
    ("<1abc></1abc>", "expected a name at line 1, column 2"),
    ("<-x/>", "expected a name at line 1, column 2"),
    ("<.y/>", "expected a name at line 1, column 2"),
    ("<a><1b/></a>", "expected a name at line 1, column 5"),
    ("<a>&nope;</a>", "unknown entity &nope; at line 1, column 10"),
    ("<a>&amp</a>", "unterminated entity reference at line 1, column 8"),
    ("<a><b></a></b>",
     "mismatched end tag </a>, expected </b> at line 1, column 10"),
    ("<a><b>", "unterminated element <b> at line 1, column 7"),
    ("<a/><b/>",
     "trailing content after the root element at line 1, column 5"),
    ("<a", "expected '>' at line 1, column 3"),
    ("", "expected a root element at line 1, column 1"),
    ("   ", "expected a root element at line 1, column 4"),
    ("plain text", "expected a root element at line 1, column 1"),
    ("<>", "expected a name at line 1, column 2"),
    ("<a x=1/>", "expected quoted attribute value at line 1, column 7"),
    ('<a x="1"/>',
     "attribute 'x' not supported by the paper's data model "
     "(pass allow_attributes=True to ignore attributes) at line 1, column 9"),
    # Non-ASCII names: the first character must be alphabetic, and
    # non-decimal numerics (which ``[^\W\d]`` would admit) are not.
    ("<²a/>", "expected a name at line 1, column 2"),
    ("<Ⅻ/>", "expected a name at line 1, column 2"),
    ("<a><²b/></a>", "expected a name at line 1, column 5"),
    ("<a><!-- x</a>",
     "unterminated construct, missing '-->' at line 1, column 8"),
    ("<a><![CDATA[x</a>",
     "unterminated construct, missing ']]>' at line 1, column 13"),
    ("<a><?pi x</a>",
     "unterminated construct, missing '?>' at line 1, column 6"),
    ("<!-- x", "unterminated construct, missing '-->' at line 1, column 5"),
    ("<a>\n  <!-- x\n</a>",
     "unterminated construct, missing '-->' at line 2, column 7"),
    # Larger than one read of a file: the error's line and column are
    # counted across the dropped prefix of the window.
    ("<r>\n" + "<a>x</a>\n" * 8000 + "<b>&bad;</b></r>",
     "unknown entity &bad; at line 8002, column 9"),
    ("<r>\n" + "<a>x</a>\n" * 8000 + "</r>\n<x/>",
     "trailing content after the root element at line 8003, column 1"),
]


def _file_events(tmp_path, text, **options):
    path = tmp_path / "doc.xml"
    path.write_text(text)
    return iter_events_path(path, **options)


def _hostile_id(snippet):
    return snippet if len(snippet) < 80 else f"{len(snippet)}-char document"


@pytest.mark.parametrize(
    "snippet,message,source",
    [pytest.param(snippet, message, "string", id=_hostile_id(snippet))
     for snippet, message in HOSTILE_SNIPPETS]
    + [pytest.param(snippet, message, "file",
                    id="file:" + _hostile_id(snippet))
       for snippet, message in HOSTILE_SNIPPETS])
def test_hostile_corpus_raises_only_xmlparseerror(snippet, message, source,
                                                  tmp_path, monkeypatch):
    """The ingestion contract: any malformed input is XMLParseError —
    a bare ValueError/IndexError from parse_xml is a bug — and its text
    (message, line, column) is exactly the pinned one, from a string
    and from a file read one character at a time."""
    with pytest.raises(XMLParseError) as err:
        if source == "string":
            parse_xml(snippet)
        else:
            monkeypatch.setattr(parser, "_READ_CHARS", 1)
            list(_file_events(tmp_path, snippet))
    assert str(err.value) == message


def test_non_ascii_names_accepted(tmp_path):
    source = "<Ω><ÿé>x</ÿé><n:s.é-1/></Ω>"
    expected = [("start", "Ω"), ("start", "ÿé"), ("text", "x"),
                ("end", "ÿé"), ("start", "n:s.é-1"), ("end", "n:s.é-1"),
                ("end", "Ω")]
    assert list(iter_events(source)) == expected
    assert list(_file_events(tmp_path, source)) == expected
    assert parse_xml("<Ω/>").tag == "Ω"


def _outcome(events):
    """(events, error text, error pos) of draining ``events``."""
    seen = []
    try:
        for event in events:
            seen.append(event)
    except XMLParseError as err:
        return seen, str(err), err.pos
    return seen, None, None


def test_line_endings_normalised_on_string_and_file(tmp_path):
    r"""XML 1.0 §2.11: ``\r\n`` and a lone ``\r`` read as ``\n``
    from a string exactly as from a (universal-newline) file, so events
    and error lines and columns agree; ``&#13;`` still gives ``\r``."""
    path = tmp_path / "doc.xml"
    outcomes = []
    for text in ("<db>\r\n<cno>CS\r\n331</cno><t>DB\rX&#13;Y</t></db>",
                 "<db>\r\n<cno>CS\r\n331</cno>\r<t>DB\rX</x></db>",
                 "<db>\r\r\n<a>&bad;</a></db>"):
        path.write_bytes(text.encode())
        normalised = text.replace("\r\n", "\n").replace("\r", "\n")
        outcome = _outcome(iter_events(text))
        assert outcome == _outcome(iter_events(normalised))
        assert outcome == _outcome(iter_events_path(path))
        outcomes.append(outcome)
    assert outcomes[0] == ([
        ("start", "db"), ("start", "cno"), ("text", "CS\n331"),
        ("end", "cno"), ("start", "t"), ("text", "DB\nX\rY"), ("end", "t"),
        ("end", "db")], None, None)
    assert outcomes[1][1] == ("mismatched end tag </x>, expected </t> "
                              "at line 5, column 5")
    assert outcomes[2][1] == "unknown entity &bad; at line 3, column 9"


def _mutate(text, rng):
    chars = list(text)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(chars) + 1)
        roll = rng.random()
        if roll < 0.4 and chars:
            del chars[min(at, len(chars) - 1)]
        elif roll < 0.85:
            chars.insert(at, rng.choice("<>/&;![]-?=\n \"'aΩ²"))
        else:
            del chars[at:]
    return "".join(chars)


def test_string_and_file_events_identical_across_read_seams(tmp_path,
                                                           monkeypatch):
    """Seeded differential check: on generated and mutated documents,
    the file scanner at tiny read sizes (every construct straddles a
    seam) yields the string scanner's events and error text and pos."""
    rng = random.Random(16)
    classes = school_example().classes
    extras = ["<!-- c -->", "<?pi x?>", "<![CDATA[<x>&]]>", "&amp;&#65;",
              " \n ", '<a x="1"/>', "<!DOCTYPE d [<!ELEMENT d (a)>]>"]
    documents = []
    for seed in range(40):
        text = to_string(InstanceGenerator(classes, seed=seed, max_depth=6,
                                           star_mean=1.5).generate())
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(extras) + text[at:]
        documents.append(text)
        documents.append(_mutate(text, rng))
    path = tmp_path / "doc.xml"
    for text in documents:
        path.write_text(text)
        for options in ({}, {"allow_attributes": True},
                        {"keep_whitespace": True}):
            expected = _outcome(iter_events(text, **options))
            for size in (1, 2, 3, 7, 64):
                monkeypatch.setattr(parser, "_READ_CHARS", size)
                assert _outcome(iter_events_path(path, **options)) \
                    == expected, (text, options, size)


def test_node_ids_preorder_and_build_tree_stops_at_element_end():
    # Every node, including text merged from CDATA and entities, gets
    # consecutive ids in document preorder.
    tree = parse_xml("<r>a &amp; <![CDATA[<b>]]>c<x><y/>t</x><!-- c -->"
                     "<z>&#65;</z>tail</r>")
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_text():
            stack.extend(reversed(node.children))
    assert [n.value if n.is_text() else n.tag for n in order] == [
        "r", "a & <b>c", "x", "y", "t", "z", "A", "tail"]
    first = order[0].node_id
    assert [n.node_id for n in order] == list(
        range(first, first + len(order)))

    # Over a shared iterator, build_tree takes exactly one element's
    # events and leaves the next event for the caller.
    events = iter_events("<r><a><b>x</b></a><c/></r>")
    assert next(events) == ("start", "r")
    subtree = build_tree(events)
    assert to_string(subtree, indent=None) == "<a><b>x</b></a>"
    assert next(events) == ("start", "c")
    assert list(events) == [("end", "c"), ("end", "r")]
