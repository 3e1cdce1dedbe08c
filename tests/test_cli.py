"""CLI round-trip tests: embed → map → translate → invert via files."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import embedding_from_json, embedding_to_json, main
from repro.core.instmap import InstMap
from repro.engine.compiled import CompiledEmbedding
from repro.serve import ServiceState, dispatch
from repro.workloads.library import school_example
from repro.dtd.serialize import dtd_to_text
from repro.xtree.nodes import tree_equal
from repro.xtree.parser import XMLParseError, parse_xml
from repro.xtree.serialize import to_string


@pytest.fixture()
def files(tmp_path, school):
    source_path = tmp_path / "classes.dtd"
    source_path.write_text(dtd_to_text(school.classes))
    target_path = tmp_path / "school.dtd"
    target_path.write_text(dtd_to_text(school.school))
    doc_path = tmp_path / "doc.xml"
    doc_path.write_text(
        "<db><class><cno>CS331</cno><title>DB</title>"
        "<type><project>p1</project></type></class></db>")
    return tmp_path, source_path, target_path, doc_path


@pytest.fixture()
def school(request):
    return school_example()


def test_embedding_json_roundtrip(school):
    text = embedding_to_json(school.sigma1)
    rebuilt = embedding_from_json(text, school.classes, school.school)
    assert rebuilt.lam == school.sigma1.lam
    assert rebuilt.paths == school.sigma1.paths
    rebuilt.check()


def test_cli_embed_map_invert(files, capsys):
    tmp_path, source_path, target_path, doc_path = files
    embedding_path = tmp_path / "sigma.json"
    code = main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"])
    assert code == 0
    assert json.loads(embedding_path.read_text())["lam"]

    code = main(["map", str(source_path), str(target_path),
                 str(embedding_path), str(doc_path)])
    assert code == 0
    mapped_text = capsys.readouterr().out
    mapped_path = tmp_path / "mapped.xml"
    mapped_path.write_text(mapped_text)

    code = main(["invert", str(source_path), str(target_path),
                 str(embedding_path), str(mapped_path)])
    assert code == 0
    recovered = parse_xml(capsys.readouterr().out)
    assert tree_equal(recovered, parse_xml(doc_path.read_text()))


def test_cli_map_buffered_and_streamed_bytes_identical(files, school,
                                                       capsys):
    """``repro map``, ``repro map --stream`` and ``--stream --out`` write
    the same bytes — the interpreter's serialization of σd — on a
    school document long enough to stream in several chunks."""
    tmp_path, source_path, target_path, _ = files
    embedding_path = tmp_path / "sigma1.json"
    embedding_path.write_text(embedding_to_json(school.sigma1))
    doc_path = tmp_path / "big.xml"
    doc_path.write_text("<db>" + "".join(
        f"<class><cno>CS{i}</cno><title>T &amp; {i}</title>"
        f"<type><project>p{i}</project></type></class>"
        for i in range(700)) + "</db>")
    args = ["map", str(source_path), str(target_path), str(embedding_path),
            str(doc_path)]

    assert main(args) == 0
    buffered = capsys.readouterr().out
    assert main(args + ["--stream"]) == 0
    streamed = capsys.readouterr()
    assert "frame(s) live" in streamed.err
    out_path = tmp_path / "mapped.xml"
    assert main(args + ["--stream", "--out", str(out_path)]) == 0
    capsys.readouterr()

    reference = InstMap(school.sigma1).apply(parse_xml(doc_path.read_text()))
    assert buffered == to_string(reference.tree) + "\n"
    assert streamed.out == buffered
    assert out_path.read_text() == buffered


def test_crlf_document_maps_to_the_same_bytes_on_every_surface(
        files, school, capsys):
    """A CR/CRLF document maps to the same bytes from a string
    (``map_text``, ``/v1/map``) as from a file (``repro map``, with and
    without ``--stream``), and a malformed one fails at the same line
    and column: string input normalises line endings as files do."""
    tmp_path, source_path, target_path, _ = files
    embedding_path = tmp_path / "sigma1.json"
    embedding_path.write_text(embedding_to_json(school.sigma1))
    doc_path = tmp_path / "crlf.xml"
    compiled = CompiledEmbedding(school.sigma1)
    state = ServiceState.from_embedding(school.sigma1)
    good = ("<db>\r\n<class><cno>CS\r\n331</cno><title>DB\rX</title>"
            "<type><project>p\r\n</project></type></class>\r\n</db>\r\n")
    bad = "<db>\r\n<class>\r<cno>CS&bad;</cno></class></db>"
    for text in (good, bad):
        doc_path.write_bytes(text.encode())
        args = ["map", str(source_path), str(target_path),
                str(embedding_path), str(doc_path)]
        surfaces = []
        for extra in ([], ["--stream"]):
            code = main(args + extra)
            captured = capsys.readouterr()
            surfaces.append(captured.out if code == 0
                            else captured.err.strip().splitlines()[-1])
        status, payload = dispatch(state, "POST", "/v1/map",
                                   json.dumps({"xml": text}).encode())
        assert status == 200
        result = payload["result"]
        if text is good:
            mapped = compiled.map_text(text)
            assert "CS\n331" in mapped and "DB\nX" in mapped
            assert surfaces == [mapped + "\n"] * 2
            assert result["output"] == mapped
        else:
            message = "unknown entity &bad; at line 3, column 13"
            with pytest.raises(XMLParseError) as err:
                compiled.map_text(text)
            assert str(err.value) == message
            assert all(line.endswith(message) for line in surfaces)
            assert result["error"] == f"XMLParseError: {message}"


def test_cli_translate(files, capsys):
    tmp_path, source_path, target_path, doc_path = files
    embedding_path = tmp_path / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    code = main(["translate", str(source_path), str(target_path),
                 str(embedding_path), "class/cno/text()"])
    assert code == 0
    output = capsys.readouterr().out
    assert "ANFA" in output and "-->" in output


def test_cli_xslt(files, capsys):
    tmp_path, source_path, target_path, doc_path = files
    embedding_path = tmp_path / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    assert main(["xslt", str(source_path), str(target_path),
                 str(embedding_path)]) == 0
    assert "<xsl:stylesheet" in capsys.readouterr().out
    assert main(["xslt", str(source_path), str(target_path),
                 str(embedding_path), "--inverse"]) == 0
    assert "xsl:apply-templates" in capsys.readouterr().out


def test_cli_validate(files, capsys):
    _tmp, source_path, _target, doc_path = files
    assert main(["validate", str(source_path), str(doc_path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_rejects(files, tmp_path, capsys):
    _tmp, source_path, _target, _doc = files
    bad = tmp_path / "bad.xml"
    bad.write_text("<db><wrong/></db>")
    assert main(["validate", str(source_path), str(bad)]) == 1


def test_cli_embed_failure_exit_code(tmp_path):
    source = tmp_path / "s.dtd"
    source.write_text("<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)>")
    target = tmp_path / "t.dtd"
    target.write_text("<!ELEMENT x (y)><!ELEMENT y (#PCDATA)>")
    assert main(["embed", str(source), str(target)]) == 1


def test_cli_batch_map(files, tmp_path, capsys):
    tmp, source_path, target_path, doc_path = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    second = tmp / "doc2.xml"
    second.write_text(
        "<db><class><cno>CS351</cno><title>OS</title>"
        "<type><project>p2</project></type></class></db>")
    # A same-named document in another directory must not overwrite.
    subdir = tmp_path / "other"
    subdir.mkdir()
    clash = subdir / "doc.xml"
    clash.write_text(second.read_text())
    out_dir = tmp_path / "mapped"
    code = main(["batch", "map", str(source_path), str(target_path),
                 str(embedding_path), str(doc_path), str(second),
                 str(clash), "--out-dir", str(out_dir), "--stats"])
    assert code == 0
    written = sorted(p.name for p in out_dir.iterdir())
    assert written == ["doc-2.mapped.xml", "doc.mapped.xml",
                       "doc2.mapped.xml"]
    err = capsys.readouterr().err
    assert "embeddings: " in err  # --stats cache counters
    # Round-trip each mapped file through invert.
    for original, mapped_name in [(doc_path, "doc.mapped.xml"),
                                  (second, "doc2.mapped.xml")]:
        assert main(["invert", str(source_path), str(target_path),
                     str(embedding_path), str(out_dir / mapped_name)]) == 0
        recovered = parse_xml(capsys.readouterr().out)
        assert tree_equal(recovered, parse_xml(original.read_text()))


def test_cli_batch_translate(files, capsys):
    tmp, source_path, target_path, _doc = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    code = main(["batch", "translate", str(source_path), str(target_path),
                 str(embedding_path), "class/cno/text()", "class/cno/text()",
                 "class", "--stats"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.count("ANFA") == 3
    # The repeated query is a translation-cache hit.
    assert "translations: 1 hits, 2 misses" in captured.err


def test_cli_att_file(files, tmp_path):
    _tmp, source_path, target_path, _doc = files
    att_path = tmp_path / "att.json"
    # An att that blocks everything except an identity-ish core — the
    # search must fail because most types have no candidates.
    att_path.write_text(json.dumps([
        {"source": "db", "target": "school", "score": 1.0}]))
    assert main(["embed", str(source_path), str(target_path),
                 "--att", str(att_path)]) == 1


def test_cli_batch_map_jobs_byte_identical(files, tmp_path, capsys):
    """--jobs 2 --store writes byte-identical files to --jobs 1."""
    tmp, source_path, target_path, doc_path = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for index in range(6):
        (corpus / f"d{index}.xml").write_text(
            f"<db><class><cno>CS{index}</cno><title>T{index}</title>"
            "<type><project>p</project></type></class></db>")
    store = tmp_path / "store"
    out_serial = tmp_path / "out1"
    out_parallel = tmp_path / "out2"
    assert main(["batch", "map", str(source_path), str(target_path),
                 str(embedding_path), str(corpus), "--jobs", "1",
                 "--store", str(store), "--out-dir", str(out_serial),
                 "--stats"]) == 0
    err = capsys.readouterr().err
    # Warm-started from the store: zero compile misses while serving.
    assert "embeddings: 6 hits, 0 misses" in err
    assert main(["batch", "map", str(source_path), str(target_path),
                 str(embedding_path), str(corpus), "--jobs", "2",
                 "--store", str(store), "--out-dir", str(out_parallel)]) == 0
    capsys.readouterr()
    serial_files = sorted(p.name for p in out_serial.iterdir())
    parallel_files = sorted(p.name for p in out_parallel.iterdir())
    assert serial_files == parallel_files == \
        [f"d{i}.mapped.xml" for i in range(6)]
    for name in serial_files:
        assert (out_serial / name).read_bytes() == \
            (out_parallel / name).read_bytes()


def test_cli_batch_map_ndjson_corpus_and_failures(files, tmp_path, capsys):
    tmp, source_path, target_path, _doc = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    corpus = tmp_path / "corpus.ndjson"
    corpus.write_text(
        json.dumps({"name": "good.xml",
                    "xml": "<db><class><cno>CS1</cno><title>T</title>"
                           "<type><project>p</project></type>"
                           "</class></db>"}) + "\n"
        + json.dumps({"name": "bad.xml", "xml": "<1abc></1abc>"}) + "\n")
    code = main(["batch", "map", str(source_path), str(target_path),
                 str(embedding_path), str(corpus)])
    assert code == 1  # the bad document fails the batch exit code
    captured = capsys.readouterr()
    assert "# good.xml" in captured.err
    assert "bad.xml: FAILED: XMLParseError" in captured.err
    assert "<school>" in captured.out


def test_cli_store_build_and_inspect(files, tmp_path, capsys):
    tmp, source_path, target_path, _doc = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    store = tmp_path / "store"
    assert main(["store", "build", str(store), str(source_path),
                 str(target_path), str(embedding_path)]) == 0
    capsys.readouterr()
    assert main(["store", "inspect", str(store)]) == 0
    text = capsys.readouterr().out
    assert "schema" in text and "embedding" in text and "validated=True" in text
    assert main(["store", "inspect", str(store), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(summary["schemas"]) == 2
    assert len(summary["embeddings"]) == 1


def test_cli_store_pack(files, tmp_path, capsys):
    from repro.engine import current_generation, open_view

    tmp, source_path, target_path, _doc = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    store = tmp_path / "store"
    assert main(["store", "build", str(store), str(source_path),
                 str(target_path), str(embedding_path)]) == 0
    capsys.readouterr()
    assert main(["store", "pack", str(store)]) == 0
    out = capsys.readouterr().out
    assert "generation 1" in out and "pack-00000001.bin" in out
    assert current_generation(store) == 1
    with open_view(store) as view:
        assert len(view.embedding_fingerprints()) == 1
        assert view.json_parses == 0
    # Repacking publishes the next generation (the hot-reload step).
    assert main(["store", "pack", str(store)]) == 0
    assert current_generation(store) == 2
    # Packing a store that doesn't exist exits 2 with one clean line.
    assert main(["store", "pack", str(tmp_path / "missing")]) == 2


def test_cli_batch_translate_jobs(files, capsys, tmp_path):
    tmp, source_path, target_path, _doc = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    store = tmp_path / "store"
    code = main(["batch", "translate", str(source_path), str(target_path),
                 str(embedding_path), "class/cno/text()", "class[",
                 "class", "--jobs", "2", "--store", str(store), "--stats"])
    assert code == 1  # the malformed query fails the exit code
    captured = capsys.readouterr()
    assert captured.out.count("ANFA") == 2
    assert "class[: FAILED" in captured.err


def _error_line(capsys) -> str:
    """The CLI's single stderr error line (and assert it is alone)."""
    err = capsys.readouterr().err.strip()
    assert err.startswith("repro: error: "), err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    return err


def test_cli_malformed_embedding_json_is_clean_error(files, capsys):
    tmp, source_path, target_path, doc_path = files
    bad = tmp / "bad.json"
    bad.write_text("{not json at all")
    code = main(["map", str(source_path), str(target_path), str(bad),
                 str(doc_path)])
    assert code == 2
    assert "bad.json" in _error_line(capsys)


def test_cli_embedding_json_missing_keys_is_clean_error(files, capsys):
    tmp, source_path, target_path, doc_path = files
    bad = tmp / "shape.json"
    bad.write_text(json.dumps({"lam": {}, "paths": [{"source": "db"}]}))
    code = main(["batch", "map", str(source_path), str(target_path),
                 str(bad), str(doc_path)])
    assert code == 2
    err = _error_line(capsys)
    assert "shape.json" in err and "paths[0]" in err


def test_cli_missing_input_file_is_clean_error(files, capsys):
    _tmp, source_path, target_path, _doc = files
    code = main(["batch", "translate", str(source_path), str(target_path),
                 "/nonexistent/sigma.json", "class"])
    assert code == 2
    assert "sigma.json" in _error_line(capsys)


def test_cli_malformed_dtd_is_clean_error(files, tmp_path, capsys):
    _tmp, source_path, _target, _doc = files
    bad = tmp_path / "broken.dtd"
    bad.write_text("<!ELEMENT a (unclosed")
    code = main(["validate", str(bad), str(bad)])
    assert code == 2
    assert "broken.dtd" in _error_line(capsys)


def test_cli_store_inspect_corrupt_manifest_is_clean_error(tmp_path,
                                                           capsys):
    store = tmp_path / "store"
    store.mkdir()
    (store / "manifest.json").write_text("{torn write")
    code = main(["store", "inspect", str(store)])
    assert code == 2
    assert "corrupt" in _error_line(capsys)


def test_cli_store_build_malformed_embedding_is_clean_error(files,
                                                            tmp_path,
                                                            capsys):
    tmp, source_path, target_path, _doc = files
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(["not", "an", "object"]))
    code = main(["store", "build", str(tmp_path / "store"),
                 str(source_path), str(target_path), str(bad)])
    assert code == 2
    assert "bad.json" in _error_line(capsys)


def test_cli_bad_att_file_is_clean_error(files, tmp_path, capsys):
    _tmp, source_path, target_path, _doc = files
    att = tmp_path / "att.json"
    att.write_text(json.dumps({"source": "db"}))
    code = main(["embed", str(source_path), str(target_path),
                 "--att", str(att)])
    assert code == 2
    assert "att.json" in _error_line(capsys)


def test_cli_non_numeric_att_score_is_clean_error(files, tmp_path,
                                                  capsys):
    _tmp, source_path, target_path, _doc = files
    att = tmp_path / "att.json"
    att.write_text(json.dumps([
        {"source": "db", "target": "school", "score": "high"}]))
    code = main(["embed", str(source_path), str(target_path),
                 "--att", str(att)])
    assert code == 2
    err = _error_line(capsys)
    assert "att.json" in err and "score" in err


def test_cli_serve_missing_store_is_clean_error(tmp_path, capsys):
    code = main(["serve", str(tmp_path / "nowhere")])
    assert code == 2
    assert "nowhere" in _error_line(capsys)


def test_cli_no_traceback_in_subprocess(files, tmp_path):
    """End to end through the real interpreter: exit 2, one line, no
    traceback — what a shell user actually sees."""
    _tmp, source_path, target_path, _doc = files
    bad = tmp_path / "bad.json"
    bad.write_text("][")
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "map", str(source_path),
         str(target_path), str(bad), str(bad)],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert result.returncode == 2
    assert result.stderr.startswith("repro: error: ")
    assert "Traceback" not in result.stderr


def test_cli_malformed_xsd_is_clean_error(files, tmp_path, capsys):
    """A truncated XSD document: exit 2, one path-prefixed line."""
    _tmp, source_path, _target, _doc = files
    bad = tmp_path / "broken.xsd"
    bad.write_text('<xs:schema xmlns:xs="http://www.w3.org/2001/'
                   'XMLSchema"><xs:element name="a">')
    code = main(["validate", str(bad), str(bad)])
    assert code == 2
    err = _error_line(capsys)
    assert "broken.xsd" in err and "not well-formed" in err


def test_cli_unsupported_xsd_construct_is_clean_error(tmp_path, capsys):
    bad = tmp_path / "fancy.xsd"
    bad.write_text('<xs:schema xmlns:xs="http://www.w3.org/2001/'
                   'XMLSchema"><xs:element name="a"><xs:complexType>'
                   '<xs:all><xs:element ref="b"/></xs:all>'
                   '</xs:complexType></xs:element>'
                   '<xs:element name="b" type="xs:string"/></xs:schema>')
    code = main(["validate", str(bad), str(bad)])
    assert code == 2
    err = _error_line(capsys)
    assert "fancy.xsd" in err and "xs:all" in err


def test_cli_undetectable_format_is_clean_error(files, tmp_path, capsys):
    _tmp, _source, target_path, _doc = files
    mystery = tmp_path / "mystery.schema"
    mystery.write_text("this is neither markup nor productions\n")
    code = main(["embed", str(mystery), str(target_path)])
    assert code == 2
    err = _error_line(capsys)
    assert "mystery.schema" in err and "cannot detect" in err


def test_cli_wrong_explicit_format_is_clean_error(files, capsys):
    """--format xsd against DTD text fails loudly, not by sniffing."""
    _tmp, source_path, target_path, _doc = files
    code = main(["embed", "--format", "xsd", str(source_path),
                 str(target_path)])
    assert code == 2
    err = _error_line(capsys)
    assert str(source_path.name) in err


def test_cli_xsd_workflow_matches_dtd(files, tmp_path, capsys):
    """The same grammar as .xsd files: embed finds the identical
    embedding JSON, and the store records format + provenance."""
    from repro.schema import dtd_to_xsd, load_schema

    tmp, source_path, target_path, _doc = files
    source_xsd = tmp_path / "classes.xsd"
    source_xsd.write_text(dtd_to_xsd(load_schema(
        source_path.read_text())))
    target_xsd = tmp_path / "school.xsd"
    target_xsd.write_text(dtd_to_xsd(load_schema(
        target_path.read_text())))

    sigma_dtd = tmp / "sigma-dtd.json"
    sigma_xsd = tmp_path / "sigma-xsd.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(sigma_dtd), "--seed", "1"]) == 0
    assert main(["embed", "--format", "xsd", str(source_xsd),
                 str(target_xsd), "--out", str(sigma_xsd),
                 "--seed", "1"]) == 0
    assert sigma_dtd.read_text() == sigma_xsd.read_text()

    store = tmp_path / "store"
    assert main(["store", "build", str(store), str(source_xsd),
                 str(target_xsd), str(sigma_xsd)]) == 0
    capsys.readouterr()
    assert main(["store", "inspect", str(store)]) == 0
    text = capsys.readouterr().out
    assert "format=xsd" in text and "source=sources/" in text
    assert main(["store", "inspect", str(store), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert {row["format"] for row in summary["schemas"]} == {"xsd"}
    assert all(row["source"] for row in summary["schemas"])


def test_cli_store_inspect_legacy_store_reads_as_dtd(files, tmp_path,
                                                     capsys):
    """Stores written before the frontend layer inspect as format=dtd."""
    tmp, source_path, target_path, _doc = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    store = tmp_path / "store"
    assert main(["store", "build", str(store), str(source_path),
                 str(target_path), str(embedding_path)]) == 0
    manifest_path = store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["schemas"].values():
        entry.pop("format", None)
        entry.pop("source", None)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["store", "inspect", str(store)]) == 0
    text = capsys.readouterr().out
    assert "format=dtd" in text and "source=none" in text


def test_cli_batch_map_isolates_corpus_level_failures(files, tmp_path,
                                                      capsys):
    """A missing corpus path is reported and the rest keeps serving."""
    tmp, source_path, target_path, doc_path = files
    embedding_path = tmp / "sigma.json"
    assert main(["embed", str(source_path), str(target_path),
                 "--out", str(embedding_path), "--seed", "1"]) == 0
    missing = tmp_path / "nowhere.xml"
    code = main(["batch", "map", str(source_path), str(target_path),
                 str(embedding_path), str(missing), str(doc_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "nowhere.xml: FAILED" in captured.err
    assert "# doc.xml" in captured.err  # the good document still served
    assert "<school>" in captured.out
