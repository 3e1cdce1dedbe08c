"""Command-line interface: ``python -m repro.cli <command>``.

Commands mirror the paper's workflow:

* ``embed``     — find a schema embedding between two DTD files and
  print it (λ + paths), optionally as JSON;
* ``map``       — apply an embedding to a source document (σd);
* ``invert``    — recover the source document from a mapped one (σd⁻¹);
* ``translate`` — translate an XR query; print the ANFA and, when
  state elimination stays small, the equivalent XR expression;
* ``xslt``      — emit the generated σd / σd⁻¹ stylesheets;
* ``validate``  — check a document against a DTD;
* ``batch``     — engine-backed batch serving: ``batch map`` runs σd
  over document corpora (files, directories of ``*.xml``, or NDJSON
  streams) and ``batch translate`` serves many queries, compiling the
  embedding exactly once.  ``--jobs N`` fans the batch across N worker
  processes (results stay in corpus order and are identical to
  ``--jobs 1``); ``--store DIR`` persists the compiled artifacts so
  workers — and future processes — warm-start with zero compile
  misses; ``--stats`` prints the aggregated cache counters;
* ``store``     — artifact-store management: ``store build`` compiles
  schemas + an embedding into a store directory up front, ``store
  inspect`` summarises a store's manifest (``--json`` emits the full
  provenance — schema formats, source text, lineage edges — machine-
  readably), ``store pack`` collapses the store into one mmap-able
  binary generation (the fleet's zero-copy warm-start source;
  repacking hot-reloads running fleets);
* ``evolve``    — schema evolution: per-query compatibility verdicts
  across a version bump (``repro evolve OLD NEW --queries FILE``) —
  each stored query comes back ``still-valid``, ``translatable``
  (re-translated query attached) or ``broken`` (structured reason);
  ``--store DIR`` records the bump as a lineage edge next to the
  compiled artifacts.  Exits 1 when no embedding exists between the
  versions or any query broke;
* ``serve``     — the long-lived HTTP daemon: warm-start from an
  artifact store and serve ``POST /v1/map|translate|invert|find|evolve``
  plus ``GET /healthz|/metrics`` until interrupted (see ``repro.serve``).
  ``--workers N`` pre-forks a fleet of N worker processes over the
  packed store (shared port + per-worker direct ports, crash
  supervision, hot reload); SIGTERM and Ctrl-C both drain gracefully;
* ``lint``      — the repo's own invariant linter
  (:mod:`repro.analysis`): layering, determinism, recursion,
  fork-safety and error-contract checkers over ``PATHS`` (default
  ``src``).  ``--json`` emits structured findings, ``--baseline FILE``
  suppresses grandfathered findings (and reports stale entries),
  ``--write-baseline`` snapshots current findings, ``--checks a,b``
  restricts the pass.  Exits 1 on new findings, 0 when clean.

Embeddings are (de)serialised as JSON: λ plus ``A B occ path`` rows —
the declarative transformation-language artifact of Section 4.5.

Schema files go through the pluggable frontend layer
(:mod:`repro.schema`): every subcommand takes ``--format
auto|dtd|compact|xsd`` (default ``auto`` sniffs the text), so the same
grammar works as ``<!ELEMENT>`` declarations, compact ``type -> rhs``
lines or an XSD-subset document — producing byte-identical artifacts
either way.  ``serve --format`` sets the default for inline schemas in
``/v1/find`` payloads; ``store build`` records each schema's format
and source text as provenance, shown by ``store inspect``.

Malformed inputs (unparseable schemas in any format, undetectable
formats, bad XML/JSON, corrupt stores, missing files) exit with status
2 and a one-line ``repro: error: …`` message — never a traceback;
per-item failures inside ``batch`` keep their existing
exit-1-and-keep-serving semantics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Optional

from repro.core.embedding import SchemaEmbedding, build_embedding
from repro.engine import (
    ArtifactStore,
    CompiledEmbedding,
    ParallelRunner,
    StreamStats,
    iter_corpus,
    iter_mapped,
    open_view,
    pack_store,
    stream_map_to_path,
)
from repro.core.inverse import invert
from repro.core.similarity import SimilarityMatrix
from repro.core.translate import translate_query
from repro.evolution import (
    BROKEN,
    STILL_VALID,
    TRANSLATABLE,
    evolve,
    evolve_and_record,
)
from repro.anfa.to_regex import RegexConversionError, anfa_to_xr
from repro.dtd.model import DTD
from repro.dtd.validate import ConformanceError, validate
from repro.schema import AUTO, available_formats, detect_format, load_schema
from repro.matching.search import find_embedding
from repro.serve import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    DEFAULT_RELOAD_INTERVAL,
    FleetServer,
    ReproServer,
)
from repro.xpath.parser import parse_xr
from repro.xslt.forward import forward_stylesheet
from repro.xslt.inverse import inverse_stylesheet
from repro.xslt.serialize import stylesheet_to_xslt
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string


class LoadedSchema:
    """One schema file lowered through the frontend registry, keeping
    the resolved format and raw text as provenance for stores."""

    def __init__(self, dtd: DTD, format: str, text: str) -> None:
        self.dtd = dtd
        self.format = format
        self.text = text


def _load_schema(path: str, root: Optional[str] = None,
                 format: str = AUTO) -> LoadedSchema:
    """Load a schema file in any frontend format.

    Malformed or undetectable inputs raise a ``ValueError`` whose
    message is prefixed with the offending path, so every subcommand
    exits 2 with one ``repro: error: <path>: …`` line.
    """
    text = Path(path).read_text()
    try:
        resolved = detect_format(text) if format == AUTO else format
        dtd = load_schema(text, format=resolved, root=root,
                          name=Path(path).stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return LoadedSchema(dtd, resolved, text)


def _load_dtd(path: str, root: Optional[str] = None,
              format: str = AUTO) -> DTD:
    return _load_schema(path, root=root, format=format).dtd


def embedding_to_json(embedding: SchemaEmbedding) -> str:
    payload = {
        "lam": embedding.lam,
        "paths": [{"source": a, "child": b, "occ": occ, "path": str(p)}
                  for (a, b, occ), p in sorted(embedding.paths.items())],
    }
    return json.dumps(payload, indent=2)


def embedding_from_json(text: str, source: DTD,
                        target: DTD) -> SchemaEmbedding:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("embedding JSON must be an object with 'lam' "
                         "and 'paths'")
    lam = payload.get("lam")
    rows = payload.get("paths")
    if not isinstance(lam, dict) or not isinstance(rows, list):
        raise ValueError("embedding JSON must carry a 'lam' object and "
                         "a 'paths' list")
    paths = {}
    for index, row in enumerate(rows):
        if not isinstance(row, dict) or not {"source", "child",
                                             "path"} <= row.keys():
            raise ValueError(f"paths[{index}] must be an object with "
                             "'source', 'child' and 'path'")
        paths[(row["source"], row["child"], row.get("occ", 1))] = row["path"]
    return build_embedding(source, target, lam,
                           paths)  # type: ignore[arg-type]


def _cmd_embed(args: argparse.Namespace) -> int:
    source = _load_dtd(args.source, format=args.format)
    target = _load_dtd(args.target, format=args.format)
    if args.att:
        att = SimilarityMatrix()
        try:
            rows = json.loads(Path(args.att).read_text())
            if not isinstance(rows, list):
                raise ValueError("att JSON must be a list of "
                                 '{"source", "target", "score"} rows')
            for index, row in enumerate(rows):
                if not isinstance(row, dict) or not {"source", "target",
                                                     "score"} <= row.keys():
                    raise ValueError(f"row {index} needs 'source', "
                                     "'target' and 'score'")
                score = row["score"]
                if isinstance(score, bool) or \
                        not isinstance(score, (int, float)):
                    raise ValueError(f"row {index}: 'score' must be a "
                                     "number")
                att.set(row["source"], row["target"], float(score))
        except OSError:
            raise
        except ValueError as exc:
            raise ValueError(f"{args.att}: {exc}") from exc
    elif args.match_names:
        att = SimilarityMatrix.from_names(source, target)
        att.set(source.root, target.root, 1.0)
    else:
        att = SimilarityMatrix.permissive()
    result = find_embedding(source, target, att, method=args.method,
                            seed=args.seed, restarts=args.restarts)
    if not result.found:
        print("no valid schema embedding found", file=sys.stderr)
        return 1
    assert result.embedding is not None
    print(f"# found by {result.method} in {result.seconds:.3f}s, "
          f"quality {result.quality:.2f}", file=sys.stderr)
    output = embedding_to_json(result.embedding)
    if args.out:
        Path(args.out).write_text(output)
    else:
        print(output)
    return 0


def _load_embedding(args: argparse.Namespace) -> SchemaEmbedding:
    source = _load_dtd(args.source, format=args.format)
    target = _load_dtd(args.target, format=args.format)
    try:
        embedding = embedding_from_json(Path(args.embedding).read_text(),
                                        source, target)
        embedding.check()
    except OSError:
        raise
    except ValueError as exc:
        raise ValueError(f"{args.embedding}: {exc}") from exc
    return embedding


def _cmd_map(args: argparse.Namespace) -> int:
    compiled = CompiledEmbedding(_load_embedding(args))
    compiled.mark_validated()
    if args.stream:
        # Drive σd straight from parser events: memory is bounded by
        # the largest star instance, not the document.  Output is
        # byte-identical to the buffered path below.
        if args.out:
            stats = stream_map_to_path(compiled, args.out,
                                       path=args.document)
        else:
            stats = StreamStats()
            for chunk in iter_mapped(compiled, path=args.document,
                                     stats=stats):
                sys.stdout.write(chunk)
            sys.stdout.write("\n")
        print(f"# streamed: {stats.chars_out} chars, "
              f"{stats.frames_streamed} frame(s) live, "
              f"{stats.fragments_buffered} fragment(s) buffered",
              file=sys.stderr)
        return 0
    output = compiled.map_text(Path(args.document).read_text())
    if args.out:
        Path(args.out).write_text(output + "\n")
    else:
        print(output)
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    embedding = _load_embedding(args)
    document = parse_xml(Path(args.document).read_text())
    print(to_string(invert(embedding, document)))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    embedding = _load_embedding(args)
    query = parse_xr(args.query)
    anfa = translate_query(embedding, query)
    if anfa.is_fail():
        print("# the query selects nothing over the source schema",
              file=sys.stderr)
    print(anfa.describe())
    if args.regex:
        try:
            print(f"# as XR: {anfa_to_xr(anfa)}")
        except RegexConversionError as exc:
            print(f"# no small XR form: {exc}", file=sys.stderr)
    return 0


def _cmd_xslt(args: argparse.Namespace) -> int:
    embedding = _load_embedding(args)
    sheet = (inverse_stylesheet(embedding) if args.inverse
             else forward_stylesheet(embedding))
    print(stylesheet_to_xslt(sheet))
    return 0


def _make_runner(args: argparse.Namespace) -> ParallelRunner:
    return ParallelRunner(jobs=args.jobs, store=args.store)


def _stream_corpora(paths, failures: list[tuple[str, str]]):
    """Chain corpus paths, isolating per-path failures.

    A missing file, empty directory or malformed NDJSON line is
    recorded and the remaining corpora keep serving — one bad input
    must not sink the batch (and must never raise from inside the
    worker pool's lazy task generator).
    """
    for path in paths:
        try:
            yield from iter_corpus(path)
        except OSError as exc:
            failures.append((str(path), str(exc)))
        except ValueError as exc:  # CorpusError and friends
            failures.append((str(path), str(exc)))


def _cmd_batch_map(args: argparse.Namespace) -> int:
    embedding = _load_embedding(args)
    runner = _make_runner(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    used_names: set[str] = set()

    def output_name(document_name: str) -> str:
        # Same-named inputs from different corpora must not silently
        # overwrite each other.
        stem = Path(document_name).stem
        name = f"{stem}.mapped.xml"
        suffix = 2
        while name in used_names:
            name = f"{stem}-{suffix}.mapped.xml"
            suffix += 1
        used_names.add(name)
        return name

    failures = 0
    corpus_failures: list[tuple[str, str]] = []
    corpus = _stream_corpora(args.documents, corpus_failures)
    for outcome in runner.map_corpus(embedding, corpus):
        if not outcome.ok:  # keep serving the rest of the batch
            failures += 1
            print(f"# {outcome.name}: FAILED: {outcome.output}",
                  file=sys.stderr)
            continue
        if out_dir is not None:
            out_path = out_dir / output_name(outcome.name)
            out_path.write_text(outcome.output + "\n")
            print(f"# {outcome.name} -> {out_path}", file=sys.stderr)
        else:
            print(f"# {outcome.name}", file=sys.stderr)
            print(outcome.output)
    for path, message in corpus_failures:
        failures += 1
        print(f"# {path}: FAILED: {message}", file=sys.stderr)
    if args.stats and runner.last_report is not None:
        print(runner.last_report.describe(), file=sys.stderr)
    return 1 if failures else 0


def _cmd_batch_translate(args: argparse.Namespace) -> int:
    embedding = _load_embedding(args)
    runner = _make_runner(args)
    failures = 0
    for outcome in runner.translate_outcomes(embedding, args.queries):
        if not outcome.ok:
            failures += 1
            print(f"# {outcome.query}: FAILED: {outcome.error}",
                  file=sys.stderr)
            continue
        anfa = outcome.anfa
        assert anfa is not None
        print(f"# query: {outcome.query}", file=sys.stderr)
        if anfa.is_fail():
            print("# the query selects nothing over the source schema",
                  file=sys.stderr)
        print(anfa.describe())
        if args.regex:
            try:
                print(f"# as XR: {anfa_to_xr(anfa)}")
            except RegexConversionError as exc:
                print(f"# no small XR form: {exc}", file=sys.stderr)
    if args.stats and runner.last_report is not None:
        print(runner.last_report.describe(), file=sys.stderr)
    return 1 if failures else 0


def _cmd_store_build(args: argparse.Namespace) -> int:
    source = _load_schema(args.source, format=args.format)
    target = _load_schema(args.target, format=args.format)
    store = ArtifactStore(args.store)
    store.put_schema(source.dtd, format=source.format,
                     source_text=source.text)
    store.put_schema(target.dtd, format=target.format,
                     source_text=target.text)
    for embedding_path in args.embeddings:
        try:
            embedding = embedding_from_json(
                Path(embedding_path).read_text(), source.dtd, target.dtd)
            embedding.check()
        except OSError:
            raise
        except ValueError as exc:
            raise ValueError(f"{embedding_path}: {exc}") from exc
        fingerprint = store.put_embedding(embedding, validated=True)
        print(f"# {embedding_path} -> embedding {fingerprint[:12]}…",
              file=sys.stderr)
    print(store)
    return 0


def _read_queries(path: str) -> list[str]:
    """A stored query workload: one XR query per line (blank lines and
    ``#`` comments skipped), or a JSON array of strings for ``*.json``.
    """
    text = Path(path).read_text()
    if path.endswith(".json"):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if not isinstance(rows, list) or \
                not all(isinstance(row, str) for row in rows):
            raise ValueError(f"{path}: expected a JSON array of query "
                             "strings")
        queries = list(rows)
    else:
        queries = [line.strip() for line in text.splitlines()
                   if line.strip() and not line.strip().startswith("#")]
    if not queries:
        raise ValueError(f"{path}: no queries found")
    return queries


def _cmd_evolve(args: argparse.Namespace) -> int:
    old = _load_schema(args.old, format=args.format)
    new = _load_schema(args.new, format=args.format)
    queries = _read_queries(args.queries)
    embedding: Optional[SchemaEmbedding] = None
    if args.embedding:
        try:
            embedding = embedding_from_json(
                Path(args.embedding).read_text(), old.dtd, new.dtd)
            embedding.check()
        except OSError:
            raise
        except ValueError as exc:
            raise ValueError(f"{args.embedding}: {exc}") from exc
    edge = None
    if args.store:
        store = ArtifactStore(args.store)
        report, edge = evolve_and_record(
            store, old.dtd, new.dtd, queries, embedding=embedding,
            method=args.method, seed=args.seed, restarts=args.restarts,
            samples=args.samples, old_format=old.format,
            old_source=old.text, new_format=new.format,
            new_source=new.text)
    else:
        report = evolve(old.dtd, new.dtd, queries, embedding=embedding,
                        method=args.method, seed=args.seed,
                        restarts=args.restarts, samples=args.samples)
    counts = report.counts()
    if args.json:
        payload = report.to_payload()
        if edge is not None:
            payload["lineage"] = edge.digest
        print(json.dumps(payload, indent=2))
    else:
        if not report.found:
            print("# no valid schema embedding between the versions",
                  file=sys.stderr)
        else:
            assert report.embedding is not None
            print(f"# embedding {report.embedding[:12]}… "
                  f"via {report.method}", file=sys.stderr)
        for verdict in report.verdicts:
            line = f"{verdict.verdict:<12} {verdict.query}"
            if verdict.verdict == TRANSLATABLE and verdict.translation:
                line += f"  ->  {verdict.translation}"
            elif verdict.verdict == BROKEN:
                line += f"  [{verdict.reason}]"
            print(line)
        print(f"# {counts[STILL_VALID]} still-valid, "
              f"{counts[TRANSLATABLE]} translatable, "
              f"{counts[BROKEN]} broken", file=sys.stderr)
        if edge is not None:
            print(f"# lineage edge {edge.digest[:12]}… recorded in "
                  f"{args.store}", file=sys.stderr)
    return 1 if (not report.found or counts[BROKEN]) else 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store, create=False)
    summary = store.describe()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"artifact store at {summary['path']} "
          f"(format {summary['format']} v{summary['version']})")
    for row in summary["schemas"]:
        provenance = row["source"] or "none"
        print(f"  schema    {row['fingerprint'][:12]}…  "
              f"root={row['root']}  types={row['types']}  "
              f"name={row['name']}  format={row['format']}  "
              f"source={provenance}")
    for row in summary["embeddings"]:
        print(f"  embedding {row['fingerprint'][:12]}…  "
              f"{row['source'][:12]}… -> {row['target'][:12]}…  "
              f"edges={row['edges']}  validated={row['validated']}")
    for row in summary["searches"]:
        embedding = (f"{row['embedding'][:12]}…" if row["embedding"]
                     else "not found")
        print(f"  search    {row['digest'][:12]}…  "
              f"method={row['method']}  embedding={embedding}")
    for row in summary["lineage"]:
        embedding = (f"{row['embedding'][:12]}…" if row.get("embedding")
                     else "none")
        print(f"  lineage   {row['digest'][:12]}…  "
              f"{row['old'][:12]}… -> {row['new'][:12]}…  "
              f"embedding={embedding}")
    return 0


def _graceful_sigterm() -> None:
    """Make SIGTERM (systemd/docker stop) take the same graceful drain
    path as Ctrl-C: the serve loops catch KeyboardInterrupt, drain
    in-flight requests and release the port."""
    def handler(signum, frame):
        raise KeyboardInterrupt
    try:
        signal.signal(signal.SIGTERM, handler)
    except (ValueError, OSError):
        pass  # not the main thread / restricted platform: Ctrl-C only


def _cmd_store_pack(args: argparse.Namespace) -> int:
    path = pack_store(args.store, compact=args.compact)
    with open_view(args.store) as view:
        stats = view.stats()
    print(f"packed {args.store} -> {path.name} "
          f"(generation {stats['generation']}, {stats['bytes']} bytes, "
          f"{stats['schemas']} schema(s), "
          f"{stats['embeddings']} embedding(s), "
          f"{stats['searches']} search(es), "
          f"{stats['stale']} carried)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    _graceful_sigterm()
    if args.workers is not None and args.workers != 1:
        fleet = FleetServer(args.store, workers=args.workers,
                            host=args.host, port=args.port,
                            default_format=args.format,
                            reload_interval=args.reload_interval)
        fleet.start()
        print(f"# serving {fleet.url} — fleet of {fleet.workers} "
              f"worker(s) over pack generation {fleet.generation} "
              f"of {args.store}", file=sys.stderr)
        print(f"# worker direct ports: "
              f"{' '.join(map(str, fleet.worker_ports))} — "
              "GET /fleet /metrics/fleet for topology + aggregate",
              file=sys.stderr)
        print("# POST /v1/map /v1/translate /v1/invert /v1/find "
              "/v1/evolve — GET /healthz /metrics "
              "(Ctrl-C or SIGTERM to stop)", file=sys.stderr)
        fleet.serve_forever()
        return 0
    server = ReproServer(store=args.store, host=args.host, port=args.port,
                         default_format=args.format)
    server.start()
    state = server.state
    print(f"# serving {server.url} — {len(state.embeddings)} embedding(s), "
          f"{len(state.schemas)} schema(s) warm from {args.store}",
          file=sys.stderr)
    print("# POST /v1/map /v1/translate /v1/invert /v1/find "
          "/v1/evolve — GET /healthz /metrics "
          "(Ctrl-C or SIGTERM to stop)", file=sys.stderr)
    server.serve_forever()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        apply_baseline,
        load_baseline,
        render_json,
        render_text,
        run_lint,
        write_baseline,
    )

    checkers = None
    if args.checks:
        checkers = [name.strip() for name in args.checks.split(",")
                    if name.strip()]
    findings = run_lint(args.paths, checkers=checkers)
    if args.write_baseline:
        if not args.baseline:
            raise ValueError("--write-baseline needs --baseline FILE")
        count = write_baseline(findings, args.baseline)
        print(f"# wrote {count} baseline entr"
              f"{'y' if count == 1 else 'ies'} to {args.baseline} — "
              "add a real justification to each", file=sys.stderr)
        return 0
    match = None
    if args.baseline:
        match = apply_baseline(findings, load_baseline(args.baseline))
    render = render_json if args.json else render_text
    print(render(findings, match))
    new = findings if match is None else match.new
    return 1 if new else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.schema, format=args.format)
    document = parse_xml(Path(args.document).read_text())
    try:
        validate(document, dtd)
    except ConformanceError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print("valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Information-preserving XML schema embedding "
                    "(Fan & Bohannon, VLDB 2005)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format_option(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--format", default=AUTO,
                         choices=[AUTO] + available_formats(),
                         help="schema input format (default: auto-"
                              "detect); 'serve' applies it to inline "
                              "schemas in /v1/find payloads")

    embed = sub.add_parser("embed", help="find a schema embedding")
    add_format_option(embed)
    embed.add_argument("source")
    embed.add_argument("target")
    embed.add_argument("--att", help="JSON similarity rows "
                       '[{"source","target","score"}]')
    embed.add_argument("--match-names", action="store_true",
                       help="derive att from a name matcher")
    embed.add_argument("--method", default="auto",
                       choices=["auto", "random", "quality", "indepset",
                                "exact"])
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument("--restarts", type=int, default=20)
    embed.add_argument("--out")
    embed.set_defaults(func=_cmd_embed)

    for name, func, extra in [("map", _cmd_map, "source document"),
                              ("invert", _cmd_invert, "mapped document")]:
        cmd = sub.add_parser(name, help=f"apply σd{'⁻¹' if name == 'invert' else ''}")
        cmd.add_argument("source")
        cmd.add_argument("target")
        cmd.add_argument("embedding", help="embedding JSON from 'embed'")
        cmd.add_argument("document", help=extra)
        add_format_option(cmd)
        if name == "map":
            cmd.add_argument("--stream", action="store_true",
                             help="map from parser events with bounded "
                                  "memory (byte-identical output)")
            cmd.add_argument("--out",
                             help="write the mapped document to a file "
                                  "(atomic with --stream) instead of stdout")
        cmd.set_defaults(func=func)

    translate = sub.add_parser("translate",
                               help="translate an XR query (Tr)")
    translate.add_argument("source")
    translate.add_argument("target")
    translate.add_argument("embedding")
    translate.add_argument("query")
    translate.add_argument("--regex", action="store_true",
                           help="also run state elimination back to XR")
    add_format_option(translate)
    translate.set_defaults(func=_cmd_translate)

    xslt = sub.add_parser("xslt", help="emit the generated stylesheet")
    xslt.add_argument("source")
    xslt.add_argument("target")
    xslt.add_argument("embedding")
    xslt.add_argument("--inverse", action="store_true")
    add_format_option(xslt)
    xslt.set_defaults(func=_cmd_xslt)

    check = sub.add_parser("validate", help="validate a document")
    check.add_argument("schema")
    check.add_argument("document")
    add_format_option(check)
    check.set_defaults(func=_cmd_validate)

    evolve_cmd = sub.add_parser(
        "evolve", help="per-query compatibility verdicts across a "
                       "schema version bump (still-valid / "
                       "translatable / broken)")
    evolve_cmd.add_argument("old", help="the current schema version")
    evolve_cmd.add_argument("new", help="the proposed successor version")
    evolve_cmd.add_argument("--queries", required=True,
                            help="stored workload: one XR query per "
                                 "line ('#' comments allowed), or a "
                                 "JSON array for *.json")
    evolve_cmd.add_argument("--embedding",
                            help="embedding JSON from 'embed' carrying "
                                 "the bump (default: search for one)")
    evolve_cmd.add_argument("--store",
                            help="artifact-store directory: record the "
                                 "bump as a lineage edge (schemas + "
                                 "embedding + verdict provenance)")
    evolve_cmd.add_argument("--method", default="auto",
                            choices=["auto", "random", "quality",
                                     "indepset", "exact"])
    evolve_cmd.add_argument("--seed", type=int, default=0)
    evolve_cmd.add_argument("--restarts", type=int, default=20)
    evolve_cmd.add_argument("--samples", type=int, default=None,
                            help="sample instances per preservation "
                                 "check (default: 3)")
    evolve_cmd.add_argument("--json", action="store_true",
                            help="print the full verdict report as "
                                 "JSON")
    add_format_option(evolve_cmd)
    evolve_cmd.set_defaults(func=_cmd_evolve)

    batch = sub.add_parser(
        "batch", help="engine-backed batch serving (compile once, "
                      "optionally fan out across worker processes)")
    batch_sub = batch.add_subparsers(dest="batch_command", required=True)

    def add_batch_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1 = serial; "
                              "results are identical at any job count)")
        cmd.add_argument("--store",
                         help="artifact-store directory: compiled "
                              "schemas/embeddings are persisted there "
                              "and workers warm-start from it with "
                              "zero compile misses")
        cmd.add_argument("--stats", action="store_true",
                         help="print aggregated cache counters to "
                              "stderr")
        add_format_option(cmd)

    batch_map = batch_sub.add_parser(
        "map", help="apply σd to document corpora (files, directories "
                    "of *.xml, or .ndjson/.jsonl streams)")
    batch_map.add_argument("source")
    batch_map.add_argument("target")
    batch_map.add_argument("embedding", help="embedding JSON from 'embed'")
    batch_map.add_argument("documents", nargs="+",
                           help="corpus paths: XML files, directories "
                                "of *.xml, or NDJSON streams "
                                '({"name", "xml"} per line)')
    batch_map.add_argument("--out-dir",
                           help="write <name>.mapped.xml files here "
                                "instead of stdout")
    add_batch_options(batch_map)
    batch_map.set_defaults(func=_cmd_batch_map)

    batch_translate = batch_sub.add_parser(
        "translate", help="translate many XR queries")
    batch_translate.add_argument("source")
    batch_translate.add_argument("target")
    batch_translate.add_argument("embedding")
    batch_translate.add_argument("queries", nargs="+",
                                 help="XR queries to translate")
    batch_translate.add_argument("--regex", action="store_true",
                                 help="also run state elimination back "
                                      "to XR")
    add_batch_options(batch_translate)
    batch_translate.set_defaults(func=_cmd_batch_translate)

    store = sub.add_parser(
        "store", help="manage persistent artifact stores")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_build = store_sub.add_parser(
        "build", help="compile schemas + embeddings into a store so "
                      "servers warm-start with zero compile misses")
    store_build.add_argument("store", help="store directory (created "
                                           "if absent)")
    store_build.add_argument("source")
    store_build.add_argument("target")
    store_build.add_argument("embeddings", nargs="+",
                             help="embedding JSON files from 'embed'")
    add_format_option(store_build)
    store_build.set_defaults(func=_cmd_store_build)

    store_inspect = store_sub.add_parser(
        "inspect", help="summarise a store's manifest")
    store_inspect.add_argument("store")
    store_inspect.add_argument("--json", action="store_true",
                               help="print the raw manifest summary "
                                    "as JSON")
    store_inspect.set_defaults(func=_cmd_store_inspect)

    store_pack = store_sub.add_parser(
        "pack", help="pack the store into one mmap-able binary file "
                     "(a new generation); running fleets hot-reload it "
                     "without dropping a request")
    store_pack.add_argument("store")
    store_pack.add_argument("--compact", action="store_true",
                            help="drop artifacts no longer in the "
                                 "source store instead of carrying "
                                 "them forward from the previous "
                                 "generation")
    store_pack.set_defaults(func=_cmd_store_pack)

    lint = sub.add_parser(
        "lint", help="run the repo-invariant static analysis "
                     "(layering, determinism, recursion, fork safety, "
                     "error contract) over source trees")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint "
                           "(default: src)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable findings on stdout")
    lint.add_argument("--baseline",
                      help="JSON baseline of grandfathered findings; "
                           "only findings absent from it fail the run")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write the current findings to --baseline "
                           "as a skeleton (justifications required "
                           "before it loads)")
    lint.add_argument("--checks",
                      help="comma-separated checker subset (default: "
                           "all five)")
    lint.set_defaults(func=_cmd_lint)

    serve = sub.add_parser(
        "serve", help="long-lived HTTP daemon: warm-start from an "
                      "artifact store and serve mapping/translation/"
                      "inversion/search over JSON endpoints")
    serve.add_argument("store", help="artifact-store directory (from "
                                     "'store build' or --store)")
    serve.add_argument("--host", default=DEFAULT_HOST,
                       help=f"bind address (default {DEFAULT_HOST})")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default {DEFAULT_PORT}; 0 picks "
                            "a free port)")
    serve.add_argument("--workers", type=int, default=None,
                       help="pre-fork a fleet of N worker processes "
                            "over the packed store (default: single "
                            "process; the store is packed "
                            "automatically on first use)")
    serve.add_argument("--reload-interval", type=float,
                       default=DEFAULT_RELOAD_INTERVAL,
                       help="seconds between store-generation checks "
                            "in fleet workers (default "
                            f"{DEFAULT_RELOAD_INTERVAL})")
    add_format_option(serve)
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Every malformed-input path (unreadable files, bad JSON/DTD/XML,
        # corrupt stores — all ValueError subclasses here) exits with one
        # clean line instead of a traceback.  Genuine bugs (TypeError,
        # AssertionError, …) still surface loudly.
        message = str(exc).strip() or type(exc).__name__
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
