"""End-to-end benchmark: migrate, query and search through a serving
fleet, with a traced per-layer breakdown.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload migrate --seed 1 --seconds 15 --trace 0

Each run builds an artifact store for its workload's embeddings, packs
it and starts ``repro serve STORE --workers 2`` (set-up is done three
times and the median reported), then drives the fleet over HTTP with a
closed loop of one thread per worker for ``--seconds``.  Every response
is checked against an oracle.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` records each request as a span, replays the requests
stage by stage in this process afterwards and prints the per-layer
metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``e2ebench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchkit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One client thread (one keep-alive connection) per fleet worker.
WORKERS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Processes running the in-process search oracle after the fleet stops.
ORACLE_PROCESSES = 2

END_TO_END = {  # name -> unit
    "setup_s": "s", "req_per_s": "req/s", "p50_ms": "ms",
    "server_rss_mb": "MB",
}
PER_LAYER = {
    "serve.dispatch_ms": "ms", "serve.transport_ms": "ms",
    "serve.transport_share": "ratio", "serve.decode_ms": "ms",
    "serve.encode_ms": "ms", "serve.worker_skew": "ratio",
    "serve.reconnects": "count",
    "xtree.parse_ms": "ms", "xtree.parse_mb_per_s": "MB/s",
    "xtree.serialize_ms": "ms",
    "engine.codec_map_ms": "ms", "engine.invert_ms": "ms",
    "engine.compile_ms": "ms", "engine.compile_misses": "count",
    "engine.translation_hit_ratio": "ratio",
    "xpath.parse_ms": "ms", "core.translate_ms": "ms",
    "anfa.describe_ms": "ms", "anfa.states": "count",
    "schema.load_ms": "ms", "matching.search_ms": "ms",
    "matching.found": "count",
    "evolution.evolve_ms": "ms", "evolution.verdicts": "count",
    "setup.store_build_s": "s", "setup.pack_s": "s", "setup.warm_s": "s",
    "client.cpu_share": "ratio",
    "trace.overhead_frac": "ratio", "trace.remainder_ms": "ms",
}
#: Reported by ``--trace 0`` runs but not gated: not every workload has
#: them (``nodes_per_s``: migrate, ``found_frac``: search; a tail
#: percentile only with at least 10 samples beyond it).
EXTRA = {
    "samples": "count", "wall_s": "s", "fail_frac": "ratio",
    "p90_ms": "ms", "p99_ms": "ms", "nodes_per_s": "nodes/s",
    "found_frac": "ratio", "client.cpu_share": "ratio",
    "engine.compile_misses": "count",
}
#: Replay span name of each ``*_ms`` self-time metric.
STAGE_METRICS = {
    "serve.decode_ms": "serve.decode", "serve.encode_ms": "serve.encode",
    "xtree.parse_ms": "xtree.parse", "xtree.serialize_ms": "xtree.serialize",
    "engine.codec_map_ms": "engine.codec_map",
    "engine.invert_ms": "engine.invert",
    "engine.compile_ms": "engine.compile",
    "xpath.parse_ms": "xpath.parse", "core.translate_ms": "core.translate",
    "anfa.describe_ms": "anfa.describe", "schema.load_ms": "schema.load",
    "matching.search_ms": "matching.search",
    "evolution.evolve_ms": "evolution.evolve",
}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("migrate", "query", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _code_identity() -> str:
    """The git sha, or a digest of ``src/`` where there is no git."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        return "src-sha256:" + digest.hexdigest()[:16]


def main(argv=None) -> int:
    args = _args(argv)
    nproc = os.cpu_count() or 1
    if WORKERS > nproc:
        print(f"e2ebench: {WORKERS} client threads/connections exceed "
              f"nproc={nproc}; refusing to measure the load generator",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import fleetctl
    import inputs
    import load
    import oracles
    import replay

    work = ROOT / ".e2ebench-work"
    run_dir = work / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    fleet = None
    try:
        workload = inputs.WORKLOADS[args.workload](args.seed, WORKERS)
        oracle = oracles.Oracle(workload)
        oracle.prepare()

        # -- set-up, several times; the last fleet serves the run -------
        setups = []
        for attempt in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.stop()
            store = run_dir / f"store-{attempt}"
            build_s = fleetctl.build_store(store, workload.embeddings)
            pack_s = fleetctl.pack(store)
            started = time.perf_counter()
            fleet = fleetctl.Fleet.start(ROOT, store, WORKERS,
                                         run_dir / f"serve-{attempt}.log")
            warm_s = time.perf_counter() - started
            setups.append((build_s, pack_s, warm_s))
        expected = inputs.owners(
            [e.fingerprint() for e in workload.embeddings], WORKERS)
        for fp, worker in expected.items():
            if fleet.client.owner(fp) != worker:
                raise RuntimeError(f"ring owner of {fp[:12]} is "
                                   f"{fleet.client.owner(fp)}, expected "
                                   f"{worker}")

        clients = [fleet.direct(worker) for worker in range(WORKERS)]
        recorder = benchkit.SpanRecorder()
        before = fleet.client.fleet_metrics().raw
        timed = load.drive(clients, workload.plans, args.seconds,
                           recorder if args.trace else None)
        after = fleet.client.fleet_metrics().raw
        rss_mb = fleet.peak_rss_mb()
        reconnects = sum(client.reconnects for client in clients)
        for client in clients:
            client.close()
        fleet.stop()
        fleet = None

        samples = timed.samples
        pairs = [s.call.info["pair"] for s in samples
                 if s.call.endpoint == "/v1/find" and s.response]
        oracle.prepare_finds(pairs, ORACLE_PROCESSES)
        tally = benchkit.Tally()
        for sample in samples:
            sample.failure = oracle.judge(sample.call, sample.status,
                                          sample.response, sample.error)
            tally.record(sample.failure)

        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": nproc, "python": platform.python_version(),
            "code": _code_identity(), "client_threads": WORKERS,
            "attempted": tally.attempted, "failed": tally.failed,
            "fail_frac": tally.fail_frac,
            "failures": dict(tally.reasons),
            "oracle_problems": oracle.problems,
            "document_sizes": oracle.sizes,
            "setups": setups,
        }
        setup_medians = [statistics.median(column)
                         for column in zip(*setups)]
        if args.trace:
            metrics = _per_layer(replay.Replay(workload, recorder), timed,
                                 before, after, setup_medians, reconnects)
            spans_path = work / (f"spans-{args.workload}-s{args.seed}"
                                 ".jsonl")
            recorder.write(spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, extra = _end_to_end(workload, timed, before, after,
                                         setups, rss_mb)
            record["extra"] = extra
        record["metrics"] = metrics
        (work / "results").mkdir(exist_ok=True)
        (work / "results" / f"{args.workload}-s{args.seed}-"
         f"t{args.trace}.json").write_text(json.dumps(record, indent=1))
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    _print_report(record)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0 and not oracle.problems,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


# -- metrics ------------------------------------------------------------------

def _worker_counters(snapshot: dict) -> dict:
    """worker id -> (v1 requests, v1 busy seconds, engine stats)."""
    counters = {}
    for row in snapshot["workers"]:
        if not row.get("ok"):
            raise RuntimeError(f"worker {row.get('worker')} did not "
                               f"answer /metrics: {row.get('error')}")
        requests = seconds = 0
        for endpoint, stats in row["requests"].items():
            if endpoint.startswith("/v1/"):
                requests += stats["requests"]
                seconds += stats["total_seconds"]
        counters[row["worker"]] = (requests, seconds, row["engine"])
    return counters


def _delta(before: dict, after: dict) -> dict:
    """Per-worker request/busy deltas and summed engine-stat deltas."""
    first, last = _worker_counters(before), _worker_counters(after)
    requests = {w: last[w][0] - first[w][0] for w in last}
    seconds = sum(last[w][1] - first[w][1] for w in last)
    engine: dict = {}
    for worker in last:
        for cache, stats in last[worker][2].items():
            for counter, value in stats.items():
                old = first[worker][2].get(cache, {}).get(counter, 0)
                key = f"{cache}.{counter}"
                engine[key] = engine.get(key, 0) + value - old
    return {"requests": requests, "seconds": seconds, "engine": engine}


def _latencies(phase) -> list[float]:
    return [s.latency for s in phase.samples if s.end > 0]


def _end_to_end(workload, timed, before, after, setups, rss_mb):
    latencies = _latencies(timed)
    count = len(timed.samples)
    metrics = {
        "setup_s": statistics.median(sum(setup) for setup in setups),
        "req_per_s": count / timed.wall,
        "p50_ms": 1e3 * benchkit.percentile(latencies, 50),
        "server_rss_mb": rss_mb,
    }
    extra = {"samples": count, "wall_s": timed.wall,
             "client.cpu_share": timed.cpu / timed.wall,
             "fail_frac": sum(s.failure is not None
                              for s in timed.samples) / max(1, count)}
    for q in (90, 99):
        value = benchkit.tail(latencies, q)
        if value is not None:
            extra[f"p{q}_ms"] = 1e3 * value
    if workload.name == "migrate":
        nodes = sum(s.call.info["doc"].nodes for s in timed.samples
                    if s.call.endpoint == "/v1/invert"
                    and s.failure is None
                    and not s.call.info["doc"].partial)
        extra["nodes_per_s"] = nodes / timed.wall
    if workload.name == "search":
        finds = [s for s in timed.samples if s.call.endpoint == "/v1/find"
                 and s.response is not None]
        extra["found_frac"] = (sum(bool(s.response.get("found"))
                                   for s in finds) / max(1, len(finds)))
    extra["engine.compile_misses"] = _compile_misses(
        _delta(before, after)["engine"])
    return metrics, extra


def _compile_misses(engine: dict) -> int:
    return engine.get("schemas.misses", 0) + engine.get(
        "embeddings.misses", 0)


def _per_layer(replay, timed, before, after, setup_medians, reconnects):
    samples = timed.samples
    count = len(samples)
    replay.run(samples)
    selfs = benchkit.self_time_by_name(
        s for s in replay.rec.spans if s.name != "serve.http")
    metrics = {name: 1e3 * selfs.get(span, 0.0) / count
               for name, span in STAGE_METRICS.items()}

    latency_ms = 1e3 * statistics.mean(_latencies(timed))
    delta = _delta(before, after)
    dispatch_ms = 1e3 * delta["seconds"] / max(1, sum(
        delta["requests"].values()))
    per_worker = list(delta["requests"].values())
    whole = delta["engine"]
    lookups = whole.get("translations.hits", 0) + whole.get(
        "translations.misses", 0)
    parse_s = selfs.get("xtree.parse", 0.0)
    stages_ms = sum(metrics[name] for name in STAGE_METRICS
                    if name != "serve.encode_ms")
    metrics.update({
        "serve.dispatch_ms": dispatch_ms,
        "serve.transport_ms": latency_ms - dispatch_ms,
        "serve.transport_share": (latency_ms - dispatch_ms) / latency_ms,
        "serve.worker_skew": (max(per_worker) / statistics.mean(per_worker)
                              if sum(per_worker) else 0.0),
        "serve.reconnects": reconnects,
        "xtree.parse_mb_per_s": (replay.parsed_bytes / 1e6 / parse_s
                                 if parse_s else 0.0),
        "engine.compile_misses": _compile_misses(whole),
        "engine.translation_hit_ratio": (whole.get("translations.hits", 0)
                                         / lookups if lookups else 0.0),
        "anfa.states": (statistics.mean(replay.states)
                        if replay.states else 0.0),
        "matching.found": replay.found,
        "evolution.verdicts": replay.verdicts,
        "setup.store_build_s": setup_medians[0],
        "setup.pack_s": setup_medians[1],
        "setup.warm_s": setup_medians[2],
        "client.cpu_share": timed.cpu / timed.wall,
        # Client-thread time spent recording spans, as a share of the
        # threads' wall time: the throughput the tracing took away.
        "trace.overhead_frac": timed.trace_s / (timed.threads * timed.wall),
        "trace.remainder_ms": dispatch_ms - stages_ms,
    })
    return metrics


def _print_report(record: dict) -> None:
    print(f"# e2ebench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} seconds={record['seconds']} "
          f"nproc={record['nproc']} python={record['python']} "
          f"code={record['code']}")
    sizes = record["document_sizes"]
    if sizes:
        print(f"# documents: {len(sizes)}, source bytes "
              f"{min(s[1] for s in sizes)}..{max(s[1] for s in sizes)}, "
              f"nodes {min(s[2] for s in sizes)}..{max(s[2] for s in sizes)}"
              f", mapped bytes {min(s[3] for s in sizes)}.."
              f"{max(s[3] for s in sizes)}")
    print(f"# attempted={record['attempted']} failed={record['failed']} "
          f"fail_frac={record['fail_frac']:.4f} "
          f"failures={record['failures']}")
    for problem in record["oracle_problems"][:10]:
        print(f"# oracle problem: {problem}")
    units = {**END_TO_END, **PER_LAYER, **EXTRA}
    for name, value in {**record["metrics"],
                        **record.get("extra", {})}.items():
        print(f"{name:30s} {value:14.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
