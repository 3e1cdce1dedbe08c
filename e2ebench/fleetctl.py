"""Set-up of the system under test: build and pack an artifact store,
start ``repro serve STORE --workers N`` as a subprocess, wait until
every worker answers ``/healthz``, and stop it again.

Only public surfaces are used: ``Engine``/``pack_store`` for the store,
the ``repro`` CLI for the fleet, and the fleet's own HTTP endpoints.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.engine.session import Engine
from repro.engine.storepack import pack_store
from repro.serve.client import FleetClient, ServeClient, ServeError

#: How long a fleet may take to print its address and become healthy.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
_SERVING = re.compile(r"# serving http://([0-9.]+):(\d+)")


def build_store(path: Path, embeddings) -> float:
    """Compile every embedding (validated, with its generated codec)
    and save the store; returns the seconds taken."""
    started = time.perf_counter()
    engine = Engine()
    for embedding in embeddings:
        engine.compile_embedding(embedding, ensure_valid=True).codec
    engine.save_store(path)
    return time.perf_counter() - started


def pack(path: Path) -> float:
    started = time.perf_counter()
    pack_store(path)
    return time.perf_counter() - started


@dataclass
class Fleet:
    """A running ``repro serve --workers N`` process and its topology."""

    process: subprocess.Popen
    log_path: Path
    host: str = ""
    port: int = 0
    client: Optional[FleetClient] = None
    #: worker id -> direct-port client (one keep-alive per thread)
    workers: dict = field(default_factory=dict)
    pids: dict = field(default_factory=dict)

    @classmethod
    def start(cls, root: Path, store: Path, workers: int,
              log_path: Path) -> "Fleet":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        with open(log_path, "w", encoding="utf-8") as log:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(store),
                 "--workers", str(workers), "--port", "0"],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)
        fleet = cls(process, log_path)
        try:
            fleet._await_healthy(workers)
        except BaseException:
            fleet.stop()
            raise
        return fleet

    def _await_healthy(self, workers: int) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while not self.port:
            if self.process.poll() is not None:
                raise RuntimeError("repro serve exited early:\n"
                                   + self.log_path.read_text())
            match = _SERVING.search(self.log_path.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            elif time.monotonic() > deadline:
                raise RuntimeError("repro serve printed no address")
            else:
                time.sleep(0.01)
        while self.client is None:
            try:
                self.client = FleetClient(self.host, self.port, timeout=120)
            except (OSError, ServeError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        self.workers = self.client.workers
        if sorted(self.workers) != list(range(workers)):
            raise RuntimeError(f"expected {workers} workers, topology "
                               f"lists {sorted(self.workers)}")
        for worker_id, client in self.workers.items():
            while worker_id not in self.pids:
                try:
                    health = client.healthz()
                    if health.get("ok") and health.get("worker") == \
                            worker_id:
                        self.pids[worker_id] = health["pid"]
                except (OSError, ServeError):
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)

    def direct(self, worker_id: int) -> ServeClient:
        """A fresh client for one worker's direct port."""
        client = self.workers[worker_id]
        return ServeClient(client.host, client.port, timeout=120)

    def peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` over the workers, in MB."""
        peaks = []
        for pid in self.pids.values():
            status = Path(f"/proc/{pid}/status").read_text()
            kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
            peaks.append(kb / 1024.0)
        return max(peaks)

    def stop(self) -> None:
        """SIGTERM the fleet (workers drain and exit), then wait; the
        whole process group is killed if it does not end in time."""
        if self.client is not None:
            self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        try:
            # Workers are the supervisor's children in its own session;
            # make sure none outlives it.
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        deadline = time.monotonic() + STOP_TIMEOUT
        while any(_alive(pid) for pid in self.pids.values()):
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers did not exit")
            time.sleep(0.02)


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper has
    ended)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return "State:\tZ" not in status
