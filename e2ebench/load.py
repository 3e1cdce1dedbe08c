"""The closed-loop load generator.

One thread per fleet worker, each holding one keep-alive connection to
that worker's direct port.  A thread sends its next request only after
the previous reply arrived, until the deadline; a ``migrate`` round
trip that started before the deadline is finished.  Responses are
judged after the timed phase, so the generator spends its CPU on
sending, not on checking.
"""

from __future__ import annotations

import http.client
import itertools
import resource
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.serve.client import ServeClient, ServeError


@dataclass
class Sample:
    """One HTTP request as the client saw it."""

    request: int
    thread: int
    call: object
    start: float
    end: float
    status: int
    response: Optional[dict]
    error: Optional[str]
    failure: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """The outcome of one timed phase."""

    samples: list
    wall: float
    cpu: float
    #: client threads that drove the phase
    threads: int
    #: seconds the threads spent recording spans
    trace_s: float


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def drive(clients: list[ServeClient], plans, seconds: float,
          recorder=None) -> Phase:
    """Run every plan on its own thread for ``seconds``; with a
    ``recorder`` each request is also kept as a ``serve.http`` span."""
    samples: list[Sample] = []
    ids = itertools.count(1)
    trace_s = [0.0] * len(clients)
    barrier = threading.Barrier(len(clients) + 1)
    deadline = [0.0]
    errors: list[Exception] = []

    def send(thread: int, client: ServeClient, call) -> Sample:
        request = next(ids)
        start = time.perf_counter()
        status, response, error = 200, None, None
        try:
            response = client.request("POST", call.endpoint, call.payload)
        except ServeError as exc:
            status, error = exc.status, f"http-{exc.status}"
        except (OSError, http.client.HTTPException) as exc:
            status, error = 0, f"transport-{type(exc).__name__}"
        end = time.perf_counter()
        if recorder is not None:
            recorder.record("serve.http", start, end, request)
            trace_s[thread] += time.perf_counter() - end
        return Sample(request, thread, call, start, end, status, response,
                      error)

    def run(thread: int) -> None:
        try:
            loop(thread)
        except Exception as exc:  # re-raised by the main thread
            errors.append(exc)

    def loop(thread: int) -> None:
        client, plan = clients[thread], plans[thread]
        barrier.wait()
        while time.perf_counter() < deadline[0]:
            call = next(plan)
            while call is not None:
                try:
                    sample = send(thread, client, call)
                except Exception as exc:  # a client bug is a failed request
                    sample = Sample(next(ids), thread, call, 0.0, 0.0, 0,
                                    None, f"client-{type(exc).__name__}")
                samples.append(sample)
                follow = call.follow
                call = (follow(sample.response)
                        if follow is not None and sample.response is not None
                        else None)

    threads = [threading.Thread(target=run, args=(thread,),
                                name=f"e2ebench-client-{thread}")
               for thread in range(len(clients))]
    for thread in threads:
        thread.start()
    cpu_started = _cpu_seconds()
    started = time.perf_counter()
    deadline[0] = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return Phase(sorted(samples, key=lambda s: s.request), wall,
                 _cpu_seconds() - cpu_started, len(clients), sum(trace_s))

