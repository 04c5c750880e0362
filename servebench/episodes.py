"""Episodes and runs: set-up, serving loop, checks and recovery on one seed's inputs.

An episode builds a fresh service (timed as set-up), replays the whole
request stream (the serving loop), checks every output and, on a durable
workload, closes the service and recovers it from its journal.  A run
repeats episodes on the same inputs for about the requested time.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from checks import (check_bookings, check_ingest_conservation, check_recovery,
                    check_schedules, digest)
from tracing import Tracer
from workloads import Spec, build, request_stream, serve

from repro.service.api import PTRiderService

#: set-ups measured per run, at least (each episode sets up once)
MIN_SETUPS = 5


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _directory_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


class Episode:
    """One set-up + serving loop + checks (+ recovery) on the run's inputs."""

    def __init__(self, spec: Spec, seed: int, stream, scratch_root: Path,
                 tracer: Optional[Tracer] = None) -> None:
        gc.collect()  # start every episode without the previous one's garbage
        #: traced episodes only: root span indices and loop-end tracer totals
        self.loop_root: Optional[int] = None
        self.recover_root: Optional[int] = None
        self.loop_calls: Dict[str, int] = {}
        self.loop_sampled: Dict[str, float] = {}
        self.loop_extras: Dict[str, float] = {}
        self.recovery_extras: Dict[str, float] = {}
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            journal = Path(scratch) / "journal"
            setup = build(spec, seed, journal_dir=str(journal))
            service = setup.service
            self.setup_seconds = setup.seconds
            self.grid_build_seconds = setup.grid_build_seconds
            if tracer is None:
                served = serve(spec, setup, stream)
            else:
                with tracer.installed(), tracer.root("loop") as root:
                    served = serve(spec, setup, stream, tracer.set_tag)
                self.loop_root = root
                self.loop_calls = dict(tracer.calls)
                self.loop_sampled = dict(tracer.sampled_seconds)
                self.loop_extras = dict(tracer.extras)
            self.served = served
            self.matcher = service.matcher.statistics.as_dict()
            self.routing = service.routing_statistics()
            self.ingest = service.batcher.statistics
            self.journal_bytes = _directory_bytes(journal) if spec.durable else 0

            if spec.mode == "batched":
                check_ingest_conservation(service, len(stream))
            check_bookings(served.bookings, len(stream) - served.failed)
            self.lapsed_branches = check_schedules(service)
            self.digest = digest(served.bookings)

            service.close()
            self.recover_seconds = 0.0
            if spec.durable:
                started = time.perf_counter()
                if tracer is None:
                    recovered = PTRiderService.recover(journal)
                else:
                    with tracer.installed(), tracer.root("recover") as root:
                        recovered = PTRiderService.recover(journal)
                    self.recover_root = root
                self.recover_seconds = time.perf_counter() - started
                try:
                    check_recovery(service, recovered)
                finally:
                    recovered.close()
            if tracer is not None:
                self.recovery_extras = dict(tracer.extras)

        self.requests = len(stream)
        self.answered = len(served.bookings)
        self.committed = sum(1 for booking in served.bookings if booking.chosen is not None)
        self.failed = served.failed
        self.loop_seconds = served.loop_seconds
        # the answering call's wall not spent matching this request itself
        self.turn_wait_ms = statistics.fmean(
            (answer - booking.response_seconds) * 1e3
            for answer, booking in zip(served.answer_seconds, served.bookings)
        )


@dataclass
class Run:
    plain: List[Episode]
    traced: List[Tuple[Episode, Tracer]]
    setup_seconds: List[float]
    #: peak resident memory once the first episode has ended
    peak_rss_mb: float


def run_episodes(spec: Spec, seed: int, seconds: float, traced: bool,
                 scratch_root: Path) -> Run:
    """Episodes for about ``seconds``, alternating untraced and traced ones."""
    scratch_root.mkdir(parents=True, exist_ok=True)
    stream = request_stream(spec, seed)
    deadline = time.perf_counter() + seconds
    run = Run([], [], [], 0.0)
    durations: List[float] = []
    while True:
        started = time.perf_counter()
        if traced and len(run.traced) < len(run.plain):
            tracer = Tracer()
            run.traced.append((Episode(spec, seed, stream, scratch_root, tracer), tracer))
        else:
            run.plain.append(Episode(spec, seed, stream, scratch_root))
        durations.append(time.perf_counter() - started)
        if len(durations) == 1:
            run.peak_rss_mb = peak_rss_mb()
        enough = not traced or bool(run.traced)
        if enough and time.perf_counter() + max(durations) > deadline:
            break
    run.setup_seconds = [episode.setup_seconds for episode in run.plain]
    run.setup_seconds += [episode.setup_seconds for episode, _ in run.traced]
    while len(run.setup_seconds) < MIN_SETUPS:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            setup = build(spec, seed, journal_dir=str(Path(scratch) / "journal"))
            run.setup_seconds.append(setup.seconds)
            setup.service.close()
    return run


def serve_rate(episodes: List[Episode]) -> float:
    """Requests answered per wall second of serving loop, over ``episodes``."""
    return sum(e.answered for e in episodes) / sum(e.loop_seconds for e in episodes)


def end_to_end(run: Run) -> Dict[str, float]:
    """The end-to-end metrics of a run, over all its untraced episodes.

    Throughput and latency percentiles pool the episodes rather than taking
    a median of per-episode values: the machine's speed drifts between
    states that last tens of seconds, and a pooled figure averages them
    where a median jumps between them.
    """
    answers = [answer for e in run.plain for answer in e.served.answer_seconds]
    requests = sum(e.requests for e in run.plain)
    return {
        "serve_rps": serve_rate(run.plain),
        "answer_p50_ms": percentile(answers, 50) * 1e3,
        "answer_p95_ms": percentile(answers, 95) * 1e3,
        "served_share": sum(e.committed for e in run.plain) / requests,
        "answered_share": (requests - sum(e.failed for e in run.plain)) / requests,
        "setup_s": statistics.median(run.setup_seconds),
        "peak_rss_mb": run.peak_rss_mb,
    }
