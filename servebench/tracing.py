"""Outside-in tracing: timing wrappers installed on the program's layer functions.

The program itself carries no instrumentation.  For a traced episode the
benchmark replaces the functions listed in :data:`SPANNED` and
:data:`COUNTED` with wrappers and restores the originals afterwards.

* A spanned function records a span per call: its name, start, end, the
  span that was open when it was called (its parent) and a tag the serving
  loop sets -- the window id around a pump, the request id around a booking,
  the tick around an advance.  Spans stay in memory and are written out when
  the run ends.
* A counted function is called millions of times per episode (the grid
  index's lower bound), so its wrapper only counts calls and times one call
  in :data:`SAMPLE_EVERY`; a span per call would swamp the trace.

A layer's self time is the time its spans cover minus the time their child
spans cover.  Every span of the serving loop descends from one ``loop`` root
span, so the layers' self times plus the root's own self time (the
benchmark's loop code, reported as the residual) add up to the loop wall.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.service.api as service_api
import repro.sim.engine as sim_engine
from repro.core.batch import BatchContext
from repro.core.dispatcher import Dispatcher
from repro.core.matcher import Matcher
from repro.model.options import Skyline
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSREngine
from repro.service.api import PTRiderService
from repro.service.journal import ServiceJournal
from repro.sim.engine import SimulationEngine

#: timed calls of a counted function: one in this many
SAMPLE_EVERY = 64

#: (span name, owner, attribute).  The owner is the class or module whose
#: attribute the program looks the function up through at call time: module
#: functions imported by name are patched in the importing module.
SPANNED: Tuple[Tuple[str, object, str], ...] = (
    ("service.api.pump", PTRiderService, "pump"),
    ("service.api.ingest_request", PTRiderService, "ingest_request"),
    ("service.api.advance", PTRiderService, "advance"),
    ("service.api.book_request", PTRiderService, "book_request"),
    ("service.api.choose", PTRiderService, "choose"),
    ("service.api.cancel", PTRiderService, "cancel"),
    ("core.dispatcher.dispatch_batch", Dispatcher, "dispatch_batch"),
    ("core.dispatcher.submit", Dispatcher, "submit"),
    ("core.dispatcher.commit", Dispatcher, "commit"),
    ("core.batch.create", BatchContext, "create"),
    ("core.matcher.collect_shard", Matcher, "collect_shard"),
    ("core.matcher.match", Matcher, "match"),
    ("roadnet.routing.prefetch_trees", CSREngine, "prefetch_trees"),
    ("roadnet.routing.distances_from", CSREngine, "distances_from"),
    ("sim.engine.step", SimulationEngine, "step"),
    ("vehicles.movement.plan_route", sim_engine, "plan_route"),
    ("model.options.merge", Skyline, "merge"),
    ("service.journal.append", ServiceJournal, "append"),
    ("service.recovery.write_delta", service_api, "write_delta"),
    ("service.recovery.write_snapshot", service_api, "write_snapshot"),
    ("service.recovery.load_snapshot_state", service_api, "load_snapshot_state"),
    ("service.recovery.replay_records", service_api, "replay_records"),
)

COUNTED: Tuple[Tuple[str, object, str], ...] = (
    ("roadnet.grid_index.distance_lower_bound", GridIndex, "distance_lower_bound"),
)

#: Spans are ``[name, start, end, parent, root, tag]``; parent and root are
#: span indices (-1 for a root span).
Span = List[object]


class Tracer:
    """Collects spans, counts and per-call extras while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.tag = ""
        self._stack: List[int] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.sampled_seconds: Dict[str, float] = defaultdict(float)
        #: named totals taken from call arguments and results (trees, bytes)
        self.extras: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, self.tag])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str) -> Iterator[int]:
        """A root span around a whole phase (the serving loop, a recovery)."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def set_tag(self, tag: str) -> None:
        self.tag = tag

    # ------------------------------------------------------------------
    def spanned(self, name: str, function: Callable) -> Callable:
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, function: Callable) -> Callable:
        calls = self.calls
        sampled = self.sampled_seconds
        clock = time.perf_counter

        def wrapper(*args):
            calls[name] += 1
            if calls[name] % SAMPLE_EVERY:
                return function(*args)
            started = clock()
            try:
                return function(*args)
            finally:
                sampled[name] += clock() - started

        return wrapper

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every listed function for the duration of the block."""
        restore: List[Tuple[object, str, object, bool]] = []
        try:
            for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
                for name, owner, attribute in table:
                    own = attribute in vars(owner)
                    raw = vars(owner)[attribute] if own else getattr(owner, attribute)
                    restore.append((owner, attribute, raw, own))
                    if isinstance(raw, classmethod):
                        setattr(owner, attribute, classmethod(make(name, raw.__func__)))
                    else:
                        setattr(owner, attribute, make(name, raw))
            yield self
        finally:
            for owner, attribute, raw, own in reversed(restore):
                if own:
                    setattr(owner, attribute, raw)
                else:
                    delattr(owner, attribute)

    def write(self, path: Path, roots: List[int]) -> None:
        """Write the spans under ``roots``, times relative to the first root."""
        wanted = set(roots)
        origin = self.spans[roots[0]][1] if roots else 0.0
        records = [
            {"id": index, "name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "tag": tag}
            for index, (name, start, end, parent, root, tag) in enumerate(self.spans)
            if root in wanted
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records, separators=(",", ":")))


# ----------------------------------------------------------------------
# per-call extras: counts the layers expose only through arguments/results
# ----------------------------------------------------------------------
def _batch_statistics(tracer: Tracer, args, result) -> None:
    stats = args[0].last_batch_statistics
    if stats is None:
        return
    extras = tracer.extras
    extras["batch.prefetched_trees"] += stats.prefetched_trees
    extras["batch.shared_tree_hits"] += stats.shared_tree_hits
    extras["batch.trees_computed"] += stats.trees_computed
    extras["batch.leg_tree_hits"] += stats.leg_tree_hits


def _prefetched(tracer: Tracer, args, result) -> None:
    tracer.extras["routing.prefetch_trees.trees"] += len(result)


def _file_bytes(key: str) -> Callable:
    def observe(tracer: Tracer, args, result) -> None:
        tracer.extras[key] += Path(result).stat().st_size

    return observe


def _replayed(tracer: Tracer, args, result) -> None:
    tracer.extras["recovery.replay_records.records"] += len(args[1])


_OBSERVERS: Dict[str, Callable] = {
    "core.dispatcher.dispatch_batch": _batch_statistics,
    "roadnet.routing.prefetch_trees": _prefetched,
    "service.recovery.write_delta": _file_bytes("recovery.write_delta.bytes"),
    "service.recovery.write_snapshot": _file_bytes("recovery.write_snapshot.bytes"),
    "service.recovery.replay_records": _replayed,
}


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def span_totals(spans: List[Span], root: int) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Inclusive seconds, self seconds and calls per span name under ``root``.

    The root span itself is included under its own name, so the self
    seconds of all names sum to the root's duration.
    """
    inclusive: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    child_seconds: Dict[int, float] = defaultdict(float)
    members = [index for index, span in enumerate(spans) if span[4] == root]
    for index in members:
        name, start, end, parent = spans[index][:4]
        if parent >= 0:
            child_seconds[parent] += end - start
    for index in members:
        name, start, end = spans[index][:3]
        inclusive[name] += end - start
        own[name] += (end - start) - child_seconds[index]
        calls[name] += 1
    return inclusive, own, calls


def layer_of(name: str) -> str:
    """``core.matcher.collect_shard`` -> ``core.matcher``."""
    return name.rsplit(".", 1)[0]


# ----------------------------------------------------------------------
# the per-layer metrics
# ----------------------------------------------------------------------
#: Layers whose self time splits the serving-loop wall.
LAYERS = (
    "service.api", "core.dispatcher", "core.batch", "core.matcher",
    "roadnet.routing", "sim.engine", "vehicles.movement", "model.options",
    "service.journal", "service.recovery",
)
#: Spans of the recovery, measured under the ``recover`` root.
RECOVERY_SPANS = ("service.recovery.load_snapshot_state", "service.recovery.replay_records")
#: Functions whose self time (not their busy time) is reported.
SELF_TIMED = ("core.matcher.collect_shard", "core.matcher.match")
#: Functions whose call count is reported.
CALL_COUNTED = (
    "core.dispatcher.commit", "roadnet.routing.distances_from",
    "vehicles.movement.plan_route", "service.journal.append",
    "service.recovery.write_delta", "service.recovery.write_snapshot",
)

#: Every per-layer metric: (name, unit, better).  Times are shares of the
#: traced episode's serving-loop wall, so a function a workload never calls
#: reads 0 % there rather than a time; ``trace.loop_s`` turns shares into
#: seconds.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("trace.serve_rps_untraced", "1/s", "higher"),
    ("trace.serve_rps_traced", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.loop_s", "s", "lower"),
    ("trace.residual_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    *((f"{name}.self_pct" if name in SELF_TIMED else f"{name}.busy_pct", "%", "lower")
      for name, _, _ in SPANNED),
    *((f"{layer}.self_pct", "%", "lower") for layer in LAYERS),
    *((f"{name}.calls", "count", "lower") for name in CALL_COUNTED),
    ("service.ingest.windows", "count", "lower"),
    ("service.ingest.requests_per_window", "requests/window", "higher"),
    ("service.ingest.peak_queue_depth", "count", "lower"),
    ("service.ingest.turn_wait_mean_ms", "ms", "lower"),
    ("core.batch.prefetched_trees", "count", "lower"),
    ("core.batch.shared_tree_hit_rate", "ratio", "higher"),
    ("core.batch.leg_tree_hits", "count", "higher"),
    ("core.matcher.vehicles_evaluated", "count", "lower"),
    ("core.matcher.vehicles_pruned", "count", "higher"),
    ("core.matcher.options_per_request", "options/request", "higher"),
    ("core.matcher.useful_ratio", "ratio", "higher"),
    ("vehicles.kinetic_tree.lapsed_branches", "count", "lower"),
    ("roadnet.grid_index.distance_lower_bound.calls", "count", "lower"),
    ("roadnet.grid_index.distance_lower_bound.est_busy_pct", "%", "lower"),
    ("roadnet.grid_index.build_s", "s", "lower"),
    ("roadnet.routing.prefetch_trees.trees", "count", "lower"),
    ("roadnet.routing.cache_hit_rate", "ratio", "higher"),
    ("roadnet.routing.dijkstra_runs", "count", "lower"),
    ("service.journal.bytes", "bytes", "lower"),
    ("service.recovery.write_delta.bytes", "bytes", "lower"),
    ("service.recovery.write_snapshot.bytes", "bytes", "lower"),
    ("service.recovery.replay_records.records", "count", "lower"),
)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def episode_layers(episode, tracer: Tracer) -> Dict[str, float]:
    """The per-layer values of one traced episode."""
    spans = tracer.spans
    loop = spans[episode.loop_root]
    wall = loop[2] - loop[1]
    inclusive, own, calls = span_totals(spans, episode.loop_root)
    recovery: Dict[str, float] = defaultdict(float)
    if episode.recover_root is not None:
        recovery = span_totals(spans, episode.recover_root)[0]

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    values: Dict[str, float] = {
        "trace.loop_s": wall,
        "trace.residual_pct": pct(own["loop"]),
        "trace.spans": float(sum(calls.values()) - 1),
    }
    for name, _, _ in SPANNED:
        if name in RECOVERY_SPANS:
            values[f"{name}.busy_pct"] = pct(recovery[name])
        elif name in SELF_TIMED:
            values[f"{name}.self_pct"] = pct(own[name])
        else:
            values[f"{name}.busy_pct"] = pct(inclusive[name])
    for layer in LAYERS:
        values[f"{layer}.self_pct"] = pct(
            sum(seconds for name, seconds in own.items() if layer_of(name) == layer)
        )
    accounted = values["trace.residual_pct"] + sum(values[f"{l}.self_pct"] for l in LAYERS)
    if abs(accounted - 100.0) > 1e-6:
        raise RuntimeError(f"layer self times account for {accounted}% of the loop wall")
    for name in CALL_COUNTED:
        values[f"{name}.calls"] = float(calls[name])

    ingest = episode.ingest
    values["service.ingest.windows"] = float(ingest.flushes)
    values["service.ingest.requests_per_window"] = _share(ingest.answered, ingest.flushes)
    values["service.ingest.peak_queue_depth"] = float(ingest.peak_queue_depth)

    extras = episode.loop_extras
    resolved = (extras.get("batch.prefetched_trees", 0.0) + extras.get("batch.trees_computed", 0.0)
                + extras.get("batch.shared_tree_hits", 0.0))
    values["core.batch.prefetched_trees"] = extras.get("batch.prefetched_trees", 0.0)
    values["core.batch.shared_tree_hit_rate"] = _share(extras.get("batch.shared_tree_hits", 0.0), resolved)
    values["core.batch.leg_tree_hits"] = extras.get("batch.leg_tree_hits", 0.0)

    matcher = episode.matcher
    values["core.matcher.vehicles_evaluated"] = matcher["vehicles_evaluated"]
    values["core.matcher.vehicles_pruned"] = matcher["vehicles_pruned"]
    values["core.matcher.options_per_request"] = _share(
        matcher["options_returned"], matcher["requests_answered"])
    values["core.matcher.useful_ratio"] = _share(
        matcher["options_returned"], matcher["vehicles_evaluated"])

    values["vehicles.kinetic_tree.lapsed_branches"] = float(episode.lapsed_branches)

    bound = "roadnet.grid_index.distance_lower_bound"
    values[f"{bound}.calls"] = float(episode.loop_calls.get(bound, 0))
    values[f"{bound}.est_busy_pct"] = pct(episode.loop_sampled.get(bound, 0.0) * SAMPLE_EVERY)

    routing = episode.routing
    values["roadnet.routing.prefetch_trees.trees"] = extras.get("routing.prefetch_trees.trees", 0.0)
    values["roadnet.routing.cache_hit_rate"] = _share(routing["cache_hits"], routing["queries"])
    values["roadnet.routing.dijkstra_runs"] = routing["dijkstra_runs"]

    values["service.journal.bytes"] = float(episode.journal_bytes)
    values["service.recovery.write_delta.bytes"] = extras.get("recovery.write_delta.bytes", 0.0)
    values["service.recovery.write_snapshot.bytes"] = extras.get("recovery.write_snapshot.bytes", 0.0)
    values["service.recovery.replay_records.records"] = episode.recovery_extras.get(
        "recovery.replay_records.records", 0.0)
    return values


def layer_metrics(plain: List, traced: List[Tuple[object, Tracer]], untraced_rps: float,
                  traced_rps: float, spans_path: Path) -> Dict[str, Dict[str, object]]:
    """Median per-layer values over the traced episodes, plus the overhead.

    ``plain`` are the run's untraced episodes; they give the turn wait.
    """
    per_episode = [episode_layers(episode, tracer) for episode, tracer in traced]
    values = {name: statistics.median(v[name] for v in per_episode) for name in per_episode[0]}
    values["trace.serve_rps_untraced"] = untraced_rps
    values["trace.serve_rps_traced"] = traced_rps
    values["trace.overhead_pct"] = 100.0 * (untraced_rps / traced_rps - 1.0)
    values["service.ingest.turn_wait_mean_ms"] = statistics.median(e.turn_wait_ms for e in plain)
    values["roadnet.grid_index.build_s"] = statistics.median(
        e.grid_build_seconds for e in plain + [episode for episode, _ in traced])
    episode, tracer = traced[0]
    roots = [root for root in (episode.loop_root, episode.recover_root) if root is not None]
    tracer.write(spans_path, roots)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
