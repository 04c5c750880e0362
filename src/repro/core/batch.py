"""Shared routing contexts for a batch of simultaneous requests.

The greedy strategy of Section 2.5 processes simultaneous requests one after
the other, but nothing about the *routing* side of a request depends on the
order: a request's direct distance and its start-rooted distance tree are
functions of the road network only.  :class:`BatchContext` therefore pools
that work for a whole tick's worth of requests:

* start vertices are **deduplicated** -- requests sharing a start vertex
  share one distance tree, computed exactly once and pinned by reference for
  the lifetime of the batch (engine cache eviction can never force a
  recomputation mid-batch, no matter how many requests the tick carries);
* all missing trees are **prefetched in one vectorised engine call** before
  matching begins (:meth:`~repro.roadnet.routing.RoutingEngine.prefetch_trees`;
  one ``scipy.csgraph.dijkstra(indices=[...])`` plane on the CSR backend,
  precomputed row views on the table backend, a no-op on the dict backend,
  which then computes trees per start exactly as before);
* each request receives a regular
  :class:`~repro.core.context.MatchContext` built from the pooled tree, so
  the matchers are oblivious to whether a context was built per-request or
  per-batch;
* endpoint errors (unknown vertex, unreachable destination) are *recorded*
  instead of raised, and surface when the pipeline reaches the failing
  request in submission order -- exactly when the sequential loop would have
  raised them, so earlier requests still commit.

:class:`BatchStatistics` reports the shared-tree hit rate the benchmark
harness records (``bench_e12_batch_dispatch.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.context import MatchContext
from repro.errors import DisconnectedError, VertexNotFoundError
from repro.model.request import Request
from repro.roadnet.graph import VertexId
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import RoutingEngine

__all__ = ["BatchStatistics", "BatchMatchContext", "BatchContext"]


@dataclass
class BatchStatistics:
    """How much routing work the batch shared across its requests.

    For a batch whose endpoints all resolve,
    ``prefetched_trees + trees_computed + shared_tree_hits == requests``;
    requests with an unknown start vertex receive no tree and count in none
    of the terms.  A prefetched tree counts exactly once however many
    requests consume it: the first consumer is covered by
    ``prefetched_trees``, every later one by ``shared_tree_hits``.

    ``tree_provider`` names the engine mechanism the prefetch was billed
    to ("plane" for CSR planes, "phast" for the hierarchy-native sweep,
    "table" for precomputed rows, "dijkstra" for the per-source reference
    path), so an E15-style ablation can attribute ``prefetch_seconds`` --
    and the engine-side ``dijkstra_runs`` vs ``phast_sweeps`` split -- to
    the provider that actually did the work.
    """

    #: number of requests in the batch
    requests: int = 0
    #: start-rooted trees computed one at a time (engines without a bulk path)
    trees_computed: int = 0
    #: requests whose tree was already pooled by an earlier request
    shared_tree_hits: int = 0
    #: distinct start trees obtained through the one-shot vectorised prefetch
    prefetched_trees: int = 0
    #: wall time of the single ``prefetch_trees`` engine call
    prefetch_seconds: float = 0.0
    #: name of the tree provider the prefetch work was billed to
    tree_provider: str = "dijkstra"
    #: fleet-side leg sources (vehicle locations + committed stops) whose
    #: trees were folded into the one-shot prefetch plane (0 = legs not
    #: prefetched; the serving path's ingest flush turns this on)
    leg_sources_prefetched: int = 0
    #: exact leg queries answered from a prefetched leg tree instead of a
    #: cold single-source engine computation
    leg_tree_hits: int = 0

    @property
    def shared_tree_hit_rate(self) -> float:
        """Fraction of tree-resolved requests served by an already-pooled tree."""
        resolved = self.trees_computed + self.prefetched_trees + self.shared_tree_hits
        if not resolved:
            return 0.0
        return self.shared_tree_hits / resolved

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for reports and benchmark records.

        All values are floats except ``tree_provider``, the provider name
        the prefetch was billed to -- consumers that can only carry
        numbers (the service's float panel) filter on type.
        """
        return {
            "requests": float(self.requests),
            "trees_computed": float(self.trees_computed),
            "shared_tree_hits": float(self.shared_tree_hits),
            "shared_tree_hit_rate": self.shared_tree_hit_rate,
            "prefetched_trees": float(self.prefetched_trees),
            "prefetch_seconds": self.prefetch_seconds,
            "leg_sources_prefetched": float(self.leg_sources_prefetched),
            "leg_tree_hits": float(self.leg_tree_hits),
            "tree_provider": self.tree_provider,
        }


@dataclass
class BatchMatchContext(MatchContext):
    """A :class:`MatchContext` whose exact distances are memoised batch-wide.

    Verifying a candidate vehicle issues point-to-point queries for the legs
    of its *existing* schedules (replaced legs, prefix distances); those legs
    are properties of the fleet, not of the request, so every request of a
    batch re-asks the very same queries.  All contexts of one
    :class:`BatchContext` share one ``shared_distances`` memo keyed by the
    (order-normalised) endpoint pair: the first request pays the engine query,
    every later request of the batch hits the memo -- immune to engine cache
    eviction, and bounded by the batch's actual verification working set.

    The memo stores the engine's own answers verbatim (the engine roots every
    point query canonically), so batched verifications see bit-for-bit the
    floats a per-request context would.

    ``leg_trees`` optionally extends the pool to *fleet-side* sources
    (vehicle locations, committed schedule stops) prefetched into the same
    vectorised plane as the start trees.  A memo miss whose canonical root
    (the smaller vertex id -- exactly the root ``RoutingEngine.distance``
    picks) has a prefetched tree is answered from that pinned row instead of
    falling back to a cold single-source engine computation; the rows obey
    the tree-provider bit-identity contract, so the answers are the engine's
    own floats.  Lookups that cannot be answered from the plane (unknown or
    unreachable leaf, root not prefetched) fall back to the engine verbatim,
    preserving its exact error behaviour.
    """

    #: batch-wide exact-distance memo shared by every context of the batch
    shared_distances: Dict[Tuple[VertexId, VertexId], float] = field(default_factory=dict)
    #: prefetched trees rooted at fleet-side leg sources, shared batch-wide
    leg_trees: Mapping[VertexId, Mapping[VertexId, float]] = field(default_factory=dict)
    #: statistics sink for ``leg_tree_hits`` (shared by the whole batch)
    batch_statistics: Optional[BatchStatistics] = None

    def distance(self, source: VertexId, target: VertexId) -> float:
        """Exact distance; start-rooted legs from the pinned tree, others memoised."""
        start = self.request.start
        if source == start:
            return self.from_start(target)
        if target == start:
            return self.from_start(source)
        key = (source, target) if source <= target else (target, source)
        value = self.shared_distances.get(key)
        if value is None:
            if self.leg_trees:
                root, leaf = key  # key is already rooted at the smaller id
                tree = self.leg_trees.get(root)
                if tree is not None:
                    value = tree.get(leaf)
                    if value is not None and self.batch_statistics is not None:
                        self.batch_statistics.leg_tree_hits += 1
            if value is None:
                value = self.engine.distance(source, target)
            self.shared_distances[key] = value
        return value


class BatchContext:
    """Pooled per-request :class:`MatchContext`\\ s for one dispatch batch.

    Build one with :meth:`create`; fetch a request's context (or its recorded
    endpoint error) with :meth:`context_for` when the pipeline reaches that
    request in submission order.
    """

    def __init__(
        self,
        requests: Sequence[Request],
        contexts: Dict[int, MatchContext],
        errors: Dict[int, Exception],
        statistics: BatchStatistics,
        seconds: Optional[Dict[int, float]] = None,
    ) -> None:
        self._requests = list(requests)
        self._contexts = contexts
        self._errors = errors
        self._seconds = seconds or {}
        self.statistics = statistics

    @classmethod
    def create(
        cls,
        requests: Sequence[Request],
        engine: RoutingEngine,
        grid: GridIndex,
        prefetch: bool = True,
        leg_sources: Optional[Sequence[VertexId]] = None,
    ) -> "BatchContext":
        """Pool trees and direct distances for ``requests`` (in order).

        Start vertices are deduplicated and every missing tree is prefetched
        through **one** vectorised
        :meth:`~repro.roadnet.routing.RoutingEngine.prefetch_trees` call
        before any request is examined (engines without a bulk path return
        nothing and trees are computed per distinct start, as before;
        ``prefetch=False`` forces that per-source path for ablations).
        Requests sharing a start reuse the pooled reference.  Endpoint
        failures are recorded per request, not raised -- ``prefetch_trees``
        skips unknown start vertices, so the per-request path still observes
        the exact error the sequential loop would have raised.

        ``leg_sources`` optionally folds *fleet-side* vertices (vehicle
        locations, committed schedule stops) into the same one-shot prefetch
        plane; the resulting trees are shared by every context's
        ``leg_trees`` so schedule-leg verification queries hit a pinned row
        instead of recomputing cold single-source trees under engine-cache
        pressure.  Purely a performance hint: answers and errors are
        bit-identical with or without it (only sources the engine's bulk
        path actually resolves are consulted, and every unresolvable lookup
        falls back to the engine).

        Memory: the pool holds one O(V) tree per distinct start vertex of the
        batch -- the price of immunity to engine cache eviction.  The pool
        itself keeps no strong references after construction (each context
        pins only its own tree), and :meth:`release` lets the pipeline drop a
        request's context -- and with it the tree, once no later same-start
        request needs it -- as soon as its turn is decided, so peak usage
        shrinks as the batch drains.
        """
        trees: Dict[VertexId, Mapping[VertexId, float]] = {}
        tree_errors: Dict[VertexId, Exception] = {}
        contexts: Dict[int, MatchContext] = {}
        errors: Dict[int, Exception] = {}
        seconds: Dict[int, float] = {}
        shared_distances: Dict[Tuple[VertexId, VertexId], float] = {}
        statistics = BatchStatistics(
            requests=len(requests), tree_provider=engine.tree_provider_name
        )

        prefetch_share = 0.0
        unbilled_prefetches: set = set()
        leg_trees: Mapping[VertexId, Mapping[VertexId, float]] = {}
        if prefetch and requests:
            distinct_starts = list(dict.fromkeys(request.start for request in requests))
            started = time.perf_counter()
            if leg_sources:
                start_set = set(distinct_starts)
                extra = [
                    vertex
                    for vertex in dict.fromkeys(leg_sources)
                    if vertex not in start_set
                ]
                pooled = engine.prefetch_trees(distinct_starts + extra)
                # Start trees feed the per-request contexts below; the whole
                # pooled plane (starts included -- a leg query may root at a
                # vertex that happens to be some request's start) answers
                # schedule-leg queries.
                trees.update(
                    (vertex, pooled[vertex])
                    for vertex in distinct_starts
                    if vertex in pooled
                )
                leg_trees = pooled
                statistics.leg_sources_prefetched = sum(
                    1 for vertex in extra if vertex in pooled
                )
            else:
                trees.update(engine.prefetch_trees(distinct_starts))
            statistics.prefetch_seconds = time.perf_counter() - started
            statistics.prefetched_trees = len(trees)
            if trees:
                # Bill each tree's share of the one-shot call to its first
                # consumer below, the request that would have paid for the
                # tree inline on the per-source path.
                prefetch_share = statistics.prefetch_seconds / len(trees)
                unbilled_prefetches = set(trees)

        for index, request in enumerate(requests):
            start = request.start
            extra = 0.0
            started = time.perf_counter()
            if start in trees:
                if start in unbilled_prefetches:
                    unbilled_prefetches.discard(start)
                    extra = prefetch_share
                else:
                    statistics.shared_tree_hits += 1
            elif start not in tree_errors:
                try:
                    trees[start] = engine.distances_from(start)
                    statistics.trees_computed += 1
                except VertexNotFoundError as error:
                    tree_errors[start] = error
            seconds[index] = extra + time.perf_counter() - started
            if start in tree_errors:
                errors[index] = tree_errors[start]
                continue
            tree = trees[start]
            if start == request.destination:
                direct = 0.0
            else:
                try:
                    direct = tree[request.destination]
                except KeyError:
                    errors[index] = DisconnectedError(start, request.destination)
                    continue
            contexts[index] = BatchMatchContext(
                request=request,
                engine=engine,
                grid=grid,
                direct=direct,
                start_tree=tree,
                shared_distances=shared_distances,
                leg_trees=leg_trees,
                batch_statistics=statistics,
            )
        return cls(requests, contexts, errors, statistics, seconds)

    def __len__(self) -> int:
        return len(self._requests)

    @property
    def requests(self) -> List[Request]:
        """The batch's requests in submission order."""
        return list(self._requests)

    def error_for(self, index: int) -> Optional[Exception]:
        """The endpoint error recorded for request ``index`` (``None`` if fine)."""
        return self._errors.get(index)

    def context_for(self, index: int) -> MatchContext:
        """Return the pooled context of request ``index``.

        Raises:
            VertexNotFoundError / DisconnectedError: the error the sequential
                loop would have raised when it reached this request.
        """
        error = self._errors.get(index)
        if error is not None:
            raise error
        return self._contexts[index]

    def context_seconds(self, index: int) -> float:
        """Wall time spent building request ``index``'s share of the pool.

        The first request of a start vertex is billed its tree computation;
        requests served by an already-pooled tree are billed (almost)
        nothing.  The pipeline adds this to each outcome's ``match_seconds``
        so response times keep covering the request-side routing work, as
        they did when contexts were built inline.
        """
        return self._seconds.get(index, 0.0)

    def release(self, index: int) -> None:
        """Drop request ``index``'s context (and its tree pin, if the last)."""
        self._contexts.pop(index, None)
