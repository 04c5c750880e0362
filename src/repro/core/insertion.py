"""Inserting a request into a vehicle's kinetic tree.

For every branch (valid schedule) of a vehicle's kinetic tree and every
position pair, the candidate schedule obtained by inserting the request's
pick-up and drop-off stops is checked against the four validity conditions of
Definition 2.  Each feasible candidate yields

* its pick-up distance ``dist_pt`` (travel distance from the vehicle's current
  location to the request start along the candidate schedule), and
* its *added distance* ``dist(tr_j) - dist(tr_i)`` relative to the branch it
  was inserted into,

which the matchers turn into ``<vehicle, time, price>`` options.

Section 3.3 of the paper notes that the number of shortest-path computations
can be reduced compared to the plain kinetic-tree algorithm "by estimating
the lower and upper bounds of the shortest path distance".  When a grid index
is supplied, this module rejects candidates whose *lower-bound* distances
already violate a waiting-time or service constraint, skipping their exact
evaluation; the exact check still runs for every candidate that survives, so
the result set is identical with and without the grid (property-tested).

One pass per branch
-------------------
A busy fleet enumerates about a million candidates per serving episode, so
:func:`insertion_candidates` does each piece of work at the coarsest level
where it is still exact:

* **per vehicle** -- the waiting and service limit of every request
  (``budget + 1e-9``, the tolerance of ``check_schedule``);
* **per distinct branch** -- the point-order check
  (:func:`~repro.vehicles.schedule.check_structure`: inserting the new
  pick-up before its drop-off neither breaks nor repairs it for the
  branch's own requests), the occupancy profile, and arrays of grid-bound
  and exact legs: the branch's own legs plus every leg to and from the new
  stops.  Exact legs to and from the new stops are fetched lazily, when the
  first candidate that passes the bound and capacity checks needs them, so
  the routing engine is asked for no distance the per-candidate evaluation
  did not ask for;
* **per candidate** ``(i, j)``, in
  :func:`~repro.vehicles.schedule.enumerate_insertions` order -- one walk
  from the pick-up onwards over those arrays.  Totals before the pick-up are
  the branch's own prefix sums.

Bit-identity rule: every walk adds legs left to right from the vehicle's
offset, the order :func:`~repro.vehicles.schedule.prefix_distances` adds
them, so each pick-up, total and added distance is the float that
evaluating the candidate tuple yields.  The tuple and its
:class:`InsertionCandidate` are built only for feasible candidates.

Two distinct branches never produce the same candidate (deleting the
request's two stops from a candidate gives back its branch), so
deduplicating branches replaces per-candidate deduplication.  A branch that
already schedules a stop of the request makes the vehicle offer nothing,
exactly like :meth:`Vehicle.has_request`.  Walks that share the running sums
after the pick-up across ``j`` were tried and measured no faster: branches
hold a handful of stops (at most eight on the ``rush-served`` benchmark), so
the bookkeeping costs what it saves.

The per-candidate evaluation this replaces (build the tuple, walk it with
grid bounds, ``evaluate_schedule`` and ``check_schedule``) is kept as the
test oracle in ``tests/property/test_insertion_kernel.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import RoutingEngine
from repro.vehicles.schedule import check_structure
from repro.vehicles.vehicle import Vehicle

__all__ = ["InsertionCandidate", "insertion_candidates", "InsertionStatistics"]


@dataclass(frozen=True)
class InsertionCandidate:
    """One feasible way of serving a request with a particular vehicle."""

    vehicle_id: str
    schedule: Tuple[Stop, ...]
    base_schedule: Tuple[Stop, ...]
    pickup_distance: float
    added_distance: float
    total_distance: float

    def __post_init__(self) -> None:
        if self.pickup_distance < 0:
            raise ValueError("pickup_distance must be non-negative")


@dataclass
class InsertionStatistics:
    """Counters describing how much work an insertion call performed."""

    candidates_enumerated: int = 0
    candidates_feasible: int = 0
    candidates_rejected_by_bounds: int = 0


def insertion_candidates(
    vehicle: Vehicle,
    request: Request,
    oracle: RoutingEngine,
    grid: Optional[GridIndex] = None,
    statistics: Optional[InsertionStatistics] = None,
    direct: Optional[float] = None,
    distance: Optional[Callable[[int, int], float]] = None,
) -> List[InsertionCandidate]:
    """Return every feasible insertion of ``request`` into ``vehicle``.

    Args:
        vehicle: the candidate vehicle.
        request: the request to insert.
        oracle: routing engine (exact distances); a bare ``DistanceOracle``
            works too, only ``.distance`` is used.
        grid: optional grid index; when provided, candidates whose
            lower-bound distances already violate the waiting-time or service
            constraint are rejected without exact evaluation.
        statistics: optional counter object updated in place.
        direct: the request's direct distance when the caller (a matcher with
            a :class:`~repro.core.context.MatchContext`) already computed it;
            recomputed otherwise.
        distance: exact-distance callable overriding ``oracle.distance``
            (the matchers pass ``MatchContext.distance`` so start-rooted legs
            come from the pinned request tree).

    Returns:
        Feasible candidates, in branch order and, per branch, in
        :func:`~repro.vehicles.schedule.enumerate_insertions` order; empty
        when the vehicle cannot serve the request.
    """
    distance_fn = distance if distance is not None else oracle.distance
    request_id = request.request_id
    if vehicle.has_request(request_id):
        # The vehicle already serves this request (or a different request that
        # reuses its identifier); re-inserting it would corrupt the constraint
        # bookkeeping, so the vehicle simply offers nothing.
        return []
    if direct is None:
        direct = distance_fn(request.start, request.destination)

    start = request.start
    destination = request.destination
    riders = request.riders
    pickup_stop = Stop(vertex=start, request_id=request_id, kind=StopKind.PICKUP, riders=riders)
    dropoff_stop = Stop(
        vertex=destination, request_id=request_id, kind=StopKind.DROPOFF, riders=riders
    )

    # Per-vehicle limits: (waiting limit, service limit, on board) of every
    # request the vehicle serves.  An on-board request's pick-up is behind
    # it, so its waiting limit never binds.  The new request's waiting-time
    # condition cannot bind at matching time either (the planned pick-up *is*
    # the one being computed), so only its service limit is kept.
    states = vehicle.request_states()
    limits: Dict[str, Tuple[float, float, bool]] = {
        rid: (
            math.inf if state.onboard else state.waiting_budget() + 1e-9,
            state.remaining_service_budget() + 1e-9,
            state.onboard,
        )
        for rid, state in states.items()
    }
    dropoff_limit = request.detour_budget(direct) + 1e-9

    capacity = vehicle.capacity
    onboard_riders = vehicle.occupancy
    origin = vehicle.location
    origin_offset = vehicle.offset
    vehicle_id = vehicle.vehicle_id
    bound = grid.distance_lower_bound if grid is not None else None
    branches: List[Tuple[Stop, ...]] = list(dict.fromkeys(vehicle.kinetic_tree.schedules())) or [()]

    results: List[InsertionCandidate] = []
    enumerated = feasible = rejected = 0
    for branch in branches:
        n = len(branch)
        enumerated += (n + 1) * (n + 2) // 2

        # Per-stop constraint: the stop at candidate distance ``t`` violates
        # its request's condition iff ``t - at[partner[k]] > limit[k]``, where
        # ``at`` holds the candidate distance of every branch stop walked so
        # far and ``at[n]`` is a 0.0 sentinel.  A waiting request's drop-off
        # measures from its latest earlier pick-up; a stop whose request has
        # no condition to check there gets an infinite limit.
        vertices = [stop.vertex for stop in branch]
        limit = [math.inf] * n
        partner = [n] * n
        occupancy = [onboard_riders] * (n + 1)
        last_pickup: Dict[str, int] = {}
        for k, stop in enumerate(branch):
            rid = stop.request_id
            if rid == request_id:
                return []
            occupancy[k + 1] = occupancy[k] + stop.occupancy_delta
            entry = limits.get(rid)
            if stop.is_pickup:
                last_pickup[rid] = k
                if entry is not None:
                    limit[k] = entry[0]
            elif entry is not None:
                if entry[2]:
                    limit[k] = entry[1]
                elif rid in last_pickup:
                    limit[k] = entry[1]
                    partner[k] = last_pickup[rid]
        structurally_valid = bool(check_structure(branch, states))

        # Capacity: riders on board after the branch's first m stops must lie
        # in [0, capacity]; between the new pick-up and drop-off they carry
        # ``riders`` more.  ``settled_after[q]``: no overflow from m = q on.
        fits = [0 <= riders_on <= capacity for riders_on in occupancy]
        fits_lifted = [0 <= riders_on + riders <= capacity for riders_on in occupancy]
        settled_after = fits[:]
        for m in range(n - 1, -1, -1):
            settled_after[m] = fits[m] and settled_after[m + 1]

        # Exact legs of the branch, asked in prefix order (the base total).
        exact_legs = [0.0] * n
        exact_prefix = [origin_offset] * (n + 1)
        total = origin_offset
        previous = origin
        for k, vertex in enumerate(vertices):
            leg = distance_fn(previous, vertex)
            exact_legs[k] = leg
            total += leg
            exact_prefix[k + 1] = total
            previous = vertex
        base_total = total
        exact_at = exact_prefix[1:] + [0.0]
        # Exact legs touching the new stops, filled in on first use.
        to_pickup: List[Optional[float]] = [None] * (n + 1)
        from_pickup: List[Optional[float]] = [None] * n
        to_dropoff: List[Optional[float]] = [None] * (n + 1)
        from_dropoff: List[Optional[float]] = [None] * n
        pickup_to_dropoff: Optional[float] = None

        if bound is not None:
            bound_legs = [0.0] * n
            bound_prefix = [origin_offset] * (n + 1)
            total = origin_offset
            previous = origin
            for k, vertex in enumerate(vertices):
                leg = bound(previous, vertex)
                bound_legs[k] = leg
                total += leg
                bound_prefix[k + 1] = total
                previous = vertex
            bound_at = bound_prefix[1:] + [0.0]
            bound_to_pickup = [bound(origin, start)] + [bound(vertex, start) for vertex in vertices]
            bound_from_pickup = [bound(start, vertex) for vertex in vertices] + [0.0]
            bound_to_dropoff = [0.0] + [bound(vertex, destination) for vertex in vertices]
            bound_from_dropoff = [bound(destination, vertex) for vertex in vertices] + [0.0]
            bound_pickup_to_dropoff = bound(start, destination)

        bound_clear = exact_clear = fits_before = True
        for i in range(n + 1):
            if i:
                # Stop i-1 now precedes the pick-up: its distance is the
                # branch prefix, and its condition holds for every j or none.
                k = i - 1
                if bound is not None:
                    t = bound_prefix[i]
                    bound_at[k] = t
                    if t - bound_at[partner[k]] > limit[k]:
                        bound_clear = False
                t = exact_prefix[i]
                exact_at[k] = t
                if t - exact_at[partner[k]] > limit[k]:
                    exact_clear = False
                fits_before = fits_before and fits[i]
            if not bound_clear:
                remaining = n + 1 - i
                rejected += remaining * (remaining + 1) // 2
                break
            evaluate = structurally_valid and exact_clear and fits_before
            lifted = True
            for q in range(i, n + 1):
                # q: branch stops before the drop-off (j - 1 in enumerate_insertions)
                lifted = lifted and fits_lifted[q]
                if bound is not None and _walk(
                    i, q, n, bound_prefix[i], bound_legs,
                    bound_to_pickup[i],
                    bound_from_pickup[i],
                    bound_to_dropoff[q] if q > i else bound_pickup_to_dropoff,
                    bound_from_dropoff[q],
                    limit, partner, bound_at, dropoff_limit,
                ) is None:
                    rejected += 1
                    continue
                if not (evaluate and lifted and settled_after[q]):
                    continue
                into_pickup = to_pickup[i]
                if into_pickup is None:
                    into_pickup = to_pickup[i] = distance_fn(vertices[i - 1] if i else origin, start)
                if q > i:
                    out_of_pickup = from_pickup[i]
                    if out_of_pickup is None:
                        out_of_pickup = from_pickup[i] = distance_fn(start, vertices[i])
                    into_dropoff = to_dropoff[q]
                    if into_dropoff is None:
                        into_dropoff = to_dropoff[q] = distance_fn(vertices[q - 1], destination)
                else:
                    out_of_pickup = 0.0
                    if pickup_to_dropoff is None:
                        pickup_to_dropoff = distance_fn(start, destination)
                    into_dropoff = pickup_to_dropoff
                out_of_dropoff = 0.0
                if q < n:
                    out_of_dropoff = from_dropoff[q]
                    if out_of_dropoff is None:
                        out_of_dropoff = from_dropoff[q] = distance_fn(destination, vertices[q])
                walked = _walk(
                    i, q, n, exact_prefix[i], exact_legs,
                    into_pickup, out_of_pickup, into_dropoff, out_of_dropoff,
                    limit, partner, exact_at, dropoff_limit,
                )
                if walked is None:
                    continue
                pickup_distance, total = walked
                feasible += 1
                results.append(
                    InsertionCandidate(
                        vehicle_id=vehicle_id,
                        schedule=branch[:i] + (pickup_stop,) + branch[i:q] + (dropoff_stop,) + branch[q:],
                        base_schedule=branch,
                        pickup_distance=pickup_distance,
                        added_distance=max(0.0, total - base_total),
                        total_distance=total,
                    )
                )

    if statistics is not None:
        statistics.candidates_enumerated += enumerated
        statistics.candidates_feasible += feasible
        statistics.candidates_rejected_by_bounds += rejected
    return results


def _walk(
    i: int,
    q: int,
    n: int,
    total: float,
    legs: Sequence[float],
    into_pickup: float,
    out_of_pickup: float,
    into_dropoff: float,
    out_of_dropoff: float,
    limit: Sequence[float],
    partner: Sequence[int],
    at: List[float],
    dropoff_limit: float,
) -> Optional[Tuple[float, float]]:
    """Walk candidate ``(i, q)`` from its pick-up; ``None`` at the first violation.

    The candidate visits the branch's first ``i`` stops, the pick-up, branch
    stops ``i .. q-1``, the drop-off and the rest of the branch.  ``total`` is
    the distance at the pick-up's predecessor; ``legs[k]`` is the leg into
    branch stop ``k``.  Legs are added left to right, as
    ``prefix_distances`` adds them.  Returns the pick-up distance and the
    candidate's total distance.
    """
    total += into_pickup
    pickup_total = total
    if q > i:
        total += out_of_pickup
        k = i
        while True:
            at[k] = total
            if total - at[partner[k]] > limit[k]:
                return None
            k += 1
            if k == q:
                break
            total += legs[k]
    total += into_dropoff
    if total - pickup_total > dropoff_limit:
        return None
    if q < n:
        total += out_of_dropoff
        k = q
        while True:
            at[k] = total
            if total - at[partner[k]] > limit[k]:
                return None
            k += 1
            if k == n:
                break
            total += legs[k]
    return pickup_total, total


def feasible_schedules_for_commit(
    vehicle: Vehicle,
    request: Request,
    oracle: RoutingEngine,
    grid: Optional[GridIndex] = None,
) -> List[InsertionCandidate]:
    """Return every feasible insertion, for installing into the kinetic tree.

    This is what the dispatcher calls once a rider accepts an option: the
    vehicle's kinetic tree must afterwards contain *all* valid schedules over
    its (now extended) request set, not just the schedule of the chosen
    option.  The candidates carry their pick-up distances, so the caller can
    drop the schedules that break the promised pick-up without walking them
    again.
    """
    return insertion_candidates(vehicle, request, oracle, grid)
