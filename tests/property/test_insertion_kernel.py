"""The per-branch insertion kernel against the per-candidate reference loop.

``insertion_candidates`` evaluates each kinetic-tree branch once: budgets per
vehicle, the point-order check per branch, leg arrays per branch and one walk
per candidate.  :func:`reference_candidates` below is the evaluation it
replaced, kept verbatim as the oracle: every candidate tuple is enumerated,
deduplicated by hash, walked with grid lower bounds, evaluated with
``evaluate_schedule`` and checked with ``check_schedule``.  The two must agree
element by element (schedules, branches and floats compared with ``==``) and
on all three work counters, and the kernel must ask for no exact distance the
reference did not ask for.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchContext, BatchMatchContext
from repro.core.insertion import InsertionCandidate, InsertionStatistics, insertion_candidates
from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.vehicles.schedule import (
    RequestState,
    check_schedule,
    enumerate_insertions,
    evaluate_schedule,
    schedule_distance,
)
from repro.vehicles.vehicle import Vehicle

from tests.conftest import assign_request, build_fleet


# ----------------------------------------------------------------------
# the reference: one tuple, one hash and three walks per candidate
# ----------------------------------------------------------------------
def reference_candidates(
    vehicle: Vehicle,
    request: Request,
    distance_fn: Callable[[int, int], float],
    grid: Optional[GridIndex],
    stats: InsertionStatistics,
    direct: float,
) -> List[InsertionCandidate]:
    if vehicle.has_request(request.request_id):
        return []
    pickup_stop = Stop(request.start, request.request_id, StopKind.PICKUP, request.riders)
    dropoff_stop = Stop(request.destination, request.request_id, StopKind.DROPOFF, request.riders)
    request_states: Dict[str, RequestState] = dict(vehicle.request_states())
    request_states[request.request_id] = RequestState(
        request=request,
        onboard=False,
        direct_distance=direct,
        planned_pickup_remaining=math.inf,
        travelled_since_pickup=0.0,
    )
    base_schedules = vehicle.kinetic_tree.schedules() or [()]
    origin, origin_offset = vehicle.location, vehicle.offset
    results: List[InsertionCandidate] = []
    seen: Dict[Tuple[Stop, ...], None] = {}
    for base in base_schedules:
        base_total = schedule_distance(origin, base, distance_fn, origin_offset)
        for candidate in enumerate_insertions(base, pickup_stop, dropoff_stop):
            if candidate in seen:
                continue
            seen[candidate] = None
            stats.candidates_enumerated += 1
            if grid is not None and reference_rejected_by_lower_bounds(
                origin, origin_offset, candidate, request_states, grid
            ):
                stats.candidates_rejected_by_bounds += 1
                continue
            metrics = evaluate_schedule(origin, candidate, distance_fn, origin_offset)
            feasibility = check_schedule(
                origin=origin,
                stops=candidate,
                capacity=vehicle.capacity,
                onboard_riders=vehicle.occupancy,
                request_states=request_states,
                distance=distance_fn,
                origin_offset=origin_offset,
                metrics=metrics,
            )
            if not feasibility:
                continue
            stats.candidates_feasible += 1
            results.append(
                InsertionCandidate(
                    vehicle_id=vehicle.vehicle_id,
                    schedule=candidate,
                    base_schedule=tuple(base),
                    pickup_distance=metrics.pickup_distance[request.request_id],
                    added_distance=max(0.0, metrics.total_distance - base_total),
                    total_distance=metrics.total_distance,
                )
            )
    return results


def reference_rejected_by_lower_bounds(
    origin: int,
    origin_offset: float,
    stops: Sequence[Stop],
    request_states: Dict[str, RequestState],
    grid: GridIndex,
) -> bool:
    bound = grid.distance_lower_bound
    total = origin_offset
    previous = origin
    pickup_at: Dict[str, float] = {}
    for stop in stops:
        total += bound(previous, stop.vertex)
        previous = stop.vertex
        request_id = stop.request_id
        state = request_states.get(request_id)
        if stop.is_pickup:
            pickup_at[request_id] = total
            if state is not None and not state.onboard and total > state.waiting_budget() + 1e-9:
                return True
        else:
            if state is None:
                continue
            if state.onboard:
                travelled_lb = total
            elif request_id in pickup_at:
                travelled_lb = total - pickup_at[request_id]
            else:
                continue
            if travelled_lb > state.remaining_service_budget() + 1e-9:
                return True
    return False


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def broken_branch(branch: Tuple[Stop, ...], kind: str) -> Tuple[Stop, ...]:
    """A structurally invalid variant of ``branch`` (Definition 2, point order)."""
    if kind == "reversed":
        return tuple(reversed(branch))
    if kind == "unknown":
        return branch + (Stop(branch[-1].vertex, "ghost", StopKind.DROPOFF),)
    return branch[:-1]  # a request loses its drop-off


@st.composite
def scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    size = draw(st.integers(min_value=4, max_value=6))
    network = grid_network(size, size, weight_jitter=0.4, seed=seed)
    vertices = network.vertices()
    capacity = draw(st.integers(min_value=2, max_value=4))
    fleet = build_fleet(network, [rng.choice(vertices)], capacity=capacity, grid_rows=3, grid_columns=3)
    vehicle = fleet.get("c1")

    for index in range(draw(st.integers(min_value=0, max_value=3))):
        start, destination = rng.sample(vertices, 2)
        request = Request(
            start=start, destination=destination, riders=rng.randint(1, 2),
            max_waiting=draw(st.sampled_from([2.0, 6.0, 12.0])), service_constraint=0.8,
            request_id=f"pre-{index}",
        )
        try:
            assign_request(fleet, "c1", request)
        except AssertionError:
            continue

    branches = vehicle.kinetic_tree.schedules()
    if branches and draw(st.booleans()):
        # board the first pick-up of the first branch and drive a little
        first = branches[0][0]
        if first.is_pickup and vehicle.occupancy + first.riders <= capacity:
            vehicle.arrive_at_stop(first)
            vehicle.pickup(first.request_id)
            vehicle.record_progress(draw(st.sampled_from([0.5, 2.0])))
    vehicle.set_location(
        vehicle.location if draw(st.booleans()) else rng.choice(vertices),
        offset=draw(st.sampled_from([0.0, 0.75, 2.5])),
    )

    tree_schedules = vehicle.kinetic_tree._schedules
    if tree_schedules and tree_schedules[0]:
        if draw(st.booleans()):
            tree_schedules.append(tree_schedules[0])
        broken = draw(st.sampled_from([None, "reversed", "unknown", "missing"]))
        if broken is not None:
            tree_schedules.insert(
                rng.randrange(len(tree_schedules) + 1), broken_branch(tree_schedules[0], broken)
            )

    start, destination = rng.sample(vertices, 2)
    probe = Request(
        start=start, destination=destination, riders=rng.randint(1, 3),
        max_waiting=draw(st.sampled_from([1.0, 6.0, 20.0])),
        service_constraint=draw(st.sampled_from([0.0, 0.5, 2.0])),
        request_id="probe",
    )
    use_grid = draw(st.booleans())
    use_batch_context = draw(st.booleans())
    return fleet, vehicle, probe, use_grid, use_batch_context


def recording(distance_fn: Callable[[int, int], float], asked: set) -> Callable[[int, int], float]:
    def distance(u: int, v: int) -> float:
        asked.add((u, v))
        return distance_fn(u, v)

    return distance


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_kernel_equals_per_candidate_reference(scenario):
    fleet, vehicle, probe, use_grid, use_batch_context = scenario
    grid = fleet.grid if use_grid else None
    if use_batch_context:
        context = BatchContext.create([probe], fleet.routing_engine, fleet.grid).context_for(0)
        assert isinstance(context, BatchMatchContext)
        distance_fn, direct = context.distance, context.direct
    else:
        distance_fn = fleet.oracle.distance
        direct = distance_fn(probe.start, probe.destination)

    reference_asked: set = set()
    reference_stats = InsertionStatistics()
    expected = reference_candidates(
        vehicle, probe, recording(distance_fn, reference_asked), grid, reference_stats, direct
    )
    kernel_asked: set = set()
    kernel_stats = InsertionStatistics()
    actual = insertion_candidates(
        vehicle, probe, fleet.routing_engine, grid=grid, statistics=kernel_stats,
        direct=direct, distance=recording(distance_fn, kernel_asked),
    )

    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.vehicle_id == want.vehicle_id
        assert got.schedule == want.schedule
        assert got.base_schedule == want.base_schedule
        assert got.pickup_distance == want.pickup_distance
        assert got.added_distance == want.added_distance
        assert got.total_distance == want.total_distance
    assert kernel_stats == reference_stats
    assert kernel_asked <= reference_asked


def test_branch_scheduling_the_request_offers_nothing():
    """A tree that already schedules the request's stops makes the vehicle offer nothing."""
    network = grid_network(4, 4, weight_jitter=0.0, seed=1)
    origin, start, destination = network.vertices()[:3]
    fleet = build_fleet(network, [origin], capacity=4, grid_rows=2, grid_columns=2)
    vehicle = fleet.get("c1")
    request = Request(start=start, destination=destination, riders=1, max_waiting=50.0,
                      service_constraint=5.0, request_id="R")
    vehicle.kinetic_tree._schedules.append(
        (Stop(start, "R", StopKind.PICKUP), Stop(destination, "R", StopKind.DROPOFF))
    )
    stats = InsertionStatistics()
    assert insertion_candidates(vehicle, request, fleet.oracle, fleet.grid, statistics=stats) == []
    assert stats == InsertionStatistics()
