"""Property-based equivalence of the batched dispatch pipeline with the loop.

The batched pipeline (`Dispatcher.dispatch_batch`) restructures *where* the
greedy strategy's work happens -- pooled routing contexts, per-shard
skylines merged by dominance, commit-driven shard invalidation -- but must
not change *what* it computes: for any fleet, any burst of simultaneous
requests and any shard count, the outcomes (offered skylines, chosen
vehicles, fleet end-state) must be byte-identical to the literal
request-by-request greedy loop of Section 2.5.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import make_engine

from tests.conftest import build_fleet

MATCHERS = {
    "naive": NaiveKineticTreeMatcher,
    "single_side": SingleSideSearchMatcher,
    "dual_side": DualSideSearchMatcher,
}


@st.composite
def batch_scenarios(draw):
    """A seeded fleet blueprint plus a burst of simultaneous requests."""
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    rows = draw(st.integers(min_value=4, max_value=7))
    columns = draw(st.integers(min_value=4, max_value=7))
    network = grid_network(rows, columns, weight_jitter=0.4, seed=seed)
    vertices = network.vertices()

    vehicle_count = draw(st.integers(min_value=1, max_value=8))
    locations = [rng.choice(vertices) for _ in range(vehicle_count)]
    grid_rows = draw(st.integers(min_value=2, max_value=4))

    request_count = draw(st.integers(min_value=1, max_value=6))
    # A couple of shared start vertices exercise the tree pooling.
    starts = [rng.choice(vertices) for _ in range(max(1, request_count // 2))]
    requests = []
    for index in range(request_count):
        start = rng.choice(starts) if rng.random() < 0.5 else rng.choice(vertices)
        destination = rng.choice([v for v in vertices if v != start])
        requests.append(
            Request(
                start=start, destination=destination, riders=rng.randint(1, 2),
                max_waiting=6.0, service_constraint=0.6, request_id=f"b-{seed}-{index}",
            )
        )

    matcher_name = draw(st.sampled_from(sorted(MATCHERS)))
    shards = draw(st.sampled_from([1, 2, 4]))
    policy = draw(st.sampled_from([OptionPolicy.CHEAPEST, OptionPolicy.FASTEST, OptionPolicy.BALANCED]))
    max_pickup = draw(st.sampled_from([None, 4.0, 8.0]))
    blueprint = (network, locations, grid_rows)
    config = SystemConfig(max_waiting=6.0, service_constraint=0.6, max_pickup_distance=max_pickup)
    return blueprint, requests, matcher_name, shards, policy, config


def _build_dispatcher(blueprint, matcher_name, config, backend=None):
    network, locations, grid_rows = blueprint
    fleet = build_fleet(network, locations, capacity=4, grid_rows=grid_rows, grid_columns=grid_rows)
    if backend is not None:
        # Swap before the matcher is built: matchers snapshot the engine.
        fleet.set_routing_engine(make_engine(network, backend))
    matcher = MATCHERS[matcher_name](fleet, config=config)
    return Dispatcher(fleet, matcher, config)


def _fleet_state(fleet):
    """A comparable snapshot of every vehicle's full state."""
    return [
        (
            vehicle.vehicle_id,
            vehicle.location,
            vehicle.offset,
            sorted(vehicle.unfinished_request_ids()),
            tuple(
                sorted(
                    tuple((stop.vertex, stop.request_id, stop.kind.value) for stop in schedule)
                    for schedule in vehicle.kinetic_tree.schedules()
                )
            ),
        )
        for vehicle in fleet.vehicles()
    ]


@given(batch_scenarios())
@settings(max_examples=40, deadline=None)
def test_dispatch_batch_equals_sequential_loop(scenario):
    blueprint, requests, matcher_name, shards, policy, config = scenario
    sequential = _build_dispatcher(blueprint, matcher_name, config)
    batched = _build_dispatcher(blueprint, matcher_name, config)

    loop_outcomes = sequential.dispatch_sequential(requests, policy=policy)
    pipeline_outcomes = batched.dispatch_batch(requests, policy=policy, shards=shards)

    assert len(loop_outcomes) == len(pipeline_outcomes)
    for loop, pipe in zip(loop_outcomes, pipeline_outcomes):
        # Byte-identical skylines: same options, same order, same floats,
        # same schedules -- and therefore the same chosen vehicle.
        assert loop.options == pipe.options
        assert loop.chosen == pipe.chosen
        assert loop.request.request_id == pipe.request.request_id
    assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)


@given(batch_scenarios())
@settings(max_examples=20, deadline=None)
def test_match_batch_equals_individual_submits(scenario):
    """The no-commit batch flow answers exactly like per-request submits."""
    blueprint, requests, matcher_name, shards, _policy, config = scenario
    individual = _build_dispatcher(blueprint, matcher_name, config)
    batched = _build_dispatcher(blueprint, matcher_name, config)

    one_by_one = [individual.submit(individual.normalise(r)) for r in requests]
    pooled = batched.match_batch(requests, shards=shards)
    assert one_by_one == pooled


@given(batch_scenarios())
@settings(max_examples=15, deadline=None)
def test_shared_tree_statistics_are_consistent(scenario):
    blueprint, requests, matcher_name, shards, policy, config = scenario
    dispatcher = _build_dispatcher(blueprint, matcher_name, config)
    dispatcher.dispatch_batch(requests, policy=policy, shards=shards)
    stats = dispatcher.last_batch_statistics
    assert stats is not None
    assert stats.requests == len(requests)
    # The dict backend has no bulk path: every distinct start is computed.
    assert stats.prefetched_trees == 0
    assert stats.trees_computed == len({r.start for r in requests})
    assert stats.trees_computed + stats.shared_tree_hits == len(requests)
    assert 0.0 <= stats.shared_tree_hit_rate <= 1.0


@given(batch_scenarios(), st.sampled_from(["csr", "table", "ch"]))
@settings(max_examples=16, deadline=None)
def test_prefetched_batch_equals_sequential_on_vector_backends(scenario, backend):
    """The one-shot tree-plane prefetch is pure restructuring: on the CSR,
    table and CH backends the batched pipeline must reproduce the sequential
    loop's options, choices and fleet end-state float for float."""
    blueprint, requests, matcher_name, shards, policy, config = scenario
    sequential = _build_dispatcher(blueprint, matcher_name, config, backend=backend)
    batched = _build_dispatcher(blueprint, matcher_name, config, backend=backend)

    loop_outcomes = sequential.dispatch_sequential(requests, policy=policy)
    pipeline_outcomes = batched.dispatch_batch(requests, policy=policy, shards=shards)

    assert len(loop_outcomes) == len(pipeline_outcomes)
    for loop, pipe in zip(loop_outcomes, pipeline_outcomes):
        assert loop.options == pipe.options
        assert loop.chosen == pipe.chosen
    assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)

    stats = batched.last_batch_statistics
    assert stats is not None
    # Every tree came through the vectorised prefetch, counted exactly once.
    assert stats.prefetched_trees == len({r.start for r in requests})
    assert stats.trees_computed == 0
    assert (
        stats.prefetched_trees + stats.shared_tree_hits == len(requests)
    )


@given(batch_scenarios(), st.sampled_from(["csr", "table"]))
@settings(max_examples=16, deadline=None)
def test_leg_prefetch_equals_sequential_on_busy_fleets(scenario, backend):
    """``prefetch_legs=True`` folds the fleet's schedule-leg sources (vehicle
    locations + committed stops) into the batch's prefetch plane.  Like the
    start-tree plane it is pure restructuring: insertion verification must
    read exactly the distances the engine would have computed cold, so a
    busy fleet -- warmed by a first committed burst -- answers a second
    burst byte-identically to the sequential loop."""
    blueprint, requests, matcher_name, shards, policy, config = scenario
    if len(requests) < 2:
        return
    warm, burst = requests[: len(requests) // 2], requests[len(requests) // 2 :]
    sequential = _build_dispatcher(blueprint, matcher_name, config, backend=backend)
    batched = _build_dispatcher(blueprint, matcher_name, config, backend=backend)

    # identical warm-up commitments give both fleets non-empty schedules,
    # so the second burst actually exercises the leg-tree lookups
    sequential.dispatch_sequential(warm, policy=policy)
    batched.dispatch_sequential(warm, policy=policy)

    loop_outcomes = sequential.dispatch_sequential(burst, policy=policy)
    pipeline_outcomes = batched.dispatch_batch(
        burst, policy=policy, shards=shards, prefetch_legs=True
    )

    assert len(loop_outcomes) == len(pipeline_outcomes)
    for loop, pipe in zip(loop_outcomes, pipeline_outcomes):
        assert loop.options == pipe.options
        assert loop.chosen == pipe.chosen
    assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)

    stats = batched.last_batch_statistics
    assert stats is not None
    # leg sources are the prefetched trees beyond the burst's start set
    assert stats.leg_sources_prefetched >= 0
    assert stats.leg_tree_hits >= 0
    payload = stats.as_dict()
    assert payload["leg_sources_prefetched"] == float(stats.leg_sources_prefetched)
    assert payload["leg_tree_hits"] == float(stats.leg_tree_hits)
