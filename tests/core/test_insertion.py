"""Unit tests for request insertion into kinetic trees."""

from __future__ import annotations

import pytest

from repro.core.insertion import (
    InsertionStatistics,
    feasible_schedules_for_commit,
    insertion_candidates,
)
from repro.model.request import Request
from repro.roadnet.generators import figure1_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.shortest_path import DistanceOracle
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.conftest import assign_request


@pytest.fixture
def network():
    return figure1_network()


@pytest.fixture
def oracle(network):
    return DistanceOracle(network)


@pytest.fixture
def grid(network):
    return GridIndex(network, rows=4, columns=4)


class TestEmptyVehicle:
    def test_single_candidate(self, oracle, grid):
        vehicle = Vehicle("c2", location=13)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle, grid)
        assert len(candidates) == 1
        candidate = candidates[0]
        assert candidate.pickup_distance == pytest.approx(8.0)
        assert candidate.added_distance == pytest.approx(15.0)
        assert candidate.total_distance == pytest.approx(15.0)
        assert candidate.base_schedule == ()
        assert [stop.vertex for stop in candidate.schedule] == [12, 17]

    def test_offset_added_to_pickup_distance(self, oracle, grid):
        vehicle = Vehicle("c2", location=13, offset=2.0)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle, grid)
        assert candidates[0].pickup_distance == pytest.approx(10.0)

    def test_vehicle_id_recorded(self, oracle, grid):
        vehicle = Vehicle("taxi-9", location=13)
        request = Request(start=12, destination=17, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle, grid)
        assert all(candidate.vehicle_id == "taxi-9" for candidate in candidates)


class TestNonEmptyVehicle:
    def build_busy_vehicle(self, network, oracle, grid):
        fleet = Fleet(grid, oracle)
        fleet.add_vehicle(Vehicle("c1", location=1))
        r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
        assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
        return fleet.get("c1")

    def test_paper_schedule_is_among_the_candidates(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle, grid)
        # Two orders are feasible: the paper's shared ride (R2 interleaved with
        # R1) and the trivial "serve R1 first, then R2" append; every other
        # interleaving violates R1's waiting-time or service constraint.
        by_order = {tuple(stop.vertex for stop in c.schedule): c for c in candidates}
        assert set(by_order) == {(2, 12, 16, 17), (2, 16, 12, 17)}
        paper = by_order[(2, 12, 16, 17)]
        assert paper.added_distance == pytest.approx(3.0)
        assert paper.pickup_distance == pytest.approx(14.0)
        appended = by_order[(2, 16, 12, 17)]
        # The appended order is dominated later (higher price and later pick-up).
        assert appended.added_distance > paper.added_distance
        assert appended.pickup_distance > paper.pickup_distance

    def test_relaxed_constraints_allow_more_candidates(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        relaxed = Request(
            start=12, destination=17, riders=2, max_waiting=50.0, service_constraint=5.0, request_id="R2"
        )
        # Relaxing only the new request does not relax R1's constraints, so the
        # schedules detouring R1 through v17 stay infeasible -- but inserting
        # after R1's drop-off becomes possible.
        candidates = insertion_candidates(vehicle, relaxed, oracle, grid)
        assert len(candidates) >= 1
        orders = {tuple(stop.vertex for stop in candidate.schedule) for candidate in candidates}
        assert (2, 16, 12, 17) in orders

    def test_capacity_blocks_joint_carriage(self, network, oracle, grid):
        fleet = Fleet(grid, oracle)
        fleet.add_vehicle(Vehicle("c1", location=1, capacity=2))
        r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
        assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        candidates = insertion_candidates(fleet.get("c1"), request, oracle, grid)
        # With capacity 2 the groups can never ride together: every surviving
        # candidate must drop R1 off before picking R2 up.
        assert candidates
        for candidate in candidates:
            vertices = [stop.vertex for stop in candidate.schedule]
            assert vertices.index(16) < vertices.index(12)

    def test_statistics_accumulate(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        stats = InsertionStatistics()
        candidates = insertion_candidates(vehicle, request, oracle, grid, statistics=stats)
        assert stats.candidates_enumerated > 0
        assert stats.candidates_feasible == len(candidates)

    def test_grid_bounds_do_not_change_results(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        with_grid = insertion_candidates(vehicle, request, oracle, grid)
        without_grid = insertion_candidates(vehicle, request, oracle, None)

        def key(candidate):
            return (
                tuple(str(stop) for stop in candidate.schedule),
                round(candidate.pickup_distance, 9),
                round(candidate.added_distance, 9),
            )

        assert sorted(map(key, with_grid)) == sorted(map(key, without_grid))

    def test_grid_bounds_can_reject_candidates_early(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        tight = Request(
            start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.0, request_id="R2"
        )
        stats = InsertionStatistics()
        insertion_candidates(vehicle, tight, oracle, grid, statistics=stats)
        assert stats.candidates_rejected_by_bounds >= 0  # bounds may or may not fire, but never crash


class TestCommitHelper:
    def test_feasible_schedules_for_commit(self, network, oracle, grid):
        vehicle = Vehicle("c2", location=13)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        candidates = feasible_schedules_for_commit(vehicle, request, oracle, grid)
        assert len(candidates) == 1
        assert [stop.vertex for stop in candidates[0].schedule] == [12, 17]
        assert candidates[0].pickup_distance == pytest.approx(8.0)

    def test_commit_helper_empty_when_infeasible(self, network, oracle, grid):
        vehicle = Vehicle("c1", location=1, capacity=1)
        request = Request(start=2, destination=16, riders=3, request_id="RBig")
        assert feasible_schedules_for_commit(vehicle, request, oracle, grid) == []
