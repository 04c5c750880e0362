"""Correctness checks run on every episode, and the outcome digest.

A check that fails raises :class:`CheckFailed`; the benchmark then reports
``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence

from repro.model.options import RideOption
from repro.service.api import Booking, PTRiderService
from repro.service.recovery import canonical_state
from repro.vehicles.schedule import check_schedule


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_ingest_conservation(service: PTRiderService, requests: int) -> None:
    """Admitted equals answered, with nothing shed, evicted, errored or pending."""
    stats = service.batcher.statistics
    _require(
        stats.admitted == stats.answered == requests,
        f"ingest conservation: {requests} requests, {stats.admitted} admitted, "
        f"{stats.answered} answered",
    )
    lost = dict(shed=stats.shed, evicted=stats.evicted, errored=stats.errored,
                cancelled=stats.cancelled, pending=service.batcher.pending)
    _require(not any(lost.values()), f"ingest conservation: lost requests {lost}")


def _dominates(a: RideOption, b: RideOption) -> bool:
    return (
        a.pickup_distance <= b.pickup_distance
        and a.price <= b.price
        and (a.pickup_distance < b.pickup_distance or a.price < b.price)
    )


def check_bookings(bookings: Sequence[Booking], requests: int) -> None:
    """Every request answered once; options form a skyline; choices are offered."""
    ids = [booking.request.request_id for booking in bookings]
    _require(len(ids) == requests, f"{requests} requests but {len(ids)} answers")
    _require(len(set(ids)) == len(ids), "a request was answered twice")
    for booking in bookings:
        options = booking.options
        for a in options:
            for b in options:
                _require(
                    not _dominates(a, b),
                    f"{booking.request.request_id}: option {a} dominates {b}",
                )
        if booking.chosen is not None:
            _require(
                booking.chosen in options,
                f"{booking.request.request_id}: committed option is not one of its options",
            )


#: the Definition 2 conditions a branch can lose while its vehicle drives
#: another branch: both depend on where the vehicle now is
_DISTANCE_CONDITIONS = ("waiting-time constraint", "service constraint")


def check_schedules(service: PTRiderService) -> int:
    """The schedule each vehicle drives is valid (Definition 2).

    The kinetic tree is re-rooted only when its vehicle reaches a stop, so
    between stops a branch the vehicle is not driving can lapse: the vehicle
    has moved away from that branch's first stop and a waiting-time or
    service condition no longer holds from where it is now.  Such a branch
    must still be structurally valid (stop order, capacity); lapsed
    branches are counted and returned rather than failed.
    """
    distance = service.fleet.routing_engine.distance
    lapsed = 0
    for vehicle in service.fleet.vehicles():
        branches = vehicle.current_schedules()
        if not branches:
            continue
        states = vehicle.request_states()

        def check(stops):
            return check_schedule(
                origin=vehicle.location,
                stops=stops,
                capacity=vehicle.capacity,
                onboard_riders=vehicle.occupancy,
                request_states=states,
                distance=distance,
                origin_offset=vehicle.offset,
            )

        driven = check(vehicle.best_schedule(distance))
        _require(bool(driven), f"vehicle {vehicle.vehicle_id}: driven schedule invalid: {driven}")
        for branch in branches:
            result = check(branch)
            if result:
                continue
            _require(
                result.reason.startswith(_DISTANCE_CONDITIONS),
                f"vehicle {vehicle.vehicle_id}: invalid branch: {result}",
            )
            lapsed += 1
    return lapsed


def check_recovery(live: PTRiderService, recovered: PTRiderService) -> None:
    """The recovered service's canonical state equals the live one."""
    _require(
        canonical_state(recovered) == canonical_state(live),
        "recovered canonical state differs from the live service",
    )


def _option_key(option: RideOption) -> str:
    return f"{option.vehicle_id}|{option.pickup_distance!r}|{option.price!r}"


def digest(bookings: Iterable[Booking]) -> str:
    """sha256 over request id, options and choice, in answer order."""
    sha = hashlib.sha256()
    for booking in bookings:
        parts: List[str] = [booking.request.request_id]
        parts.extend(_option_key(option) for option in booking.options)
        parts.append("->" + ("-" if booking.chosen is None else _option_key(booking.chosen)))
        sha.update(";".join(parts).encode())
        sha.update(b"\n")
    return sha.hexdigest()
