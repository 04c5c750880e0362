"""The benchmark's workloads: city fixtures, request streams and serving loops.

Each workload is a city (road network, grid index, fleet, service
configuration) plus a request stream.  The road network is a fixture of the
workload; the seed draws everything else: where the vehicles start, where
the hotspots are, and every request.  The program only ever sees the
generated requests, through the public ``PTRiderService`` API.

The request stream is open-loop in simulated time: ``RequestWorkload.daily``
fixes every arrival (surge and lull phases, hotspot origins) before serving
starts, so a slow flush cannot thin the load.  The serving loop replays the
stream as fast as it can, one simulated second per tick.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.core.config import SystemConfig
from repro.errors import PTRiderError
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.api import Booking, PTRiderService
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

#: simulated seconds per serving-loop tick (one pump, one advance)
TICK = 1.0
#: seed of every workload's road-network weights (the city map is fixed)
NETWORK_SEED = 11


@dataclass(frozen=True)
class Spec:
    """One named workload: the city, the demand and the serving path."""

    name: str
    #: "batched" (ingest_request + pump) or "interactive" (book/choose)
    mode: str
    rows: int  # the city is a rows x rows jittered grid
    grid: int  # GridIndex cells per side
    vehicles: int
    capacity: int
    cache: int  # routing-engine tree-LRU capacity
    speed: float
    max_pickup: float
    requests: int
    rate: float  # mean arrivals per simulated second
    hotspots: int
    hotspot_bias: float
    max_waiting: float = 8.0
    service_constraint: float = 0.6
    durable: bool = False
    snapshot_interval: int = 1000

    def scaled(self, requests: int) -> "Spec":
        """The same workload with another request count (the fast test)."""
        return replace(self, requests=requests)


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            name="rush-served",
            mode="batched",
            rows=30, grid=6, vehicles=150, capacity=4, cache=1024, speed=1.0,
            max_pickup=6.0, requests=2400, rate=20.0, hotspots=48,
            hotspot_bias=0.5,
        ),
        Spec(
            name="booking-durable",
            mode="interactive",
            rows=20, grid=5, vehicles=40, capacity=4, cache=1024, speed=6.0,
            max_pickup=6.0, requests=2000, rate=8.0, hotspots=24,
            hotspot_bias=0.5, durable=True, snapshot_interval=500,
        ),
    )
}


def city_network(spec: Spec):
    """The workload's road network (identical for every seed)."""
    return grid_network(spec.rows, spec.rows, weight_jitter=0.3, seed=NETWORK_SEED)


def request_stream(spec: Spec, seed: int) -> RequestWorkload:
    """The seed's request stream: surge/lull arrivals over hotspot origins."""
    return RequestWorkload.daily(
        city_network(spec),
        total=spec.requests,
        duration=spec.requests / spec.rate,
        max_waiting=spec.max_waiting,
        service_constraint=spec.service_constraint,
        hotspot_count=spec.hotspots,
        hotspot_bias=spec.hotspot_bias,
        seed=seed,
    )


class RecordingClock:
    """``time.perf_counter`` that keeps its readings.

    Injected as the service's flush-wall clock.  A flush reads it once when
    it starts, once per answered request and once when it ends, so the
    readings of one pump give each request's answer instant.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def __call__(self) -> float:
        now = time.perf_counter()
        self.readings.append(now)
        return now


@dataclass
class Setup:
    """A built service, its flush clock and what building it took."""

    service: PTRiderService
    clock: RecordingClock
    seconds: float
    grid_build_seconds: float


def build(spec: Spec, seed: int, journal_dir: Optional[str] = None) -> Setup:
    """Build network, grid index, engine, fleet and service (timed as set-up).

    The grid index's cell-to-cell lower-bound rows are computed lazily by the
    program; they are forced here so that their cost lands in set-up rather
    than in whichever serving window first touches each cell.
    """
    started = time.perf_counter()
    network = city_network(spec)
    grid_started = time.perf_counter()
    grid = GridIndex(network, rows=spec.grid, columns=spec.grid)
    for cell in list(grid.cells()):
        grid.cells_in_lower_bound_order(cell.cell_id)
    grid_seconds = time.perf_counter() - grid_started
    engine = make_engine(network, "csr", max_cached_sources=spec.cache)
    fleet = Fleet(grid, engine)
    rng = random.Random(seed)
    vertices = network.vertices()
    for index in range(spec.vehicles):
        fleet.add_vehicle(
            Vehicle(f"c{index + 1}", location=rng.choice(vertices), capacity=spec.capacity)
        )
    durability = {}
    if spec.durable:
        durability = dict(
            durability="journal+snapshot",
            journal_path=journal_dir,
            snapshot_interval=spec.snapshot_interval,
            snapshot_mode="incremental",
        )
    config = SystemConfig(
        vehicle_capacity=spec.capacity,
        max_waiting=spec.max_waiting,
        service_constraint=spec.service_constraint,
        speed=spec.speed,
        max_pickup_distance=spec.max_pickup,
        routing_backend="csr",
        dispatch_workers=1,
        batch_window=TICK,
        # windows close by time only: one window per tick's arrivals
        max_batch_size=65536,
        **durability,
    )
    clock = RecordingClock()
    service = PTRiderService(fleet, config=config, seed=seed, wall_clock=clock)
    return Setup(service, clock, time.perf_counter() - started, grid_seconds)


@dataclass
class Served:
    """What one pass of the serving loop produced."""

    #: wall seconds of the whole serving loop (admission, answers, advance)
    loop_seconds: float = 0.0
    #: answered bookings, in answer order
    bookings: List[Booking] = field(default_factory=list)
    #: per-request seconds from the call that answers it to its answer
    answer_seconds: List[float] = field(default_factory=list)
    #: requests the program refused or lost (shed, raised)
    failed: int = 0


#: called before each service call with a tag shared by the spans it causes
Tagger = Callable[[str], None]


def _no_tag(tag: str) -> None:
    return None


def serve_batched(service: PTRiderService, clock: RecordingClock,
                  stream: RequestWorkload, tag: Tagger = _no_tag) -> Served:
    """Admit each tick's arrivals, pump once per tick, advance one tick."""
    served = Served()
    stream.reset()
    started = time.perf_counter()
    t = 0.0
    window = 0
    while True:
        t += TICK
        window += 1
        tag(f"w{window}")
        clock.readings.clear()
        called = time.perf_counter()
        answered = service.pump(now=t)
        if answered:
            # readings: flush start, one per answer, flush end
            instants = clock.readings[1:-1]
            if len(instants) != len(answered):
                raise RuntimeError(
                    f"pump answered {len(answered)} requests but the flush clock "
                    f"read {len(instants)} answer instants"
                )
            served.answer_seconds.extend(instant - called for instant in instants)
            served.bookings.extend(answered)
        due = stream.due(t)
        for request in due:
            if not service.ingest_request(request, now=t):
                served.failed += 1
        if not due and not answered and not stream.remaining:
            break
        tag(f"t{window}")
        service.advance(TICK)
    served.loop_seconds = time.perf_counter() - started
    return served


def _cheapest(options) -> int:
    return min(
        range(len(options)),
        key=lambda i: (options[i].price, options[i].pickup_distance, options[i].vehicle_id),
    )


def serve_interactive(service: PTRiderService, stream: RequestWorkload,
                      tag: Tagger = _no_tag) -> Served:
    """The smartphone flow, one rider at a time: book, then choose or cancel."""
    served = Served()
    stream.reset()
    started = time.perf_counter()
    t = 0.0
    while True:
        t += TICK
        due = stream.due(t)
        for request in due:
            tag(request.request_id)
            called = time.perf_counter()
            try:
                booking = service.book_request(request)
                answered = time.perf_counter() - called
                if booking.options:
                    service.choose(booking.booking_id, _cheapest(booking.options))
                else:
                    service.cancel(booking.booking_id)
            except PTRiderError:
                served.failed += 1
                continue
            served.answer_seconds.append(answered)
            served.bookings.append(booking)
        if not due and not stream.remaining:
            break
        tag(f"t{int(t)}")
        service.advance(TICK)
    served.loop_seconds = time.perf_counter() - started
    return served


def serve(spec: Spec, setup: Setup, stream: RequestWorkload,
          tag: Tagger = _no_tag) -> Served:
    """Run the workload's serving loop against a freshly built service."""
    if spec.mode == "batched":
        return serve_batched(setup.service, setup.clock, stream, tag)
    return serve_interactive(setup.service, stream, tag)
