"""Discrete-time mesoscopic vehicle dynamics over two-lane segment queues.

The plant is deliberately simple: per-segment speed follows a linear
speed-density law with a floor, lanes are FIFO queues (no overtaking inside a
lane segment), transfers are gated by a per-segment storage limit (spillback),
lane changes are instantaneous lateral transfers, and buses hold to their
timetable at stops. Controllers act on top of this through lane-change and
reroute commands; the predictor never sees these internals, only positions,
speeds and counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .network import Lane, NetworkModel, SegmentRef, VehicleClass

#: fraction of free-flow speed retained at jam density (also avoids 1/0 in
#: downstream travel-time predictions)
SPEED_FLOOR = 0.05


class EngineError(RuntimeError):
    """Raised when an engine invariant is violated by a caller."""


@dataclass(frozen=True)
class EngineClock:
    """Step sizes: motion, control decisions, bus monitoring."""

    dt_sim: float = 1.0
    dt_control: float = 15.0
    dt_bus: float = 10.0

    def __post_init__(self):
        if self.dt_sim <= 0:
            raise EngineError("dt_sim must be > 0")
        for name, value in (("dt_control", self.dt_control), ("dt_bus", self.dt_bus)):
            ratio = value / self.dt_sim
            if value <= 0 or abs(ratio - round(ratio)) > 1e-9:
                raise EngineError(f"{name} must be a positive integer multiple of dt_sim")


@dataclass(frozen=True)
class DemandEntry:
    """One origin-destination demand stream for a vehicle class."""

    origin: int
    destination: int
    vclass: VehicleClass
    rate: Optional[float] = None       # veh/s Poisson rate
    times: Optional[tuple[float, ...]] = None  # explicit departure times
    seed: Optional[int] = None         # per-stream sub-seed (default: entry index)

    def __post_init__(self):
        if (self.rate is None) == (self.times is None):
            raise EngineError("demand entry needs exactly one of rate or times")
        if self.rate is not None and self.rate < 0:
            raise EngineError("demand rate must be >= 0")


@dataclass(frozen=True)
class StopVisit:
    stop: int
    scheduled_arrival: float


@dataclass(frozen=True)
class BusLineSpec:
    """A bus line: fixed dedicated-lane route, departures and a stop timetable."""

    id: int
    route: tuple[int, ...]             # edge ids
    departures: tuple[float, ...]
    dwell: float = 60.0
    # one StopVisit tuple per departure, stops in route order
    stop_plans: tuple[tuple[StopVisit, ...], ...] = ()

    def __post_init__(self):
        if self.dwell < 0:
            raise EngineError(f"bus line {self.id}: dwell must be >= 0")
        if self.stop_plans and len(self.stop_plans) != len(self.departures):
            raise EngineError(f"bus line {self.id}: one stop plan per departure required")
        for plan in self.stop_plans:
            times = [v.scheduled_arrival for v in plan]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise EngineError(
                    f"bus line {self.id}: scheduled arrivals must increase along a trip"
                )


@dataclass
class VehicleState:
    id: int
    vclass: VehicleClass
    route: list[int]                   # edge ids, traversed prefix preserved on reroute
    route_index: int
    offset: float                      # meters within the current segment
    speed: float
    depart_time: float
    origin: int
    destination: int
    segment: Optional[SegmentRef] = None  # set only by _enter_queue and _lateral_move
    arrival_time: Optional[float] = None
    lane_change_log: list[float] = field(default_factory=list)
    reroute_count: int = 0
    # bus-only fields
    line: Optional[int] = None
    trip: Optional[int] = None
    stop_plan: tuple[StopVisit, ...] = ()
    next_stop: int = 0
    dwell: float = 0.0
    dwell_until: Optional[float] = None

    @property
    def edge_id(self) -> int:
        return self.route[self.route_index]

    @property
    def is_dwelling(self) -> bool:
        return self.dwell_until is not None

    def pos_in_edge(self, model: NetworkModel) -> float:
        half = model.edges[self.edge_id].seg_length
        return self.offset + (0.0 if self.segment.m == 1 else half)


# A CAV's lane preference for entering an edge: it must order both lanes, as
# World._entry_lanes tries only the permitted lanes it lists.
EntryChooser = Callable[["World", VehicleState, int], tuple[Lane, ...]]


class World:
    """Mutable simulation state: vehicles, per-segment FIFO queues, records."""

    def __init__(self, model: NetworkModel, clock: EngineClock):
        self.model = model
        self.clock = clock
        self.t = 0.0
        self.vehicles: dict[int, VehicleState] = {}
        self.buses: dict[int, VehicleState] = {}  # active buses, placement order
        self.queues: dict[SegmentRef, list[int]] = {}
        self.retired: list[VehicleState] = []
        self.injected: dict[VehicleClass, int] = {c: 0 for c in VehicleClass}
        self.pending: list[VehicleState] = []   # created but waiting for entry space
        self.unserved: int = 0                  # pending dropped at injection cutoff
        self._id_counter = itertools.count()
        # (vehicle, line, trip, stop, scheduled, actual)
        self.stop_arrivals: list[tuple] = []
        # (t, vehicle, stop)
        self.stop_departures: list[tuple] = []
        # (t, vehicle, edge, m, lane_from, lane_to, reason)
        self.lane_changes: list[tuple] = []
        self.events: Optional[list[tuple]] = None  # enabled by the runner
        # strategy hooks installed by the runner
        self.cav_entry_chooser: Optional[EntryChooser] = None

    # -- bookkeeping -----------------------------------------------------------

    def new_id(self) -> int:
        return next(self._id_counter)

    def queue(self, key: SegmentRef) -> list[int]:
        return self.queues.setdefault(key, [])

    def count(self, key: SegmentRef) -> int:
        q = self.queues.get(key)
        return len(q) if q else 0

    def lane_count(self, edge_id: int, lane: Lane) -> int:
        return self.count(SegmentRef(edge_id, lane, 1)) + self.count(
            SegmentRef(edge_id, lane, 2)
        )

    def segment_speed(self, key: SegmentRef, n: Optional[int] = None) -> float:
        """Speed-density law with a floor: ffs * clamp(1 - n/Njam, floor, 1)."""
        edge = self.model.edges[key.edge]
        if n is None:
            n = self.count(key)
        frac = 1.0 - n / edge.jam_count
        frac = min(1.0, max(SPEED_FLOOR, frac))
        return edge.free_flow_speed * frac

    def travel_speed(self, key: SegmentRef, n: int) -> float:
        """Motion speed for one of n occupants: the mover itself is not its
        own congestion, so a lone vehicle runs at free flow."""
        return self.segment_speed(key, max(0, n - 1))

    def log_event(self, kind: str, veh: VehicleState, detail: str = ""):
        if self.events is not None:
            self.events.append(
                (self.t, kind, veh.id, veh.vclass.value, veh.edge_id,
                 veh.segment.lane.tag, veh.segment.m, f"{veh.offset:.6f}", detail)
            )

    def active_counts(self) -> dict[VehicleClass, int]:
        counts = {c: 0 for c in VehicleClass}
        for v in self.vehicles.values():
            counts[v.vclass] += 1
        return counts

    # -- placement -------------------------------------------------------------

    def _insert_by_offset(self, key: SegmentRef, veh: VehicleState):
        """Keep queues ordered front(=downstream)-first; ties go behind."""
        q = self.queue(key)
        idx = len(q)
        for i, vid in enumerate(q):
            if self.vehicles[vid].offset < veh.offset:
                idx = i
                break
        q.insert(idx, veh.id)

    def place_new(self, veh: VehicleState) -> bool:
        """Try to put a freshly created vehicle on its first edge."""
        target = self._entry_segment(veh, 0)
        if target is None:
            return False
        self.vehicles[veh.id] = veh
        if veh.vclass is VehicleClass.BUS:
            self.buses[veh.id] = veh
        _enter_queue(self, veh, target, 0.0)
        self.injected[veh.vclass] += 1
        veh.depart_time = self.t
        self.log_event("inject", veh)
        return True

    def _entry_segment(self, veh: VehicleState, i: int) -> Optional[SegmentRef]:
        """First segment of route edge `i` with room, in lane preference order."""
        edge_id = veh.route[i]
        jam = self.model.edges[edge_id].jam_count
        for lane in self._entry_lanes(veh, i):
            key = SegmentRef(edge_id, lane, 1)
            if self.count(key) < jam:
                return key
        return None

    def _entry_lanes(self, veh: VehicleState, i: int) -> tuple[Lane, ...]:
        """Ordered lane preference for entering route edge `i`.

        Lanes with a turn connection to the route edge after it are preferred
        so vehicles do not strand themselves.
        """
        model = self.model
        edge_id = veh.route[i]
        onward = veh.route[i + 1] if i + 1 < len(veh.route) else None
        permitted = model.permitted_lanes(veh.vclass, edge_id)
        if onward is not None:
            connecting = tuple(
                l for l in permitted if model.connects(edge_id, l, onward)
            )
            if connecting:
                permitted = connecting
        if veh.vclass is VehicleClass.CAV and self.cav_entry_chooser is not None:
            chosen = self.cav_entry_chooser(self, veh, edge_id)
            return tuple(l for l in chosen if l in permitted)
        # fewest vehicles on the lane, ties resolved left first
        return tuple(
            sorted(permitted, key=lambda l: (self.lane_count(edge_id, l), int(l)))
        )


# -- public operations ----------------------------------------------------------


def inject_demand(world: World, due: Iterable[VehicleState]):
    """Place pending and newly due vehicles in creation order; the rest wait
    for entry space.

    An entry fails only when every lane the vehicle may enter on is full. That
    lane set depends on its class, first edge and onward edge alone, and
    occupancy only rises during one call, so once a vehicle of such an entry
    group fails, the rest of the group waits without another attempt.
    """
    waiting = world.pending
    world.pending = []
    full: set[tuple] = set()
    for veh in itertools.chain(waiting, due):
        route = veh.route
        group = (veh.vclass, route[0], route[1] if len(route) > 1 else None)
        if group in full or not world.place_new(veh):
            full.add(group)
            world.pending.append(veh)


def bus_service(world: World, t: float):
    """Release bus dwells that have completed; record the departure times."""
    for veh in world.buses.values():
        if veh.dwell_until is not None and t >= veh.dwell_until:
            veh.dwell_until = None
            served = veh.stop_plan[veh.next_stop - 1].stop
            world.stop_departures.append((t, veh.id, served))


def execute_lane_change(
    world: World, vehicle_id: int, direction: int, reason: str = "utility"
) -> bool:
    """Instantaneous lateral transfer into the adjacent lane segment.

    direction +1 moves to the right lane, -1 to the left lane. Returns False
    (state unchanged) when the target segment is at its storage limit; raises
    for moves a vehicle can never make.
    """
    veh = world.vehicles.get(vehicle_id)
    if veh is None:
        raise EngineError(f"unknown or retired vehicle {vehicle_id}")
    if veh.vclass is not VehicleClass.CAV:
        raise EngineError(f"vehicle {vehicle_id}: only CAVs change lanes")
    if direction not in (-1, 1):
        raise EngineError(f"vehicle {vehicle_id}: invalid direction {direction}")
    target_lane = Lane.RIGHT if direction == 1 else Lane.LEFT
    if target_lane is veh.segment.lane:
        raise EngineError(
            f"vehicle {vehicle_id}: already on the {target_lane.tag} lane"
        )
    if target_lane not in world.model.permitted_lanes(veh.vclass, veh.edge_id):
        raise EngineError(f"vehicle {vehicle_id}: lane not permitted")
    return _lateral_move(world, veh, reason)


def step(world: World, dt: Optional[float] = None):
    """Advance every vehicle one motion step.

    Vehicles move at their segment's speed-density speed, never pass the
    vehicle ahead in the same lane segment, transfer across segment and edge
    boundaries only when the target has storage (spillback otherwise), stop at
    bus stops, and retire at the end of their last route edge.
    """
    if dt is None:
        dt = world.clock.dt_sim
    model = world.model
    t = world.t
    moved: set[int] = set()
    # motion speeds from start-of-step occupancy, excluding the mover itself
    speeds = {
        key: world.travel_speed(key, len(q))
        for key, q in world.queues.items()
        if q
    }
    for key in sorted(speeds):
        q = world.queues[key]
        seg_len = model.edges[key.edge].seg_length
        v_seg = speeds[key]
        block: Optional[float] = None  # offset of the nearest vehicle that stays ahead
        for vid in list(q):
            if vid in moved:
                # entered this segment earlier in this step; it may still block
                block = world.vehicles[vid].offset
                continue
            veh = world.vehicles[vid]
            moved.add(vid)
            old_offset = veh.offset
            if veh.dwell_until is not None:
                veh.speed = 0.0
                block = veh.offset
                continue
            target = veh.offset + v_seg * dt
            if block is not None:
                target = min(target, block)
            # bus stop capture; <= so a bus blocked exactly at the stop
            # offset (behind a dwelling leader) still serves the stop
            if veh.vclass is VehicleClass.BUS:
                stop_off = _next_stop_offset(world, veh, key)
                if stop_off is not None and veh.offset <= stop_off <= target:
                    veh.offset = stop_off
                    _begin_dwell(world, veh)
                    veh.speed = (veh.offset - old_offset) / dt
                    block = veh.offset
                    continue
            if target >= seg_len and block is None:
                overshoot = min(target - seg_len, seg_len)
                if _transfer(world, veh, key, overshoot):
                    # moved on (or retired); distance includes the carried part
                    veh.speed = v_seg
                    continue
                veh.offset = seg_len
                block = seg_len
            else:
                veh.offset = min(target, seg_len)
                block = veh.offset
            veh.speed = (veh.offset - old_offset) / dt
    world.t = t + dt


def _next_stop_offset(world: World, veh: VehicleState, key: SegmentRef) -> Optional[float]:
    """Offset (within this segment) of the bus's next stop, if it lies here."""
    if veh.vclass is not VehicleClass.BUS or veh.next_stop >= len(veh.stop_plan):
        return None
    edge, m, offset = world.model.stop_places[veh.stop_plan[veh.next_stop].stop]
    return offset if edge == key.edge and m == key.m else None


def _begin_dwell(world: World, veh: VehicleState):
    visit = veh.stop_plan[veh.next_stop]
    t = world.t
    # never depart before the scheduled arrival plus the full dwell
    veh.dwell_until = max(t + veh.dwell, visit.scheduled_arrival + veh.dwell)
    world.stop_arrivals.append(
        (veh.id, veh.line, veh.trip, visit.stop, visit.scheduled_arrival, t)
    )
    world.log_event("stop_arrival", veh, detail=f"stop={visit.stop}")
    veh.next_stop += 1


def _transfer(world: World, veh: VehicleState, key: SegmentRef, overshoot: float) -> bool:
    """Move a front vehicle across its segment boundary. False means it waits."""
    model = world.model
    edge = model.edges[key.edge]
    if key.m == 1:
        target = SegmentRef(key.edge, key.lane, 2)
        if world.count(target) >= edge.jam_count:
            return False
    else:
        # downstream edge end
        if not edge.gate_open(world.t):
            return False
        if veh.route_index + 1 >= len(veh.route):
            _retire(world, veh, key)
            return True
        nxt = veh.route[veh.route_index + 1]
        if not model.connects(key.edge, key.lane, nxt):
            # a CAV whose mid-edge lane choices left it without the turn
            # connection it needs crosses over at the edge end
            if veh.vclass is not VehicleClass.CAV or not model.connects(
                key.edge, key.lane.other, nxt
            ):
                return False
            veh.offset = edge.seg_length  # it is at the edge end
            return _lateral_move(world, veh, "align")
        target = world._entry_segment(veh, veh.route_index + 1)
        if target is None:
            return False
        veh.route_index += 1
    world.queue(key).remove(veh.id)
    _enter_queue(world, veh, target, overshoot)
    world.log_event("transfer", veh)
    return True


def _enter_queue(world: World, veh: VehicleState, target: SegmentRef, overshoot: float):
    """Longitudinal entry: append `veh` at the tail of `target`, `overshoot`
    meters in but never past the vehicle ahead or its own next bus stop."""
    q = world.queue(target)
    offset = min(overshoot, world.model.edges[target.edge].seg_length)
    if q:
        offset = min(offset, world.vehicles[q[-1]].offset)
    stop_off = _next_stop_offset(world, veh, target)
    if stop_off is not None:
        offset = min(offset, stop_off)
    veh.segment = target
    veh.offset = max(0.0, offset)
    q.append(veh.id)
    if stop_off is not None and veh.offset >= stop_off:
        _begin_dwell(world, veh)


def _lateral_move(world: World, veh: VehicleState, reason: str) -> bool:
    """Lateral entry: move `veh` into the other lane's segment at its offset.

    Returns False (state unchanged) when the vehicle already moved laterally
    this tick or the target segment is at its storage limit.
    """
    if veh.lane_change_log and veh.lane_change_log[-1] == world.t:
        return False  # one lateral move per vehicle per tick
    source = veh.segment
    target = SegmentRef(source.edge, source.lane.other, source.m)
    if world.count(target) >= world.model.edges[source.edge].jam_count:
        return False
    world.queue(source).remove(veh.id)
    veh.segment = target
    world._insert_by_offset(target, veh)
    veh.lane_change_log.append(world.t)
    world.lane_changes.append(
        (world.t, veh.id, source.edge, source.m, source.lane.tag, target.lane.tag, reason)
    )
    world.log_event("lane_change", veh, detail=reason)
    return True


def _retire(world: World, veh: VehicleState, key: SegmentRef):
    world.queue(key).remove(veh.id)
    del world.vehicles[veh.id]
    world.buses.pop(veh.id, None)
    veh.arrival_time = world.t
    world.retired.append(veh)
    world.log_event("retire", veh)


# -- demand generation ------------------------------------------------------------


def generate_arrivals(
    entries: Iterable[DemandEntry], seed: int, until: float
) -> list[tuple[float, int, DemandEntry]]:
    """Deterministic arrival times for every demand stream, sorted by time.

    Poisson streams draw exponential gaps from a per-entry PCG64 generator
    seeded by (run seed, entry seed or index); explicit time lists pass
    through. Returns (time, sequence, entry) tuples; sequence breaks ties.
    """
    import numpy as np

    out: list[tuple[float, int, DemandEntry]] = []
    counter = itertools.count()
    for idx, entry in enumerate(entries):
        if entry.times is not None:
            for ts in entry.times:
                if 0 <= ts < until:
                    out.append((float(ts), next(counter), entry))
            continue
        if entry.rate == 0:
            continue
        sub = entry.seed if entry.seed is not None else idx
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, sub))))
        t = rng.exponential(1.0 / entry.rate)
        while t < until:
            out.append((float(t), next(counter), entry))
            t += rng.exponential(1.0 / entry.rate)
    out.sort(key=lambda item: (item[0], item[1]))
    return out
