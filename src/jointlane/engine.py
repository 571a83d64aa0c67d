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
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .network import SPEED_FLOOR  # noqa: F401  (re-exported with the plant's other names)
from .network import Edge, Lane, NetworkModel, SegmentRef, VehicleClass


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
# World._entry_segment tries only the candidate lanes it lists.
EntryChooser = Callable[["World", VehicleState, int], tuple[Lane, ...]]


def entry_group(veh: VehicleState) -> tuple:
    """(class, first edge, onward edge): the entry lanes depend on these alone."""
    route = veh.route
    return (veh.vclass, route[0], route[1] if len(route) > 1 else None)


class Backlog:
    """Vehicles created but waiting for entry space, per entry group.

    Each group's list is in creation (id) order and never empty. Vehicles
    are appended in creation order.
    """

    def __init__(self):
        self.groups: dict[tuple, list[VehicleState]] = {}

    def __len__(self) -> int:
        return sum(map(len, self.groups.values()))

    def __bool__(self) -> bool:
        return bool(self.groups)

    def append(self, veh: VehicleState):
        self.groups.setdefault(entry_group(veh), []).append(veh)

    def clear(self):
        self.groups.clear()


class World:
    """Mutable simulation state: vehicles, per-segment FIFO queues, records."""

    def __init__(self, model: NetworkModel, clock: EngineClock):
        self.model = model
        self.clock = clock
        self.t = 0.0
        self.vehicles: dict[int, VehicleState] = {}
        self.buses: dict[int, VehicleState] = {}  # active buses, placement order
        # one FIFO queue per segment, in model.all_segments() order, which is
        # sorted (edge, lane, m) order
        self.queues: dict[SegmentRef, list[int]] = {seg: [] for seg in model.all_segments()}
        # (key, queue, edge) per segment, in the same order, read by step
        self.queue_rows: list[tuple[SegmentRef, list[int], Edge]] = [
            (key, q, model.edges[key.edge]) for key, q in self.queues.items()
        ]
        # length of each queue's packed front, kept by step and _remove
        self.packed: dict[SegmentRef, int] = {}
        self.retired: list[VehicleState] = []
        self.injected: dict[VehicleClass, int] = {c: 0 for c in VehicleClass}
        self.pending = Backlog()                # created but waiting for entry space
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

    def count(self, key: SegmentRef) -> int:
        return len(self.queues[key])

    def lane_count(self, edge_id: int, lane: Lane) -> int:
        return self.count(SegmentRef(edge_id, lane, 1)) + self.count(
            SegmentRef(edge_id, lane, 2)
        )

    def segment_speed(self, key: SegmentRef) -> float:
        """Speed-density law with a floor, ffs * clamp(1 - n/Njam, floor, 1),
        at the segment's occupancy n, read from the edge's table; n past Njam
        keeps the floor speed."""
        speeds = self.model.edges[key.edge].speeds
        n = len(self.queues[key])
        return speeds[n] if n < len(speeds) else speeds[-1]

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
        """Keep queues ordered front(=downstream)-first; ties go behind.

        It inserts only ahead of a vehicle whose offset is smaller, so never
        inside the packed front, whose vehicles sit at the segment end.
        """
        q = self.queues[key]
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

    def _open_lanes(
        self, vclass: VehicleClass, edge_id: int, onward: Optional[int]
    ) -> list[Lane]:
        """The entry lanes of (class, edge, onward edge) whose first segment
        has room, in `NetworkModel.entry_lanes` order."""
        model = self.model
        jam = model.edges[edge_id].jam_count
        halves = model.halves[edge_id]
        queues = self.queues
        return [
            l for l in model.entry_lanes(vclass, edge_id, onward)
            if len(queues[halves[l][0]]) < jam
        ]

    def _entry_segment(self, veh: VehicleState, i: int) -> Optional[SegmentRef]:
        """First segment of route edge `i` with room, in lane preference order.

        The candidates are `NetworkModel.entry_lanes`. The preference only
        orders them, without side effects, so it is asked only when more than
        one of them has room: a full entry fails, and a single open lane is
        taken, at once.
        """
        edge_id = veh.route[i]
        onward = veh.route[i + 1] if i + 1 < len(veh.route) else None
        room = self._open_lanes(veh.vclass, edge_id, onward)
        if len(room) > 1:
            if veh.vclass is VehicleClass.CAV and self.cav_entry_chooser is not None:
                room = [l for l in self.cav_entry_chooser(self, veh, edge_id) if l in room]
            else:
                # fewest vehicles on the lane, ties resolved left first
                room.sort(key=lambda l: (self.lane_count(edge_id, l), int(l)))
        return SegmentRef(edge_id, room[0], 1) if room else None


# -- public operations ----------------------------------------------------------


def inject_demand(world: World, due: Iterable[VehicleState]):
    """Place pending and newly due vehicles in creation order; the rest wait
    for entry space.

    An entry fails only when every lane the vehicle may enter on is full. That
    lane set depends on its entry group (class, first edge and onward edge)
    alone, and occupancy only rises during one call, so a group that is full
    at the start of the call stays full: its waiting vehicles are not visited
    and its due ones are not tried. The open groups' vehicles are taken out of
    the backlog and merged by id, which is creation order; every due vehicle
    was created after them. Once a vehicle of a group fails, the rest of that
    group waits without another attempt, and every vehicle that waits goes
    back to its group in the order visited, so each group stays in id order.
    """
    pending = world.pending
    full: set[tuple] = set()
    waiting: list[VehicleState] = []
    if pending:
        groups = pending.groups
        opened = []
        for group in groups:
            if world._open_lanes(*group):
                opened.append(group)
            else:
                full.add(group)
        if len(opened) == 1:
            waiting = groups.pop(opened[0])
        elif opened:
            waiting = sorted(
                itertools.chain(*[groups.pop(group) for group in opened]), key=attrgetter("id")
            )
    for veh in itertools.chain(waiting, due):
        group = entry_group(veh)
        if group in full or not world.place_new(veh):
            full.add(group)
            pending.append(veh)


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

    The walk is table-driven and exact. The queues occupied at the start of
    the step are taken from `world.queue_rows`, which holds each segment's
    queue and edge in sorted (edge, lane, m) order, so they are walked in that
    order without a sort. A queue of n vehicles moves at `edge.speeds[n - 1]`
    (the mover is not its own congestion), the float the speed-density
    expression gives for n - 1, and each vehicle's reach `v_seg * dt` is
    computed once per queue: `offset + reach` is the same sum.

    A non-bus vehicle never dwells and has no stop, so it takes a fast path
    past the dwell and stop-capture tests. Each queue is walked once, from
    a copy taken when its turn comes, so a vehicle that stays in its queue is
    never met again; only one that left its queue during the step (onto the
    next segment, or across at an edge end to align) is put in `moved`, and
    it is skipped, though it may still block, if it is met in a queue walked
    later.

    Each queue's packed front costs about one vehicle per step. A packed
    vehicle is not a bus, sits at the segment end (`offset == seg_length`)
    and has speed 0; `world.packed[key]` counts vehicles at the front of
    `queues[key]` that are all packed. Inside that front every vehicle in turn
    tries to cross the boundary, and once one waits, the rest would stay where
    they are at speed 0, so the walk resumes behind the front. The count is
    recomputed when a queue's front waits and `_remove` keeps it when a
    vehicle leaves; entries land behind the front and leave it valid.
    """
    if dt is None:
        dt = world.clock.dt_sim
    vehicles = world.vehicles
    packed = world.packed
    t = world.t
    bus = VehicleClass.BUS
    moved: set[int] = set()  # vehicles that left their queue during this step
    # occupancy at the start of the step sets each queue's speed
    occupied = [(key, q, edge, len(q)) for key, q, edge in world.queue_rows if q]
    for key, q, edge, n in occupied:
        seg_len = edge.seg_length
        speeds = edge.speeds
        v_seg = speeds[n - 1] if n < len(speeds) else speeds[-1]
        reach = v_seg * dt
        block: Optional[float] = None  # offset of the nearest vehicle that stays ahead
        held = False  # the front waited at the segment end
        rest = iter(list(q))
        for vid in rest:
            if vid in moved:
                # entered this segment earlier in this step; it may still block
                block = vehicles[vid].offset
                continue
            veh = vehicles[vid]
            old_offset = veh.offset
            # plain comparisons pick the same float min() would
            target = old_offset + reach
            if block is not None and block < target:
                target = block
            if veh.vclass is bus:
                if veh.dwell_until is not None:
                    veh.speed = 0.0
                    block = old_offset
                    continue
                # bus stop capture; <= so a bus blocked exactly at the stop
                # offset (behind a dwelling leader) still serves the stop
                stop_off = _next_stop_offset(world, veh, key)
                if stop_off is not None and old_offset <= stop_off <= target:
                    veh.offset = stop_off
                    _begin_dwell(world, veh)
                    veh.speed = (veh.offset - old_offset) / dt
                    block = veh.offset
                    continue
            if target >= seg_len and block is None:
                overshoot = target - seg_len
                if seg_len < overshoot:
                    overshoot = seg_len
                if _transfer(world, veh, key, overshoot):
                    # moved on (or retired); distance includes the carried part
                    moved.add(vid)
                    veh.speed = v_seg
                    continue
                veh.offset = seg_len
                block = seg_len
                held = True
                # every vehicle ahead of it has left, so if it led the packed
                # front, the rest of that front stays where it is at speed 0
                skip = packed.get(key, 0) - 1
                if skip > 0:
                    next(itertools.islice(rest, skip, skip), None)
            else:
                if seg_len < target:
                    target = seg_len
                veh.offset = block = target
            veh.speed = (veh.offset - old_offset) / dt
        if held:
            # what is left of the old front, then those behind it that
            # stayed at the segment end through the whole step
            n = packed.get(key, 0)
            while n < len(q):
                veh = vehicles[q[n]]
                if veh.speed != 0.0 or veh.offset != seg_len or veh.vclass is bus:
                    break
                n += 1
            packed[key] = n
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
    _remove(world, key, veh.id)
    _enter_queue(world, veh, target, overshoot)
    world.log_event("transfer", veh)
    return True


def _enter_queue(world: World, veh: VehicleState, target: SegmentRef, overshoot: float):
    """Longitudinal entry: append `veh` at the tail of `target`, `overshoot`
    meters in but never past the vehicle ahead or its own next bus stop.
    The tail is behind the packed front, so its count stays valid."""
    q = world.queues[target]
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
    _remove(world, source, veh.id)
    veh.segment = target
    world._insert_by_offset(target, veh)
    veh.lane_change_log.append(world.t)
    world.lane_changes.append(
        (world.t, veh.id, source.edge, source.m, source.lane.tag, target.lane.tag, reason)
    )
    world.log_event("lane_change", veh, detail=reason)
    return True


def _remove(world: World, key: SegmentRef, vid: int):
    """Take `vid` out of its queue; the packed front loses it if it was there."""
    q = world.queues[key]
    i = q.index(vid)
    del q[i]
    if i < world.packed.get(key, 0):
        world.packed[key] -= 1


def _retire(world: World, veh: VehicleState, key: SegmentRef):
    _remove(world, key, veh.id)
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
