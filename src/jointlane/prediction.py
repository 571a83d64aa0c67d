"""Short-horizon traffic prediction: segment inflows, travel times, bus windows.

All quantities are built from a constant-speed projection of each vehicle
along its planned route (lane continuation where permitted, otherwise the
general-purpose left lane). Segment travel times come from the polynomial
volume-delay law t0 * (1 + alpha * (flow/capacity)^beta). Bus protection is a
symmetric time window around each bus's predicted entry into every dedicated
lane segment it has yet to traverse.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Optional

from .engine import VehicleState, World
from .network import BUS, CAV, RIGHT, NetworkModel, SegmentRef

#: speed floor for constant-speed projections (stopped vehicles crawl)
MIN_PROJECTION_SPEED = 0.1


class PredictionError(ValueError):
    pass


class BprRangeError(PredictionError):
    """The volume-delay term (flow / capacity) ** beta, or the travel time
    built from it, left the float range.

    Flows are bounded only by the scenario, so no bound on alpha or beta
    alone keeps the time finite; the time is computed as it is, and an
    overflow is an input error: alpha or beta is too large for the flows the
    run predicts.
    """


@dataclass(frozen=True)
class BprParams:
    """Volume-delay exponents: travel time grows as alpha * (f/C)^beta."""

    alpha: float = 0.15
    beta: float = 4.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise PredictionError("alpha and beta must be positive and finite")


@dataclass(frozen=True)
class ProtectionHorizon:
    """Half-width of the bus protection window, seconds."""

    horizon: float = 30.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise PredictionError("protection horizon must be > 0")


def bpr_time(t0: float, flow: float, capacity: float, params: BprParams) -> float:
    """Polynomial volume-delay travel time for one segment."""
    if t0 <= 0:
        raise PredictionError("t0 must be > 0")
    if capacity <= 0:
        raise PredictionError("capacity must be > 0")
    if flow < 0:
        raise PredictionError("flow must be >= 0")
    try:
        travel = t0 * (1.0 + params.alpha * (flow / capacity) ** params.beta)
    except OverflowError:
        raise BprRangeError(
            f"control: beta = {params.beta:g} takes (flow / capacity) ** beta past the "
            f"float range at flow / capacity = {flow / capacity:g}"
        ) from None
    # the power raises on overflow, but the products turn to inf silently
    if not math.isfinite(travel):
        raise BprRangeError(
            f"control: alpha = {params.alpha:g} and beta = {params.beta:g} take the "
            f"travel time past the float range at flow / capacity = {flow / capacity:g}"
        )
    return travel


# -- bus windows ------------------------------------------------------------------

# DL segment -> (bus vehicle id, window start, window end), absolute seconds,
# the buses in id order and each bus's windows in walk order
Windows = dict[SegmentRef, list[tuple[int, float, float]]]


def in_window(spans: list[tuple[int, float, float]], when: float) -> bool:
    """Whether one of a segment's windows holds `when`; the ends count."""
    for _, lo, hi in spans:
        if lo <= when <= hi:
            return True
    return False


def build_bus_windows(world: World, protection: ProtectionHorizon) -> Windows:
    """Windows around every active bus's predicted entry into each DL segment.

    A bus's entry `tau` seconds ahead opens the closed window
    [t + max(0, tau - h), t + (tau + h)]; the segment it holds has tau = 0.
    Each bus's continuation row is walked once, as `_project` walks it, for
    the entrances strictly ahead at the distances `(L0 - pos) + L1 + ...`.
    The unserved stops are placed on that walk once per bus: a stop on the
    current edge while it is still ahead, a stop on a later edge its offset
    past the edge's first upstream entrance. The ETA to an entrance `dist`
    ahead is `dist` at the current speed (floored) while the bus moves, and
    while it dwells the free-flow time over the spans left to it, summed
    span by span, plus the rest of the dwell; one full dwell is added for
    every stop strictly before `dist`. The stop distances are sorted once per
    bus, so that count is `bisect_left(stops, dist)`: a stop exactly at an
    entrance is not counted for it.
    """
    model = world.model
    t = world.t
    h = protection.horizon
    edges = model.edges
    dl_segments = model.dl_segments
    windows: Windows = {}
    for vid in sorted(world.buses):
        veh = world.buses[vid]
        seg = veh.segment
        edge = edges[seg.edge]
        pos = veh.offset + (0.0 if seg.m == 1 else edge.seg_length)
        rest = veh.route[veh.route_index + 1 :]
        entries: list[tuple[SegmentRef, float]] = []
        if seg.m == 1:
            entries.append((model.halves[seg.edge][seg.lane][1], edge.seg_length - pos))
        entrance: dict[int, float] = {}  # route edge -> its first upstream entrance
        ahead = edge.length - pos
        table = model.continuation(veh.vclass, seg.lane)
        for eid in rest:
            upstream, downstream, half, length = table[eid]
            entrance.setdefault(eid, ahead)
            entries.append((upstream, ahead))
            entries.append((downstream, ahead + half))
            ahead += length
        stops: list[float] = []
        for visit in veh.stop_plan[veh.next_stop :]:
            stop = model.bus_stops[visit.stop]
            if stop.edge == seg.edge:
                if stop.offset > pos:
                    stops.append(stop.offset - pos)
            elif stop.edge in entrance:
                stops.append(entrance[stop.edge] + stop.offset)
        stops.sort()
        dwelling = veh.dwell_until is not None
        if dwelling:
            residual = max(0.0, veh.dwell_until - t)
            spans = [(edge.length - pos, edge.free_flow_speed)]
            spans += [(edges[eid].length, edges[eid].free_flow_speed) for eid in rest]
        else:
            speed = max(veh.speed, MIN_PROJECTION_SPEED)
        if seg in dl_segments:
            windows.setdefault(seg, []).append((vid, t, t + h))  # tau = 0
        for ref, dist in entries:
            if ref not in dl_segments:
                continue
            if dwelling:
                travel = 0.0
                remaining = dist
                for span, free_flow_speed in spans:
                    take = min(remaining, span)
                    travel += take / free_flow_speed
                    remaining -= take
                    if remaining <= 0:
                        break
                travel += residual
            else:
                travel = dist / speed
            tau = travel + veh.dwell * bisect_left(stops, dist)  # stops before dist
            windows.setdefault(ref, []).append((vid, t + max(0.0, tau - h), t + (tau + h)))
    return windows


# -- snapshot ---------------------------------------------------------------------

# One vehicle's projection: its key (segment, offset, speed, route index), its
# route list, the entries within dt, and the entry times kept for a CAV (None
# for an HDV).
Walk = tuple[
    tuple[SegmentRef, float, float, int],
    list[int],
    list[SegmentRef],
    Optional[dict[SegmentRef, float]],
]


@dataclass
class PredictionSnapshot:
    """All predicted quantities a controller consumes at one control step.

    `vehicles` holds the live records of the vehicles present when the
    snapshot was built, in id order. They are exact for the decision made in
    the same tick: nothing moves between the build and the decision, and a
    vehicle injected in between is not in the dict.
    """

    t: float
    dt: float
    model: NetworkModel
    bpr: BprParams
    protection: ProtectionHorizon
    windows: Windows
    vehicles: dict[int, VehicleState]
    tau: dict[int, dict[SegmentRef, float]]          # CAV entries: DL, or within dt
    inflow: dict[SegmentRef, float]                   # veh/s, per segment
    predicted_time: dict[SegmentRef, float]           # seconds, segments with inflow
    overlap: dict[SegmentRef, dict[int, float]]       # seg -> CAV id (asc) -> entry time
    conflict: dict[SegmentRef, float]                 # veh/s into bus windows
    bus_time: dict[SegmentRef, float]                 # predicted bus traversal time
    walks: dict[int, Walk] = field(default_factory=dict)  # non-bus id -> projection
    # entries within dt per segment, summed over the walks; no zero is kept
    cav_counts: dict[SegmentRef, int] = field(default_factory=dict)
    hdv_counts: dict[SegmentRef, int] = field(default_factory=dict)
    # DL segment -> (CAV id, stored entry time), ascending id
    dl_index: dict[SegmentRef, list[tuple[int, float]]] = field(default_factory=dict)

    def predicted(self, seg: SegmentRef) -> float:
        """BPR travel time; the free-flow time where no inflow is predicted."""
        t = self.predicted_time.get(seg)
        return t if t is not None else self.model.t0(seg)


def _window_conflicts(
    world: World,
    windows: Windows,
    index: dict[SegmentRef, list[tuple[int, float]]],
    since: float,
    bpr: BprParams,
    protection: ProtectionHorizon,
) -> tuple[dict[SegmentRef, dict[int, float]], dict[SegmentRef, float], dict[SegmentRef, float]]:
    """Window overlaps, conflict inflow and bus time per windowed segment.

    A CAV on the same span as the segment counts at the current time, with
    entry time 0; any other CAV counts at its projected entry, measured at
    time `since`. Only the windowed segments are visited, and they are DL
    segments (`build_bus_windows` skips the rest). Where a window holds `t`,
    the same-span members are the CAVs in the span's two queues, which also
    hold a CAV injected since `since`. The others come from `index`, each DL
    segment's stored entries in id order (see `build_snapshot`): an entry
    counts while its CAV is active and not on the segment's span (an entry
    stored for the span it now holds is left to the queues). The few members
    are sorted into ascending id order. Segments without members are left out
    of the overlap table.
    """
    model = world.model
    t = world.t
    vehicles = world.vehicles
    rows = world.rows
    overlap: dict[SegmentRef, dict[int, float]] = {}
    conflict: dict[SegmentRef, float] = {}
    bus_time: dict[SegmentRef, float] = {}
    for seg, spans in windows.items():
        edge, m = seg.edge, seg.m
        found: list[tuple[int, float]] = []
        if in_window(spans, t):
            for lane in model.halves[edge]:
                for vid in rows[lane[m - 1]].queue:
                    if vehicles[vid].vclass is CAV:
                        found.append((vid, 0.0))
        for vid, entry in index.get(seg, ()):
            veh = vehicles.get(vid)
            if veh is None:  # retired since the build
                continue
            own = veh.segment
            if (own.edge != edge or own.m != m) and in_window(spans, since + entry):
                found.append((vid, entry))
        if found:
            found.sort()
            overlap[seg] = dict(found)
        q = len(found) / (2.0 * protection.horizon)
        conflict[seg] = q
        bus_time[seg] = bpr_time(model.t0(seg), q, model.capacity(seg), bpr)
    return overlap, conflict, bus_time


def refresh_conflicts(
    world: World, snapshot: PredictionSnapshot, windows: Windows
) -> PredictionSnapshot:
    """Recompute window overlaps against fresh windows and current positions.

    Inflow, travel-time and vehicle fields are kept from the last
    control-step build; this runs on the finer bus-monitoring cadence. The
    stored entries are read from the build's `dl_index`, which still holds:
    `tau` changes only at a build.
    """
    overlap, conflict, bus_time = _window_conflicts(
        world, windows, snapshot.dl_index, snapshot.t, snapshot.bpr, snapshot.protection
    )
    return replace(
        snapshot,
        windows=windows,
        overlap=overlap,
        conflict=conflict,
        bus_time=bus_time,
    )


def _project(
    model: NetworkModel, veh: VehicleState, key: tuple, is_cav: bool, dt: float
) -> Walk:
    """Walk one non-bus vehicle's projected entries (see `build_snapshot`).

    The walk reads the continuation table at the same left-to-right
    distance sums as `build_bus_windows` does for a bus. The key holds the
    vehicle's segment, offset, speed and route index. The position in the
    edge is `offset` on the upstream half, where `build_bus_windows` adds
    0.0, the same value.
    """
    seg, offset, speed, route_index = key
    if speed < MIN_PROJECTION_SPEED:  # max(speed, MIN_PROJECTION_SPEED)
        speed = MIN_PROJECTION_SPEED
    # window conflicts read DL entries; the escalation, entries within dt
    dl_walk = is_cav and seg.lane is RIGHT
    dl_segments = model.dl_segments
    soon: list[SegmentRef] = []
    kept: dict[SegmentRef, float] = {}
    route = veh.route
    edge = model.edges[seg.edge]
    if seg.m == 1:
        ref = model.halves[seg.edge][seg.lane][1]
        tau_v = (edge.seg_length - offset) / speed
        if tau_v < dt:
            soon.append(ref)
            if is_cav:
                kept[ref] = tau_v
        elif not dl_walk:
            return key, route, soon, kept if is_cav else None
        elif ref in dl_segments:
            kept[ref] = tau_v
        ahead = edge.length - offset
    else:
        ahead = edge.length - (offset + edge.seg_length)
    table = model.continuation(veh.vclass, seg.lane)
    for eid in route[route_index + 1 :]:
        upstream, downstream, half, length = table[eid]
        for ref, dist in ((upstream, ahead), (downstream, ahead + half)):
            tau_v = dist / speed
            if tau_v < dt:
                soon.append(ref)
                if is_cav:
                    kept[ref] = tau_v
            elif not dl_walk:
                return key, route, soon, kept if is_cav else None
            elif ref in dl_segments:
                kept[ref] = tau_v
        ahead += length
    return key, route, soon, kept if is_cav else None


def _take_off(counts: dict[SegmentRef, int], entries: list[SegmentRef]):
    """Take one walk's entries within dt off carried counts; a count that
    falls to zero is deleted, so every kept count is positive."""
    for ref in entries:
        n = counts[ref] - 1
        if n:
            counts[ref] = n
        else:
            del counts[ref]


def build_snapshot(
    world: World,
    windows: Windows,
    bpr: BprParams,
    protection: ProtectionHorizon,
    dt: float,
    previous: Optional[PredictionSnapshot] = None,
) -> PredictionSnapshot:
    """Assemble the full prediction state from the current world.

    Inflow and travel-time fields refresh at the control cadence; the bus
    windows passed in may come from the finer bus-monitoring cadence.

    Each walk stops exactly: its distances, and so its times at one positive
    speed, never decrease, so past the first entry `dt` or more away none
    counts toward inflow. Only a right-lane CAV walks on, keeping its DL
    entries for the window conflicts: a CAV may use both lanes of every edge,
    so it keeps its lane, and a left-lane CAV has no DL entry ahead. A route
    is a cheapest path over positive costs, so no segment recurs in a walk.

    A walk reads only the vehicle's segment, offset, speed, route index and
    route list, and `dt`. Each snapshot keeps every walk in `walks`, and a
    vehicle whose key (segment, offset, speed, route index) equals its key in
    `previous`, whose route is the same list object, under the same `dt`,
    takes its stored entries and `tau` instead of walking again. The list
    identity is exact because a reroute replaces the list and nothing edits a
    route in place.

    The entries within `dt` are counted per segment in `cav_counts` and
    `hdv_counts`. Under the same `dt` the counts are carried from `previous`:
    a re-projected vehicle's old walk is taken off and its new one added, and
    the walk of a vehicle that left is taken off. The counts are integers, so
    they equal a fresh sum, and a count that falls to zero is deleted: the
    keys are exactly the segments with an entry within `dt`. `inflow` and
    `predicted_time` are read off those keys alone, from the sum of the two
    counts, so no segment without inflow is priced; the keys are sorted,
    which is `all_segments()` order (edges ascending, then L1 L2 R1 R2).
    `dl_index` lists each DL segment's stored CAV entries in ascending id
    order, for the window conflicts here and at every refresh until the next
    build.
    """
    model = world.model
    t = world.t
    dl_segments = model.dl_segments
    if previous is not None and previous.dt == dt:
        reusable = previous.walks
        cav_counts = dict(previous.cav_counts)
        hdv_counts = dict(previous.hdv_counts)
    else:
        reusable, cav_counts, hdv_counts = {}, {}, {}
    walks: dict[int, Walk] = {}
    tau: dict[int, dict[SegmentRef, float]] = {}
    dl_index: dict[SegmentRef, list[tuple[int, float]]] = {}
    vehicles = {vid: world.vehicles[vid] for vid in sorted(world.vehicles)}
    for vid, veh in vehicles.items():
        if veh.vclass is BUS:
            continue
        is_cav = veh.vclass is CAV
        key = (veh.segment, veh.offset, veh.speed, veh.route_index)
        walk = reusable.get(vid)
        if walk is None or walk[0] != key or walk[1] is not veh.route:
            counts = cav_counts if is_cav else hdv_counts
            if walk is not None:
                _take_off(counts, walk[2])
            walk = _project(model, veh, key, is_cav, dt)
            for ref in walk[2]:
                counts[ref] = counts.get(ref, 0) + 1
        walks[vid] = walk
        if is_cav:
            kept = tau[vid] = walk[3]
            for ref, entry in kept.items():
                if ref in dl_segments:
                    dl_index.setdefault(ref, []).append((vid, entry))
    for vid in reusable.keys() - walks.keys():  # left since the previous build
        walk = reusable[vid]
        _take_off(cav_counts if walk[3] is not None else hdv_counts, walk[2])

    inflow: dict[SegmentRef, float] = {}
    predicted_time: dict[SegmentRef, float] = {}
    for seg in sorted(cav_counts.keys() | hdv_counts.keys()):  # all_segments() order
        flow = inflow[seg] = (cav_counts.get(seg, 0) + hdv_counts.get(seg, 0)) / dt
        predicted_time[seg] = bpr_time(model.t0(seg), flow, model.capacity(seg), bpr)

    overlap, conflict, bus_time = _window_conflicts(world, windows, dl_index, t, bpr, protection)
    return PredictionSnapshot(
        t=t,
        dt=dt,
        model=model,
        bpr=bpr,
        protection=protection,
        windows=windows,
        vehicles=vehicles,
        tau=tau,
        inflow=inflow,
        predicted_time=predicted_time,
        overlap=overlap,
        conflict=conflict,
        bus_time=bus_time,
        walks=walks,
        cav_counts=cav_counts,
        hdv_counts=hdv_counts,
        dl_index=dl_index,
    )
