"""Short-horizon traffic prediction: segment inflows, travel times, bus windows.

All quantities are built from a constant-speed projection of each vehicle
along its planned route (lane continuation where permitted, otherwise the
general-purpose left lane). Segment travel times come from the polynomial
volume-delay law t0 * (1 + alpha * (flow/capacity)^beta). Bus protection is a
symmetric time window around each bus's predicted entry into every dedicated
lane segment it has yet to traverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .engine import VehicleState, World
from .network import Lane, NetworkModel, SegmentRef, VehicleClass

#: speed floor for constant-speed projections (stopped vehicles crawl)
MIN_PROJECTION_SPEED = 0.1


class PredictionError(ValueError):
    pass


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
    return t0 * (1.0 + params.alpha * (flow / capacity) ** params.beta)


def protection_window(tau: float, horizon: float) -> tuple[float, float]:
    """Closed interval around a predicted bus entry, clamped at now (0)."""
    if tau < 0:
        raise PredictionError("tau must be >= 0")
    return (max(0.0, tau - horizon), tau + horizon)


# -- per-vehicle projection -------------------------------------------------------


def _walk_entries(model: NetworkModel, veh: VehicleState) -> Iterator[tuple[SegmentRef, float]]:
    """(segment, distance-to-entrance) along the vehicle's projected path.

    Covers strictly-ahead segment entrances: the downstream half of the
    current edge (in the current lane) and both halves of every remaining
    route edge in the continuation lane (the current lane where the class may
    use it, else the left lane). The currently occupied segment has no
    forward entrance and is not listed. Distances are the left-to-right sums
    `(L0 - pos) + L1 + ...`, and they never decrease along the walk.
    """
    seg = veh.segment
    edge = model.edges[seg.edge]
    pos = veh.pos_in_edge(model)
    if seg.m == 1:
        yield model.halves[seg.edge][seg.lane][1], edge.seg_length - pos
    ahead = edge.length - pos
    for eid in veh.route[veh.route_index + 1 :]:
        e = model.edges[eid]
        lane = seg.lane if seg.lane in model.permitted_lanes(veh.vclass, eid) else Lane.LEFT
        upstream, downstream = model.halves[eid][lane]
        yield upstream, ahead
        yield downstream, ahead + e.seg_length
        ahead += e.length


# -- bus windows ------------------------------------------------------------------


@dataclass
class BusWindows:
    """Absolute-time protection windows per dedicated-lane segment."""

    # seg -> list of (bus vehicle id, window start, window end), absolute seconds
    windows: dict[SegmentRef, list[tuple[int, float, float]]] = field(default_factory=dict)

    def covering(self, seg: SegmentRef) -> list[tuple[int, float, float]]:
        return self.windows.get(seg, [])

    def contains(self, seg: SegmentRef, when: float) -> bool:
        for _, lo, hi in self.covering(seg):
            if lo <= when <= hi:
                return True
        return False


def _stop_distances(
    model: NetworkModel, veh: VehicleState, entries: list[tuple[SegmentRef, float]]
) -> list[float]:
    """Distance ahead of every unserved stop on the remaining route.

    A stop on the current edge counts only while it is still ahead; a stop on
    a later edge sits its offset past that edge's first projected entrance.
    """
    pos = veh.pos_in_edge(model)
    entrance: dict[int, float] = {}
    for ref, dist in entries:
        if ref.m == 1:
            entrance.setdefault(ref.edge, dist)
    out = []
    for visit in veh.stop_plan[veh.next_stop :]:
        stop = model.bus_stops[visit.stop]
        if stop.edge == veh.edge_id:
            if stop.offset > pos:
                out.append(stop.offset - pos)
        elif stop.edge in entrance:
            out.append(entrance[stop.edge] + stop.offset)
    return out


def _eta_at(
    model: NetworkModel, veh: VehicleState, dist: float, stops: list[float], now: float
) -> float:
    """Bus ETA to a point `dist` ahead, given the distances of unserved stops."""
    if veh.is_dwelling:
        # remaining distance at per-edge free-flow speeds
        travel = _free_flow_time(model, veh, dist)
        residual = max(0.0, veh.dwell_until - now)
    else:
        travel = dist / max(veh.speed, MIN_PROJECTION_SPEED)
        residual = 0.0
    dwells = veh.dwell * sum(1 for ahead in stops if ahead < dist)
    return travel + residual + dwells


def _free_flow_time(model: NetworkModel, veh: VehicleState, dist: float) -> float:
    pos = veh.pos_in_edge(model)
    total = 0.0
    remaining = dist
    span = model.edges[veh.edge_id].length - pos
    for eid in [veh.edge_id] + list(veh.route[veh.route_index + 1 :]):
        e = model.edges[eid]
        if eid != veh.edge_id:
            span = e.length
        take = min(remaining, span)
        total += take / e.free_flow_speed
        remaining -= take
        if remaining <= 0:
            break
    return total


def build_bus_windows(world: World, protection: ProtectionHorizon) -> BusWindows:
    """Windows around every active bus's predicted entry into each DL segment."""
    model = world.model
    out = BusWindows()
    for vid in sorted(world.buses):
        veh = world.buses[vid]
        entries = list(_walk_entries(model, veh))
        stops = _stop_distances(model, veh, entries)
        for seg, dist in [(veh.segment, None), *entries]:
            if seg not in model.dl_segments:
                continue
            tau = 0.0 if dist is None else _eta_at(model, veh, dist, stops, world.t)
            lo, hi = protection_window(tau, protection.horizon)
            out.windows.setdefault(seg, []).append((vid, world.t + lo, world.t + hi))
    return out


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
    windows: BusWindows
    vehicles: dict[int, VehicleState]
    tau: dict[int, dict[SegmentRef, float]]          # CAV entries: DL, or within dt
    inflow: dict[SegmentRef, float]                   # veh/s, per segment
    hdv_entries: dict[SegmentRef, int]                # projected HDV entries
    predicted_time: dict[SegmentRef, float]           # seconds, segments with inflow
    overlap: dict[SegmentRef, dict[int, float]]       # seg -> CAV id (asc) -> entry time
    conflict: dict[SegmentRef, float]                 # veh/s into bus windows
    bus_time: dict[SegmentRef, float]                 # predicted bus traversal time
    walks: dict[int, Walk] = field(default_factory=dict)  # non-bus id -> projection

    def predicted(self, seg: SegmentRef) -> float:
        """BPR travel time; the free-flow time where no inflow is predicted."""
        t = self.predicted_time.get(seg)
        return t if t is not None else self.model.t0(seg)


def _window_conflicts(
    world: World,
    windows: BusWindows,
    tau: dict[int, dict[SegmentRef, float]],
    since: float,
    bpr: BprParams,
    protection: ProtectionHorizon,
) -> tuple[dict[SegmentRef, dict[int, float]], dict[SegmentRef, float], dict[SegmentRef, float]]:
    """Window overlaps, conflict inflow and bus time per windowed segment.

    A CAV on the same span as the segment counts at the current time, with
    entry time 0; any other CAV counts at its projected entry, taken from
    `tau` measured at time `since`. Each CAV, in id order, tests its own
    span's segments and its stored entries elsewhere, so members stay in
    ascending id order; an entry stored for its own span (it moved on since)
    is left to the same-span test. That test reads only the segment and `t`,
    so each window is tested at `t` once per call, and a CAV takes the
    segments of its span whose window holds `t`. Segments without members
    are left out of the overlap table.
    """
    model = world.model
    t = world.t
    found: dict[SegmentRef, dict[int, float]] = {seg: {} for seg in windows.windows}
    live: dict[tuple[int, int], list[SegmentRef]] = {}  # span -> windows holding t
    for seg in found:
        if windows.contains(seg, t):
            live.setdefault((seg.edge, seg.m), []).append(seg)
    for vid in sorted(world.vehicles):
        veh = world.vehicles[vid]
        if veh.vclass is not VehicleClass.CAV:
            continue
        span = (veh.segment.edge, veh.segment.m)
        for seg in live.get(span, ()):
            found[seg][vid] = 0.0
        for seg, entry in tau.get(vid, {}).items():
            if seg in found and (seg.edge, seg.m) != span and windows.contains(seg, since + entry):
                found[seg][vid] = entry
    overlap = {seg: members for seg, members in found.items() if members}
    conflict: dict[SegmentRef, float] = {}
    bus_time: dict[SegmentRef, float] = {}
    for seg, members in found.items():
        q = len(members) / (2.0 * protection.horizon)
        conflict[seg] = q
        bus_time[seg] = bpr_time(model.t0(seg), q, model.capacity(seg), bpr)
    return overlap, conflict, bus_time


def refresh_conflicts(
    world: World, snapshot: PredictionSnapshot, windows: BusWindows
) -> PredictionSnapshot:
    """Recompute window overlaps against fresh windows and current positions.

    Inflow, travel-time and vehicle fields are kept from the last
    control-step build; this runs on the finer bus-monitoring cadence.
    """
    overlap, conflict, bus_time = _window_conflicts(
        world, windows, snapshot.tau, snapshot.t, snapshot.bpr, snapshot.protection
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
    """Walk one non-bus vehicle's projected entries (see `build_snapshot`)."""
    speed = max(veh.speed, MIN_PROJECTION_SPEED)
    # window conflicts read DL entries; the escalation, entries within dt
    dl_walk = is_cav and veh.segment.lane is Lane.RIGHT
    soon: list[SegmentRef] = []
    kept: dict[SegmentRef, float] = {}
    for ref, dist in _walk_entries(model, veh):
        tau_v = dist / speed
        if tau_v < dt:
            soon.append(ref)
            if is_cav:
                kept[ref] = tau_v
        elif not dl_walk:
            break
        elif ref in model.dl_segments:
            kept[ref] = tau_v
    return key, veh.route, soon, kept if is_cav else None


def build_snapshot(
    world: World,
    windows: BusWindows,
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
    route in place. Stored entries are counted in walk order, as a walk
    would count them.
    """
    model = world.model
    t = world.t
    reusable = previous.walks if previous is not None and previous.dt == dt else {}
    walks: dict[int, Walk] = {}
    tau: dict[int, dict[SegmentRef, float]] = {}
    cav_entries: dict[SegmentRef, int] = {}
    hdv_entries: dict[SegmentRef, int] = {}
    vehicles = {vid: world.vehicles[vid] for vid in sorted(world.vehicles)}
    for vid, veh in vehicles.items():
        if veh.vclass is VehicleClass.BUS:
            continue
        is_cav = veh.vclass is VehicleClass.CAV
        key = (veh.segment, veh.offset, veh.speed, veh.route_index)
        walk = reusable.get(vid)
        if walk is None or walk[0] != key or walk[1] is not veh.route:
            walk = _project(model, veh, key, is_cav, dt)
        walks[vid] = walk
        bucket = cav_entries if is_cav else hdv_entries
        for ref in walk[2]:
            bucket[ref] = bucket.get(ref, 0) + 1
        if is_cav:
            tau[vid] = walk[3]

    inflow: dict[SegmentRef, float] = {}
    predicted_time: dict[SegmentRef, float] = {}
    for seg in model.all_segments():
        if seg in model.dl_segments:
            flow = cav_entries.get(seg, 0) / dt
        else:
            flow = (cav_entries.get(seg, 0) + hdv_entries.get(seg, 0)) / dt
        if flow:
            inflow[seg] = flow
            predicted_time[seg] = bpr_time(model.t0(seg), flow, model.capacity(seg), bpr)

    overlap, conflict, bus_time = _window_conflicts(world, windows, tau, t, bpr, protection)
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
        hdv_entries=hdv_entries,
        predicted_time=predicted_time,
        overlap=overlap,
        conflict=conflict,
        bus_time=bus_time,
        walks=walks,
    )
