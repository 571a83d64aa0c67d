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
from typing import Optional

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


def entry_indicator(tau: Optional[float], dt: float) -> int:
    """1 when a vehicle is predicted to enter within the next control interval.

    The interval is half-open: tau == dt does not count.
    """
    if tau is None:
        return 0
    return 1 if 0 <= tau < dt else 0


# -- per-vehicle projection -------------------------------------------------------


def _continuation_lane(model: NetworkModel, veh: VehicleState, edge_id: int) -> Lane:
    lane = veh.segment.lane
    if lane in model.permitted_lanes(veh.vclass, edge_id):
        return lane
    return Lane.LEFT


def projected_entries(
    model: NetworkModel, veh: VehicleState
) -> list[tuple[SegmentRef, float]]:
    """(segment, distance-to-entrance) along the vehicle's projected path.

    Covers strictly-ahead segment entrances: the downstream half of the
    current edge (in the current lane) and both halves of every remaining
    route edge in the continuation lane. The currently occupied segment has
    no forward entrance and is not listed.
    """
    out: list[tuple[SegmentRef, float]] = []
    seg = veh.segment
    edge = model.edges[seg.edge]
    pos = veh.pos_in_edge(model)
    if seg.m == 1:
        out.append((SegmentRef(seg.edge, seg.lane, 2), edge.seg_length - pos))
    ahead = edge.length - pos
    for eid in veh.route[veh.route_index + 1 :]:
        e = model.edges[eid]
        lane = _continuation_lane(model, veh, eid)
        out.append((SegmentRef(eid, lane, 1), ahead))
        out.append((SegmentRef(eid, lane, 2), ahead + e.seg_length))
        ahead += e.length
    return out


def entry_time(model: NetworkModel, veh: VehicleState, seg: SegmentRef) -> Optional[float]:
    """Constant-speed time for the vehicle to reach the entrance of `seg`.

    None when the segment is not ahead on the projected path.
    """
    for ref, dist in projected_entries(model, veh):
        if ref == seg:
            return dist / max(veh.speed, MIN_PROJECTION_SPEED)
    return None


# -- bus windows ------------------------------------------------------------------


@dataclass
class BusWindows:
    """Absolute-time protection windows per dedicated-lane segment."""

    t: float
    # seg -> list of (bus vehicle id, window start, window end), absolute seconds
    windows: dict[SegmentRef, list[tuple[int, float, float]]] = field(default_factory=dict)

    def covering(self, seg: SegmentRef) -> list[tuple[int, float, float]]:
        return self.windows.get(seg, [])

    def contains(self, seg: SegmentRef, when: float) -> bool:
        return any(lo <= when <= hi for _, lo, hi in self.covering(seg))


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


def bus_eta(model: NetworkModel, veh: VehicleState, seg: SegmentRef, now: float) -> Optional[float]:
    """Predicted time for a bus to enter a segment on its remaining route.

    Constant current speed (floored) while moving; remaining free-flow times
    while dwelling, plus the residual dwell, plus one full dwell for every
    intermediate stop before the segment. The currently occupied segment gets
    an ETA of zero.
    """
    if veh.segment == seg:
        return 0.0
    entries = projected_entries(model, veh)
    for ref, dist in entries:
        if (ref.edge, ref.m) == (seg.edge, seg.m):
            return _eta_at(model, veh, dist, _stop_distances(model, veh, entries), now)
    return None


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
    out = BusWindows(t=world.t)
    for vid in sorted(world.vehicles):
        veh = world.vehicles[vid]
        if veh.vclass is not VehicleClass.BUS:
            continue
        entries = projected_entries(model, veh)
        stops = _stop_distances(model, veh, entries)
        for seg, dist in [(veh.segment, None), *entries]:
            if seg not in model.dl_segments:
                continue
            tau = 0.0 if dist is None else _eta_at(model, veh, dist, stops, world.t)
            lo, hi = protection_window(tau, protection.horizon)
            out.windows.setdefault(seg, []).append((vid, world.t + lo, world.t + hi))
    return out


# -- snapshot ---------------------------------------------------------------------


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
    tau: dict[int, dict[SegmentRef, float]]          # projected entry times
    inflow: dict[SegmentRef, float]                   # veh/s, per segment
    hdv_entries: dict[SegmentRef, int]                # projected HDV entries
    predicted_time: dict[SegmentRef, float]           # seconds, segments with inflow
    overlap: dict[int, set[SegmentRef]]               # CAV id -> windowed segments hit
    conflict: dict[SegmentRef, float]                 # veh/s into bus windows
    bus_time: dict[SegmentRef, float]                 # predicted bus traversal time

    def predicted(self, seg: SegmentRef) -> float:
        """BPR travel time; the free-flow time where no inflow is predicted."""
        t = self.predicted_time.get(seg)
        return t if t is not None else self.model.t0(seg)

    def overlaps(self, vid: int, seg: SegmentRef) -> bool:
        return seg in self.overlap.get(vid, ())


def bus_overlap_indicator(snapshot: PredictionSnapshot, vid: int, seg: SegmentRef) -> int:
    return 1 if snapshot.overlaps(vid, seg) else 0


def _window_conflicts(
    world: World,
    windows: BusWindows,
    tau: dict[int, dict[SegmentRef, float]],
    since: float,
    bpr: BprParams,
    protection: ProtectionHorizon,
) -> tuple[dict[int, set[SegmentRef]], dict[SegmentRef, float], dict[SegmentRef, float]]:
    """Window overlaps, conflict inflow and bus time per windowed segment.

    A CAV on the same span as the segment counts at the current time; any
    other CAV counts at its projected entry, taken from `tau` measured at
    time `since`.
    """
    model = world.model
    t = world.t
    cavs = [
        (vid, world.vehicles[vid].segment)
        for vid in sorted(world.vehicles)
        if world.vehicles[vid].vclass is VehicleClass.CAV
    ]
    overlap: dict[int, set[SegmentRef]] = {}
    conflict_counts: dict[SegmentRef, int] = {}
    for seg in sorted(windows.windows):
        spans = windows.covering(seg)
        for vid, own in cavs:
            if (own.edge, own.m) == (seg.edge, seg.m):
                when = t
            else:
                tau_v = tau.get(vid, {}).get(seg)
                if tau_v is None:
                    continue
                when = since + tau_v
            if any(lo <= when <= hi for _, lo, hi in spans):
                overlap.setdefault(vid, set()).add(seg)
                conflict_counts[seg] = conflict_counts.get(seg, 0) + 1
    conflict: dict[SegmentRef, float] = {}
    bus_time: dict[SegmentRef, float] = {}
    for seg in windows.windows:
        q = conflict_counts.get(seg, 0) / (2.0 * protection.horizon)
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


def build_snapshot(
    world: World,
    windows: BusWindows,
    bpr: BprParams,
    protection: ProtectionHorizon,
    dt: float,
) -> PredictionSnapshot:
    """Assemble the full prediction state from the current world.

    Inflow and travel-time fields refresh at the control cadence; the bus
    windows passed in may come from the finer bus-monitoring cadence.
    """
    model = world.model
    t = world.t
    tau: dict[int, dict[SegmentRef, float]] = {}
    cav_entries: dict[SegmentRef, int] = {}
    hdv_entries: dict[SegmentRef, int] = {}
    vehicles = {vid: world.vehicles[vid] for vid in sorted(world.vehicles)}
    for vid, veh in vehicles.items():
        if veh.vclass is VehicleClass.BUS:
            continue
        speed = max(veh.speed, MIN_PROJECTION_SPEED)
        times: dict[SegmentRef, float] = {}
        for ref, dist in projected_entries(model, veh):
            times[ref] = dist / speed
        tau[vid] = times
        bucket = cav_entries if veh.vclass is VehicleClass.CAV else hdv_entries
        for ref, tau_v in times.items():
            if entry_indicator(tau_v, dt):
                bucket[ref] = bucket.get(ref, 0) + 1

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
    )
