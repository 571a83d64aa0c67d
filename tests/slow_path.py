"""Plain, full-walk forms of the plant's, the predictor's and the cost views'
shortcuts.

The simulator's motion step reads speeds from per-edge tables and walks the
queues in their stored order, its injection visits only the entry groups
with room, its prediction walks stop early, its window conflicts are found
per CAV, and its edge-cost views price only the edges with traffic. Each of
these rests on an exactness argument, given in `jointlane.engine`,
`jointlane.prediction` and `jointlane.control`. This module keeps the plain
versions they replaced:

* `segment_speed`, the speed-density expression evaluated on every call;
* `step`, which evaluates it for every occupied queue and walks the queues
  in `sorted()` order;
* `inject_demand`, which walks the whole backlog, merged in creation order,
  on every call;
* `build_snapshot`, which projects every non-bus vehicle over its whole
  remaining route on every call, ignoring the previous snapshot whose walks
  the fast one reuses;
* `_window_conflicts`, and `refresh_conflicts` on top of it, which scan every
  CAV for each windowed segment;
* `build_bus_windows`, which walks every vehicle and skips the non-buses;
* `predicted_cost_view` and `instantaneous_cost_view`, which price every
  edge.

`install_shadow` patches the simulator so that each prediction and cost-view
call made by the runner computes both the fast and the plain result, asserts
that they are equal, and goes on with the fast one; it also checks the
plant's tables (`assert_plant_tables`) and invariants
(`assert_plant_invariants`) before every motion step.
`install_plain` patches every plain form in instead, so a whole run can be
compared with a fast one report by report.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from operator import attrgetter
from typing import Callable, Iterable, Optional

from jointlane import control, prediction, runner
from jointlane.engine import (
    SPEED_FLOOR,
    VehicleState,
    World,
    _begin_dwell,
    _next_stop_offset,
    _transfer,
    entry_group,
)
from jointlane.network import Lane, NetworkModel, SegmentRef, VehicleClass
from jointlane.prediction import (
    MIN_PROJECTION_SPEED,
    BprParams,
    BusWindows,
    PredictionSnapshot,
    ProtectionHorizon,
    _eta_at,
    _stop_distances,
    bpr_time,
    protection_window,
)
from prediction_oracle import entry_indicator


# -- plant ---------------------------------------------------------------------------


def segment_speed(world: World, key: SegmentRef, n: Optional[int] = None) -> float:
    """Speed-density law with a floor: ffs * clamp(1 - n/Njam, floor, 1)."""
    edge = world.model.edges[key.edge]
    if n is None:
        n = world.count(key)
    frac = 1.0 - n / edge.jam_count
    frac = min(1.0, max(SPEED_FLOOR, frac))
    return edge.free_flow_speed * frac


def inject_demand(world: World, due: Iterable[VehicleState]):
    """Place pending and newly due vehicles in creation order; the rest wait
    for entry space.

    An entry fails only when every lane the vehicle may enter on is full. That
    lane set depends on its class, first edge and onward edge alone, and
    occupancy only rises during one call, so once a vehicle of such an entry
    group fails, the rest of the group waits without another attempt.
    """
    waiting = pending_in_order(world)
    world.pending.clear()
    full: set[tuple] = set()
    for veh in itertools.chain(waiting, due):
        route = veh.route
        group = (veh.vclass, route[0], route[1] if len(route) > 1 else None)
        if group in full or not world.place_new(veh):
            full.add(group)
            world.pending.append(veh)


def pending_in_order(world: World) -> list[VehicleState]:
    """The backlog's vehicles, merged across entry groups in creation (id)
    order."""
    return sorted(itertools.chain(*world.pending.groups.values()), key=attrgetter("id"))


def step(world: World, dt: Optional[float] = None):
    """Advance every vehicle one motion step, with each occupied queue's speed
    from `segment_speed` and the queues walked in `sorted()` order."""
    if dt is None:
        dt = world.clock.dt_sim
    model = world.model
    packed = world.packed
    t = world.t
    moved: set[int] = set()
    # motion speeds from start-of-step occupancy: the mover is not its own
    # congestion, so a lone vehicle runs at free flow
    speeds = {
        key: segment_speed(world, key, len(q) - 1)
        for key, q in world.queues.items()
        if q
    }
    for key in sorted(speeds):
        q = world.queues[key]
        seg_len = model.edges[key.edge].seg_length
        v_seg = speeds[key]
        block: Optional[float] = None  # offset of the nearest vehicle that stays ahead
        held = False  # the front waited at the segment end
        rest = iter(list(q))
        for vid in rest:
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
                held = True
                # every vehicle ahead of it has left, so if it led the packed
                # front, the rest of that front stays where it is at speed 0
                skip = packed.get(key, 0) - 1
                if skip > 0:
                    next(itertools.islice(rest, skip, skip), None)
            else:
                veh.offset = min(target, seg_len)
                block = veh.offset
            veh.speed = (veh.offset - old_offset) / dt
        if held:
            # what is left of the old front, then those behind it that
            # stayed at the segment end through the whole step
            n = packed.get(key, 0)
            while n < len(q):
                veh = world.vehicles[q[n]]
                if veh.speed != 0.0 or veh.offset != seg_len or veh.vclass is VehicleClass.BUS:
                    break
                n += 1
            packed[key] = n
    world.t = t + dt


PlainTables = tuple[list[SegmentRef], dict[int, tuple[float, ...]]]


def plain_tables(world: World) -> PlainTables:
    """What the fast plant's tables must hold, from the plain forms: the
    segments in sorted order, and per edge the speed at each occupancy from
    0 to one past `jam_count` (an overfull queue keeps the floor speed)."""
    model = world.model
    speeds = {}
    for eid, edge in model.edges.items():
        key = model.halves[eid][Lane.LEFT][0]
        speeds[eid] = tuple(segment_speed(world, key, n) for n in range(edge.jam_count + 2))
    return sorted(model.all_segments()), speeds


def assert_plant_tables(world: World, expected: PlainTables):
    """The tables the fast plant reads: one queue per segment, in the model's
    segment order, which is sorted order, with rows holding each queue itself
    and its edge in the same order; a backlog whose groups are id-ordered,
    non-empty and hold only their own members; and per-edge speed tables
    equal to the plain expression for every occupancy up to `jam_count`, with
    the floor speed past it."""
    model = world.model
    order, speeds = expected
    assert list(world.queues) == list(model.all_segments()) == order
    assert [key for key, _, _ in world.queue_rows] == order
    assert all(
        q is world.queues[key] and edge is model.edges[key.edge]
        for key, q, edge in world.queue_rows
    )
    groups = world.pending.groups
    assert len(world.pending) == sum(len(members) for members in groups.values())
    for group, members in groups.items():
        ids = [veh.id for veh in members]
        assert ids and ids == sorted(set(ids))
        assert all(entry_group(veh) == group for veh in members)
    for eid, edge in model.edges.items():
        assert edge.speeds == speeds[eid][:-1]
        # an overfull queue keeps the floor speed, the table's last entry
        assert edge.speeds[-1] == speeds[eid][edge.jam_count + 1]


def assert_plant_invariants(world: World):
    """Conservation per class (injected = retired + active); each active
    vehicle in exactly the queue of its stored segment, on its route edge;
    offsets non-increasing along every queue; occupancy at most `jam_count`;
    and the first `packed[key]` vehicles of each queue packed (not a bus, at
    the segment end, speed 0)."""
    model = world.model
    for vclass in VehicleClass:
        retired = sum(1 for veh in world.retired if veh.vclass is vclass)
        active = sum(1 for veh in world.vehicles.values() if veh.vclass is vclass)
        assert world.injected[vclass] == retired + active, vclass
    where: dict[int, SegmentRef] = {}
    for key, q in world.queues.items():
        edge = model.edges[key.edge]
        assert len(q) <= edge.jam_count, key
        offsets = []
        for vid in q:
            assert vid not in where, vid
            where[vid] = key
            offsets.append(world.vehicles[vid].offset)
        assert offsets == sorted(offsets, reverse=True), key
        for vid in q[: world.packed.get(key, 0)]:
            veh = world.vehicles[vid]
            assert veh.vclass is not VehicleClass.BUS, (key, vid)
            assert veh.offset == edge.seg_length and veh.speed == 0.0, (key, vid)
    assert sorted(where) == sorted(world.vehicles)
    for vid, veh in world.vehicles.items():
        assert where[vid] == veh.segment and veh.segment.edge == veh.edge_id, vid


# -- prediction ----------------------------------------------------------------------


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


def build_bus_windows(world: World, protection: ProtectionHorizon) -> BusWindows:
    """Windows around every active bus's predicted entry into each DL segment."""
    model = world.model
    out = BusWindows()
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
    `tau` measured at time `since`. Segments without members are left out of
    the overlap table.
    """
    model = world.model
    t = world.t
    cavs = [
        (vid, veh.segment, tau.get(vid, {}))
        for vid, veh in sorted(world.vehicles.items())
        if veh.vclass is VehicleClass.CAV
    ]
    overlap: dict[SegmentRef, dict[int, float]] = {}
    conflict: dict[SegmentRef, float] = {}
    bus_time: dict[SegmentRef, float] = {}
    for seg in windows.windows:
        members: dict[int, float] = {}
        for vid, own, times in cavs:
            if (own.edge, own.m) == (seg.edge, seg.m):
                entry, when = 0.0, t
            else:
                entry = times.get(seg)
                if entry is None:
                    continue
                when = since + entry
            if windows.contains(seg, when):
                members[vid] = entry
        if members:
            overlap[seg] = members
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
    windows passed in may come from the finer bus-monitoring cadence. Every
    vehicle is walked; `previous` is ignored.
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
        times = {ref: dist / speed for ref, dist in projected_entries(model, veh)}
        is_cav = veh.vclass is VehicleClass.CAV
        bucket = cav_entries if is_cav else hdv_entries
        kept: dict[SegmentRef, float] = {}
        for ref, tau_v in times.items():
            soon = entry_indicator(tau_v, dt)
            if soon:
                bucket[ref] = bucket.get(ref, 0) + 1
            # window conflicts read DL entries; the escalation, entries within dt
            if is_cav and (soon or ref in model.dl_segments):
                kept[ref] = tau_v
        if is_cav:
            tau[vid] = kept

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


def _edge_costs(model: NetworkModel, seg_time: Callable[[SegmentRef], float]) -> dict[int, float]:
    """Per edge, the sum over both halves of the fastest CAV-permitted lane."""
    costs: dict[int, float] = {}
    for eid in model.edges:
        lanes = model.permitted_lanes(VehicleClass.CAV, eid)
        total = 0.0
        for m in (1, 2):
            total += min(seg_time(SegmentRef(eid, l, m)) for l in lanes)
        costs[eid] = total
    return costs


def predicted_cost_view(snapshot: PredictionSnapshot) -> dict[int, float]:
    """Edge costs from the same short-horizon prediction used for monitoring."""
    return _edge_costs(snapshot.model, snapshot.predicted)


def instantaneous_cost_view(world: World) -> dict[int, float]:
    """Edge costs from current segment speeds (reactive view)."""
    model = world.model
    return _edge_costs(
        model, lambda seg: model.edges[seg.edge].seg_length / world.segment_speed(seg)
    )


# -- fast against plain -------------------------------------------------------------


def assert_same_windows(fast: BusWindows, slow: BusWindows):
    assert list(fast.windows.items()) == list(slow.windows.items())


def assert_same_conflicts(fast: PredictionSnapshot, slow: PredictionSnapshot):
    """Overlap keys and members in the same order, and equal floats."""
    assert [(seg, list(m.items())) for seg, m in fast.overlap.items()] == [
        (seg, list(m.items())) for seg, m in slow.overlap.items()
    ]
    assert list(fast.conflict.items()) == list(slow.conflict.items())
    assert list(fast.bus_time.items()) == list(slow.bus_time.items())


def assert_same_snapshot(fast: PredictionSnapshot, slow: PredictionSnapshot):
    assert [(vid, list(kept.items())) for vid, kept in fast.tau.items()] == [
        (vid, list(kept.items())) for vid, kept in slow.tau.items()
    ]
    assert list(fast.inflow.items()) == list(slow.inflow.items())
    assert list(fast.hdv_entries.items()) == list(slow.hdv_entries.items())
    assert list(fast.predicted_time.items()) == list(slow.predicted_time.items())
    assert_same_conflicts(fast, slow)


def assert_same_costs(fast: dict[int, float], slow: dict[int, float]):
    assert list(fast.items()) == list(slow.items())


def reused_walks(snapshot: PredictionSnapshot, previous: Optional[PredictionSnapshot]) -> int:
    """How many of the snapshot's walks are the previous snapshot's own."""
    if previous is None:
        return 0
    return sum(1 for vid, walk in snapshot.walks.items() if previous.walks.get(vid) is walk)


def install_shadow(monkeypatch) -> dict[str, int]:
    """Run the plain form beside every fast prediction and cost-view call the
    runner makes, and check the plant's tables and invariants before every
    motion step.

    Returns the number of checked calls per function, filled in as the run
    goes, so a test can tell that the net was in place; `reused_walks` counts
    the walks the fast snapshots took from the previous one.
    """
    calls = dict.fromkeys(
        ("bus_windows", "snapshot", "refresh", "predicted_costs", "instantaneous_costs",
         "step", "reused_walks"), 0
    )
    fast_step = runner.step
    fast_windows = prediction.build_bus_windows
    fast_snapshot = prediction.build_snapshot
    fast_refresh = prediction.refresh_conflicts
    fast_predicted = control.predicted_cost_view
    fast_instantaneous = control.instantaneous_cost_view

    def windows(world, protection):
        out = fast_windows(world, protection)
        assert_same_windows(out, build_bus_windows(world, protection))
        calls["bus_windows"] += 1
        return out

    def snapshot(world, windows, bpr, protection, dt, previous=None):
        out = fast_snapshot(world, windows, bpr, protection, dt, previous=previous)
        assert_same_snapshot(out, build_snapshot(world, windows, bpr, protection, dt, previous))
        calls["snapshot"] += 1
        calls["reused_walks"] += reused_walks(out, previous)
        return out

    def refresh(world, snapshot, windows):
        out = fast_refresh(world, snapshot, windows)
        assert_same_conflicts(out, refresh_conflicts(world, snapshot, windows))
        calls["refresh"] += 1
        return out

    def predicted(snapshot):
        out = fast_predicted(snapshot)
        assert_same_costs(out, predicted_cost_view(snapshot))
        calls["predicted_costs"] += 1
        return out

    def instantaneous(world):
        out = fast_instantaneous(world)
        assert_same_costs(out, instantaneous_cost_view(world))
        calls["instantaneous_costs"] += 1
        return out

    expected: dict[int, PlainTables] = {}  # by id of the model

    def checked_step(world, dt=None):
        tables = expected.get(id(world.model))
        if tables is None:
            tables = expected[id(world.model)] = plain_tables(world)
        assert_plant_tables(world, tables)
        assert_plant_invariants(world)
        fast_step(world, dt)
        calls["step"] += 1

    monkeypatch.setattr(runner, "step", checked_step)
    monkeypatch.setattr(prediction, "build_bus_windows", windows)
    monkeypatch.setattr(prediction, "build_snapshot", snapshot)
    monkeypatch.setattr(prediction, "refresh_conflicts", refresh)
    monkeypatch.setattr(control, "predicted_cost_view", predicted)
    monkeypatch.setattr(control, "instantaneous_cost_view", instantaneous)
    return calls


def install_plain(monkeypatch):
    """Patch every plain form in place of its fast one for whole runs."""
    monkeypatch.setattr(World, "segment_speed", segment_speed)
    monkeypatch.setattr(runner, "step", step)
    monkeypatch.setattr(runner, "inject_demand", inject_demand)
    monkeypatch.setattr(prediction, "build_bus_windows", build_bus_windows)
    monkeypatch.setattr(prediction, "build_snapshot", build_snapshot)
    monkeypatch.setattr(prediction, "refresh_conflicts", refresh_conflicts)
    monkeypatch.setattr(control, "predicted_cost_view", predicted_cost_view)
    monkeypatch.setattr(control, "instantaneous_cost_view", instantaneous_cost_view)
