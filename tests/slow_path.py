"""Plain, full-walk forms of the plant's, the predictor's, the cost views',
the lane hops', the utility selection's, the reactive reroutes', the KPI
sampler's and the two rendered logs' shortcuts.

The simulator's motion step reads each queue's segment row (speed table,
lengths, neighbouring queues and packed-count slot), walks the queues in
their stored order, holds a front whose crossing found full queues without
trying it again until one of them loses a vehicle and skips a fully packed
queue behind such a front, its injection visits only the entry groups with
room, its prediction walks read the continuation table, stop early and
carry their entry counts, zeros dropped, from one build to the next, its
inflow is read off the counted segments alone, its window conflicts read
the span's queues and a per-segment index of the stored entries, its
edge-cost views price only the edges with traffic, the reactive one from
the rows' travel-time tables, its myopic lane hops read the rows' speed
tables, its utility selection scores each segment's candidates in one scan
and builds an action for the winner alone, its reactive reroutes search
once per (current edge, destination), its KPI sampler reads only the
vehicles retired since the last sample, and its prediction, decision,
lane-change and event logs are rendered as CSV text (the prediction log
from the snapshots' kept tables, free text through `metrics.TextCells`).
Each of these rests on an exactness argument, given in `jointlane.engine`,
`jointlane.prediction`, `jointlane.control`, `jointlane.metrics` and
`jointlane.runner`. This module keeps the plain versions they replaced:

* `segment_speed`, the speed-density expression evaluated on every call;
* `step`, which evaluates it for every occupied queue, reads each queue's
  edge, walks the queues in `sorted()` order, fully packed ones included,
  finds a packed count by the segment's position in `all_segments()`, and
  sends every crossing to `_transfer`, so it stays the reference that
  `install_plain` runs whole runs with, for the kept wait verdicts and the
  asleep queues;
* `inject_demand`, which walks the whole backlog, merged in creation order,
  on every call;
* `build_snapshot`, which projects every non-bus vehicle over its whole
  remaining route, asking `permitted_lanes` for the lane on each route edge
  (`projected_entries`), and sums the entries afresh on every call, ignoring
  the previous snapshot whose walks and entry counts the fast one carries
  forward, and reads inflow off every segment in `all_segments()` order;
  its `hdv_counts`, which the plain prediction log reads, hold no zero;
* `_window_conflicts`, and `refresh_conflicts` on top of it, which scan every
  CAV, in id order, for each windowed segment, testing the CAV's own segment
  and its entries in `tau`, where the fast one takes the same-span members
  from the span's two queues and the others from the build's DL index;
* `build_bus_windows`, which walks every vehicle, skips the non-buses and
  answers each (bus, DL segment) ETA with the per-query helpers below, where
  the fast one walks each bus's continuation row once;
* `predicted_cost_view` and `instantaneous_cost_view`, which price every
  edge, the latter with `segment_speed`;
* `myopic_lane_actions`, which compares the two lanes' `segment_speed`;
* `select_lane_changes`, which builds every candidate's action
  (`build_candidates`), scores each in full with `utility`, `u1` included,
  stores the score on it with `replace` and picks the winner among all of
  them with `pick_winner`;
* `reactive_reroutes`, which searches a new route for every CAV, where the
  fast one searches once per (current edge, destination);
* `sample_kpis`, which scans all of `world.retired` for the bus total and
  each class mean at every sample;
* `dump_predictions` and `prediction_row`, which copy every segment's row out
  of the snapshot at each control step, where the runner keeps the
  snapshot's own tables until write time, and `write_prediction_log`, which
  writes those rows through `csv.writer`;
* `write_decision_log`, which writes the decision rows through `csv.writer`
  rather than as rendered text, and `write_world_logs`, which writes the
  World's lane changes and events through it.

`install_shadow` patches the simulator so that each prediction, cost-view,
myopic lane hop, utility selection, reactive reroute and KPI sample call
made by the runner computes both the fast and the plain result, asserts
that they are equal, and goes on with the fast one. At every build it also
recomputes the entry counts and the DL index that the fast snapshot carries
from its own walks and `tau` (`assert_carried_state`), so a count that
drifts, or a zero left behind, fails before it shows in `inflow`. Before
every motion step it checks the plant's tables (`assert_plant_tables`; the
immutable segment and continuation rows in full on a world's first step,
`assert_segment_rows`) and invariants (`assert_plant_invariants`, with the
motion step's walk list, wait verdicts and asleep queues), and every
crossing the step tries either moves the vehicle or returns the plain
`wait_slots` with nothing changed (`install_transfer_check`).
`install_plain` patches every plain form in instead, so a whole run can be
compared with a fast one report by report, the rendered logs included,
byte for byte against `csv.writer`'s output.

It also keeps the paper's per-query definitions, answered one (vehicle,
segment) query at a time from the same projection as the simulator's
one-pass builds: the entry indicator over one control interval
(`entry_indicator`), a vehicle's constant-speed entry time into a segment
(`entry_time`), a bus's predicted entry with its dwells (`bus_eta`), and the
bus overlap indicator of a CAV on a protected segment
(`bus_overlap_indicator`). `bus_eta` and the plain `build_bus_windows` rest
on the per-query ETA helpers: `pos_in_edge` (the position in the edge),
`is_dwelling`, `_stop_distances` (the unserved stops ahead, placed on the
projected entries), `_eta_at` (one entrance's ETA: travel, residual dwell
and one dwell per stop strictly before it), `_free_flow_time` (a dwelling
bus's travel, re-summed edge by edge from the bus for each query) and
`protection_window` (the closed window around tau, clamped at now).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from operator import attrgetter
from typing import Callable, Iterable, Optional

from jointlane import control, engine, metrics, prediction, routing, runner
from jointlane.control import ControlParams, LaneAction, RouteAssignment
from jointlane.engine import (
    SPEED_FLOOR,
    VehicleState,
    World,
    _begin_dwell,
    _next_stop_offset,
    _transfer,
    entry_group,
)
from jointlane.network import OTHER, TAG, Lane, NetworkError, NetworkModel, SegmentRef, VehicleClass
from jointlane.prediction import (
    MIN_PROJECTION_SPEED,
    BprParams,
    PredictionError,
    PredictionSnapshot,
    ProtectionHorizon,
    Windows,
    bpr_time,
)


# -- plant ---------------------------------------------------------------------------


def segment_speed(world: World, key: SegmentRef, n: Optional[int] = None) -> float:
    """Speed-density law with a floor: ffs * clamp(1 - n/Njam, floor, 1)."""
    edge = world.model.edges[key.edge]
    if n is None:
        n = len(world.rows[key].queue)
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
    from `segment_speed`, the queues walked in `sorted()` order and every
    crossing tried through `_transfer`."""
    if dt is None:
        dt = world.clock.dt_sim
    model = world.model
    packed = world.packed
    slots = {key: slot for slot, key in enumerate(model.all_segments())}
    t = world.t
    moved: set[int] = set()
    # motion speeds from start-of-step occupancy: the mover is not its own
    # congestion, so a lone vehicle runs at free flow
    speeds = {
        key: segment_speed(world, key, len(row.queue) - 1)
        for key, row in world.rows.items()
        if row.queue
    }
    for key in sorted(speeds):
        q = world.rows[key].queue
        slot = slots[key]
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
                if _transfer(world, veh, key, overshoot) is True:
                    # moved on (or retired); distance includes the carried part
                    veh.speed = v_seg
                    continue
                veh.offset = seg_len
                block = seg_len
                held = True
                # every vehicle ahead of it has left, so if it led the packed
                # front, the rest of that front stays where it is at speed 0
                skip = packed[slot] - 1
                if skip > 0:
                    next(itertools.islice(rest, skip, skip), None)
            else:
                veh.offset = min(target, seg_len)
                block = veh.offset
            veh.speed = (veh.offset - old_offset) / dt
        if held:
            # what is left of the old front, then those behind it that
            # stayed at the segment end through the whole step
            n = packed[slot]
            while n < len(q):
                veh = world.vehicles[q[n]]
                if veh.speed != 0.0 or veh.offset != seg_len or veh.vclass is VehicleClass.BUS:
                    break
                n += 1
            packed[slot] = n
    world.t = t + dt


PlainTables = tuple[
    list[SegmentRef],
    dict[int, tuple[float, ...]],
    dict[int, tuple[float, ...]],
    dict[tuple[VehicleClass, Lane], dict[int, tuple[SegmentRef, SegmentRef, float, float]]],
]


def plain_tables(world: World) -> PlainTables:
    """What the fast tables must hold, from the plain forms: the segments in
    sorted order; per edge the speed at each occupancy from 0 to `jam_count`
    and the travel time `seg_length / speed` at each; and per (class, lane) the
    continuation row of every edge the class may use, from `permitted_lanes`
    and `halves`."""
    model = world.model
    speeds = {}
    times = {}
    for eid, edge in model.edges.items():
        key = model.halves[eid][Lane.LEFT][0]
        speeds[eid] = tuple(segment_speed(world, key, n) for n in range(edge.jam_count + 1))
        times[eid] = tuple(edge.seg_length / v for v in speeds[eid])
    continuations = {}
    for vclass in VehicleClass:
        for lane in Lane:
            rows = continuations[vclass, lane] = {}
            for eid, edge in model.edges.items():
                try:
                    permitted = model.permitted_lanes(vclass, eid)
                except NetworkError:  # a bus on an edge without a dedicated lane
                    continue
                upstream, downstream = model.halves[eid][lane if lane in permitted else Lane.LEFT]
                rows[eid] = (upstream, downstream, edge.seg_length, edge.length)
    return sorted(model.all_segments()), speeds, times, continuations


def assert_segment_rows(world: World, expected: PlainTables):
    """The world's segment rows and the model's continuation rows.

    One row per segment, in the model's segment order, keyed by its segment
    and holding a queue of its own, the edge itself, its `seg_length` and
    `jam_count`, the plain speed of every occupancy up to `jam_count`, the
    travel times `seg_length / speed` at those occupancies, the other lane's
    queue at the same half, the (edge, lane, 2) queue and its position for an
    m=1 segment (None, the edge end, for an m=2 one) and its own position,
    with one packed count per row, and `by_slot` holding the rows in that
    order; and every continuation row equal to the plain one.
    """
    model = world.model
    order, speeds, times, continuations = expected
    by_key = world.rows
    assert list(by_key) == order and len(world.packed) == len(order)
    assert world.by_slot == tuple(by_key.values())
    assert len({id(row.queue) for row in by_key.values()}) == len(order)
    for slot, (key, row) in enumerate(by_key.items()):
        edge = model.edges[key.edge]
        assert row.key == key and row.slot == slot and row.edge is edge
        assert (row.seg_length, row.jam_count) == (edge.seg_length, edge.jam_count)
        assert row.speeds == speeds[key.edge] and row.times == times[key.edge]
        assert row.other is by_key[SegmentRef(key.edge, OTHER[key.lane], key.m)].queue
        if key.m == 1:
            down = SegmentRef(key.edge, key.lane, 2)
            assert row.down is by_key[down].queue and row.down_slot == order.index(down)
        else:
            assert row.down is None and row.down_slot is None
    for (vclass, lane), rows in continuations.items():
        assert model.continuation(vclass, lane) == rows


def assert_plant_tables(world: World, expected: PlainTables, rows: bool = True):
    """The tables the fast plant reads: one segment row per segment, in the
    model's segment order, which is sorted order; the segment rows in full
    (`assert_segment_rows`, skipped with `rows=False`, when they were
    checked before: a row never changes, and `by_slot` still holds the same
    rows); each filled entry-room row holding the entry edge's `jam_count`
    and the first-half queues of `NetworkModel.entry_lanes` with their
    positions in the segment order; a backlog whose groups are id-ordered,
    non-empty and hold only their own members; and per-edge speed tables
    equal to the plain expression for every occupancy up to `jam_count`."""
    model = world.model
    order, speeds, _, _ = expected
    assert list(world.rows) == list(model.all_segments()) == order
    position = {key: slot for slot, key in enumerate(order)}
    if rows:
        assert_segment_rows(world, expected)
    else:
        assert all(a is b for a, b in zip(world.by_slot, world.rows.values()))
    for group, (jam, queues, slots) in world.entry_rooms.items():
        vclass, edge_id, onward = group
        assert jam == model.edges[edge_id].jam_count
        firsts = [SegmentRef(edge_id, l, 1) for l in model.entry_lanes(vclass, edge_id, onward)]
        assert len(queues) == len(firsts)
        assert all(q is world.rows[first].queue for q, first in zip(queues, firsts))
        assert slots == tuple(position[first] for first in firsts)
    groups = world.pending.groups
    assert len(world.pending) == sum(len(members) for members in groups.values())
    for group, members in groups.items():
        ids = [veh.id for veh in members]
        assert ids and ids == sorted(set(ids))
        assert all(entry_group(veh) == group for veh in members)
    for eid, edge in model.edges.items():
        assert edge.speeds == speeds[eid]


def assert_plant_invariants(world: World):
    """Conservation per class (injected = retired + active); each active
    vehicle in exactly the queue of its stored segment, on its route edge;
    offsets non-increasing along every queue; occupancy at most `jam_count`;
    and the first `packed[slot]` vehicles of each queue packed (not a bus, at
    the segment end, speed 0), `slot` being the queue's position in the
    segment order. Each vehicle's segment is the very ref `model.halves`
    holds for it. The motion step's tables hold too
    (`assert_walk_tables`)."""
    model = world.model
    for vclass in VehicleClass:
        retired = sum(1 for veh in world.retired if veh.vclass is vclass)
        active = sum(1 for veh in world.vehicles.values() if veh.vclass is vclass)
        assert world.injected[vclass] == retired + active, vclass
    where: dict[int, SegmentRef] = {}
    for slot, (key, row) in enumerate(world.rows.items()):
        q = row.queue
        edge = model.edges[key.edge]
        assert len(q) <= edge.jam_count, key
        offsets = []
        for vid in q:
            assert vid not in where, vid
            where[vid] = key
            offsets.append(world.vehicles[vid].offset)
        assert offsets == sorted(offsets, reverse=True), key
        for vid in q[: world.packed[slot]]:
            veh = world.vehicles[vid]
            assert veh.vclass is not VehicleClass.BUS, (key, vid)
            assert veh.offset == edge.seg_length and veh.speed == 0.0, (key, vid)
    assert sorted(where) == sorted(world.vehicles)
    for vid, veh in world.vehicles.items():
        seg = veh.segment
        assert where[vid] == seg and seg.edge == veh.edge_id, vid
        # the plant stores the model's own refs, not equal copies
        assert seg is model.halves[seg.edge][seg.lane][seg.m - 1], vid
    assert_walk_tables(world)


def wait_slots(world: World, key: SegmentRef) -> Optional[tuple[int, ...]]:
    """Whether the front of the queue at `key` must wait, from the model: the
    positions in the segment order of the full queues that hold it, the
    (edge, lane, 2) half for an m=1 segment and the first half of each of
    the front's entry lanes on its next edge for an ungated edge end whose
    lane turns into that edge; None when it need not wait."""
    model = world.model
    order = model.all_segments()
    edge = model.edges[key.edge]
    if key.m == 1:
        down = SegmentRef(key.edge, key.lane, 2)
        return (order.index(down),) if len(world.rows[down].queue) >= edge.jam_count else None
    veh = world.vehicles[world.rows[key].queue[0]]
    ahead = veh.route[veh.route_index + 1:]
    if edge.gate is not None or not ahead or not model.connects(key.edge, key.lane, ahead[0]):
        return None
    onward = ahead[1] if len(ahead) > 1 else None
    firsts = [SegmentRef(ahead[0], l, 1) for l in model.entry_lanes(veh.vclass, ahead[0], onward)]
    if any(len(world.rows[first].queue) < model.edges[ahead[0]].jam_count for first in firsts):
        return None
    return tuple(order.index(first) for first in firsts)


def assert_walk_tables(world: World):
    """Between steps: the walk list holds the ascending positions of the
    non-empty queues that are not asleep; every asleep queue is fully packed
    and holds a wait verdict; every verdict is what the plain `wait_slots`
    gives for the queue's front now; and the waiter lists are the inverse of
    the verdicts."""
    assert world.walking is None
    rows = list(world.rows.values())
    asleep = world.asleep
    assert world.walk == [row.slot for row in rows if row.queue and row.slot not in asleep]
    for slot in asleep:
        row = rows[slot]
        assert row.queue and world.packed[slot] == len(row.queue), row.key
        assert slot in world.verdicts, row.key
    waiters: dict[int, list[int]] = {}
    for slot, waits_on in world.verdicts.items():
        row = rows[slot]
        assert row.queue, row.key
        assert waits_on == wait_slots(world, row.key), row.key
        for dep in waits_on:
            waiters.setdefault(dep, []).append(slot)
    assert {dep: sorted(slots) for dep, slots in world.waiters.items()} == {
        dep: sorted(slots) for dep, slots in waiters.items()
    }


def _crossing_state(world: World) -> tuple:
    """What a crossing may change: the queues, each vehicle's place, route
    index and lateral moves, the retired vehicles, the logs and the motion
    step's tables."""
    return (
        [list(row.queue) for row in world.rows.values()],
        [(v.segment, v.offset, v.speed, v.route_index, len(v.lane_change_log))
         for v in world.vehicles.values()],
        len(world.retired), len(world.lane_changes), len(world.stop_arrivals),
        None if world.events is None else len(world.events),
        list(world.walk), dict(world.verdicts), list(world.packed), set(world.asleep),
    )


def install_transfer_check(monkeypatch) -> dict:
    """Wrap `engine._transfer`, which the motion step calls for every front
    without a wait verdict, so that each call either moves the vehicle on
    (True) or returns `wait_slots` for its front, a tuple or None, having
    changed nothing but the edge-end offset a failed align writes, which the
    step writes anyway. Returns the calls' results counted by kind: True,
    tuple or None."""
    counts = {True: 0, tuple: 0, None: 0}
    transfer = engine._transfer

    def checked(world, veh, key, overshoot):
        assert world.rows[key].queue[0] == veh.id, key
        expected = wait_slots(world, key)
        before = _crossing_state(world)
        offset = veh.offset
        out = transfer(world, veh, key, overshoot)
        if out is True:
            assert expected is None, key
            counts[True] += 1
            return out
        assert out == expected, key
        counts[None if out is None else tuple] += 1
        end = world.model.edges[key.edge].seg_length
        assert veh.offset in (offset, end), key
        veh.offset, after = offset, veh.offset
        assert _crossing_state(world) == before, key
        veh.offset = after
        return out

    monkeypatch.setattr(engine, "_transfer", checked)
    return counts


# -- prediction ----------------------------------------------------------------------


def entry_indicator(tau: Optional[float], dt: float) -> int:
    """1 when a vehicle is predicted to enter within the next control interval.

    The interval is half-open: tau == dt does not count.
    """
    if tau is None:
        return 0
    return 1 if 0 <= tau < dt else 0


def entry_time(model: NetworkModel, veh: VehicleState, seg: SegmentRef) -> Optional[float]:
    """Constant-speed time for the vehicle to reach the entrance of `seg`.

    None when the segment is not ahead on the projected path.
    """
    for ref, dist in projected_entries(model, veh):
        if ref == seg:
            return dist / max(veh.speed, MIN_PROJECTION_SPEED)
    return None


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


def is_dwelling(veh: VehicleState) -> bool:
    return veh.dwell_until is not None


def pos_in_edge(model: NetworkModel, veh: VehicleState) -> float:
    half = model.edges[veh.edge_id].seg_length
    return veh.offset + (0.0 if veh.segment.m == 1 else half)


def protection_window(tau: float, horizon: float) -> tuple[float, float]:
    """Closed interval around a predicted bus entry, clamped at now (0)."""
    if tau < 0:
        raise PredictionError("tau must be >= 0")
    return (max(0.0, tau - horizon), tau + horizon)


def _stop_distances(
    model: NetworkModel, veh: VehicleState, entries: list[tuple[SegmentRef, float]]
) -> list[float]:
    """Distance ahead of every unserved stop on the remaining route.

    A stop on the current edge counts only while it is still ahead; a stop on
    a later edge sits its offset past that edge's first projected entrance.
    """
    pos = pos_in_edge(model, veh)
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
    if is_dwelling(veh):
        # remaining distance at per-edge free-flow speeds
        travel = _free_flow_time(model, veh, dist)
        residual = max(0.0, veh.dwell_until - now)
    else:
        travel = dist / max(veh.speed, MIN_PROJECTION_SPEED)
        residual = 0.0
    dwells = veh.dwell * sum(1 for ahead in stops if ahead < dist)
    return travel + residual + dwells


def _free_flow_time(model: NetworkModel, veh: VehicleState, dist: float) -> float:
    """Free-flow time over the first `dist` of the remaining route: the rest
    of the current edge, then each later edge whole, edge by edge."""
    pos = pos_in_edge(model, veh)
    total = 0.0
    remaining = dist
    for k, eid in enumerate(veh.route[veh.route_index :]):
        e = model.edges[eid]
        span = e.length - pos if k == 0 else e.length
        take = min(remaining, span)
        total += take / e.free_flow_speed
        remaining -= take
        if remaining <= 0:
            break
    return total


def bus_overlap_indicator(snapshot: PredictionSnapshot, vid: int, seg: SegmentRef) -> int:
    return 1 if vid in snapshot.overlap.get(seg, {}) else 0


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
    pos = pos_in_edge(model, veh)
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


def build_bus_windows(world: World, protection: ProtectionHorizon) -> Windows:
    """Windows around every active bus's predicted entry into each DL segment,
    one (bus, segment) ETA query at a time."""
    model = world.model
    out: Windows = {}
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
            out.setdefault(seg, []).append((vid, world.t + lo, world.t + hi))
    return out


def _window_conflicts(
    world: World,
    windows: Windows,
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
    for seg, spans in windows.items():
        members: dict[int, float] = {}
        for vid, own, times in cavs:
            if (own.edge, own.m) == (seg.edge, seg.m):
                entry, when = 0.0, t
            else:
                entry = times.get(seg)
                if entry is None:
                    continue
                when = since + entry
            if any(lo <= when <= hi for _, lo, hi in spans):
                members[vid] = entry
        if members:
            overlap[seg] = members
        q = len(members) / (2.0 * protection.horizon)
        conflict[seg] = q
        bus_time[seg] = bpr_time(model.t0(seg), q, model.capacity(seg), bpr)
    return overlap, conflict, bus_time


def refresh_conflicts(
    world: World, snapshot: PredictionSnapshot, windows: Windows
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
    windows: Windows,
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
        hdv_counts=hdv_entries,
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


# -- control -------------------------------------------------------------------------


def utility(
    snapshot: PredictionSnapshot,
    params: ControlParams,
    vid: int,
    seg: SegmentRef,
    target: SegmentRef,
) -> tuple[float, tuple[float, float, float]]:
    """One candidate's weighted score and its three terms, `u1` included."""
    t1 = control.u1_time_benefit(snapshot, seg, target)
    t2 = float(control.u2_turn_feasibility(snapshot, vid, target.lane))
    t3 = control.u3_change_rate_penalty(
        snapshot.vehicles[vid].lane_change_log, snapshot.t, params.change_horizon, snapshot.dt
    )
    return control.weighted_score(params, t1, t2, t3), (t1, t2, t3)


def build_candidates(
    snapshot: PredictionSnapshot,
    seg: SegmentRef,
    cavs: Iterable[int],
    banned: frozenset[tuple[int, SegmentRef]],
    excluded: frozenset[int],
) -> list[LaneAction]:
    """Unscored cross-lane moves of the CAVs `cavs` on `seg` admissible this
    step: none on an edge without a dedicated lane, and none for a CAV that
    is excluded or banned from the target half."""
    model = snapshot.model
    if not model.edges[seg.edge].dl:
        return []
    target = SegmentRef(seg.edge, OTHER[seg.lane], seg.m)
    direction = 1 if target.lane is Lane.RIGHT else -1
    return [
        LaneAction(vid, seg, direction, forced=False)
        for vid in cavs
        if vid not in excluded and (vid, target) not in banned
    ]


def pick_winner(scored: list[tuple[int, float]]) -> Optional[tuple[int, float]]:
    """Argmax with ties resolved to the lowest vehicle id, in any order."""
    best: Optional[tuple[int, float]] = None
    for vid, u in scored:
        if best is None or u > best[1] or (u == best[1] and vid < best[0]):
            best = (vid, u)
    return best


def select_lane_changes(
    snapshot: PredictionSnapshot, params: ControlParams, warned: frozenset[SegmentRef]
) -> control.ControlDecision:
    """Hard protection plus one positively scored winner per segment: every
    candidate scored in full with `utility`, each an action with its score
    (`replace`), and the winner picked from all of them by `pick_winner`."""
    decision = control.protection_actions(snapshot, warned)
    forced_ids = frozenset(a.vehicle for a in decision.actions)
    cavs_on: dict[SegmentRef, list[int]] = {}
    for vid, veh in snapshot.vehicles.items():
        if veh.vclass is VehicleClass.CAV:
            cavs_on.setdefault(veh.segment, []).append(vid)
    for seg in sorted(cavs_on):
        target = SegmentRef(seg.edge, OTHER[seg.lane], seg.m)
        scored = {}
        for cand in build_candidates(snapshot, seg, cavs_on[seg], decision.banned, forced_ids):
            u, terms = utility(snapshot, params, cand.vehicle, seg, target)
            scored[cand.vehicle] = replace(cand, utility=u, terms=terms)
        winner = pick_winner([(vid, a.utility) for vid, a in scored.items()])
        if winner is not None and winner[1] > 0:
            decision.actions.append(scored[winner[0]])
    return decision


def myopic_lane_actions(
    world: World,
    snapshot: PredictionSnapshot,
    banned: frozenset[tuple[int, SegmentRef]],
    excluded: frozenset[int],
) -> list[LaneAction]:
    """Hop to the adjacent permitted lane when it is currently strictly
    faster, both speeds from `segment_speed`."""
    actions = []
    for vid, veh in snapshot.vehicles.items():
        if veh.vclass is not VehicleClass.CAV or vid in excluded:
            continue
        seg = veh.segment
        target = SegmentRef(seg.edge, OTHER[seg.lane], seg.m)
        if (vid, target) in banned:
            continue
        if segment_speed(world, target) > segment_speed(world, seg):
            direction = 1 if target.lane is Lane.RIGHT else -1
            actions.append(LaneAction(vid, seg, direction, forced=False))
    return actions


def reactive_reroutes(
    world: World, snapshot: PredictionSnapshot, params: ControlParams, costs: dict[int, float]
) -> list[RouteAssignment]:
    """Per-CAV shortest-path recomputation with switch hysteresis, one search
    per CAV."""
    out = []
    for vid, veh in snapshot.vehicles.items():
        if veh.vclass is not VehicleClass.CAV or veh.route_index + 1 >= len(veh.route):
            continue
        current_cost = routing.path_cost(veh.route[veh.route_index + 1 :], costs)
        candidate = routing.reroute(
            world.model, veh.route, veh.route_index, veh.destination,
            VehicleClass.CAV, costs,
        )
        if candidate is None or candidate == veh.route:
            continue
        new_cost = routing.path_cost(candidate[veh.route_index + 1 :], costs)
        if new_cost < (1.0 - params.hysteresis) * current_cost:
            out.append(RouteAssignment(vid, tuple(candidate)))
    return out


# -- reports -------------------------------------------------------------------------


def sample_kpis(world: World, t: float) -> tuple:
    """The KPI sample from a scan of every retired vehicle."""
    bus_total = sum(
        v.arrival_time - v.depart_time
        for v in world.retired
        if v.vclass is VehicleClass.BUS
    )
    return (
        t,
        bus_total,
        metrics.mean_travel_time(world.retired, VehicleClass.CAV),
        metrics.mean_travel_time(world.retired, VehicleClass.HDV),
        len(world.lane_changes),
    )


def dump_predictions(snapshot: PredictionSnapshot, rows: list):
    """Append one row per segment, in `all_segments()` order, copied out of
    the snapshot now."""
    for seg in snapshot.model.all_segments():
        rows.append(
            (
                snapshot.t, seg.edge, TAG[seg.lane], seg.m,
                snapshot.inflow.get(seg, 0.0),
                snapshot.hdv_counts.get(seg, 0),
                snapshot.predicted(seg),
                snapshot.conflict.get(seg),
                snapshot.bus_time.get(seg),
            )
        )


def prediction_row(r: tuple) -> list:
    """The cells of one `dump_predictions` row."""
    return [f"{r[0]:.6f}", r[1], r[2], r[3], f"{r[4]:.6f}", r[5], f"{r[6]:.6f}",
            metrics.float_cell(r[7]), metrics.float_cell(r[8])]


def write_prediction_log(result, out_dir):
    """`predictions.csv` from the rows the plain `simulate` of
    `install_plain` dumped at each control step."""
    return metrics.write_table(
        out_dir, "predictions.csv",
        ["t", "edge", "lane", "m", "inflow", "hdv_entries", "predicted_time",
         "conflict_inflow", "bus_time"],
        (prediction_row(r) for r in result.prediction_rows),
    )


def write_decision_log(result, out_dir):
    """`decisions.csv` from the decision rows, through `csv.writer`."""
    return metrics.write_table(
        out_dir, "decisions.csv",
        ["t", "vehicle", "edge", "lane", "m", "action", "forced",
         "utility", "u1", "u2", "u3", "executed"],
        (
            [f"{r[0]:.6f}", r[1], r[2], r[3], r[4], r[5], r[6],
             metrics.float_cell(r[7]), metrics.float_cell(r[8]), metrics.float_cell(r[9]),
             metrics.float_cell(r[10]), r[11]]
            for r in result.decision_rows
        ),
    )


def write_world_logs(world: World, out_dir):
    """`lane_changes.csv` and, when the log was enabled, `events.csv`, from
    the World's records through `csv.writer`."""
    metrics.write_table(
        out_dir, "lane_changes.csv",
        ["t", "vehicle", "edge", "m", "lane_from", "lane_to", "reason"],
        ([f"{e[0]:.6f}", *e[1:]] for e in world.lane_changes),
    )
    if world.events is not None:
        metrics.write_table(
            out_dir, "events.csv",
            ["t", "event", "vehicle", "class", "edge", "lane", "m", "offset", "detail"],
            ([f"{e[0]:.6f}", *e[1:7], f"{e[7]:.6f}", e[8]] for e in world.events),
        )


# -- fast against plain -------------------------------------------------------------


def assert_same_windows(fast: Windows, slow: Windows):
    assert list(fast.items()) == list(slow.items())


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
    assert fast.hdv_counts == slow.hdv_counts
    assert list(fast.predicted_time.items()) == list(slow.predicted_time.items())
    assert_same_conflicts(fast, slow)


def assert_same_costs(fast: dict[int, float], slow: dict[int, float]):
    assert list(fast.items()) == list(slow.items())


def assert_same_kpis(fast: tuple, slow: tuple):
    """Equal values of the same types (an empty bus total is the int 0)."""
    assert fast == slow
    assert [type(c) for c in fast] == [type(c) for c in slow]


def assert_carried_state(snapshot: PredictionSnapshot):
    """The counts a fast snapshot carries to the next build, and its DL
    index, equal a fresh sum and a fresh index over its own walks and `tau`:
    per segment, the CAV and the HDV entries within `dt`, no zero kept, and
    per DL segment the stored CAV entries in ascending id order."""
    cav: dict[SegmentRef, int] = {}
    hdv: dict[SegmentRef, int] = {}
    for walk in snapshot.walks.values():
        counts = cav if walk[3] is not None else hdv
        for ref in walk[2]:
            counts[ref] = counts.get(ref, 0) + 1
    assert snapshot.cav_counts == cav
    assert snapshot.hdv_counts == hdv
    index: dict[SegmentRef, list[tuple[int, float]]] = {}
    for vid in sorted(snapshot.tau):
        for seg, entry in snapshot.tau[vid].items():
            if seg in snapshot.model.dl_segments:
                index.setdefault(seg, []).append((vid, entry))
    assert snapshot.dl_index == index


def reused_walks(snapshot: PredictionSnapshot, previous: Optional[PredictionSnapshot]) -> int:
    """How many of the snapshot's walks are the previous snapshot's own."""
    if previous is None:
        return 0
    return sum(1 for vid, walk in snapshot.walks.items() if previous.walks.get(vid) is walk)


def install_shadow(monkeypatch) -> dict[str, int]:
    """Run the plain form beside every fast prediction, cost-view, myopic
    lane hop, utility selection, reactive reroute and KPI sample call the
    runner makes, check each fast snapshot's carried counts and DL index
    against its own walks (`assert_carried_state`), and check the plant's
    tables and invariants before every motion step, the segment rows in full
    on each world's first step.

    Every crossing the motion step tries is checked against `wait_slots`
    (`install_transfer_check`).

    Returns the number of checked calls per function, filled in as the run
    goes, so a test can tell that the net was in place; `reused_walks` counts
    the walks the fast snapshots took from the previous one,
    `reroute_assignments` the reroutes the checked calls assigned, and
    `crossings` the checked crossings by result.
    """
    calls = dict.fromkeys(
        ("bus_windows", "snapshot", "refresh", "predicted_costs", "instantaneous_costs",
         "reactive_reroutes", "reroute_assignments", "myopic", "select", "kpi_samples",
         "step", "reused_walks"), 0
    )
    fast_step = runner.step
    fast_windows = prediction.build_bus_windows
    fast_snapshot = prediction.build_snapshot
    fast_refresh = prediction.refresh_conflicts
    fast_predicted = control.predicted_cost_view
    fast_instantaneous = control.instantaneous_cost_view
    fast_reroutes = control.reactive_reroutes
    fast_myopic = control.myopic_lane_actions
    fast_select = control.select_lane_changes
    fast_kpis = metrics.sample_kpis

    def windows(world, protection):
        out = fast_windows(world, protection)
        assert_same_windows(out, build_bus_windows(world, protection))
        calls["bus_windows"] += 1
        return out

    def snapshot(world, windows, bpr, protection, dt, previous=None):
        out = fast_snapshot(world, windows, bpr, protection, dt, previous=previous)
        assert_carried_state(out)
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

    def reroutes(world, snapshot, params, costs):
        out = fast_reroutes(world, snapshot, params, costs)
        assert out == reactive_reroutes(world, snapshot, params, costs)
        calls["reactive_reroutes"] += 1
        calls["reroute_assignments"] += len(out)
        return out

    def myopic(world, snapshot, banned, excluded):
        out = fast_myopic(world, snapshot, banned, excluded)
        assert out == myopic_lane_actions(world, snapshot, banned, excluded)
        calls["myopic"] += 1
        return out

    def select(snapshot, params, warned):
        out = fast_select(snapshot, params, warned)
        # the whole decision: actions in order with their scores and terms,
        # the bans and the warned set
        assert out == select_lane_changes(snapshot, params, warned)
        calls["select"] += 1
        return out

    def kpis(world, t, travel_times):
        out = fast_kpis(world, t, travel_times)
        assert_same_kpis(out, sample_kpis(world, t))
        calls["kpi_samples"] += 1
        return out

    expected: dict[int, PlainTables] = {}  # by id of the model
    rows_checked: dict[int, World] = {}  # by id of the world, kept alive

    def checked_step(world, dt=None):
        tables = expected.get(id(world.model))
        if tables is None:
            tables = expected[id(world.model)] = plain_tables(world)
        assert_plant_tables(world, tables, rows=rows_checked.get(id(world)) is not world)
        rows_checked[id(world)] = world
        assert_plant_invariants(world)
        fast_step(world, dt)
        calls["step"] += 1

    monkeypatch.setattr(runner, "step", checked_step)
    monkeypatch.setattr(prediction, "build_bus_windows", windows)
    monkeypatch.setattr(prediction, "build_snapshot", snapshot)
    monkeypatch.setattr(prediction, "refresh_conflicts", refresh)
    monkeypatch.setattr(control, "predicted_cost_view", predicted)
    monkeypatch.setattr(control, "instantaneous_cost_view", instantaneous)
    monkeypatch.setattr(control, "reactive_reroutes", reroutes)
    monkeypatch.setattr(control, "myopic_lane_actions", myopic)
    monkeypatch.setattr(control, "select_lane_changes", select)
    monkeypatch.setattr(metrics, "sample_kpis", kpis)
    calls["crossings"] = install_transfer_check(monkeypatch)
    return calls


def install_plain(monkeypatch):
    """Patch every plain form in place of its fast one for whole runs.

    `runner.simulate` then dumps the prediction rows through the observer,
    which runs at each control step with that step's snapshot, into the
    result's `prediction_rows`, and `runner.write_prediction_log` writes
    those rows through `csv.writer`, as `runner.write_decision_log` writes
    the decision rows and `runner.write_run_reports` the lane changes and
    events (`write_world_logs`, over the fast writer's rendered ones).
    """
    fast_simulate = runner.simulate
    fast_reports = runner.write_run_reports

    def write_run_reports(result, out_dir):
        written = fast_reports(result, out_dir)
        write_world_logs(result.world, out_dir)
        return written

    def simulate(*args, log_predictions=False, observer=None, **kwargs):
        rows: list[tuple] = []

        def dump(world, snapshot, decision, executed):
            if observer is not None:
                observer(world, snapshot, decision, executed)
            if log_predictions:
                dump_predictions(snapshot, rows)

        result = fast_simulate(*args, observer=dump, **kwargs)
        result.prediction_rows = rows
        return result

    monkeypatch.setattr(World, "segment_speed", segment_speed)
    monkeypatch.setattr(runner, "step", step)
    monkeypatch.setattr(runner, "inject_demand", inject_demand)
    monkeypatch.setattr(prediction, "build_bus_windows", build_bus_windows)
    monkeypatch.setattr(prediction, "build_snapshot", build_snapshot)
    monkeypatch.setattr(prediction, "refresh_conflicts", refresh_conflicts)
    monkeypatch.setattr(control, "predicted_cost_view", predicted_cost_view)
    monkeypatch.setattr(control, "instantaneous_cost_view", instantaneous_cost_view)
    monkeypatch.setattr(control, "reactive_reroutes", reactive_reroutes)
    monkeypatch.setattr(control, "myopic_lane_actions", myopic_lane_actions)
    monkeypatch.setattr(control, "select_lane_changes", select_lane_changes)
    monkeypatch.setattr(runner, "simulate", simulate)
    monkeypatch.setattr(
        metrics, "sample_kpis", lambda world, t, travel_times: sample_kpis(world, t)
    )
    monkeypatch.setattr(runner, "write_prediction_log", write_prediction_log)
    monkeypatch.setattr(runner, "write_decision_log", write_decision_log)
    monkeypatch.setattr(runner, "write_run_reports", write_run_reports)
