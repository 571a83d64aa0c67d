"""Lane-change and rerouting control for CAVs around protected bus operations.

Three strategies share one interface, and every per-strategy choice lives
here: the lane order of a CAV entering an edge (`entry_chooser`), the edge
costs new CAVs are routed on (`routing_costs`) and the control step
(`strategy_step`):

* ``drp``: reactive rerouting on instantaneous costs plus myopic lane hops
  toward whichever adjacent lane is currently faster; no bus awareness.
* ``prp``: predictive rerouting triggered by bus-interference warnings, with
  the hard bus-protection constraints active, but still myopic lane hops.
* ``proposed``: hard bus protection, utility-scored single-winner lane
  changes per segment, and warning-plus-congestion-gated targeted rerouting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import routing
from .engine import EntryChooser, VehicleState, World
from .network import CAV, LEFT, OTHER, RIGHT, Lane, SegmentRef
from .prediction import PredictionSnapshot, bpr_time, in_window

STRATEGIES = ("drp", "prp", "proposed")


class ControlError(ValueError):
    pass


@dataclass(frozen=True)
class ControlParams:
    """Weights and tolerances for the coordination layer."""

    w1: float = 0.3                 # predicted time benefit
    w2: float = 0.3                 # downstream turn feasibility
    w3: float = 0.4                 # lane-change frequency penalty
    bus_tolerance: float = 0.2      # warning when bus time exceeds (1+tol)*t0
    reroute_tolerance: float = 0.3  # escalation gate on the adjacent GPL
    change_horizon: float = 120.0   # rolling window for the frequency penalty
    hysteresis: float = 0.05        # reactive reroute damping (drp only)

    def __post_init__(self):
        if min(self.w1, self.w2, self.w3) < 0:
            raise ControlError("weights must be >= 0")
        if self.bus_tolerance <= 0 or self.reroute_tolerance <= 0:
            raise ControlError("tolerances must be > 0")
        if self.change_horizon <= 0:
            raise ControlError("change horizon must be > 0")
        if self.hysteresis < 0:
            raise ControlError("hysteresis must be >= 0")


@dataclass(frozen=True)
class LaneAction:
    vehicle: int
    segment: SegmentRef          # segment occupied when the decision was made
    direction: int               # +1 toward the right lane, -1 toward the left
    forced: bool
    utility: Optional[float] = None
    terms: Optional[tuple[float, float, float]] = None


@dataclass(frozen=True)
class RouteAssignment:
    vehicle: int
    route: tuple[int, ...]


@dataclass
class ControlDecision:
    t: float
    actions: list[LaneAction] = field(default_factory=list)
    reroutes: list[RouteAssignment] = field(default_factory=list)
    warned: frozenset[SegmentRef] = frozenset()
    banned: frozenset[tuple[int, SegmentRef]] = frozenset()
    escalation_exhausted: int = 0


# -- protection -------------------------------------------------------------------


def bus_warning(bus_time: float, t0: float, tolerance: float) -> bool:
    """Interference warning: predicted bus time strictly above (1+tol)*t0."""
    return bus_time > (1.0 + tolerance) * t0


def warned_segments(snapshot: PredictionSnapshot, params: ControlParams) -> frozenset[SegmentRef]:
    out = [
        seg
        for seg, bt in snapshot.bus_time.items()
        if bus_warning(bt, snapshot.model.t0(seg), params.bus_tolerance)
    ]
    return frozenset(out)


def protection_actions(
    snapshot: PredictionSnapshot, warned: frozenset[SegmentRef]
) -> ControlDecision:
    """Hard constraints on every warned segment, as a decision.

    Every overlapping CAV already on the segment must leave toward the GPL
    (a forced action); every other overlapping CAV may not move onto it this
    step (a ban).
    """
    decision = ControlDecision(t=snapshot.t, warned=warned)
    banned: set[tuple[int, SegmentRef]] = set()
    for seg in sorted(warned):
        for vid in snapshot.overlap.get(seg, {}):
            if snapshot.vehicles[vid].segment == seg:
                decision.actions.append(LaneAction(vid, seg, -1, forced=True))
            else:
                banned.add((vid, seg))
    decision.banned = frozenset(banned)
    return decision


def entry_chooser(
    strategy: str, snapshot: PredictionSnapshot, warned: frozenset[SegmentRef]
) -> EntryChooser:
    """Lane preference when a CAV enters an edge, per strategy.

    The right lane goes first only when its upstream half is strictly
    better: a lower predicted travel time under proposed, a higher current
    speed under drp and prp; ties go left first. Under prp and proposed a
    CAV prefers the GPL while the edge's upstream DL half is warned and
    inside a live protection window. Only DL segments have windows, so only
    they are ever warned.
    """
    banned = frozenset() if strategy == "drp" else warned
    by_prediction = strategy == "proposed"

    def choose(world: World, veh: VehicleState, edge_id: int) -> tuple[Lane, ...]:
        (left, _), (right, _) = world.model.halves[edge_id]
        if right in banned and in_window(snapshot.windows.get(right, ()), world.t):
            # the dedicated lane stays as a last resort so the vehicle does
            # not stall at the upstream boundary and block the bus itself
            return (LEFT, RIGHT)
        if by_prediction:
            right_first = snapshot.predicted(right) < snapshot.predicted(left)
        else:
            right_first = world.segment_speed(right) > world.segment_speed(left)
        return (RIGHT, LEFT) if right_first else (LEFT, RIGHT)

    return choose


# -- utility terms ----------------------------------------------------------------


def u1_time_benefit(snapshot: PredictionSnapshot, seg: SegmentRef, target: SegmentRef) -> float:
    """Predicted time saved by the move, normalized by the free-flow time."""
    return (snapshot.predicted(seg) - snapshot.predicted(target)) / snapshot.model.t0(seg)


def u2_turn_feasibility(snapshot: PredictionSnapshot, vid: int, target_lane: Lane) -> int:
    """1 when the move keeps the next turn reachable.

    Reachable directly (the target lane connects to the next route edge) or
    deferred (the vehicle would still be on the upstream half, leaving one
    change-back opportunity before the turn).
    """
    veh = snapshot.vehicles[vid]
    seg = veh.segment
    if seg.m == 1:
        return 1
    if veh.route_index + 1 >= len(veh.route):
        return 1
    nxt = veh.route[veh.route_index + 1]
    return 1 if snapshot.model.connects(seg.edge, target_lane, nxt) else 0


def u3_change_rate_penalty(log: Sequence[float], t: float, horizon: float, dt: float) -> float:
    """Negative share of recent control steps spent changing lanes."""
    n = sum(1 for x in log if t - horizon < x <= t)
    return -n / (horizon / dt)


def weighted_score(params: ControlParams, t1: float, t2: float, t3: float) -> float:
    return params.w1 * t1 + params.w2 * t2 + params.w3 * t3


# -- candidate selection ------------------------------------------------------------


def select_lane_changes(
    snapshot: PredictionSnapshot, params: ControlParams, warned: frozenset[SegmentRef]
) -> ControlDecision:
    """Hard protection plus one positively scored winner per segment.

    Scored switching exists to manage joint dedicated-lane usage, so the
    evaluated move is always DL->GPL or GPL->DL: edges without a dedicated
    lane have no candidates (the baselines' myopic hops are not limited this
    way). A candidate is a CAV on the segment that is neither forced off by
    the protection nor banned from the target half. `u1` reads only the
    segment and its target, so it is computed once per segment; the
    candidates are scored in ascending id order and the first best score
    is kept (a strict `>`), so a tie goes to the lowest id. Only the winner
    becomes an action, and only when its score is positive.
    """
    decision = protection_actions(snapshot, warned)
    forced_ids = frozenset(a.vehicle for a in decision.actions)
    banned = decision.banned
    cavs_on: dict[SegmentRef, list[int]] = {}
    model = snapshot.model
    edges = model.edges
    halves = model.halves
    vehicles = snapshot.vehicles
    t = snapshot.t
    horizon = params.change_horizon
    for vid, veh in vehicles.items():  # id order
        if veh.vclass is CAV:
            cavs_on.setdefault(veh.segment, []).append(vid)
    for seg in sorted(cavs_on):
        if not edges[seg.edge].dl:
            continue
        target_lane = OTHER[seg.lane]
        target = halves[seg.edge][target_lane][seg.m - 1]
        t1 = u1_time_benefit(snapshot, seg, target)
        best: Optional[tuple[int, float, tuple[float, float, float]]] = None
        for vid in cavs_on[seg]:
            if vid in forced_ids or (vid, target) in banned:
                continue
            t2 = float(u2_turn_feasibility(snapshot, vid, target_lane))
            t3 = u3_change_rate_penalty(vehicles[vid].lane_change_log, t, horizon, snapshot.dt)
            u = weighted_score(params, t1, t2, t3)
            if best is None or u > best[1]:
                best = (vid, u, (t1, t2, t3))
        if best is not None and best[1] > 0:
            vid, u, terms = best
            direction = 1 if target_lane is RIGHT else -1
            decision.actions.append(
                LaneAction(vid, seg, direction, forced=False, utility=u, terms=terms)
            )
    return decision


# -- rerouting ------------------------------------------------------------------


def predicted_cost_view(snapshot: PredictionSnapshot) -> dict[int, float]:
    """Edge costs from the same short-horizon prediction used for monitoring:
    per edge, the sum over both halves of the fastest CAV-permitted lane.

    A segment without inflow takes `t0`, so only edges with inflow are
    priced; any other edge keeps its free-flow cost `2.0 * t0`, which is
    `(0.0 + t0) + t0`. A CAV may use both lanes of every edge, so a priced
    edge costs `(0.0 + min(L1, R1)) + min(L2, R2)` over its four segments'
    times, read from `predicted_time` with the edge's `t0` as the default;
    each `min` is written out as `a if a <= b else b`, which keeps the left
    lane on a tie as `min` does.
    """
    model = snapshot.model
    predicted_time = snapshot.predicted_time
    edges = model.edges
    halves = model.halves
    costs = routing.free_flow_costs(model)
    for eid in {seg.edge for seg in predicted_time}:
        t0 = edges[eid].t0
        (l1, l2), (r1, r2) = halves[eid]
        a = predicted_time.get(l1, t0)
        b = predicted_time.get(r1, t0)
        c = predicted_time.get(l2, t0)
        d = predicted_time.get(r2, t0)
        costs[eid] = (0.0 + (a if a <= b else b)) + (c if c <= d else d)
    return costs


def instantaneous_cost_view(world: World) -> dict[int, float]:
    """Edge costs from current segment speeds (reactive view).

    Each segment takes `seg_length / segment_speed(seg)`, read from its row's
    `times` table at its occupancy, which the table covers (`SegmentRow`),
    and an edge costs the faster lane of its upstream halves plus the faster
    lane of its downstream halves, summed and with each `min` written out as
    `predicted_cost_view` does (a CAV may use both lanes). The rows come
    four per edge, L1 L2 R1 R2. An empty segment runs at `ffs * 1.0` and
    takes `t0`, so an edge with four empty queues keeps its free-flow cost.
    """
    costs = routing.free_flow_costs(world.model)
    rows = iter(world.rows.values())
    for l1, l2, r1, r2 in zip(rows, rows, rows, rows):
        if l1.queue or l2.queue or r1.queue or r2.queue:
            a = l1.times[len(l1.queue)]
            b = r1.times[len(r1.queue)]
            c = l2.times[len(l2.queue)]
            d = r2.times[len(r2.queue)]
            costs[l1.key.edge] = (0.0 + (a if a <= b else b)) + (c if c <= d else d)
    return costs


def rerouting_escalation(
    snapshot: PredictionSnapshot,
    params: ControlParams,
    warned: frozenset[SegmentRef],
    costs: dict[int, float],
    require_gpl_gate: bool = True,
) -> tuple[list[RouteAssignment], int]:
    """Greedily reroute conflicting CAVs until tolerances clear.

    Members are taken farthest-first (largest predicted entry time), so the
    vehicles with the most routing flexibility move first; after each removal
    the bus time (and the adjacent GPL time, when gated) is recomputed from
    the reduced counts. Vehicles without an alternative route are skipped.
    """
    model = snapshot.model
    bpr = snapshot.bpr
    two_h = 2.0 * snapshot.protection.horizon
    assignments: list[RouteAssignment] = []
    taken: set[int] = set()
    exhausted = 0
    for seg in sorted(warned):
        adjacent = model.halves[seg.edge][LEFT][seg.m - 1]
        t0_seg = model.t0(seg)
        t0_adj = model.t0(adjacent)
        gpl_time = snapshot.predicted(adjacent)
        if require_gpl_gate and not gpl_time > (1.0 + params.reroute_tolerance) * t0_adj:
            continue
        bus_time = snapshot.bus_time.get(seg)
        if bus_time is None:
            continue
        members = snapshot.overlap.get(seg, {})
        conflict_n = len(members)
        gpl_flow = snapshot.inflow.get(adjacent, 0.0)

        def cleared() -> bool:
            if bus_warning(bus_time, t0_seg, params.bus_tolerance):
                return False
            if require_gpl_gate and gpl_time > (1.0 + params.reroute_tolerance) * t0_adj:
                return False
            return True

        if cleared():
            continue
        farthest_first = sorted(
            (vid for vid in members if vid not in taken), key=lambda vid: (-members[vid], vid)
        )
        for vid in farthest_first:
            if cleared():
                break
            veh = snapshot.vehicles[vid]
            if veh.edge_id == seg.edge:
                continue  # cannot avoid the edge it is already on
            new_route = routing.reroute(
                model,
                veh.route,
                veh.route_index,
                veh.destination,
                CAV,
                costs,
                forbidden=frozenset({seg.edge}),
            )
            if new_route is None or new_route == veh.route:
                continue
            assignments.append(RouteAssignment(vid, tuple(new_route)))
            taken.add(vid)
            conflict_n = max(0, conflict_n - 1)
            bus_time = bpr_time(t0_seg, conflict_n / two_h, model.capacity(seg), bpr)
            tau_adj = snapshot.tau[vid].get(adjacent)
            if tau_adj is not None and 0 <= tau_adj < snapshot.dt:
                gpl_flow = max(0.0, gpl_flow - 1.0 / snapshot.dt)
                gpl_time = bpr_time(t0_adj, gpl_flow, model.capacity(adjacent), bpr)
        if not cleared():
            exhausted += 1
    return assignments, exhausted


# -- myopic behaviour (baseline strategies) -------------------------------------------


def myopic_lane_actions(
    world: World,
    snapshot: PredictionSnapshot,
    banned: frozenset[tuple[int, SegmentRef]],
    excluded: frozenset[int],
) -> list[LaneAction]:
    """Hop to the adjacent permitted lane when it is currently strictly faster.

    Both lanes' speeds are read from the segment's row, as `segment_speed`
    gives them: the edge's speed table at each queue's occupancy, which
    never exceeds `jam_count` (`SegmentRow`).
    """
    actions = []
    rows = world.rows
    halves = world.model.halves
    for vid, veh in snapshot.vehicles.items():
        if veh.vclass is not CAV or vid in excluded:
            continue
        seg = veh.segment
        if banned and (vid, halves[seg.edge][OTHER[seg.lane]][seg.m - 1]) in banned:
            continue
        row = rows[seg]
        speeds = row.speeds
        if speeds[len(row.other)] > speeds[len(row.queue)]:
            direction = 1 if seg.lane is LEFT else -1  # toward the other lane
            actions.append(LaneAction(vid, seg, direction, forced=False))
    return actions


def reactive_reroutes(
    world: World, snapshot: PredictionSnapshot, params: ControlParams, costs: dict[int, float]
) -> list[RouteAssignment]:
    """Per-CAV shortest-path recomputation with switch hysteresis.

    Every CAV reroutes on the same `costs`, as a CAV with nothing forbidden,
    so its new suffix depends only on its current edge and its destination:
    one search per (edge, destination) key serves every CAV that shares it.
    The memo lives for this call and holds the suffix and its cost, or None
    where no route exists; a hit prepends the vehicle's own prefix, and
    nothing edits a stored suffix.
    """
    out = []
    suffixes: dict[tuple[int, int], Optional[tuple[list[int], float]]] = {}
    for vid, veh in snapshot.vehicles.items():
        ri = veh.route_index
        if veh.vclass is not CAV or ri + 1 >= len(veh.route):
            continue
        key = (veh.route[ri], veh.destination)
        if key in suffixes:
            found = suffixes[key]
        else:
            candidate = routing.reroute(
                world.model, veh.route, ri, veh.destination, CAV, costs,
            )
            if candidate is None:
                found = None
            else:
                suffix = candidate[ri + 1 :]
                found = suffix, routing.path_cost(suffix, costs)
            suffixes[key] = found
        if found is None:
            continue
        suffix, new_cost = found
        current = veh.route[ri + 1 :]
        if suffix == current:
            continue
        if new_cost < (1.0 - params.hysteresis) * routing.path_cost(current, costs):
            out.append(RouteAssignment(vid, (*veh.route[: ri + 1], *suffix)))
    return out


# -- strategy dispatch ------------------------------------------------------------


def routing_costs(strategy: str, world: World, snapshot: PredictionSnapshot) -> dict[int, float]:
    """Edge costs for routing new CAVs: current speeds under drp, else the prediction."""
    if strategy == "drp":
        return instantaneous_cost_view(world)
    return predicted_cost_view(snapshot)


def strategy_step(
    strategy: str,
    world: World,
    snapshot: PredictionSnapshot,
    params: ControlParams,
    warned: frozenset[SegmentRef],
    costs: dict[int, float],
) -> ControlDecision:
    """One control step of the chosen strategy.

    `warned` and `costs` are the snapshot's warned segments and predicted
    edge costs, derived once by the caller. drp reads neither: it has no bus
    protection and reroutes on the current speeds, after this tick's
    injection.
    """
    if strategy == "drp":
        return ControlDecision(
            t=snapshot.t,
            actions=myopic_lane_actions(world, snapshot, frozenset(), frozenset()),
            reroutes=reactive_reroutes(world, snapshot, params, instantaneous_cost_view(world)),
        )
    if strategy == "proposed":
        decision = select_lane_changes(snapshot, params, warned)
    elif strategy == "prp":
        decision = protection_actions(snapshot, warned)
        forced_ids = frozenset(a.vehicle for a in decision.actions)
        decision.actions.extend(
            myopic_lane_actions(world, snapshot, decision.banned, excluded=forced_ids)
        )
    else:
        raise ControlError(f"unknown strategy {strategy!r}")
    decision.reroutes, decision.escalation_exhausted = rerouting_escalation(
        snapshot, params, warned, costs,
        require_gpl_gate=strategy == "proposed",
    )
    return decision
