"""Lane-change and rerouting control for CAVs around protected bus operations.

Three strategies share one interface:

* ``drp``: reactive rerouting on instantaneous costs plus myopic lane hops
  toward whichever adjacent lane is currently faster; no bus awareness.
* ``prp``: predictive rerouting triggered by bus-interference warnings, with
  the hard bus-protection constraints active, but still myopic lane hops.
* ``proposed``: hard bus protection, utility-scored single-winner lane
  changes per segment, and warning-plus-congestion-gated targeted rerouting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

from . import routing
from .engine import World
from .network import Lane, NetworkModel, SegmentRef, VehicleClass
from .prediction import PredictionSnapshot, bpr_time

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


def utility(
    snapshot: PredictionSnapshot,
    params: ControlParams,
    vid: int,
    seg: SegmentRef,
    target: SegmentRef,
) -> tuple[float, tuple[float, float, float]]:
    t1 = u1_time_benefit(snapshot, seg, target)
    t2 = float(u2_turn_feasibility(snapshot, vid, target.lane))
    t3 = u3_change_rate_penalty(
        snapshot.vehicles[vid].lane_change_log, snapshot.t, params.change_horizon, snapshot.dt
    )
    return weighted_score(params, t1, t2, t3), (t1, t2, t3)


# -- candidate selection ------------------------------------------------------------


def build_candidates(
    snapshot: PredictionSnapshot,
    seg: SegmentRef,
    cavs: Sequence[int],
    banned: frozenset[tuple[int, SegmentRef]],
    excluded: frozenset[int],
) -> list[LaneAction]:
    """Unscored cross-lane moves of the CAVs `cavs` on `seg` admissible this step.

    Scored switching exists to manage joint dedicated-lane usage, so the
    evaluated move is always DL->GPL or GPL->DL; edges without a dedicated
    lane have no candidates (the baselines' myopic hops are not limited this
    way).
    """
    if not snapshot.model.edges[seg.edge].dl:
        return []
    target = SegmentRef(seg.edge, seg.lane.other, seg.m)
    direction = 1 if target.lane is Lane.RIGHT else -1
    return [
        LaneAction(vid, seg, direction, forced=False)
        for vid in cavs
        if vid not in excluded and (vid, target) not in banned
    ]


def pick_winner(scored: list[tuple[int, float]]) -> Optional[tuple[int, float]]:
    """Argmax with ties resolved to the lowest vehicle id."""
    best: Optional[tuple[int, float]] = None
    for vid, u in scored:
        if best is None or u > best[1] or (u == best[1] and vid < best[0]):
            best = (vid, u)
    return best


def select_lane_changes(
    snapshot: PredictionSnapshot, params: ControlParams, warned: frozenset[SegmentRef]
) -> ControlDecision:
    """Hard protection plus one positively scored winner per segment."""
    decision = protection_actions(snapshot, warned)
    forced_ids = frozenset(a.vehicle for a in decision.actions)
    cavs_on: dict[SegmentRef, list[int]] = {}
    for vid, veh in snapshot.vehicles.items():  # id order
        if veh.vclass is VehicleClass.CAV:
            cavs_on.setdefault(veh.segment, []).append(vid)
    for seg in sorted(cavs_on):
        target = SegmentRef(seg.edge, seg.lane.other, seg.m)
        scored = {}
        for cand in build_candidates(snapshot, seg, cavs_on[seg], decision.banned, forced_ids):
            u, terms = utility(snapshot, params, cand.vehicle, seg, target)
            scored[cand.vehicle] = replace(cand, utility=u, terms=terms)
        winner = pick_winner([(vid, a.utility) for vid, a in scored.items()])
        if winner is None:
            continue
        vid, u = winner
        if u > 0:
            decision.actions.append(scored[vid])
    return decision


# -- rerouting ------------------------------------------------------------------


def _edge_costs(
    model: NetworkModel, seg_time: Callable[[SegmentRef], float], edges: Iterable[int]
) -> dict[int, float]:
    """Per edge, the sum over both halves of the fastest CAV-permitted lane; an
    edge not in `edges` keeps its free-flow cost `2.0 * t0`, `(0.0 + t0) + t0`."""
    costs = routing.free_flow_costs(model)
    for eid in edges:
        lanes = model.permitted_lanes(VehicleClass.CAV, eid)
        total = 0.0
        for m in (1, 2):
            total += min(seg_time(SegmentRef(eid, l, m)) for l in lanes)
        costs[eid] = total
    return costs


def predicted_cost_view(snapshot: PredictionSnapshot) -> dict[int, float]:
    """Edge costs from the same short-horizon prediction used for monitoring;
    a segment without inflow takes `t0`, so only edges with inflow are priced."""
    edges = {seg.edge for seg in snapshot.predicted_time}
    return _edge_costs(snapshot.model, snapshot.predicted, edges)


def instantaneous_cost_view(world: World) -> dict[int, float]:
    """Edge costs from current segment speeds (reactive view); an empty segment
    runs at `ffs * 1.0` and takes `t0`, so only occupied edges are priced."""
    model = world.model
    edges = {key.edge for key, q in world.queues.items() if q}
    return _edge_costs(
        model, lambda seg: model.edges[seg.edge].seg_length / world.segment_speed(seg), edges
    )


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
        adjacent = SegmentRef(seg.edge, Lane.LEFT, seg.m)
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
                VehicleClass.CAV,
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
    """Hop to the adjacent permitted lane when it is currently strictly faster."""
    actions = []
    for vid, veh in snapshot.vehicles.items():
        if veh.vclass is not VehicleClass.CAV or vid in excluded:
            continue
        seg = veh.segment
        target = SegmentRef(seg.edge, seg.lane.other, seg.m)
        if (vid, target) in banned:
            continue
        if world.segment_speed(target) > world.segment_speed(seg):
            direction = 1 if target.lane is Lane.RIGHT else -1
            actions.append(LaneAction(vid, seg, direction, forced=False))
    return actions


def reactive_reroutes(
    world: World, snapshot: PredictionSnapshot, params: ControlParams, costs: dict[int, float]
) -> list[RouteAssignment]:
    """Per-CAV shortest-path recomputation with switch hysteresis."""
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


# -- strategy dispatch ------------------------------------------------------------


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
