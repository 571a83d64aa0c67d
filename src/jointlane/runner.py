"""Run orchestration: the motion/monitoring/control loop, auditing, reports.

Per tick: bus protection windows refresh on the bus-monitoring cadence, the
full prediction snapshot on the control cadence; buses and demand are
injected; the active strategy decides lane changes and reroutes at control
steps; then every vehicle advances one motion step. Injection stops at the
horizon and the run drains until all vehicles finish or twice the horizon.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import control as ctl
from . import metrics as mt
from . import prediction as pr
from . import routing
from .engine import (
    EntryChooser,
    VehicleState,
    World,
    bus_service,
    execute_lane_change,
    generate_arrivals,
    inject_demand,
    step,
)
from .network import Lane, SegmentRef, VehicleClass
from .scenario import Scenario, ScenarioError, apply_overrides, load_scenario, resolve_scenario


def run(scenario: str, out_dir: str | Path, log_decisions: bool = False,
        **simulate_kwargs) -> RunResult:
    """Simulate a scenario (bundled name or path) and write its reports.

    Writes the standard reports, plus the event, decision and prediction
    logs when `log_events`, `log_decisions` and `log_predictions` are set.
    """
    result = simulate(load_scenario(resolve_scenario(scenario)), **simulate_kwargs)
    write_run_reports(result, out_dir)
    if log_decisions:
        write_decision_log(result, out_dir)
    if simulate_kwargs.get("log_predictions"):
        write_prediction_log(result, out_dir)
    return result


@dataclass
class RunResult:
    strategy: str
    seed: int
    horizon: float
    world: World
    metrics: mt.RunMetrics
    summary: dict
    audit: dict
    decision_rows: list[tuple]
    prediction_rows: list[tuple]
    wall_time: float


Observer = Callable[[World, pr.PredictionSnapshot, ctl.ControlDecision, list], None]


def _entry_chooser(
    strategy: str, snapshot: pr.PredictionSnapshot, warned: frozenset[SegmentRef]
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
        if right in banned and snapshot.windows.contains(right, world.t):
            # the dedicated lane stays as a last resort so the vehicle does
            # not stall at the upstream boundary and block the bus itself
            return (Lane.LEFT, Lane.RIGHT)
        if by_prediction:
            right_first = snapshot.predicted(right) < snapshot.predicted(left)
        else:
            right_first = world.segment_speed(right) > world.segment_speed(left)
        return (Lane.RIGHT, Lane.LEFT) if right_first else (Lane.LEFT, Lane.RIGHT)

    return choose


def simulate(
    scenario: Scenario,
    strategy: str = "proposed",
    seed: int = 1,
    horizon: Optional[float] = None,
    overrides: Optional[dict] = None,
    log_events: bool = False,
    log_predictions: bool = False,
    observer: Optional[Observer] = None,
) -> RunResult:
    """Run one scenario under one strategy; deterministic given the seed."""
    if strategy not in ctl.STRATEGIES:
        raise ctl.ControlError(f"unknown strategy {strategy!r}")
    if overrides:
        scenario = apply_overrides(scenario, overrides)
    if horizon is None:
        horizon = scenario.meta.get("horizon")
        if horizon is None:
            raise ScenarioError("no horizon given and the scenario meta has none")
    if not 0 < horizon < math.inf:
        raise ValueError("a positive finite horizon is required (config or scenario meta)")
    model = scenario.model
    params = scenario.control
    clock = scenario.clock
    started = time.perf_counter()

    world = World(model, clock)
    if log_events:
        world.events = []

    arrivals = generate_arrivals(scenario.demand, seed, horizon)
    arrival_ptr = 0
    hdv_routes: dict[tuple[int, int], list[int]] = {}
    bus_departures = sorted(
        (dep, line.id, trip, line)
        for line in scenario.bus_lines
        for trip, dep in enumerate(line.departures)
        if dep < horizon
    )
    bus_ptr = 0

    audit = {"banned_entries": 0, "forced_missing": 0}
    reroute_total = 0
    escalation_exhausted = 0
    decision_rows: list[tuple] = []
    prediction_rows: list[tuple] = []
    run_metrics = mt.RunMetrics()

    steps_control = round(clock.dt_control / clock.dt_sim)
    steps_bus = round(clock.dt_bus / clock.dt_sim)
    drain_limit = 2.0 * horizon

    snapshot: Optional[pr.PredictionSnapshot] = None
    tick = 0
    while True:
        t = tick * clock.dt_sim
        if t >= drain_limit:
            break
        if t >= horizon:
            if world.pending:
                world.unserved += len(world.pending)
                world.pending.clear()
            if arrival_ptr < len(arrivals):  # due inside the final sub-tick gap
                world.unserved += len(arrivals) - arrival_ptr
                arrival_ptr = len(arrivals)
            if not world.vehicles and bus_ptr >= len(bus_departures):
                break

        is_control = tick % steps_control == 0
        if tick % steps_bus == 0:
            windows = pr.build_bus_windows(world, scenario.protection)
            # a control tick rebuilds the snapshot below, which would discard a
            # refresh; tick 0 is one, so a snapshot exists from then on
            if not is_control:
                snapshot = pr.refresh_conflicts(world, snapshot, windows)
                warned = ctl.warned_segments(snapshot, params)
                world.cav_entry_chooser = _entry_chooser(strategy, snapshot, warned)

        if is_control:
            snapshot = pr.build_snapshot(
                world, windows, scenario.bpr, scenario.protection, clock.dt_control,
                previous=snapshot,
            )
            warned = ctl.warned_segments(snapshot, params)
            world.cav_entry_chooser = _entry_chooser(strategy, snapshot, warned)
            # edge costs, before injection: drp's come from current speeds,
            # prp's and proposed's from the snapshot's prediction
            if strategy == "drp":
                costs = ctl.instantaneous_cost_view(world)
            else:
                costs = ctl.predicted_cost_view(snapshot)

        if t < horizon:
            while bus_ptr < len(bus_departures) and bus_departures[bus_ptr][0] <= t:
                _, _, trip, line = bus_departures[bus_ptr]
                bus_ptr += 1
                veh = _make_bus(world, line, trip)
                if not world.place_new(veh):
                    world.pending.append(veh)
            due = []
            while arrival_ptr < len(arrivals) and arrivals[arrival_ptr][0] <= t:
                _, _, entry = arrivals[arrival_ptr]
                arrival_ptr += 1
                due.append(_make_vehicle(world, entry, costs, hdv_routes))
            inject_demand(world, due)

        bus_service(world, t)

        if is_control:
            decision = ctl.strategy_step(strategy, world, snapshot, params, warned, costs)
            _audit_forced_exits(snapshot, decision, audit)
            executed = _apply_decision(world, strategy, decision, decision_rows)
            _audit_banned_entries(snapshot, decision, executed, audit)
            reroute_total += len(decision.reroutes)
            escalation_exhausted += decision.escalation_exhausted
            if observer is not None:
                observer(world, snapshot, decision, executed)
            if log_predictions:
                _dump_predictions(snapshot, prediction_rows)
            run_metrics.series.append(mt.sample_kpis(world, t))

        step(world, clock.dt_sim)
        tick += 1

    wall = time.perf_counter() - started
    run_metrics.trips = mt.collect_trips(world)
    run_metrics.bus_arrivals = mt.collect_bus_arrivals(world)
    run_metrics.lane_change_events = list(world.lane_changes)
    summary = _build_summary(
        scenario, strategy, seed, horizon, world, run_metrics, audit,
        reroute_total, escalation_exhausted,
    )
    return RunResult(
        strategy=strategy,
        seed=seed,
        horizon=horizon,
        world=world,
        metrics=run_metrics,
        summary=summary,
        audit=audit,
        decision_rows=decision_rows,
        prediction_rows=prediction_rows,
        wall_time=wall,
    )


def _new_vehicle(
    world: World, vclass: VehicleClass, route, origin: int, destination: int, **bus
) -> VehicleState:
    """A vehicle created now at the start of its first route edge, at that
    edge's free-flow speed; `bus` holds a bus's line, trip and stop fields."""
    return VehicleState(
        id=world.new_id(),
        vclass=vclass,
        route=list(route),
        route_index=0,
        offset=0.0,
        speed=world.model.edges[route[0]].free_flow_speed,
        depart_time=world.t,
        origin=origin,
        destination=destination,
        **bus,
    )


def _make_bus(world: World, line, trip: int) -> VehicleState:
    edges = world.model.edges
    return _new_vehicle(
        world, VehicleClass.BUS, line.route,
        edges[line.route[0]].frm, edges[line.route[-1]].to,
        line=line.id,
        trip=trip,
        stop_plan=line.stop_plans[trip] if line.stop_plans else (),
        dwell=line.dwell,
    )


def _make_vehicle(
    world: World, entry, costs: Optional[dict[int, float]], hdv_routes
) -> VehicleState:
    model = world.model
    if entry.vclass is VehicleClass.HDV:
        key = (entry.origin, entry.destination)
        route = hdv_routes.get(key)
        if route is None:
            route = routing.initial_route(model, entry.origin, entry.destination, entry.vclass)
            hdv_routes[key] = route
    else:
        route = routing.initial_route(
            model, entry.origin, entry.destination, entry.vclass, costs=costs
        )
    return _new_vehicle(world, entry.vclass, route, entry.origin, entry.destination)


def _apply_decision(
    world: World, strategy: str, decision: ctl.ControlDecision, rows: list
) -> list[tuple[ctl.LaneAction, bool]]:
    executed: list[tuple[ctl.LaneAction, bool]] = []
    reason_free = "utility" if strategy == "proposed" else "myopic"
    for action in decision.actions:
        if action.vehicle not in world.vehicles:
            continue
        ok = execute_lane_change(
            world,
            action.vehicle,
            action.direction,
            reason="protect" if action.forced else reason_free,
        )
        executed.append((action, ok))
        seg = action.segment
        terms = action.terms or (None, None, None)
        rows.append(
            (
                decision.t, action.vehicle, seg.edge, seg.lane.tag, seg.m,
                action.direction, int(action.forced),
                action.utility, terms[0], terms[1], terms[2], int(ok),
            )
        )
    for assign in decision.reroutes:
        veh = world.vehicles.get(assign.vehicle)
        if veh is None:
            continue
        veh.route = list(assign.route)
        veh.reroute_count += 1
    return executed


def _audit_forced_exits(
    snapshot: pr.PredictionSnapshot, decision: ctl.ControlDecision, audit: dict
):
    """Independent recount of the forced exits, against decision-time segments.

    The snapshot's vehicles are live records, so this runs before the decision
    is applied.
    """
    forced_vehicles = {a.vehicle for a in decision.actions if a.forced}
    for seg in decision.warned:
        for vid in snapshot.overlap.get(seg, {}):
            if snapshot.vehicles[vid].segment == seg and vid not in forced_vehicles:
                audit["forced_missing"] += 1


def _audit_banned_entries(
    snapshot: pr.PredictionSnapshot,
    decision: ctl.ControlDecision,
    executed: list[tuple[ctl.LaneAction, bool]],
    audit: dict,
):
    """Independent recount of executed moves onto a banned segment."""
    for action, ok in executed:
        if not ok or action.forced or action.direction != 1:
            continue
        target = SegmentRef(action.segment.edge, Lane.RIGHT, action.segment.m)
        if target in decision.warned and action.vehicle in snapshot.overlap.get(target, {}):
            audit["banned_entries"] += 1


def _dump_predictions(snapshot: pr.PredictionSnapshot, rows: list):
    for seg in snapshot.model.all_segments():
        rows.append(
            (
                snapshot.t, seg.edge, seg.lane.tag, seg.m,
                snapshot.inflow.get(seg, 0.0),
                snapshot.hdv_entries.get(seg, 0),
                snapshot.predicted(seg),
                snapshot.conflict.get(seg),
                snapshot.bus_time.get(seg),
            )
        )


def _build_summary(
    scenario: Scenario,
    strategy: str,
    seed: int,
    horizon: float,
    world: World,
    run_metrics: mt.RunMetrics,
    audit: dict,
    reroute_total: int,
    escalation_exhausted: int,
) -> dict:
    p = scenario.control
    active = world.active_counts()
    retired = {c: 0 for c in VehicleClass}
    for veh in world.retired:
        retired[veh.vclass] += 1
    reasons = {}
    for event in world.lane_changes:
        reasons[event[6]] = reasons.get(event[6], 0) + 1
    per_stop = mt.per_stop_on_time(run_metrics.bus_arrivals)
    rates = [v for v in per_stop.values() if v is not None]
    summary = {
        "scenario": scenario.meta.get("name", ""),
        "strategy": strategy,
        "seed": seed,
        "horizon": float(horizon),
        "w1": p.w1, "w2": p.w2, "w3": p.w3,
        "lambda": p.bus_tolerance, "gamma": p.reroute_tolerance,
        "T": p.change_horizon, "theta": p.hysteresis,
        "dT_b": scenario.protection.horizon,
        "alpha": scenario.bpr.alpha, "beta": scenario.bpr.beta,
        "dt": scenario.clock.dt_control, "dt_b": scenario.clock.dt_bus,
        "dt_sim": scenario.clock.dt_sim,
    }
    for cls in (VehicleClass.CAV, VehicleClass.HDV, VehicleClass.BUS):
        summary[f"injected_{cls.value}"] = world.injected[cls]
        summary[f"retired_{cls.value}"] = retired[cls]
        summary[f"active_end_{cls.value}"] = active[cls]
        summary[f"avg_travel_time_{cls.value}"] = mt.mean_travel_time(run_metrics.trips, cls)
    summary["unserved"] = world.unserved
    summary["total_lane_changes"] = len(world.lane_changes)
    for reason in ("utility", "myopic", "protect", "align"):
        summary[f"lane_changes_{reason}"] = reasons.get(reason, 0)
    summary["reroutes_total"] = reroute_total
    summary["escalation_exhausted"] = escalation_exhausted
    summary["mean_on_time_pct"] = sum(rates) / len(rates) if rates else None
    for stop_id in sorted(world.model.bus_stops):
        summary[f"on_time_pct_stop_{stop_id}"] = per_stop.get(stop_id)
    summary["audit_banned_entries"] = audit["banned_entries"]
    summary["audit_forced_missing"] = audit["forced_missing"]
    return summary


def write_run_reports(result: RunResult, out_dir: str | Path) -> list[Path]:
    """Standard report files plus the event log when it was enabled."""
    written = mt.write_reports(result.metrics, result.summary, out_dir)
    if result.world.events is not None:
        written.append(mt.write_table(
            out_dir, "events.csv",
            ["t", "event", "vehicle", "class", "edge", "lane", "m", "offset", "detail"],
            ([f"{e[0]:.6f}", *e[1:]] for e in result.world.events),
        ))
    return written


def write_decision_log(result: RunResult, out_dir: str | Path) -> Path:
    return mt.write_table(
        out_dir, "decisions.csv",
        ["t", "vehicle", "edge", "lane", "m", "action", "forced",
         "utility", "u1", "u2", "u3", "executed"],
        (
            [f"{r[0]:.6f}", r[1], r[2], r[3], r[4], r[5], r[6],
             mt.float_cell(r[7]), mt.float_cell(r[8]), mt.float_cell(r[9]),
             mt.float_cell(r[10]), r[11]]
            for r in result.decision_rows
        ),
    )


def write_prediction_log(result: RunResult, out_dir: str | Path) -> Path:
    return mt.write_table(
        out_dir, "predictions.csv",
        ["t", "edge", "lane", "m", "inflow", "hdv_entries", "predicted_time",
         "conflict_inflow", "bus_time"],
        (
            [f"{r[0]:.6f}", r[1], r[2], r[3], f"{r[4]:.6f}", r[5], f"{r[6]:.6f}",
             mt.float_cell(r[7]), mt.float_cell(r[8])]
            for r in result.prediction_rows
        ),
    )
