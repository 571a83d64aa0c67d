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
    VehicleState,
    World,
    bus_service,
    execute_lane_change,
    generate_arrivals,
    inject_demand,
    step,
)
from .network import Lane, SegmentRef, VehicleClass
from .scenario import (
    Scenario,
    ScenarioError,
    apply_overrides,
    control_values,
    load_scenario,
    resolve_scenario,
)


#: most arrivals one Poisson demand stream may expect over the horizon
#: (rate x horizon); the bundled scenarios expect at most 538, and a stream
#: far past this would spend minutes drawing gaps before the first tick
MAX_EXPECTED_ARRIVALS = 1_000_000


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


#: (t, inflow, hdv_entries, predicted_time, conflict, bus_time) of one
#: control step's snapshot
PredictionStep = tuple[
    float,
    dict[SegmentRef, float],
    dict[SegmentRef, int],
    dict[SegmentRef, float],
    dict[SegmentRef, float],
    dict[SegmentRef, float],
]


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
    # one entry per control step when predictions are logged: the snapshot's
    # own tables, not copies, which is exact because nothing edits a
    # snapshot's tables once it is built (a refresh replaces the conflict
    # tables with new ones); `write_prediction_log` renders them as CSV text
    prediction_steps: list[PredictionStep]
    wall_time: float


Observer = Callable[[World, pr.PredictionSnapshot, ctl.ControlDecision, list], None]


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
    scenario = apply_overrides(scenario, overrides)
    if horizon is None:
        horizon = scenario.meta.get("horizon")
        if horizon is None:
            raise ScenarioError("no horizon given and the scenario meta has none")
    if not 0 < horizon < math.inf:
        raise ValueError("a positive finite horizon is required (config or scenario meta)")
    for i, entry in enumerate(scenario.demand):
        if entry.rate is not None and entry.rate * horizon > MAX_EXPECTED_ARRIVALS:
            raise ScenarioError(
                f"demand[{i}]: rate {entry.rate:g} veh/s over a {horizon:g} s horizon expects "
                f"more than {MAX_EXPECTED_ARRIVALS:,} arrivals"
            )
    params = scenario.control
    clock = scenario.clock
    started = time.perf_counter()

    world = World(scenario.model, clock)
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
    prediction_steps: list[PredictionStep] = []
    run_metrics = mt.RunMetrics()
    travel_times: dict[VehicleClass, list[float]] = {c: [] for c in VehicleClass}

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
        is_bus = tick % steps_bus == 0
        if is_bus:
            windows = pr.build_bus_windows(world, scenario.protection)
        if is_control:
            snapshot = pr.build_snapshot(
                world, windows, scenario.bpr, scenario.protection, clock.dt_control,
                previous=snapshot,
            )
            costs = ctl.routing_costs(strategy, world, snapshot)
        elif is_bus:  # tick 0 is a control tick, so a snapshot exists by now
            snapshot = pr.refresh_conflicts(world, snapshot, windows)
        if is_control or is_bus:
            warned = ctl.warned_segments(snapshot, params)
            world.cav_entry_chooser = ctl.entry_chooser(strategy, snapshot, warned)

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
            executed = _apply_decision(world, decision, decision_rows)
            _audit_banned_entries(snapshot, decision, executed, audit)
            reroute_total += len(decision.reroutes)
            escalation_exhausted += decision.escalation_exhausted
            if observer is not None:
                observer(world, snapshot, decision, executed)
            if log_predictions:
                prediction_steps.append((
                    snapshot.t, snapshot.inflow, snapshot.hdv_entries,
                    snapshot.predicted_time, snapshot.conflict, snapshot.bus_time,
                ))
            run_metrics.series.append(mt.sample_kpis(world, t, travel_times))

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
        prediction_steps=prediction_steps,
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
    world: World, decision: ctl.ControlDecision, rows: list
) -> list[tuple[ctl.LaneAction, bool]]:
    executed: list[tuple[ctl.LaneAction, bool]] = []
    for action in decision.actions:
        if action.vehicle not in world.vehicles:
            continue
        if action.forced:
            reason = "protect"
        else:  # only proposed's selection scores a move
            reason = "myopic" if action.utility is None else "utility"
        ok = execute_lane_change(world, action.vehicle, action.direction, reason=reason)
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
        **control_values(scenario),
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
    """Standard report files plus the event log when it was enabled.

    The event log stays on `csv.writer`: its `detail` cell is text chosen by
    the callers of `execute_lane_change`, so it may need quoting.
    """
    written = mt.write_reports(result.metrics, result.summary, out_dir)
    if result.world.events is not None:
        written.append(mt.write_table(
            out_dir, "events.csv",
            ["t", "event", "vehicle", "class", "edge", "lane", "m", "offset", "detail"],
            ([f"{e[0]:.6f}", *e[1:7], f"{e[7]:.6f}", e[8]] for e in result.world.events),
        ))
    return written


def write_decision_log(result: RunResult, out_dir: str | Path) -> Path:
    """One line per decided action, rendered here as CSV text.

    Every cell is a number, a six-decimal float, an empty cell or a lane tag,
    none of which `csv.writer` would quote, so the line is its cells joined
    by commas and ended by `\r\n`, as `csv.writer` writes it.
    """
    fc = mt.float_cell
    return mt.write_table(
        out_dir, "decisions.csv",
        ["t", "vehicle", "edge", "lane", "m", "action", "forced",
         "utility", "u1", "u2", "u3", "executed"],
        (
            f"{r[0]:.6f},{r[1]},{r[2]},{r[3]},{r[4]},{r[5]},{r[6]},"
            f"{fc(r[7])},{fc(r[8])},{fc(r[9])},{fc(r[10])},{r[11]}\r\n"
            for r in result.decision_rows
        ),
    )


def write_prediction_log(result: RunResult, out_dir: str | Path) -> Path:
    """One line per segment, in `all_segments()` order, per control step.

    The lines are rendered here as CSV text, one chunk per control step,
    from the tables `simulate` kept of each control step's snapshot. They
    still hold that step's values, since nothing edits a snapshot's tables:
    `build_snapshot` and the window conflicts make fresh dicts on every call,
    and `refresh_conflicts` replaces the conflict tables rather than editing
    them. A segment with no inflow, no projected HDV entry and no bus window
    (`conflict` holds every windowed segment, even one without members)
    writes the same cells at every step, so its line is the step's time and
    a tail built once. Every cell is a number, a six-decimal float, an empty
    cell or a lane tag, none of which `csv.writer` would quote, so a line is
    its cells joined by commas and ended by `\r\n`, as `csv.writer` writes it.
    """
    model = result.world.model
    segments = []
    for seg in model.all_segments():
        cells = f",{seg.edge},{seg.lane.tag},{seg.m},"
        free = f"{model.t0(seg):.6f}"
        segments.append((seg, cells, free, f"{cells}0.000000,0,{free},,\r\n"))
    fc = mt.float_cell

    def chunks():
        for t, inflow, hdv_entries, predicted_time, conflict, bus_time in result.prediction_steps:
            when = f"{t:.6f}"
            lines = []
            for seg, cells, free, quiet in segments:
                if seg in inflow or seg in hdv_entries or seg in conflict:
                    predicted = predicted_time.get(seg)
                    lines.append(
                        f"{when}{cells}{inflow.get(seg, 0.0):.6f},{hdv_entries.get(seg, 0)},"
                        f"{free if predicted is None else f'{predicted:.6f}'},"
                        f"{fc(conflict.get(seg))},{fc(bus_time.get(seg))}\r\n"
                    )
                else:
                    lines.append(when + quiet)
            yield "".join(lines)

    return mt.write_table(
        out_dir, "predictions.csv",
        ["t", "edge", "lane", "m", "inflow", "hdv_entries", "predicted_time",
         "conflict_inflow", "bus_time"],
        chunks(),
    )
