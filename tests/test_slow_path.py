"""The fast plant, prediction walk, window conflicts and cost views against the
plain forms in `slow_path`, on whole runs and on random hand-placed worlds."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from jointlane.control import instantaneous_cost_view, predicted_cost_view
from jointlane.engine import VehicleState, inject_demand, step
from jointlane.network import Lane, VehicleClass
from jointlane.prediction import (
    MIN_PROJECTION_SPEED,
    BprParams,
    ProtectionHorizon,
    build_bus_windows,
    build_snapshot,
    refresh_conflicts,
)
from jointlane.runner import run, simulate
from jointlane.scenario import load_scenario, resolve_scenario

import slow_path
from conftest import make_world, put_vehicle
from test_routing import _random_network

PARAMS = BprParams()


def _assert_checked(calls, strategy):
    assert calls["bus_windows"] and calls["snapshot"] and calls["refresh"] and calls["step"]
    assert calls["instantaneous_costs" if strategy == "drp" else "predicted_costs"]
    assert calls["reused_walks"] > 0


@pytest.mark.parametrize("strategy", ("drp", "prp", "proposed"))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_desk_small_fast_paths_match_plain(monkeypatch, desk_small, strategy, seed):
    calls = slow_path.install_shadow(monkeypatch)
    simulate(desk_small, strategy, seed)
    _assert_checked(calls, strategy)


def test_desk_large_fast_paths_match_plain(monkeypatch):
    calls = slow_path.install_shadow(monkeypatch)
    simulate(load_scenario(resolve_scenario("desk_large")), "proposed", 1, horizon=300.0)
    _assert_checked(calls, "proposed")


def _reports(out, scenario, strategy, seed, horizon):
    run(scenario, out, log_decisions=True, strategy=strategy, seed=seed, horizon=horizon,
        log_events=True, log_predictions=True)
    reports = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    assert len(reports) == 8
    return reports


@pytest.mark.parametrize(
    "scenario, strategy, seed, horizon",
    [("desk_small", strategy, seed, None)
     for strategy in ("drp", "prp", "proposed") for seed in (1, 2, 3)]
    + [("desk_large", "proposed", 1, 300.0)],
)
def test_plain_forms_write_the_same_reports(
    monkeypatch, tmp_path, scenario, strategy, seed, horizon
):
    fast = _reports(tmp_path / "fast", scenario, strategy, seed, horizon)
    slow_path.install_plain(monkeypatch)
    assert _reports(tmp_path / "plain", scenario, strategy, seed, horizon) == fast


# Edges are 100 m long. Offsets on a 12.5 m grid at these speeds put some
# entries exactly at dt; a speed of 0 projects at the floor speed.
SPEEDS = (0.0, MIN_PROJECTION_SPEED, 2.5, 5.0, 10.0)
OFFSETS = (0.0, 12.5, 25.0, 37.5, 50.0)


def _random_route(rng, model, vclass, first=None):
    """Edge-simple walk over the class's turns, as a cheapest path is; a bus
    keeps to dedicated lanes linked through the right lane. `first` narrows
    the first edge to the ids it holds."""
    bus = vclass is VehicleClass.BUS
    starts = [
        eid for eid, e in model.edges.items()
        if (e.dl or not bus) and (first is None or eid in first)
    ]
    if not starts:
        return None
    route = [rng.choice(starts)]
    while rng.random() < 0.8:
        onward = [
            e for e in model.next_edges(route[-1], vclass)
            if e not in route
            and (not bus or model.edges[e].dl and model.connects(route[-1], Lane.RIGHT, e))
        ]
        if not onward:
            break
        route.append(rng.choice(onward))
    return route


def _random_world(rng):
    model = _random_network(rng, dl=True)
    world = make_world(model)
    world.t = rng.choice((0.0, 90.0))
    ids = list(range(rng.randrange(1, 16)))
    rng.shuffle(ids)  # placement order is not id order
    for vid in ids:
        vclass = rng.choice((VehicleClass.HDV, VehicleClass.CAV, VehicleClass.CAV,
                             VehicleClass.BUS))
        route = _random_route(rng, model, vclass)
        if route is None:
            continue
        i = rng.randrange(len(route))
        extra = {}
        if vclass is VehicleClass.BUS and rng.random() < 0.3:
            extra = {"dwell": 20.0, "dwell_until": world.t + rng.choice((0.0, 5.0))}
        put_vehicle(
            world, vid, vclass, route, route_index=i,
            lane=rng.choice(model.permitted_lanes(vclass, route[i])),
            m=rng.choice((1, 2)),
            offset=rng.choice(OFFSETS) if rng.random() < 0.7 else rng.uniform(0.0, 50.0),
            speed=rng.choice(SPEEDS) if rng.random() < 0.7 else rng.uniform(0.0, 12.0),
            **extra,
        )
    return world


def _plant_state(world):
    return (
        world.t,
        [(key, list(q)) for key, q in world.queues.items() if q],
        [(v.id, v.segment, v.offset, v.speed, v.route_index, v.depart_time)
         for v in world.vehicles.values()],
        [v.id for v in slow_path.pending_in_order(world)],
        dict(world.injected),
        [v.id for v in world.retired],
    )


def _check_injection(seed):
    """Rounds of arrivals, most of them onto one or two busy first edges, so
    that entries fill and a backlog builds across mixed entry groups; the
    fast injection and step run on one world, the plain forms on its twin."""
    fast, plain = _random_world(random.Random(seed)), _random_world(random.Random(seed))
    tables = slow_path.plain_tables(fast)
    rng = random.Random(seed + 1)
    model = fast.model
    busy = rng.sample(sorted(model.edges), min(2, len(model.edges)))
    next_id = 100
    for _ in range(rng.randrange(1, 6)):
        arrivals = []
        for _ in range(rng.randrange(0, 30)):
            vclass = rng.choice((VehicleClass.HDV, VehicleClass.CAV, VehicleClass.CAV,
                                 VehicleClass.BUS))
            route = _random_route(rng, model, vclass, busy if rng.random() < 0.8 else None)
            if route is not None:
                arrivals.append((vclass, route))
        # the runner creates a tick's buses before its other arrivals
        arrivals.sort(key=lambda arrival: arrival[0] is not VehicleClass.BUS)
        for world, inject in ((fast, inject_demand), (plain, slow_path.inject_demand)):
            due = []
            for vid, (vclass, route) in enumerate(arrivals, next_id):
                first, last = model.edges[route[0]], model.edges[route[-1]]
                veh = VehicleState(
                    id=vid, vclass=vclass, route=list(route), route_index=0, offset=0.0,
                    speed=first.free_flow_speed, depart_time=world.t,
                    origin=first.frm, destination=last.to,
                )
                if vclass is not VehicleClass.BUS:
                    due.append(veh)
                elif not world.place_new(veh):
                    world.pending.append(veh)
            inject(world, due)
        next_id += len(arrivals)
        # the plain form keeps its backlog in the same store: its groups
        # must be id-ordered too
        for world in (fast, plain):
            slow_path.assert_plant_tables(world, tables)
        assert _plant_state(fast) == _plant_state(plain)
        for _ in range(rng.randrange(1, 12)):  # entries drain, some groups open
            dt = rng.choice((1.0, 2.5, 5.0))
            step(fast, dt)
            slow_path.step(plain, dt)
        assert _plant_state(fast) == _plant_state(plain)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_worlds_fast_paths_match_plain(rng):
    world = _random_world(rng)
    protection = ProtectionHorizon(rng.choice((10.0, 30.0)))
    dt = rng.choice((7.5, 15.0))
    windows = build_bus_windows(world, protection)
    slow_path.assert_same_windows(windows, slow_path.build_bus_windows(world, protection))
    snap = build_snapshot(world, windows, PARAMS, protection, dt)
    slow_path.assert_same_snapshot(
        snap, slow_path.build_snapshot(world, windows, PARAMS, protection, dt)
    )
    slow_path.assert_same_costs(predicted_cost_view(snap), slow_path.predicted_cost_view(snap))
    slow_path.assert_same_costs(
        instantaneous_cost_view(world), slow_path.instantaneous_cost_view(world)
    )
    # vehicles move on, some into a segment they held a stored entry for;
    # the refresh reads those entries against fresh windows
    for _ in range(rng.randrange(1, 4)):
        step(world, rng.choice((1.0, 2.5, 5.0)))
    windows = build_bus_windows(world, protection)
    slow_path.assert_same_windows(windows, slow_path.build_bus_windows(world, protection))
    slow_path.assert_same_conflicts(
        refresh_conflicts(world, snap, windows),
        slow_path.refresh_conflicts(world, snap, windows),
    )
    slow_path.assert_same_costs(
        instantaneous_cost_view(world), slow_path.instantaneous_cost_view(world)
    )
    _check_injection(rng.getrandbits(32))
    # vehicles held at a segment end keep segment, offset and route index, and
    # some of them lose their speed; those whose key is unchanged reuse walks
    snap = _check_memo(world, windows, protection, dt, snap)
    # a reroute and a stop with nothing else moved: every other walk is
    # reusable, unless dt changed
    others = [veh for veh in world.vehicles.values() if veh.vclass is not VehicleClass.BUS]
    changed = set()
    rerouted = [veh for veh in others if veh.route_index + 1 < len(veh.route)]
    if rerouted:
        veh = rng.choice(rerouted)
        veh.route = veh.route[: veh.route_index + 1]
        changed.add(veh.id)
    moving = [veh for veh in others if veh.speed > MIN_PROJECTION_SPEED]
    if moving:
        veh = rng.choice(moving)
        veh.speed = 0.0  # as a step leaves a vehicle held where it stands
        changed.add(veh.id)
    again = rng.choice((7.5, 15.0))
    memo = _check_memo(world, windows, protection, again, snap)
    if again == dt:
        assert all(
            (walk is snap.walks[vid]) == (vid not in changed) for vid, walk in memo.walks.items()
        )


def _check_memo(world, windows, protection, dt, previous):
    snap = build_snapshot(world, windows, PARAMS, protection, dt, previous=previous)
    slow_path.assert_same_snapshot(
        snap, slow_path.build_snapshot(world, windows, PARAMS, protection, dt)
    )
    return snap
