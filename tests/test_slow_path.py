"""The fast prediction walk, window conflicts and cost views against the plain
forms in `slow_path`, on whole runs and on random hand-placed worlds."""

import pytest
from hypothesis import given, settings, strategies as st

from jointlane.control import instantaneous_cost_view, predicted_cost_view
from jointlane.engine import step
from jointlane.network import Lane, VehicleClass
from jointlane.prediction import (
    MIN_PROJECTION_SPEED,
    BprParams,
    ProtectionHorizon,
    build_bus_windows,
    build_snapshot,
    refresh_conflicts,
)
from jointlane.runner import simulate
from jointlane.scenario import load_scenario, resolve_scenario

import slow_path
from conftest import make_world, put_vehicle
from test_routing import _random_network

PARAMS = BprParams()


def _assert_checked(calls, strategy):
    assert calls["bus_windows"] and calls["snapshot"] and calls["refresh"]
    assert calls["instantaneous_costs" if strategy == "drp" else "predicted_costs"]


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


# Edges are 100 m long. Offsets on a 12.5 m grid at these speeds put some
# entries exactly at dt; a speed of 0 projects at the floor speed.
SPEEDS = (0.0, MIN_PROJECTION_SPEED, 2.5, 5.0, 10.0)
OFFSETS = (0.0, 12.5, 25.0, 37.5, 50.0)


def _random_route(rng, model, vclass):
    """Edge-simple walk over the class's turns, as a cheapest path is; a bus
    keeps to dedicated lanes linked through the right lane."""
    bus = vclass is VehicleClass.BUS
    starts = [eid for eid, e in model.edges.items() if e.dl or not bus]
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
