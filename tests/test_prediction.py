import random

import pytest

from jointlane.engine import StopVisit, step
from jointlane.network import BusStop, Lane, SegmentRef, VehicleClass
from jointlane.prediction import (
    BprParams,
    BusWindows,
    PredictionError,
    ProtectionHorizon,
    bpr_time,
    build_bus_windows,
    build_snapshot,
    protection_window,
    refresh_conflicts,
)

from conftest import make_model, make_world, put_vehicle
from slow_path import bus_eta, bus_overlap_indicator, entry_indicator, entry_time

PARAMS = BprParams()


def test_bpr_free_flow_anchor():
    assert bpr_time(10.0, 0.0, 0.5, PARAMS) == 10.0


def test_bpr_at_capacity_anchor():
    assert bpr_time(10.0, 0.5, 0.5, PARAMS) == pytest.approx(11.5, abs=1e-12)


def test_bpr_reference_value():
    # t0=10, C=2, f=1: 10 * (1 + 0.15 * 0.5^4) = 10.09375 exactly
    assert bpr_time(10.0, 1.0, 2.0, PARAMS) == 10.09375


def test_bpr_monotone_in_flow():
    rng = random.Random(5)
    for _ in range(200):
        t0 = rng.uniform(1, 50)
        cap = rng.uniform(0.01, 2.0)
        f1 = rng.uniform(0, 3 * cap)
        f2 = f1 + rng.uniform(0, cap)
        assert bpr_time(t0, f2, cap, PARAMS) >= bpr_time(t0, f1, cap, PARAMS) >= t0


def test_bpr_rejects_bad_inputs():
    with pytest.raises(PredictionError):
        bpr_time(0.0, 1.0, 1.0, PARAMS)
    with pytest.raises(PredictionError):
        bpr_time(10.0, 1.0, 0.0, PARAMS)
    with pytest.raises(PredictionError):
        bpr_time(10.0, -1.0, 1.0, PARAMS)
    with pytest.raises(PredictionError):
        BprParams(alpha=0.0)
    with pytest.raises(PredictionError):
        ProtectionHorizon(horizon=0.0)


def test_entry_time_direct_division(chain3):
    world = make_world(chain3)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], m=1, offset=0.0, speed=10.0)
    # entrance of the downstream half sits 100 m ahead
    assert entry_time(chain3, veh, SegmentRef(0, Lane.LEFT, 2)) == 10.0
    # next edge entrance: 200 m
    assert entry_time(chain3, veh, SegmentRef(1, Lane.LEFT, 1)) == 20.0


def test_entry_time_zero_at_entrance(chain3):
    world = make_world(chain3)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], m=1, offset=100.0, speed=10.0)
    assert entry_time(chain3, veh, SegmentRef(0, Lane.LEFT, 2)) == 0.0


def test_entry_time_off_route_is_none(chain3):
    world = make_world(chain3)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0], m=1, offset=0.0, speed=10.0)
    assert entry_time(chain3, veh, SegmentRef(1, Lane.LEFT, 1)) is None
    # own segment has no forward entrance
    assert entry_time(chain3, veh, SegmentRef(0, Lane.LEFT, 1)) is None


def test_entry_time_uses_speed_floor(chain3):
    world = make_world(chain3)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1], m=1, offset=50.0, speed=0.0)
    tau = entry_time(chain3, veh, SegmentRef(0, Lane.LEFT, 2))
    assert tau == 50.0 / 0.1


def test_entry_time_hdv_projected_to_left_on_dl(dl_chain3):
    world = make_world(dl_chain3)
    veh = put_vehicle(world, 0, VehicleClass.HDV, [0, 1], lane=Lane.LEFT, m=1,
                      offset=0.0, speed=10.0)
    assert entry_time(dl_chain3, veh, SegmentRef(1, Lane.LEFT, 1)) == 20.0
    assert entry_time(dl_chain3, veh, SegmentRef(1, Lane.RIGHT, 1)) is None


def test_entry_indicator_boundaries():
    assert entry_indicator(0.0, 15.0) == 1
    assert entry_indicator(15.0, 15.0) == 0  # half-open interval
    assert entry_indicator(10.0, 15.0) == 1
    assert entry_indicator(14.999999, 15.0) == 1
    assert entry_indicator(None, 15.0) == 0


def _snapshot(world, horizon=30.0, dt=15.0):
    protection = ProtectionHorizon(horizon)
    windows = build_bus_windows(world, protection)
    return build_snapshot(world, windows, PARAMS, protection, dt)


def test_dl_and_gpl_inflow_counts(dl_chain3):
    # at 5 m/s the next entrance is 1..6 s away but the one after is past 15 s
    world = make_world(dl_chain3)
    for vid, off in ((0, 95.0), (1, 90.0), (2, 85.0)):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1], lane=Lane.RIGHT, m=2,
                    offset=off, speed=5.0)
    for vid, off in ((3, 95.0), (4, 90.0)):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1], lane=Lane.LEFT, m=2,
                    offset=off, speed=5.0)
    for vid, off in ((5, 85.0), (6, 80.0), (7, 75.0), (8, 70.0)):
        put_vehicle(world, vid, VehicleClass.HDV, [0, 1], lane=Lane.LEFT, m=2,
                    offset=off, speed=5.0)
    snap = _snapshot(world)
    assert snap.inflow.get(SegmentRef(1, Lane.RIGHT, 1), 0.0) == pytest.approx(3 / 15)
    assert snap.inflow.get(SegmentRef(1, Lane.LEFT, 1), 0.0) == pytest.approx(6 / 15)
    assert snap.inflow.get(SegmentRef(1, Lane.LEFT, 2), 0.0) == 0.0


def test_gpl_inflow_hdv_only(dl_chain3):
    world = make_world(dl_chain3)
    for vid, off in ((0, 95.0), (1, 90.0), (2, 85.0)):
        put_vehicle(world, vid, VehicleClass.HDV, [0, 1], lane=Lane.LEFT, m=2,
                    offset=off, speed=5.0)
    snap = _snapshot(world)
    assert snap.inflow.get(SegmentRef(1, Lane.LEFT, 1), 0.0) == pytest.approx(3 / 15)
    assert snap.inflow.get(SegmentRef(1, Lane.RIGHT, 1), 0.0) == 0.0


def test_predicted_time_never_below_free_flow(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="proposed", seed=1, horizon=300.0)
    # rebuild a snapshot on the final world and check the bound everywhere
    snap = _snapshot(result.world)
    for seg in desk_small.model.all_segments():
        assert snap.predicted(seg) >= desk_small.model.t0(seg) - 1e-12


def _stop_model():
    return make_model(
        [(0, 1, 2, 200.0, 10.0, True), (1, 2, 3, 200.0, 10.0, True),
         (2, 3, 4, 200.0, 10.0, True)],
        bus_stops=[BusStop(id=0, edge=1, offset=100.0)],
    )


def test_bus_eta_plain_distance():
    model = _stop_model()
    world = make_world(model)
    # 100 m left on edge 0 plus edge 1: 300 m at 10 m/s, no stops to serve
    bus = put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT,
                      m=1, offset=100.0, speed=10.0)
    bus.stop_plan = ()
    assert bus_eta(model, bus, SegmentRef(2, Lane.RIGHT, 1), now=0.0) == 30.0
    assert bus_eta(model, bus, bus.segment, now=0.0) == 0.0


def test_bus_eta_adds_intermediate_dwell():
    model = _stop_model()
    world = make_world(model)
    # same 300 m but one 60 s stop lies 200 m ahead on edge 1
    bus = put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT,
                      m=1, offset=100.0, speed=10.0,
                      stop_plan=(StopVisit(0, 25.0),), dwell=60.0)
    assert bus_eta(model, bus, SegmentRef(2, Lane.RIGHT, 1), now=0.0) == 90.0


def test_bus_eta_while_dwelling_uses_free_flow_plus_residual():
    model = _stop_model()
    world = make_world(model)
    bus = put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT,
                      m=1, offset=0.0, speed=10.0,
                      stop_plan=(StopVisit(0, 25.0),), dwell=60.0)
    for _ in range(31):
        from jointlane.engine import bus_service

        bus_service(world, world.t)
        step(world, 1.0)
    assert bus.is_dwelling
    eta = bus_eta(model, bus, SegmentRef(2, Lane.RIGHT, 1), now=world.t)
    residual = bus.dwell_until - world.t
    remaining = model.edges[1].length - bus.pos_in_edge(model)
    assert eta == pytest.approx(residual + remaining / 10.0)


def test_protection_window_shape():
    assert protection_window(100.0, 30.0) == (70.0, 130.0)
    assert protection_window(10.0, 30.0) == (0.0, 40.0)
    with pytest.raises(PredictionError):
        protection_window(-1.0, 30.0)


def test_overlap_closed_boundary(dl_chain3):
    world = make_world(dl_chain3)
    # bus entry predicted 400 m / 8 m/s = 50 s ahead: window [20, 80]
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=0.0, speed=8.0)
    snap = _snapshot(world)
    seg = SegmentRef(2, Lane.RIGHT, 1)
    spans = snap.windows.covering(seg)
    assert spans and spans[0][1:] == (20.0, 80.0)
    # a CAV arriving exactly at the closed window end counts
    cav = put_vehicle(world, 1, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT,
                      m=1, offset=0.0, speed=5.0)
    snap = _snapshot(world)
    assert bus_overlap_indicator(snap, 1, seg) == 1
    # any later arrival falls past the end
    cav.speed = 4.0
    snap = _snapshot(world)
    assert bus_overlap_indicator(snap, 1, seg) == 0


def test_occupant_counts_as_overlapping(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1], lane=Lane.RIGHT, m=1,
                offset=95.0, speed=10.0)
    cav = put_vehicle(world, 1, VehicleClass.CAV, [0, 1], lane=Lane.RIGHT, m=2,
                      offset=10.0, speed=10.0)
    snap = _snapshot(world)
    seg = SegmentRef(0, Lane.RIGHT, 2)
    assert bus_overlap_indicator(snap, 1, seg) == 1  # inside the segment now
    # the laterally adjacent GPL vehicle also counts for the entry constraint
    gpl = put_vehicle(world, 2, VehicleClass.CAV, [0, 1], lane=Lane.LEFT, m=2,
                      offset=10.0, speed=10.0)
    snap = _snapshot(world)
    assert bus_overlap_indicator(snap, 2, seg) == 1


def test_conflict_inflow_counts(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=95.0, speed=10.0)
    seg = SegmentRef(1, Lane.RIGHT, 1)
    # three CAVs arriving just behind the bus, inside its window
    for vid, off in ((1, 90.0), (2, 85.0), (3, 80.0)):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT,
                    m=2, offset=off, speed=10.0)
    snap = _snapshot(world)
    assert snap.conflict.get(seg, 0.0) == pytest.approx(3 / 60)


def test_conflict_inflow_matches_brute_force_on_random_worlds():
    rng = random.Random(11)
    model = make_model(
        [(0, 1, 2, 200.0, 10.0, True), (1, 2, 3, 200.0, 10.0, True),
         (2, 3, 4, 200.0, 10.0, True), (3, 4, 5, 200.0, 10.0, True)]
    )
    for trial in range(50):
        world = make_world(model)
        world.t = 10.0 * trial
        put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2, 3], lane=Lane.RIGHT,
                    m=rng.choice((1, 2)), offset=rng.uniform(0, 100),
                    speed=rng.uniform(2, 10))
        n = rng.randrange(0, 12)
        for vid in range(1, n + 1):
            start = rng.randrange(0, 3)
            put_vehicle(
                world, vid, VehicleClass.CAV, list(range(start, 4)),
                lane=rng.choice((Lane.LEFT, Lane.RIGHT)),
                m=rng.choice((1, 2)), offset=rng.uniform(0, 100),
                speed=rng.uniform(0.5, 12),
            )
        for vid in range(n + 1, n + 1 + rng.randrange(0, 4)):
            put_vehicle(
                world, vid, VehicleClass.HDV, list(range(rng.randrange(0, 3), 4)),
                m=rng.choice((1, 2)), offset=rng.uniform(0, 100),
                speed=rng.uniform(0.5, 12),
            )
        protection = ProtectionHorizon(30.0)
        windows = build_bus_windows(world, protection)
        dt = 15.0
        snap = build_snapshot(world, windows, PARAMS, protection, dt)
        for seg in windows.windows:
            expected = {}
            for vid, veh in sorted(world.vehicles.items()):
                if veh.vclass is not VehicleClass.CAV:
                    continue
                own = veh.segment
                if (own.edge, own.m) == (seg.edge, seg.m):
                    tau = 0.0
                    when = world.t
                else:
                    tau = entry_time(model, veh, seg)
                    if tau is None:
                        continue
                    when = world.t + tau
                if any(lo <= when <= hi for _, lo, hi in windows.covering(seg)):
                    expected[vid] = tau
            assert snap.conflict[seg] == pytest.approx(len(expected) / 60.0)
            assert snap.overlap.get(seg, {}) == expected
            assert list(snap.overlap.get(seg, {})) == sorted(expected)
        for vid, times in snap.tau.items():
            assert world.vehicles[vid].vclass is VehicleClass.CAV
            for seg, tau in times.items():
                assert seg in model.dl_segments or tau < dt


def test_snapshot_rebuild_is_idempotent(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=40.0, speed=8.0)
    for vid, off in ((1, 90.0), (2, 60.0)):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT,
                    m=2, offset=off, speed=10.0)
    a = _snapshot(world)
    b = _snapshot(world)
    assert a.inflow == b.inflow
    assert a.predicted_time == b.predicted_time
    assert a.overlap == b.overlap
    assert a.conflict == b.conflict
    assert a.bus_time == b.bus_time


def test_refresh_on_unchanged_world_reproduces_snapshot(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=40.0, speed=8.0)
    for vid, lane, off in ((1, Lane.RIGHT, 90.0), (2, Lane.RIGHT, 60.0),
                           (3, Lane.LEFT, 20.0)):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1, 2], lane=lane,
                    m=2, offset=off, speed=10.0)
    snap = _snapshot(world)
    assert snap.overlap and snap.conflict
    fresh = refresh_conflicts(world, snap, snap.windows)
    assert fresh.overlap == snap.overlap
    assert fresh.conflict == snap.conflict
    assert fresh.bus_time == snap.bus_time
    assert fresh.vehicles == snap.vehicles
    assert fresh.t == snap.t
    assert fresh.tau is snap.tau
    assert fresh.inflow is snap.inflow
    assert fresh.predicted_time is snap.predicted_time


def test_refresh_counts_occupants_now_and_others_at_snapshot_time(dl_chain3):
    world = make_world(dl_chain3)
    # a GPL CAV about to cross onto edge 1: no projected entry into the DL
    mover = put_vehicle(world, 1, VehicleClass.CAV, [0, 1, 2], lane=Lane.LEFT,
                        m=2, offset=95.0, speed=10.0)
    # DL CAVs projected to reach edge 1 after 20 s and 50 s
    put_vehicle(world, 2, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=0.0, speed=10.0)
    put_vehicle(world, 3, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=50.0, speed=3.0)
    snap = _snapshot(world)
    seg = SegmentRef(1, Lane.RIGHT, 1)
    assert seg not in snap.tau[1]
    assert snap.tau[2][seg] == 20.0 and snap.tau[3][seg] == 50.0
    step(world, 1.0)
    assert world.t == 1.0 and (mover.edge_id, mover.segment.m) == (1, 1)
    # one span around now, one ending at the stored entry of vehicle 2
    # (counted from snapshot.t = 0, not from world.t = 1)
    windows = BusWindows(windows={seg: [(9, 0.5, 1.5), (9, 15.0, 20.0)]})
    fresh = refresh_conflicts(world, snap, windows)
    assert fresh.overlap == {seg: {1: 0.0, 2: 20.0}}
    assert fresh.conflict == {seg: pytest.approx(2 / 60)}
    assert fresh.bus_time[seg] == bpr_time(
        dl_chain3.t0(seg), 2 / 60, dl_chain3.capacity(seg), PARAMS
    )
    assert fresh.windows is windows
    assert fresh.vehicles[1].segment.edge == 1
