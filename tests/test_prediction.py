import random

import pytest

from jointlane.engine import StopVisit, _retire, step
from jointlane.network import BusStop, Lane, SegmentRef, VehicleClass
from jointlane.prediction import (
    BprParams,
    BprRangeError,
    PredictionError,
    ProtectionHorizon,
    bpr_time,
    build_bus_windows,
    build_snapshot,
    refresh_conflicts,
)

import slow_path
from conftest import make_model, make_world, put_vehicle
from slow_path import (
    bus_eta,
    bus_overlap_indicator,
    entry_indicator,
    entry_time,
    is_dwelling,
    pos_in_edge,
    protection_window,
)

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


def test_bpr_overflow_is_a_range_error():
    # below 1 the power underflows harmlessly; past the float range it raises
    assert bpr_time(10.0, 1.0, 2.0, BprParams(beta=2000.0)) == 10.0
    message = r"^control: beta = 2000 takes .* at flow / capacity = 1\.5$"
    with pytest.raises(BprRangeError, match=message):
        bpr_time(10.0, 3.0, 2.0, BprParams(beta=2000.0))
    # the products overflow to inf without an error, so the result is tested
    assert bpr_time(10.0, 1.0, 2.0, BprParams(alpha=1e308)) == 10.0 * (1.0 + 1e308 / 16.0)
    message = r"^control: alpha = 1e\+308 and beta = 4 take .* at flow / capacity = 2$"
    with pytest.raises(BprRangeError, match=message):
        bpr_time(10.0, 4.0, 2.0, BprParams(alpha=1e308))
    with pytest.raises(BprRangeError):
        bpr_time(1e300, 1.0, 1.0, BprParams(alpha=1e10))


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
    assert is_dwelling(bus)
    eta = bus_eta(model, bus, SegmentRef(2, Lane.RIGHT, 1), now=world.t)
    residual = bus.dwell_until - world.t
    remaining = model.edges[1].length - pos_in_edge(model, bus)
    assert eta == pytest.approx(residual + remaining / 10.0)


def test_protection_window_shape(dl_chain3):
    assert protection_window(100.0, 30.0) == (70.0, 130.0)
    assert protection_window(10.0, 30.0) == (0.0, 40.0)
    with pytest.raises(PredictionError):
        protection_window(-1.0, 30.0)
    # the build opens the same windows: entries 100 m and 500 m ahead at
    # 5 m/s are 20 s and 100 s away, and the held segment's tau is 0
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=0.0, speed=5.0)
    windows = build_bus_windows(world, ProtectionHorizon(30.0))
    assert windows[SegmentRef(0, Lane.RIGHT, 1)] == [(0, 0.0, 30.0)]
    assert windows[SegmentRef(0, Lane.RIGHT, 2)] == [(0, 0.0, 50.0)]
    assert windows[SegmentRef(2, Lane.RIGHT, 2)] == [(0, 70.0, 130.0)]


def _eta_model():
    # free-flow speeds 10, 20 and 5 m/s; stop 1 sits at edge 2's midpoint,
    # the entrance of its downstream half
    return make_model(
        [(0, 1, 2, 200.0, 10.0, True), (1, 2, 3, 200.0, 20.0, True),
         (2, 3, 4, 200.0, 5.0, True)],
        bus_stops=[BusStop(id=0, edge=0, offset=150.0), BusStop(id=1, edge=2, offset=100.0)],
    )


def _windows_by_segment(world):
    return {
        (seg.edge, seg.m): spans
        for seg, spans in build_bus_windows(world, ProtectionHorizon(30.0)).items()
    }


def test_dwelling_bus_eta_sums_free_flow_edge_by_edge():
    model = _eta_model()
    world = make_world(model)
    world.t = 10.0
    # dwelling at stop 0, 150 m into edge 0, until 40 s: 30 s of dwell left
    bus = put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=2,
                      offset=50.0, speed=0.0, dwell=60.0, dwell_until=40.0, next_stop=1,
                      stop_plan=(StopVisit(0, 0.0), StopVisit(1, 100.0)))
    assert is_dwelling(bus)
    # 50 m left on edge 0 at 10 m/s is 5 s, each edge-1 half at 20 m/s 5 s,
    # each edge-2 half at 5 m/s 20 s; 30 s of residual dwell on every entry.
    # Stop 1 sits exactly at (2, 2)'s entrance, so no dwell is added to it.
    assert _windows_by_segment(world) == {
        (0, 2): [(0, 10.0, 40.0)],                  # held: tau = 0
        (1, 1): [(0, 10.0 + 5.0, 10.0 + 65.0)],     # tau = 35
        (1, 2): [(0, 10.0 + 10.0, 10.0 + 70.0)],    # tau = 5 + 5 + 30
        (2, 1): [(0, 10.0 + 15.0, 10.0 + 75.0)],    # tau = 5 + 10 + 30
        (2, 2): [(0, 10.0 + 35.0, 10.0 + 95.0)],    # tau = 5 + 10 + 20 + 30
    }


def test_slow_bus_eta_floors_the_speed_and_counts_stops_strictly_before():
    model = _eta_model()
    world = make_world(model)
    # 50 m into edge 0, creeping below the floor: every distance runs at
    # 0.1 m/s. Stop 0 lies 100 m ahead and adds its 20 s dwell from (1, 1)
    # on; stop 1 lies 450 m ahead, exactly at (2, 2)'s entrance.
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=50.0, speed=0.05, dwell=20.0,
                stop_plan=(StopVisit(0, 0.0), StopVisit(1, 100.0)))
    assert _windows_by_segment(world) == {
        (0, 1): [(0, 0.0, 30.0)],
        (0, 2): [(0, 470.0, 530.0)],      # tau = 50 / 0.1
        (1, 1): [(0, 1490.0, 1550.0)],    # tau = 150 / 0.1 + 20
        (1, 2): [(0, 2490.0, 2550.0)],    # tau = 250 / 0.1 + 20
        (2, 1): [(0, 3490.0, 3550.0)],    # tau = 350 / 0.1 + 20
        (2, 2): [(0, 4490.0, 4550.0)],    # tau = 450 / 0.1 + 20, not + 40
    }


def test_stops_exactly_at_entrances_count_only_for_the_entrances_past_them():
    # 200 m edges at 10 m/s. Stop 0 sits at edge 0's midpoint, the entrance
    # of the downstream half the bus is heading for; stop 1 at the very end
    # of edge 1, the entrance of edge 2. The stop plan lists the farther
    # stop first, so the stop distances are not in walk order.
    model = make_model(
        [(0, 1, 2, 200.0, 10.0, True), (1, 2, 3, 200.0, 10.0, True),
         (2, 3, 4, 200.0, 10.0, True)],
        bus_stops=[BusStop(id=0, edge=1, offset=200.0), BusStop(id=1, edge=0, offset=100.0)],
    )
    world = make_world(model)
    bus = put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                      offset=50.0, speed=10.0, dwell=20.0,
                      stop_plan=(StopVisit(0, 0.0), StopVisit(1, 100.0)))
    # stop distances 350 (stop 0) and 50 (stop 1), each exactly at an entrance
    expected = {
        (0, 1): [(0, 0.0, 30.0)],       # held: tau = 0
        (0, 2): [(0, 0.0, 35.0)],       # tau = 50 / 10, stop 1 not before it
        (1, 1): [(0, 5.0, 65.0)],       # tau = 150 / 10 + 20
        (1, 2): [(0, 15.0, 75.0)],      # tau = 250 / 10 + 20
        (2, 1): [(0, 25.0, 85.0)],      # tau = 350 / 10 + 20, stop 0 not before it
        (2, 2): [(0, 55.0, 115.0)],     # tau = 450 / 10 + 40
    }
    assert _windows_by_segment(world) == expected
    plain = slow_path.build_bus_windows(world, ProtectionHorizon(30.0))
    assert {(seg.edge, seg.m): spans for seg, spans in plain.items()} == expected
    assert bus_eta(model, bus, SegmentRef(2, Lane.RIGHT, 1), now=0.0) == 55.0


def test_overlap_closed_boundary(dl_chain3):
    world = make_world(dl_chain3)
    # bus entry predicted 400 m / 8 m/s = 50 s ahead: window [20, 80]
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=0.0, speed=8.0)
    snap = _snapshot(world)
    seg = SegmentRef(2, Lane.RIGHT, 1)
    spans = snap.windows.get(seg, [])
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
        for seg in windows:
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
                if any(lo <= when <= hi for _, lo, hi in windows[seg]):
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
    windows = {seg: [(9, 0.5, 1.5), (9, 15.0, 20.0)]}
    fresh = refresh_conflicts(world, snap, windows)
    assert fresh.overlap == {seg: {1: 0.0, 2: 20.0}}
    assert fresh.conflict == {seg: pytest.approx(2 / 60)}
    assert fresh.bus_time[seg] == bpr_time(
        dl_chain3.t0(seg), 2 / 60, dl_chain3.capacity(seg), PARAMS
    )
    assert fresh.windows is windows
    assert fresh.vehicles[1].segment.edge == 1


# -- window conflicts from the DL index and the queues, against the plain scan --


def _refresh_matches_plain(world, snap, windows):
    fresh = refresh_conflicts(world, snap, windows)
    slow_path.assert_same_conflicts(fresh, slow_path.refresh_conflicts(world, snap, windows))
    return fresh


def _upstream_cavs(world, ids):
    """Right-lane CAVs on edge 0 whose stored entries into (1, R, 1) are
    0.5, 1, 1.5, ... s away, one per id."""
    for i, vid in enumerate(ids):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT, m=2,
                    offset=95.0 - 5.0 * i, speed=10.0)


def test_refresh_drops_a_cav_retired_since_the_build(dl_chain3):
    world = make_world(dl_chain3)
    _upstream_cavs(world, (1, 2, 3))
    snap = _snapshot(world)
    seg = SegmentRef(1, Lane.RIGHT, 1)
    windows = {seg: [(9, 0.0, 10.0)]}
    assert list(_refresh_matches_plain(world, snap, windows).overlap[seg]) == [1, 2, 3]
    veh = world.vehicles[2]
    _retire(world, veh, veh.segment)
    # the DL index still lists vehicle 2's stored entry
    assert [vid for vid, _ in snap.dl_index[seg]] == [1, 2, 3]
    assert _refresh_matches_plain(world, snap, windows).overlap == {seg: {1: 0.5, 3: 1.5}}


def test_refresh_counts_a_cav_injected_onto_a_live_span(dl_chain3):
    world = make_world(dl_chain3)
    _upstream_cavs(world, (1,))
    snap = _snapshot(world)
    seg = SegmentRef(1, Lane.RIGHT, 1)
    # one window holding now, on the span the new CAV enters in the left lane
    put_vehicle(world, 5, VehicleClass.CAV, [1, 2], lane=Lane.LEFT, m=1,
                offset=30.0, speed=10.0)
    assert 5 not in snap.tau
    windows = {seg: [(9, 0.0, 10.0)]}
    fresh = _refresh_matches_plain(world, snap, windows)
    assert fresh.overlap == {seg: {1: 0.5, 5: 0.0}}


def test_refresh_leaves_an_entry_into_the_own_span_to_the_queues(dl_chain3):
    world = make_world(dl_chain3)
    cav = put_vehicle(world, 1, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT, m=2,
                      offset=95.0, speed=10.0)
    snap = _snapshot(world)
    seg = SegmentRef(1, Lane.RIGHT, 1)
    assert snap.dl_index[seg] == [(1, 0.5)]
    step(world, 1.0)
    assert (cav.segment.edge, cav.segment.m) == (1, 1)
    # the stored entry (at 0.5 s) falls in the window, but the CAV is on the
    # segment's span now, and at 1 s the window is closed
    closed = {seg: [(9, 0.0, 0.75)]}
    assert _refresh_matches_plain(world, snap, closed).overlap == {}
    # a window holding now counts it as an occupant, at entry time 0
    live = {seg: [(9, 0.0, 2.0)]}
    assert _refresh_matches_plain(world, snap, live).overlap == {seg: {1: 0.0}}


def test_refresh_sorts_members_interleaved_across_both_lanes(dl_chain3):
    world = make_world(dl_chain3)
    # queue order follows offsets, so each lane's queue is out of id order
    for vid, lane, off in ((5, Lane.LEFT, 90.0), (1, Lane.LEFT, 50.0), (3, Lane.LEFT, 10.0),
                           (4, Lane.RIGHT, 80.0), (6, Lane.RIGHT, 40.0), (2, Lane.RIGHT, 20.0)):
        put_vehicle(world, vid, VehicleClass.CAV, [1, 2], lane=lane, m=1, offset=off,
                    speed=10.0)
    put_vehicle(world, 7, VehicleClass.HDV, [1, 2], lane=Lane.LEFT, m=1, offset=30.0,
                speed=10.0)
    _upstream_cavs(world, (0, 8))
    snap = _snapshot(world)
    seg = SegmentRef(1, Lane.RIGHT, 1)
    assert world.rows[SegmentRef(1, Lane.LEFT, 1)].queue == [5, 1, 7, 3]
    windows = {seg: [(9, 0.0, 10.0)]}
    fresh = _refresh_matches_plain(world, snap, windows)
    assert list(fresh.overlap[seg].items()) == [
        (0, 0.5), (1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0), (6, 0.0), (8, 1.0)
    ]


def _assert_plain_build(world, snap, windows, protection, dt):
    slow_path.assert_same_snapshot(
        snap, slow_path.build_snapshot(world, windows, PARAMS, protection, dt)
    )
    slow_path.assert_carried_state(snap)


def _mixed_world(model):
    world = make_world(model)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=40.0, speed=8.0)
    _upstream_cavs(world, (1, 2, 3))
    for vid, off in ((4, 95.0), (5, 60.0), (6, 97.0)):
        put_vehicle(world, vid, VehicleClass.HDV, [0, 1, 2], lane=Lane.LEFT, m=2,
                    offset=off, speed=5.0)
    put_vehicle(world, 7, VehicleClass.CAV, [0, 1, 2], lane=Lane.LEFT, m=2,
                offset=99.0, speed=2.0)
    return world


def test_build_after_another_dt_starts_the_counts_afresh(dl_chain3):
    world = _mixed_world(dl_chain3)
    protection = ProtectionHorizon(30.0)
    windows = build_bus_windows(world, protection)
    first = build_snapshot(world, windows, PARAMS, protection, 7.5)
    snap = build_snapshot(world, windows, PARAMS, protection, 15.0, previous=first)
    assert not any(snap.walks[vid] is walk for vid, walk in first.walks.items())
    _assert_plain_build(world, snap, windows, protection, 15.0)


def test_build_after_retirements_and_a_reroute_carries_exact_counts(dl_chain3):
    world = _mixed_world(dl_chain3)
    protection = ProtectionHorizon(30.0)
    windows = build_bus_windows(world, protection)
    first = build_snapshot(world, windows, PARAMS, protection, 15.0)
    assert first.hdv_counts[SegmentRef(1, Lane.LEFT, 1)] == 3
    assert first.cav_counts[SegmentRef(1, Lane.LEFT, 1)] == 1  # CAV 7
    # a CAV and an HDV, both with entries within dt, and CAV 7
    for vid in (2, 4, 7):
        veh = world.vehicles[vid]
        _retire(world, veh, veh.segment)
    rerouted = world.vehicles[6]
    rerouted.route = rerouted.route[:1]  # a new list: no entry past edge 0
    snap = build_snapshot(world, windows, PARAMS, protection, 15.0, previous=first)
    assert snap.walks[1] is first.walks[1] and snap.walks[6] is not first.walks[6]
    assert snap.hdv_counts[SegmentRef(1, Lane.LEFT, 1)] == 1
    assert SegmentRef(1, Lane.LEFT, 1) not in snap.cav_counts  # fell to zero
    _assert_plain_build(world, snap, windows, protection, 15.0)
    fresh = build_snapshot(world, windows, PARAMS, protection, 15.0)
    assert list(snap.inflow.items()) == list(fresh.inflow.items())
    # a carried count that falls to zero is dropped, so the carried counts
    # are the fresh ones
    assert snap.hdv_counts == fresh.hdv_counts
    assert snap.cav_counts == fresh.cav_counts
