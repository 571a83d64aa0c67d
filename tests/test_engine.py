import itertools

import pytest

from jointlane.engine import (
    SPEED_FLOOR,
    BusLineSpec,
    DemandEntry,
    EngineClock,
    EngineError,
    StopVisit,
    VehicleState,
    World,
    bus_service,
    execute_lane_change,
    generate_arrivals,
    inject_demand,
    step,
)
from jointlane.network import Lane, SegmentRef, VehicleClass

from conftest import make_model, make_world, put_vehicle
from slow_path import pending_in_order


def test_uncongested_advance_covers_speed_times_dt(chain3):
    world = make_world(chain3)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2])
    step(world, 1.0)
    assert veh.offset == 10.0
    assert veh.speed == 10.0
    assert world.t == 1.0


def test_speed_floor_at_jam_density():
    model = make_model([(0, 1, 2, 200.0, 10.0, False)], jam=4)
    world = make_world(model)
    for vid in range(4):
        put_vehicle(world, vid, VehicleClass.CAV, [0], offset=10.0 * (4 - vid))
    key = SegmentRef(0, Lane.LEFT, 1)
    assert world.segment_speed(key) == 10.0 * SPEED_FLOOR


def test_spillback_blocks_transfer():
    model = make_model([(0, 1, 2, 200.0, 10.0, False)], jam=2)
    world = make_world(model)
    # downstream half full, one vehicle at the upstream boundary
    put_vehicle(world, 0, VehicleClass.CAV, [0], m=2, offset=50.0)
    put_vehicle(world, 1, VehicleClass.CAV, [0], m=2, offset=40.0)
    waiting = put_vehicle(world, 2, VehicleClass.CAV, [0], m=1, offset=100.0)
    step(world, 1.0)
    assert waiting.segment.m == 1
    assert waiting.offset == 100.0
    assert waiting.speed == 0.0


def test_fifo_order_never_changes(chain3):
    world = make_world(chain3)
    lead = put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], offset=50.0)
    follow = put_vehicle(world, 1, VehicleClass.CAV, [0, 1, 2], offset=49.0)
    key = SegmentRef(0, Lane.LEFT, 1)
    for _ in range(5):
        order = list(world.queues[key])
        step(world, 1.0)
        new = world.queues.get(key, [])
        shared = [v for v in new if v in order]
        assert shared == [v for v in order if v in new]
        assert follow.offset <= lead.offset or lead.segment.m > follow.segment.m


def test_follower_capped_by_slow_leader(chain3):
    world = make_world(chain3)
    lead = put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], offset=12.0,
                       lane=Lane.LEFT)
    lead.vclass = VehicleClass.CAV  # plain slow leader, not a bus
    lead.dwell_until = None
    follow = put_vehicle(world, 1, VehicleClass.CAV, [0, 1, 2], offset=11.0)
    # two vehicles on the segment: both move at the same segment speed, the
    # follower may never pass the leader
    for _ in range(20):
        step(world, 1.0)
        if follow.segment.m == lead.segment.m and follow.segment == lead.segment:
            assert follow.offset <= lead.offset


def test_lane_change_same_offset_and_log(dl_chain3):
    world = make_world(dl_chain3)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT,
                      m=2, offset=33.0)
    world.t = 42.0
    assert execute_lane_change(world, 0, -1) is True
    assert veh.segment.lane is Lane.LEFT
    assert veh.segment.m == 2
    assert veh.offset == 33.0
    assert veh.lane_change_log == [42.0]
    world.t = 43.0
    assert execute_lane_change(world, 0, 1, reason="protect") is True
    assert veh.lane_change_log == [42.0, 43.0]  # forced changes feed the penalty too
    assert [row[6] for row in world.lane_changes] == ["utility", "protect"]


def test_lane_change_blocked_by_jam():
    model = make_model([(0, 1, 2, 200.0, 10.0, True)], jam=1)
    world = make_world(model)
    put_vehicle(world, 0, VehicleClass.CAV, [0], lane=Lane.LEFT, offset=10.0)
    mover = put_vehicle(world, 1, VehicleClass.CAV, [0], lane=Lane.RIGHT, offset=5.0)
    assert execute_lane_change(world, 1, -1) is False
    assert mover.segment.lane is Lane.RIGHT
    assert mover.lane_change_log == []


def test_lane_change_invalid_direction_and_class(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.HDV, [0, 1, 2], lane=Lane.LEFT)
    cav = put_vehicle(world, 1, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT)
    with pytest.raises(EngineError):
        execute_lane_change(world, 0, 1)  # HDVs are not controlled
    with pytest.raises(EngineError):
        execute_lane_change(world, 1, 1)  # already on the right lane
    with pytest.raises(EngineError):
        execute_lane_change(world, 1, 0)


def test_one_lateral_move_per_tick(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT, offset=5.0)
    assert execute_lane_change(world, 0, -1) is True
    assert execute_lane_change(world, 0, 1) is False  # same tick
    world.t += 1.0
    assert execute_lane_change(world, 0, 1) is True


def _new_vehicle(world, vid, vclass, route, **extra):
    """A created vehicle that waits for injection (not yet on the network)."""
    first, last = world.model.edges[route[0]], world.model.edges[route[-1]]
    return VehicleState(
        id=vid, vclass=vclass, route=list(route), route_index=0,
        offset=0.0, speed=first.free_flow_speed, depart_time=world.t,
        origin=first.frm, destination=last.to, **extra,
    )


def _bus_model(stop_offset=150.0):
    return make_model(
        [(0, 1, 2, 200.0, 10.0, True), (1, 2, 3, 200.0, 10.0, True)],
        bus_stops=[__import__("jointlane.network", fromlist=["BusStop"]).BusStop(
            id=0, edge=0, offset=stop_offset)],
    )


def _bus_world(schedule_arrival, stop_offset=150.0):
    world = make_world(_bus_model(stop_offset))
    bus = put_vehicle(
        world, 0, VehicleClass.BUS, [0, 1], lane=Lane.RIGHT, m=1, offset=0.0,
        stop_plan=(StopVisit(0, schedule_arrival),), dwell=60.0,
    )
    return world, bus


def test_bus_early_arrival_holds_to_schedule():
    # stop 150 m in, free flow 10 m/s: physical arrival at t=15
    world, bus = _bus_world(schedule_arrival=45.0)
    for _ in range(16):
        bus_service(world, world.t)
        step(world, 1.0)
    assert bus.dwell_until == 45.0 + 60.0  # waits the 30 s earliness plus dwell
    # still dwelling until the scheduled departure
    while world.t < 105.0:
        bus_service(world, world.t)
        assert bus.is_dwelling
        step(world, 1.0)
    bus_service(world, world.t)
    assert not bus.is_dwelling
    assert world.stop_departures[0][0] >= 45.0 + 60.0


@pytest.mark.parametrize("stop_offset", [50.0, 100.0, 150.0, 200.0])
def test_bus_on_time_dwells_exactly(stop_offset):
    # free flow 10 m/s on a 200 m edge: the midpoint stop belongs to m=2
    arrival = stop_offset / 10.0
    world, bus = _bus_world(schedule_arrival=arrival, stop_offset=stop_offset)
    for _ in range(int(arrival) + 1):
        bus_service(world, world.t)
        step(world, 1.0)
    m = 1 if stop_offset < 100.0 else 2
    assert bus.is_dwelling
    assert bus.segment == SegmentRef(0, Lane.RIGHT, m)
    assert bus.offset == stop_offset - (0.0 if m == 1 else 100.0)
    assert bus.dwell_until == arrival + 60.0


def test_buses_released_together_depart_in_placement_order():
    world = make_world(_bus_model())
    plan = (StopVisit(0, 45.0),)
    # the higher id is placed first; the second bus stops behind it at the stop
    for vid in (7, 3):
        bus = _new_vehicle(world, vid, VehicleClass.BUS, [0, 1], stop_plan=plan, dwell=60.0)
        assert world.place_new(bus)
        step(world, 1.0)
    while world.t <= 105.0:
        bus_service(world, world.t)
        step(world, 1.0)
    assert [rec[0] for rec in world.stop_arrivals] == [7, 3]
    assert world.stop_departures == [(105.0, 7, 0), (105.0, 3, 0)]


def test_bus_late_arrival_keeps_full_dwell():
    world, bus = _bus_world(schedule_arrival=-100.0)
    for _ in range(16):
        bus_service(world, world.t)
        step(world, 1.0)
    arrival = world.stop_arrivals[0][5]
    assert bus.dwell_until == arrival + 60.0


def test_bus_stop_arrival_recorded_once():
    world, bus = _bus_world(schedule_arrival=15.0)
    for _ in range(200):
        bus_service(world, world.t)
        step(world, 1.0)
    assert len(world.stop_arrivals) == 1
    assert bus.next_stop == 1
    assert bus.arrival_time is not None  # reached the end of its route


def test_retire_sets_arrival_once(chain3):
    world = make_world(chain3)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0], m=2, offset=95.0)
    step(world, 1.0)
    assert veh.arrival_time == 0.0
    assert 0 not in world.vehicles
    assert world.retired == [veh]


def test_demand_deterministic_times(chain3):
    entries = [DemandEntry(1, 4, VehicleClass.CAV, times=(10.0, 20.0))]
    arrivals = generate_arrivals(entries, seed=7, until=900.0)
    assert [a[0] for a in arrivals] == [10.0, 20.0]


def test_demand_zero_rate_yields_nothing():
    entries = [DemandEntry(1, 2, VehicleClass.CAV, rate=0.0)]
    assert generate_arrivals(entries, seed=7, until=900.0) == []


def test_demand_poisson_reference_stream():
    # frozen reference for rate 0.2 veh/s over 900 s with run seed 42
    entries = [DemandEntry(1, 2, VehicleClass.CAV, rate=0.2)]
    arrivals = generate_arrivals(entries, seed=42, until=900.0)
    assert len(arrivals) == 187
    assert [round(a[0], 6) for a in arrivals[:3]] == [12.021043, 23.701991, 35.625796]


def test_demand_respects_horizon():
    entries = [DemandEntry(1, 2, VehicleClass.CAV, times=(10.0, 899.9, 900.0, 950.0))]
    arrivals = generate_arrivals(entries, seed=1, until=900.0)
    assert [a[0] for a in arrivals] == [10.0, 899.9]


def test_injection_pends_when_entry_jammed(monkeypatch):
    model = make_model([(0, 1, 2, 200.0, 10.0, False)], jam=1)
    world = make_world(model)
    # the left occupant crosses into the second half-segment on the next step
    put_vehicle(world, 0, VehicleClass.CAV, [0], lane=Lane.LEFT, offset=99.5)
    put_vehicle(world, 1, VehicleClass.CAV, [0], lane=Lane.RIGHT, offset=1.0)
    tried = []  # the id of every vehicle place_new is asked to place
    place_new = World.place_new
    monkeypatch.setattr(
        World, "place_new", lambda self, veh: tried.append(veh.id) or place_new(self, veh)
    )
    backlog = [_new_vehicle(world, vid, VehicleClass.CAV, [0]) for vid in range(10, 15)]

    inject_demand(world, backlog)
    assert pending_in_order(world) == backlog
    assert world.injected[VehicleClass.CAV] == 2  # placement deferred
    assert tried == [10]  # the rest of a full entry group is not retried
    inject_demand(world, [])
    assert pending_in_order(world) == backlog
    assert tried == [10]  # a group full at the start of a call is not visited

    step(world, 1.0)  # frees the left entry segment only
    tried.clear()
    inject_demand(world, [])
    assert backlog[0].id in world.vehicles
    assert backlog[0].segment.lane is Lane.LEFT  # the oldest waiting vehicle takes it
    assert pending_in_order(world) == backlog[1:]
    assert tried == [10, 11]


def test_injection_retries_other_onward_edges_behind_a_full_entry():
    # edge 0 turns into edge 1 from its right lane only, into edge 2 from its left
    model = make_model(
        [(0, 1, 2, 200.0, 10.0, False), (1, 2, 3, 200.0, 10.0, False),
         (2, 2, 4, 200.0, 10.0, False)],
        connections={(0, 1): {Lane.RIGHT}, (0, 2): {Lane.LEFT}},
        jam=1,
    )
    world = make_world(model)
    put_vehicle(world, 0, VehicleClass.HDV, [0, 1], lane=Lane.RIGHT, offset=1.0)
    first = _new_vehicle(world, 10, VehicleClass.HDV, [0, 1])
    other = _new_vehicle(world, 11, VehicleClass.HDV, [0, 2])
    last = _new_vehicle(world, 12, VehicleClass.HDV, [0, 1])
    world.pending.append(first)

    inject_demand(world, [other, last])
    assert other.id in world.vehicles
    assert other.segment.lane is Lane.LEFT
    assert pending_in_order(world) == [first, last]  # creation order kept


def test_backlog_across_groups_iterates_and_places_in_creation_order(monkeypatch):
    # two entry edges, one vehicle per lane segment; each entry is full
    model = make_model([(0, 1, 2, 200.0, 10.0, False), (1, 3, 4, 200.0, 10.0, False)],
                       jam=1)
    world = make_world(model)
    for vid, (edge, lane) in enumerate(itertools.product((0, 1), Lane)):
        put_vehicle(world, vid, VehicleClass.CAV, [edge], lane=lane, offset=99.5)
    tried = []
    place_new = World.place_new
    monkeypatch.setattr(
        World, "place_new", lambda self, veh: tried.append(veh.id) or place_new(self, veh)
    )
    kinds = [(VehicleClass.CAV, 0), (VehicleClass.HDV, 1), (VehicleClass.HDV, 0),
             (VehicleClass.CAV, 1)] * 2
    backlog = [_new_vehicle(world, 10 + i, vclass, [edge])
               for i, (vclass, edge) in enumerate(kinds)]

    inject_demand(world, backlog)
    assert tried == [10, 11, 12, 13]  # one failed attempt per entry group
    assert len(world.pending.groups) == 4
    assert len(world.pending) == 8
    assert pending_in_order(world) == backlog

    step(world, 1.0)  # every occupant crosses into its downstream half
    tried.clear()
    late = _new_vehicle(world, 18, VehicleClass.CAV, [0])
    inject_demand(world, [late])
    # the oldest vehicle of every group goes first, in id order across groups,
    # and takes the slots before any younger one
    assert tried == [10, 11, 12, 13, 14, 15, 16, 17]
    assert [world.vehicles[vid].segment for vid in (10, 11, 12, 13)] == [
        SegmentRef(0, Lane.LEFT, 1), SegmentRef(1, Lane.LEFT, 1),
        SegmentRef(0, Lane.RIGHT, 1), SegmentRef(1, Lane.RIGHT, 1),
    ]
    assert pending_in_order(world) == backlog[4:] + [late]
    assert len(world.pending) == 5


def test_clock_requires_integer_multiples():
    with pytest.raises(EngineError):
        EngineClock(dt_sim=1.0, dt_control=15.5, dt_bus=10.0)
    with pytest.raises(EngineError):
        EngineClock(dt_sim=2.0, dt_control=15.0, dt_bus=10.0)
    EngineClock(dt_sim=0.5, dt_control=15.0, dt_bus=10.0)


def test_gate_blocks_edge_end():
    model = make_model(
        [(0, 1, 2, 20.0, 10.0, False), (1, 2, 3, 20.0, 10.0, False)]
    )
    gated = model.edges[0]
    object.__setattr__(gated, "gate", (100.0, 0.0, 0.0))  # always red
    world = make_world(model)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1], m=2, offset=9.0)
    for _ in range(5):
        step(world, 1.0)
    assert veh.route_index == 0
    assert veh.offset == 10.0


def test_line_spec_validation():
    with pytest.raises(EngineError):
        BusLineSpec(id=0, route=(0,), departures=(0.0, 10.0), dwell=60.0,
                    stop_plans=((StopVisit(0, 5.0), StopVisit(1, 4.0)),) * 2)


def test_run_invariants_on_desk_scenario(desk_small):
    from jointlane.runner import simulate

    seen = {"checked": 0}

    def observer(world, snapshot, decision, executed):
        model = world.model
        for key, queue in world.queues.items():
            assert len(queue) <= model.edges[key.edge].jam_count
        for veh in world.vehicles.values():
            assert veh.id in world.queues[veh.segment]
            assert veh.segment.edge == veh.edge_id
            if veh.vclass is VehicleClass.BUS:
                assert veh.segment.lane is Lane.RIGHT
            if veh.vclass is VehicleClass.HDV and model.edges[veh.edge_id].dl:
                assert veh.segment.lane is Lane.LEFT
        seen["checked"] += 1

    simulate(desk_small, strategy="proposed", seed=1, horizon=400.0,
             observer=observer)
    assert seen["checked"] > 10


def test_forced_exit_audit_reads_decision_time_segments(desk_small, monkeypatch):
    # turn every due forced exit into the same move, unforced: the vehicle
    # still leaves the warned segment, but the obligation was not issued
    from dataclasses import replace

    from jointlane import runner

    strategy_step = runner.ctl.strategy_step
    dropped = set()

    def without_forced_exits(strategy, world, snapshot, params, warned, costs):
        decision = strategy_step(strategy, world, snapshot, params, warned, costs)
        for i, action in enumerate(decision.actions):
            if action.forced:
                dropped.add((decision.t, action.vehicle))
                decision.actions[i] = replace(action, forced=False)
        return decision

    moved_off = {"n": 0}

    def observer(world, snapshot, decision, executed):
        moved_off["n"] += sum(
            ok for action, ok in executed if (decision.t, action.vehicle) in dropped
        )

    monkeypatch.setattr(runner.ctl, "strategy_step", without_forced_exits)
    result = runner.simulate(desk_small, strategy="proposed", seed=1, horizon=200.0,
                             observer=observer)
    assert moved_off["n"] >= 1
    assert result.audit["forced_missing"] >= 1
    assert result.audit["forced_missing"] == len(dropped)


def test_event_log_bit_identical_across_runs(desk_small):
    from jointlane.runner import simulate

    a = simulate(desk_small, strategy="prp", seed=4, horizon=300.0, log_events=True)
    b = simulate(desk_small, strategy="prp", seed=4, horizon=300.0, log_events=True)
    assert a.world.events == b.world.events
    assert len(a.world.events) > 100


def test_hold_to_schedule_on_desk_runs(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="drp", seed=2)
    world = result.world
    sched = {(veh, stop): s for veh, _, _, stop, s, _ in world.stop_arrivals}
    assert world.stop_departures
    for t, veh, stop in world.stop_departures:
        dwell = 60.0
        assert t >= sched[(veh, stop)] + dwell - world.clock.dt_sim


def test_hdv_entry_prefers_emptier_lane_then_left(chain3):
    world = make_world(chain3)
    # right lane of the entry edge has one occupant, left two
    put_vehicle(world, 0, VehicleClass.HDV, [0], lane=Lane.LEFT, offset=30.0)
    put_vehicle(world, 1, VehicleClass.HDV, [0], lane=Lane.LEFT, offset=20.0)
    put_vehicle(world, 2, VehicleClass.HDV, [0], lane=Lane.RIGHT, offset=30.0)
    from jointlane.engine import VehicleState

    hdv = VehicleState(id=9, vclass=VehicleClass.HDV, route=[0, 1, 2],
                       route_index=0, offset=0.0,
                       speed=10.0, depart_time=0.0, origin=1, destination=4)
    inject_demand(world, [hdv])
    assert hdv.segment.lane is Lane.RIGHT
    # balance the lanes: ties go left
    hdv2 = VehicleState(id=10, vclass=VehicleClass.HDV, route=[0, 1, 2],
                        route_index=0, offset=0.0,
                        speed=10.0, depart_time=0.0, origin=1, destination=4)
    inject_demand(world, [hdv2])
    assert hdv2.segment.lane is Lane.LEFT


def test_bus_blocked_exactly_at_stop_still_serves_it():
    from jointlane.network import BusStop

    model = make_model(
        [(0, 1, 2, 200.0, 10.0, True), (1, 2, 3, 200.0, 10.0, True)],
        bus_stops=[BusStop(id=0, edge=0, offset=150.0)],
    )
    world = make_world(model)
    # a leader dwelling exactly at the stop offset blocks the follower there
    leader = put_vehicle(world, 0, VehicleClass.BUS, [0, 1], lane=Lane.RIGHT,
                         m=2, offset=50.0, stop_plan=(StopVisit(0, 0.0),),
                         dwell=60.0)
    leader.next_stop = 1
    leader.dwell_until = 30.0
    follower = put_vehicle(world, 1, VehicleClass.BUS, [0, 1], lane=Lane.RIGHT,
                           m=2, offset=10.0, stop_plan=(StopVisit(0, 0.0),),
                           dwell=60.0)
    for _ in range(40):
        bus_service(world, world.t)
        step(world, 1.0)
    # the follower reached the leader's position, then captured the stop
    assert follower.next_stop == 1
    assert any(rec[0] == follower.id for rec in world.stop_arrivals)


def test_final_subtick_arrival_counts_unserved(desk_small):
    from jointlane.runner import simulate
    from jointlane.scenario import Scenario
    from jointlane.engine import DemandEntry

    demand = (DemandEntry(1, 6, VehicleClass.HDV, times=(59.5,)),)
    scenario = Scenario(
        model=desk_small.model, demand=demand, bus_lines=(),
        control=desk_small.control, bpr=desk_small.bpr,
        protection=desk_small.protection, clock=desk_small.clock,
        meta={"name": "tiny", "horizon": 60.0},
    )
    result = simulate(scenario, strategy="drp", seed=1)
    assert result.world.unserved == 1
    assert result.world.injected[VehicleClass.HDV] == 0
    # the run ends at the horizon rather than spinning to the drain cap
    assert result.world.t <= 61.0


def _realign_world(jam=None):
    """Two-edge chain whose only turn into edge 1 leaves from the right lane."""
    model = make_model(
        [(0, 1, 2, 200.0, 10.0, False), (1, 2, 3, 200.0, 10.0, False)],
        connections={(0, 1): {Lane.RIGHT}},
        jam=jam,
    )
    return make_world(model)


def test_turn_realignment_at_edge_end():
    world = _realign_world()
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1], lane=Lane.LEFT,
                      m=2, offset=95.0)
    step(world, 1.0)
    assert (veh.route_index, veh.segment.lane, veh.segment.m) == (0, Lane.RIGHT, 2)
    assert veh.offset == world.model.edges[0].seg_length
    assert world.queues[SegmentRef(0, Lane.RIGHT, 2)] == [0]
    assert world.lane_changes == [(0.0, 0, 0, 2, "L", "R", "align")]
    assert veh.lane_change_log == [0.0]
    step(world, 1.0)
    assert (veh.route_index, veh.segment.m) == (1, 1)  # the turn is now open


def test_turn_realignment_waits_after_a_lane_change_this_tick():
    world = _realign_world()
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1], lane=Lane.RIGHT,
                      m=2, offset=95.0)
    assert execute_lane_change(world, 0, -1) is True
    step(world, 1.0)
    assert veh.segment.lane is Lane.LEFT
    assert veh.offset == world.model.edges[0].seg_length
    assert [row[6] for row in world.lane_changes] == ["utility"]
    step(world, 1.0)
    assert veh.segment.lane is Lane.RIGHT
    assert world.lane_changes[-1] == (1.0, 0, 0, 2, "L", "R", "align")


def test_turn_realignment_blocked_by_jammed_target():
    world = _realign_world(jam=1)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1], lane=Lane.LEFT,
                      m=2, offset=95.0)
    put_vehicle(world, 1, VehicleClass.HDV, [0, 1], lane=Lane.RIGHT, m=2, offset=10.0)
    step(world, 1.0)
    assert veh.segment.lane is Lane.LEFT
    assert veh.offset == world.model.edges[0].seg_length
    assert veh.speed == 5.0  # it waits at the edge end
    assert world.lane_changes == []
    assert veh.lane_change_log == []


# -- packed front ---------------------------------------------------------------


def assert_packed_front(world):
    """The first `world.packed[key]` vehicles of every queue are packed: not
    buses, at the segment end and at speed 0."""
    for key, n in world.packed.items():
        queue = world.queues[key]
        assert 0 <= n <= len(queue)
        seg_len = world.model.edges[key.edge].seg_length
        for vid in queue[:n]:
            veh = world.vehicles[vid]
            assert veh.vclass is not VehicleClass.BUS
            assert (veh.offset, veh.speed) == (seg_len, 0.0)


def _plant_state(world):
    return (
        world.t,
        {key: list(q) for key, q in world.queues.items() if q},
        {vid: (v.segment, v.offset, v.speed, v.route_index, v.dwell_until)
         for vid, v in world.vehicles.items()},
        [v.id for v in world.retired],
        list(world.lane_changes),
        list(world.stop_arrivals),
    )


def _step_against_full_walk(build, ticks, before_step=None):
    """Step a world and a twin whose packed counts are cleared before every
    step, so the twin walks every vehicle; both must stay identical. Returns
    the world and the largest packed count seen."""
    world, twin = build(), build()
    peak = 0
    for tick in range(ticks):
        if before_step is not None:
            assert before_step(world, tick) == before_step(twin, tick)
        assert_packed_front(world)
        twin.packed.clear()
        step(world, 1.0)
        step(twin, 1.0)
        assert_packed_front(world)
        assert _plant_state(world) == _plant_state(twin)
        peak = max(peak, max(world.packed.values(), default=0))
    return world, peak


def _gated_world():
    """Edge 0's end is red for t in [0, 15) and [20, 35), green in [15, 20);
    its downstream half holds 3 vehicles."""
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False), (1, 2, 3, 400.0, 10.0, False)], jam=3
    )
    object.__setattr__(model.edges[0], "gate", (20.0, 5.0, 5.0))
    world = make_world(model)
    for vid, (m, offset) in enumerate([(2, 45.0), (2, 30.0), (2, 20.0),
                                       (1, 40.0), (1, 25.0), (1, 5.0)]):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1], m=m, offset=offset)
    return world


def test_packed_front_held_by_gate_and_full_half_then_released():
    world, peak = _step_against_full_walk(_gated_world, 40)
    assert peak == 3  # both halves packed full while the gate was red
    assert len(world.retired) + len(world.vehicles) == 6
    assert all(v.route_index == 1 for v in world.vehicles.values())


def test_packed_front_counts_behind_a_held_front():
    world = _gated_world()
    down, up = SegmentRef(0, Lane.LEFT, 2), SegmentRef(0, Lane.LEFT, 1)
    for _ in range(9):
        step(world, 1.0)
    # a vehicle that reached the end in this step still has a speed; it
    # joins the packed front once it has waited there for a step
    third = world.vehicles[world.queues[down][2]]
    assert third.offset == 50.0 and third.speed > 0.0
    assert world.packed[down] == 2
    step(world, 1.0)
    assert world.packed[down] == 3
    for _ in range(5):
        step(world, 1.0)
    assert world.packed[up] == 3  # held by the full downstream half
    step(world, 1.0)  # green at t=15: the whole downstream half leaves
    assert (world.queues[down], world.packed[down]) == ([], 0)
    assert world.packed[up] == 3  # walked first, it still found the half full
    step(world, 1.0)
    assert world.queues[down] == [3, 4, 5]
    assert (world.queues[up], world.packed[up]) == ([], 0)
    assert_packed_front(world)


def _dl_gated_world(bus_at=None):
    """A dedicated-lane edge whose end stays red for 30 s; four vehicles queue
    on its right downstream half (CAVs, or a bus at index `bus_at`), two HDVs
    on the left."""
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, True), (1, 2, 3, 400.0, 10.0, True)], jam=6
    )
    object.__setattr__(model.edges[0], "gate", (60.0, 30.0, 30.0))
    world = make_world(model)
    for vid, offset in enumerate([45.0, 40.0, 35.0, 30.0]):
        vclass = VehicleClass.BUS if vid == bus_at else VehicleClass.CAV
        put_vehicle(world, vid, vclass, [0, 1], lane=Lane.RIGHT, m=2, offset=offset)
    for vid, offset in ((10, 40.0), (11, 20.0)):
        put_vehicle(world, vid, VehicleClass.HDV, [0, 1], lane=Lane.LEFT, m=2,
                    offset=offset)
    return world


def test_lane_change_out_of_a_packed_front():
    key = SegmentRef(0, Lane.RIGHT, 2)

    def change_at_tick_10(world, tick):
        if tick != 10:
            return None
        assert world.packed[key] == 4
        ok = execute_lane_change(world, 2, -1)
        assert world.packed[key] == 3  # the vehicles behind it move up
        assert world.queues[key] == [0, 1, 3]
        assert_packed_front(world)
        return ok

    world, peak = _step_against_full_walk(_dl_gated_world, 45, change_at_tick_10)
    assert peak == 4
    assert world.lane_changes[0][1:6] == (2, 0, 2, "R", "L")


@pytest.mark.parametrize("bus_at", [0, 1])
def test_bus_in_a_jam_is_never_packed(bus_at):
    key = SegmentRef(0, Lane.RIGHT, 2)
    world, _ = _step_against_full_walk(lambda: _dl_gated_world(bus_at), 20)
    assert [world.vehicles[vid].offset for vid in world.queues[key]] == [50.0] * 4
    assert world.packed[key] == bus_at  # the bus ends the packed front


def test_align_into_a_packed_queue():
    # only the right lane turns into edge 1, whose halves stay full until its
    # end turns green at t=40
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False), (1, 2, 3, 100.0, 10.0, False)],
        connections={(0, 1): {Lane.RIGHT}}, jam=2,
    )
    object.__setattr__(model.edges[1], "gate", (80.0, 40.0, 40.0))
    key = SegmentRef(0, Lane.RIGHT, 2)

    def build():
        world = make_world(model)
        fillers = itertools.count(100)
        for lane in Lane:
            for m in (1, 2):
                for _ in range(2):
                    put_vehicle(world, next(fillers), VehicleClass.HDV, [1],
                                lane=lane, m=m, offset=50.0)
        put_vehicle(world, 0, VehicleClass.CAV, [0, 1], lane=Lane.RIGHT, m=2,
                    offset=45.0)
        put_vehicle(world, 1, VehicleClass.CAV, [0, 1], lane=Lane.LEFT, m=2,
                    offset=20.0)
        return world

    def check(world, tick):
        if tick == 3:  # vehicle 1 aligned in the last step, behind the front
            assert world.queues[key] == [0, 1]
            assert world.packed[key] == 1
        return None

    world, peak = _step_against_full_walk(build, 60, check)
    assert peak == 2
    assert [row[1] for row in world.lane_changes] == [1]
    assert world.lane_changes[0][6] == "align"
    assert {0, 1} <= {v.id for v in world.retired}


def test_full_entry_fails_before_the_cav_chooser_is_asked():
    model = make_model([(0, 1, 2, 200.0, 10.0, False)], jam=1)
    world = make_world(model)
    calls = []

    def chooser(world, veh, edge_id):
        calls.append(veh.id)
        return (Lane.RIGHT, Lane.LEFT)

    world.cav_entry_chooser = chooser
    put_vehicle(world, 0, VehicleClass.CAV, [0], lane=Lane.LEFT, offset=1.0)
    put_vehicle(world, 1, VehicleClass.CAV, [0], lane=Lane.RIGHT, offset=1.0)
    assert world.place_new(_new_vehicle(world, 10, VehicleClass.CAV, [0])) is False
    assert calls == []  # every candidate lane is full
    world = make_world(model)
    world.cav_entry_chooser = chooser
    put_vehicle(world, 0, VehicleClass.CAV, [0], lane=Lane.LEFT, offset=1.0)
    veh = _new_vehicle(world, 11, VehicleClass.CAV, [0])
    assert world.place_new(veh) is True
    assert veh.segment.lane is Lane.RIGHT and calls == []  # one open lane
    world = make_world(model)
    world.cav_entry_chooser = chooser
    veh = _new_vehicle(world, 12, VehicleClass.CAV, [0])
    assert world.place_new(veh) is True
    assert veh.segment.lane is Lane.RIGHT and calls == [12]  # it orders two


def test_packed_front_invariant_on_desk_large_jam():
    from jointlane.runner import simulate
    from jointlane.scenario import load_scenario, resolve_scenario

    seen = {"checked": 0, "packed": 0}

    def observer(world, snapshot, decision, executed):
        assert_packed_front(world)
        seen["checked"] += 1
        seen["packed"] = max(seen["packed"], sum(world.packed.values()))

    simulate(load_scenario(resolve_scenario("desk_large")), strategy="proposed",
             seed=1, horizon=600.0, observer=observer)
    assert seen["checked"] >= 40
    assert seen["packed"] > 20
