import random

import pytest

from jointlane.control import (
    ControlError,
    ControlParams,
    bus_warning,
    build_candidates,
    instantaneous_cost_view,
    myopic_lane_actions,
    pick_winner,
    predicted_cost_view,
    protection_actions,
    reactive_reroutes,
    rerouting_escalation,
    select_lane_changes,
    strategy_step,
    u1_time_benefit,
    u2_turn_feasibility,
    u3_change_rate_penalty,
    utility,
    warned_segments,
    weighted_score,
)
from jointlane.engine import VehicleState
from jointlane.network import Lane, SegmentRef, VehicleClass
from jointlane.prediction import BprParams, ProtectionHorizon, build_bus_windows, build_snapshot

from conftest import make_model, make_world, put_vehicle

PAR = ControlParams()


def snapshot_of(world, dt=15.0, horizon=30.0):
    protection = ProtectionHorizon(horizon)
    windows = build_bus_windows(world, protection)
    return build_snapshot(world, windows, BprParams(), protection, dt)


def cavs_on(snap, seg):
    """Ids of the snapshot's CAVs on `seg`, in id order."""
    return [vid for vid, veh in snap.vehicles.items()
            if veh.vclass is VehicleClass.CAV and veh.segment == seg]


def forced_of(decision):
    return [(a.vehicle, a.segment) for a in decision.actions if a.forced]


def test_bus_warning_strict_inequality():
    assert bus_warning(25.0, 20.0, 0.2) is True       # 25 > 24
    assert bus_warning(24.0, 20.0, 0.2) is False      # boundary excluded
    assert bus_warning(20.0, 20.0, 0.2) is False


def test_weighted_score_reference_values():
    assert weighted_score(PAR, 0.5, 1.0, -0.2) == pytest.approx(0.37)
    assert weighted_score(PAR, -0.3, 0.0, -1.0) == pytest.approx(-0.49)
    assert weighted_score(PAR, 0.0, 0.0, 0.0) == 0.0


def test_u1_normalized_benefit(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT, m=1)
    snap = snapshot_of(world)
    seg = SegmentRef(0, Lane.RIGHT, 1)
    target = SegmentRef(0, Lane.LEFT, 1)
    snap.predicted_time[seg] = 30.0
    snap.predicted_time[target] = 24.0
    assert u1_time_benefit(snap, seg, target) == pytest.approx((30 - 24) / 10)
    snap.predicted_time[seg] = 20.0
    snap.predicted_time[target] = 26.0
    assert u1_time_benefit(snap, seg, target) == pytest.approx(-0.6)
    snap.predicted_time[target] = 20.0
    assert u1_time_benefit(snap, seg, target) == 0.0


def _turn_model():
    # edge 0 forks: edge 1 reachable only from the left lane, edge 2 from both
    return make_model(
        [(0, 1, 2, 200.0, 10.0, True),
         (1, 2, 3, 200.0, 10.0, False),
         (2, 2, 4, 200.0, 10.0, False)],
        connections={
            (0, 1): (Lane.LEFT,),
            (0, 2): (Lane.LEFT, Lane.RIGHT),
        },
    )


def test_u2_turn_feasibility_cases():
    model = _turn_model()
    world = make_world(model)
    # downstream half, next turn needs the left lane: moving right is infeasible
    put_vehicle(world, 0, VehicleClass.CAV, [0, 1], lane=Lane.LEFT, m=2)
    # upstream half: a later change-back remains possible
    put_vehicle(world, 1, VehicleClass.CAV, [0, 1], lane=Lane.LEFT, m=1)
    # downstream half but the target lane connects
    put_vehicle(world, 2, VehicleClass.CAV, [0, 2], lane=Lane.LEFT, m=2)
    # final edge: nothing downstream to miss
    put_vehicle(world, 3, VehicleClass.CAV, [0], lane=Lane.LEFT, m=2)
    snap = snapshot_of(world)
    assert u2_turn_feasibility(snap, 0, Lane.RIGHT) == 0
    assert u2_turn_feasibility(snap, 1, Lane.RIGHT) == 1
    assert u2_turn_feasibility(snap, 2, Lane.RIGHT) == 1
    assert u2_turn_feasibility(snap, 3, Lane.RIGHT) == 1


def test_u3_rate_penalty():
    assert u3_change_rate_penalty((), 300.0, 120.0, 15.0) == 0.0
    assert u3_change_rate_penalty((200.0, 250.0), 300.0, 120.0, 15.0) == -0.25
    log8 = tuple(300.0 - 15.0 * k for k in range(8))
    assert u3_change_rate_penalty(log8, 300.0, 120.0, 15.0) == -1.0
    # the window is half-open at the old end and closed at the new end
    assert u3_change_rate_penalty((180.0,), 300.0, 120.0, 15.0) == 0.0
    assert u3_change_rate_penalty((180.0 + 1e-9, 300.0), 300.0, 120.0, 15.0) == -0.25


def test_pick_winner_argmax_and_ties():
    assert pick_winner([]) is None
    assert pick_winner([(3, 0.12), (1, 0.37)]) == (1, 0.37)
    assert pick_winner([(5, 0.2), (2, 0.2)]) == (2, 0.2)  # lowest id wins ties


def test_selection_matches_exhaustive_enumeration():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randrange(0, 11)
        ids = rng.sample(range(100), n)
        values = [round(rng.uniform(-1, 1), 2) for _ in range(n)]
        scored = list(zip(ids, values))
        got = pick_winner(scored)
        if not scored:
            assert got is None
            continue
        best = max(values)
        expect_id = min(i for i, u in scored if u == best)
        assert got == (expect_id, best)
        fired = got[1] > 0
        assert fired == (best > 0)


def test_selection_scale_invariance():
    rng = random.Random(123)
    for _ in range(1000):
        n = rng.randrange(1, 11)
        scored = [(i, round(rng.uniform(-1, 1), 3)) for i in rng.sample(range(50), n)]
        c = rng.uniform(0.01, 100.0)
        base = pick_winner(scored)
        scaled = pick_winner([(i, u * c) for i, u in scored])
        assert scaled[0] == base[0]
        assert (scaled[1] > 0) == (base[1] > 0)


def test_snapshot_keeps_the_vehicles_present_at_build(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT, m=1, offset=50.0)
    snap = snapshot_of(world)
    # injected later in the same tick, onto the dedicated-lane edge
    late = VehicleState(id=1, vclass=VehicleClass.CAV, route=[0, 1, 2], route_index=0,
                        offset=0.0, speed=10.0, depart_time=world.t, origin=1,
                        destination=4)
    assert world.place_new(late)
    assert world.model.edges[late.edge_id].dl
    assert list(snap.vehicles) == [0]
    decision = select_lane_changes(snap, PAR, warned_segments(snap, PAR))
    assert [a.vehicle for a in decision.actions] == [0]
    # the next snapshot scores it as a candidate like any other CAV
    snap = snapshot_of(world)
    decision = select_lane_changes(snap, PAR, warned_segments(snap, PAR))
    assert {a.vehicle for a in decision.actions} == {0, 1}


def _protection_world():
    model = make_model(
        [(0, 1, 2, 200.0, 10.0, True), (1, 2, 3, 200.0, 10.0, True)],
        capacity=0.02,
    )
    world = make_world(model)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1], lane=Lane.RIGHT, m=1,
                offset=95.0, speed=10.0)
    # two CAVs sharing the bus's segment, one approaching, one on the GPL beside
    put_vehicle(world, 1, VehicleClass.CAV, [0, 1], lane=Lane.RIGHT, m=1, offset=50.0)
    put_vehicle(world, 2, VehicleClass.CAV, [0, 1], lane=Lane.RIGHT, m=1, offset=20.0)
    put_vehicle(world, 3, VehicleClass.CAV, [0, 1], lane=Lane.LEFT, m=1, offset=60.0)
    return world


def test_protection_forces_occupants_and_bans_neighbors():
    world = _protection_world()
    snap = snapshot_of(world)
    prot = protection_actions(snap, warned_segments(snap, PAR))
    seg = SegmentRef(0, Lane.RIGHT, 1)
    assert seg in prot.warned
    forced_ids = {vid for vid, s in forced_of(prot) if s == seg}
    assert forced_ids == {1, 2}
    assert (3, seg) in prot.banned


def test_protection_reads_only_the_warned_set_it_is_given():
    world = _protection_world()
    snap = snapshot_of(world)
    assert warned_segments(snap, PAR)
    decision = protection_actions(snap, frozenset())
    assert forced_of(decision) == []
    assert decision.banned == frozenset()


def test_no_warning_no_actions(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT, m=1)
    snap = snapshot_of(world)
    prot = protection_actions(snap, warned_segments(snap, PAR))
    assert prot.warned == frozenset()
    assert forced_of(prot) == []
    assert prot.banned == frozenset()


def test_candidates_exclude_hdv_banned_and_plain_edges():
    world = _protection_world()
    snap = snapshot_of(world)
    prot = protection_actions(snap, warned_segments(snap, PAR))
    seg_gpl = SegmentRef(0, Lane.LEFT, 1)
    cands = build_candidates(snap, seg_gpl, cavs_on(snap, seg_gpl), prot.banned, frozenset())
    assert [c.vehicle for c in cands] == []  # vehicle 3 is banned from entering
    # without the ban it would be a candidate
    cands = build_candidates(snap, seg_gpl, cavs_on(snap, seg_gpl), frozenset(), frozenset())
    assert [c.vehicle for c in cands] == [3]
    assert cands[0].direction == 1
    # HDVs are never candidates; plain edges have none at all
    model = make_model([(0, 1, 2, 200.0, 10.0, False)])
    w2 = make_world(model)
    put_vehicle(w2, 0, VehicleClass.HDV, [0], lane=Lane.LEFT, m=1)
    put_vehicle(w2, 1, VehicleClass.CAV, [0], lane=Lane.LEFT, m=1)
    snap2 = snapshot_of(w2)
    seg2 = SegmentRef(0, Lane.LEFT, 1)
    assert build_candidates(snap2, seg2, cavs_on(snap2, seg2), frozenset(), frozenset()) == []


def test_candidate_set_size_three(dl_chain3):
    world = make_world(dl_chain3)
    for vid, off in ((0, 30.0), (1, 20.0), (2, 10.0)):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT,
                    m=1, offset=off)
    snap = snapshot_of(world)
    seg = SegmentRef(0, Lane.RIGHT, 1)
    cands = build_candidates(snap, seg, cavs_on(snap, seg), frozenset(), frozenset())
    assert len(cands) == 3


def test_select_lane_changes_winner_and_gate(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.CAV, [0, 1, 2], lane=Lane.LEFT, m=1, offset=30.0)
    put_vehicle(world, 1, VehicleClass.CAV, [0, 1, 2], lane=Lane.LEFT, m=1, offset=20.0)
    snap = snapshot_of(world)
    seg = SegmentRef(0, Lane.LEFT, 1)
    target = SegmentRef(0, Lane.RIGHT, 1)
    snap.predicted_time[seg] = 16.0   # 0.6 normalized benefit to move right
    snap.predicted_time[target] = 10.0
    decision = select_lane_changes(snap, PAR, warned_segments(snap, PAR))
    utility_actions = [a for a in decision.actions if not a.forced]
    assert len(utility_actions) == 1
    assert utility_actions[0].vehicle == 0  # tie on terms, lowest id wins
    assert utility_actions[0].direction == 1
    # adverse move: nobody fires even though a winner exists
    snap.predicted_time[seg] = 10.0
    snap.predicted_time[target] = 26.0
    decision = select_lane_changes(snap, PAR, warned_segments(snap, PAR))
    assert [a for a in decision.actions if not a.forced] == []
    assert decision.winners[seg][1] < 0


def test_forced_exits_exempt_from_single_winner_cap():
    world = _protection_world()
    snap = snapshot_of(world)
    decision = select_lane_changes(snap, PAR, warned_segments(snap, PAR))
    forced = [a for a in decision.actions if a.forced]
    assert {a.vehicle for a in forced} == {1, 2}
    assert all(a.direction == -1 for a in forced)
    # forced vehicles do not also get a utility move
    util_ids = {a.vehicle for a in decision.actions if not a.forced}
    assert util_ids.isdisjoint({1, 2})


def _escalation_world(n_conflict=3, capacity=0.02):
    # detour available: 1 -> 2 via the protected edge 1 or around via edge 3
    model = make_model(
        [(0, 1, 2, 200.0, 10.0, True),
         (1, 2, 3, 200.0, 10.0, True),
         (2, 3, 4, 200.0, 10.0, True),
         (3, 2, 5, 200.0, 10.0, False),
         (4, 5, 3, 200.0, 10.0, False)],
        capacity=capacity,
    )
    world = make_world(model)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=2,
                offset=95.0, speed=10.0)
    for vid in range(1, n_conflict + 1):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT,
                    m=2, offset=95.0 - 8.0 * vid, speed=10.0)
    return world


def test_escalation_reroutes_minimal_subset():
    world = _escalation_world()
    snap = snapshot_of(world)
    warned = warned_segments(snap, PAR)
    target = SegmentRef(1, Lane.RIGHT, 1)
    assert target in warned
    costs = predicted_cost_view(snap)
    assignments, exhausted = rerouting_escalation(
        snap, PAR, frozenset({target}), costs, require_gpl_gate=False
    )
    # with capacity 0.02 the warning needs q > ~0.0215, i.e. two or more
    # conflicting vehicles: removing enough to get below that clears it
    assert 1 <= len(assignments) <= 3
    assert exhausted == 0
    for assign in assignments:
        assert 1 not in assign.route or assign.route[0] == 0
        veh = world.vehicles[assign.vehicle]
        assert tuple(assign.route[: veh.route_index + 1]) == tuple(
            veh.route[: veh.route_index + 1]
        )


def test_escalation_noop_when_clear(dl_chain3):
    world = make_world(dl_chain3)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1)
    snap = snapshot_of(world)
    costs = predicted_cost_view(snap)
    assignments, exhausted = rerouting_escalation(
        snap, PAR, frozenset(), costs
    )
    assert assignments == []
    assert exhausted == 0


def test_escalation_exhaustion_without_alternatives():
    # no detour exists: conflicting vehicles cannot avoid the protected edge
    model = make_model(
        [(0, 1, 2, 200.0, 10.0, True), (1, 2, 3, 200.0, 10.0, True)],
        capacity=0.02,
    )
    world = make_world(model)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1], lane=Lane.RIGHT, m=2, offset=95.0)
    for vid in (1, 2, 3):
        put_vehicle(world, vid, VehicleClass.CAV, [0, 1], lane=Lane.RIGHT, m=2,
                    offset=95.0 - 10.0 * vid, speed=10.0)
    snap = snapshot_of(world)
    warned = warned_segments(snap, PAR)
    assert SegmentRef(1, Lane.RIGHT, 1) in warned
    costs = predicted_cost_view(snap)
    assignments, exhausted = rerouting_escalation(
        snap, PAR, warned, costs, require_gpl_gate=False
    )
    assert assignments == []
    assert exhausted >= 1


def test_escalation_recomputed_times_never_increase():
    world = _escalation_world(n_conflict=5)
    snap = snapshot_of(world)
    target = SegmentRef(1, Lane.RIGHT, 1)
    model = snap.model
    two_h = 2.0 * snap.protection.horizon
    n = round(snap.conflict[target] * two_h)
    from jointlane.prediction import bpr_time

    times = [
        bpr_time(model.t0(target), k / two_h, model.capacity(target), snap.bpr)
        for k in range(n, -1, -1)
    ]
    assert all(b <= a for a, b in zip(times, times[1:]))


def test_reactive_reroute_hysteresis():
    # two routes from 1 to 4: direct (edges 0-1) or detour (2-3); make the
    # direct remainder slow so the detour wins only past the threshold
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False),
         (1, 2, 4, 100.0, 10.0, False),
         (2, 2, 3, 100.0, 10.0, False),
         (3, 3, 4, 100.0, 10.0, False)],
        jam=10,
    )
    world = make_world(model)
    veh = put_vehicle(world, 0, VehicleClass.CAV, [0, 1], lane=Lane.LEFT, m=1)
    snap = snapshot_of(world)
    params = ControlParams(hysteresis=0.05)
    costs = {0: 10.0, 1: 100.0, 2: 50.0, 3: 44.0}
    out = reactive_reroutes(world, snap, params, costs)
    assert [a.vehicle for a in out] == [0]
    assert list(out[0].route) == [0, 2, 3]
    # 95.01 vs the (1 - 0.05) * 100 threshold: stays put
    costs = {0: 10.0, 1: 100.0, 2: 50.0, 3: 45.01}
    assert reactive_reroutes(world, snap, params, costs) == []


def test_myopic_moves_toward_strictly_faster_lane():
    model = make_model([(0, 1, 2, 200.0, 10.0, False)], jam=4)
    world = make_world(model)
    put_vehicle(world, 0, VehicleClass.CAV, [0], lane=Lane.LEFT, m=1, offset=10.0)
    put_vehicle(world, 1, VehicleClass.HDV, [0], lane=Lane.LEFT, m=1, offset=5.0)
    snap = snapshot_of(world)
    actions = myopic_lane_actions(world, snap, frozenset(), frozenset())
    assert [(a.vehicle, a.direction) for a in actions] == [(0, 1)]
    # equal occupancy, equal speeds: no move
    put_vehicle(world, 2, VehicleClass.HDV, [0], lane=Lane.RIGHT, m=1, offset=5.0)
    put_vehicle(world, 3, VehicleClass.HDV, [0], lane=Lane.RIGHT, m=1, offset=4.0)
    snap = snapshot_of(world)
    actions = myopic_lane_actions(world, snap, frozenset(), frozenset())
    assert actions == []


def test_strategy_step_rejects_unknown(dl_chain3):
    world = make_world(dl_chain3)
    snap = snapshot_of(world)
    with pytest.raises(ControlError):
        strategy_step("nope", world, snap, PAR, frozenset(), predicted_cost_view(snap))


def test_params_validation():
    with pytest.raises(ControlError):
        ControlParams(w1=-0.1)
    with pytest.raises(ControlError):
        ControlParams(bus_tolerance=0.0)
    with pytest.raises(ControlError):
        ControlParams(change_horizon=0.0)


def test_cost_views_bounded_below_by_free_flow(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="drp", seed=1, horizon=200.0)
    world = result.world
    snap = snapshot_of(world)
    pv = predicted_cost_view(snap)
    iv = instantaneous_cost_view(world)
    for eid, edge in world.model.edges.items():
        assert pv[eid] >= 2 * edge.t0 - 1e-9
        assert iv[eid] >= 2 * edge.t0 - 1e-9


def test_proposed_idle_on_empty_network(dl_chain3):
    world = make_world(dl_chain3)
    snap = snapshot_of(world)
    decision = strategy_step("proposed", world, snap, PAR,
                             warned_segments(snap, PAR), predicted_cost_view(snap))
    assert decision.actions == []
    assert decision.reroutes == []
    assert decision.warned == frozenset()


def test_escalation_greedy_takes_farthest_first():
    world = _escalation_world(n_conflict=3)
    snap = snapshot_of(world)
    target = SegmentRef(1, Lane.RIGHT, 1)
    costs = predicted_cost_view(snap)
    assignments, _ = rerouting_escalation(
        snap, PAR, frozenset({target}), costs, require_gpl_gate=False
    )
    assert assignments, "expected at least one reroute"
    # vehicle 3 sits farthest upstream, hence largest predicted entry time
    assert assignments[0].vehicle == 3


@pytest.mark.parametrize("strategy", ["prp", "proposed"])
def test_strategy_step_reroutes_on_the_costs_it_is_given(strategy, monkeypatch):
    import jointlane.control as control

    world = _escalation_world()
    snap = snapshot_of(world)
    snap.predicted_time[SegmentRef(1, Lane.LEFT, 1)] = 100.0  # opens proposed's GPL gate
    warned = warned_segments(snap, PAR)
    assert SegmentRef(1, Lane.RIGHT, 1) in warned
    costs = predicted_cost_view(snap)

    def derived_again(*args, **kwargs):
        raise AssertionError("the control step derived a view it was given")

    reroute = control.routing.reroute
    seen = []

    def spy(*args, **kwargs):
        seen.append(args[5])
        return reroute(*args, **kwargs)

    monkeypatch.setattr(control, "predicted_cost_view", derived_again)
    monkeypatch.setattr(control, "warned_segments", derived_again)
    monkeypatch.setattr(control.routing, "reroute", spy)
    decision = strategy_step(strategy, world, snap, PAR, warned, costs)
    assert decision.warned == warned
    assert decision.reroutes
    assert seen and all(c is costs for c in seen)
