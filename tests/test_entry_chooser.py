"""The CAV entry chooser, on hand-built worlds and snapshots.

The chooser orders the two lanes of the edge a CAV enters. It is compared
with the rule it replaced, a sort by (cost, lane index) of the two upstream
halves, in every case.
"""

import random
from dataclasses import replace

import pytest

from jointlane.control import entry_chooser
from jointlane.network import Lane, SegmentRef, VehicleClass
from jointlane.prediction import BprParams, ProtectionHorizon, build_bus_windows, build_snapshot

from conftest import make_model, make_world, put_vehicle

LR = (Lane.LEFT, Lane.RIGHT)
RL = (Lane.RIGHT, Lane.LEFT)
ENTRY = 1  # the edge the CAV enters; its right lane is dedicated
PROTECTION = ProtectionHorizon(30.0)


def _world(left=0, right=0):
    """Edges 0 and 1 with a dedicated right lane, edge 2 without; a bus at
    the start of edge 0's DL, so the DL halves ahead of it have live windows
    at t = 0; and `left` and `right` CAVs on the upstream halves of edge 1."""
    model = make_model([(0, 1, 2, 200.0, 10.0, True),
                        (1, 2, 3, 200.0, 10.0, True),
                        (2, 3, 4, 200.0, 10.0, False)])
    world = make_world(model)
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1], lane=Lane.RIGHT, speed=10.0)
    _fill(world, ENTRY, left, right)
    return world


def _fill(world, edge_id, left, right):
    vid = max(world.vehicles) + 1
    for lane, count in ((Lane.LEFT, left), (Lane.RIGHT, right)):
        for k in range(count):
            put_vehicle(world, vid, VehicleClass.CAV, [edge_id], lane=lane,
                        offset=90.0 - 5.0 * k)
            vid += 1


def _snapshot(world, predicted=None):
    """The world's snapshot, with the given predicted upstream-half times."""
    snap = build_snapshot(world, build_bus_windows(world, PROTECTION), BprParams(),
                          PROTECTION, 15.0)
    if predicted is not None:
        snap = replace(snap, predicted_time=dict(predicted))
    return snap


def _halves(edge_id):
    return SegmentRef(edge_id, Lane.LEFT, 1), SegmentRef(edge_id, Lane.RIGHT, 1)


def _times(edge_id, left, right):
    lseg, rseg = _halves(edge_id)
    return {lseg: left, rseg: right}


def _old_order(strategy, snapshot, warned, world, edge_id):
    """The rule the chooser replaced: the GPL first on a warned DL half inside
    a live window under prp and proposed, else the lanes sorted by (cost,
    lane index), with the predicted time as proposed's cost and the negated
    current speed as drp's and prp's."""
    rseg = SegmentRef(edge_id, Lane.RIGHT, 1)
    if (strategy != "drp" and world.model.edges[edge_id].dl and rseg in warned
            and snapshot.windows.contains(rseg, world.t)):
        return LR
    if strategy == "proposed":
        def cost(lane):
            return snapshot.predicted(SegmentRef(edge_id, lane, 1))
    else:
        def cost(lane):
            return -world.segment_speed(SegmentRef(edge_id, lane, 1))
    return tuple(sorted(LR, key=lambda lane: (cost(lane), int(lane))))


def _choose(strategy, world, snapshot, warned, edge_id=ENTRY):
    got = entry_chooser(strategy, snapshot, warned)(world, None, edge_id)
    assert got == _old_order(strategy, snapshot, warned, world, edge_id)
    return got


def test_the_bus_gives_the_entry_halves_live_windows():
    world = _world()
    snap = _snapshot(world)
    for edge_id in (0, 1):
        assert snap.windows.contains(SegmentRef(edge_id, Lane.RIGHT, 1), 0.0)


@pytest.mark.parametrize("strategy", ["prp", "proposed"])
def test_warned_dl_half_in_a_live_window_puts_the_gpl_first(strategy):
    # every cost favours the right lane: it is empty, and predicted faster
    world = _world(left=6)
    snap = _snapshot(world, _times(ENTRY, 20.0, 10.0))
    _, rseg = _halves(ENTRY)
    assert _choose(strategy, world, snap, frozenset()) == RL
    assert _choose(strategy, world, snap, frozenset({rseg})) == LR
    # a warning on another segment binds nothing here
    assert _choose(strategy, world, snap, frozenset({SegmentRef(0, Lane.RIGHT, 1)})) == RL


@pytest.mark.parametrize("strategy", ["prp", "proposed"])
def test_warned_dl_half_outside_its_window_orders_by_cost(strategy):
    world = _world(left=6)
    snap = _snapshot(world, _times(ENTRY, 20.0, 10.0))
    _, rseg = _halves(ENTRY)
    world.t = 1000.0  # every window has closed
    assert not snap.windows.contains(rseg, world.t)
    assert _choose(strategy, world, snap, frozenset({rseg})) == RL


def test_drp_ignores_warned_segments():
    world = _world(left=6)
    snap = _snapshot(world)
    _, rseg = _halves(ENTRY)
    assert snap.windows.contains(rseg, world.t)
    assert _choose("drp", world, snap, frozenset({rseg})) == RL


@pytest.mark.parametrize(
    "left, right, expected",
    [(20.0, 10.0, RL), (10.0, 20.0, LR), (15.0, 15.0, LR)],
)
def test_proposed_orders_by_predicted_time_ties_left(left, right, expected):
    # the speeds favour the other lane each time, and proposed ignores them
    world = _world(left=6) if expected == LR else _world(right=6)
    snap = _snapshot(world, _times(ENTRY, left, right))
    assert _choose("proposed", world, snap, frozenset()) == expected


@pytest.mark.parametrize("strategy", ["drp", "prp"])
@pytest.mark.parametrize(
    "left, right, expected",
    [(6, 0, RL), (0, 6, LR), (3, 3, LR), (0, 0, LR)],
)
def test_drp_and_prp_order_by_speed_ties_left(strategy, left, right, expected):
    # the predicted times favour the other lane each time, and are ignored
    world = _world(left=left, right=right)
    lseg, rseg = _halves(ENTRY)
    assert (world.segment_speed(rseg) > world.segment_speed(lseg)) == (expected == RL)
    times = _times(ENTRY, 10.0, 20.0) if expected == RL else _times(ENTRY, 20.0, 10.0)
    snap = _snapshot(world, times)
    assert _choose(strategy, world, snap, frozenset()) == expected


@pytest.mark.parametrize("seed", range(5))
def test_chooser_equals_the_sorted_order(seed):
    """Random occupancies, predicted times with many ties, warned sets and
    clock times, on DL and non-DL edges under every strategy."""
    rng = random.Random(seed)
    for _ in range(40):
        world = _world()
        for edge_id in (1, 2):
            _fill(world, edge_id, rng.randrange(0, 6), rng.randrange(0, 6))
        times = {}
        for edge_id in (0, 1, 2):
            times.update(_times(edge_id, rng.choice((10.0, 12.0)), rng.choice((10.0, 12.0))))
        snap = _snapshot(world, times)
        dl_halves = [SegmentRef(e, Lane.RIGHT, m) for e in (0, 1) for m in (1, 2)]
        warned = frozenset(seg for seg in dl_halves if rng.random() < 0.5)
        world.t = rng.choice((0.0, 25.0, 50.0, 1000.0))
        for strategy in ("drp", "prp", "proposed"):
            for edge_id in (0, 1, 2):
                _choose(strategy, world, snap, warned, edge_id)
