import math

import pytest

from jointlane.network import (
    OTHER,
    TAG,
    Edge,
    Lane,
    NetworkError,
    NetworkModel,
    SegmentRef,
    VehicleClass,
    default_jam_count,
)
from jointlane.scenario import load_scenario, resolve_scenario

from conftest import make_model


def test_minimal_network_has_four_segments():
    model = make_model([(0, 1, 2, 100.0, 10.0, False)])
    segs = model.segments(0)
    assert len(segs) == 4
    assert segs == (
        SegmentRef(0, Lane.LEFT, 1),
        SegmentRef(0, Lane.LEFT, 2),
        SegmentRef(0, Lane.RIGHT, 1),
        SegmentRef(0, Lane.RIGHT, 2),
    )


def test_segment_of_boundaries():
    model = make_model([(0, 1, 2, 400.0, 10.0, False)])
    assert model.segment_of(0, Lane.LEFT, 0.0).m == 1
    assert model.segment_of(0, Lane.LEFT, 150.0).m == 1
    assert model.segment_of(0, Lane.LEFT, 200.0).m == 2  # midpoint belongs downstream
    assert model.segment_of(0, Lane.LEFT, 400.0).m == 2
    with pytest.raises(NetworkError):
        model.segment_of(0, Lane.LEFT, 400.1)
    with pytest.raises(NetworkError):
        model.segment_of(0, Lane.LEFT, -1.0)


def test_lane_tables_name_the_other_lane_and_the_tag():
    assert OTHER[Lane.LEFT] is Lane.RIGHT and OTHER[Lane.RIGHT] is Lane.LEFT
    assert TAG[Lane.LEFT] == "L" and TAG[Lane.RIGHT] == "R"


@pytest.mark.parametrize("name", ["desk_small", "desk_large"])
def test_halves_hold_every_segment_at_its_address(name):
    model = load_scenario(resolve_scenario(name)).model
    for s in model.all_segments():
        ref = model.halves[s.edge][s.lane][s.m - 1]
        assert ref == s and type(ref) is SegmentRef and ref.lane is s.lane
    for eid, edge in model.edges.items():
        for lane in Lane:
            for offset in (0.0, edge.seg_length, edge.length):
                seg = model.segment_of(eid, lane, offset)
                assert seg is model.halves[eid][lane][seg.m - 1]


def test_segment_spans_cover_edge():
    model = make_model([(0, 1, 2, 333.0, 9.0, False)])
    length = model.edges[0].length
    step = length / 1000
    for i in range(1001):
        offset = min(i * step, length)
        seg = model.segment_of(0, Lane.RIGHT, offset)
        assert seg.m in (1, 2)
        assert (seg.m == 1) == (offset < length / 2)


def test_free_flow_time_times_speed_is_half_length():
    model = make_model([(0, 1, 2, 300.0, 7.0, False)])
    edge = model.edges[0]
    assert edge.t0 * edge.free_flow_speed == edge.length / 2
    for length, speed in [(123.4, 3.7), (991.0, 13.9), (75.0, 10.0)]:
        e = Edge(id=9, frm=1, to=2, length=length, free_flow_speed=speed,
                 dl=False, capacity=0.2, jam_count=5)
        assert math.isclose(e.t0 * speed, length / 2, rel_tol=1e-12)


def test_permitted_lanes_by_class():
    model = make_model([(0, 1, 2, 100.0, 10.0, True), (1, 2, 3, 100.0, 10.0, False)])
    assert model.permitted_lanes(VehicleClass.HDV, 0) == (Lane.LEFT,)
    assert model.permitted_lanes(VehicleClass.CAV, 0) == (Lane.LEFT, Lane.RIGHT)
    assert model.permitted_lanes(VehicleClass.HDV, 1) == (Lane.LEFT, Lane.RIGHT)
    assert model.permitted_lanes(VehicleClass.BUS, 0) == (Lane.RIGHT,)
    with pytest.raises(NetworkError):
        model.permitted_lanes(VehicleClass.BUS, 1)  # no dedicated lane there


def test_bus_route_lane_path(dl_chain3):
    path = dl_chain3.bus_route_lane_path([0, 1, 2])
    assert len(path) == 6
    assert path[0] == SegmentRef(0, Lane.RIGHT, 1)
    assert path[-1] == SegmentRef(2, Lane.RIGHT, 2)
    assert [p.edge for p in path] == [0, 0, 1, 1, 2, 2]


def test_bus_route_single_edge():
    model = make_model([(0, 1, 2, 100.0, 10.0, True)])
    assert len(model.bus_route_lane_path([0])) == 2


def test_bus_route_rejects_general_purpose_edge():
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, True),
         (1, 2, 3, 100.0, 10.0, False),
         (2, 3, 4, 100.0, 10.0, True)]
    )
    with pytest.raises(NetworkError, match="not a dedicated lane"):
        model.bus_route_lane_path([0, 1, 2])


def test_bus_route_needs_right_lane_connection():
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, True), (1, 2, 3, 100.0, 10.0, True)],
        connections={(0, 1): (Lane.LEFT,)},
    )
    with pytest.raises(NetworkError, match="right-lane connection"):
        model.bus_route_lane_path([0, 1])


def test_connection_must_be_adjacent():
    edges = [
        Edge(id=0, frm=1, to=2, length=100.0, free_flow_speed=10.0, dl=False,
             capacity=0.2, jam_count=5),
        Edge(id=1, frm=3, to=4, length=100.0, free_flow_speed=10.0, dl=False,
             capacity=0.2, jam_count=5),
    ]
    with pytest.raises(NetworkError, match="does not start at"):
        NetworkModel([1, 2, 3, 4], edges, {(0, 1): frozenset({Lane.LEFT})})


def test_duplicate_edge_ids_rejected():
    edges = [
        Edge(id=0, frm=1, to=2, length=100.0, free_flow_speed=10.0, dl=False,
             capacity=0.2, jam_count=5),
        Edge(id=0, frm=2, to=3, length=100.0, free_flow_speed=10.0, dl=False,
             capacity=0.2, jam_count=5),
    ]
    with pytest.raises(NetworkError, match="duplicate"):
        NetworkModel([1, 2, 3], edges, {})


def test_default_jam_count_spacing():
    assert default_jam_count(75.0) == 10
    assert default_jam_count(40.0) == 6
    assert default_jam_count(1.0) == 1


def test_synthesized_connections_cover_adjacent_pairs(chain3):
    both = frozenset((Lane.LEFT, Lane.RIGHT))
    assert chain3.connections == {(0, 1): both, (1, 2): both}


def test_edge_validation():
    with pytest.raises(NetworkError):
        Edge(id=0, frm=1, to=2, length=0.0, free_flow_speed=10.0, dl=False,
             capacity=0.2, jam_count=5)
    with pytest.raises(NetworkError):
        Edge(id=0, frm=1, to=2, length=10.0, free_flow_speed=10.0, dl=False,
             capacity=0.0, jam_count=5)
    with pytest.raises(NetworkError):
        Edge(id=0, frm=1, to=2, length=10.0, free_flow_speed=10.0, dl=False,
             capacity=0.2, jam_count=0)


def test_gate_open_cycle():
    e = Edge(id=0, frm=1, to=2, length=100.0, free_flow_speed=10.0, dl=False,
             capacity=0.2, jam_count=5, gate=(60.0, 30.0, 0.0))
    assert e.gate_open(0.0)
    assert e.gate_open(29.0)
    assert not e.gate_open(30.0)
    assert not e.gate_open(59.0)
    assert e.gate_open(60.0)


def test_desk_fixture_counts(desk_small):
    model = desk_small.model
    assert len(model.nodes) == 21
    assert len(model.edges) == 36
    assert len(model.bus_stops) == 3
    assert all(model.edges[e].dl for e in range(10, 18))
    for line in desk_small.bus_lines:
        model.bus_route_lane_path(list(line.route))


def test_next_edges_total_for_buses():
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False), (1, 2, 3, 100.0, 10.0, True)]
    )
    # a bus can never be on edge 0, so the query is simply empty, not an error
    assert model.next_edges(0, VehicleClass.BUS) == ()
