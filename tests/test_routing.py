import random

import pytest

from jointlane.network import Lane, SegmentRef, VehicleClass
from jointlane.routing import (
    RoutingError,
    free_flow_costs,
    initial_route,
    path_cost,
    reroute,
    shortest_path,
)

from conftest import make_model


def test_single_edge_route():
    model = make_model([(0, 1, 2, 100.0, 10.0, False)])
    costs = free_flow_costs(model)
    assert shortest_path(model, 1, 2, VehicleClass.CAV, costs) == [0]


def test_parallel_routes_pick_cheaper():
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False), (1, 2, 4, 100.0, 10.0, False),
         (2, 1, 3, 100.0, 10.0, False), (3, 3, 4, 100.0, 10.0, False)]
    )
    costs = {0: 50.0, 1: 50.0, 2: 60.0, 3: 60.0}
    assert shortest_path(model, 1, 4, VehicleClass.CAV, costs) == [0, 1]
    costs = {0: 70.0, 1: 70.0, 2: 60.0, 3: 60.0}
    assert shortest_path(model, 1, 4, VehicleClass.CAV, costs) == [2, 3]


def test_equal_cost_tie_breaks_lexicographically():
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False), (1, 2, 4, 100.0, 10.0, False),
         (2, 1, 3, 100.0, 10.0, False), (3, 3, 4, 100.0, 10.0, False)]
    )
    costs = {0: 50.0, 1: 50.0, 2: 50.0, 3: 50.0}
    assert shortest_path(model, 1, 4, VehicleClass.CAV, costs) == [0, 1]


def test_unreachable_returns_none():
    model = make_model([(0, 1, 2, 100.0, 10.0, False), (1, 3, 4, 100.0, 10.0, False)])
    costs = free_flow_costs(model)
    assert shortest_path(model, 1, 4, VehicleClass.CAV, costs) is None


def test_forbidden_bridge_blocks():
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False), (1, 2, 3, 100.0, 10.0, False)]
    )
    costs = free_flow_costs(model)
    assert shortest_path(model, 1, 3, VehicleClass.CAV, costs,
                         forbidden=frozenset({1})) is None


def test_same_origin_destination_rejected():
    model = make_model([(0, 1, 2, 100.0, 10.0, False)])
    with pytest.raises(RoutingError):
        shortest_path(model, 1, 1, VehicleClass.CAV, free_flow_costs(model))


def test_turn_restriction_respected_per_class():
    # edge 1 reachable only from the right lane; HDVs may not use the right
    # lane on a dedicated-lane edge, so the turn is closed for them
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, True), (1, 2, 3, 100.0, 10.0, False)],
        connections={(0, 1): (Lane.RIGHT,)},
    )
    costs = free_flow_costs(model)
    assert shortest_path(model, 1, 3, VehicleClass.CAV, costs) == [0, 1]
    assert shortest_path(model, 1, 3, VehicleClass.HDV, costs) is None


def _random_network(rng, dl=False):
    """Random small graph with all-lane turns; with `dl`, each edge's right
    lane is dedicated at random and each turn opens a random lane set."""
    n_nodes = rng.randrange(3, 9)
    nodes = list(range(n_nodes))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(pairs)
    n_edges = rng.randrange(2, 15)
    rows = [
        (i, a, b, 100.0, 10.0, dl and rng.random() < 0.5)
        for i, (a, b) in enumerate(pairs[:n_edges])
    ]
    if not dl:
        return make_model(rows)
    lane_sets = [(Lane.LEFT,), (Lane.RIGHT,), (Lane.LEFT, Lane.RIGHT)]
    connections = {
        (src[0], dst[0]): rng.choice(lane_sets)
        for src in rows
        for dst in rows
        if src[2] == dst[1]
    }
    return make_model(rows, connections=connections)


# the paper's lane-access rules: lanes per class on (a general-purpose edge,
# an edge whose right lane is dedicated)
CLASS_LANES = {
    VehicleClass.CAV: ((Lane.LEFT, Lane.RIGHT), (Lane.LEFT, Lane.RIGHT)),
    VehicleClass.HDV: ((Lane.LEFT, Lane.RIGHT), (Lane.LEFT,)),
    VehicleClass.BUS: ((), (Lane.RIGHT,)),
}


def test_class_tables_match_brute_force_on_random_networks():
    rng = random.Random(5)
    for dl in (False, True):
        for _ in range(100):
            model = _random_network(rng, dl=dl)
            for vclass in VehicleClass:
                for eid, edge in model.edges.items():
                    lanes = CLASS_LANES[vclass][edge.dl]
                    expected = tuple(sorted(
                        dst
                        for (src, dst), turn in model.connections.items()
                        if src == eid and any(l in turn for l in lanes)
                    ))
                    assert model.next_edges(eid, vclass) == expected
                    if lanes:
                        assert model.permitted_lanes(vclass, eid) == lanes
            assert model.dl_segments == {
                SegmentRef(eid, Lane.RIGHT, m)
                for eid, edge in model.edges.items()
                if edge.dl
                for m in (1, 2)
            }


def _enumerate_simple_paths(model, origin, destination, costs):
    best = None
    stack = [(origin, [], {origin})]
    while stack:
        node, path, visited = stack.pop()
        for eid in model.out_edges(node):
            edge = model.edges[eid]
            if edge.to in visited:
                continue
            cost = path_cost(path + [eid], costs)
            if edge.to == destination:
                if best is None or cost < best:
                    best = cost
            else:
                stack.append((edge.to, path + [eid], visited | {edge.to}))
    return best


def test_shortest_path_matches_enumeration_on_random_graphs():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(200):
        model = _random_network(rng)
        costs = {eid: rng.uniform(1.0, 100.0) for eid in model.edges}
        nodes = model.nodes
        origin, destination = rng.sample(nodes, 2)
        found = shortest_path(model, origin, destination, VehicleClass.CAV, costs)
        expected = _enumerate_simple_paths(model, origin, destination, costs)
        if found is None:
            assert expected is None
            continue
        assert expected is not None
        if abs(path_cost(found, costs) - expected) > 1e-9:
            mismatches += 1
    assert mismatches == 0


def test_forbidding_edges_never_reduces_cost():
    rng = random.Random(77)
    for _ in range(100):
        model = _random_network(rng)
        costs = {eid: rng.uniform(1.0, 100.0) for eid in model.edges}
        origin, destination = rng.sample(model.nodes, 2)
        base = shortest_path(model, origin, destination, VehicleClass.CAV, costs)
        if base is None:
            continue
        banned = frozenset(rng.sample(sorted(model.edges), min(2, len(model.edges))))
        restricted = shortest_path(
            model, origin, destination, VehicleClass.CAV, costs, forbidden=banned
        )
        if restricted is not None:
            assert path_cost(restricted, costs) >= path_cost(base, costs) - 1e-9


def test_returned_routes_respect_turn_connectivity():
    rng = random.Random(31)
    for dl in (False, True):
        for _ in range(100):
            model = _random_network(rng, dl=dl)
            costs = {eid: rng.uniform(1.0, 100.0) for eid in model.edges}
            origin, destination = rng.sample(model.nodes, 2)
            for vclass in (VehicleClass.CAV, VehicleClass.HDV):
                route = shortest_path(model, origin, destination, vclass, costs)
                if route is None:
                    continue
                for a, b in zip(route, route[1:]):
                    turn = model.connections[(a, b)]
                    assert any(l in turn for l in model.permitted_lanes(vclass, a))


def test_initial_route_prefers_cheap_detour(chain3):
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False), (1, 2, 4, 100.0, 10.0, False),
         (2, 1, 3, 100.0, 10.0, False), (3, 3, 4, 100.0, 10.0, False)]
    )
    assert initial_route(model, 1, 4, VehicleClass.CAV) == [0, 1]
    live = {0: 10.0, 1: 500.0, 2: 20.0, 3: 20.0}  # congested direct leg
    assert initial_route(model, 1, 4, VehicleClass.CAV, costs=live) == [2, 3]


def test_reroute_preserves_prefix_and_avoids_edges():
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False),
         (1, 2, 3, 100.0, 10.0, False),
         (2, 3, 4, 100.0, 10.0, False),
         (3, 2, 5, 100.0, 10.0, False),
         (4, 5, 3, 100.0, 10.0, False)]
    )
    costs = free_flow_costs(model)
    route = [0, 1, 2]
    out = reroute(model, route, 0, 4, VehicleClass.CAV, costs,
                  forbidden=frozenset({1}))
    assert out == [0, 3, 4, 2]
    assert out[0] == 0  # current edge untouched


def test_reroute_none_on_final_edge_or_dead_end():
    model = make_model(
        [(0, 1, 2, 100.0, 10.0, False), (1, 2, 3, 100.0, 10.0, False)]
    )
    costs = free_flow_costs(model)
    assert reroute(model, [0, 1], 1, 3, VehicleClass.CAV, costs) is None
    assert reroute(model, [0, 1], 0, 3, VehicleClass.CAV, costs,
                   forbidden=frozenset({1})) is None
