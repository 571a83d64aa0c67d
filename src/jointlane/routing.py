"""Class-aware weighted shortest paths over the edge graph.

The search runs on edges rather than nodes so turn connections (which are
lane-resolved) can gate every expansion: two consecutive edges are usable by
a vehicle class only when some lane permitted to that class links them.
Equal-cost ties resolve to the lexicographically smallest edge-id sequence.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Optional, Sequence

from .network import NetworkModel, VehicleClass


class RoutingError(ValueError):
    pass


def free_flow_costs(model: NetworkModel) -> dict[int, float]:
    """Per-edge free-flow traversal times (two segments each), a fresh copy
    the caller may edit."""
    return model.free_flow.copy()


def shortest_path(
    model: NetworkModel,
    origin: int,
    destination: int,
    vclass: VehicleClass,
    costs: Mapping[int, float],
    forbidden: frozenset[int] = frozenset(),
    prev_edge: Optional[int] = None,
) -> Optional[list[int]]:
    """Minimal-cost edge sequence from origin node to destination node.

    With `prev_edge` set, the path must begin with an edge reachable from it
    (mid-trip continuation). Returns None when the destination is unreachable.

    Every cost must be non-negative. Labels then pop in nondecreasing
    (cost, path) order, so an edge's first label to pop is its best and the
    edge is settled: every later label of it, and every extension into it,
    is dominated. The expansions read the class's successor table and the
    goal test the destination's in-edge set, both built with the model.
    """
    if origin == destination and prev_edge is None:
        raise RoutingError("origin and destination must differ")
    if prev_edge is None:
        starts = [e for e in model.out_edges(origin) if e not in forbidden]
    else:
        starts = [e for e in model.next_edges(prev_edge, vclass) if e not in forbidden]
    heap: list[tuple[float, tuple[int, ...], int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for e in sorted(starts):
        cost = costs[e]
        if cost < 0:
            raise RoutingError(f"negative cost on edge {e}")
        push(heap, (cost, (e,), e))
    successors = model._next[vclass]
    goal = model._in.get(destination, ())
    settled: set[int] = set()
    while heap:
        cost, path, edge = pop(heap)
        if edge in settled:
            continue
        settled.add(edge)
        if edge in goal:
            return list(path)
        for nxt in successors.get(edge, ()):
            if nxt not in forbidden and nxt not in settled:
                push(heap, (cost + costs[nxt], path + (nxt,), nxt))
    return None


def path_cost(path: Sequence[int], costs: Mapping[int, float]) -> float:
    total = 0.0
    for e in path:
        total += costs[e]
    return total


def initial_route(
    model: NetworkModel,
    origin: int,
    destination: int,
    vclass: VehicleClass,
    costs: Optional[Mapping[int, float]] = None,
) -> Optional[list[int]]:
    """Route assigned at injection; free-flow costs when no live view exists."""
    if costs is None:
        costs = free_flow_costs(model)
    return shortest_path(model, origin, destination, vclass, costs)


def reroute(
    model: NetworkModel,
    route: Sequence[int],
    route_index: int,
    destination: int,
    vclass: VehicleClass,
    costs: Mapping[int, float],
    forbidden: frozenset[int] = frozenset(),
) -> Optional[list[int]]:
    """New route preserving the traversed prefix and the current edge.

    Returns None when the vehicle is on its final edge or no alternative
    suffix exists. The current edge never appears in the forbidden set.
    """
    if route_index + 1 >= len(route):
        return None
    current = route[route_index]
    forbidden = frozenset(forbidden) - {current}
    node = model.edges[current].to
    suffix = shortest_path(
        model, node, destination, vclass, costs, forbidden=forbidden, prev_edge=current
    )
    if suffix is None:
        return None
    return list(route[: route_index + 1]) + suffix
