"""Directed two-lane road network with half-edge segment resolution.

Every edge carries exactly two same-direction lanes: the left lane is always
general purpose, the right lane is either general purpose or a dedicated bus
lane (DL) that CAVs may share under control. Each lane is split into an
upstream half (m=1) and a downstream half (m=2); segments are the spatial unit
of prediction and control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum, IntEnum
from typing import NamedTuple, Optional, Sequence

#: default jam spacing used when a scenario does not give a storage limit
JAM_SPACING_M = 7.5

#: fraction of free-flow speed retained at jam density (also avoids 1/0 in
#: downstream travel-time predictions)
SPEED_FLOOR = 0.05

#: smallest edge capacity accepted, veh/s per lane (0.0036 veh/h); a smaller
#: one can push the volume-delay term (flow / capacity) ** beta past the
#: float range
MIN_CAPACITY = 1e-6


class NetworkError(ValueError):
    """Raised for structurally invalid networks or queries."""


class Lane(IntEnum):
    LEFT = 0
    RIGHT = 1

    @property
    def other(self) -> "Lane":
        return Lane.RIGHT if self is Lane.LEFT else Lane.LEFT

    @property
    def tag(self) -> str:
        return "L" if self is Lane.LEFT else "R"


class VehicleClass(str, Enum):
    HDV = "hdv"
    CAV = "cav"
    BUS = "bus"


class SegmentRef(NamedTuple):
    """Address of one lane segment: (edge id, lane, half index m in {1, 2})."""

    edge: int
    lane: Lane
    m: int


@dataclass(frozen=True)
class Edge:
    id: int
    frm: int
    to: int
    length: float              # meters
    free_flow_speed: float     # m/s
    dl: bool                   # right lane reserved for buses (joint CAV use)
    capacity: float            # veh/s, per lane per segment
    jam_count: int             # storage limit, vehicles per lane per segment
    gate: Optional[tuple[float, float, float]] = None  # (cycle, green, offset) seconds
    seg_length: float = field(init=False, repr=False)  # meters, one half edge
    t0: float = field(init=False, repr=False)  # free-flow traversal time of one segment

    def __post_init__(self):
        if self.length <= 0:
            raise NetworkError(f"edge {self.id}: length must be > 0")
        if self.free_flow_speed <= 0:
            raise NetworkError(f"edge {self.id}: free_flow_speed must be > 0")
        if self.capacity <= 0:
            raise NetworkError(f"edge {self.id}: capacity must be > 0")
        if self.capacity < MIN_CAPACITY:
            raise NetworkError(f"edge {self.id}: capacity must be >= {MIN_CAPACITY:g} veh/s")
        if self.jam_count < 1:
            raise NetworkError(f"edge {self.id}: jam_count must be >= 1")
        if self.gate is not None:
            cycle, green, _ = self.gate
            if cycle <= 0 or green < 0 or green > cycle:
                raise NetworkError(f"edge {self.id}: gate needs 0 <= green <= cycle")
        object.__setattr__(self, "seg_length", self.length / 2.0)
        object.__setattr__(self, "t0", self.seg_length / self.free_flow_speed)

    @cached_property
    def speeds(self) -> tuple[float, ...]:
        """Segment speed at occupancy n = 0..jam_count, built on first use with
        the speed-density expression ffs * clamp(1 - n/jam_count, floor, 1), so
        each entry is the float that expression gives."""
        return tuple(
            self.free_flow_speed * min(1.0, max(SPEED_FLOOR, 1.0 - n / self.jam_count))
            for n in range(self.jam_count + 1)
        )

    def gate_open(self, t: float) -> bool:
        """Whether the downstream end of this edge admits transfers at time t."""
        if self.gate is None:
            return True
        cycle, green, offset = self.gate
        return (t + offset) % cycle < green


@dataclass(frozen=True)
class BusStop:
    id: int
    edge: int
    offset: float              # meters from edge start, in (0, length]


def default_jam_count(seg_length: float) -> int:
    return max(1, math.ceil(seg_length / JAM_SPACING_M))


class NetworkModel:
    """Immutable road graph shared read-only by engine, predictor and router."""

    def __init__(
        self,
        nodes: Sequence[int],
        edges: Sequence[Edge],
        connections: dict[tuple[int, int], frozenset[Lane]],
        bus_stops: Sequence[BusStop] = (),
    ):
        self.nodes: tuple[int, ...] = tuple(sorted(set(nodes)))
        self.edges: dict[int, Edge] = {e.id: e for e in sorted(edges, key=lambda e: e.id)}
        if len(self.edges) != len(edges):
            raise NetworkError("duplicate edge ids")
        node_set = set(self.nodes)
        for e in self.edges.values():
            if e.frm not in node_set or e.to not in node_set:
                raise NetworkError(f"edge {e.id}: endpoint not in node set")
        self.connections = dict(connections)
        for (src, dst), lanes in self.connections.items():
            if src not in self.edges or dst not in self.edges:
                raise NetworkError(f"connection ({src} -> {dst}): unknown edge")
            if self.edges[src].to != self.edges[dst].frm:
                raise NetworkError(
                    f"connection ({src} -> {dst}): edge {dst} does not start at the "
                    f"node where edge {src} ends"
                )
            if not lanes:
                raise NetworkError(f"connection ({src} -> {dst}): empty lane set")
        self.bus_stops: dict[int, BusStop] = {s.id: s for s in sorted(bus_stops, key=lambda s: s.id)}
        for s in self.bus_stops.values():
            edge = self.edges.get(s.edge)
            if edge is None:
                raise NetworkError(f"bus stop {s.id}: unknown edge {s.edge}")
            if not edge.dl:
                raise NetworkError(
                    f"bus stop {s.id}: hosting edge {s.edge} right lane is not a dedicated lane"
                )
            if not (0 < s.offset <= edge.length):
                raise NetworkError(f"bus stop {s.id}: offset outside (0, length]")
        # node -> outgoing edge ids, sorted for determinism
        self._out: dict[int, tuple[int, ...]] = {n: () for n in self.nodes}
        for e in self.edges.values():
            self._out[e.frm] = self._out[e.frm] + (e.id,)
        # segment refs per edge, indexed [lane][m - 1]
        self.halves: dict[int, tuple[tuple[SegmentRef, SegmentRef], ...]] = {
            eid: tuple((SegmentRef(eid, lane, 1), SegmentRef(eid, lane, 2)) for lane in Lane)
            for eid in self.edges
        }
        self._segments = tuple(seg for eid in self.edges for seg in self.segments(eid))
        # lanes per (class, edge): buses run only on a dedicated right lane,
        # HDVs only on general-purpose lanes, CAVs on both; an edge without
        # a dedicated lane has no bus entry
        both = (Lane.LEFT, Lane.RIGHT)
        self._lanes: dict[tuple[VehicleClass, int], tuple[Lane, ...]] = {}
        for eid, e in self.edges.items():
            self._lanes[VehicleClass.CAV, eid] = both
            self._lanes[VehicleClass.HDV, eid] = (Lane.LEFT,) if e.dl else both
            if e.dl:
                self._lanes[VehicleClass.BUS, eid] = (Lane.RIGHT,)
        # successor edges per (class, edge), ascending: linked through some
        # lane the class may use on the upstream edge
        self._next: dict[tuple[VehicleClass, int], tuple[int, ...]] = {}
        for (src, dst), lanes in sorted(self.connections.items()):
            for vclass in VehicleClass:
                if any(l in lanes for l in self._lanes.get((vclass, src), ())):
                    self._next[vclass, src] = self._next.get((vclass, src), ()) + (dst,)
        # entry lanes per (class, edge, onward edge), filled by entry_lanes
        self._entry: dict[tuple[VehicleClass, int, Optional[int]], tuple[Lane, ...]] = {}
        self.dl_segments: frozenset[SegmentRef] = frozenset(
            seg for seg in self._segments if seg.lane is Lane.RIGHT and self.edges[seg.edge].dl
        )
        # bus stop id -> (edge, half m, offset within that half)
        self.stop_places: dict[int, tuple[int, int, float]] = {}
        for s in self.bus_stops.values():
            m = self.segment_of(s.edge, Lane.RIGHT, s.offset).m
            half = 0.0 if m == 1 else self.edges[s.edge].seg_length
            self.stop_places[s.id] = (s.edge, m, s.offset - half)

    # -- structural equality (used by load idempotency checks) ----------------

    def __eq__(self, other):
        if not isinstance(other, NetworkModel):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.connections == other.connections
            and self.bus_stops == other.bus_stops
        )

    # -- queries ---------------------------------------------------------------

    def out_edges(self, node: int) -> tuple[int, ...]:
        return self._out.get(node, ())

    def next_edges(self, edge_id: int, vclass: VehicleClass) -> tuple[int, ...]:
        """Successor edges the class can turn into, ascending; empty when none."""
        return self._next.get((vclass, edge_id), ())

    def connects(self, from_edge: int, lane: Lane, to_edge: int) -> bool:
        lanes = self.connections.get((from_edge, to_edge))
        return lanes is not None and lane in lanes

    def segment_of(self, edge_id: int, lane: Lane, offset: float) -> SegmentRef:
        """Map an in-edge offset to its segment; the midpoint belongs to m=2."""
        edge = self.edges[edge_id]
        if not (0 <= offset <= edge.length):
            raise NetworkError(
                f"offset {offset} outside [0, {edge.length}] on edge {edge_id}"
            )
        m = 1 if offset < edge.seg_length else 2
        return SegmentRef(edge_id, lane, m)

    def segments(self, edge_id: int) -> tuple[SegmentRef, ...]:
        left, right = self.halves[edge_id]
        return left + right

    def all_segments(self) -> tuple[SegmentRef, ...]:
        return self._segments

    def t0(self, seg: SegmentRef) -> float:
        return self.edges[seg.edge].t0

    def capacity(self, seg: SegmentRef) -> float:
        return self.edges[seg.edge].capacity

    def permitted_lanes(self, vclass: VehicleClass, edge_id: int) -> tuple[Lane, ...]:
        """Lanes a vehicle class may occupy on an edge, from the table built
        in ``__init__``; raises for a bus on an edge without a dedicated lane."""
        try:
            return self._lanes[vclass, edge_id]
        except KeyError:
            raise NetworkError(f"edge {edge_id}: no lane open to class {vclass.value}") from None

    def entry_lanes(
        self, vclass: VehicleClass, edge_id: int, onward: Optional[int]
    ) -> tuple[Lane, ...]:
        """Lanes a vehicle of the class may enter an edge on, given the edge it
        takes next (None at the end of its route): the permitted lanes,
        narrowed to those with a turn connection to the onward edge when there
        are any, so vehicles do not strand themselves. Each answer is kept in
        a table on first use; the lane rules never change."""
        key = (vclass, edge_id, onward)
        lanes = self._entry.get(key)
        if lanes is None:
            lanes = self.permitted_lanes(vclass, edge_id)
            if onward is not None:
                lanes = tuple(l for l in lanes if self.connects(edge_id, l, onward)) or lanes
            self._entry[key] = lanes
        return lanes

    def bus_route_lane_path(self, route_edges: Sequence[int]) -> list[SegmentRef]:
        """Right-lane segment sequence for a bus route given as edge ids.

        Raises if any edge lacks a dedicated right lane or if consecutive edges
        are not linked through the right lane.
        """
        if not route_edges:
            raise NetworkError("empty bus route")
        path: list[SegmentRef] = []
        for i, eid in enumerate(route_edges):
            edge = self.edges[eid]
            if not edge.dl:
                raise NetworkError(
                    f"bus route edge {eid} ({edge.frm} -> {edge.to}): right lane is not "
                    "a dedicated lane"
                )
            if i > 0:
                prev = route_edges[i - 1]
                if self.edges[prev].to != edge.frm:
                    raise NetworkError(
                        f"bus route edges {prev} -> {eid} are not adjacent"
                    )
                if not self.connects(prev, Lane.RIGHT, eid):
                    raise NetworkError(
                        f"bus route edges {prev} -> {eid} lack a right-lane connection"
                    )
            path.extend(self.halves[eid][Lane.RIGHT])
        return path


def synthesize_connections(edges: Sequence[Edge]) -> dict[tuple[int, int], frozenset[Lane]]:
    """All-lane connections for every adjacent edge pair (terse toy scenarios)."""
    by_node_out: dict[int, list[int]] = {}
    for e in edges:
        by_node_out.setdefault(e.frm, []).append(e.id)
    conns: dict[tuple[int, int], frozenset[Lane]] = {}
    both = frozenset((Lane.LEFT, Lane.RIGHT))
    for e in edges:
        for nxt in sorted(by_node_out.get(e.to, ())):
            conns[(e.id, nxt)] = both
    return conns
