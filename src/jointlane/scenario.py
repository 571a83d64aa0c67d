"""Scenario files: parsing, validation and assembly of run inputs.

A scenario is one JSON document with top-level keys ``meta``, ``nodes``,
``edges``, ``connections``, ``bus_stops``, ``bus_lines``, ``demand`` and
``control``. Lengths are meters, speeds m/s, times seconds and flows
vehicles/second unless a value carries an explicit unit tag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from . import routing
from .control import ControlError, ControlParams
from .engine import BusLineSpec, DemandEntry, EngineClock, EngineError, StopVisit
from .network import (
    BusStop,
    Edge,
    Lane,
    NetworkError,
    NetworkModel,
    VehicleClass,
    default_jam_count,
    synthesize_connections,
)
from .prediction import BprParams, PredictionError, ProtectionHorizon


class ScenarioError(ValueError):
    """Invalid scenario file: parse failure or violated invariant."""


@dataclass(frozen=True)
class Scenario:
    model: NetworkModel
    demand: tuple[DemandEntry, ...]
    bus_lines: tuple[BusLineSpec, ...]
    control: ControlParams
    bpr: BprParams
    protection: ProtectionHorizon
    clock: EngineClock
    meta: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = field(default=(), compare=False)


_LANES = {"left": Lane.LEFT, "l": Lane.LEFT, "right": Lane.RIGHT, "r": Lane.RIGHT}
_CLASSES = {"cav": VehicleClass.CAV, "hdv": VehicleClass.HDV}


def _fail(ctx: str, message: str):
    raise ScenarioError(f"{ctx}: {message}")


def _require(data: dict, key: str, ctx: str):
    if key not in data:
        _fail(ctx, f"missing required field '{key}'")
    return data[key]


def _number(value: Any, ctx: str) -> float:
    """A finite JSON or override number; json.loads accepts Infinity and NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(ctx, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(ctx, f"expected a finite number, got {value!r}")
    return float(value)


def _int(value: Any, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(ctx, f"expected an integer, got {value!r}")
    return value


def _list(value: Any, ctx: str) -> list:
    if not isinstance(value, list):
        _fail(ctx, f"expected a list, got {value!r}")
    return value


def _check_keys(data: Any, allowed: set[str], ctx: str):
    """Require a JSON object whose keys all lie in `allowed`."""
    if not isinstance(data, dict):
        _fail(ctx, f"expected an object, got {data!r}")
    unknown = set(data) - allowed
    if unknown:
        _fail(ctx, f"unknown field '{sorted(unknown)[0]}'")


def _flow(value: Any, ctx: str) -> float:
    """Flows are veh/s; a tagged object may give veh/h and is converted."""
    if isinstance(value, dict):
        _check_keys(value, {"value", "unit"}, ctx)
        raw = _number(_require(value, "value", ctx), ctx)
        unit = _require(value, "unit", ctx)
        if unit in ("veh/s", "vps"):
            return raw
        if unit in ("veh/h", "vph"):
            return raw / 3600.0
        _fail(ctx, f"unknown flow unit {unit!r}")
    return _number(value, ctx)


BUNDLED_SCENARIOS = ("desk_small", "desk_large")


def resolve_scenario(name: str) -> Path:
    """Map a bundled scenario name to its packaged file; paths pass through."""
    if name in BUNDLED_SCENARIOS:
        from importlib import resources

        return Path(str(resources.files("jointlane").joinpath(f"scenarios/{name}.json")))
    return Path(name)


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return from_dict(data, source=str(path))


def from_dict(data: Any, source: str = "<scenario>") -> Scenario:
    if not isinstance(data, dict):
        _fail(source, "top level must be an object")
    _check_keys(
        data,
        {"meta", "nodes", "edges", "connections", "bus_stops", "bus_lines", "demand", "control"},
        source,
    )
    warnings: list[str] = []

    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        _fail("meta", "must be an object")
    horizon = meta.get("horizon")
    if horizon is not None and _number(horizon, "meta.horizon") <= 0:
        _fail("meta.horizon", "must be > 0")

    # nodes: bare ids or {"id": n}
    raw_nodes = _list(_require(data, "nodes", source), "nodes")
    nodes: list[int] = []
    for i, item in enumerate(raw_nodes):
        ctx = f"nodes[{i}]"
        if isinstance(item, dict):
            _check_keys(item, {"id"}, ctx)
            nodes.append(_int(_require(item, "id", ctx), ctx))
        else:
            nodes.append(_int(item, ctx))
    if len(set(nodes)) != len(nodes):
        _fail("nodes", "duplicate node ids")

    edges = [
        _parse_edge(item, f"edges[{i}]")
        for i, item in enumerate(_list(_require(data, "edges", source), "edges"))
    ]

    if "connections" in data and data["connections"] is not None:
        connections: dict[tuple[int, int], frozenset[Lane]] = {}
        lane_sets: dict[tuple[int, int], set[Lane]] = {}
        for i, item in enumerate(_list(data["connections"], "connections")):
            ctx = f"connections[{i}]"
            _check_keys(item, {"from_edge", "from_lane", "to_edge"}, ctx)
            src = _int(_require(item, "from_edge", ctx), ctx)
            dst = _int(_require(item, "to_edge", ctx), ctx)
            lane_raw = str(_require(item, "from_lane", ctx)).lower()
            if lane_raw not in _LANES:
                _fail(ctx, f"from_lane must be left or right, got {lane_raw!r}")
            lane_sets.setdefault((src, dst), set()).add(_LANES[lane_raw])
        connections = {k: frozenset(v) for k, v in lane_sets.items()}
    else:
        connections = synthesize_connections(edges)
        warnings.append(
            "connections omitted: synthesized all-lane turns for every adjacent edge pair"
        )

    stops = [
        _parse_stop(item, f"bus_stops[{i}]")
        for i, item in enumerate(_list(data.get("bus_stops", []), "bus_stops"))
    ]

    try:
        model = NetworkModel(nodes, edges, connections, stops)
    except NetworkError as exc:
        raise ScenarioError(str(exc)) from exc

    control, bpr, protection, clock = _parse_control(data.get("control", {}))

    bus_lines = tuple(
        _parse_bus_line(item, f"bus_lines[{i}]", model)
        for i, item in enumerate(_list(data.get("bus_lines", []), "bus_lines"))
    )
    seen_lines = set()
    for line in bus_lines:
        if line.id in seen_lines:
            _fail("bus_lines", f"duplicate line id {line.id}")
        seen_lines.add(line.id)

    demand = tuple(
        _parse_demand(item, f"demand[{i}]", model)
        for i, item in enumerate(_list(data.get("demand", []), "demand"))
    )

    return Scenario(
        model=model,
        demand=demand,
        bus_lines=bus_lines,
        control=control,
        bpr=bpr,
        protection=protection,
        clock=clock,
        meta=dict(meta),
        warnings=tuple(warnings),
    )


def _parse_edge(item: Any, ctx: str) -> Edge:
    _check_keys(
        item,
        {"id", "from", "to", "length", "free_flow_speed", "dl", "capacity", "jam_count", "gate"},
        ctx,
    )
    length = _number(_require(item, "length", ctx), ctx + ".length")
    speed = _number(_require(item, "free_flow_speed", ctx), ctx + ".free_flow_speed")
    capacity = _flow(_require(item, "capacity", ctx), ctx + ".capacity")
    jam = item.get("jam_count")
    if jam is None:
        jam = default_jam_count(length / 2.0)
    else:
        jam = _int(jam, ctx + ".jam_count")
    dl = item.get("dl", False)
    if not isinstance(dl, bool):
        _fail(ctx + ".dl", f"expected true or false, got {dl!r}")
    gate = None
    if item.get("gate") is not None:
        g = item["gate"]
        _check_keys(g, {"cycle", "green", "offset"}, ctx + ".gate")
        gate = (
            _number(_require(g, "cycle", ctx), ctx + ".gate.cycle"),
            _number(_require(g, "green", ctx), ctx + ".gate.green"),
            _number(g.get("offset", 0.0), ctx + ".gate.offset"),
        )
    try:
        return Edge(
            id=_int(_require(item, "id", ctx), ctx + ".id"),
            frm=_int(_require(item, "from", ctx), ctx + ".from"),
            to=_int(_require(item, "to", ctx), ctx + ".to"),
            length=length,
            free_flow_speed=speed,
            dl=dl,
            capacity=capacity,
            jam_count=jam,
            gate=gate,
        )
    except NetworkError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _parse_stop(item: Any, ctx: str) -> BusStop:
    _check_keys(item, {"id", "edge", "offset"}, ctx)
    return BusStop(
        id=_int(_require(item, "id", ctx), ctx + ".id"),
        edge=_int(_require(item, "edge", ctx), ctx + ".edge"),
        offset=_number(_require(item, "offset", ctx), ctx + ".offset"),
    )


def _parse_bus_line(item: Any, ctx: str, model: NetworkModel) -> BusLineSpec:
    _check_keys(item, {"id", "route", "departures", "dwell", "stops"}, ctx)
    route_nodes = [
        _int(n, ctx + ".route") for n in _list(_require(item, "route", ctx), ctx + ".route")
    ]
    if len(route_nodes) < 2:
        _fail(ctx, "route needs at least two nodes")
    route_edges: list[int] = []
    for a, b in zip(route_nodes, route_nodes[1:]):
        matches = [e.id for e in model.edges.values() if e.frm == a and e.to == b]
        if not matches:
            _fail(ctx, f"no edge from node {a} to node {b}")
        if len(matches) > 1:
            _fail(ctx, f"ambiguous parallel edges from node {a} to node {b}")
        route_edges.append(matches[0])
    try:
        model.bus_route_lane_path(route_edges)
    except NetworkError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc
    departures = tuple(
        _number(v, ctx + ".departures")
        for v in _list(_require(item, "departures", ctx), ctx + ".departures")
    )
    if any(b <= a for a, b in zip(departures, departures[1:])):
        _fail(ctx, "departures must be strictly increasing")
    dwell = _number(item.get("dwell", 60.0), ctx + ".dwell")

    stop_entries = _list(item.get("stops", []), ctx + ".stops")
    stop_positions = []
    per_stop_arrivals: list[tuple[int, list[float]]] = []
    for j, entry in enumerate(stop_entries):
        sctx = f"{ctx}.stops[{j}]"
        _check_keys(entry, {"stop", "arrivals"}, sctx)
        sid = _int(_require(entry, "stop", sctx), sctx)
        if sid not in model.bus_stops:
            _fail(sctx, f"unknown bus stop {sid}")
        stop = model.bus_stops[sid]
        if stop.edge not in route_edges:
            _fail(sctx, f"stop {sid} is not on the line's route")
        pos = sum(model.edges[e].length for e in route_edges[: route_edges.index(stop.edge)])
        stop_positions.append(pos + stop.offset)
        arrivals = [
            _number(v, sctx + ".arrivals")
            for v in _list(_require(entry, "arrivals", sctx), sctx + ".arrivals")
        ]
        if len(arrivals) != len(departures):
            _fail(sctx, "one scheduled arrival per departure required")
        per_stop_arrivals.append((sid, arrivals))
    if any(b <= a for a, b in zip(stop_positions, stop_positions[1:])):
        _fail(ctx, "stops must be listed in route order")

    stop_plans = tuple(
        tuple(
            StopVisit(sid, arrivals[k]) for sid, arrivals in per_stop_arrivals
        )
        for k in range(len(departures))
    )
    try:
        return BusLineSpec(
            id=_int(_require(item, "id", ctx), ctx + ".id"),
            route=tuple(route_edges),
            departures=departures,
            dwell=dwell,
            stop_plans=stop_plans,
        )
    except EngineError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _parse_demand(item: Any, ctx: str, model: NetworkModel) -> DemandEntry:
    _check_keys(item, {"origin", "destination", "class", "rate", "times", "seed"}, ctx)
    origin = _int(_require(item, "origin", ctx), ctx + ".origin")
    destination = _int(_require(item, "destination", ctx), ctx + ".destination")
    for node, name in ((origin, "origin"), (destination, "destination")):
        if node not in model.nodes:
            _fail(ctx, f"{name} node {node} does not exist")
    if origin == destination:
        _fail(ctx, "origin and destination must differ")
    cls_raw = str(_require(item, "class", ctx)).lower()
    if cls_raw not in _CLASSES:
        _fail(ctx, f"class must be cav or hdv, got {cls_raw!r}")
    vclass = _CLASSES[cls_raw]
    rate = item.get("rate")
    times = item.get("times")
    if rate is not None:
        rate = _flow(rate, ctx + ".rate")
    if times is not None:
        times = tuple(_number(v, ctx + ".times") for v in _list(times, ctx + ".times"))
    seed = item.get("seed")
    if seed is not None:
        seed = _int(seed, ctx + ".seed")
    if routing.initial_route(model, origin, destination, vclass) is None:
        _fail(ctx, f"no {cls_raw} route from node {origin} to node {destination}")
    try:
        return DemandEntry(origin, destination, vclass, rate=rate, times=times, seed=seed)
    except EngineError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


#: control key -> (Scenario field of the owning params object, attribute);
#: an absent key takes the params class's own default
CONTROL_KEYS: dict[str, tuple[str, str]] = {
    "w1": ("control", "w1"),
    "w2": ("control", "w2"),
    "w3": ("control", "w3"),
    "lambda": ("control", "bus_tolerance"),
    "gamma": ("control", "reroute_tolerance"),
    "T": ("control", "change_horizon"),
    "theta": ("control", "hysteresis"),
    "dT_b": ("protection", "horizon"),
    "alpha": ("bpr", "alpha"),
    "beta": ("bpr", "beta"),
    "dt": ("clock", "dt_control"),
    "dt_b": ("clock", "dt_bus"),
    "dt_sim": ("clock", "dt_sim"),
}
_PARAM_TYPES = {
    "control": ControlParams,
    "bpr": BprParams,
    "protection": ProtectionHorizon,
    "clock": EngineClock,
}


def _parse_control(raw: Any) -> tuple[ControlParams, BprParams, ProtectionHorizon, EngineClock]:
    if not isinstance(raw, dict):
        _fail("control", "must be an object")
    _check_keys(raw, set(CONTROL_KEYS), "control")
    values = {key: _number(value, f"control.{key}") for key, value in raw.items()}
    params = {}
    try:
        for owner, cls in _PARAM_TYPES.items():
            kwargs = {
                attr: values[key]
                for key, (field_name, attr) in CONTROL_KEYS.items()
                if field_name == owner and key in values
            }
            params[owner] = cls(**kwargs)
    except (ControlError, PredictionError, EngineError) as exc:
        raise ScenarioError(f"control: {exc}") from exc
    if params["protection"].horizon < params["clock"].dt_bus:
        _fail("control", "protection horizon dT_b must be >= the bus monitoring step dt_b")
    return params["control"], params["bpr"], params["protection"], params["clock"]


def apply_overrides(scenario: Scenario, overrides: dict[str, float] | None) -> Scenario:
    """Return a copy of the scenario with control-level keys replaced."""
    if not overrides:
        return scenario
    unknown = set(overrides) - set(CONTROL_KEYS)
    if unknown:
        raise ScenarioError(f"unknown override key '{sorted(unknown)[0]}'")
    merged = {**control_values(scenario), **overrides}
    return replace(scenario, **dict(zip(_PARAM_TYPES, _parse_control(merged))))


def control_values(scenario: Scenario) -> dict[str, float]:
    """The scenario's control-level parameters by key, in `CONTROL_KEYS` order."""
    return {
        key: getattr(getattr(scenario, field_name), attr)
        for key, (field_name, attr) in CONTROL_KEYS.items()
    }
