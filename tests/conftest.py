import importlib.util
from pathlib import Path

import pytest

from jointlane.engine import EngineClock, VehicleState, World
from jointlane.network import (
    Edge,
    Lane,
    NetworkModel,
    VehicleClass,
    synthesize_connections,
)
from jointlane.scenario import load_scenario


def _load_report_digests():
    """`tools/report_digests.py`, which is a script rather than a package."""
    path = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_digests = _load_report_digests()

#: the gate runs' committed report digests, "run/file" -> SHA-256
COMMITTED_DIGESTS = report_digests.read_digests(report_digests.COMMITTED)

#: the five standard reports
STANDARD_REPORTS = ("trips.csv", "bus_arrivals.csv", "timeseries.csv",
                    "lane_changes.csv", "summary.csv")


def committed_digests(run: str) -> dict[str, str]:
    """Path under the run's directory -> committed digest, for every report
    of gate run `run`, e.g. ``desk_small_proposed_seed1``."""
    prefix = f"{run}/"
    return {
        path.removeprefix(prefix): digest
        for path, digest in COMMITTED_DIGESTS.items()
        if path.startswith(prefix)
    }


def make_model(edge_rows, connections=None, bus_stops=(), capacity=0.25, jam=None):
    """Small test networks from (id, frm, to, length, speed, dl) rows.

    connections None synthesizes all-lane turns for adjacent pairs; otherwise
    pass {(src, dst): lanes}.
    """
    edges = []
    nodes = set()
    for row in edge_rows:
        eid, frm, to, length, speed, dl = row
        nodes.update((frm, to))
        kwargs = {}
        if jam is not None:
            kwargs["jam_count"] = jam
        else:
            from jointlane.network import default_jam_count

            kwargs["jam_count"] = default_jam_count(length / 2.0)
        edges.append(
            Edge(id=eid, frm=frm, to=to, length=length, free_flow_speed=speed,
                 dl=dl, capacity=capacity, **kwargs)
        )
    if connections is None:
        conns = synthesize_connections(edges)
    else:
        conns = {k: frozenset(v) for k, v in connections.items()}
    return NetworkModel(sorted(nodes), edges, conns, bus_stops)


def make_world(model, **clock_kwargs):
    return World(model, EngineClock(**clock_kwargs))


def put_vehicle(
    world,
    vid,
    vclass,
    route,
    route_index=0,
    lane=Lane.LEFT,
    m=1,
    offset=0.0,
    speed=None,
    **extra,
):
    edge = world.model.edges[route[route_index]]
    veh = VehicleState(
        id=vid,
        vclass=vclass,
        route=list(route),
        route_index=route_index,
        segment=world.model.halves[route[route_index]][lane][m - 1],
        offset=offset,
        speed=edge.free_flow_speed if speed is None else speed,
        depart_time=world.t,
        destination=world.model.edges[route[-1]].to,
        **extra,
    )
    # the plant never fills a segment past its storage limit, so neither does a test
    assert len(world.rows[veh.segment].queue) < edge.jam_count, veh.segment
    world.vehicles[vid] = veh
    if vclass is VehicleClass.BUS:
        world.buses[vid] = veh
    world._insert_by_offset(veh.segment, veh)
    world.injected[vclass] += 1
    return veh


@pytest.fixture(scope="session")
def desk_small_path():
    from jointlane.cli import resolve_scenario

    return resolve_scenario("desk_small")


@pytest.fixture(scope="session")
def desk_small(desk_small_path):
    return load_scenario(desk_small_path)


@pytest.fixture()
def chain3():
    """Three-edge straight chain, no dedicated lane."""
    return make_model(
        [(0, 1, 2, 200.0, 10.0, False),
         (1, 2, 3, 200.0, 10.0, False),
         (2, 3, 4, 200.0, 10.0, False)]
    )


@pytest.fixture()
def dl_chain3():
    """Three-edge chain whose right lane is dedicated throughout."""
    return make_model(
        [(0, 1, 2, 200.0, 10.0, True),
         (1, 2, 3, 200.0, 10.0, True),
         (2, 3, 4, 200.0, 10.0, True)]
    )
