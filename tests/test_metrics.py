import csv
import io

import pytest

from jointlane.engine import VehicleState, execute_lane_change, step
from jointlane.metrics import (
    mean_travel_time,
    on_time_rate,
    per_stop_on_time,
    sample_kpis,
    write_csv,
)
from jointlane.network import Lane, SegmentRef, VehicleClass
from jointlane.prediction import (
    BprParams,
    ProtectionHorizon,
    bpr_time,
    build_bus_windows,
    build_snapshot,
)
from jointlane.runner import (
    RunResult,
    simulate,
    write_decision_log,
    write_prediction_log,
    write_run_reports,
)

import slow_path
from conftest import make_model, make_world, put_vehicle


def arrival(delay, stop=0, vid=0):
    """A `World.stop_arrivals` record: (vehicle, line, trip, stop, scheduled, actual)."""
    return (vid, 0, 0, stop, 100.0, 100.0 + delay)


def trip(tt, vclass=VehicleClass.CAV, vid=0, depart=0.0):
    """A retired vehicle that travelled `tt` seconds."""
    return VehicleState(id=vid, vclass=vclass, route=[0], route_index=0, offset=0.0,
                        speed=0.0, depart_time=depart, destination=0,
                        arrival_time=depart + tt)


def test_on_time_rate_two_of_three():
    rate = on_time_rate([arrival(10.0), arrival(25.0), arrival(31.0)])
    assert rate == pytest.approx(200.0 / 3.0)


def test_on_time_rate_boundaries():
    assert on_time_rate([arrival(0.0)]) == 100.0
    assert on_time_rate([arrival(30.0)]) == 100.0     # tolerance inclusive
    assert on_time_rate([arrival(30.000001)]) == 0.0
    assert on_time_rate([arrival(-50.0)]) == 100.0    # early counts as on time
    assert on_time_rate([]) is None


def test_per_stop_rates():
    rates = per_stop_on_time(
        [arrival(10.0, stop=0), arrival(40.0, stop=0), arrival(0.0, stop=1)]
    )
    assert rates == {0: 50.0, 1: 100.0}


def completed_by(trips, cut):
    return [t for t in trips if t.arrival_time <= cut]


def test_avg_completed_travel_time():
    trips = [trip(120.0)]
    assert mean_travel_time(trips, VehicleClass.CAV) == 120.0
    trips = [trip(100.0, vid=0), trip(200.0, vid=1)]
    assert mean_travel_time(trips, VehicleClass.CAV) == 150.0
    assert mean_travel_time(trips, VehicleClass.HDV) is None
    # only trips completed by the cut-off count
    trips = [trip(100.0, depart=0.0), trip(100.0, depart=500.0, vid=1)]
    assert mean_travel_time(completed_by(trips, 150.0), VehicleClass.CAV) == 100.0


def test_cumulative_lane_changes_prefix():
    world = make_world(make_model([(0, 1, 2, 400.0, 10.0, False)]))
    put_vehicle(world, 0, VehicleClass.CAV, [0])
    travel_times = {c: [] for c in VehicleClass}
    changes = {5: 1, 10: -1, 20: 1}  # tick -> direction
    samples = {}
    for tick in range(25):
        if tick in (0, 5, 7, 12, 24):
            samples[tick] = sample_kpis(world, world.t, travel_times)[4]
        if tick in changes:
            assert execute_lane_change(world, 0, changes[tick]) is True
        step(world, 1.0)
    # each sample counts the changes made before it, none after
    assert samples == {0: 0, 5: 0, 7: 1, 12: 2, 24: 3}
    assert [row[0] for row in world.lane_changes] == [5.0, 10.0, 20.0]


def test_write_run_reports_reads_the_world(tmp_path):
    world = make_world(make_model([(0, 1, 2, 400.0, 10.0, True)]))
    cav = trip(120.5, vid=4, depart=10.0)
    cav.lane_change_log.append(12.0)
    cav.reroute_count = 2
    world.retired.append(cav)
    world.stop_arrivals.append((9, 2, 1, 0, 100.0, 130.0))  # a delay of exactly 30 s
    world.lane_changes.append((12.0, 4, 0, 1, "L", "R", "utility"))
    result = RunResult(
        strategy="drp", seed=1, world=world, summary={"scenario": "x", "seed": 1},
        series=[(15.0, 0, 120.5, None, 1)], decision_rows=[], prediction_steps=[],
        wall_time=0.0,
    )
    files = write_run_reports(result, tmp_path)
    names = sorted(p.name for p in files)
    assert names == ["bus_arrivals.csv", "lane_changes.csv", "summary.csv",
                     "timeseries.csv", "trips.csv"]

    def lines(name):
        return (tmp_path / name).read_text(encoding="utf-8").strip().splitlines()

    assert lines("trips.csv") == [
        "vehicle,class,depart_time,arrival_time,travel_time,lane_change_count,reroute_count",
        "4,cav,10.000000,130.500000,120.500000,1,2",
    ]
    assert lines("bus_arrivals.csv") == [
        "vehicle,line,trip,stop,scheduled_arrival,actual_arrival,delay,on_time",
        "9,2,1,0,100.000000,130.000000,30.000000,1",  # tolerance inclusive
    ]
    assert lines("timeseries.csv") == [
        "t,cumulative_bus_travel_time,avg_cav_travel_time,avg_hdv_travel_time,"
        "cumulative_cav_lane_changes",
        "15.000000,0.000000,120.500000,,1",
    ]
    assert lines("lane_changes.csv") == [
        "t,vehicle,edge,m,lane_from,lane_to,reason",
        "12.000000,4,0,1,L,R,utility",
    ]
    summary = lines("summary.csv")
    assert summary[0] == "scenario,seed"
    assert summary[1] == "x,1"


def test_write_csv_writes_text_as_is_and_rows_through_csv_writer(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], ["1,2\r\n3,4\r\n", ["a,b", 'say "hi"']])
    assert path.read_bytes() == b'x,y\r\n1,2\r\n3,4\r\n"a,b","say ""hi"""\r\n'


def test_rendered_logs_need_no_quoting(desk_small, tmp_path):
    result = simulate(desk_small, strategy="drp", seed=1, horizon=300.0, log_events=True,
                      log_predictions=True)
    write_run_reports(result, tmp_path)
    write_decision_log(result, tmp_path)
    write_prediction_log(result, tmp_path)
    for name in ("predictions.csv", "decisions.csv", "events.csv", "lane_changes.csv"):
        written = (tmp_path / name).read_bytes()
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1, name
        again = io.StringIO(newline="")
        csv.writer(again).writerows(rows)
        assert again.getvalue().encode("utf-8") == written, name


def test_free_text_reasons_are_quoted_as_csv_writer_quotes_them(tmp_path):
    world = make_world(make_model([(0, 1, 2, 400.0, 10.0, False)]))
    world.events = []
    reasons = ("a,b", 'say "hi"', "x\ny", "a,b", "plain")
    for vid, reason in enumerate(reasons):
        put_vehicle(world, vid, VehicleClass.CAV, [0], offset=10.0 * vid)
        assert execute_lane_change(world, vid, 1, reason=reason)
    result = RunResult(
        strategy="drp", seed=1, world=world, summary={"scenario": "x"}, series=[],
        decision_rows=[], prediction_steps=[], wall_time=0.0,
    )
    write_run_reports(result, tmp_path / "fast")
    slow_path.write_world_logs(world, tmp_path / "plain")  # through csv.writer
    for name in ("lane_changes.csv", "events.csv"):
        plain = tmp_path / "plain" / name
        with open(plain, newline="", encoding="utf-8") as fh:
            assert [row[-1] for row in csv.reader(fh)][1:] == list(reasons), name
        assert (tmp_path / "fast" / name).read_bytes() == plain.read_bytes(), name
    assert b',"a,b"\r\n' in (tmp_path / "fast" / "events.csv").read_bytes()


def test_reports_are_byte_stable(desk_small, tmp_path):
    a = simulate(desk_small, strategy="proposed", seed=3, horizon=300.0)
    b = simulate(desk_small, strategy="proposed", seed=3, horizon=300.0)
    write_run_reports(a, tmp_path / "a")
    write_run_reports(b, tmp_path / "b")
    for name in ("trips.csv", "bus_arrivals.csv", "timeseries.csv",
                 "lane_changes.csv", "summary.csv"):
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        assert bytes_a == bytes_b, name


def test_kpi_series_cumulative_monotone(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="drp", seed=1, horizon=400.0)
    series = result.series
    assert series, "expected sampled KPIs"
    for a, b in zip(series, series[1:]):
        assert b[1] >= a[1]  # cumulative bus travel time
        assert b[4] >= a[4]  # cumulative CAV lane changes


def test_trip_counts_match_injections(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="prp", seed=2, horizon=300.0)
    world = result.world
    for cls in VehicleClass:
        done = sum(1 for v in world.retired if v.vclass is cls)
        active = result.world.active_counts()[cls]
        assert world.injected[cls] == done + active


def test_mean_travel_time_reads_vehicles_and_trips(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="prp", seed=2, horizon=300.0)
    means = [mean_travel_time(result.world.retired, cls) for cls in VehicleClass]
    assert None not in means[:2]  # HDV and CAV trips finish by 300 s
    # the summary reads the same vehicles in the same order: the same floats
    assert [result.summary[f"avg_travel_time_{cls.value}"] for cls in VehicleClass] == means


def test_lane_change_series_matches_event_log(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="proposed", seed=1, horizon=400.0)
    events = result.world.lane_changes
    for t, _, _, _, changes in result.series:
        assert changes == len([e for e in events if e[0] <= t])


def test_avg_travel_time_tail_grows_under_ramp_demand():
    # a single saturating corridor: later arrivals queue longer, so the
    # completed-trip average keeps rising toward the end of the run
    from jointlane.runner import simulate
    from jointlane.scenario import from_dict

    base = from_dict({
        "meta": {"name": "ramp", "horizon": 240.0},
        "nodes": [1, 2, 3],
        "edges": [
            {"id": 0, "from": 1, "to": 2, "length": 100.0,
             "free_flow_speed": 10.0, "dl": False, "capacity": 0.2,
             "jam_count": 3},
            {"id": 1, "from": 2, "to": 3, "length": 100.0,
             "free_flow_speed": 10.0, "dl": False, "capacity": 0.2,
             "jam_count": 3},
        ],
        "demand": [{"origin": 1, "destination": 3, "class": "hdv",
                    "times": [float(k) for k in range(0, 200, 2)]}],
    })
    result = simulate(base, strategy="drp", seed=1)
    trips = result.world.retired
    cuts = [120.0, 200.0, 300.0, 400.0]
    averages = [mean_travel_time(completed_by(trips, c), VehicleClass.HDV) for c in cuts]
    averages = [a for a in averages if a is not None]
    assert len(averages) >= 3
    assert all(b >= a - 1e-9 for a, b in zip(averages, averages[1:]))


def test_prediction_log_formats_the_snapshot_tables(dl_chain3, tmp_path):
    world = make_world(dl_chain3)
    world.t = 30.0
    # a bus windows the dedicated lane ahead; no CAV joins a window, and
    # the HDV enters its own edge's downstream left half within dt
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1, offset=10.0)
    put_vehicle(world, 1, VehicleClass.HDV, [0, 1, 2], lane=Lane.LEFT, m=1, offset=50.0)
    protection = ProtectionHorizon(30.0)
    snap = build_snapshot(world, build_bus_windows(world, protection), BprParams(),
                          protection, 15.0)
    windowed = SegmentRef(1, Lane.RIGHT, 1)
    busy = SegmentRef(0, Lane.LEFT, 2)
    idle = SegmentRef(2, Lane.LEFT, 1)
    assert windowed in snap.conflict and windowed not in snap.overlap
    assert windowed not in snap.inflow and not snap.hdv_counts.get(windowed)
    assert busy in snap.inflow and busy not in snap.conflict
    assert idle not in snap.inflow and not snap.hdv_counts.get(idle)
    assert idle not in snap.conflict

    result = RunResult(
        strategy="drp", seed=1, world=world, summary={}, series=[], decision_rows=[],
        prediction_steps=[(snap.t, snap.inflow, snap.hdv_counts, snap.predicted_time,
                           snap.conflict, snap.bus_time)],
        wall_time=0.0,
    )
    path = write_prediction_log(result, tmp_path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    cells = {(int(r[1]), r[2], int(r[3])): r for r in rows}
    t0 = f"{dl_chain3.t0(windowed):.6f}"
    assert t0 == "10.000000"
    assert cells[1, "R", 1] == ["30.000000", "1", "R", "1", "0.000000", "0", t0,
                                "0.000000", t0]
    flow = 1 / 15.0
    predicted = f"{bpr_time(10.0, flow, dl_chain3.capacity(busy), BprParams()):.6f}"
    assert predicted != t0
    assert cells[0, "L", 2] == ["30.000000", "0", "L", "2", f"{flow:.6f}", "1", predicted,
                                "", ""]
    assert cells[2, "L", 1] == ["30.000000", "2", "L", "1", "0.000000", "0", t0, "", ""]
    # the same rows as the plain per-step dump
    dumped = []
    slow_path.dump_predictions(snap, dumped)
    assert rows == [[str(c) for c in slow_path.prediction_row(r)] for r in dumped]
