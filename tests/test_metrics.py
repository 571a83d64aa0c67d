import pytest

from jointlane.metrics import (
    BusStopArrival,
    RunMetrics,
    TripRecord,
    mean_travel_time,
    on_time_rate,
    per_stop_on_time,
    write_reports,
)
from jointlane.network import VehicleClass


def arrival(delay, stop=0, vid=0):
    return BusStopArrival(vehicle=vid, line=0, trip=0, stop=stop,
                          scheduled=100.0, actual=100.0 + delay)


def trip(tt, vclass=VehicleClass.CAV, vid=0, depart=0.0):
    return TripRecord(vehicle=vid, vclass=vclass, depart_time=depart,
                      arrival_time=depart + tt, lane_change_count=0,
                      reroute_count=0)


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
    events = [(5.0,), (10.0,), (20.0,)]
    assert len([e for e in events if e[0] <= 12.0]) == 2
    assert len([e for e in events if e[0] <= 0.0]) == 0
    assert len([e for e in [] if e[0] <= 100.0]) == 0


def test_write_reports_empty_run(tmp_path):
    metrics = RunMetrics()
    files = write_reports(metrics, {"scenario": "x", "seed": 1}, tmp_path)
    names = sorted(p.name for p in files)
    assert names == ["bus_arrivals.csv", "lane_changes.csv", "summary.csv",
                     "timeseries.csv", "trips.csv"]
    trips = (tmp_path / "trips.csv").read_text(encoding="utf-8").strip().splitlines()
    assert trips == ["vehicle,class,depart_time,arrival_time,travel_time,"
                     "lane_change_count,reroute_count"]
    summary = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "scenario,seed"
    assert summary[1] == "x,1"


def test_reports_are_byte_stable(desk_small, tmp_path):
    from jointlane.runner import simulate, write_run_reports

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
    series = result.metrics.series
    assert series, "expected sampled KPIs"
    for a, b in zip(series, series[1:]):
        assert b.cumulative_bus_travel_time >= a.cumulative_bus_travel_time
        assert b.cumulative_cav_lane_changes >= a.cumulative_cav_lane_changes


def test_trip_counts_match_injections(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="prp", seed=2, horizon=300.0)
    world = result.world
    for cls in VehicleClass:
        done = sum(1 for t in result.metrics.trips if t.vclass is cls)
        active = result.world.active_counts()[cls]
        assert world.injected[cls] == done + active


def test_mean_travel_time_reads_vehicles_and_trips(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="prp", seed=2, horizon=300.0)
    means = [mean_travel_time(result.metrics.trips, cls) for cls in VehicleClass]
    assert None not in means[:2]  # HDV and CAV trips finish by 300 s
    assert [mean_travel_time(result.world.retired, cls) for cls in VehicleClass] == means


def test_lane_change_series_matches_event_log(desk_small):
    from jointlane.runner import simulate

    result = simulate(desk_small, strategy="proposed", seed=1, horizon=400.0)
    events = result.metrics.lane_change_events
    for sample in result.metrics.series:
        assert sample.cumulative_cav_lane_changes == len(
            [e for e in events if e[0] <= sample.t]
        )


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
    trips = result.metrics.trips
    cuts = [120.0, 200.0, 300.0, 400.0]
    averages = [mean_travel_time(completed_by(trips, c), VehicleClass.HDV) for c in cuts]
    averages = [a for a in averages if a is not None]
    assert len(averages) >= 3
    assert all(b >= a - 1e-9 for a, b in zip(averages, averages[1:]))
