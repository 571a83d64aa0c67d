"""Trip records, bus punctuality, KPI time series and CSV reports."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .engine import World
from .network import VehicleClass

#: a bus arrival counts as on time when its delay is at most this many seconds
ON_TIME_TOLERANCE = 30.0


@dataclass(frozen=True)
class TripRecord:
    vehicle: int
    vclass: VehicleClass
    depart_time: float
    arrival_time: float
    lane_change_count: int
    reroute_count: int

    @property
    def travel_time(self) -> float:
        return self.arrival_time - self.depart_time


@dataclass(frozen=True)
class BusStopArrival:
    vehicle: int
    line: int
    trip: int
    stop: int
    scheduled: float
    actual: float

    @property
    def delay(self) -> float:
        return self.actual - self.scheduled

    @property
    def on_time(self) -> bool:
        return self.delay <= ON_TIME_TOLERANCE


@dataclass
class KpiSample:
    t: float
    cumulative_bus_travel_time: float
    avg_cav_travel_time: Optional[float]
    avg_hdv_travel_time: Optional[float]
    cumulative_cav_lane_changes: int


@dataclass
class RunMetrics:
    trips: list[TripRecord] = field(default_factory=list)
    bus_arrivals: list[BusStopArrival] = field(default_factory=list)
    series: list[KpiSample] = field(default_factory=list)
    # (t, vehicle, edge, m, lane_from, lane_to, reason)
    lane_change_events: list[tuple] = field(default_factory=list)


def collect_trips(world: World) -> list[TripRecord]:
    return [
        TripRecord(
            vehicle=veh.id,
            vclass=veh.vclass,
            depart_time=veh.depart_time,
            arrival_time=veh.arrival_time,
            lane_change_count=len(veh.lane_change_log),
            reroute_count=veh.reroute_count,
        )
        for veh in world.retired
    ]


def collect_bus_arrivals(world: World) -> list[BusStopArrival]:
    return [
        BusStopArrival(vehicle=v, line=line, trip=trip, stop=stop, scheduled=sched, actual=actual)
        for (v, line, trip, stop, sched, actual) in world.stop_arrivals
    ]


def on_time_rate(arrivals: Iterable[BusStopArrival]) -> Optional[float]:
    """Share of arrivals within tolerance, percent; None without samples."""
    arrivals = list(arrivals)
    if not arrivals:
        return None
    hits = sum(1 for a in arrivals if a.on_time)
    return 100.0 * hits / len(arrivals)


def per_stop_on_time(arrivals: Iterable[BusStopArrival]) -> dict[int, float]:
    by_stop: dict[int, list[BusStopArrival]] = {}
    for a in arrivals:
        by_stop.setdefault(a.stop, []).append(a)
    return {stop: on_time_rate(group) for stop, group in sorted(by_stop.items())}


def mean_travel_time(finished: Iterable, vclass: VehicleClass) -> Optional[float]:
    """Mean arrival minus departure time over the finished vehicles or trip
    records of a class; None without samples."""
    done = [f.arrival_time - f.depart_time for f in finished if f.vclass is vclass]
    return sum(done) / len(done) if done else None


def sample_kpis(world: World, t: float) -> KpiSample:
    bus_total = sum(
        v.arrival_time - v.depart_time
        for v in world.retired
        if v.vclass is VehicleClass.BUS
    )
    return KpiSample(
        t=t,
        cumulative_bus_travel_time=bus_total,
        avg_cav_travel_time=mean_travel_time(world.retired, VehicleClass.CAV),
        avg_hdv_travel_time=mean_travel_time(world.retired, VehicleClass.HDV),
        cumulative_cav_lane_changes=len(world.lane_changes),
    )


# -- CSV output -------------------------------------------------------------------


def float_cell(x: Optional[float]) -> str:
    """A float report cell: six decimals, empty for a missing value."""
    return "" if x is None else f"{x:.6f}"


def write_csv(path: Path, header: list[str], rows: Iterable[Iterable]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_table(
    out_dir: str | Path, name: str, header: list[str], rows: Iterable[Iterable]
) -> Path:
    """Write one CSV report `name` into `out_dir`, creating the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    write_csv(path, header, rows)
    return path


def write_reports(metrics: RunMetrics, summary: dict, out_dir: str | Path) -> list[Path]:
    """Write the five standard report files; byte-stable for identical runs."""
    return [
        write_table(
            out_dir, "trips.csv",
            ["vehicle", "class", "depart_time", "arrival_time", "travel_time",
             "lane_change_count", "reroute_count"],
            (
                [t.vehicle, t.vclass.value, float_cell(t.depart_time),
                 float_cell(t.arrival_time), float_cell(t.travel_time),
                 t.lane_change_count, t.reroute_count]
                for t in sorted(metrics.trips, key=lambda r: (r.arrival_time, r.vehicle))
            ),
        ),
        write_table(
            out_dir, "bus_arrivals.csv",
            ["vehicle", "line", "trip", "stop", "scheduled_arrival", "actual_arrival",
             "delay", "on_time"],
            (
                [a.vehicle, a.line, a.trip, a.stop, float_cell(a.scheduled),
                 float_cell(a.actual), float_cell(a.delay), int(a.on_time)]
                for a in sorted(metrics.bus_arrivals, key=lambda r: (r.actual, r.vehicle, r.stop))
            ),
        ),
        write_table(
            out_dir, "timeseries.csv",
            ["t", "cumulative_bus_travel_time", "avg_cav_travel_time",
             "avg_hdv_travel_time", "cumulative_cav_lane_changes"],
            (
                [float_cell(s.t), float_cell(s.cumulative_bus_travel_time),
                 float_cell(s.avg_cav_travel_time), float_cell(s.avg_hdv_travel_time),
                 s.cumulative_cav_lane_changes]
                for s in metrics.series
            ),
        ),
        write_table(
            out_dir, "lane_changes.csv",
            ["t", "vehicle", "edge", "m", "lane_from", "lane_to", "reason"],
            ([float_cell(e[0]), *e[1:]] for e in metrics.lane_change_events),
        ),
        write_summaries([summary], out_dir),
    ]


def _summary_cell(v):
    if isinstance(v, bool):
        return int(v)
    if v is None or isinstance(v, float):
        return float_cell(v)
    return v


def write_summaries(rows: list[dict], out_dir: str | Path) -> Path:
    """Write `summary.csv`: one row per run, columns from the first row."""
    header = list(rows[0])
    return write_table(
        out_dir, "summary.csv", header,
        ([_summary_cell(row.get(k)) for k in header] for row in rows),
    )
