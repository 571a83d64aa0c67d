"""KPI arithmetic over the World's records, and the CSV writer.

A stop arrival is the World's `(vehicle, line, trip, stop, scheduled,
actual)` tuple; its delay is `actual - scheduled`.
"""

from __future__ import annotations

import csv
import io
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .engine import VehicleState, World
from .network import BUS, CAV, HDV, VehicleClass

#: a bus arrival counts as on time when its delay is at most this many seconds
ON_TIME_TOLERANCE = 30.0


def collect_trips(world: World) -> list[VehicleState]:
    """The retired vehicles in report order: by arrival time, then id."""
    return sorted(world.retired, key=lambda v: (v.arrival_time, v.id))


def collect_bus_arrivals(world: World) -> list[tuple]:
    """The stop arrivals in report order: by actual arrival, vehicle, stop."""
    return sorted(world.stop_arrivals, key=lambda a: (a[5], a[0], a[3]))


def on_time_rate(arrivals: Iterable[tuple]) -> Optional[float]:
    """Share of stop arrivals within tolerance, percent; None without samples."""
    arrivals = list(arrivals)
    if not arrivals:
        return None
    hits = sum(1 for a in arrivals if a[5] - a[4] <= ON_TIME_TOLERANCE)
    return 100.0 * hits / len(arrivals)


def per_stop_on_time(arrivals: Iterable[tuple]) -> dict[int, float]:
    by_stop: dict[int, list[tuple]] = {}
    for a in arrivals:
        by_stop.setdefault(a[3], []).append(a)
    return {stop: on_time_rate(group) for stop, group in sorted(by_stop.items())}


def mean_travel_time(vehicles: Iterable[VehicleState], vclass: VehicleClass) -> Optional[float]:
    """Mean arrival minus departure time over the finished vehicles of a
    class; None without samples."""
    done = [v.arrival_time - v.depart_time for v in vehicles if v.vclass is vclass]
    return sum(done) / len(done) if done else None


def sample_kpis(
    world: World, t: float, travel_times: dict[VehicleClass, list[float]]
) -> tuple:
    """The KPIs of the vehicles retired by now, as one `RunResult.series`
    sample.

    `travel_times` maps every class to the travel times of its vehicles
    retired by the previous sample, in retirement order (empty lists before
    the first). It is extended here from the vehicles retired since, so a
    sample reads only those. The bus total and the means are `sum()`s over
    the same floats in the same order as a fresh scan of `world.retired`,
    so they equal it exactly; with no bus retired the total is the int 0.
    """
    seen = sum(map(len, travel_times.values()))
    for v in world.retired[seen:]:
        travel_times[v.vclass].append(v.arrival_time - v.depart_time)
    cav = travel_times[CAV]
    hdv = travel_times[HDV]
    return (
        t,
        sum(travel_times[BUS]),
        sum(cav) / len(cav) if cav else None,
        sum(hdv) / len(hdv) if hdv else None,
        len(world.lane_changes),
    )


# -- CSV output -------------------------------------------------------------------


def float_cell(x: Optional[float]) -> str:
    """A float report cell: six decimals, empty for a missing value."""
    return "" if x is None else f"{x:.6f}"


#: most rendered lines joined into one chunk of text for `write_csv`
CHUNK_LINES = 4096


class TextCells(dict):
    """Free text -> the cell `csv.writer` writes for it, quoted where needed;
    each distinct text is rendered by `csv.writer` itself, on first use."""

    def __missing__(self, text) -> str:
        line = io.StringIO()
        csv.writer(line).writerow(("", text))  # "," + cell + "\r\n"
        cell = self[text] = line.getvalue()[1:-2]
        return cell


def chunked(lines: Iterable[str]) -> Iterator[str]:
    """Rendered CSV lines joined into chunks of at most `CHUNK_LINES`, so a
    log goes to `write_csv` in a few writes without being held whole."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, CHUNK_LINES)):
        yield chunk


def write_csv(path: Path, header: list[str], rows: Iterable[Iterable | str]):
    """Write `header` and then `rows` to `path`, every report's one writer.

    An item of `rows` that is a `str` is CSV text of one or more whole lines,
    each ending in `\r\n`, and is written as it is; the caller renders it
    only from cells that `csv.writer` would write bare (no `,`, `"`, `\r` or
    `\n`) and from `TextCells`. Any other item is a row of cells written
    through `csv.writer`.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow(row)


def write_table(
    out_dir: str | Path, name: str, header: list[str], rows: Iterable[Iterable | str]
) -> Path:
    """Write one CSV report `name` into `out_dir`, creating the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    write_csv(path, header, rows)
    return path
