"""Desk-scale corridor fixture: three parallel one-way rows with a bus lane.

Layout (21 nodes):

* top row, nodes 1..6, five 240 m edges, general purpose;
* middle row, nodes 7..15, eight 150 m edges whose right lane is the
  dedicated bus lane, three bus stops;
* bottom row, nodes 16..21, five 240 m edges, general purpose;
* paired 80 m connectors between the rows at four interior columns.

Traffic enters at the left boundary nodes {1, 7, 16} and leaves at the right
boundary nodes {6, 15, 21}. Left turns onto the upward connectors require the
left lane; right turns onto the downward connectors are open to both lanes so
vehicles leaving the middle row do not have to cross the bus lane. Capacities
and the warning tolerance are tuned so that a bus plus a couple of converging
CAVs trips the protection at this scale; jam counts on the middle row are
lowered so queues bite. Run ``python tests/desk_fixtures.py`` to regenerate
the bundled JSON files in ``src/jointlane/scenarios``.
"""

from __future__ import annotations

import json
from pathlib import Path

TOP_EDGE_LEN = 480.0
MID_EDGE_LEN = 300.0
CONNECTOR_LEN = 80.0
ROW_SPEED = 6.0              # middle row
SIDE_SPEED = 8.0             # top and bottom rows
CONNECTOR_SPEED = 8.0
MID_CAPACITY = 0.05          # veh/s per lane-segment; protection sensitivity knob
SIDE_CAPACITY = 0.25
MID_JAM = 5                  # vehicles per lane-segment on the middle row
STOP_OFFSET = 225.0          # downstream half of the hosting edge
SCHEDULE_SLACK = (12.0, 50.0, 75.0)  # cumulative cushion per stop index
DWELL = 60.0
WARNING_TOLERANCE = 0.02     # desk-scale: a bus plus two in-window CAVs warns

PRESETS = {
    # name: (horizon, bus departures, cav rate scale, hdv rate scale)
    "small": (900.0, [60.0 + 130.0 * k for k in range(6)], 1.0, 1.0),
    "large": (3600.0, [60.0 + 330.0 * k for k in range(10)], 2.92, 3.11),
}

# (origin, destination, class, small-preset veh/s); 0.066 veh/s of CAVs and
# 0.134 veh/s of HDVs, i.e. nominally 60 CAVs and 120 HDVs over the 900 s
# horizon, spread so the corridor entrance stays below saturation
DEMAND = [
    (7, 15, "cav", 0.022),
    (1, 15, "cav", 0.014),
    (16, 15, "cav", 0.014),
    (7, 6, "cav", 0.008),
    (7, 21, "cav", 0.008),
    (7, 15, "hdv", 0.048),
    (1, 15, "hdv", 0.018),
    (16, 15, "hdv", 0.018),
    (1, 6, "hdv", 0.025),
    (16, 21, "hdv", 0.025),
]


def _edges() -> list[dict]:
    rows = []

    def add_edge(eid, frm, to, length, speed, dl=False, capacity=SIDE_CAPACITY, jam=None):
        item = {
            "id": eid, "from": frm, "to": to, "length": length,
            "free_flow_speed": speed, "dl": dl, "capacity": capacity,
        }
        if jam is not None:
            item["jam_count"] = jam
        rows.append(item)

    for i in range(5):  # top row 1..6
        add_edge(i, 1 + i, 2 + i, TOP_EDGE_LEN, SIDE_SPEED)
    for i in range(5):  # bottom row 16..21
        add_edge(5 + i, 16 + i, 17 + i, TOP_EDGE_LEN, SIDE_SPEED)
    for i in range(8):  # middle row 7..15, dedicated right lane
        add_edge(10 + i, 7 + i, 8 + i, MID_EDGE_LEN, ROW_SPEED, dl=True,
                 capacity=MID_CAPACITY, jam=MID_JAM)
    # connectors: (down from top, up to top) then (up from bottom, down to bottom)
    top_pairs = [(2, 8), (3, 10), (4, 12), (5, 14)]
    for k, (t, m) in enumerate(top_pairs):
        add_edge(18 + 2 * k, t, m, CONNECTOR_LEN, CONNECTOR_SPEED)   # top -> middle
        add_edge(19 + 2 * k, m, t, CONNECTOR_LEN, CONNECTOR_SPEED)   # middle -> top
    bottom_pairs = [(17, 8), (18, 10), (19, 12), (20, 14)]
    for k, (b, m) in enumerate(bottom_pairs):
        add_edge(26 + 2 * k, b, m, CONNECTOR_LEN, CONNECTOR_SPEED)   # bottom -> middle
        add_edge(27 + 2 * k, m, b, CONNECTOR_LEN, CONNECTOR_SPEED)   # middle -> bottom
    # exit-column slip connectors into the middle exit, so the last middle edge
    # is not the only way to reach node 15
    add_edge(34, 6, 15, CONNECTOR_LEN, CONNECTOR_SPEED)
    add_edge(35, 21, 15, CONNECTOR_LEN, CONNECTOR_SPEED)
    return rows


def _connections() -> list[dict]:
    both, left, right = ("left", "right"), ("left",), ("right",)
    out: list[dict] = []

    def conn(src, dst, lanes):
        for lane in lanes:
            out.append({"from_edge": src, "from_lane": lane, "to_edge": dst})

    for i in range(4):  # straight along the rows
        conn(i, i + 1, both)           # top
        conn(5 + i, 6 + i, both)       # bottom
    for i in range(7):
        conn(10 + i, 11 + i, both)     # middle
    for k in range(4):
        top_in = k                      # edge ending at top node 2+k
        mid_in = 10 + 2 * k             # edge ending at middle node 8+2k
        bot_in = 5 + k                  # edge ending at bottom node 17+k
        down_from_top = 18 + 2 * k
        up_from_mid = 19 + 2 * k
        up_from_bot = 26 + 2 * k
        down_from_mid = 27 + 2 * k
        mid_out = 11 + 2 * k            # middle edge leaving node 8+2k
        top_out = k + 1                 # top edge leaving node 2+k
        bot_out = 6 + k                 # bottom edge leaving node 17+k
        conn(top_in, down_from_top, right)       # right turn off the top row
        conn(bot_in, up_from_bot, left)          # left turn off the bottom row
        conn(mid_in, up_from_mid, left)          # left turn off the middle row
        conn(mid_in, down_from_mid, both)        # right turn off the middle row
        conn(down_from_top, mid_out, both)       # join the middle row
        conn(down_from_top, down_from_mid, both)  # cross straight to the bottom
        conn(up_from_bot, mid_out, both)
        conn(up_from_bot, up_from_mid, both)     # cross straight to the top
        conn(up_from_mid, top_out, both)
        conn(down_from_mid, bot_out, both)
    conn(4, 34, right)   # top exit edge -> slip down to node 15
    conn(9, 35, left)    # bottom exit edge -> slip up to node 15
    return out


def _bus_lines(departures: list[float]) -> tuple[list[dict], list[dict]]:
    stops = [
        {"id": 0, "edge": 13, "offset": STOP_OFFSET},
        {"id": 1, "edge": 15, "offset": STOP_OFFSET},
        {"id": 2, "edge": 17, "offset": STOP_OFFSET},
    ]
    # distance from the route start (node 7) to each stop
    dists = [3 * MID_EDGE_LEN + STOP_OFFSET,
             5 * MID_EDGE_LEN + STOP_OFFSET,
             7 * MID_EDGE_LEN + STOP_OFFSET]
    stop_entries = []
    for idx, dist in enumerate(dists):
        free_flow = dist / ROW_SPEED
        arrivals = [
            dep + free_flow + DWELL * idx + SCHEDULE_SLACK[idx]
            for dep in departures
        ]
        stop_entries.append({"stop": idx, "arrivals": arrivals})
    line = {
        "id": 0,
        "route": list(range(7, 16)),
        "departures": departures,
        "dwell": DWELL,
        "stops": stop_entries,
    }
    return stops, [line]


def build(preset: str = "small") -> dict:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    horizon, departures, cav_scale, hdv_scale = PRESETS[preset]
    stops, lines = _bus_lines(departures)
    demand = [
        {
            "origin": o, "destination": d, "class": cls,
            "rate": round(rate * (cav_scale if cls == "cav" else hdv_scale), 6),
        }
        for (o, d, cls, rate) in DEMAND
    ]
    return {
        "meta": {
            "name": f"desk_{preset}",
            "horizon": horizon,
            "notes": (
                "Three parallel one-way corridors (6+9+6 nodes); the middle row "
                "carries the dedicated bus lane and three stops; 80 m connectors "
                "link the rows at four interior columns. Lengths, capacities and "
                "the warning tolerance are desk-scale tunings."
            ),
        },
        "nodes": list(range(1, 22)),
        "edges": _edges(),
        "connections": _connections(),
        "bus_stops": stops,
        "bus_lines": lines,
        "demand": demand,
        "control": {
            "w1": 0.3, "w2": 0.3, "w3": 0.4,
            "lambda": WARNING_TOLERANCE, "gamma": 0.3, "T": 120.0, "theta": 0.05,
            "dT_b": 30.0, "dt": 15.0, "dt_b": 10.0, "dt_sim": 1.0,
            "alpha": 0.15, "beta": 4.0,
        },
    }


def write_bundled(directory: str | Path | None = None) -> list[Path]:
    if directory is None:
        directory = Path(__file__).resolve().parent.parent / "src" / "jointlane" / "scenarios"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for preset in PRESETS:
        path = directory / f"desk_{preset}.json"
        path.write_text(json.dumps(build(preset), indent=2) + "\n", encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    for path in write_bundled():
        print(path)
