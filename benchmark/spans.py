"""Outside-in span tracing of jointlane's layers.

The tracer replaces public functions at the module attributes the run loop
looks them up through, records one span per call (name, start, end, parent)
in memory, and puts every original object back on exit. Nothing under
``src/`` is modified.

Leaf helpers that run once per vehicle and segment (``bpr_time``,
``entry_indicator``, ``projected_entries``, ``utility`` and the like) are not
wrapped: a span costs about a microsecond, which would swamp them, so their
time counts as self time of the wrapped caller.
"""

from __future__ import annotations

import importlib
import os
import time
from pathlib import Path
from typing import Callable

# (module, attribute, span name); a dotted attribute names a method.
# The engine functions are patched in ``runner``, which imports them by name.
WRAPPED = (
    ("jointlane.scenario", "resolve_scenario", "scenario.load"),
    ("jointlane.scenario", "load_scenario", "scenario.load"),
    ("jointlane.scenario", "apply_overrides", "scenario.load"),
    ("jointlane.runner", "simulate", "runner.simulate"),
    ("jointlane.runner", "generate_arrivals", "engine.arrivals"),
    ("jointlane.runner", "inject_demand", "engine.inject"),
    ("jointlane.engine", "World.place_new", "engine.place_new"),
    ("jointlane.runner", "bus_service", "engine.bus_service"),
    ("jointlane.runner", "execute_lane_change", "engine.lane_change"),
    ("jointlane.runner", "step", "engine.step"),
    ("jointlane.prediction", "build_bus_windows", "prediction.bus_windows"),
    ("jointlane.prediction", "build_snapshot", "prediction.snapshot"),
    ("jointlane.prediction", "refresh_conflicts", "prediction.refresh"),
    ("jointlane.control", "warned_segments", "control.warned"),
    ("jointlane.control", "strategy_step", "control.step"),
    ("jointlane.control", "select_lane_changes", "control.select"),
    ("jointlane.control", "myopic_lane_actions", "control.myopic"),
    ("jointlane.control", "predicted_cost_view", "control.cost_view"),
    ("jointlane.control", "instantaneous_cost_view", "control.cost_view"),
    ("jointlane.control", "rerouting_escalation", "control.reroute"),
    ("jointlane.control", "reactive_reroutes", "control.reroute"),
    ("jointlane.routing", "initial_route", "routing.initial_route"),
    ("jointlane.routing", "reroute", "routing.reroute"),
    ("jointlane.routing", "shortest_path", "routing.shortest_path"),
    ("jointlane.metrics", "sample_kpis", "metrics.sample"),
    ("jointlane.metrics", "collect_trips", "metrics.collect"),
    ("jointlane.metrics", "collect_bus_arrivals", "metrics.collect"),
    ("jointlane.metrics", "write_csv", "metrics.write"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))

#: layers whose self time inside ``simulate`` adds up, with runner.self_s, to
#: the simulate wall time
SIM_LAYERS = ("engine", "prediction", "control", "routing", "metrics")


def _units() -> dict[str, tuple[str, str]]:
    out = {"scenario.load_s": ("s", "lower")}
    for name in SPAN_NAMES:
        if name.split(".", 1)[0] in SIM_LAYERS:
            out[f"{name}.s"] = ("s", "lower")
            out[f"{name}.calls"] = ("count", "lower")
    for layer in SIM_LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
    out["runner.self_s"] = ("s", "lower")
    # counters and ratios taken at span boundaries
    out.update({
        "engine.place_new.attempts": ("count", "lower"),
        "engine.place_new.placed_ratio": ("ratio", "higher"),
        "engine.pending.peak": ("count", "lower"),
        "engine.step.veh_ticks": ("count", "lower"),
        "engine.lane_change.ok_ratio": ("ratio", "higher"),
        "prediction.snapshot.vehicles_mean": ("count", "lower"),
        "control.actions": ("count", "lower"),
        "control.reroutes": ("count", "lower"),
        "routing.shortest_path.found_ratio": ("ratio", "higher"),
        "routing.reroute.changed_ratio": ("ratio", "higher"),
        "metrics.write.bytes": ("bytes", "lower"),
    })
    return out


#: every per-layer figure a Tracer reports: self seconds and calls per span
#: name (self seconds only for simulate and scenario loading), self seconds
#: per layer inside simulate, and the boundary counters; with unit and
#: better-direction
UNITS = _units()


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder; use as a context manager around the traced work."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tally: dict[str, float] = {}
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name in WRAPPED:
                owner, field = _resolve(module, attr)
                original = owner.__dict__[field]
                self._saved.append((owner, field, original))
                setattr(owner, field, self._wrap(name, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, field, original = self._saved.pop()
            setattr(owner, field, original)
        return False

    def _wrap(self, name: str, fn: Callable) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, tally, clock = self._stack, self.tally, time.perf_counter
        before, after = _BEFORE.get(name), _AFTER.get(name)

        def span(*args, **kwargs):
            if before is not None:
                before(tally, args)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(tally, args, result)
            return result

        return span

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def _roots(self) -> list[int]:
        """Index of the simulate span enclosing each span, or -1."""
        roots: list[int] = []
        for idx, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name == "runner.simulate":
                roots.append(idx)
            else:
                roots.append(roots[parent] if parent >= 0 else -1)
        return roots

    def simulate_self_sums(self) -> list[float]:
        """Per simulate call, in call order: the self times of every span it
        contains plus its own, which should equal its wall time."""
        own = self.self_times()
        sums: dict[int, float] = {}
        for idx, root in enumerate(self._roots()):
            if root >= 0:
                sums[root] = sums.get(root, 0.0) + own[idx]
        return [sums[root] for root in sorted(sums)]

    def metrics(self) -> dict[str, float]:
        """Every figure in UNITS, for the spans recorded so far."""
        own = self.self_times()
        out: dict[str, float] = dict.fromkeys(UNITS, 0)
        for idx, (name, root) in enumerate(zip(self.names, self._roots())):
            if name == "runner.simulate":
                out["runner.self_s"] += own[idx]
                continue
            if name == "scenario.load":
                out["scenario.load_s"] += own[idx]
                continue
            out[f"{name}.s"] += own[idx]
            out[f"{name}.calls"] += 1
            layer = name.split(".", 1)[0]
            if root >= 0 and layer in SIM_LAYERS:
                out[f"{layer}.self_s"] += own[idx]
        t = self.tally
        out["engine.place_new.attempts"] = out["engine.place_new.calls"]
        out["engine.place_new.placed_ratio"] = _ratio(t.get("placed", 0), out["engine.place_new.calls"])
        out["engine.pending.peak"] = t.get("pending_peak", 0)
        out["engine.step.veh_ticks"] = t.get("veh_ticks", 0)
        out["engine.lane_change.ok_ratio"] = _ratio(t.get("lane_change_ok", 0), out["engine.lane_change.calls"])
        out["prediction.snapshot.vehicles_mean"] = _ratio(
            t.get("snapshot_vehicles", 0), out["prediction.snapshot.calls"]
        )
        out["control.actions"] = t.get("actions", 0)
        out["control.reroutes"] = t.get("reroutes", 0)
        out["routing.shortest_path.found_ratio"] = _ratio(
            t.get("paths_found", 0), out["routing.shortest_path.calls"]
        )
        out["routing.reroute.changed_ratio"] = _ratio(
            t.get("routes_changed", 0), out["routing.reroute.calls"]
        )
        out["metrics.write.bytes"] = t.get("bytes_written", 0)
        return out

    def write(self, path: Path):
        """Write every span as CSV: name, start, end, parent index, self time."""
        own = self.self_times()
        t0 = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,self_s\n")
            for idx, name in enumerate(self.names):
                fh.write(
                    f"{idx},{name},{self.starts[idx] - t0:.9f},{self.ends[idx] - t0:.9f},"
                    f"{self.parents[idx]},{own[idx]:.9f}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _add(tally: dict, key: str, value: float):
    tally[key] = tally.get(key, 0) + value


def _step_hook(tally, args):
    _add(tally, "veh_ticks", len(args[0].vehicles))


def _place_hook(tally, args, result):
    _add(tally, "placed", bool(result))


def _inject_hook(tally, args, result):
    tally["pending_peak"] = max(tally.get("pending_peak", 0), len(args[0].pending))


def _lane_change_hook(tally, args, result):
    _add(tally, "lane_change_ok", bool(result))


def _snapshot_hook(tally, args, result):
    _add(tally, "snapshot_vehicles", len(result.vehicles))


def _strategy_hook(tally, args, result):
    _add(tally, "actions", len(result.actions))
    _add(tally, "reroutes", len(result.reroutes))


def _path_hook(tally, args, result):
    _add(tally, "paths_found", result is not None)


def _reroute_hook(tally, args, result):
    _add(tally, "routes_changed", result is not None and list(result) != list(args[1]))


def _write_hook(tally, args, result):
    _add(tally, "bytes_written", os.path.getsize(args[0]))


# counted before the call (vehicles present when the tick starts)
_BEFORE = {"engine.step": _step_hook}
# counted from the call's result
_AFTER = {
    "engine.place_new": _place_hook,
    "engine.inject": _inject_hook,
    "engine.lane_change": _lane_change_hook,
    "prediction.snapshot": _snapshot_hook,
    "control.step": _strategy_hook,
    "routing.shortest_path": _path_hook,
    "routing.reroute": _reroute_hook,
    "metrics.write": _write_hook,
}
