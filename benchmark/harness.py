"""Workloads, measurement loop and output checks of the jointlane benchmark.

Load model: a closed loop. One client in one process and one thread runs the
workload's simulations back to back; a *pass* is one run of every
simulation in the workload. Passes repeat until the time budget is spent,
and every figure is a median over passes (or over pooled samples), so one
slow pass does not move it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from jointlane import runner
from jointlane import scenario as scenario_mod

import calibration
import spans

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

STANDARD_REPORTS = ("trips.csv", "bus_arrivals.csv", "timeseries.csv", "lane_changes.csv", "summary.csv")
LOG_REPORTS = ("events.csv", "decisions.csv", "predictions.csv")
CLASSES = ("cav", "hdv", "bus")

#: setups timed on their own before each pass, besides one per simulation, so
#: that setup samples spread over the whole run like the other samples
SETUP_REPEATS = 10
#: horizon of the untimed warm-up simulation that triggers lazy imports
WARMUP_HORIZON = 60.0
#: control periods between host-speed probes inside an untraced simulation
PROBE_EVERY = 10
#: largest gap between traced layer self times and the simulate wall time
BALANCE_TOLERANCE = 0.01

END_TO_END = {
    "setup_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "veh_ticks_per_s": ("1/s", "higher"),
    "period_ms.p50": ("ms", "lower"),
    "period_ms.p95": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    strategy: str
    seed_count: int             # demand seeds s .. s + seed_count - 1
    horizon: Optional[float]    # None keeps the scenario's own horizon
    logs: bool                  # event, decision and prediction logs on
    why: str

    def seeds(self, seed: int) -> list[int]:
        return list(range(seed, seed + self.seed_count))

    def params(self) -> dict:
        """What a simulation's reports depend on, besides its demand seed."""
        out = asdict(self)
        del out["name"], out["why"], out["seed_count"]
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nominal", "desk_small", "proposed", 5, None, False,
            "unsaturated corridor the paper targets; plant, predictor and "
            "utility control dominate",
        ),
        Workload(
            "saturated", "desk_large", "proposed", 2, 1800.0, False,
            "oversaturated demand with a pending backlog; injection retries "
            "and motion dominate",
        ),
        Workload(
            "reactive", "desk_small", "drp", 5, None, True,
            "reactive baseline: shortest-path rerouting, many lane changes and "
            "all logs written",
        ),
    )
}


PER_LAYER = {**spans.UNITS, "trace.overhead_pct": ("%", "lower")}


# -- one pass ---------------------------------------------------------------------


@dataclass
class SimRecord:
    """One simulation. Timings are scaled to the reference host speed and
    exclude the probes; `wall_s` is the unscaled simulate call."""

    seed: int
    setup_s: float = 0.0
    sim_s: float = 0.0
    write_s: float = 0.0
    periods: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    unscaled_total_s: float = 0.0
    veh_ticks: int = 0
    simulated_s: float = 0.0
    digest: str = ""
    error: str = ""

    @property
    def total_s(self) -> float:
        return self.setup_s + self.sim_s + self.write_s


def setup(workload: Workload):
    """The timed set-up: resolve, load and validate the scenario."""
    path = scenario_mod.resolve_scenario(workload.scenario)
    return scenario_mod.apply_overrides(scenario_mod.load_scenario(path), {})


def run_pass(
    workload: Workload, sim_seeds: list[int], out_root: Path, probe_every: int = 0
) -> list[SimRecord]:
    """One simulation per demand seed: set up, simulate, write, check.

    The host-speed probe runs before the first simulation, after each one
    and, with `probe_every`, every that many control periods inside it.
    """
    records = []
    timeline = calibration.Timeline()
    timeline.probe()
    for sim_seed in sim_seeds:
        rec = SimRecord(sim_seed)
        try:
            _run_one(workload, rec, out_root / f"seed{sim_seed}", timeline, probe_every)
        except Exception:
            rec.error = traceback.format_exc()
            print(f"{workload.name} seed {sim_seed} failed:\n{rec.error}", file=sys.stderr)
        records.append(rec)
    return records


def _run_one(
    workload: Workload, rec: SimRecord, out: Path, timeline: calibration.Timeline,
    probe_every: int,
):
    marks: list[tuple[float, float]] = []  # (enter, leave) per observer call

    def observer(world, snapshot, decision, executed):
        enter = time.perf_counter()
        if probe_every and len(marks) % probe_every == 0:
            timeline.probe()
        marks.append((enter, time.perf_counter()))

    t0 = time.perf_counter()
    scenario = setup(workload)
    t1 = time.perf_counter()
    result = runner.simulate(
        scenario,
        strategy=workload.strategy,
        seed=rec.seed,
        horizon=workload.horizon,
        log_events=workload.logs,
        log_predictions=workload.logs,
        observer=observer,
    )
    t2 = time.perf_counter()
    runner.write_run_reports(result, out)
    if workload.logs:
        runner.write_decision_log(result, out)
        runner.write_prediction_log(result, out)
    t3 = time.perf_counter()
    timeline.probe()

    # the simulation's own work lies between observer calls
    edges = [t1, *(t for mark in marks for t in mark), t2]
    work = [timeline.scaled(a, b) for a, b in zip(edges[::2], edges[1::2])]
    rec.periods = work[1:-1]
    rec.sim_s = sum(work)
    rec.setup_s = timeline.scaled(t0, t1)
    rec.write_s = timeline.scaled(t2, t3)
    rec.wall_s = t2 - t1
    rec.unscaled_total_s = t3 - t0 - sum(b - a for a, b in marks)
    rec.veh_ticks = vehicle_ticks(result.world)
    rec.simulated_s = result.world.t
    names = STANDARD_REPORTS + (LOG_REPORTS if workload.logs else ())
    rec.digest = digest(out, names)
    problem = conservation_problem(out / "summary.csv")
    if problem:
        rec.error = problem


def vehicle_ticks(world) -> int:
    """Vehicles present at each motion step, summed over the run.

    A vehicle placed at tick d is stepped from d on; one retired at tick a
    was stepped last at a; one still active was stepped until the end.
    """
    dt = world.clock.dt_sim
    ticks = sum(round((v.arrival_time - v.depart_time) / dt) + 1 for v in world.retired)
    ticks += sum(round((world.t - v.depart_time) / dt) for v in world.vehicles.values())
    return ticks


def digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    return h.hexdigest()


def conservation_problem(summary_path: Path) -> str:
    """Empty when injected = retired + active_end holds for every class."""
    with open(summary_path, newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    for cls in CLASSES:
        inj, ret, act = (int(row[f"{k}_{cls}"]) for k in ("injected", "retired", "active_end"))
        if inj != ret + act:
            return f"conservation broken for {cls}: injected {inj} != retired {ret} + active {act}"
    return ""


# -- output check ------------------------------------------------------------------


def load_reference(workload: Workload) -> dict[int, str]:
    """Reference digests per demand seed, if recorded for these parameters."""
    if not REFERENCE_PATH.exists():
        return {}
    entry = json.loads(REFERENCE_PATH.read_text()).get(workload.name)
    if not entry or entry["params"] != workload.params():
        return {}
    return {int(k): v for k, v in entry["digests"].items()}


def check_outputs(workload: Workload, passes: list[list[SimRecord]]):
    """Mark a simulation failed when its reports differ from the reference
    digest, or, for a seed without one, from the first pass's reports."""
    reference = load_reference(workload)
    expected: dict[int, str] = dict(reference)
    for records in passes:
        for rec in records:
            if rec.error:
                continue
            want = expected.setdefault(rec.seed, rec.digest)
            if rec.digest != want:
                source = "reference" if rec.seed in reference else "first pass"
                rec.error = f"seed {rec.seed}: report digest {rec.digest[:12]} != {source} {want[:12]}"
                print(f"{workload.name}: {rec.error}", file=sys.stderr)


# -- runs ----------------------------------------------------------------------------


@dataclass
class RunReport:
    workload: Workload
    seed: int
    passes: int
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )

    def print(self):
        w = self.workload
        seeds = w.seeds(self.seed)
        print(
            f"workload {w.name}: {w.scenario} strategy={w.strategy} "
            f"seeds={seeds[0]}..{seeds[-1]} horizon={w.horizon or 'scenario'} "
            f"logs={'on' if w.logs else 'off'} passes={self.passes}"
        )
        for note in self.notes:
            print(f"  {note}")
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")
        print(
            f"  {'runs_failed':<40} {self.failed / self.attempted:>14.6g} share "
            f"({self.failed} of {self.attempted})"
        )
        print(self.result_line())


def _warm_up(workload: Workload, out_root: Path):
    scenario = setup(workload)
    result = runner.simulate(
        scenario, strategy=workload.strategy, seed=1, horizon=WARMUP_HORIZON,
        log_events=workload.logs, log_predictions=workload.logs,
    )
    runner.write_run_reports(result, out_root / "warmup")


def _repeat(seconds: float, min_rounds: int, one_round):
    """Run rounds back to back; stop at the round boundary nearest to the
    time budget, after at least `min_rounds` rounds."""
    started = time.perf_counter()
    durations: list[float] = []
    while len(durations) < min_rounds or (
        time.perf_counter() - started + durations[-1] / 2 < seconds
    ):
        t0 = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t0)


def _failures(passes: list[list[SimRecord]]) -> tuple[int, int]:
    records = [r for p in passes for r in p]
    return len(records), sum(1 for r in records if r.error)


def measure(workload: Workload, seed: int, seconds: float, out_root: Path) -> RunReport:
    """Tracing off: the end-to-end metrics."""
    _warm_up(workload, out_root)
    setups: list[float] = []
    passes: list[list[SimRecord]] = []
    sim_seeds = workload.seeds(seed)

    def one_round():
        timeline = calibration.Timeline()
        timeline.probe()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup(workload)
            setups.append(timeline.scaled(t0, time.perf_counter()))
        passes.append(run_pass(workload, sim_seeds, out_root, PROBE_EVERY))

    _repeat(seconds, 2, one_round)
    check_outputs(workload, passes)
    attempted, failed = _failures(passes)

    good = [p for p in passes if not any(r.error for r in p)] or passes
    records = [r for p in good for r in p]
    setups += [r.setup_s for r in records]
    periods = sorted(g * 1e3 for r in records for g in r.periods)
    p95 = statistics.quantiles(periods, n=100, method="inclusive")[94] if len(periods) > 1 else 0.0
    metrics = {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(sum(r.total_s for r in p) for p in good),
        "veh_ticks_per_s": statistics.median(
            sum(r.veh_ticks for r in p) / sum(r.sim_s for r in p) for p in good
        ),
        "period_ms.p50": statistics.median(periods) if periods else 0.0,
        "period_ms.p95": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    first = good[0]
    notes = [
        f"input size per pass: {sum(r.veh_ticks for r in first)} vehicle-ticks, "
        f"{sum(r.simulated_s for r in first):g} simulated s",
        f"period samples: {len(periods)}; setup samples: {len(setups)}",
        f"unscaled total_s {statistics.median(sum(r.unscaled_total_s for r in p) for p in good):.4f} s"
        f" (timings are scaled to a {calibration.REFERENCE_S * 1e3:g} ms host-speed probe)",
    ]
    return RunReport(
        workload, seed, len(passes), attempted, failed,
        {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}, notes,
    )


def measure_traced(workload: Workload, seed: int, seconds: float, out_root: Path) -> RunReport:
    """Tracing on: untraced and traced passes alternate; the per-layer
    metrics are medians over the traced passes."""
    _warm_up(workload, out_root)
    plain: list[list[SimRecord]] = []
    traced: list[list[SimRecord]] = []
    layer_runs: list[dict[str, float]] = []
    last: list[spans.Tracer] = []
    sim_seeds = workload.seeds(seed)

    def pair():
        plain.append(run_pass(workload, sim_seeds, out_root / "plain"))
        with spans.Tracer() as tracer:
            records = run_pass(workload, sim_seeds, out_root / "traced")
        traced.append(records)
        layer_runs.append(tracer.metrics())
        _check_balance(tracer, records)
        _check_ticks(layer_runs[-1], records)
        last[:] = [tracer]

    _repeat(seconds, 1, pair)
    tracer = last[0]
    tracer.write(out_root / "spans.csv")
    check_outputs(workload, plain + traced)
    attempted, failed = _failures(plain + traced)

    metrics = {
        name: (statistics.median(run[name] for run in layer_runs), unit)
        for name, (unit, _) in spans.UNITS.items()
    }
    sim_plain = statistics.median(sum(r.sim_s for r in p) for p in plain)
    sim_traced = statistics.median(sum(r.sim_s for r in p) for p in traced)
    metrics["trace.overhead_pct"] = (100.0 * (sim_traced / sim_plain - 1.0), "%")
    notes = [
        f"traced simulate {sim_traced:.4f} s vs untraced {sim_plain:.4f} s per pass "
        f"(scaled to the reference host speed)",
        f"spans in the last traced pass: {len(tracer.names)} "
        f"(written to {out_root / 'spans.csv'})",
    ]
    return RunReport(workload, seed, len(traced), attempted, failed, metrics, notes)


def _check_balance(tracer: spans.Tracer, records: list[SimRecord]):
    """Layer self times plus runner self time must add up to the simulate
    wall time the benchmark measured around the call."""
    if any(r.error for r in records):
        return
    for rec, total in zip(records, tracer.simulate_self_sums()):
        if abs(total - rec.wall_s) > BALANCE_TOLERANCE * rec.wall_s:
            rec.error = f"traced self times sum to {total:.6f} s, simulate took {rec.wall_s:.6f} s"


def _check_ticks(layer: dict[str, float], records: list[SimRecord]):
    """The vehicle-ticks counted at engine.step must match the ones derived
    from the outputs in untraced runs."""
    if any(r.error for r in records):
        return
    derived = sum(r.veh_ticks for r in records)
    if layer["engine.step.veh_ticks"] != derived:
        records[0].error = (
            f"traced vehicle-ticks {layer['engine.step.veh_ticks']} != derived {derived}"
        )
