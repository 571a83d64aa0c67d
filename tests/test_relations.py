"""Whole-run relations that pin what each control mechanism may touch.

The paper's mechanism acts on CAVs only, through protection around buses,
so some relations between whole runs hold exactly:

* R1, no CAV demand: nothing is left for a strategy to decide, so drp, prp
  and proposed write byte-identical trips, bus arrivals, time series, lane
  changes and decisions, and their summary rows differ only in the
  `strategy` cell.
* R2, no bus lines: no window can exist, so prp and proposed make no
  protection lane change, and the protection audit counts nothing.

Each relation runs on desk_small with its demand or its bus lines edited
out, at seeds 1-3.
"""

import csv
from dataclasses import replace

import pytest

from jointlane.network import VehicleClass
from jointlane.runner import simulate, write_decision_log, write_run_reports

SEEDS = (1, 2, 3)
IDENTICAL_REPORTS = (
    "trips.csv", "bus_arrivals.csv", "timeseries.csv", "lane_changes.csv", "decisions.csv",
)


def _reports(result, out):
    write_run_reports(result, out)
    write_decision_log(result, out)
    reports = {name: (out / name).read_bytes() for name in IDENTICAL_REPORTS}
    with open(out / "summary.csv", newline="", encoding="utf-8") as f:
        header, row = list(csv.reader(f))
    return reports, dict(zip(header, row))


@pytest.mark.parametrize("seed", SEEDS)
def test_r1_without_cav_demand_every_strategy_writes_the_same_reports(desk_small, tmp_path, seed):
    scenario = replace(
        desk_small, demand=tuple(d for d in desk_small.demand if d.vclass is not VehicleClass.CAV)
    )
    runs = {
        strategy: _reports(simulate(scenario, strategy, seed), tmp_path / strategy)
        for strategy in ("drp", "prp", "proposed")
    }
    reports, summary = runs["drp"]
    # not vacuous: HDVs and buses finish trips, and buses reach their stops
    assert reports["trips.csv"].count(b"\n") > 50
    assert reports["bus_arrivals.csv"].count(b"\n") > 10
    assert int(summary["retired_hdv"]) > 0 and summary["injected_cav"] == "0"
    for strategy in ("prp", "proposed"):
        other_reports, other_summary = runs[strategy]
        for name in IDENTICAL_REPORTS:
            assert other_reports[name] == reports[name], (strategy, name)
        assert list(other_summary) == list(summary)
        assert [k for k in summary if other_summary[k] != summary[k]] == ["strategy"]


@pytest.mark.parametrize("seed", SEEDS)
def test_r2_without_bus_lines_nothing_is_protected(desk_small, seed):
    scenario = replace(desk_small, bus_lines=())
    for strategy in ("prp", "proposed"):
        summary = simulate(scenario, strategy, seed).summary
        assert summary["injected_bus"] == 0
        assert summary["injected_cav"] > 0 and summary["total_lane_changes"] > 0
        assert summary["lane_changes_protect"] == 0, strategy
        assert summary["audit_banned_entries"] == 0, strategy
        assert summary["audit_forced_missing"] == 0, strategy
