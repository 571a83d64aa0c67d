import csv
import json
import os
from pathlib import Path

import pytest

from jointlane import prediction, routing
from jointlane.cli import build_parser, main, resolve_scenario


def run_cli(args):
    return main(args)


def test_invalid_strategy_is_usage_error(capsys, tmp_path):
    code = run_cli(["--scenario", "desk_small", "--strategy", "magic",
                    "--out", str(tmp_path)])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_scenario_file_is_validation_error(capsys, tmp_path):
    code = run_cli(["--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "scenario error" in capsys.readouterr().err


def test_bad_set_value_is_usage_error(tmp_path):
    code = run_cli(["--scenario", "desk_small", "--set", "w3=abc",
                    "--out", str(tmp_path)])
    assert code == 1


def test_unknown_override_key_is_validation_error(capsys, tmp_path):
    code = run_cli(["--scenario", "desk_small", "--set", "w9=1",
                    "--horizon", "60", "--out", str(tmp_path)])
    assert code == 2


def test_run_writes_reports(tmp_path):
    code = run_cli([
        "--scenario", "desk_small", "--strategy", "proposed", "--seed", "1",
        "--horizon", "200", "--out", str(tmp_path),
        "--log-events", "--log-decisions", "--log-predictions",
    ])
    assert code == 0
    for name in ("trips.csv", "bus_arrivals.csv", "timeseries.csv",
                 "lane_changes.csv", "summary.csv", "events.csv",
                 "decisions.csv", "predictions.csv"):
        assert (tmp_path / name).exists(), name


@pytest.mark.parametrize("key, value", [("dT_b", "inf"), ("w1", "nan"), ("dt", "nan")])
def test_non_finite_override_is_validation_error(capsys, tmp_path, key, value):
    code = run_cli(["--scenario", "desk_small", "--horizon", "30", "--set", f"{key}={value}",
                    "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"control.{key}: expected a finite number, got {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "summary.csv").exists()


def test_set_override_lands_in_summary(tmp_path):
    code = run_cli(["--scenario", "desk_small", "--seed", "1", "--horizon", "120",
                    "--set", "w3=0.55", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["w3"]) == 0.55
    assert "mean_on_time_pct" in row
    assert "on_time_pct_stop_0" in row


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("JOINTLANE_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code = run_cli(["--scenario", "desk_small", "--horizon", "120"])
    assert code == 0
    assert (tmp_path / "envout" / "summary.csv").exists()


def test_sweep_produces_n_plus_one_report_sets(tmp_path):
    code = run_cli([
        "--scenario", "desk_small", "--seed", "2", "--horizon", "200",
        "--sweep", "w3=0.3,0.5", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "w3_0.3" / "summary.csv").exists()
    assert (tmp_path / "w3_0.5" / "summary.csv").exists()
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["sweep_value"]) for r in rows] == [0.3, 0.5]
    assert all(r["sweep_key"] == "w3" for r in rows)


@pytest.mark.parametrize("sweep", [(), ("--sweep", "w3=0.2,0.4")], ids=["plain", "sweep"])
def test_synthesized_connections_warn_once_per_invocation(capsys, tmp_path, sweep):
    data = json.loads(resolve_scenario("desk_small").read_text(encoding="utf-8"))
    del data["connections"]
    path = tmp_path / "open.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    warning = ("jointlane: warning: connections omitted: synthesized all-lane turns for "
               "every adjacent edge pair\n")
    for scenario, expected in ((str(path), warning), ("desk_small", "")):
        assert run_cli(["--scenario", scenario, "--horizon", "60", *sweep,
                        "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == expected


def test_sweep_needs_values(capsys, tmp_path):
    assert run_cli(["--scenario", "desk_small", "--sweep", "w3=",
                    "--out", str(tmp_path)]) == 1
    assert run_cli(["--scenario", "desk_small", "--sweep", "w3=a,b",
                    "--out", str(tmp_path)]) == 1


def test_sweep_values_sharing_a_run_directory_are_usage_error(capsys, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["--scenario", "desk_small", "--horizon", "120",
                    "--sweep", "w3=0.3,0.4,0.4000001", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--sweep values 0.4 and 0.4000001 share the run directory w3_0.4" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bundled_names_resolve():
    for name in ("desk_small", "desk_large"):
        assert resolve_scenario(name).exists()
    assert resolve_scenario("some/path.json") == Path("some/path.json")


def test_single_value_sweep_matches_plain_run(tmp_path):
    code = run_cli(["--scenario", "desk_small", "--seed", "3", "--horizon", "200",
                    "--sweep", "w3=0.4", "--out", str(tmp_path / "sweep")])
    assert code == 0
    code = run_cli(["--scenario", "desk_small", "--seed", "3", "--horizon", "200",
                    "--set", "w3=0.4", "--out", str(tmp_path / "plain")])
    assert code == 0
    sweep_run = (tmp_path / "sweep" / "w3_0.4" / "summary.csv").read_bytes()
    plain_run = (tmp_path / "plain" / "summary.csv").read_bytes()
    assert sweep_run == plain_run
    with open(tmp_path / "sweep" / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1


def test_non_positive_horizon_is_usage_error(capsys, tmp_path):
    for value in ("-1", "0"):
        code = run_cli(["--scenario", "desk_small", f"--horizon={value}",
                        "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--horizon" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_non_finite_horizon_is_usage_error(capsys, value):
    # parsed only: an infinite horizon would never finish a run
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--scenario", "desk_small", f"--horizon={value}"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--horizon" in err and "finite" in err


def test_negative_seed_is_usage_error(capsys, tmp_path):
    code = run_cli(["--scenario", "desk_small", "--seed", "-1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "summary.csv").exists()


def test_out_under_a_regular_file_is_usage_error(capsys, tmp_path):
    blocker = tmp_path / "reports"
    blocker.write_text("not a directory", encoding="utf-8")
    code = run_cli(["--scenario", "desk_small", "--horizon", "30",
                    "--out", str(blocker / "run1")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("jointlane: error: cannot write reports:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_scenario_without_horizon_is_validation_error(capsys, tmp_path):
    """Missing or malformed scenario content is a validation error (exit 2)."""
    cases = [
        ("horizon", lambda d: d["meta"].pop("horizon")),
        ("meta.horizon", lambda d: d["meta"].update(horizon="abc")),
        ("meta.horizon", lambda d: d["meta"].update(horizon=-5)),
        ("edges", lambda d: d.update(edges=5)),
        ("nodes", lambda d: d.update(nodes=3)),
        ("connections[0]", lambda d: d.update(connections=[1])),
        ("edges[0].gate", lambda d: d["edges"][0].update(gate=5)),
        ("bus_lines[0].stops[0]", lambda d: d["bus_lines"][0].update(stops=[3])),
        ("edges[0].dl", lambda d: d["edges"][0].update(dl="no")),
        ("nodes[0]", lambda d: d.update(nodes=[{"id": 1, "junk": 2}, *d["nodes"][1:]])),
    ]
    for field, corrupt in cases:
        data = json.loads(resolve_scenario("desk_small").read_text(encoding="utf-8"))
        corrupt(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = run_cli(["--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 2, field
        err = capsys.readouterr().err
        assert "scenario error" in err and field in err, (field, err)
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "summary.csv").exists()


@pytest.mark.parametrize("module, name, error", [
    (prediction, "build_snapshot", prediction.PredictionError),
    (routing, "initial_route", routing.RoutingError),
])
def test_prediction_and_routing_errors_in_a_run_exit_3(capsys, tmp_path, monkeypatch,
                                                      module, name, error):
    def broken(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(module, name, broken)
    code = run_cli(["--scenario", "desk_small", "--horizon", "60", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "jointlane: runtime invariant violated: injected failure\n"


@pytest.mark.parametrize("corrupt, extra, message", [
    (None, ["--set", "dt_sim=1e-308"],
     "control: dt_control / dt_sim = inf is not a finite number of steps"),
    (lambda d: d["demand"][1].update(rate=1e12), [],
     "demand[1]: rate 1e+12 veh/s over a 900 s horizon expects more than 1,000,000 arrivals"),
    (lambda d: d["edges"][1].update(capacity=1e-308), [],
     "edges[1]: edge 1: capacity must be >= 1e-06 veh/s"),
], ids=["dt_sim", "rate", "capacity"])
def test_values_past_the_float_range_are_validation_errors(capsys, tmp_path, corrupt, extra,
                                                          message):
    # each of these ended in an OverflowError traceback or never finished
    scenario = "desk_small"
    if corrupt is not None:
        data = json.loads(resolve_scenario("desk_small").read_text(encoding="utf-8"))
        corrupt(data)
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
    code = run_cli(["--scenario", str(scenario), *extra, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"jointlane: scenario error: {message}\n"


def test_beta_past_the_float_range_is_a_scenario_error(capsys, tmp_path):
    # (flow / capacity) ** beta overflowed into an OverflowError traceback
    code = run_cli(["--scenario", "desk_small", "--set", "beta=2000", "--horizon", "120",
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "jointlane: scenario error: control: beta = 2000 takes (flow / capacity) ** beta "
        "past the float range at flow / capacity = 2.66667\n"
    )
    assert not (tmp_path / "out").exists()


def test_alpha_past_the_float_range_is_a_scenario_error(capsys, tmp_path):
    # alpha * (flow / capacity) ** beta overflowed to inf without an error: the run
    # exited 0 and wrote inf travel times to predictions.csv
    code = run_cli(["--scenario", "desk_small", "--set", "alpha=1e308", "--horizon", "120",
                    "--log-predictions", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "jointlane: scenario error: control: alpha = 1e+308 and beta = 4 take the travel "
        "time past the float range at flow / capacity = 1.33333\n"
    )
    assert not (tmp_path / "out").exists()


def test_run_past_the_tick_cap_is_a_scenario_error(capsys, tmp_path):
    # a finite but tiny dt_sim passed the clock checks, and the run never ended
    code = run_cli(["--scenario", "desk_small", "--set", "dt_sim=1e-200", "--horizon", "120",
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "jointlane: scenario error: control: dt_sim = 1e-200 over a 120 s horizon makes "
        "2.4e+202 motion ticks, more than 1,000,000\n"
    )
    assert not (tmp_path / "out").exists()
