"""Smoke test of the benchmark: every workload at a tiny horizon, both modes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from run import ROOT, import_simulator

if not import_simulator():
    raise ImportError("jointlane sources not found next to the benchmark")

import harness  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_HORIZON = 60.0


def _tiny(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], horizon=TINY_HORIZON)


def _printed(capsys) -> tuple[dict, str]:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def _originals() -> list:
    out = []
    for module, attr, _ in spans.WRAPPED:
        owner, field = spans._resolve(module, attr)
        out.append(owner.__dict__[field])
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_reference_digests_cover_default_seeds(name):
    workload = harness.WORKLOADS[name]
    assert set(workload.seeds(1)) <= set(harness.load_reference(workload))


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_untraced_run_prints_end_to_end_metrics(name, tmp_path, capsys):
    harness.measure(_tiny(name), 1, 0.0, tmp_path).print()
    result, text = _printed(capsys)
    assert result["failed"] == 0 and result["correct"] and result["attempted"] >= 2
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert f"{metric['name']} " in text
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "runs_failed" in text


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_prints_per_layer_metrics_and_restores(name, tmp_path, capsys):
    before = _originals()
    harness.measure_traced(_tiny(name), 1, 0.0, tmp_path).print()
    assert all(a is b for a, b in zip(_originals(), before))
    result, text = _printed(capsys)
    assert result["failed"] == 0 and result["correct"]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} " in text
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (tmp_path / "spans.csv").stat().st_size > 0


def test_output_check_flags_changed_reports(tmp_path):
    workload = harness.WORKLOADS["nominal"]
    good = harness.load_reference(workload)[1]
    passes = [[harness.SimRecord(1, digest=good)], [harness.SimRecord(1, digest="0" * 64)]]
    harness.check_outputs(workload, passes)
    assert not passes[0][0].error and "reference" in passes[1][0].error

    fresh = [[harness.SimRecord(99, digest="a" * 64)], [harness.SimRecord(99, digest="b" * 64)]]
    harness.check_outputs(_tiny("nominal"), fresh)
    assert not fresh[0][0].error and "first pass" in fresh[1][0].error


def test_conservation_check_reads_summary(tmp_path):
    path = tmp_path / "summary.csv"
    header = [f"{k}_{c}" for c in harness.CLASSES for k in ("injected", "retired", "active_end")]
    path.write_text(",".join(header) + "\n" + "5,3,2,4,4,0,1,0,0\n")
    assert "bus" in harness.conservation_problem(path)
    path.write_text(",".join(header) + "\n" + "5,3,2,4,4,0,1,1,0\n")
    assert harness.conservation_problem(path) == ""
