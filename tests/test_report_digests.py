"""`tools/report_digests.py`: `--check` against its committed digest file, and
the `--kpis` rows read from a gate run's summary."""

from pathlib import Path

from conftest import committed_digests, report_digests


def test_committed_file_lists_every_gate_report():
    digests = report_digests.read_digests(report_digests.COMMITTED)
    assert len(digests) == 147
    assert {path.split("/")[0] for path in digests} == set(report_digests.GATE_RUNS)


def test_check_names_every_report_that_differs(capsys):
    digests = report_digests.read_digests(report_digests.COMMITTED)
    assert report_digests.check(dict(digests), report_digests.COMMITTED) == 0
    changed = "desk_small_drp_seed1/events.csv"
    nested = "desk_small_proposed_seed1_sweep_w3/w3_0.2/summary.csv"
    assert nested in digests
    digests[changed] = digests[nested] = "0" * 64
    digests.pop("desk_large_proposed_seed1/trips.csv")
    assert report_digests.check(digests, report_digests.COMMITTED) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-4:-1] == [
        "differs: desk_large_proposed_seed1/trips.csv", f"differs: {changed}",
        f"differs: {nested}",
    ]


def test_kpi_row_reads_the_run_summary(desk_small, tmp_path):
    from jointlane.runner import simulate

    name = "desk_small_proposed_seed1"
    src = Path(report_digests.__file__).resolve().parent.parent / "src"
    digests = report_digests.run_digests(src, name, tmp_path / name)
    assert digests[f"{name}/summary.csv"] == committed_digests(name)["summary.csv"]
    [row] = report_digests.kpi_rows(name, tmp_path / name)
    summary = simulate(desk_small, "proposed", 1).summary
    assert row == [
        name,
        *(f"{summary[column]:.2f}" for column in report_digests.KPI_MEANS.values()),
        str(summary["lane_changes_utility"]), str(summary["lane_changes_myopic"]),
        str(summary["lane_changes_protect"]), str(summary["lane_changes_align"]),
        str(summary["unserved"]),
        str(summary["active_end_cav"] + summary["active_end_hdv"] + summary["active_end_bus"]),
    ]
    assert row[1:6] == ["100.00", "366.41", "455.84", "655.17", "114"]


def test_kpi_rows_name_each_sweep_value_and_leave_a_missing_mean_empty(tmp_path):
    header = ["sweep_key", "sweep_value", *report_digests.KPI_MEANS.values()] + [
        column for columns in report_digests.KPI_COUNTS.values() for column in columns
    ]
    counts = ["1", "2", "3", "4", "5", "6", "7", "8"]
    lines = [
        ",".join(header),
        ",".join(["w3", "0.200000", "", "300.125000", "400.000000", "", *counts]),
        ",".join(["w3", "1.600000", "97.5", "1.000000", "2.000000", "3.000000", *counts]),
    ]
    (tmp_path / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = report_digests.kpi_rows("sweep", tmp_path)
    assert rows == [
        ["sweep w3=0.2", "", "300.12", "400.00", "", "1", "2", "3", "4", "5", "21"],
        ["sweep w3=1.6", "97.50", "1.00", "2.00", "3.00", "1", "2", "3", "4", "5", "21"],
    ]
    table = report_digests.format_kpis(rows).splitlines()
    assert table[0].split() == ["run", *report_digests.KPI_MEANS, *report_digests.KPI_COUNTS]
    assert len({len(line) for line in table[1:]}) == 1  # right-aligned figures
    assert table[1].startswith("sweep w3=0.2  ") and table[1].endswith("  21")
