"""`tools/report_digests.py --check` against its committed digest file."""

from conftest import report_digests


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
