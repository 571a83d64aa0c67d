"""Byte-level regression guard: desk_small seed 1 under every strategy, a w3
sweep, and desk_large's jammed regime.

Each run is a gate run of `tools/report_digests.py`: the test takes its
arguments and the hashing from that tool and compares every report the run
writes, logs and nested sweep directories included, with the run's lines in
the committed `tools/report_digests.sha256`. A change that alters any report
on purpose refreshes that file (see the tool's docstring).
"""

import pytest

from jointlane.cli import main

from conftest import committed_digests, report_digests

GOLDEN_RUNS = (
    "desk_small_drp_seed1",
    "desk_small_prp_seed1",
    "desk_small_proposed_seed1",
    "desk_small_proposed_seed1_sweep_w3",
    "desk_large_proposed_seed1_horizon600",
)


@pytest.mark.parametrize("run", GOLDEN_RUNS)
def test_reports_match_committed_digests(run, tmp_path):
    assert main([*report_digests.GATE_RUNS[run], "--out", str(tmp_path)]) == 0
    assert report_digests.hash_reports(tmp_path) == committed_digests(run)
