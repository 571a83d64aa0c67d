"""Byte-level regression guard: desk_small seed 1 reports under every strategy,
the summaries of a w3 sweep, and desk_large's jammed regime.

The digests pin the five standard reports plus the event, decision and
prediction logs. The desk_small seed 1 digests are read from
`tools/report_digests.sha256`, the gate runs' committed digests; the two
sweep digests not written by a gate run and the jammed ones are pinned here.
A change that alters any of them, for any strategy, must update these
values on purpose.
"""

import hashlib

import pytest

from jointlane.cli import main

from conftest import COMMITTED_DIGESTS, LOG_REPORTS, STANDARD_REPORTS, committed_digests

#: per strategy, the reports of desk_small seed 1, from the gate runs'
#: committed digests
GOLDEN = {
    strategy: committed_digests(
        f"desk_small_{strategy}_seed1", STANDARD_REPORTS + LOG_REPORTS
    )
    for strategy in ("drp", "prp", "proposed")
}


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_desk_small_seed1_reports_match_golden_digests(strategy, tmp_path):
    code = main([
        "--scenario", "desk_small", "--strategy", strategy, "--seed", "1",
        "--out", str(tmp_path),
        "--log-events", "--log-decisions", "--log-predictions",
    ])
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[strategy]
    }
    assert digests == GOLDEN[strategy]


#: `--sweep w3=0.2,0.4 --seed 1`: the combined table and each run's own summary
SWEEP_GOLDEN = {
    "summary.csv": "d441538d955af3601d39f90d89ea9e96c47b746c96880ce553d1c3e1e33e7f10",
    "w3_0.2/summary.csv": "642cc004fb5cee6bbf9baed4508995cd5455ec3385bfed99b4337a4b2dfb619a",
    "w3_0.4/summary.csv": COMMITTED_DIGESTS["desk_small_proposed_seed1/summary.csv"],
}


def test_sweep_summaries_match_golden_digests(tmp_path):
    code = main([
        "--scenario", "desk_small", "--sweep", "w3=0.2,0.4", "--seed", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SWEEP_GOLDEN
    }
    assert digests == SWEEP_GOLDEN


#: desk_large proposed seed 1 at a 600 s horizon: an oversaturated corridor
#: with jammed queues and a pending backlog (98 arrivals end unserved)
JAMMED_GOLDEN = {
    "trips.csv": "d5643ec682798ec4810edbdda76197fbe0e505d08cf1f56e54992f1b206f7ec1",
    "bus_arrivals.csv": "9758e243e59b90cc4f5ce270ed9bd7928311f8ef153ccfb71f2ef154ca8022fd",
    "timeseries.csv": "21b49bc04063f8041a20634d917104bb54064b41544eb7dda6494ace50d300b9",
    "lane_changes.csv": "b42bd5b68d0bb4371b9098e97acc69e1c3b08c20b4058ece8ea35bf1b0d31c02",
    "summary.csv": "794d6664df90645e130980b3e66a9d7bbf2c2f1148d8152772975b8a8a20c441",
    "events.csv": "0b5928f50c64403b55bcb70cec3591e9d5d676a362f0405724fea437cabd4f73",
    "decisions.csv": "88709847f8e7cb38e382444104587318ef34a3ed568915a00c1c3bf39302a578",
    "predictions.csv": "3bd03228ee604f1e0b6498aa1f0c4539b180fbd76a8d51823594d90eb9c92a22",
}


def test_desk_large_jammed_reports_match_golden_digests(tmp_path):
    code = main([
        "--scenario", "desk_large", "--strategy", "proposed", "--seed", "1",
        "--horizon", "600", "--out", str(tmp_path),
        "--log-events", "--log-decisions", "--log-predictions",
    ])
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in JAMMED_GOLDEN
    }
    assert digests == JAMMED_GOLDEN
