"""Byte-level regression guard: desk_small seed 1 reports under every strategy,
the summaries of a w3 sweep, and desk_large's jammed regime.

The digests pin the five standard reports plus the event, decision and
prediction logs. A change that alters any of them, for any strategy, must
update these values on purpose.
"""

import hashlib

import pytest

from jointlane.cli import main

GOLDEN = {
    "drp": {
        "trips.csv": "ac4c95bc70f1c91cc131cc4b791130b051a66ae731dd4d91ebd7e09e77c6ab67",
        "bus_arrivals.csv": "cf569c4826988092a47764e3e12e42e8221f01a212d5e14d87f6956df9f9fa34",
        "timeseries.csv": "690797326ec3ee38a70172c02185b31541fff48a4e5d05c13b9a05cff6e1794a",
        "lane_changes.csv": "e85626cbc906d2541b81c634d01ba8a0865807a2151e561a8a555ce73b64b62e",
        "summary.csv": "1c238c7ea371cff7542370b4988cc842a89baf5191da89a1aa4b080ff6846680",
        "events.csv": "2ca8e733a4d899a73a3bbd1a511fca1d921421a4e933a27a85f6c7e1748b2aaa",
        "decisions.csv": "ab37084b6195af19db1ad4d5e9d57e422ff4cd9d9b8d6a19b9ddef1891c0de9a",
        "predictions.csv": "70d74252a6ffc378c92cdf661d5c08ca7857048ce8bf53a600f8d5d0e2fc1163",
    },
    "prp": {
        "trips.csv": "6347ee99e12a8ecb9842264daf8415be3d17f4c31e1a12eedba063e48bca4e78",
        "bus_arrivals.csv": "85c15115110edcb5f21d3d1be9f4575e7031edb08e7261ddb5f8a6003b792d64",
        "timeseries.csv": "99afea4765de5584fd4c84dad44a7ca3b391959d29a17e5753f2a06d45979581",
        "lane_changes.csv": "aec51253160598c47e3a8b33e41fdc7d9ae13d55669b217b3aa527d328211d09",
        "summary.csv": "e41d79399b622a1a966e5013bf7f3dd943abaa79e36c13f3e91fbbf7fbafa332",
        "events.csv": "8712ef78c3b9da467ed3f9cab5fd8ea40064236a24b189a691f35cd7c45a2fe2",
        "decisions.csv": "c3dfeb1890fb92e2e21ad3dcabbc0db278eb4f2135375b4633ac5172adf4375b",
        "predictions.csv": "54421619aae3e19ac37692700921645d8abeaa0f4c16ebccf8336f2b90226754",
    },
    "proposed": {
        "trips.csv": "0d3f57c06340bad8937a95f7307adda1886e53163b6a5d83db1a186291de9ea0",
        "bus_arrivals.csv": "0859a1fbd453daea1560b2b03b074d3a6397210742f4b6108e865713f00683bd",
        "timeseries.csv": "2dc5a8addca81a859be3439625fdfeb9644ef75b826a41c3a492c6c4499bddcd",
        "lane_changes.csv": "5e38502c87e650a4a8ddbeb7e6fa8554191f5441ecc4e8aa7e263270405ca16c",
        "summary.csv": "865c7b84c75956e3413e4202c464dd0300db13b5102ca108083ec7e543cc2c54",
        "events.csv": "f30aadfba320c6455d75144b5ffaa1298560e205e12343f173dbd87a7dc040bc",
        "decisions.csv": "a07224b7da89422fbde82ebc9616960e00704aa998156191e0e72af9ecc6c587",
        "predictions.csv": "e59e7c0d5de0239b68105f11570638825a50e0ef9d7ff1289b4ad45508e43229",
    },
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
    "w3_0.4/summary.csv": GOLDEN["proposed"]["summary.csv"],
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
