"""Acceptance suite: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The simulation matrix (three strategies by five seeds on the small
desk scenario, plus the w3 sweep) is executed once per session and shared.
"""

import hashlib
import random

import pytest

from jointlane.control import pick_winner, bus_warning
from jointlane.network import Lane, SegmentRef, VehicleClass
from jointlane.prediction import BprParams, bpr_time
from jointlane.runner import simulate, write_run_reports
from prediction_oracle import entry_indicator

SEEDS = (1, 2, 3, 4, 5)
STRATEGIES = ("drp", "prp", "proposed")
W3_VALUES = (0.2, 0.4, 0.6)


def report(number, description, ok):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def matrix(desk_small):
    runs = {}
    for strategy in STRATEGIES:
        for seed in SEEDS:
            runs[(strategy, seed)] = simulate(desk_small, strategy=strategy, seed=seed)
    return runs


@pytest.fixture(scope="module")
def w3_sweep(desk_small, matrix):
    out = {}
    for w3 in W3_VALUES:
        per_seed = []
        for seed in SEEDS:
            if w3 == 0.4:  # the scenario default, reuse the matrix run
                per_seed.append(matrix[("proposed", seed)])
            else:
                per_seed.append(
                    simulate(desk_small, strategy="proposed", seed=seed,
                             overrides={"w3": w3})
                )
        out[w3] = per_seed
    return out


def test_criterion_01_hard_constraint_audit(matrix):
    ok = True
    for strategy in ("prp", "proposed"):
        for seed in SEEDS:
            run = matrix[(strategy, seed)]
            if run.audit["banned_entries"] != 0 or run.audit["forced_missing"] != 0:
                ok = False
            if run.wall_time >= 10.0:
                ok = False
    report(1, "zero protected-entry violations, every forced exit issued or "
              "pending, runtime under 10 s per run (prp+proposed, seeds 1-5)", ok)


def test_criterion_02_on_time_ordering(matrix):
    good_seeds = 0
    lines = []
    for seed in SEEDS:
        d = matrix[("drp", seed)].summary["mean_on_time_pct"]
        p = matrix[("prp", seed)].summary["mean_on_time_pct"]
        q = matrix[("proposed", seed)].summary["mean_on_time_pct"]
        holds = q >= p >= d and q >= 90.0 and d < q
        good_seeds += holds
        lines.append(f"seed {seed}: {d:.1f}/{p:.1f}/{q:.1f}")
    report(2, "bus on-time ordering proposed >= prp >= drp with proposed >= 90% "
              f"and drp strictly lower on >= 4 of 5 seeds ({'; '.join(lines)})",
           good_seeds >= 4)


def test_criterion_03_lane_change_reduction(matrix):
    good_seeds = 0
    ratios = []
    for seed in SEEDS:
        drp = matrix[("drp", seed)].summary["total_lane_changes"]
        prop = matrix[("proposed", seed)].summary["total_lane_changes"]
        ratio = prop / drp if drp else float("inf")
        ratios.append(f"{ratio:.2f}")
        good_seeds += ratio <= 0.70
    report(3, f"proposed executes <= 70% of drp's lane changes on >= 4 of 5 "
              f"seeds (ratios {', '.join(ratios)})", good_seeds >= 4)


def test_criterion_04_w3_monotonicity(w3_sweep):
    mean_lc = []
    mean_tt = []
    for w3 in W3_VALUES:
        runs = w3_sweep[w3]
        mean_lc.append(sum(r.summary["total_lane_changes"] for r in runs) / len(runs))
        mean_tt.append(sum(r.summary["avg_travel_time_cav"] for r in runs) / len(runs))
    lc_ok = all(b <= a for a, b in zip(mean_lc, mean_lc[1:]))
    tt_ok = all(b >= 0.98 * a for a, b in zip(mean_tt, mean_tt[1:]))
    report(4, "seed-averaged lane changes non-increasing in w3 "
              f"({[round(x, 1) for x in mean_lc]}) and CAV travel time "
              f"non-decreasing within a 2% band ({[round(x, 1) for x in mean_tt]})",
           lc_ok and tt_ok)


def test_criterion_05_volume_delay_exactness():
    import mpmath

    mpmath.mp.dps = 60
    rng = random.Random(505)
    worst = 0.0
    for _ in range(100):
        t0 = rng.uniform(0.5, 100.0)
        cap = rng.uniform(0.01, 2.0)
        flow = rng.uniform(0.0, 4.0 * cap)
        alpha = rng.uniform(0.05, 2.0)
        beta = rng.uniform(1.0, 8.0)
        got = bpr_time(t0, flow, cap, BprParams(alpha=alpha, beta=beta))
        exact = mpmath.mpf(t0) * (
            1 + mpmath.mpf(alpha) * (mpmath.mpf(flow) / mpmath.mpf(cap)) ** mpmath.mpf(beta)
        )
        rel = abs(mpmath.mpf(got) - exact) / exact
        worst = max(worst, float(rel))
    anchors = (
        bpr_time(10.0, 0.0, 0.5, BprParams()) == 10.0
        and bpr_time(10.0, 0.5, 0.5, BprParams()) == pytest.approx(11.5, abs=1e-12)
    )
    report(5, f"volume-delay law matches 60-digit evaluation to 1e-9 relative "
              f"(worst {worst:.2e}) plus both analytic anchors", worst <= 1e-9 and anchors)


def test_criterion_06_selection_oracle():
    rng = random.Random(606)
    ok = True
    for _ in range(1000):
        n = rng.randrange(0, 11)
        ids = rng.sample(range(200), n)
        values = [round(rng.uniform(-1, 1), 2) for _ in range(n)]
        scored = list(zip(ids, values))
        got = pick_winner(scored)
        if not scored:
            ok = ok and got is None
            continue
        best = max(values)
        expect = (min(i for i, u in scored if u == best), best)
        ok = ok and got == expect and ((got[1] > 0) == (best > 0))
    report(6, "winner selection equals exhaustive argmax with lowest-id ties "
              "and the positive-score gate on 1000 random candidate sets", ok)


def test_criterion_07_routing_oracle():
    from test_routing import _enumerate_simple_paths, _random_network
    from jointlane.routing import path_cost, shortest_path

    rng = random.Random(707)
    mismatches = 0
    for _ in range(200):
        model = _random_network(rng)
        costs = {eid: rng.uniform(1.0, 100.0) for eid in model.edges}
        origin, destination = rng.sample(model.nodes, 2)
        found = shortest_path(model, origin, destination, VehicleClass.CAV, costs)
        expected = _enumerate_simple_paths(model, origin, destination, costs)
        if found is None:
            if expected is not None:
                mismatches += 1
            continue
        if expected is None or abs(path_cost(found, costs) - expected) > 1e-9:
            mismatches += 1
    report(7, f"shortest-path cost equals simple-path enumeration on 200 random "
              f"graphs ({mismatches} mismatches)", mismatches == 0)


def test_criterion_08_conservation_and_determinism(matrix, desk_small, tmp_path):
    conserved = True
    for run in matrix.values():
        active = run.world.active_counts()
        retired = {c: 0 for c in VehicleClass}
        for veh in run.world.retired:
            retired[veh.vclass] += 1
        for cls in VehicleClass:
            if run.world.injected[cls] != retired[cls] + active[cls]:
                conserved = False
    again = simulate(desk_small, strategy="proposed", seed=1)
    write_run_reports(matrix[("proposed", 1)], tmp_path / "a")
    write_run_reports(again, tmp_path / "b")
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("trips.csv", "bus_arrivals.csv", "timeseries.csv",
                     "lane_changes.csv", "summary.csv")
    )
    report(8, "injected = retired + active per class on every run; repeated "
              "invocation yields byte-identical reports", conserved and identical)


def test_criterion_09_indicator_boundaries(dl_chain3):
    from conftest import make_world, put_vehicle
    from jointlane.prediction import ProtectionHorizon, build_bus_windows, build_snapshot
    from prediction_oracle import bus_overlap_indicator

    half_open = entry_indicator(15.0, 15.0) == 0 and entry_indicator(0.0, 15.0) == 1
    world = make_world(dl_chain3)
    # 400 m ahead at 8 m/s: bus entry predicted at exactly 50 s, window [20, 80]
    put_vehicle(world, 0, VehicleClass.BUS, [0, 1, 2], lane=Lane.RIGHT, m=1,
                offset=0.0, speed=8.0)
    seg = SegmentRef(2, Lane.RIGHT, 1)
    # 400 m at 5 m/s puts the vehicle exactly on the window's closed end
    cav = put_vehicle(world, 1, VehicleClass.CAV, [0, 1, 2], lane=Lane.RIGHT,
                      m=1, offset=0.0, speed=5.0)
    protection = ProtectionHorizon(30.0)
    snap = build_snapshot(world, build_bus_windows(world, protection),
                          BprParams(), protection, 15.0)
    assert snap.windows.covering(seg)[0][1:] == (20.0, 80.0)
    closed_end = bus_overlap_indicator(snap, 1, seg) == 1
    cav.speed = 4.0  # arrives at 100 s, strictly past the window end
    snap = build_snapshot(world, build_bus_windows(world, protection),
                          BprParams(), protection, 15.0)
    past_end = bus_overlap_indicator(snap, 1, seg) == 0
    strict = not bus_warning((1 + 0.2) * 20.0, 20.0, 0.2)
    report(9, "half-open entry interval, closed protection window endpoints, "
              "strict warning inequality, all exact",
           half_open and closed_end and past_end and strict)


def test_criterion_10_penalty_bounds_and_scale_invariance():
    from jointlane.control import u3_change_rate_penalty

    rng = random.Random(1010)
    bounds_ok = True
    for _ in range(1000):
        t = rng.uniform(200, 5000)
        horizon = rng.choice((60.0, 120.0, 240.0))
        dt = rng.choice((5.0, 15.0, 30.0))
        max_n = int(horizon / dt)
        n = rng.randrange(0, max_n + 1)
        log = tuple(sorted(rng.uniform(t - horizon + 1e-6, t) for _ in range(n)))
        pen = u3_change_rate_penalty(log, t, horizon, dt)
        if not -1.0 <= pen <= 0.0:
            bounds_ok = False
    scale_ok = True
    for _ in range(1000):
        n = rng.randrange(1, 11)
        scored = [(i, round(rng.uniform(-1, 1), 3)) for i in rng.sample(range(99), n)]
        c = rng.uniform(1e-3, 1e3)
        base = pick_winner(scored)
        scaled = pick_winner([(i, u * c) for i, u in scored])
        if scaled[0] != base[0] or (scaled[1] > 0) != (base[1] > 0):
            scale_ok = False
    report(10, "rate penalty stays within [-1, 0] for feasible histories; "
               "scaling all utilities by c > 0 never changes the winner or "
               "the fire decision (1000 cases each)", bounds_ok and scale_ok)


def test_matrix_reports_match_golden_digests(matrix, tmp_path):
    """Byte-level regression guard: the five standard reports of every matrix
    run. A change that alters any of them must update these values on purpose."""
    digests = {}
    for (strategy, seed), run in matrix.items():
        out = tmp_path / f"{strategy}_{seed}"
        write_run_reports(run, out)
        digests[(strategy, seed)] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in MATRIX_DIGESTS[(strategy, seed)]
        }
    assert digests == MATRIX_DIGESTS


#: SHA-256 of the standard reports, per (strategy, seed) of the matrix
MATRIX_DIGESTS = {
    ("drp", 1): {
        "trips.csv": "ac4c95bc70f1c91cc131cc4b791130b051a66ae731dd4d91ebd7e09e77c6ab67",
        "bus_arrivals.csv": "cf569c4826988092a47764e3e12e42e8221f01a212d5e14d87f6956df9f9fa34",
        "timeseries.csv": "690797326ec3ee38a70172c02185b31541fff48a4e5d05c13b9a05cff6e1794a",
        "lane_changes.csv": "e85626cbc906d2541b81c634d01ba8a0865807a2151e561a8a555ce73b64b62e",
        "summary.csv": "1c238c7ea371cff7542370b4988cc842a89baf5191da89a1aa4b080ff6846680",
    },
    ("drp", 2): {
        "trips.csv": "35f5e5f09a5890b2c138cf76b241164119bfc7bcf00071b1279bac0ea18359cf",
        "bus_arrivals.csv": "73f0733c6ce7f945c8094362382eda12f54ff0fb4d81bc326f61448c12c4dcaf",
        "timeseries.csv": "e545bc4bfc3d1cc826f9e13dd35b9fbd9e7831c23bc44f4402b4d51cd1b44ef0",
        "lane_changes.csv": "e606091f2d8c804bf49f66352b6c1a812fc278b6c3f4439056d517305ac36ec1",
        "summary.csv": "33414177a0c5d90f74f032d3ef1fdf0bbb957e40a082e93dadfde12aa0029079",
    },
    ("drp", 3): {
        "trips.csv": "7b9f17ceca20bbd7c8bc353ef6626d930423362815ac915c6ba091824fc092b5",
        "bus_arrivals.csv": "62954f182a7fd27f48dd17a0a7f24445f47954f6b02881ea6616aebbdbc3e57e",
        "timeseries.csv": "edf3bb859201448788c97d1bce8c50735889f9a7f9580682b0b278c77110fb30",
        "lane_changes.csv": "c4548ce7b749d5717a592b12efe2e9d9cb90f48d76035535bd7d2904e7db73bd",
        "summary.csv": "c6a6194500560161d61856be8071456246817fae4c0c831a58c7d850d2b1489e",
    },
    ("drp", 4): {
        "trips.csv": "878856d7e2d3bd5626da4c218e0eae4ee1bf2d92548347f0955897daf0f4ae3b",
        "bus_arrivals.csv": "24f53e29bc01458ca7d680dc474316181dd1fd870d48773a5f75bfd5b2ffa5b6",
        "timeseries.csv": "8f087c568affb56e0a1418340d8142e57fd31d4bfbaf8b31a16a3c3b23870331",
        "lane_changes.csv": "4afb37fb32866207c7a23218e798d5994d75f5856a072caa9e069b489fbf663f",
        "summary.csv": "1103a3057832c39021ab2baf56c71cd6097a225666f33c17fddb02f9597e77bc",
    },
    ("drp", 5): {
        "trips.csv": "8fe43706d3ba4f700ccfd46df98c3dbb193d0b6a1dbec8f1d450bcc96f5d5212",
        "bus_arrivals.csv": "477491ceec5a03ba831b3474315423eb5e3b6a9903fb7558a854d5e72a8d555f",
        "timeseries.csv": "db9c0ae8600f7600d17d62306958677de9809a2050042df67cce7b9a7d57275d",
        "lane_changes.csv": "cd270699fdccc03f0f8cb9d5fcaadd87d73d31a7ca4fea0a156d2c3b959e9dd4",
        "summary.csv": "5e0d7734ba61fd5a671a5950be2cf77748357cee01076dc44972e9ccc9811af4",
    },
    ("prp", 1): {
        "trips.csv": "6347ee99e12a8ecb9842264daf8415be3d17f4c31e1a12eedba063e48bca4e78",
        "bus_arrivals.csv": "85c15115110edcb5f21d3d1be9f4575e7031edb08e7261ddb5f8a6003b792d64",
        "timeseries.csv": "99afea4765de5584fd4c84dad44a7ca3b391959d29a17e5753f2a06d45979581",
        "lane_changes.csv": "aec51253160598c47e3a8b33e41fdc7d9ae13d55669b217b3aa527d328211d09",
        "summary.csv": "e41d79399b622a1a966e5013bf7f3dd943abaa79e36c13f3e91fbbf7fbafa332",
    },
    ("prp", 2): {
        "trips.csv": "09b7aab709b198fd283ca39cee1ddca145178a769302bf52ec5bca8f9fe11f42",
        "bus_arrivals.csv": "2c71352be8cda6c12dddf46721e4425309e4150b7091f576d4d81d1471c631e7",
        "timeseries.csv": "241c3c06a56af5312ae7bf5bcb87caf2e026552c250e6dc65b037dd017aacb84",
        "lane_changes.csv": "021678c074a00fd435b87ec9122e22c261b696516b837a7140ed1b9fea9250ee",
        "summary.csv": "13d436423f44bf7daa68782b3d829ee8e815ea4fbdd54b28be688a37b941bd28",
    },
    ("prp", 3): {
        "trips.csv": "81aaef4c30f8a89cb061ca3352555c5ad3d7a7ce807dca30a5a65f02d696a6cd",
        "bus_arrivals.csv": "1b972e1399016e53ad3e37b0656c55a3182eb663e0a68e30d10e523fd1e5fc20",
        "timeseries.csv": "a5e1ffede26982a9b49306756041a088c213287fce98f5857b2a9002fcf5e1bc",
        "lane_changes.csv": "de46334e387ea0de67add0875e3bb50af97f6e4d0e46a60bd9d5d11884fd4d17",
        "summary.csv": "702e27142c3ea54017a0e5d1ab0f38837ddb351e6da2e7e428e604c7f48ec9d9",
    },
    ("prp", 4): {
        "trips.csv": "6cde714410991e2d555bfc962e383b58f5e855fdd58ef618ca952e1614a89e89",
        "bus_arrivals.csv": "d303146ea712a6ff88aa61d794f3c1c034cfede5b3b73230da8f80d6bf0f7831",
        "timeseries.csv": "7acb87b55a5fa004778250ab68814d2e706531a6d35041f0b4c6dac8fe686ea5",
        "lane_changes.csv": "39424a3908062ce3e0d70db14ecbf00843e664284b57ad25b009e7562013ca22",
        "summary.csv": "3aa371202d062dc71b39708a6f0838ce9256a25ce533169eb09c86723311f2ab",
    },
    ("prp", 5): {
        "trips.csv": "e327f22984d502491a0a006a3b5b48028432a025f6fe936ed6a529bfd3adc74b",
        "bus_arrivals.csv": "e8da84b5a6b1123c9eb8a08b6280b56f09fbd82e11b48a030b10c32850ea8899",
        "timeseries.csv": "e8275cbca2cd8d875472e9ff5c2687192198007101c0411555b4458db228f78a",
        "lane_changes.csv": "f123b97bf4b92ec8b31394e3660956b7fc78e0fcb050b5875bbb89ece0653e08",
        "summary.csv": "0e18388822d1dcd00ca6b4c8c26a003429bf44ae57a606d068df9c32c42ad380",
    },
    ("proposed", 1): {
        "trips.csv": "0d3f57c06340bad8937a95f7307adda1886e53163b6a5d83db1a186291de9ea0",
        "bus_arrivals.csv": "0859a1fbd453daea1560b2b03b074d3a6397210742f4b6108e865713f00683bd",
        "timeseries.csv": "2dc5a8addca81a859be3439625fdfeb9644ef75b826a41c3a492c6c4499bddcd",
        "lane_changes.csv": "5e38502c87e650a4a8ddbeb7e6fa8554191f5441ecc4e8aa7e263270405ca16c",
        "summary.csv": "865c7b84c75956e3413e4202c464dd0300db13b5102ca108083ec7e543cc2c54",
    },
    ("proposed", 2): {
        "trips.csv": "cea97ade7a507281b3c357b04dc417c9459fc99def641770830b93062d1c52e8",
        "bus_arrivals.csv": "5e6d1ab9ea0d6ae9eda427bb723ee30b54afc636de144ff2f50fa911e60b490e",
        "timeseries.csv": "2f457d589ca5d40ac9dd8ff627e5d034060883060cf34eed9558c26e57b50c63",
        "lane_changes.csv": "0c2501961ec636c4a9ea26810f5d681fe6df01e01ec6f2f83200c2c28648d585",
        "summary.csv": "2770a4a54643c6576c36903cc6e600f83ea60b9fc7b458ac7fa500ae1320d470",
    },
    ("proposed", 3): {
        "trips.csv": "cda2f5f7f49a71788179e52b9ae836ae1c21c9b26ce3db6301453e861280952b",
        "bus_arrivals.csv": "6a3f528ecbfc4d5baf96c4ec12d76710dd97c277f911eea13800425a65b25a30",
        "timeseries.csv": "1d4245b56184927eed8fb5be52739984376e05ed2373922bcab50520639d8a24",
        "lane_changes.csv": "7896310b9c0d249c71578e03a7b8803da8baaaaee2ac7ab6fab6996a3375b87d",
        "summary.csv": "ce2fa4ef64bd9e13d3d6cf9638e3af7f517fdc339f4e2bae5532008e8b9b491e",
    },
    ("proposed", 4): {
        "trips.csv": "ad6e995a83e25d8ffac9dc5a55644aad54a400598716ec2c5f6b5f3834b7e6cd",
        "bus_arrivals.csv": "4f39d53cf17320d4e78ee01d3bc607007185fab1d81d4ffbdc293d83853fa322",
        "timeseries.csv": "08b15807ac7f5b1d2cdc2e90c8c1f3987f5b438753dfbc47d58325223d7a7926",
        "lane_changes.csv": "77bcfd381840001fcb2f92a2632023570cd0c81eb8a963f0fd1ea2762b271bab",
        "summary.csv": "c4aba8f744d1682623e80780c3ba09f45366df9624bff4ef25f631fd8a7b717b",
    },
    ("proposed", 5): {
        "trips.csv": "07ceeecc0b7c1f2b00d4d2d7ade992dbfd317526776b4aa5f9fd1a140cd23f18",
        "bus_arrivals.csv": "698e53c806cc1512a6c51f37be92b1904adfb681963985b5fca3bf74da7c2da5",
        "timeseries.csv": "21657955efa31534c20e2e5a96fa637cce2f563198d1a27abf61ba94252de324",
        "lane_changes.csv": "775aaa5f93102476d29215afc1a68c49bbaefa17d0862daff06b69425588fdaf",
        "summary.csv": "269a524cf35e6c342d82b3cf4d43ede0c1eb003e363717b64ef037744402a4d5",
    },
}
