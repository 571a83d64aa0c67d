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
from jointlane.scenario import CONTROL_KEYS
from conftest import STANDARD_REPORTS, committed_digests
from slow_path import entry_indicator

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
    from slow_path import bus_overlap_indicator

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
    run. A change that alters any of them must refresh the committed digests
    on purpose."""
    digests = {}
    for (strategy, seed), run in matrix.items():
        out = tmp_path / f"{strategy}_{seed}"
        write_run_reports(run, out)
        digests[(strategy, seed)] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in MATRIX_DIGESTS[(strategy, seed)]
        }
    assert digests == MATRIX_DIGESTS


def test_lane_change_reasons_per_strategy(matrix):
    """Seed 1's lane-change tags: drp and prp hop myopically, proposed changes
    by utility; prp and proposed force protective exits; the plant aligns
    vehicles under every strategy."""
    expected = {
        "drp": {"myopic", "align"},
        "prp": {"myopic", "align", "protect"},
        "proposed": {"utility", "protect", "align"},
    }
    reasons = {
        strategy: {event[6] for event in matrix[(strategy, 1)].world.lane_changes}
        for strategy in STRATEGIES
    }
    assert reasons == expected


def test_summary_parameter_columns_follow_control_keys(matrix, w3_sweep):
    for run in matrix.values():
        assert list(run.summary)[4:17] == list(CONTROL_KEYS)
    assert matrix[("proposed", 1)].summary["w3"] == 0.4
    assert all(run.summary["w3"] == 0.2 for run in w3_sweep[0.2])


#: SHA-256 of the standard reports, per (strategy, seed) of the matrix, from
#: the gate runs' committed digests
MATRIX_DIGESTS = {
    (strategy, seed): committed_digests(f"desk_small_{strategy}_seed{seed}", STANDARD_REPORTS)
    for strategy in STRATEGIES
    for seed in SEEDS
}
