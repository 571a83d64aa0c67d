"""Print SHA-256 digests of every report written by the byte-identity gate runs.

The gate is 18 runs, each a run name and its ``jointlane.cli`` arguments in
``GATE_RUNS``: desk_small seeds 1-5 under drp, prp and proposed and
desk_large proposed seed 1, each with the event, decision and prediction
logs on; desk_large proposed seed 1 jammed at a 600 s horizon, logs on too;
and a ``--sweep w3=0.2,1.6`` of desk_small seed 1, whose two values make
different decisions (126 and 97 lane changes). Every CSV under a run's
directory is hashed, nested ones included, so the output is 147 lines of
``sha256  run/file``, sorted by path. Diff the output of two checkouts to
show that a change left every report byte-identical:

    python tools/report_digests.py > after.txt
    python tools/report_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

``--check`` compares the digests with the committed
``tools/report_digests.sha256`` instead of printing them, names every report
whose digest differs, is missing or is new, and exits 1 if any does, so a
change can show byte identity without a checkout of its parent:

    python tools/report_digests.py --check

That file is the one store of the report digests the tests read. A change
that alters outputs on purpose refreshes everything tier-1 reads with one
command, and then the benchmark's own reference outputs:

    python tools/report_digests.py > tools/report_digests.sha256
    python3 benchmark/refresh_reference.py

``--kpis`` prints the paper's KPIs instead, one row per run of the gate
(one per value for the sweep), read from the ``summary.csv`` each run
writes: the mean on-time rate over the stops, the CAV, HDV and bus mean
travel times over finished trips, the lane changes by reason, the arrivals
left unserved and the vehicles still active at the cutoff. Diff the table of
two checkouts to compare their readings of the paper's claims:

    python tools/report_digests.py --kpis

``--src`` names the ``src`` directory whose ``jointlane`` package runs
(default: the one beside this script). Runs go one at a time, each as a
``python -m jointlane.cli`` subprocess, into a temporary directory that is
removed afterwards. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SMALL_SEEDS = range(1, 6)
SMALL_STRATEGIES = ("drp", "prp", "proposed")
LOGS = ("--log-events", "--log-decisions", "--log-predictions")
COMMITTED = Path(__file__).resolve().with_suffix(".sha256")


def _logged(scenario: str, strategy: str, seed: int, *extra: str) -> tuple[str, ...]:
    """Arguments of one run with every log on."""
    return ("--scenario", scenario, "--strategy", strategy, "--seed", str(seed),
            *extra, *LOGS)


#: run name -> its ``jointlane.cli`` arguments, ``--out`` aside
GATE_RUNS: dict[str, tuple[str, ...]] = {
    **{
        f"desk_small_{strategy}_seed{seed}": _logged("desk_small", strategy, seed)
        for strategy in SMALL_STRATEGIES
        for seed in SMALL_SEEDS
    },
    "desk_large_proposed_seed1": _logged("desk_large", "proposed", 1),
    # an oversaturated corridor with jammed queues and a pending backlog
    # (98 arrivals end unserved)
    "desk_large_proposed_seed1_horizon600": _logged(
        "desk_large", "proposed", 1, "--horizon", "600"),
    # the combined summary, then each value's five standard reports in its
    # own directory; at seed 1 w3 = 0.4 writes the same reports as 0.2 but
    # for the w3 cell, and 1.6 changes all five
    "desk_small_proposed_seed1_sweep_w3": (
        "--scenario", "desk_small", "--sweep", "w3=0.2,1.6", "--seed", "1"),
}


def hash_reports(out: Path) -> dict[str, str]:
    """Path under `out` -> SHA-256 of every CSV below `out`, nested ones too."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }


def run_digests(src: Path, name: str, out: Path) -> dict[str, str]:
    """Run gate run `name` into `out` and return ``run/file`` -> digest."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-m", "jointlane.cli", *GATE_RUNS[name], "--out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return {f"{name}/{path}": digest for path, digest in hash_reports(out).items()}


#: KPI table heading -> the ``summary.csv`` column of a mean or a rate
KPI_MEANS = {
    "on_time_pct": "mean_on_time_pct",
    "cav_mean_s": "avg_travel_time_cav",
    "hdv_mean_s": "avg_travel_time_hdv",
    "bus_mean_s": "avg_travel_time_bus",
}
#: KPI table heading -> the ``summary.csv`` columns of the counts it sums
KPI_COUNTS = {
    **{f"lc_{reason}": (f"lane_changes_{reason}",)
       for reason in ("utility", "myopic", "protect", "align")},
    "unserved": ("unserved",),
    "active_end": ("active_end_cav", "active_end_hdv", "active_end_bus"),
}


def kpi_rows(name: str, out: Path) -> list[list[str]]:
    """The KPI rows of gate run `name`, from the ``summary.csv`` it wrote
    into `out`: the run's name, each ``KPI_MEANS`` cell rounded to two
    decimals (empty where no trip finished or no stop was served), then each
    ``KPI_COUNTS`` sum. A sweep's combined summary gives one row per value,
    named with it."""
    with open(out / "summary.csv", newline="", encoding="utf-8") as f:
        summaries = list(csv.DictReader(f))
    rows = []
    for summary in summaries:
        label = name
        if "sweep_key" in summary:
            label += f" {summary['sweep_key']}={float(summary['sweep_value']):g}"
        means = (summary[column] for column in KPI_MEANS.values())
        counts = (sum(int(summary[c]) for c in columns) for columns in KPI_COUNTS.values())
        rows.append([
            label,
            *(f"{float(cell):.2f}" if cell else "" for cell in means),
            *(str(n) for n in counts),
        ])
    return rows


def format_kpis(rows: list[list[str]]) -> str:
    """The KPI rows as a table with a heading line, each column as wide as
    its widest cell, the run names left-aligned and the figures right."""
    table = [["run", *KPI_MEANS, *KPI_COUNTS], *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(
            cell.ljust(width) if i == 0 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        ).rstrip()
        for row in table
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="src directory holding the jointlane package to run",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help=f"compare with {COMMITTED.name} and exit 1 if any report differs",
    )
    mode.add_argument(
        "--kpis", action="store_true",
        help="print the paper's KPIs, one row per gate run, instead of the digests",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    digests: dict[str, str] = {}
    kpis: list[list[str]] = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in GATE_RUNS:
            out = Path(tmp) / name
            digests |= run_digests(src, name, out)
            kpis += kpi_rows(name, out)
    if args.kpis:
        print(format_kpis(kpis))
        return 0
    if args.check:
        return check(digests, COMMITTED)
    for path, digest in sorted(digests.items()):
        print(f"{digest}  {path}")
    return 0


def read_digests(listing: Path) -> dict[str, str]:
    """Path -> digest from a ``sha256  path`` listing such as this tool prints."""
    lines = listing.read_text(encoding="utf-8").splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def check(digests: dict[str, str], committed: Path) -> int:
    """Compare report digests with a committed ``sha256  path`` listing."""
    expected = read_digests(committed)
    differ = sorted(
        path for path in expected.keys() | digests.keys()
        if expected.get(path) != digests.get(path)
    )
    for path in differ:
        print(f"differs: {path}")
    print(f"{len(differ)} of {len(expected | digests)} reports differ from {committed.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
