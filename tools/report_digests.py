"""Print SHA-256 digests of every report written by the byte-identity gate runs.

The gate is 16 runs, each with the event, decision and prediction logs on:
desk_small seeds 1-5 under drp, prp and proposed, plus desk_large proposed
seed 1. Each run writes eight CSVs, so the output is 128 lines of
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

The tests read their desk_small digests from that file, so a change that
alters outputs on purpose refreshes it,

    python tools/report_digests.py > tools/report_digests.sha256

plus the digests no gate run writes: ``JAMMED_GOLDEN`` and the two w3 sweep
digests in ``tests/test_golden.py``, and ``benchmark/reference.json``.

``--src`` names the ``src`` directory whose ``jointlane`` package runs
(default: the one beside this script). Runs go one at a time, each as a
``python -m jointlane.cli`` subprocess, into a temporary directory that is
removed afterwards. Standard library only.
"""

from __future__ import annotations

import argparse
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


def gate_runs() -> list[tuple[str, str, int]]:
    """(scenario, strategy, seed) of every gate run."""
    runs = [
        ("desk_small", strategy, seed)
        for strategy in SMALL_STRATEGIES
        for seed in SMALL_SEEDS
    ]
    runs.append(("desk_large", "proposed", 1))
    return runs


def run_digests(
    src: Path, scenario: str, strategy: str, seed: int, out: Path
) -> list[tuple[str, str]]:
    """Run one gate run into `out` and return (path, digest) per report."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-m", "jointlane.cli", "--scenario", scenario,
         "--strategy", strategy, "--seed", str(seed), "--out", str(out), *LOGS],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return [
        (f"{out.name}/{path.name}", hashlib.sha256(path.read_bytes()).hexdigest())
        for path in sorted(out.glob("*.csv"))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="src directory holding the jointlane package to run",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare with {COMMITTED.name} and exit 1 if any report differs",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    rows: list[tuple[str, str]] = []
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, strategy, seed in gate_runs():
            out = Path(tmp) / f"{scenario}_{strategy}_seed{seed}"
            rows.extend(run_digests(src, scenario, strategy, seed, out))
    if args.check:
        return check(dict(rows), COMMITTED)
    for path, digest in sorted(rows):
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
