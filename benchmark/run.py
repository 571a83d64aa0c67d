"""Run one jointlane benchmark workload and print its metrics.

    python3 benchmark/run.py --workload nominal --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics from spans recorded around each layer's public
functions. The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in its own process, one after the other.

The simulator is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_simulator() -> bool:
    """Import jointlane from this checkout's src/; False, with a message,
    when it is missing or an installed copy would be used instead."""
    if not (SRC / "jointlane" / "__init__.py").is_file():
        print(f"error: no jointlane sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import jointlane

    if SRC.resolve() not in Path(jointlane.__file__).resolve().parents:
        print(f"error: jointlane imported from {jointlane.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_simulator():
        return 2
    import harness

    if args.workload == "all":
        status = 0
        for name in harness.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status = subprocess.run(cmd, check=False).returncode or status
        return status
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)} or all")
    measure = harness.measure_traced if args.trace else harness.measure
    measure(workload, args.seed, args.seconds, OUT / workload.name).print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
