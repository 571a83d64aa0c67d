"""Rewrite reference.json: the report digests every workload must reproduce.

    python3 benchmark/refresh_reference.py

Runs each workload once for demand seeds 1..24 and stores the SHA-256 of its
reports per seed, next to the workload parameters they belong to. Run it only
in a change that alters the simulator's outputs on purpose, and say so in
that change; see README.md.
"""

from __future__ import annotations

import json
import sys

from run import OUT, import_simulator

REFERENCE_SEEDS = list(range(1, 25))


def main() -> int:
    if not import_simulator():
        return 2
    import harness

    reference = {}
    for workload in harness.WORKLOADS.values():
        records = harness.run_pass(workload, REFERENCE_SEEDS, OUT / "reference" / workload.name)
        failed = [r for r in records if r.error]
        if failed:
            print(f"{workload.name}: seed {failed[0].seed} failed: {failed[0].error}", file=sys.stderr)
            return 1
        reference[workload.name] = {
            "params": workload.params(),
            "digests": {str(r.seed): r.digest for r in records},
        }
        print(f"{workload.name}: {len(records)} seeds")
    harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
