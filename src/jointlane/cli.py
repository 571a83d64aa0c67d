"""Command-line harness: run a scenario under a strategy, or sweep a parameter.

Exit codes: 0 success, 1 usage error, 2 scenario/validation error, 3 runtime
invariant failure. The default output directory can be set through the
JOINTLANE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import runner
from .control import STRATEGIES, ControlError
from .engine import EngineError
from .network import NetworkError
from .prediction import BprRangeError, PredictionError
from .routing import RoutingError
from .scenario import (
    BUNDLED_SCENARIOS, CONTROL_KEYS, ScenarioError, load_scenario, resolve_scenario,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="jointlane",
        description="Mesoscopic corridor simulator with bus-priority lane coordination",
    )
    parser.add_argument(
        "--scenario", required=True,
        help=f"scenario file path, or a bundled name: {', '.join(BUNDLED_SCENARIOS)}",
    )
    parser.add_argument("--strategy", choices=STRATEGIES, default="proposed")
    parser.add_argument("--seed", type=_seed, default=1, help="demand seed, >= 0")
    parser.add_argument("--horizon", type=_positive_seconds, default=None,
                        help="injection horizon in seconds, > 0 and finite "
                             "(default: scenario meta)")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $JOINTLANE_OUT or ./out)")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE",
                        help=f"override a control parameter ({' '.join(CONTROL_KEYS)}); "
                             "repeatable")
    parser.add_argument("--sweep", default=None, metavar="KEY=V1,V2,...",
                        help="run once per value of one parameter, shared seed")
    parser.add_argument("--log-events", action="store_true")
    parser.add_argument("--log-decisions", action="store_true")
    parser.add_argument("--log-predictions", action="store_true")
    return parser


def _parse_kv(text: str) -> tuple[str, float]:
    key, sep, value = text.partition("=")
    try:
        if not sep:
            raise ValueError
        return key.strip(), float(value)
    except ValueError:
        print(f"jointlane: error: {text!r} is not KEY=NUMBER", file=sys.stderr)
        raise SystemExit(1) from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = dict(_parse_kv(item) for item in args.sets)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    out_root = Path(args.out or os.environ.get("JOINTLANE_OUT", "out"))
    # (output directory, sweep value) per run; a plain run has no sweep value
    runs: list[tuple[Path, float | None]] = [(out_root, None)]
    if args.sweep is not None:
        key, _, value_text = args.sweep.partition("=")
        key = key.strip()
        try:
            values = [float(v) for v in value_text.split(",") if v.strip()]
        except ValueError:
            values = []
        if not values:
            print("jointlane: error: --sweep needs KEY=V1,V2,...", file=sys.stderr)
            return 1
        run_dirs: dict[str, float] = {}
        for value in values:
            name = f"{key}_{value:g}"
            if name in run_dirs:
                print(f"jointlane: error: --sweep values {run_dirs[name]!r} and {value!r} "
                      f"share the run directory {name}", file=sys.stderr)
                return 1
            run_dirs[name] = value
        runs = [(out_root / name, value) for name, value in run_dirs.items()]
    try:
        scenario = load_scenario(resolve_scenario(args.scenario))
        for warning in scenario.warnings:
            print(f"jointlane: warning: {warning}", file=sys.stderr)
        rows = []
        for out_dir, value in runs:
            result = runner.simulate(
                scenario, strategy=args.strategy, seed=args.seed, horizon=args.horizon,
                overrides=overrides if value is None else {**overrides, key: value},
                log_events=args.log_events, log_predictions=args.log_predictions,
            )
            runner.write_run_reports(result, out_dir)
            if args.log_decisions:
                runner.write_decision_log(result, out_dir)
            if args.log_predictions:
                runner.write_prediction_log(result, out_dir)
            if value is None:
                print(
                    f"done: strategy={result.strategy} seed={result.seed} "
                    f"t_wall={result.wall_time:.2f}s reports in {out_root}"
                )
            else:
                rows.append({**result.summary, "sweep_key": key, "sweep_value": value})
                print(f"sweep {key}={value:g}: done ({out_dir})")
        if rows:
            rows.sort(key=lambda r: r["sweep_value"])
            runner.write_summaries(rows, out_root)
            print(f"sweep complete: {len(rows)} runs, combined summary in {out_root}")
        return 0
    except (ScenarioError, BprRangeError) as exc:
        print(f"jointlane: scenario error: {exc}", file=sys.stderr)
        return 2
    except (NetworkError, ControlError) as exc:
        print(f"jointlane: validation error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, PredictionError, RoutingError) as exc:
        print(f"jointlane: runtime invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the output directory cannot be made or written
        print(f"jointlane: error: cannot write reports: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
