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
from .metrics import write_summaries
from .network import NetworkError
from .prediction import PredictionError
from .routing import RoutingError
from .scenario import BUNDLED_SCENARIOS, ScenarioError, resolve_scenario


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
                        help="override a control parameter (w1 w2 w3 lambda gamma T "
                             "theta dT_b dt dt_b dt_sim alpha beta); repeatable")
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
    run_kwargs = dict(
        strategy=args.strategy, seed=args.seed, horizon=args.horizon,
        log_events=args.log_events, log_decisions=args.log_decisions,
        log_predictions=args.log_predictions,
    )
    try:
        if args.sweep is None:
            result = runner.run(args.scenario, out_root, overrides=overrides, **run_kwargs)
            print(
                f"done: strategy={result.strategy} seed={result.seed} "
                f"t_wall={result.wall_time:.2f}s reports in {out_root}"
            )
            return 0
        key, _, value_text = args.sweep.partition("=")
        key = key.strip()
        try:
            values = [float(v) for v in value_text.split(",") if v.strip()]
        except ValueError:
            values = []
        if not values:
            print("jointlane: error: --sweep needs KEY=V1,V2,...", file=sys.stderr)
            return 1
        rows = []
        for value in values:
            out_dir = out_root / f"{key}_{value:g}"
            result = runner.run(
                args.scenario, out_dir, overrides={**overrides, key: value}, **run_kwargs
            )
            rows.append({**result.summary, "sweep_key": key, "sweep_value": value})
            print(f"sweep {key}={value:g}: done ({out_dir})")
        rows.sort(key=lambda r: r["sweep_value"])
        write_summaries(rows, out_root)
        print(f"sweep complete: {len(values)} runs, combined summary in {out_root}")
        return 0
    except ScenarioError as exc:
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
