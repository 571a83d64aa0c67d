"""A derandomized fuzz of the CLI's exit-code contract.

Each case calls `cli.main` in-process on a bundled scenario with one to three
fields mutated, or on `--set` overrides, at a short horizon. Whatever the
input, the CLI must end with an exit code in {0, 1, 2, 3} (0 done, 1 usage,
2 validation, 3 invariant); a failure writes exactly one line to stderr and
never a traceback. The cases come from fixed seeds, so a failing case is the
same on every run and its description names the mutated fields. A case that
runs longer than `CASE_SECONDS` fails the test rather than stalling the suite.
"""

from __future__ import annotations

import copy
import json
import math
import random
import signal
import traceback

import pytest

from jointlane import cli
from jointlane.scenario import resolve_scenario

CASE_SECONDS = 5
HORIZON = "60"
STRATEGIES = ("drp", "prp", "proposed")

#: replacement values for a number, given the number x it replaces
NUMBERS = (
    lambda x: -1, lambda x: 0, lambda x: 1e308, lambda x: 1e-308, lambda x: x * 1e6,
    lambda x: -x, lambda x: x + 0.5, lambda x: 2 ** 63, lambda x: math.nan,
    lambda x: math.inf,
)
#: replacement values for anything else
OTHERS = (None, "x", [], {}, True, -1, 1e308, [1, 2])
#: optional fields a case may add: (section, field, values)
OPTIONAL = (
    ("edges", "jam_count", (0, 1, 2 ** 40, 1.5)),
    ("edges", "gate", ({"cycle": 60.0, "green": 30.0}, {"cycle": 0.0, "green": 0.0}, [])),
    ("demand", "seed", (-1, 0, 2 ** 70, "x")),
    ("demand", "times", ([10.0, 5.0], [-1.0], [math.inf], [])),
)
#: override values tried on the scenario's control keys
OVERRIDES = ("-1", "0", "1e-308", "1e308", "1e-12", "0.5", "2000", "nan", "inf", "1e-200")


def _leaves(node, path=()):
    """Every path below `node`, containers included, in document order."""
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))


def _mutate(data: dict, rng: random.Random) -> list[str]:
    """Change one to three fields of `data` in place; describe each change."""
    changes = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        if rng.random() < 0.15:
            section, name, values = rng.choice(OPTIONAL)
            i = rng.randrange(len(data[section]))
            value = copy.deepcopy(rng.choice(values))
            data[section][i][name] = value
            changes.append(f"{section}[{i}].{name} = {value!r}")
            continue
        section = rng.choice(sorted(data))
        path = rng.choice(list(_leaves(data[section], (section,))) or [(section,)])
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        if isinstance(old, (int, float)) and not isinstance(old, bool):
            value = rng.choice(NUMBERS)(old)
        elif isinstance(old, list) and old and rng.random() < 0.5:
            value = rng.choice((old[:-1], old + old[-1:], []))
        else:
            value = copy.deepcopy(rng.choice(OTHERS))
        parent[path[-1]] = value
        shown = value if not isinstance(value, list) or len(value) < 3 else f"<{len(value)} items>"
        changes.append(f"{'.'.join(map(str, path))} = {shown!r}")
    return changes


class _Stalled(Exception):
    pass


def _stalled(signum, frame):
    raise _Stalled


def _run(argv: list[str], capsys) -> tuple[object, str]:
    """cli.main's exit code and stderr, or 'raised' with the traceback
    appended, or 'stalled' past `CASE_SECONDS`."""
    capsys.readouterr()
    previous = signal.signal(signal.SIGALRM, _stalled)
    signal.alarm(CASE_SECONDS)
    try:
        code = cli.main(argv)
    except _Stalled:
        return "stalled", capsys.readouterr().err
    except Exception:
        return "raised", capsys.readouterr().err + traceback.format_exc()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, capsys.readouterr().err


def _broken(code, err: str) -> bool:
    lines = err.splitlines()
    if code not in (0, 1, 2, 3) or "Traceback" in err:
        return True
    if code == 0:
        return err != ""
    return len(lines) != 1 or not lines[0].startswith("jointlane: ")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM to bound each case")
@pytest.mark.parametrize("name, seed, cases", [("desk_small", 0, 300), ("desk_large", 1, 100)])
def test_mutated_scenarios_keep_the_exit_code_contract(name, seed, cases, tmp_path, capsys):
    base = json.loads(resolve_scenario(name).read_text(encoding="utf-8"))
    rng = random.Random(seed)
    path = tmp_path / "case.json"
    failures = []
    codes = set()
    for case in range(cases):
        data = copy.deepcopy(base)
        changes = _mutate(data, rng)
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["--scenario", str(path), "--strategy", rng.choice(STRATEGIES),
                "--horizon", HORIZON, "--out", str(tmp_path / f"out{case}")]
        code, err = _run(argv, capsys)
        codes.add(code)
        if _broken(code, err):
            failures.append(f"case {case}: {'; '.join(changes)} -> {code}: {err}")
    assert not failures, "\n".join(failures)
    # the mutations reach both the validation and whole runs
    assert {0, 2} <= codes


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM to bound each case")
def test_control_overrides_keep_the_exit_code_contract(tmp_path, capsys):
    keys = sorted(json.loads(resolve_scenario("desk_small").read_text(encoding="utf-8"))["control"])
    rng = random.Random(2)
    cases = [[(key, value)] for key in keys for value in OVERRIDES]
    cases += [[(rng.choice(keys), rng.choice(OVERRIDES)) for _ in range(2)] for _ in range(40)]
    failures = []
    codes = set()
    for case, sets in enumerate(cases):
        argv = ["--scenario", "desk_small", "--strategy", rng.choice(STRATEGIES),
                "--horizon", HORIZON, "--out", str(tmp_path / f"out{case}")]
        for key, value in sets:
            argv += ["--set", f"{key}={value}"]
        code, err = _run(argv, capsys)
        codes.add(code)
        if _broken(code, err):
            failures.append(f"case {case}: {sets} -> {code}: {err}")
    assert not failures, "\n".join(failures)
    assert {0, 2} <= codes


def _edit(section, i, field, value):
    def edit(data):
        data[section][i][field] = value
    return edit


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM to bound each case")
@pytest.mark.parametrize("edit, sets, message", [
    # each of these once ended in a traceback, ran without end or exhausted memory
    (_edit("edges", 1, "capacity", 1e-308), [],
     "edges[1]: edge 1: capacity must be >= 1e-06 veh/s"),
    (_edit("demand", 1, "rate", 1e12), [],
     "demand[1]: rate 1e+12 veh/s over a 60 s horizon expects more than 1,000,000 arrivals"),
    (_edit("edges", 8, "length", 1e12), [],
     "edges[8]: edge 8: jam_count 66666666667 (given, or the half-edge length / 7.5 m) "
     "must be <= 10000"),
    (_edit("demand", 3, "seed", -1), [], "demand[3]: demand seed must be >= 0"),
    (None, ["dt_sim=1e-308"],
     "control: dt_control / dt_sim = inf is not a finite number of steps"),
    (None, ["dt=1e-308"], "control: dt_control must be a positive integer multiple of dt_sim"),
    (None, ["dt_b=1e-12"], "control: dt_bus must be a positive integer multiple of dt_sim"),
], ids=["capacity", "rate", "length", "seed", "dt_sim", "dt", "dt_b"])
def test_inputs_the_fuzz_found_are_scenario_errors(edit, sets, message, tmp_path, capsys):
    scenario = "desk_small"
    if edit is not None:
        data = json.loads(resolve_scenario("desk_small").read_text(encoding="utf-8"))
        edit(data)
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
    argv = ["--scenario", str(scenario), "--horizon", HORIZON, "--out", str(tmp_path / "out")]
    for item in sets:
        argv += ["--set", item]
    assert _run(argv, capsys) == (2, f"jointlane: scenario error: {message}\n")
    assert not (tmp_path / "out").exists()
