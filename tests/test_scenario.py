import json
import re

import pytest

from jointlane.scenario import ScenarioError, apply_overrides, from_dict, load_scenario


def minimal_scenario(**over):
    data = {
        "meta": {"name": "toy", "horizon": 100.0},
        "nodes": [1, 2],
        "edges": [
            {"id": 0, "from": 1, "to": 2, "length": 100.0,
             "free_flow_speed": 10.0, "dl": False, "capacity": 0.2}
        ],
        "demand": [],
    }
    data.update(over)
    return data


def test_minimal_scenario_loads():
    scn = from_dict(minimal_scenario())
    assert len(scn.model.segments(0)) == 4
    assert scn.clock.dt_control == 15.0
    assert scn.control.w3 == 0.4


def test_connections_synthesized_with_warning():
    scn = from_dict(minimal_scenario())
    assert any("synthesized" in w for w in scn.warnings)
    explicit = minimal_scenario(connections=[
        {"from_edge": 0, "from_lane": "left", "to_edge": 0}
    ])
    explicit["edges"].append(
        {"id": 1, "from": 2, "to": 1, "length": 50.0,
         "free_flow_speed": 5.0, "dl": False, "capacity": 0.2}
    )
    explicit["connections"] = [{"from_edge": 0, "from_lane": "left", "to_edge": 1}]
    scn = from_dict(explicit)
    assert scn.warnings == ()


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [1, 2,\n  "edges": }', encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"line \d+, column \d+"):
        load_scenario(path)


def test_missing_field_names_the_field():
    data = minimal_scenario()
    del data["edges"][0]["length"]
    with pytest.raises(ScenarioError, match="edges\\[0\\].*length"):
        from_dict(data)


def test_unknown_field_rejected():
    data = minimal_scenario()
    data["edges"][0]["lenght"] = 5
    with pytest.raises(ScenarioError, match="lenght"):
        from_dict(data)


def test_capacity_unit_conversion():
    data = minimal_scenario()
    data["edges"][0]["capacity"] = {"value": 720.0, "unit": "veh/h"}
    scn = from_dict(data)
    assert scn.model.edges[0].capacity == pytest.approx(0.2)
    data["edges"][0]["capacity"] = {"value": 0.2, "unit": "furlongs"}
    with pytest.raises(ScenarioError, match="unit"):
        from_dict(data)


def test_bus_stop_requires_dedicated_lane():
    data = minimal_scenario(bus_stops=[{"id": 0, "edge": 0, "offset": 50.0}])
    with pytest.raises(ScenarioError, match="dedicated lane"):
        from_dict(data)


def test_bus_line_rejects_general_purpose_edge():
    data = {
        "meta": {"horizon": 100.0},
        "nodes": [1, 2, 3],
        "edges": [
            {"id": 0, "from": 1, "to": 2, "length": 100.0,
             "free_flow_speed": 10.0, "dl": True, "capacity": 0.2},
            {"id": 1, "from": 2, "to": 3, "length": 100.0,
             "free_flow_speed": 10.0, "dl": False, "capacity": 0.2},
        ],
        "bus_lines": [{"id": 0, "route": [1, 2, 3], "departures": [0.0]}],
        "demand": [],
    }
    with pytest.raises(ScenarioError, match="not a dedicated lane"):
        from_dict(data)


def test_demand_unroutable_od_rejected():
    data = minimal_scenario()
    data["nodes"] = [1, 2, 3]
    data["demand"] = [{"origin": 2, "destination": 3, "class": "cav", "rate": 0.1}]
    with pytest.raises(ScenarioError, match="no cav route"):
        from_dict(data)


def test_demand_needs_rate_xor_times():
    data = minimal_scenario()
    data["demand"] = [{"origin": 1, "destination": 2, "class": "cav"}]
    with pytest.raises(ScenarioError, match="rate or times"):
        from_dict(data)
    data["demand"] = [{"origin": 1, "destination": 2, "class": "cav",
                       "rate": 0.1, "times": [1.0]}]
    with pytest.raises(ScenarioError, match="rate or times"):
        from_dict(data)


def test_demand_rate_must_be_non_negative():
    data = minimal_scenario()
    data["demand"] = [{"origin": 1, "destination": 2, "class": "cav", "rate": -0.1}]
    with pytest.raises(ScenarioError, match=r"^demand\[0\]: demand rate must be >= 0$"):
        from_dict(data)


def test_demand_class_validation():
    data = minimal_scenario()
    data["demand"] = [{"origin": 1, "destination": 2, "class": "bus", "rate": 0.1}]
    with pytest.raises(ScenarioError, match="cav or hdv"):
        from_dict(data)


def test_protection_horizon_must_cover_monitor_step():
    data = minimal_scenario(control={"dT_b": 5.0})
    with pytest.raises(ScenarioError, match="dT_b"):
        from_dict(data)


def test_empty_control_takes_the_params_defaults():
    from jointlane.control import ControlParams
    from jointlane.engine import EngineClock
    from jointlane.prediction import BprParams, ProtectionHorizon

    scn = from_dict(minimal_scenario(control={}))
    assert scn.control == ControlParams()
    assert scn.bpr == BprParams()
    assert scn.protection == ProtectionHorizon()
    assert scn.clock == EngineClock()


def test_loading_is_idempotent(desk_small_path):
    a = load_scenario(desk_small_path)
    b = load_scenario(desk_small_path)
    assert a == b
    assert a.model == b.model


def test_apply_overrides_returns_updated_copy(desk_small):
    scn = apply_overrides(desk_small, {"w3": 0.6, "lambda": 0.1})
    assert scn.control.w3 == 0.6
    assert scn.control.bus_tolerance == 0.1
    assert desk_small.control.w3 == 0.4  # original untouched
    assert scn.model is desk_small.model
    with pytest.raises(ScenarioError, match="override"):
        apply_overrides(desk_small, {"w9": 1.0})


@pytest.mark.parametrize("preset", ["small", "large"])
def test_bundled_fixture_matches_builder(preset):
    import desk_fixtures
    from jointlane.scenario import resolve_scenario

    path = resolve_scenario(f"desk_{preset}")
    assert json.loads(path.read_text(encoding="utf-8")) == desk_fixtures.build(preset)


def test_bundled_large_scenario_loads():
    from jointlane.scenario import load_scenario, resolve_scenario

    scn = load_scenario(resolve_scenario("desk_large"))
    assert scn.meta["horizon"] == 3600.0
    assert len(scn.bus_lines[0].departures) == 10


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_meta_horizon_is_a_scenario_error(tmp_path, value):
    # loaded only: an infinite horizon would never finish a run
    path = tmp_path / "horizon.json"
    path.write_text(json.dumps(minimal_scenario(meta={"horizon": value})), encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    assert "Infinity" in text or "NaN" in text  # JSON extensions json.loads accepts
    with pytest.raises(ScenarioError, match="meta.horizon"):
        load_scenario(path)


@pytest.mark.parametrize("field, corrupt", [
    ("edges[0].length", lambda d: d["edges"][0].update(length=float("inf"))),
    ("control.w1", lambda d: d.update(control={"w1": float("nan")})),
])
def test_non_finite_numbers_are_scenario_errors(tmp_path, field, corrupt):
    data = minimal_scenario()
    corrupt(data)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    assert "Infinity" in text or "NaN" in text  # JSON extensions json.loads accepts
    with pytest.raises(ScenarioError, match=rf"^{re.escape(field)}: expected a finite number"):
        load_scenario(path)


def _bus_scenario(line_id):
    data = minimal_scenario(bus_lines=[{"id": line_id, "route": [1, 2], "departures": [0.0]}])
    data["edges"][0]["dl"] = True
    return data


def test_bus_line_field_error_has_one_prefix():
    from_dict(_bus_scenario(3))
    with pytest.raises(ScenarioError) as err:
        from_dict(_bus_scenario("x"))
    assert str(err.value) == "bus_lines[0].id: expected an integer, got 'x'"


@pytest.mark.parametrize("field, value, message", [
    ("length", 0.0, "length must be > 0"),
    ("free_flow_speed", -1.0, "free_flow_speed must be > 0"),
    ("capacity", 0.0, "capacity must be > 0"),
    ("capacity", 1e-308, "capacity must be >= 1e-06 veh/s"),
    ("jam_count", 0, "jam_count must be >= 1"),
])
def test_edge_range_errors_name_the_edge(field, value, message):
    data = minimal_scenario()
    data["edges"][0][field] = value
    with pytest.raises(ScenarioError) as err:
        from_dict(data)
    assert str(err.value) == f"edges[0]: edge 0: {message}"


def test_parameter_errors_are_scenario_errors_with_one_prefix():
    with pytest.raises(ScenarioError) as err:
        from_dict(minimal_scenario(control={"dt": 15.5}))
    assert str(err.value) == "control: dt_control must be a positive integer multiple of dt_sim"
    with pytest.raises(ScenarioError) as err:
        from_dict(minimal_scenario(control={"alpha": -1.0}))
    assert str(err.value) == "control: alpha and beta must be positive and finite"
    with pytest.raises(ScenarioError) as err:
        from_dict(minimal_scenario(control={"w1": -1.0}))
    assert str(err.value) == "control: weights must be >= 0"


def _broken(**kwargs):
    raise ZeroDivisionError("a fault in the program, not in the scenario")


def test_program_faults_are_not_scenario_errors(monkeypatch):
    import jointlane.scenario as scenario

    with monkeypatch.context() as patch:
        patch.setattr(scenario, "BusLineSpec", _broken)
        with pytest.raises(ZeroDivisionError):
            from_dict(_bus_scenario(3))
    with monkeypatch.context() as patch:
        patch.setitem(scenario._PARAM_TYPES, "bpr", _broken)
        with pytest.raises(ZeroDivisionError):
            from_dict(minimal_scenario())
