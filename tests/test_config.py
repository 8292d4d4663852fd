"""Config parsing into the library's types, file loading, overrides, scenario assembly."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import yaml

from safehold.acc_benchmark import (
    X0_FAR,
    X0_NEAR,
    AccParams,
    acc_filter,
    approach_region,
    certified_tuning,
    ride_region,
)
from safehold.cbf_core import ClassKappa
from safehold.config import (
    apply_overrides,
    load_config,
    parse_config,
    scenario_from_config,
)
from safehold.constants import BoundSet, OperatingRegion
from safehold.errors import ConfigurationError
from safehold.safety_filter import CbfQpFilter, TunableControllerConfig, tunable_control
from safehold.simulator import HoldSchedule, IntegratorConfig


def _doc() -> dict:
    return {
        "scenario": {"name": "acc-approach", "controller": "plain"},
        "sim": {"mode": "periodic", "horizon": 6.0, "period": 0.5},
    }


class TestParse:
    def test_minimal_document_defaults(self):
        cfg = parse_config(_doc())
        assert cfg.scenario_name == "acc-approach"
        assert cfg.controller == "plain"
        # the preset fills in the start state and the certification box
        assert cfg.x0 == X0_FAR and cfg.region == approach_region()
        assert cfg.bounds is None
        assert cfg.schedule == HoldSchedule.periodic(0.5)
        assert cfg.integrator == IntegratorConfig(horizon=6.0, substep=1e-3)
        assert cfg.alpha == ClassKappa(1.0) and cfg.region.safety_factor == 1.1
        assert cfg.tuning.c == 9.18  # thin-band defaults
        assert cfg.trace_path is None and cfg.summary_path is None

    def test_ride_preset_defaults_to_the_certified_tuning(self):
        doc = _doc()
        doc["scenario"]["name"] = "acc-ride"
        assert parse_config(doc).tuning == certified_tuning()

    def test_default_sharpness_follows_the_configured_band(self):
        doc = _doc()
        doc["tuning"] = {"band": 20.0}
        assert parse_config(doc).tuning.sharpness == 200.0 / 20.0

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            parse_config([1, 2])

    def test_unknown_top_level_key(self):
        doc = _doc()
        doc["extra"] = {}
        with pytest.raises(ConfigurationError, match="unknown key: extra"):
            parse_config(doc)

    def test_unknown_nested_key_reports_dotted_path(self):
        doc = _doc()
        doc["tuning"] = {"foo": 1.0}
        with pytest.raises(ConfigurationError, match="unknown key: tuning.foo"):
            parse_config(doc)

    def test_missing_sections_and_keys(self):
        with pytest.raises(ConfigurationError, match="missing required key: sim"):
            parse_config({"scenario": {"name": "acc-approach", "controller": "plain"}})
        doc = _doc()
        del doc["scenario"]["name"]
        with pytest.raises(ConfigurationError, match="missing required key: scenario.name"):
            parse_config(doc)

    def test_periodic_mode_requires_period(self):
        doc = _doc()
        del doc["sim"]["period"]
        with pytest.raises(
            ConfigurationError, match="sim.period must be finite and > 0 in periodic mode"
        ):
            parse_config(doc)

    def test_period_outside_periodic_mode_rejected(self):
        doc = _doc()
        doc["sim"]["mode"] = "event"
        with pytest.raises(ConfigurationError, match="sim.period"):
            parse_config(doc)

    def test_numeric_strings_accepted(self):
        doc = _doc()
        doc["sim"]["substep"] = "1e-3"  # the YAML 1.1 scalar quirk
        assert parse_config(doc).integrator.substep == 1e-3

    def test_boolean_is_not_a_number(self):
        doc = _doc()
        doc["sim"]["substep"] = True
        with pytest.raises(ConfigurationError, match="sim.substep"):
            parse_config(doc)

    def test_nonpositive_tuning_names_the_key(self):
        doc = _doc()
        doc["tuning"] = {"epsilon": -1.0}
        with pytest.raises(ConfigurationError, match="tuning.epsilon must be > 0"):
            parse_config(doc)

    def test_nonpositive_alpha_slope_rejected(self):
        doc = _doc()
        doc["tuning"] = {"alpha_slope": 0.0}
        with pytest.raises(ConfigurationError, match="tuning.alpha_slope"):
            parse_config(doc)

    def test_invalid_scenario_name_lists_choices(self):
        doc = _doc()
        doc["scenario"]["name"] = "acc-downhill"
        with pytest.raises(ConfigurationError, match="scenario.name"):
            parse_config(doc)

    def test_half_specified_region_box_rejected(self):
        doc = _doc()
        doc["region"] = {"lower": [0, 0, 0]}
        with pytest.raises(ConfigurationError, match="missing required key: region.upper"):
            parse_config(doc)

    def test_region_safety_factor_alone_is_allowed(self):
        doc = _doc()
        doc["region"] = {"safety_factor": 1.25}
        cfg = parse_config(doc)
        assert cfg.region == dataclasses.replace(approach_region(), safety_factor=1.25)

    def test_region_sampling_keys_apply_to_the_preset_box(self):
        doc = _doc()
        doc["scenario"]["name"] = "acc-ride"
        doc["region"] = {"seed": 3}
        assert parse_config(doc).region == dataclasses.replace(ride_region(), seed=3)

    def test_bounds_section_requires_every_bound(self):
        doc = _doc()
        doc["bounds"] = {"b_f": 1.0}
        with pytest.raises(ConfigurationError, match="missing required key: bounds.b_g"):
            parse_config(doc)

    def test_plant_overrides_are_validated(self):
        doc = _doc()
        doc["scenario"]["plant"] = {"mass": -5.0}
        with pytest.raises(ConfigurationError, match="scenario.plant"):
            parse_config(doc)
        doc["scenario"]["plant"] = {"color": "red"}
        with pytest.raises(ConfigurationError, match="unknown key: scenario.plant.color"):
            parse_config(doc)


def _rich_doc() -> dict:
    return {
        "scenario": {
            "name": "acc-ride",
            "controller": "boosted",
            "x0": [0.0, 18.0, 700.0],
            "plant": {"mass": 1500.0},
        },
        "tuning": {
            "c": 3.0, "delta": 1.0, "band": 10.0, "epsilon": 1.5e-4,
            "sharpness": 20.0, "margin": 2.0, "alpha_slope": 1.0,
        },
        "sim": {"mode": "event", "horizon": 12.0, "substep": 1e-3, "floor": 0.01},
        "region": {
            "lower": [0.0, 16.5, 590.0], "upper": [500.0, 20.5, 740.0],
            "seed": 7, "safety_factor": 1.2,
        },
        "bounds": {
            "b_f": 24.0, "b_g": 7e-4, "b_k": 7800.0, "lam": 0.05, "mu": 0.035,
            "m_lip": 0.0024, "l_k": 2300.0, "l_sigma": 33333.0, "safety_factor": 1.0,
        },
        "output": {"trace": "out/run.csv", "summary": "out/run.txt"},
    }


class TestParseIntoTypes:
    def test_every_section_builds_its_own_type(self):
        cfg = parse_config(_rich_doc())
        assert cfg.x0 == (0.0, 18.0, 700.0)
        assert cfg.plant == AccParams(mass=1500.0)
        assert cfg.tuning == TunableControllerConfig(
            c=3.0, delta=1.0, band=10.0, epsilon=1.5e-4, margin=2.0, sharpness=20.0,
        )
        assert cfg.alpha == ClassKappa(1.0)
        assert cfg.schedule == HoldSchedule.event(floor=0.01)
        assert cfg.integrator == IntegratorConfig(horizon=12.0, substep=1e-3)
        assert cfg.region == OperatingRegion(
            lower=(0.0, 16.5, 590.0), upper=(500.0, 20.5, 740.0), seed=7, safety_factor=1.2,
        )
        assert cfg.bounds == BoundSet(
            b_f=24.0, b_g=7e-4, b_k=7800.0, lam=0.05, mu=0.035,
            m_lip=0.0024, l_k=2300.0, l_sigma=33333.0, safety_factor=1.0,
        )
        assert (cfg.trace_path, cfg.summary_path) == ("out/run.csv", "out/run.txt")

    @pytest.mark.parametrize("section, key, value, message", [
        ("tuning", "band", 0.0, "tuning.band must be > 0"),
        ("tuning", "sharpness", -1.0, "tuning.sharpness must be > 0"),
        ("tuning", "margin", 0.0, "tuning.margin must be > 0"),
        ("sim", "horizon", -1.0, "sim.horizon must be finite and > 0"),
        ("sim", "substep", 20.0, "sim.substep must not exceed horizon"),
        ("sim", "mode", "sometimes", "sim.mode must be one of"),
        ("region", "seed", -1, "region.seed must be an integer >= 0"),
        ("region", "seed", 1.5, "region.seed must be an integer >= 0"),
        ("region", "lower", [600.0, 16.5, 590.0], "region.lower must be < upper"),
        ("region", "safety_factor", 0.5, "region.safety_factor must be >= 1, got 0.5"),
        ("bounds", "mu", 1.0, "bounds.mu cannot exceed its upper bound lam"),
        ("bounds", "b_f", -1.0, "bounds.b_f must be finite and >= 0"),
    ])
    def test_constructor_errors_name_the_dotted_key(self, section, key, value, message):
        doc = _rich_doc()
        doc[section][key] = value
        with pytest.raises(ConfigurationError, match=message):
            parse_config(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "x0", [1.0, 2.0]),
        ("scenario", "x0", [0.0, 18.0, 700.0, 1.0]),
        ("scenario", "x0", 3.0),
        ("region", "lower", [0.0, 16.5]),
        ("region", "upper", [500.0, 20.5]),
    ])
    def test_state_vectors_have_the_plant_state_count(self, section, key, value):
        doc = _rich_doc()
        doc[section][key] = value
        with pytest.raises(
            ConfigurationError, match=f"{section}.{key} must be a list of 3 numbers, one per state"
        ):
            parse_config(doc)

    def test_floor_outside_event_mode_rejected(self):
        doc = _doc()
        doc["sim"]["floor"] = 0.5
        with pytest.raises(ConfigurationError, match="sim.floor is only valid in event mode"):
            parse_config(doc)
        doc["sim"]["floor"] = 0.0  # a zero floor is no floor
        assert parse_config(doc).schedule == HoldSchedule.periodic(0.5)

    def test_sample_count_is_not_a_region_key(self):
        doc = _doc()
        doc["region"] = {"sample_count": 512}
        with pytest.raises(ConfigurationError, match="unknown key: region.sample_count"):
            parse_config(doc)


class TestRoundTrip:
    """Documents through YAML files and back into configs."""

    def test_file_round_trip(self, tmp_path):
        doc = _rich_doc()
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        cfg = load_config(path)
        assert cfg == parse_config(doc)
        assert load_config(path, ["sim.horizon=3.0"]) == dataclasses.replace(
            cfg, integrator=IntegratorConfig(horizon=3.0, substep=1e-3),
        )

    def test_unquoted_scientific_notation_survives_a_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scenario: {name: acc-approach, controller: plain}\n"
            "sim: {mode: periodic, horizon: 6.0, period: 0.5, substep: 1e-3}\n"
        )
        assert load_config(path).integrator.substep == 1e-3

    def test_load_errors_are_configuration_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: [unclosed\n")
        with pytest.raises(ConfigurationError, match="not valid YAML"):
            load_config(bad)


class TestApplyOverrides:
    def test_values_parse_as_yaml_scalars(self):
        doc = apply_overrides(_doc(), ["sim.period=0.4", "scenario.x0=[0, 20, 735]"])
        assert doc["sim"]["period"] == 0.4
        assert doc["scenario"]["x0"] == [0, 20, 735]

    def test_new_sections_may_be_created(self):
        doc = apply_overrides(_doc(), ["output.trace=out/a.csv"])
        assert doc["output"] == {"trace": "out/a.csv"}

    def test_original_document_is_not_mutated(self):
        base = _doc()
        apply_overrides(base, ["sim.period=0.4"])
        assert base["sim"]["period"] == 0.5

    def test_bad_forms_rejected(self):
        with pytest.raises(ConfigurationError, match="section.key=value"):
            apply_overrides(_doc(), ["noequals"])
        with pytest.raises(ConfigurationError, match="section.key"):
            apply_overrides(_doc(), ["a.b.c=1"])
        with pytest.raises(ConfigurationError, match="section.key"):
            apply_overrides(_doc(), ["=1"])

    def test_override_flows_through_parse(self):
        doc = apply_overrides(_doc(), ["tuning.epsilon=2.0"])
        assert parse_config(doc).tuning.epsilon == 2.0


class TestScenarioFromConfig:
    def test_plain_controller_is_the_filter_itself(self):
        sc = scenario_from_config(parse_config(_doc()))
        assert isinstance(sc.controller, CbfQpFilter)
        assert sc.name == "acc-approach-plain-periodic"

    def test_boosted_controller_applies_the_gate(self):
        doc = _doc()
        doc["scenario"]["controller"] = "boosted"
        cfg = parse_config(doc)
        sc = scenario_from_config(cfg)
        x = np.array([0.0, 20.0, 725.0])
        expected = tunable_control(acc_filter(), cfg.tuning, x)
        assert sc.controller(x)[0] == pytest.approx(expected[0], rel=1e-14)

    def test_start_state_defaults_follow_the_preset(self):
        assert tuple(scenario_from_config(parse_config(_doc())).x0) == X0_FAR
        doc = _doc()
        doc["scenario"]["name"] = "acc-ride"
        assert tuple(scenario_from_config(parse_config(doc)).x0) == X0_NEAR

    def test_explicit_start_state_wins(self):
        doc = _doc()
        doc["scenario"]["x0"] = [0.0, 19.0, 800.0]
        assert tuple(scenario_from_config(parse_config(doc)).x0) == (0.0, 19.0, 800.0)

    def test_schedule_modes(self):
        for mode, extra in (("continuous", {}), ("periodic", {"period": 0.5}),
                            ("event", {"floor": 0.02})):
            doc = _doc()
            doc["sim"] = {"mode": mode, "horizon": 1.0, **extra}
            sc = scenario_from_config(parse_config(doc))
            assert sc.schedule.mode == mode
        assert sc.schedule.floor == 0.02

    def test_trigger_amplification_comes_from_the_tuning(self):
        doc = _doc()
        doc["tuning"] = {"c": 4.5}
        sc = scenario_from_config(parse_config(doc))
        assert sc.trigger_c == 4.5

    def test_region_defaults_to_the_preset_box(self):
        sc = scenario_from_config(parse_config(_doc()))
        assert sc.region is not None
        assert sc.region.lower == (0.0, 1.0, 5.0)
        doc = _doc()
        doc["region"] = {"lower": [0, 10, 100], "upper": [100, 30, 1000]}
        sc = scenario_from_config(parse_config(doc))
        assert sc.region.lower == (0.0, 10.0, 100.0)

    def test_plant_override_reaches_the_dynamics(self):
        doc = _doc()
        doc["scenario"]["plant"] = {"mass": 1500.0}
        sc = scenario_from_config(parse_config(doc))
        g = sc.dynamics.actuation(np.asarray(sc.x0))
        assert g[1, 0] == pytest.approx(1.0 / 1500.0, rel=1e-15)
