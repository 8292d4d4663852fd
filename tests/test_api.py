"""The package's public surface: one list of names per module."""

from __future__ import annotations

import dataclasses
import inspect

import safehold
from safehold import (
    acc_benchmark,
    cbf_core,
    config,
    constants,
    errors,
    safety_filter,
    simulator,
)

MODULES = (errors, cbf_core, safety_filter, constants, simulator, acc_benchmark, config)

DELETED = (
    "barrier_margin",
    "sigmoid_gain",
    "amplified_alpha",
    "expanded_barrier",
    "expanded_alpha",
    "IssfExpansion",
    "adjusted_control",
    "integrate_held",
    "acc_scenarios",
    "TuningCheck",
    "TuningReport",
    "AssumptionCheck",
    "AssumptionReport",
    "TUNINGS",
    "rk4_step_closed_loop",
    "OperatingRegion.contains",
    "SigmoidGain.plateau",
)

# Every parameter and field here has a caller that varies it (or is a
# required input); sampling sizes and limits that nothing varies are module
# constants.
PARAMETERS = {
    constants.estimate_bounds: (
        "region", "dyn", "controller", "barrier", "sigmoid", "safety_factor",
    ),
    constants.check_assumptions: ("region", "dyn", "controller", "barrier"),
    safety_filter.validate_tuning: (
        "cfg", "bounds", "alpha", "dynamics", "barrier", "region",
    ),
    constants.boundary_points: ("region", "barrier", "count", "rng"),
    acc_benchmark.build_scenario: (
        "kind", "period", "horizon", "substep", "setting", "tuning", "params", "floor", "x0",
    ),
}

FIELDS = {
    cbf_core.ClassKappa: ("coef",),
    safety_filter.NominalController: ("law",),
    simulator.Scenario: (
        "name", "dynamics", "barrier", "alpha", "controller", "x0", "integrator",
        "schedule", "region", "trigger_c",
    ),
    simulator.Trace: ("t", "x", "u", "h", "hdot", "trigger", "event"),
}


def test_all_is_the_union_of_the_submodules():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert safehold.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_listed_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(safehold, name) is getattr(module, name), name
    assert isinstance(safehold.__version__, str)


def test_deleted_names_are_gone():
    for name in DELETED:
        owner, _, member = name.rpartition(".")
        if owner:  # a deleted method or property of a public class
            assert not hasattr(getattr(safehold, owner), member), name
            continue
        assert name not in safehold.__all__
        assert not hasattr(safehold, name), name
        assert all(not hasattr(module, name) for module in MODULES), name


def test_signatures_show_only_what_callers_vary():
    for fn, names in PARAMETERS.items():
        assert tuple(inspect.signature(fn).parameters) == names, fn.__name__
    for cls, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls.__name__
    # The sampling instants are read from the event flags, never stored.
    assert isinstance(simulator.Trace.events, property)
