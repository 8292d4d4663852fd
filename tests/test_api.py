"""The package's public surface: one list of names per module."""

from __future__ import annotations

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
)


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
        assert name not in safehold.__all__
        assert not hasattr(safehold, name), name
        assert all(not hasattr(module, name) for module in MODULES), name
