"""The package's public surface: one list of names per module."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

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
    "dump_config",
    "save_config",
    "default_region",
    "Trace.from_csv",
    "OperatingRegion.sample_count",
    "acc_closed_form_lie",
    "SWEEP_FREQUENCIES",
    "Check.value",
    "estimate_bounds",
    "check_assumptions",
    "OperatingRegion.lattice",
    "SCENARIO_KINDS",
    "SigmoidGain",
    "wide_band_tuning",
    "ClassKappa.linear",
    "validate_tuning",
    "run_many",
    "ControlAffineDynamics.scalar_drift",
    "BarrierFunction.scalar_form",
    "NominalController.scalar_law",
    "NominalController.law",
)

# Every parameter and field here has a caller that varies it (or is a
# required input); sampling sizes and limits that nothing varies are module
# constants.
PARAMETERS = {
    constants.certify_region: (
        "region", "dyn", "controller", "barrier", "tuning",
    ),
    constants.certify: ("cfg",),
    constants.boundary_points: ("region", "barrier", "rng"),
    acc_benchmark.acc_filter: (),
    acc_benchmark.approach_region: (),
    acc_benchmark.ride_region: (),
    acc_benchmark.build_scenario: ("kind", "period", "horizon", "setting"),
    simulator.analyze: ("trace",),
}

FIELDS = {
    cbf_core.ClassKappa: ("coef",),
    cbf_core.ControlAffineDynamics: ("drift_form", "actuation", "n", "m"),
    cbf_core.BarrierFunction: ("form",),
    safety_filter.NominalController: ("form",),
    safety_filter.TunableControllerConfig: (
        "c", "delta", "band", "epsilon", "margin", "sharpness",
    ),
    simulator.Scenario: (
        "name", "dynamics", "barrier", "alpha", "controller", "x0", "integrator",
        "schedule", "region", "trigger_c",
    ),
    simulator.Trace: ("t", "x", "u", "h", "hdot", "trigger", "event"),
    constants.OperatingRegion: ("lower", "upper", "seed", "safety_factor"),
    constants.Certificate: ("assumptions", "bounds", "tuning"),
    config.RunConfig: (
        "scenario_name", "controller", "x0", "plant", "tuning", "alpha", "schedule",
        "integrator", "region", "bounds", "trace_path", "summary_path",
    ),
}

# Every value a caller can set: each function parameter except self and cls
# (nested functions and private helpers included, * and ** catch-alls not)
# plus each dataclass field, over the package's modules. A change that adds
# a knob raises this number in the same diff and says why in CHANGES.md.
SETTABLE_VALUES = 344


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


def _settable_values() -> int:
    total = 0
    for path in sorted(Path(safehold.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                total += sum(name not in ("self", "cls") for name in names)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                total += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return total


def test_the_number_of_settable_values_is_pinned():
    assert _settable_values() == SETTABLE_VALUES


def test_certificate_checks_live_in_constants():
    # The filter is what the certificate checks, so its module depends on
    # nothing of the certificate's.
    tree = ast.parse(Path(safety_filter.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # from .constants import ..., from . import constants, import safehold.constants
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            assert not any(n.rpartition(".")[2] == "constants" for n in names), ast.unparse(node)
    assert "certify" in constants.__all__
    assert "certify" not in safety_filter.__all__


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, as ``file:line name``.
    ``__future__`` imports are directives, and a test's parameter names
    count as reads: pytest passes an imported fixture by its name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a; from m import x (as y) binds x (or y).
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    unread.append(f"{path.name}:{node.lineno} {bound}")
    return unread


def test_every_import_is_read():
    # The package's __init__ imports to re-export, so it is not scanned.
    package = Path(safehold.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    assert [line for path in paths for line in _unread_imports(path)] == []


def _module_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or class's
    name, or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _references(tree: ast.AST) -> list[str]:
    """Every name a tree reads, by bare name, by attribute or by import."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs += [alias.name for alias in node.names]
    return refs


def test_every_private_helper_is_used():
    # A module-level _name that nothing in the package reads, outside its
    # own definition, is dead code left behind by a deletion.
    package = Path(safehold.__file__).parent
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    counts = Counter(ref for tree in trees.values() for ref in _references(tree))
    unused = []
    for file, tree in trees.items():
        for node in tree.body:
            own = Counter(_references(node))
            for name in _module_level_names(node):
                if name.startswith("_") and not name.startswith("__") and counts[name] == own[name]:
                    unused.append(f"{file}:{node.lineno} {name}")
    assert unused == []
