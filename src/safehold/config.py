"""Structured run configuration: YAML documents in, validated types out.

A run config is a mapping with six sections: ``scenario`` (benchmark
preset, controller flavor, optional start state and plant overrides),
``tuning`` (boost gate, certificate margin, decrease rate), ``sim`` (update
mode, horizon, substep, period or event floor), ``region`` (certification
box, sampling seed, safety factor), ``bounds`` (an explicit regional bound
set for workflows that skip estimation) and ``output`` (trace and summary
paths). Only ``scenario`` and ``sim`` are required.

Parsing is a thin adapter onto the library's own types: ``AccParams``,
``TunableControllerConfig``, ``ClassKappa``, ``HoldSchedule``,
``IntegratorConfig``, ``OperatingRegion`` and ``BoundSet`` each check their
values once, at construction, and a failing check is re-raised under its
dotted key. What the preset supplies (start state, certification box,
tuning) is resolved here, so every field of a ``RunConfig`` is final:
absent ``tuning`` keys take the preset tuning's values. Unknown keys are
rejected and missing required keys reported by their full dotted path, so
a typo fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Mapping

import yaml

from .acc_benchmark import (
    AccParams,
    X0_FAR,
    X0_NEAR,
    acc_barrier,
    acc_dynamics,
    acc_nominal,
    approach_region,
    certified_tuning,
    ride_region,
    thin_band_tuning,
)
from .cbf_core import ClassKappa
from .constants import BoundSet, OperatingRegion
from .errors import ConfigurationError
from .safety_filter import CbfQpFilter, TunableControllerConfig
from .simulator import HoldSchedule, IntegratorConfig, Scenario

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config",
    "filter_from_config",
    "scenario_from_config",
    "apply_overrides",
]

# Each preset's certification box, start state and default tuning.
_PRESETS = {
    "acc-approach": (approach_region, X0_FAR, thin_band_tuning),
    "acc-ride": (ride_region, X0_NEAR, certified_tuning),
}
CONTROLLER_FLAVORS = ("plain", "boosted")


def _fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


_SECTIONS = {
    "scenario": ("name", "controller", "x0", "plant"),
    "tuning": _fields(TunableControllerConfig) + ("alpha_slope",),
    "sim": _fields(HoldSchedule) + _fields(IntegratorConfig),
    "region": _fields(OperatingRegion),
    "bounds": _fields(BoundSet),
    "output": ("trace", "summary"),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration, each part already validated by its type."""

    scenario_name: str
    controller: str
    x0: tuple[float, ...]
    plant: AccParams
    tuning: TunableControllerConfig
    alpha: ClassKappa
    schedule: HoldSchedule
    integrator: IntegratorConfig
    region: OperatingRegion
    bounds: BoundSet | None
    trace_path: str | None
    summary_path: str | None


def _require_mapping(doc: Any, path: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise ConfigurationError(f"{path} must be a mapping, got {type(doc).__name__}")
    return doc


def _reject_unknown(section: Mapping, name: str, allowed: tuple[str, ...]) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"unknown key: {name}.{key}")


def _section(doc: Mapping, name: str) -> dict:
    """A section's entries with null values dropped; absent means empty."""
    if doc.get(name) is None:
        return {}
    section = _require_mapping(doc[name], name)
    _reject_unknown(section, name, _SECTIONS[name])
    return {key: value for key, value in section.items() if value is not None}


def _as_float(value: Any, path: str) -> float:
    # YAML 1.1 reads "1e-3" as a string; accept numeric strings rather than
    # making users remember the dialect quirk.
    if isinstance(value, bool):
        raise ConfigurationError(f"{path} must be a number, got a boolean")
    if isinstance(value, (int, float)):
        out = float(value)
    elif isinstance(value, str):
        try:
            out = float(value)
        except ValueError:
            raise ConfigurationError(f"{path} must be a number, got {value!r}") from None
    else:
        raise ConfigurationError(f"{path} must be a number, got {type(value).__name__}")
    if not math.isfinite(out):
        raise ConfigurationError(f"{path} must be finite, got {out}")
    return out


def _as_floats(section: Mapping, name: str) -> dict:
    return {key: _as_float(value, f"{name}.{key}") for key, value in section.items()}


def _as_str(value: Any, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{path} must be a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigurationError(f"{path} must be one of {choices}, got {value!r}")
    return value


def _get(section: Mapping, name: str, key: str) -> Any:
    if key not in section:
        raise ConfigurationError(f"missing required key: {name}.{key}")
    return section[key]


@contextlib.contextmanager
def _errors_under(prefix: str):
    """Re-raise a constructor's ConfigurationError with ``prefix`` in front."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{prefix}{exc}") from None


def _build(cls, section: Mapping, name: str, **preset):
    """``cls`` from the section's keys that name its fields, the rest from
    ``preset`` or the field defaults. The constructors' messages start with
    the offending field, so a failed check reads as its dotted key."""
    kwargs = dict(preset)
    for f in dataclasses.fields(cls):
        if f.name in section:
            kwargs[f.name] = section[f.name]
        elif f.name not in kwargs and f.default is dataclasses.MISSING:
            raise ConfigurationError(f"missing required key: {name}.{f.name}")
    with _errors_under(f"{name}."):
        return cls(**kwargs)


def parse_config(doc: Any) -> RunConfig:
    """Validate a parsed mapping into a RunConfig.

    Raises ``ConfigurationError`` with the full dotted path of the first
    unknown, missing or invalid key encountered.
    """
    doc = _require_mapping(doc, "config")
    for key in doc:
        if key not in _SECTIONS:
            raise ConfigurationError(f"unknown key: {key}")
    for required in ("scenario", "sim"):
        if required not in doc:
            raise ConfigurationError(f"missing required key: {required}")

    sc = _section(doc, "scenario")
    name = _as_str(_get(sc, "scenario", "name"), "scenario.name", tuple(_PRESETS))
    controller = _as_str(
        _get(sc, "scenario", "controller"), "scenario.controller", CONTROLLER_FLAVORS
    )
    preset_region, preset_x0, preset_tuning = _PRESETS[name]
    plant = _require_mapping(sc.get("plant", {}), "scenario.plant")
    _reject_unknown(plant, "scenario.plant", _fields(AccParams))
    params = _build(AccParams, _as_floats(plant, "scenario.plant"), "scenario.plant")

    tun = _as_floats(_section(doc, "tuning"), "tuning")
    with _errors_under("tuning.alpha_slope: "):
        alpha = ClassKappa(tun.pop("alpha_slope", 1.0))
    # The preset tunings take the default sharpness, 200/band, so without a
    # sharpness key it follows the configured band, not the preset's.
    preset = dataclasses.asdict(preset_tuning())
    del preset["sharpness"]
    tuning = _build(TunableControllerConfig, tun, "tuning", **preset)

    sim = {
        key: value if key == "mode" else _as_float(value, f"sim.{key}")
        for key, value in _section(doc, "sim").items()
    }
    schedule = _build(HoldSchedule, sim, "sim")
    integrator = _build(IntegratorConfig, sim, "sim")

    reg = _section(doc, "region")
    if "safety_factor" in reg:
        reg["safety_factor"] = _as_float(reg["safety_factor"], "region.safety_factor")
    # The start state and the box have one entry per state of the preset
    # plant, as the preset's own start state does.
    n = len(preset_x0)
    for section, path in ((sc, "scenario.x0"), (reg, "region.lower"), (reg, "region.upper")):
        key = path.partition(".")[2]
        if key not in section:
            continue
        value = section[key]
        if not isinstance(value, (list, tuple)) or len(value) != n:
            raise ConfigurationError(f"{path} must be a list of {n} numbers, one per state")
        section[key] = tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))
    x0 = sc.get("x0", preset_x0)
    # The box may be omitted, keeping the preset's; a half-specified box is
    # an error.
    if "lower" not in reg and "upper" not in reg:
        preset = preset_region()
        reg.update(lower=preset.lower, upper=preset.upper)
    region = _build(OperatingRegion, reg, "region")

    bounds = None
    if doc.get("bounds") is not None:
        bounds = _build(BoundSet, _as_floats(_section(doc, "bounds"), "bounds"), "bounds")

    out = _section(doc, "output")
    trace_path = _as_str(out["trace"], "output.trace") if "trace" in out else None
    summary_path = _as_str(out["summary"], "output.summary") if "summary" in out else None

    return RunConfig(
        scenario_name=name,
        controller=controller,
        x0=x0,
        plant=params,
        tuning=tuning,
        alpha=alpha,
        schedule=schedule,
        integrator=integrator,
        region=region,
        bounds=bounds,
        trace_path=trace_path,
        summary_path=summary_path,
    )


def load_config(path, overrides=()) -> RunConfig:
    """Read a YAML config file, apply ``section.key=value`` overrides (see
    ``apply_overrides``), and validate the result."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {path} is not valid YAML: {exc}") from None
    if overrides:
        doc = apply_overrides(doc, overrides)
    return parse_config(doc)


def filter_from_config(cfg: RunConfig) -> CbfQpFilter:
    """The plain safety filter over the configured plant and decrease rate."""
    return CbfQpFilter(
        dynamics=acc_dynamics(cfg.plant),
        barrier=acc_barrier(cfg.plant),
        alpha=cfg.alpha,
        nominal=acc_nominal(cfg.plant),
    )


def scenario_from_config(cfg: RunConfig) -> Scenario:
    """Assemble the runnable Scenario a config describes."""
    filt = filter_from_config(cfg)
    controller = filt if cfg.controller == "plain" else cfg.tuning.controller(filt)
    return Scenario(
        name=f"{cfg.scenario_name}-{cfg.controller}-{cfg.schedule.mode}",
        dynamics=filt.dynamics,
        barrier=filt.barrier,
        alpha=filt.alpha,
        controller=controller,
        x0=cfg.x0,
        integrator=cfg.integrator,
        schedule=cfg.schedule,
        region=cfg.region,
        trigger_c=cfg.tuning.c,
    )


def apply_overrides(doc: Any, overrides: list[str]) -> Any:
    """Apply ``section.key=value`` overrides onto a raw config mapping.

    Values parse as YAML scalars, so ``--set sim.period=0.4`` yields a float
    and ``--set scenario.x0=[0,20,735]`` a list. Creating new sections is
    allowed; key validation happens later in parse_config.
    """
    doc = dict(_require_mapping(doc, "config"))
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form section.key=value")
        key, raw = item.split("=", 1)
        parts = key.strip().split(".")
        if len(parts) != 2 or not all(parts):
            raise ConfigurationError(f"override key {key!r} is not of the form section.key")
        section, field = parts
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            raise ConfigurationError(f"{section}.{field} value {raw!r} is not valid YAML") from None
        current = doc.get(section)
        section_map = dict(_require_mapping(current, section)) if current is not None else {}
        section_map[field] = value
        doc[section] = section_map
    return doc
