"""Structured run configuration: YAML documents in, scenarios out.

A run config is a mapping with five sections: ``scenario`` (benchmark
preset, controller flavor, optional start state and plant overrides),
``tuning`` (boost gate and certificate margin), ``sim`` (update mode,
horizon, substep, period or event floor), ``region`` (certification box,
sampling budget, safety factor), and ``output`` (trace and summary paths).
``region``, ``bounds``, and ``output`` are optional; ``bounds`` supplies an
explicit regional bound set for workflows that skip estimation.

Validation is strict in both directions: unknown keys are rejected and
missing required keys are reported by their full dotted path, so a typo
fails loudly instead of silently running defaults. Serialization round-trips:
``parse_config(dump_config(cfg))`` reproduces ``cfg`` exactly.
"""

from __future__ import annotations

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
    "dump_config",
    "save_config",
    "default_region",
    "filter_from_config",
    "scenario_from_config",
    "apply_overrides",
]

SCENARIO_NAMES = ("acc-approach", "acc-ride")
_PRESET_REGIONS = {"acc-approach": approach_region, "acc-ride": ride_region}
CONTROLLER_FLAVORS = ("plain", "boosted")

_SECTIONS = {
    "scenario": ("name", "controller", "x0", "plant"),
    "tuning": ("c", "delta", "band", "epsilon", "sharpness", "margin", "alpha_slope"),
    "sim": ("mode", "horizon", "substep", "period", "floor"),
    "region": ("lower", "upper", "sample_count", "seed", "safety_factor"),
    "bounds": (
        "b_f", "b_g", "b_k", "lam", "mu", "m_lip", "l_k", "l_sigma", "safety_factor",
    ),
    "output": ("trace", "summary"),
}
_PLANT_KEYS = tuple(f.name for f in dataclasses.fields(AccParams))


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    scenario_name: str
    controller: str
    x0: tuple[float, ...] | None
    plant: AccParams
    tuning: TunableControllerConfig
    alpha_slope: float
    mode: str
    horizon: float
    substep: float
    period: float | None
    floor: float
    region: OperatingRegion | None
    safety_factor: float
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


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path} must be an integer, got {value!r}")
    return value


def _as_str(value: Any, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{path} must be a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigurationError(f"{path} must be one of {choices}, got {value!r}")
    return value


def _as_vector(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{path} must be a list of numbers")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _get(section: Mapping, name: str, key: str) -> Any:
    if key not in section or section[key] is None:
        raise ConfigurationError(f"missing required key: {name}.{key}")
    return section[key]


def parse_config(doc: Any) -> RunConfig:
    """Validate a parsed mapping into a RunConfig.

    Raises ``ConfigurationError`` with the full dotted path of the first
    unknown or missing key encountered.
    """
    doc = _require_mapping(doc, "config")
    for key in doc:
        if key not in _SECTIONS:
            raise ConfigurationError(f"unknown key: {key}")
    for required in ("scenario", "sim"):
        if required not in doc:
            raise ConfigurationError(f"missing required key: {required}")

    sc = _require_mapping(doc["scenario"], "scenario")
    _reject_unknown(sc, "scenario", _SECTIONS["scenario"])
    name = _as_str(_get(sc, "scenario", "name"), "scenario.name", SCENARIO_NAMES)
    controller = _as_str(
        _get(sc, "scenario", "controller"), "scenario.controller", CONTROLLER_FLAVORS
    )
    x0 = _as_vector(sc["x0"], "scenario.x0") if sc.get("x0") is not None else None

    plant_kwargs = {}
    if sc.get("plant") is not None:
        plant = _require_mapping(sc["plant"], "scenario.plant")
        _reject_unknown(plant, "scenario.plant", _PLANT_KEYS)
        plant_kwargs = {k: _as_float(v, f"scenario.plant.{k}") for k, v in plant.items()}
    try:
        params = AccParams(**plant_kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"scenario.plant: {exc}") from None

    tun = _require_mapping(doc.get("tuning", {}), "tuning")
    _reject_unknown(tun, "tuning", _SECTIONS["tuning"])
    defaults = thin_band_tuning()
    alpha_slope = (
        _as_float(tun["alpha_slope"], "tuning.alpha_slope")
        if tun.get("alpha_slope") is not None
        else 1.0
    )
    tuning_kwargs = {
        "c": defaults.c,
        "delta": defaults.delta,
        "band": defaults.band,
        "epsilon": defaults.epsilon,
        "margin": defaults.margin,
        "sharpness": defaults.sharpness,
    }
    for key in ("c", "delta", "band", "epsilon", "sharpness", "margin"):
        if tun.get(key) is not None:
            value = _as_float(tun[key], f"tuning.{key}")
            if value <= 0.0:
                raise ConfigurationError(f"tuning.{key} must be > 0, got {value}")
            tuning_kwargs[key] = value
    try:
        tuning = TunableControllerConfig(**tuning_kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"tuning: {exc}") from None
    if alpha_slope <= 0.0:
        raise ConfigurationError(f"tuning.alpha_slope must be > 0, got {alpha_slope}")

    sim = _require_mapping(doc["sim"], "sim")
    _reject_unknown(sim, "sim", _SECTIONS["sim"])
    mode = _as_str(_get(sim, "sim", "mode"), "sim.mode", ("continuous", "periodic", "event"))
    horizon = _as_float(_get(sim, "sim", "horizon"), "sim.horizon")
    substep = _as_float(sim["substep"], "sim.substep") if sim.get("substep") is not None else 1e-3
    period = _as_float(sim["period"], "sim.period") if sim.get("period") is not None else None
    if mode == "periodic" and period is None:
        raise ConfigurationError("missing required key: sim.period")
    if mode != "periodic" and period is not None:
        raise ConfigurationError(f"sim.period is only valid in periodic mode, not {mode!r}")
    floor = _as_float(sim["floor"], "sim.floor") if sim.get("floor") is not None else 0.0

    region = None
    safety_factor = 1.1
    if doc.get("region") is not None:
        reg = _require_mapping(doc["region"], "region")
        _reject_unknown(reg, "region", _SECTIONS["region"])
        if reg.get("safety_factor") is not None:
            safety_factor = _as_float(reg["safety_factor"], "region.safety_factor")
        # The box may be omitted, keeping the preset's, while still setting
        # the sampling keys or the safety factor; a half-specified box is an
        # error. Only the safety factor leaves the region to the preset.
        has_box = reg.get("lower") is not None or reg.get("upper") is not None
        if has_box or reg.get("sample_count") is not None or reg.get("seed") is not None:
            if has_box:
                lower = _as_vector(_get(reg, "region", "lower"), "region.lower")
                upper = _as_vector(_get(reg, "region", "upper"), "region.upper")
            else:
                preset = _PRESET_REGIONS[name]()
                lower, upper = preset.lower, preset.upper
            sample_count = (
                _as_int(reg["sample_count"], "region.sample_count")
                if reg.get("sample_count") is not None
                else 4096
            )
            seed = _as_int(reg["seed"], "region.seed") if reg.get("seed") is not None else 0
            try:
                region = OperatingRegion(
                    lower=lower, upper=upper, sample_count=sample_count, seed=seed
                )
            except ConfigurationError as exc:
                raise ConfigurationError(f"region: {exc}") from None

    bounds = None
    if doc.get("bounds") is not None:
        bnd = _require_mapping(doc["bounds"], "bounds")
        _reject_unknown(bnd, "bounds", _SECTIONS["bounds"])
        kwargs = {}
        for key in _SECTIONS["bounds"]:
            if key == "safety_factor":
                if bnd.get(key) is not None:
                    kwargs[key] = _as_float(bnd[key], f"bounds.{key}")
                continue
            kwargs[key] = _as_float(_get(bnd, "bounds", key), f"bounds.{key}")
        try:
            bounds = BoundSet(**kwargs)
        except ConfigurationError as exc:
            raise ConfigurationError(f"bounds: {exc}") from None

    trace_path = summary_path = None
    if doc.get("output") is not None:
        out = _require_mapping(doc["output"], "output")
        _reject_unknown(out, "output", _SECTIONS["output"])
        if out.get("trace") is not None:
            trace_path = _as_str(out["trace"], "output.trace")
        if out.get("summary") is not None:
            summary_path = _as_str(out["summary"], "output.summary")

    return RunConfig(
        scenario_name=name,
        controller=controller,
        x0=x0,
        plant=params,
        tuning=tuning,
        alpha_slope=alpha_slope,
        mode=mode,
        horizon=horizon,
        substep=substep,
        period=period,
        floor=floor,
        region=region,
        safety_factor=safety_factor,
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


def dump_config(cfg: RunConfig) -> dict:
    """RunConfig back to a plain mapping that parses to an equal RunConfig."""
    doc: dict[str, Any] = {
        "scenario": {
            "name": cfg.scenario_name,
            "controller": cfg.controller,
        },
        "tuning": {
            "c": cfg.tuning.c,
            "delta": cfg.tuning.delta,
            "band": cfg.tuning.band,
            "epsilon": cfg.tuning.epsilon,
            "sharpness": cfg.tuning.sharpness,
            "margin": cfg.tuning.margin,
            "alpha_slope": cfg.alpha_slope,
        },
        "sim": {
            "mode": cfg.mode,
            "horizon": cfg.horizon,
            "substep": cfg.substep,
        },
    }
    if cfg.x0 is not None:
        doc["scenario"]["x0"] = list(cfg.x0)
    if cfg.plant != AccParams():
        doc["scenario"]["plant"] = {
            k: getattr(cfg.plant, k)
            for k in _PLANT_KEYS
            if getattr(cfg.plant, k) != getattr(AccParams(), k)
        }
    if cfg.period is not None:
        doc["sim"]["period"] = cfg.period
    if cfg.floor != 0.0:
        doc["sim"]["floor"] = cfg.floor
    if cfg.region is not None or cfg.safety_factor != 1.1:
        region: dict[str, Any] = {}
        if cfg.region is not None:
            region.update(
                lower=list(cfg.region.lower),
                upper=list(cfg.region.upper),
                sample_count=cfg.region.sample_count,
                seed=cfg.region.seed,
            )
        if cfg.safety_factor != 1.1:
            region["safety_factor"] = cfg.safety_factor
        doc["region"] = region
    if cfg.bounds is not None:
        doc["bounds"] = {
            k: getattr(cfg.bounds, k) for k in _SECTIONS["bounds"]
        }
    if cfg.trace_path is not None or cfg.summary_path is not None:
        out: dict[str, Any] = {}
        if cfg.trace_path is not None:
            out["trace"] = cfg.trace_path
        if cfg.summary_path is not None:
            out["summary"] = cfg.summary_path
        doc["output"] = out
    return doc


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(dump_config(cfg), fh, sort_keys=False)


def default_region(cfg: RunConfig) -> OperatingRegion:
    """The config's certification box, or its preset's when none is given."""
    if cfg.region is not None:
        return cfg.region
    return _PRESET_REGIONS[cfg.scenario_name]()


def filter_from_config(cfg: RunConfig) -> CbfQpFilter:
    """The plain safety filter over the configured plant and decrease rate."""
    return CbfQpFilter(
        dynamics=acc_dynamics(cfg.plant),
        barrier=acc_barrier(cfg.plant),
        alpha=ClassKappa.linear(cfg.alpha_slope),
        nominal=acc_nominal(cfg.plant),
    )


def scenario_from_config(cfg: RunConfig) -> Scenario:
    """Assemble the runnable Scenario a config describes.

    A region given explicitly overrides the preset's certification box; the
    preset's start state is used when scenario.x0 is absent.
    """
    filt = filter_from_config(cfg)
    controller = filt if cfg.controller == "plain" else cfg.tuning.controller(filt)
    if cfg.mode == "continuous":
        schedule = HoldSchedule.continuous()
    elif cfg.mode == "periodic":
        schedule = HoldSchedule.periodic(cfg.period)
    else:
        schedule = HoldSchedule.event(floor=cfg.floor)
    x0 = cfg.x0
    if x0 is None:
        x0 = X0_FAR if cfg.scenario_name == "acc-approach" else X0_NEAR
    return Scenario(
        name=f"{cfg.scenario_name}-{cfg.controller}-{cfg.mode}",
        dynamics=filt.dynamics,
        barrier=filt.barrier,
        alpha=filt.alpha,
        controller=controller,
        x0=tuple(x0),
        integrator=IntegratorConfig(horizon=cfg.horizon, substep=cfg.substep),
        schedule=schedule,
        region=default_region(cfg),
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
            raise ConfigurationError(f"override value {raw!r} is not a YAML scalar") from None
        current = doc.get(section)
        section_map = dict(_require_mapping(current, section)) if current is not None else {}
        section_map[field] = value
        doc[section] = section_map
    return doc
