"""Adaptive cruise control benchmark.

Follower vehicle on a straight road behind a slower lead vehicle. State is
(position, speed, gap): position and speed of the follower, longitudinal gap
to the lead. The wheel force input fights aerodynamic and rolling
resistance; the lead holds a constant speed. Safety means keeping the gap
above a braking-distance envelope quadratic in the follower's speed, which
conflicts with the cruise objective whenever the desired speed exceeds the
lead's.

Everything here is closed form, so tests can cross-check the generic
machinery, the barrier's Lie derivatives included, against hand-derived
values.

Two settings are provided, each the certification box, start state and
tuning of a preset that ``safehold.config`` assembles into a scenario.
``acc_filter`` and ``build_scenario`` go through ``safehold.config`` too,
which builds every ACC filter:

* "approach": a wide operating box and a start far behind the lead, so the
  closed loop sweeps from unconstrained cruising into the constraint.
* "ride": a narrow box hugging the constraint boundary, where the follower
  starts close to the envelope and rides it. Regional bounds over this box
  are tight enough to make the violation-free hold-period budget resolvable
  by the integrator, which is the point: hold-period budgets are regional,
  and a box the size of the approach setting prices in worst cases the ride
  never meets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cbf_core import BarrierFunction, ClassKappa, ControlAffineDynamics
from .constants import OperatingRegion
from .errors import ConfigurationError
from .safety_filter import CbfQpFilter, NominalController, TunableControllerConfig
from .simulator import Scenario

__all__ = [
    "AccParams",
    "acc_dynamics",
    "acc_barrier",
    "acc_nominal",
    "acc_filter",
    "approach_region",
    "ride_region",
    "thin_band_tuning",
    "certified_tuning",
    "build_scenario",
    "X0_FAR",
    "X0_NEAR",
]

# Far start: unconstrained cruise, the constraint activates mid-run. Near
# start: 15 m of barrier clearance, erased by a single 1 s hold, so slow
# sampling bites in the first intervals. Also inside the ride box.
X0_FAR = (0.0, 20.0, 1000.0)
X0_NEAR = (0.0, 20.0, 735.0)


@dataclass(frozen=True)
class AccParams:
    """Plant and objective constants.

    Resistance force is f0 + f1*v + f2*v^2. The nominal law is a
    proportional speed tracker (gain scaled by half the mass) with exact
    resistance compensation, so unconstrained it converges to desired_speed.
    headway scales the braking-distance envelope: safe gap >= headway * v^2.
    """

    mass: float = 1650.0
    f0: float = 0.1
    f1: float = 5.0
    f2: float = 0.25
    lead_speed: float = 13.89
    desired_speed: float = 24.0
    tracking_gain: float = 5.0
    headway: float = 1.8

    def __post_init__(self):
        for name in ("mass", "headway"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ConfigurationError(f"{name} must be finite and > 0, got {v}")
        for name in (
            "f0", "f1", "f2", "lead_speed", "desired_speed", "tracking_gain",
        ):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")

    def resistance(self, speed: float | np.ndarray) -> float | np.ndarray:
        return self.f0 + self.f1 * speed + self.f2 * speed * speed


def acc_dynamics(params: AccParams | None = None) -> ControlAffineDynamics:
    p = params or AccParams()
    f0, f1, f2, mass, lead_speed = p.f0, p.f1, p.f2, p.mass, p.lead_speed

    # The physics on plain floats; ``drift`` below evaluates it on arrays.
    # Held rows run its recorded operations instead of calling it, so on
    # floats only the filter's float law calls it, once per sample of a
    # whole periodic run. It reads the parameters from locals and repeats
    # p.resistance's formula, in the same order, so that such a call makes
    # no attribute lookup or method call.
    def scalar_drift(position, speed, gap):
        return speed, -(f0 + f1 * speed + f2 * speed * speed) / mass, lead_speed - speed

    # Coordinates are read as x.T[i]: a scalar for one state, a (k,) row
    # view for a stack, so the same operations give each row's bits.
    def drift(x: np.ndarray) -> np.ndarray:
        xt = x.T
        return np.array(scalar_drift(xt[0], xt[1], xt[2])).T

    g = np.array([[0.0], [1.0 / mass], [0.0]])
    g.flags.writeable = False

    def actuation(x: np.ndarray) -> np.ndarray:
        return g  # constant; broadcasts over a stack

    return ControlAffineDynamics(
        drift=drift, actuation=actuation, n=3, m=1, scalar_drift=scalar_drift,
    )


def acc_barrier(params: AccParams | None = None) -> BarrierFunction:
    p = params or AccParams()
    headway = p.headway
    slope = -2.0 * headway

    # h, written once: on plain floats in the float form, and on x.T's rows
    # in ``value``, which so computes no gradient.
    def h(speed, gap):
        return gap - headway * speed * speed

    def scalar_form(position, speed, gap):
        return h(speed, gap), 0.0, slope * speed, 1.0

    def value(x: np.ndarray) -> float | np.ndarray:
        xt = x.T
        return h(xt[1], xt[2])

    def gradient(x: np.ndarray) -> np.ndarray:
        grad = np.zeros(x.shape)
        columns = grad.T
        columns[1] = slope * x.T[1]
        columns[2] = 1.0
        return grad

    return BarrierFunction(value=value, gradient=gradient, scalar_form=scalar_form)


def acc_nominal(params: AccParams | None = None) -> NominalController:
    p = params or AccParams()
    gain = -p.tracking_gain * (p.mass / 2.0)
    desired_speed, resistance = p.desired_speed, p.resistance

    # The law on plain floats, written once; ``law`` calls it on x.T's rows.
    def scalar_law(position, speed, gap):
        return gain * (speed - desired_speed) + resistance(speed)

    def law(x: np.ndarray) -> np.ndarray:
        xt = x.T
        return scalar_law(xt[0], xt[1], xt[2])[..., None]

    return NominalController(law=law, scalar_law=scalar_law)


def acc_filter() -> CbfQpFilter:
    """The plain safety filter over the default plant, at unit decrease rate."""
    from .config import _acc_filter  # config imports this module

    return _acc_filter(AccParams(), ClassKappa())


def approach_region() -> OperatingRegion:
    """Wide box: full cruise envelope. Speed stays above 1 m/s because the
    barrier loses input authority at standstill."""
    return OperatingRegion(lower=(0.0, 1.0, 5.0), upper=(2000.0, 30.0, 1200.0))


def ride_region() -> OperatingRegion:
    """Narrow box around the constraint-riding trajectory."""
    return OperatingRegion(lower=(0.0, 16.5, 590.0), upper=(500.0, 20.5, 740.0))


def thin_band_tuning() -> TunableControllerConfig:
    """Hair-thin activation band: the boost engages only microns above the
    boundary, so the boosted law is indistinguishable from the plain filter
    at driving scale. Useful as a minimal-interference reference."""
    return TunableControllerConfig(
        c=9.18, delta=5e-4, band=5e-3, epsilon=1.0, margin=0.004
    )


def certified_tuning() -> TunableControllerConfig:
    """Tuning sized for the ride box: the margin (2) and plateau (1/epsilon
    about 6667) pass the tuning validation against measured ride-box bounds,
    and the resulting violation-free hold period is integrable."""
    return TunableControllerConfig(
        c=3.0, delta=1.0, band=10.0, epsilon=1.5e-4, margin=2.0
    )


# Each kind's controller flavor and hold mode.
_KINDS = {
    "continuous": ("plain", "continuous"),
    "periodic": ("plain", "periodic"),
    "periodic-boosted": ("boosted", "periodic"),
    "event": ("boosted", "event"),
}


def build_scenario(kind: str, *, period: float | None, horizon: float, setting: str) -> Scenario:
    """The ``acc-<setting>`` preset's scenario under a hold ``kind``: the
    preset's start state, box and tuning, held periodically at ``period``
    or by the event trigger (kinds ``periodic``, ``periodic-boosted``,
    ``event``, ``continuous``)."""
    from .config import parse_config, scenario_from_config  # config imports this module

    if kind not in _KINDS:
        raise ConfigurationError(f"unknown scenario kind {kind!r}, expected one of {tuple(_KINDS)}")
    controller, mode = _KINDS[kind]
    return scenario_from_config(parse_config({
        "scenario": {"name": f"acc-{setting}", "controller": controller},
        "sim": {"mode": mode, "period": period, "horizon": horizon},
    }))
