"""Safety filter and the boosted controllers layered on top of it.

The filter solves the pointwise least-deviation problem: keep the nominal
input whenever it already satisfies the barrier decrease condition, otherwise
move just far enough along the constraint gradient to restore it. For a
single input channel the solution is closed form, so no QP solver is
involved and the filtered input is exactly reproducible.

Under sample-and-hold operation the filtered input is frozen between
updates and the continuous-time guarantee no longer applies.
``tunable_control`` retrofits the filter with a push along the constraint
gradient (strength up to 1/epsilon), gated through a decreasing sigmoid of
the barrier value, so the boost engages only inside a band around the
boundary and fades to nothing deep inside the safe set.

``validate_tuning`` collects the side conditions under which the boosted
controller's violation-free hold-period budget is honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cbf_core import (
    BarrierFunction,
    ClassKappa,
    ControlAffineDynamics,
    SigmoidGain,
    _probe_shapes,
    lie_derivatives,
)
from .constants import BoundSet, Check, OperatingRegion, Report, boundary_points
from .errors import ConfigurationError, InfeasibleFilterError

__all__ = [
    "NominalController",
    "CbfQpFilter",
    "TunableControllerConfig",
    "solve_cbf_qp",
    "tunable_control",
    "validate_tuning",
]


@dataclass(frozen=True)
class NominalController:
    """Performance controller: a state-to-input law returning an (m,) float
    array. Its shape is checked once, with the plant's, before a run or an
    estimation starts."""

    law: Callable[[np.ndarray], np.ndarray]
    m: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.law(x)


@dataclass(frozen=True)
class CbfQpFilter:
    """Least-deviation safety filter for a scalar input channel.

    Calling the filter returns the filtered input at a state. The closed
    form covers m = 1 only; multi-input systems need a QP solver and are
    rejected up front rather than silently mishandled.
    """

    dynamics: ControlAffineDynamics
    barrier: BarrierFunction
    alpha: ClassKappa
    nominal: NominalController

    def __post_init__(self):
        if self.dynamics.m != 1:
            raise ConfigurationError(
                f"closed-form filter requires a single input channel, got m={self.dynamics.m}"
            )
        if self.nominal.m != self.dynamics.m:
            raise ConfigurationError(
                f"nominal controller has m={self.nominal.m}, dynamics m={self.dynamics.m}"
            )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return solve_cbf_qp(self, x)


def solve_cbf_qp(filt: CbfQpFilter, x: np.ndarray) -> np.ndarray:
    """Closed-form filtered input at x.

    When the nominal input already satisfies the decrease condition it is
    returned unchanged (bit for bit, so downstream comparisons against the
    nominal are exact). Otherwise the unique active-constraint solution is
    returned. Infeasibility, which for one channel means the input does not
    enter the constraint at all while the drift violates it, raises
    ``InfeasibleFilterError`` rather than clamping.
    """
    u_des = filt.nominal(x)
    lfh, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
    a_h = filt.alpha(filt.barrier.value(x))
    slack = lfh + float(lgh[0]) * float(u_des[0]) + a_h
    if slack >= 0.0:
        return u_des.copy()
    if lgh[0] == 0.0:
        raise InfeasibleFilterError(
            "barrier constraint infeasible: input has no authority over the "
            f"barrier here and the drift violates the decrease condition "
            f"(lfh={lfh:.6g}, alpha(h)={a_h:.6g})",
            state=x,
        )
    u_star = (-a_h - lfh) / float(lgh[0])
    return np.array([u_star])


def tunable_control(filt: CbfQpFilter, gain: SigmoidGain, x: np.ndarray) -> np.ndarray:
    """Filtered input plus the sigmoid-gated gradient push."""
    u = solve_cbf_qp(filt, x)
    _, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
    return u + gain(filt.barrier.value(x)) * lgh


@dataclass(frozen=True)
class TunableControllerConfig:
    """Tuning knobs for the boosted controller and its certificate.

    c amplifies the barrier decrease rate used by the event trigger, margin
    is the descent budget d the hold period is sized against, and the
    remaining fields shape the sigmoid gate (activation height delta,
    transition band width, plateau 1/epsilon, steepness sharpness, default
    200/band).
    """

    c: float
    delta: float
    band: float
    epsilon: float
    margin: float
    sharpness: float | None = None

    def __post_init__(self):
        for name in ("c", "delta", "band", "epsilon", "margin"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ConfigurationError(f"tuning field {name} must be finite and > 0, got {v}")
        if self.sharpness is not None and not (np.isfinite(self.sharpness) and self.sharpness > 0.0):
            raise ConfigurationError(f"sharpness must be finite and > 0, got {self.sharpness}")

    @property
    def sigmoid(self) -> SigmoidGain:
        return SigmoidGain(
            epsilon=self.epsilon, delta=self.delta, band=self.band, sharpness=self.sharpness
        )

    def controller(self, filt: CbfQpFilter) -> Callable[[np.ndarray], np.ndarray]:
        """Boosted control law as a plain state-to-input callable."""
        gain = self.sigmoid

        def law(x: np.ndarray) -> np.ndarray:
            return tunable_control(filt, gain, x)

        # Lets the shape probe check the nominal law behind the boost.
        law.nominal = filt.nominal
        return law


def validate_tuning(
    cfg: TunableControllerConfig,
    bounds: BoundSet,
    alpha: ClassKappa,
    *,
    dynamics: ControlAffineDynamics | None = None,
    barrier: BarrierFunction | None = None,
    region: OperatingRegion | None = None,
    band_count: int = 256,
) -> Report:
    """Check the tuning against its certificate side conditions.

    Three checks: the amplified decrease rate must out-run the margin at the
    activation height (c * alpha(delta) > margin), the plateau must be strong
    enough for the boundary actuation margin to reject worst-case drift
    (epsilon <= mu^2 / (4 * margin)), and the actuation row must stay above
    half its boundary floor throughout the activation band {0 <= h < delta}.
    The band check samples the actual system, so it runs only when dynamics,
    barrier, and region are all supplied; otherwise it reports "skipped".
    """
    checks = []

    a_delta = alpha(cfg.delta)
    amplified = cfg.c * a_delta
    checks.append(Check(
        "amplification_covers_margin",
        "pass" if amplified > cfg.margin else "fail",
        f"c * alpha(delta) = {amplified:.6g} vs margin = {cfg.margin:.6g}",
    ))

    budget = bounds.mu ** 2 / (4.0 * cfg.margin)
    checks.append(Check(
        "plateau_budget",
        "pass" if cfg.epsilon <= budget else "fail",
        f"epsilon = {cfg.epsilon:.6g} vs mu^2/(4*margin) = {budget:.6g}",
    ))

    if dynamics is None or barrier is None or region is None:
        checks.append(Check(
            "activation_band_gain", "skipped",
            "needs dynamics, barrier, and region to sample the band",
        ))
        return Report(tuple(checks))

    rng = np.random.default_rng(region.seed)
    band_pts = list(boundary_points(region, barrier, band_count, rng))
    box = region.sample(rng, 16 * band_count)
    for p in box:
        if 0.0 <= barrier.value(p) < cfg.delta:
            band_pts.append(p)
    _probe_shapes(dynamics, barrier, band_pts[0])
    gains = [float(np.linalg.norm(lie_derivatives(dynamics, barrier, p)[1])) for p in band_pts]
    floor = bounds.mu / 2.0
    worst = min(gains)
    checks.append(Check(
        "activation_band_gain",
        "pass" if worst >= floor else "fail",
        f"min |lgh| over the band = {worst:.6g} vs mu/2 = {floor:.6g} "
        f"({len(band_pts)} band points)",
    ))
    return Report(tuple(checks))
