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
    lie_derivatives,
)
from .errors import ConfigurationError, InfeasibleFilterError

__all__ = [
    "NominalController",
    "CbfQpFilter",
    "TunableControllerConfig",
    "solve_cbf_qp",
    "tunable_control",
]


@dataclass(frozen=True)
class NominalController:
    """Performance controller: a state-to-input law returning an (m,) float
    array, and (k, m) for a (k, n) stack of states, m being the plant's
    input count. Its shape is checked once, with the plant's, before a run
    or an estimation starts."""

    law: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.law(x)


@dataclass(frozen=True)
class CbfQpFilter:
    """Least-deviation safety filter for a scalar input channel.

    Calling the filter returns the filtered input at a state, or at each
    state of a stack. The closed form covers m = 1 only; multi-input
    systems need a QP solver and are rejected up front rather than silently
    mishandled.
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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return solve_cbf_qp(self, x)


def solve_cbf_qp(filt: CbfQpFilter, x: np.ndarray) -> np.ndarray:
    """Closed-form filtered input at x, one state (n,) or a stack (k, n).

    When the nominal input already satisfies the decrease condition it is
    returned unchanged (bit for bit, so downstream comparisons against the
    nominal are exact). Otherwise the unique active-constraint solution is
    returned. Infeasibility, which for one channel means the input does not
    enter the constraint at all while the drift violates it, raises
    ``InfeasibleFilterError`` rather than clamping; on a stack it names the
    first infeasible row and its state.
    """
    lfh, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
    return _filtered(filt, x, lfh, lgh, filt.barrier.value(x))


def _any(mask) -> bool:
    # A scalar's .any() costs a reduction; this runs once per filter call.
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def _filtered(filt: CbfQpFilter, x: np.ndarray, lfh, lgh: np.ndarray, h) -> np.ndarray:
    """The filter's input at x from the Lie derivatives and barrier value
    there, so that the boosted law can share them."""
    u_des = filt.nominal(x)
    a_h = filt.alpha(h)
    # .T[0]: the single input channel, a scalar for one state, (k,) for a stack.
    lg = lgh.T[0]
    slack = lfh + lg * u_des.T[0] + a_h
    active = (slack < 0.0) | (slack != slack)  # nan counts as violated
    if not _any(active):
        return u_des.copy()
    blind = lg == 0.0
    infeasible = active & blind
    if _any(infeasible):
        rows = np.broadcast_to(infeasible, x.shape[:-1])
        first = np.unravel_index(np.argmax(rows), rows.shape)  # () for one state
        raise InfeasibleFilterError(
            "barrier constraint infeasible: input has no authority over the "
            f"barrier here and the drift violates the decrease condition "
            f"(lfh={np.broadcast_to(lfh, rows.shape)[first]:.6g}, "
            f"alpha(h)={np.broadcast_to(a_h, rows.shape)[first]:.6g})",
            state=x[first],
        )
    # Rows with lg == 0 are inactive by now; they divide by 1, not by 0.
    u_star = ((-a_h - lfh) / (lg + blind))[..., None]
    if active.ndim and not active.all():
        return np.where(active[..., None], u_star, u_des)
    return u_star


def tunable_control(filt: CbfQpFilter, gain: SigmoidGain, x: np.ndarray) -> np.ndarray:
    """Filtered input plus the sigmoid-gated gradient push, at one state or
    a stack. The filter and the push share one Lie-derivative evaluation."""
    lfh, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
    h = filt.barrier.value(x)
    return _filtered(filt, x, lfh, lgh, h) + gain(h)[..., None] * lgh


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
        for name in ("c", "margin"):
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise ConfigurationError(f"{name} must be > 0 and finite, got {v}")
        self.sigmoid  # the gate's constructor checks delta, band, epsilon, sharpness

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
