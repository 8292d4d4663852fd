"""Core barrier-function machinery for control-affine systems.

The safe set is the zero superlevel set of a barrier function h, and all
safety reasoning runs through three ingredients defined here:

* a linear class-K comparison function, extended to negative arguments so
  it can certify recovery from outside the safe set,
* Lie derivatives of h along control-affine dynamics, which turn a control
  choice into a barrier derivative,
* a decreasing sigmoid gain schedule used to boost control effort near the
  boundary.

All state and input vectors are one-dimensional float arrays. The plant,
barrier and controller callables are shape-checked once, when a scenario is
built or an estimation starts; every evaluation after that is plain
arithmetic on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InfeasibleFilterError

__all__ = [
    "ClassKappa",
    "SigmoidGain",
    "ControlAffineDynamics",
    "BarrierFunction",
    "lie_derivatives",
]

# Exponent magnitude beyond which the sigmoid is numerically saturated.
_EXP_SATURATION = 700.0


@dataclass(frozen=True)
class ClassKappa:
    """Strictly increasing comparison function with alpha(0) = 0.

    The one supported kind is ``linear``: alpha(r) = coef * r, defined for
    all real r (it is odd), so it can be evaluated at negative barrier
    values outside the safe set.
    """

    kind: str
    coef: float = 1.0

    def __post_init__(self):
        if self.kind != "linear":
            raise ConfigurationError(f"unknown class-K kind {self.kind!r}")
        if not (self.coef > 0.0 and math.isfinite(self.coef)):
            raise ConfigurationError(
                f"class-K coefficient must be finite and > 0, got {self.coef}"
            )

    @classmethod
    def linear(cls, slope: float = 1.0) -> "ClassKappa":
        return cls(kind="linear", coef=slope)

    def __call__(self, r: float) -> float:
        return self.coef * r

    def inverse(self, v: float) -> float:
        """Solve alpha(r) = v for r."""
        return v / self.coef


@dataclass(frozen=True)
class SigmoidGain:
    """Decreasing sigmoid schedule for the boundary boost gain.

    The gain plateaus at 1/epsilon for barrier values below ``delta``, falls
    across the band ``(delta, delta + band)``, and is numerically zero above
    it. ``sharpness`` controls how fast the transition happens; the default
    200/band keeps the plateaus flat to better than 1e-8/epsilon outside the
    band.
    """

    epsilon: float
    delta: float
    band: float
    sharpness: float | None = None

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ConfigurationError(f"sigmoid epsilon must be finite and > 0, got {self.epsilon}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ConfigurationError(f"sigmoid delta must be finite and > 0, got {self.delta}")
        if not (self.band > 0.0 and math.isfinite(self.band)):
            raise ConfigurationError(f"sigmoid band must be finite and > 0, got {self.band}")
        if self.sharpness is None:
            object.__setattr__(self, "sharpness", 200.0 / self.band)
        elif not (self.sharpness > 0.0):
            raise ConfigurationError(f"sigmoid sharpness must be > 0, got {self.sharpness}")

    def __call__(self, r: float) -> float:
        z = self.sharpness * (r - self.delta - 0.5 * self.band)
        z = min(max(z, -_EXP_SATURATION), _EXP_SATURATION)
        return 1.0 / (self.epsilon * (1.0 + math.exp(z)))

    @property
    def plateau(self) -> float:
        return 1.0 / self.epsilon

    @property
    def slope_bound(self) -> float:
        """Largest magnitude of the gain's derivative, attained mid-band."""
        return self.sharpness / (4.0 * self.epsilon)


@dataclass(frozen=True)
class ControlAffineDynamics:
    """Dynamics xdot = drift(x) + actuation(x) @ u.

    ``drift`` maps a state to an (n,) float array, ``actuation`` to an
    (n, m) matrix. The shapes are checked once, when a scenario is built or
    an estimation starts, so a mis-sized callable fails loudly there rather
    than broadcasting mid-run.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    actuation: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError(f"dynamics dimensions must be >= 1, got n={self.n}, m={self.m}")

    def rate(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """State derivative under input u."""
        return self.drift(x) + self.actuation(x) @ u


@dataclass(frozen=True)
class BarrierFunction:
    """Scalar barrier h with its gradient. Safe set: h(x) >= 0."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


def lie_derivatives(
    dyn: ControlAffineDynamics, barrier: BarrierFunction, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Directional derivatives of h along the drift and actuation fields.

    Returns ``(lfh, lgh)`` where ``lfh`` is a scalar and ``lgh`` has shape
    (m,), so the barrier derivative under input u is ``lfh + lgh @ u``.
    """
    grad = barrier.gradient(x)
    return float(grad @ dyn.drift(x)), grad @ dyn.actuation(x)


def _probe_shapes(
    dyn: ControlAffineDynamics,
    barrier: BarrierFunction,
    x,
    controller: Callable[[np.ndarray], np.ndarray] | None = None,
) -> None:
    """Check, at one state, every shape the evaluation path relies on.

    The state must be (n,), the barrier gradient and the drift (n,), the
    actuation (n, m) and the controller's input (m,). A controller that
    wraps a nominal law (a filter, or a boosted law built from one) exposes
    it as ``nominal``, and that law is checked first. A filter infeasible
    at x is not a shape error; the run reports it with its time and state.
    Raises ``ConfigurationError`` naming the mis-sized callable.
    """
    n, m = dyn.n, dyn.m
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ConfigurationError(f"state has shape {x.shape}, expected ({n},)")
    grad = np.asarray(barrier.gradient(x), dtype=float)
    if grad.shape != (n,):
        raise ConfigurationError(f"barrier gradient has shape {grad.shape}, expected ({n},)")
    f = np.asarray(dyn.drift(x), dtype=float)
    if f.shape != (n,):
        raise ConfigurationError(f"drift returned shape {f.shape}, expected ({n},)")
    g = np.asarray(dyn.actuation(x), dtype=float)
    if g.shape != (n, m):
        raise ConfigurationError(f"actuation returned shape {g.shape}, expected ({n}, {m})")
    if controller is None:
        return
    for what, law in (
        ("nominal controller", getattr(controller, "nominal", None)),
        ("controller", controller),
    ):
        if law is None:
            continue
        try:
            u = np.atleast_1d(np.asarray(law(x), dtype=float))
        except InfeasibleFilterError:
            return
        if u.shape != (m,):
            raise ConfigurationError(f"{what} returned shape {u.shape}, expected ({m},)")
