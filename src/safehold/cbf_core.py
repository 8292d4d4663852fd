"""Core barrier-function machinery for control-affine systems.

The safe set is the zero superlevel set of a barrier function h, and all
safety reasoning runs through two ingredients defined here:

* a linear class-K comparison function, extended to negative arguments so
  it can certify recovery from outside the safe set,
* Lie derivatives of h along control-affine dynamics, which turn a control
  choice into a barrier derivative.

The sigmoid gain that boosts control effort near the boundary is the boosted
controller's tuning, ``safety_filter.TunableControllerConfig``.

Batch contract. Every plant, barrier and controller callable takes either
one state, shape (n,), or a stack of k states, shape (k, n). On a stack the
drift returns (k, n), the actuation (k, n, m), the barrier value (k,), its
gradient (k, n), and the nominal law, the filter and the boosted law (k, m).
An output that does not depend on the state may be returned as is, to
broadcast against the stack (a constant actuation (n, m), say); an
actuation that returns (n, m) on a stack thereby declares itself
state-independent, and the simulator's sample-and-hold loop computes its
input term once per hold segment, not at every RK4 stage. Reading the
i-th coordinate as ``x.T[i]`` serves both shapes at the single-state cost.
The certification stages evaluate whole stacks, one call each; the
simulator's ``run_many`` steps a stack of scenarios, one state per row, and
evaluates the event trigger and the recorded barrier columns on stacks of
the integrated states. When the callables compute each row as they would
alone, a stacked call equals the row-by-row single calls bit for bit: the
library's own reductions are one dot or one matrix-vector product per row
(``np.vecdot``, ``np.matvec``), not a matrix product over the stack, whose
summation order differs. The callables are probed once, on one state and on
an (n + 1)-row stack of it, when a scenario is built or an estimation
starts; every evaluation after that is plain arithmetic on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InfeasibleFilterError

__all__ = [
    "ClassKappa",
    "ControlAffineDynamics",
    "BarrierFunction",
    "lie_derivatives",
]


@dataclass(frozen=True)
class ClassKappa:
    """Linear comparison function alpha(r) = coef * r, coef > 0.

    Strictly increasing with alpha(0) = 0, and defined for all real r (it is
    odd), so it can be evaluated at negative barrier values outside the safe
    set.
    """

    coef: float = 1.0

    def __post_init__(self):
        if not (self.coef > 0.0 and math.isfinite(self.coef)):
            raise ConfigurationError(
                f"class-K coefficient must be finite and > 0, got {self.coef}"
            )

    def __call__(self, r: float) -> float:
        return self.coef * r

    def inverse(self, v: float) -> float:
        """Solve alpha(r) = v for r."""
        return v / self.coef


@dataclass(frozen=True)
class ControlAffineDynamics:
    """Dynamics xdot = drift(x) + actuation(x) @ u.

    ``drift`` maps a state to an (n,) float array, ``actuation`` to an
    (n, m) matrix, and a (k, n) stack to (k, n) and (k, n, m) (see the batch
    contract above). An actuation that returns its (n, m) matrix on a stack
    too does not depend on the state: a sample-and-hold run computes its
    input term once per hold segment and adds it at each RK4 stage. The
    shapes are checked once, when a scenario is built or an estimation
    starts, so a mis-sized callable fails loudly there rather than
    broadcasting mid-run.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    actuation: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError(f"dynamics dimensions must be >= 1, got n={self.n}, m={self.m}")

    def rate(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """State derivative under input u: at one state (n,) or at each row of
        a (k, n) stack, under one input (m,) or one input per row (k, m).

        Each row is one matrix-vector product (``np.matvec``), so a stack
        equals its rows evaluated alone bit for bit, and one state equals
        ``actuation(x) @ u``.
        """
        return self.drift(x) + np.matvec(self.actuation(x), u)


@dataclass(frozen=True)
class BarrierFunction:
    """Scalar barrier h with its gradient. Safe set: h(x) >= 0.

    On a (k, n) stack the value is (k,) and the gradient (k, n)."""

    value: Callable[[np.ndarray], float | np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]


def lie_derivatives(
    dyn: ControlAffineDynamics, barrier: BarrierFunction, x: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Directional derivatives of h along the drift and actuation fields.

    Returns ``(lfh, lgh)`` where ``lfh`` is a scalar and ``lgh`` has shape
    (m,), so the barrier derivative under input u is ``lfh + lgh @ u``; on
    a (k, n) stack they are (k,) and (k, m). Each row is one BLAS dot, as
    in ``grad @ f`` and ``grad @ g``, so a stack reproduces the single-state
    values bit for bit.
    """
    grad = barrier.gradient(x)
    lfh = np.vecdot(grad, dyn.drift(x))
    lgh = np.vecdot(grad[..., None], dyn.actuation(x), axis=-2)
    return lfh, lgh


def _probe_stacked(what: str, fn: Callable, stack: np.ndarray, target: tuple[int, ...]) -> None:
    """Evaluate fn on the probe stack; its output must broadcast to target."""
    rows = f"{len(stack)}-row stack"
    try:
        out = np.asarray(fn(stack), dtype=float)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigurationError(
            f"{what} failed on a {rows} of states ({type(exc).__name__}: {exc}); "
            "callables must accept a (k, n) stack"
        ) from exc
    try:
        broadcasts = np.broadcast_shapes(out.shape, target) == target
    except ValueError:
        broadcasts = False
    if not broadcasts:
        raise ConfigurationError(
            f"{what} returned shape {out.shape} on a {rows}, expected {target}"
        )


def _probe_shapes(
    dyn: ControlAffineDynamics,
    barrier: BarrierFunction,
    x,
    controller: Callable[[np.ndarray], np.ndarray],
) -> None:
    """Check, at one state and on an (n + 1)-row stack of it, every shape
    the evaluation path relies on.

    The state must be (n,), the barrier gradient and the drift (n,), the
    actuation (n, m) and the controller's input (m,). On the stack every
    output must broadcast to its stacked shape (see the batch contract),
    which rejects a callable that reduces its input to one float. The stack
    has n + 1 rows so that it is never square: a drift written ``A @ x``
    instead of ``x @ A.T`` fails here rather than mid-estimation. A
    controller that wraps a nominal law (a filter, or a boosted law built
    from one) exposes it as ``nominal``, and that law is checked first. A
    filter infeasible at x is not a shape error; the run reports it with its
    time and state. Raises ``ConfigurationError`` naming the mis-sized
    callable.
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
    k = n + 1
    stack = np.tile(x, (k, 1))
    _probe_stacked("barrier value", barrier.value, stack, (k,))
    _probe_stacked("barrier gradient", barrier.gradient, stack, (k, n))
    _probe_stacked("drift", dyn.drift, stack, (k, n))
    _probe_stacked("actuation", dyn.actuation, stack, (k, n, m))
    for what, law in (
        ("nominal controller", getattr(controller, "nominal", None)),
        ("controller", controller),
    ):
        if law is None:
            continue
        try:
            u = np.atleast_1d(np.asarray(law(x), dtype=float))
            if u.shape != (m,):
                raise ConfigurationError(f"{what} returned shape {u.shape}, expected ({m},)")
            _probe_stacked(what, law, stack, (k, m))
        except InfeasibleFilterError:
            return
