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
input term once per sample, not at every RK4 stage. A plant may also give
its drift on plain floats, as ``scalar_drift``: one state's n coordinates
in, its n rates out, with ``drift``'s operations in ``drift``'s order, so
that the two agree bit for bit (Python floats round like numpy float64).
The simulator records a ``scalar_drift`` that is straight-line arithmetic
(+, -, *, / and unary - on its arguments and finite float constants, with
no branch, cast or function call on a value) and writes its operations into
the RK4 kernel of held runs; so its side effects run when it is recorded,
on stand-in arguments and at the start state of each run, not at each
stage. Any other drift is called at each stage. ``sum()`` is out of this
contract: from Python 3.12 it compensates its rounding on floats, so it
does not round as the recorded additions do. A barrier may give its value
and gradient so, as ``scalar_form`` (n coordinates in, h and its n partial
derivatives out), and a nominal law its one input, as ``scalar_law``;
with all three and a state-independent actuation, the filter and the
boosted law give a float law too, which a periodic held run samples in its
RK4 kernel (see ``safety_filter`` and ``simulator``). Reading the i-th
coordinate as ``x.T[i]`` serves both shapes at the single-state cost. The
certification stages evaluate whole stacks, one call each; the simulator
evaluates the event trigger and the recorded barrier columns on stacks of
the integrated states. When the callables compute each row as they would
alone, a stacked call equals the row-by-row single calls bit for bit. The
library's own reductions keep that. Each Lie-derivative row is the sum of
its n products in index order from 0.0, with no BLAS call (see
``lie_derivatives``): on Python floats for one state and for the float
laws, column by column on a stack. A rate's input term is one
matrix-vector product per row (``np.matvec``), and a barrier rate's
``lgh . u`` one dot per row (``np.vecdot``). None is a matrix product over
the stack, whose summation order differs. The callables are probed once,
on one state and on an (n + 1)-row stack of it, when a scenario is built
or an estimation starts; no evaluation after that checks a shape, on
arrays or on floats.
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
    input term once per sample and adds it at each RK4 stage.
    ``scalar_drift``, when given, is ``drift`` on one state's n coordinates
    as floats, bit for bit (see the batch contract above); held runs under
    a state-independent actuation compute it at each RK4 stage, written
    into the kernel when it is straight-line arithmetic and called
    otherwise, in place of ``drift`` on an (n,) array, and the filter's
    float law calls it at each sample of a periodic run; under a
    state-dependent one they call ``rate`` on an (n,) array. The shapes,
    and that equality, are checked once, when a scenario is built or an
    estimation starts, so a mis-sized callable fails loudly there rather
    than broadcasting mid-run.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    actuation: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int
    scalar_drift: Callable[..., tuple] | None = None

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

    On a (k, n) stack the value is (k,) and the gradient (k, n).
    ``scalar_form``, when given, is both on one state's n coordinates as
    floats: it returns ``(h, dh/dx_0, ..., dh/dx_{n-1})``, equal to
    ``value`` and ``gradient`` bit for bit, which the shape probe checks
    once. The filter's float law evaluates the barrier through it."""

    value: Callable[[np.ndarray], float | np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    scalar_form: Callable[..., tuple] | None = None


def lie_derivatives(
    dyn: ControlAffineDynamics, barrier: BarrierFunction, x: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Directional derivatives of h along the drift and actuation fields.

    Returns ``(lfh, lgh)`` where ``lfh`` is a scalar and ``lgh`` has shape
    (m,), so the barrier derivative under input u is ``lfh + lgh @ u``; on
    a (k, n) stack they are (k,) and (k, m). Each row of ``grad . f`` and
    of ``grad . g``'s columns is the sum of its n elementwise products in
    index order, starting from 0.0: ``((0.0 + p0) + p1) + ...``, with no
    BLAS call. ``_index_sum`` takes every such sum: on one state's Python
    floats, as the filter's float law does, and on a stack column by
    column, accumulating in place. So a stack reproduces the single-state
    values bit for bit, and the float law the array law, whatever the
    products round to.
    """
    grad = np.asarray(barrier.gradient(x))
    f = np.asarray(dyn.drift(x))
    g = np.asarray(dyn.actuation(x))
    if x.ndim == 1:
        grad = grad.tolist()
        lgh = [_index_sum(grad, column) for column in g.T.tolist()]
        return _index_sum(grad, f.tolist()), np.array(lgh)
    # Row i of a transposed field holds coordinate i of every state, as
    # x.T[i] does; a field without a stack axis (one that does not depend on
    # the state) gives rows that broadcast. The actuation's coordinate axis
    # is moved first.
    grad = grad.T
    return _index_sum(grad, f.T), _index_sum(grad[..., None], g.swapaxes(0, -2))


def _index_sum(a, b):
    """The sum of the products a[i] * b[i], in index order from 0.0.

    On float sequences it is a float. On arrays, a[i] and b[i] are rows
    of the first axis and the sum is taken elementwise (broadcast) over the
    rest: 0.0 plus the first product is a new array, and every later
    product is added to it in place. ``sum()`` would not do on floats: from
    Python 3.12 it compensates its rounding.
    """
    s = 0.0
    for p, q in zip(a, b):
        s += p * q
    return s


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


def _probe_float(what: str, form: Callable, x: np.ndarray, source: str, want) -> None:
    """A float form at x's n coordinates must return ``want``'s floats bit
    for bit."""
    want = np.asarray(want, dtype=float).reshape(-1)
    try:
        got = np.array(form(*x.tolist()), dtype=float).reshape(-1)
    except (TypeError, ValueError, ArithmeticError, InfeasibleFilterError) as exc:
        raise ConfigurationError(
            f"{what} failed on the {len(x)} coordinates of a state "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if got.tobytes() != want.tobytes():
        raise ConfigurationError(
            f"{what} returned {got.tolist()}, expected {source}'s {want.tolist()} bit for bit"
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
    actuation (n, m) and the controller's input (m,); a ``scalar_drift``
    must return the drift's n rates bit for bit, a barrier's
    ``scalar_form`` its value and gradient, a nominal law's ``scalar_law``
    that law's input, and a controller's float law at x (its ``float_law``,
    built from the controller's own forms) the controller's input. On the
    stack every
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
    if dyn.scalar_drift is not None:
        _probe_float("scalar_drift", dyn.scalar_drift, x, "drift", f)
    if barrier.scalar_form is not None:
        h = np.asarray(barrier.value(x), dtype=float)
        _probe_float("barrier scalar_form", barrier.scalar_form, x, "value and gradient",
                     np.append(h, grad))
    g = np.asarray(dyn.actuation(x), dtype=float)
    if g.shape != (n, m):
        raise ConfigurationError(f"actuation returned shape {g.shape}, expected ({n}, {m})")
    k = n + 1
    stack = np.tile(x, (k, 1))
    _probe_stacked("barrier value", barrier.value, stack, (k,))
    _probe_stacked("barrier gradient", barrier.gradient, stack, (k, n))
    _probe_stacked("drift", dyn.drift, stack, (k, n))
    _probe_stacked("actuation", dyn.actuation, stack, (k, n, m))
    nominal = getattr(controller, "nominal", None)
    for what, law in (("nominal controller", nominal), ("controller", controller)):
        if law is None:
            continue
        try:
            u = np.atleast_1d(np.asarray(law(x), dtype=float))
            if u.shape != (m,):
                raise ConfigurationError(f"{what} returned shape {u.shape}, expected ({m},)")
            form = getattr(law, "scalar_law", None)
            if form is not None:
                _probe_float("nominal scalar_law", form, x, what, u)
            factory = getattr(law, "float_law", None)
            form = factory(x) if factory is not None else None
            if form is not None:
                _probe_float("controller float law", form, x, what, u)
            _probe_stacked(what, law, stack, (k, m))
        except InfeasibleFilterError:
            return
