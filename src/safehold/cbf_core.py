"""Core barrier-function machinery for control-affine systems.

The safe set is the zero superlevel set of a barrier function h, and all
safety reasoning runs through two ingredients defined here:

* a linear class-K comparison function, extended to negative arguments so
  it can certify recovery from outside the safe set,
* Lie derivatives of h along control-affine dynamics, which turn a control
  choice into a barrier derivative.

The sigmoid gain that boosts control effort near the boundary is the boosted
controller's tuning, ``safety_filter.TunableControllerConfig``.

Batch contract. The plant's drift, the barrier and the nominal law are each
written once, on coordinates, as a form: a function of one state's n
coordinates. The drift form returns the n rates, the barrier form
``(h, dh/dx_0, ..., dh/dx_{n-1})`` and the nominal form the one input.
Each is written with +, -, * and / (and functions that act elementwise), so
that it computes the same floats on Python floats, on numpy scalars and on
(k,) rows. ``ControlAffineDynamics.drift``, ``BarrierFunction.value`` and
``gradient``, and ``NominalController`` derive the array forms from it:
they evaluate the form on ``x.T``'s rows, which are floats for one state,
shape (n,), and (k,) rows for a stack of k states, shape (k, n), and write
output i into column i of a new array, so that an output that does not
depend on the state (the constant 1.0 of a gradient, say) broadcasts. On a
stack the drift is (k, n), the barrier value (k,), its gradient (k, n),
and the nominal law, the filter and the boosted law (k, m). The actuation
stays an array callable: (n, m) at one state, and (k, n, m) on a stack or
(n, m) as is, which declares it state-independent (``_fixed_actuation``);
the simulator's sample-and-hold loop then computes its input term once per
sample, not at every RK4 stage.

The simulator records a drift form that is straight-line arithmetic (+, -,
*, / and unary - on its arguments and finite float constants, with no
branch, cast or function call on a value) and writes its operations into
the RK4 kernel of held runs; so its side effects run when it is recorded,
on stand-in arguments and at the start state of each run, not at each
stage. Any other drift form is called at each stage on Python floats.
``sum()`` is out of this contract: from Python 3.12 it compensates its
rounding on floats, so it does not round as the recorded additions do.
Under a state-independent actuation the filter and the boosted law give a
float law built from the three forms, which a periodic held run samples in
its RK4 kernel (see ``safety_filter`` and ``simulator``). The
certification stages evaluate whole stacks, one call each; the simulator
evaluates the event trigger and the recorded barrier columns on stacks of
the integrated states. A form evaluated on rows computes each row as it
would alone, so a stacked call equals the row-by-row single calls bit for
bit. The library's own reductions keep that. Each Lie-derivative row is
the sum of its n products in index order from 0.0, with no BLAS call (see
``lie_derivatives``): on Python floats for one state and for the float
laws, column by column on a stack. A rate's input term is one
matrix-vector product per row (``np.matvec``), and a barrier rate's
``lgh . u`` one dot per row (``np.vecdot``). None is a matrix product over
the stack, whose summation order differs. The forms and callables are
probed once, on one state and on an (n + 1)-row stack of it, when a
scenario is built or an estimation starts; no evaluation after that checks
a shape, on arrays or on floats.
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

    ``drift_form`` is the drift on one state's n coordinates: n floats in,
    the n rates out (see the batch contract above); ``drift`` evaluates it
    on arrays. ``actuation`` maps a state to an (n, m) matrix and a (k, n)
    stack to (k, n, m); one that returns its (n, m) matrix on a stack too
    does not depend on the state, and a sample-and-hold run computes its
    input term once per sample and adds it at each RK4 stage, to the drift
    form's rates on floats. Under a state-dependent one the stages call
    ``rate`` on an (n,) array. The forms' output counts and the shapes are
    checked once, when a scenario is built or an estimation starts, so a
    mis-sized form or callable fails loudly there rather than broadcasting
    mid-run.
    """

    drift_form: Callable[..., tuple]
    actuation: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError(f"dynamics dimensions must be >= 1, got n={self.n}, m={self.m}")

    def drift(self, x: np.ndarray) -> np.ndarray:
        """The drift at one state (n,), or at each row of a (k, n) stack."""
        return _columns(self.drift_form(*x.T), x)

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

    ``form`` is both on one state's n coordinates: it returns ``(h,
    dh/dx_0, ..., dh/dx_{n-1})``. ``value`` and ``gradient`` evaluate it on
    arrays: on a (k, n) stack the value is (k,) and the gradient (k, n)."""

    form: Callable[..., tuple]

    def value(self, x: np.ndarray) -> float | np.ndarray:
        """h at one state, a float, or at each row of a stack, (k,)."""
        h = np.empty(x.shape[:-1])
        h[...] = self.form(*x.T)[0]
        return h[()]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """dh/dx at one state (n,), or at each row of a stack (k, n)."""
        return _columns(self.form(*x.T)[1:], x)


def _columns(outputs, x: np.ndarray) -> np.ndarray:
    """A form's outputs, evaluated on the rows of x.T, as the columns of a
    new array: (len(outputs),) for one state, (k, len(outputs)) for a (k, n)
    stack. Each output is a float for one state and a (k,) row for a stack,
    or a constant, which broadcasts down its column. The array is
    C-ordered, so that each row of a stack lies in memory as that state's
    output alone does, and a reduction over rows (``np.vecdot``, as in
    ``constants._row_norms``) sums each row as it sums that state."""
    out = np.empty(x.shape[:-1] + (len(outputs),))
    columns = out.T
    for i, column in enumerate(outputs):
        columns[i] = column
    return out


def _fixed_actuation(dyn: ControlAffineDynamics, x: np.ndarray) -> np.ndarray | None:
    """The actuation's (n, m) matrix when it does not depend on the state,
    else None. It is evaluated once, on a 2-row stack of the state x: an
    output without a stack axis declares itself state-independent (see the
    batch contract above)."""
    g = np.asarray(dyn.actuation(np.tile(x, (2, 1))), dtype=float)
    return g if g.ndim == 2 else None


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
    grad, f, g = barrier.gradient(x), dyn.drift(x), np.asarray(dyn.actuation(x))
    if x.ndim == 1:
        grad = grad.tolist()
        lgh = [_index_sum(grad, column) for column in g.T.tolist()]
        return _index_sum(grad, f.tolist()), np.array(lgh)
    # Row i of a transposed field holds coordinate i of every state, as
    # x.T[i] does; an actuation without a stack axis (one that does not
    # depend on the state) gives rows that broadcast. The actuation's
    # coordinate axis is moved first.
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
            "forms must take (k,) rows, and callables a (k, n) stack"
        ) from exc
    try:
        broadcasts = np.broadcast_shapes(out.shape, target) == target
    except ValueError:
        broadcasts = False
    if not broadcasts:
        raise ConfigurationError(
            f"{what} returned shape {out.shape} on a {rows}, expected {target}"
        )


def _probe_count(what: str, form: Callable, x: np.ndarray, size: int) -> None:
    """A form at x's n coordinates, as floats, must return size values."""
    try:
        count = len(form(*x.tolist()))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigurationError(
            f"{what} failed on the {len(x)} coordinates of a state "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if count != size:
        raise ConfigurationError(f"{what} returned {count} values, expected {size}")


def _probe_float_law(law: Callable, x: np.ndarray, want: np.ndarray) -> None:
    """A controller's float law at x's n coordinates must return the
    controller's input ``want`` bit for bit: a form that calls a numpy
    function can round otherwise on floats than on arrays."""
    try:
        got = np.array([law(*x.tolist())], dtype=float)
    except (TypeError, ValueError, ArithmeticError, InfeasibleFilterError) as exc:
        raise ConfigurationError(
            f"controller float law failed on the {len(x)} coordinates of a state "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if got.tobytes() != want.tobytes():
        raise ConfigurationError(
            f"controller float law returned {got.tolist()}, expected controller's "
            f"{want.tolist()} bit for bit"
        )


def _probe_shapes(
    dyn: ControlAffineDynamics,
    barrier: BarrierFunction,
    x,
    controller: Callable[[np.ndarray], np.ndarray],
) -> None:
    """Check, at one state and on an (n + 1)-row stack of it, every shape
    the evaluation path relies on.

    The state must be (n,), and at its coordinates the drift form must
    return n values and the barrier form n + 1; the actuation must be
    (n, m), the controller's input (m,), and a controller's float law at x
    (its ``float_law``, built from the controller's own forms) the
    controller's input bit for bit. On the stack every array form and
    callable must run and its output broadcast to its stacked shape (see
    the batch contract), which rejects a form that cannot take rows. The
    stack has n + 1 rows so that it is never square: an actuation written
    for one state fails here rather than mid-estimation. A controller that
    wraps a nominal law (a filter, or a boosted law built from one) exposes
    it as ``nominal``, and that law is checked first. A filter infeasible
    at x is not a shape error; the run reports it with its time and state.
    Raises ``ConfigurationError`` naming the mis-sized form or callable.
    """
    n, m = dyn.n, dyn.m
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ConfigurationError(f"state has shape {x.shape}, expected ({n},)")
    _probe_count("drift form", dyn.drift_form, x, n)
    _probe_count("barrier form", barrier.form, x, n + 1)
    g = np.asarray(dyn.actuation(x), dtype=float)
    if g.shape != (n, m):
        raise ConfigurationError(f"actuation returned shape {g.shape}, expected ({n}, {m})")
    k = n + 1
    stack = np.tile(x, (k, 1))
    _probe_stacked("barrier form", barrier.value, stack, (k,))
    _probe_stacked("barrier form", barrier.gradient, stack, (k, n))
    _probe_stacked("drift form", dyn.drift, stack, (k, n))
    _probe_stacked("actuation", dyn.actuation, stack, (k, n, m))
    nominal = getattr(controller, "nominal", None)
    for what, law in (("nominal controller", nominal), ("controller", controller)):
        if law is None:
            continue
        try:
            u = np.atleast_1d(np.asarray(law(x), dtype=float))
            if u.shape != (m,):
                raise ConfigurationError(f"{what} returned shape {u.shape}, expected ({m},)")
            factory = getattr(law, "float_law", None)
            float_law = factory(x) if factory is not None else None
            if float_law is not None:
                _probe_float_law(float_law, x, u)
            _probe_stacked(what, law, stack, (k, m))
        except InfeasibleFilterError:
            return
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{what} failed at a state ({type(exc).__name__}: {exc})"
            ) from exc
