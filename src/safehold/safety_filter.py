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
boundary and fades to nothing deep inside the safe set. The tuning,
``TunableControllerConfig``, is that sigmoid gain: calling it at a barrier
value gives the gain there.

When the plant's drift, the barrier and the nominal law each give their
float form (``scalar_drift``, ``scalar_form``, ``scalar_law``; see the
batch contract in ``cbf_core``) and the actuation does not depend on the
state, the filter and the boosted law give one too, from ``float_law``:
one state's n coordinates in, the input out as a float. It does the array
law's operations in the array law's order on the same values, so the two
agree bit for bit, on any plant. Its two Lie derivatives are the
gradient's products with the drift and with the actuation column, summed
in index order from 0.0 on Python floats, as ``lie_derivatives`` sums one
state (``cbf_core._index_sum``); no BLAS call is made. The law is generated
as Python source (``_FLOAT_LAW``): each float form that is straight-line
arithmetic is recorded and written into it (see ``safehold._kernel``), and
any other is called. Only a periodic held run samples it, in its RK4 kernel
(see ``simulator``); every other sample calls the array law.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cbf_core import (
    BarrierFunction,
    ClassKappa,
    ControlAffineDynamics,
    lie_derivatives,
)
from ._kernel import _recorded, _source
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
    input count. ``scalar_law``, when given, is the law for one input on
    one state's n coordinates as floats, returning that input as a float,
    bit for bit. Its shape, and that equality, are checked once, with the
    plant's, before a run or an estimation starts."""

    law: Callable[[np.ndarray], np.ndarray]
    scalar_law: Callable[..., float] | None = None

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

    def float_law(self, x: np.ndarray) -> Callable[..., float] | None:
        """The filter on plain floats, or None when a float form is missing
        or the actuation, evaluated on a 2-row stack of the state x,
        depends on the state (see the module docstring)."""
        return _float_law(self, None, x)


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
            _infeasible(np.broadcast_to(lfh, rows.shape)[first],
                        np.broadcast_to(a_h, rows.shape)[first]),
            state=x[first],
        )
    # Rows with lg == 0 are inactive by now; they divide by 1, not by 0.
    u_star = ((-a_h - lfh) / (lg + blind))[..., None]
    if active.ndim and not active.all():
        return np.where(active[..., None], u_star, u_des)
    return u_star


def _infeasible(lfh, a_h) -> str:
    return (
        "barrier constraint infeasible: input has no authority over the "
        "barrier here and the drift violates the decrease condition "
        f"(lfh={lfh:.6g}, alpha(h)={a_h:.6g})"
    )


# The filter's float law for one state of n coordinates: ``_filtered``'s
# steps and ``TunableControllerConfig.__call__``'s, in their order, on
# Python floats. ``make`` binds the float forms, the one input's actuation
# column g, the decrease rate and, for the boosted law, the tuning. The Lie
# derivatives are the gradient's products with the drift and with g summed
# in index order from 0.0, as ``cbf_core._index_sum`` sums them (``sum()``
# would not do: from Python 3.12 it compensates its rounding).
# ``_kernel._source`` writes each stage line ($) as the recorded operations
# of its form, or as a call of it, and each {...} once per coordinate.
_FLOAT_LAW = """
def make(barrier, drift, nominal, g, coef, tuning):
    {G#} = g
    if tuning is not None:
        sharpness, delta, half_band = tuning.sharpness, tuning.delta, 0.5 * tuning.band
        epsilon = tuning.epsilon

    def law({x#}):
        $h, d# = barrier(x#)
        $f# = drift(x#)
        lfh = 0.0 + {d# * f#| + }
        lg = 0.0 + {d# * G#| + }
        $u = nominal(x#)
        a_h = coef * h
        slack = lfh + lg * u + a_h
        if slack < 0.0 or slack != slack:  # nan counts as violated
            if lg == 0.0:
                raise InfeasibleFilterError(_infeasible(lfh, a_h), state=np.array(({x#})))
            u = (-a_h - lfh) / lg
        if tuning is None:
            return u
        z = sharpness * (h - delta - half_band)
        if z > _EXP_SATURATION:
            z = _EXP_SATURATION
        return u + 1.0 / (epsilon * (1.0 + math.exp(z))) * lg

    return law
"""


def _float_law(
    filt: CbfQpFilter, tuning: TunableControllerConfig | None, x: np.ndarray
) -> Callable[..., float] | None:
    """``_filtered``, boosted by ``tuning`` when given, on plain floats (see
    ``_FLOAT_LAW``), with each float form that records at x written in and
    the others called; None when a float form is missing or the actuation
    on a 2-row stack of x keeps the stack axis."""
    barrier, drift = filt.barrier.scalar_form, filt.dynamics.scalar_drift
    nominal = getattr(filt.nominal, "scalar_law", None)
    if drift is None or barrier is None or nominal is None:
        return None
    g = np.asarray(filt.dynamics.actuation(np.tile(x, (2, 1))), dtype=float)
    if g.ndim != 2:
        return None
    # The nominal law returns its one input; as a 1-tuple it is written in,
    # or called, as the other forms are.
    forms = (barrier, drift, lambda *coords: (nominal(*coords),))
    n = filt.dynamics.n
    bodies = tuple(_recorded(form, x, size) for form, size in zip(forms, (n + 1, n, 1)))
    return _law_maker(n, bodies)(*forms, g[:, 0].tolist(), filt.alpha.coef, tuning)


@functools.cache
def _law_maker(n: int, bodies: tuple):
    """``_FLOAT_LAW``'s ``make`` for n coordinates and the recorded bodies
    of the barrier, drift and nominal forms (None for one that is called),
    generated on first use and kept for the process, as
    ``_kernel._float_rows`` keeps its kernels."""
    namespace = {
        "math": math, "np": np, "InfeasibleFilterError": InfeasibleFilterError,
        "_infeasible": _infeasible, "_EXP_SATURATION": _EXP_SATURATION,
    }
    exec(_source(_FLOAT_LAW, n, dict(zip(("barrier", "drift", "nominal"), bodies))), namespace)
    return namespace["make"]


def tunable_control(
    filt: CbfQpFilter, tuning: TunableControllerConfig, x: np.ndarray
) -> np.ndarray:
    """Filtered input plus the sigmoid-gated gradient push, at one state or
    a stack. The filter and the push share one Lie-derivative evaluation."""
    lfh, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
    h = filt.barrier.value(x)
    return _filtered(filt, x, lfh, lgh, h) + tuning(h)[..., None] * lgh


# Exponent magnitude beyond which the sigmoid is numerically saturated.
_EXP_SATURATION = 700.0

# The C library's exp, element by element. numpy's vectorized exp differs
# from it in the last bit on a few percent of arguments, so with it the gain
# on a stack would differ from the gain at one state, and from the
# single-state values the pinned runs were recorded with.
_libm_exp = np.frompyfunc(math.exp, 1, 1)


@dataclass(frozen=True)
class TunableControllerConfig:
    """Tuning of the boosted controller and its certificate, and the
    decreasing sigmoid gain that gates the boost.

    c amplifies the barrier decrease rate used by the event trigger, and
    margin is the descent budget d the hold period is sized against. The
    gain plateaus at 1/epsilon for barrier values below ``delta``, falls
    across the band ``(delta, delta + band)``, and is numerically zero above
    it. ``sharpness`` controls how fast the transition happens; the default
    200/band keeps the plateaus flat to better than 1e-8/epsilon outside the
    band.
    """

    c: float
    delta: float
    band: float
    epsilon: float
    margin: float
    sharpness: float | None = None

    def __post_init__(self):
        for name in ("c", "margin", "epsilon", "delta", "band"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ConfigurationError(f"{name} must be > 0 and finite, got {v}")
        if self.sharpness is None:
            object.__setattr__(self, "sharpness", 200.0 / self.band)
        elif not (self.sharpness > 0.0 and math.isfinite(self.sharpness)):
            raise ConfigurationError(f"sharpness must be > 0 and finite, got {self.sharpness}")

    def __call__(self, r):
        """Gain at barrier value(s) r, a float or an array."""
        z = self.sharpness * (r - self.delta - 0.5 * self.band)
        # Only the upper clip matters: below -37, 1 + exp(z) rounds to 1.
        z = np.minimum(z, _EXP_SATURATION)
        return 1.0 / (self.epsilon * (1.0 + np.asarray(_libm_exp(z), dtype=float)))

    @property
    def slope_bound(self) -> float:
        """Largest magnitude of the gain's derivative, attained mid-band."""
        return self.sharpness / (4.0 * self.epsilon)

    @property
    def sigmoid(self) -> TunableControllerConfig:
        """The tuning itself, which is the gain. Kept only because the
        benchmark's probes read it; it goes with the next benchmark change,
        as ``acc_benchmark.build_scenario`` does."""
        return self

    def controller(self, filt: CbfQpFilter) -> Callable[[np.ndarray], np.ndarray]:
        """Boosted control law as a plain state-to-input callable."""

        def law(x: np.ndarray) -> np.ndarray:
            return tunable_control(filt, self, x)

        # Lets the shape probe check the nominal law behind the boost, and
        # a periodic held run sample the law on floats.
        law.nominal = filt.nominal
        law.float_law = lambda x: _float_law(filt, self, x)
        return law
