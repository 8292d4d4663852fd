"""Barrier primitives: class-K maps, the sigmoid gate, Lie derivatives,
the one-time shape probe, and the decrease-condition algebra."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from safehold.cbf_core import (
    BarrierFunction,
    ClassKappa,
    ControlAffineDynamics,
    lie_derivatives,
)
from safehold.acc_benchmark import acc_barrier, acc_dynamics, approach_region
from safehold.constants import OperatingRegion, certify_region
from safehold.errors import ConfigurationError
from safehold.safety_filter import CbfQpFilter, NominalController, TunableControllerConfig
from safehold.simulator import HoldSchedule, IntegratorConfig, Scenario, trigger_value


# ---------------------------------------------------------------------------
# class-K maps


class TestClassKappa:
    def test_zero_at_zero(self):
        for alpha in (ClassKappa(3.0), ClassKappa(0.7)):
            assert alpha(0.0) == 0.0

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(-5.0, 5.0, 1000)
        for alpha in (ClassKappa(0.5), ClassKappa(2.0)):
            vals = [alpha(r) for r in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_odd_extension(self):
        for alpha in (ClassKappa(2.0), ClassKappa(1.3)):
            for r in (0.25, 1.0, 4.0):
                assert alpha(-r) == -alpha(r)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for alpha in (ClassKappa(2.0), ClassKappa(0.4)):
            for r in rng.uniform(-10.0, 10.0, 50):
                assert alpha.inverse(alpha(r)) == pytest.approx(r, abs=1e-12)

    def test_linear_hand_values(self):
        alpha = ClassKappa(2.0)
        assert alpha(3.0) == 6.0
        assert alpha.inverse(-6.0) == -3.0

    def test_invalid_coef(self):
        with pytest.raises(ConfigurationError):
            ClassKappa(-1.0)
        with pytest.raises(ConfigurationError):
            ClassKappa(0.0)


# ---------------------------------------------------------------------------
# sigmoid gate


def _gain(epsilon: float, delta: float, band: float, sharpness: float | None = None):
    """A tuning used as its sigmoid gain; c and margin do not enter the gain."""
    return TunableControllerConfig(
        c=1.0, delta=delta, band=band, epsilon=epsilon, margin=1.0, sharpness=sharpness,
    )


class TestSigmoidGain:
    def test_midpoint_is_half_plateau(self):
        g = _gain(epsilon=0.5, delta=1.0, band=2.0)
        # exact: the exponent is zero at delta + band/2
        assert g(2.0) == 1.0 / (2.0 * 0.5)

    def test_saturations(self):
        g = _gain(epsilon=0.25, delta=1.0, band=0.5)
        assert abs(g(0.0) - 1.0 / 0.25) <= 1e-8 / 0.25
        assert abs(g(10.0)) <= 1e-8 / 0.25

    def test_envelope_and_monotone(self):
        g = _gain(epsilon=2.0, delta=0.3, band=1.2)
        grid = np.linspace(-4.0, 8.0, 1000)
        vals = [g(r) for r in grid]
        assert all(0.0 <= v <= 1.0 / 2.0 for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_extreme_arguments_do_not_overflow(self):
        g = _gain(epsilon=1.0, delta=1.0, band=1.0, sharpness=1e6)
        assert g(-1e9) == 1.0
        far = g(1e9)
        assert math.isfinite(far) and 0.0 <= far < 1e-300

    def test_default_sharpness_and_derived_properties(self):
        g = _gain(epsilon=0.5, delta=1.0, band=2.0)
        assert g.sharpness == 200.0 / 2.0
        # far below the band the gain is exactly its plateau 1/epsilon
        assert g(-1e3) == 2.0
        assert g.slope_bound == g.sharpness / (4.0 * 0.5)

    def test_slope_bound_dominates_measured_slope(self):
        g = _gain(epsilon=0.7, delta=0.2, band=3.0)
        grid = np.linspace(-2.0, 8.0, 2000)
        vals = np.array([g(r) for r in grid])
        slopes = np.abs(np.diff(vals) / np.diff(grid))
        assert slopes.max() <= g.slope_bound * (1.0 + 1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            _gain(epsilon=0.0, delta=1.0, band=1.0)
        with pytest.raises(ConfigurationError):
            _gain(epsilon=1.0, delta=-1.0, band=1.0)
        with pytest.raises(ConfigurationError):
            _gain(epsilon=1.0, delta=1.0, band=0.0)
        with pytest.raises(ConfigurationError):
            _gain(epsilon=1.0, delta=1.0, band=1.0, sharpness=-5.0)


# ---------------------------------------------------------------------------
# Lie derivatives


def _linear_system() -> tuple[ControlAffineDynamics, BarrierFunction]:
    """xdot = A x + B u with A = [[0, 1], [-2, -3]] and B = (0, 1), and
    h = c . x with c = (1, 0.5)."""
    B = np.array([[0.0], [1.0]])
    dyn = ControlAffineDynamics(
        drift_form=lambda a, b: (b, -2.0 * a - 3.0 * b), actuation=lambda x: B, n=2, m=1,
    )
    barrier = BarrierFunction(form=lambda a, b: (a + 0.5 * b, 1.0, 0.5))
    return dyn, barrier


class TestLieDerivatives:
    def test_acc_actuation_row(self):
        dyn, barrier = acc_dynamics(), acc_barrier()
        x = np.array([0.0, 10.0, 200.0])
        _, lgh = lie_derivatives(dyn, barrier, x)
        assert lgh.shape == (1,)
        assert lgh[0] == pytest.approx(-36.0 / 1650.0, rel=1e-12)

    def test_driftless_input_channel(self):
        dyn = ControlAffineDynamics(
            drift_form=lambda a, b: (b, 0.0 * a),
            actuation=lambda x: np.zeros((2, 1)),
            n=2, m=1,
        )
        barrier = BarrierFunction(form=lambda a, b: (a, 1.0, 0.0))
        lfh, lgh = lie_derivatives(dyn, barrier, np.array([1.0, 2.0]))
        assert lfh == 2.0
        assert np.all(lgh == 0.0)

    def test_linear_system_closed_form(self):
        dyn, barrier = _linear_system()
        x = np.array([0.5, -1.0])
        lfh, lgh = lie_derivatives(dyn, barrier, x)
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        c = np.array([1.0, 0.5])
        assert lfh == pytest.approx(float(c @ (A @ x)), rel=1e-14)
        assert lgh[0] == pytest.approx(0.5, rel=1e-14)

    def test_shape_errors_surface(self):
        # Mis-sized forms and callables fail once, when a scenario is built
        # or an estimation starts, before any run or estimation work; the
        # message names the form.
        good_barrier = BarrierFunction(form=lambda a, b: (a, 1.0, 0.0))
        good_dyn = ControlAffineDynamics(
            drift_form=lambda a, b: (0.0, 0.0), actuation=lambda x: np.zeros((2, 1)), n=2, m=1,
        )
        cases = {
            "drift form returned 3 values, expected 2": (dataclasses.replace(
                good_dyn, drift_form=lambda a, b: (0.0, 0.0, 0.0),
            ), good_barrier),
            "drift form returned 1 values, expected 2": (dataclasses.replace(
                good_dyn, drift_form=lambda a, b: (0.0,),
            ), good_barrier),
            "drift form failed on the 2 coordinates .*TypeError": (dataclasses.replace(
                good_dyn, drift_form=lambda a, b: 0.0,
            ), good_barrier),
            "actuation returned shape": (dataclasses.replace(
                good_dyn, actuation=lambda x: np.zeros((3, 2)),
            ), good_barrier),
            "barrier form returned 4 values, expected 3": (good_dyn, BarrierFunction(
                form=lambda a, b: (a, 1.0, 0.0, 0.0),
            )),
            "barrier form failed on the 2 coordinates .*ZeroDivisionError": (
                good_dyn, BarrierFunction(form=lambda a, b: (a, b / 0.0, 0.0)),
            ),
        }
        region = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        for message, (dyn, barrier) in cases.items():
            with pytest.raises(ConfigurationError, match=message):
                _probe_scenario(dyn, barrier, lambda x: np.zeros(1))
            with pytest.raises(ConfigurationError, match=message):
                certify_region(region, dyn, lambda x: np.zeros(1), barrier)
        with pytest.raises(ConfigurationError, match="controller returned shape"):
            _probe_scenario(good_dyn, good_barrier, lambda x: np.zeros(2))
        with pytest.raises(ConfigurationError, match="state has shape"):
            certify_region(
                OperatingRegion(lower=(0.0,), upper=(1.0,)),
                good_dyn, lambda x: np.zeros(1), good_barrier,
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_controller_float_law_must_equal_the_controller_bit_for_bit(self):
        # The float law runs the controller's forms on Python floats, where
        # the array law runs them on numpy's; it is checked once, at the
        # probed state, against the controller. There the nominal u = 10
        # violates the condition, so u* reads the drift: a drift form that
        # adds 0.5 on Python floats only, and one that divides by zero (which
        # raises on Python floats, where numpy's float64 gives inf), are
        # rejected, naming the float law.
        dyn = ControlAffineDynamics(
            drift_form=lambda a, b: (-0.3 * a, -0.3 * b), actuation=lambda x: np.ones((2, 1)),
            n=2, m=1,
        )
        barrier = BarrierFunction(form=lambda a, b: (4.0 - a, -1.0, 0.0))
        region = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        nominal = NominalController(form=lambda a, b: 10.0)
        filt = CbfQpFilter(dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0), nominal=nominal)
        tuning = TunableControllerConfig(c=1.0, delta=0.1, band=1.0, epsilon=1.0, margin=1.0)
        for controller in (filt, tuning.controller(filt)):
            _probe_scenario(dyn, barrier, controller)
        cases = {
            r"controller float law returned \[.*\], expected controller's .* bit for bit":
                lambda a, b: (-0.3 * a + (0.5 if type(a) is float else 0.0), -0.3 * b),
            r"controller float law failed on the 2 coordinates .*ZeroDivisionError":
                lambda a, b: (-0.3 * a / 0.0, -0.3 * b),
        }
        for message, form in cases.items():
            wrong = dataclasses.replace(filt, dynamics=dataclasses.replace(dyn, drift_form=form))
            for controller in (wrong, tuning.controller(wrong)):
                with pytest.raises(ConfigurationError, match=message):
                    _probe_scenario(dyn, barrier, controller)
                with pytest.raises(ConfigurationError, match=message):
                    certify_region(region, dyn, controller, barrier)

    def test_batch_contract_is_probed_before_any_work(self):
        # A barrier form that casts its argument to one float, branches on
        # it, or returns a column, cannot take (k,) rows; the probe rejects
        # it before the controller is ever called.
        dyn = ControlAffineDynamics(
            drift_form=lambda a, b: (0.0, 0.0), actuation=lambda x: np.ones((2, 1)), n=2, m=1,
        )
        region = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        cases = {
            r"barrier form failed on a 3-row stack .*TypeError": lambda a, b: (float(a), 1.0, 0.0),
            r"barrier form failed on a 3-row stack .*ValueError.*ambiguous":
                lambda a, b: (a if a > 0.0 else -a, 1.0, 0.0),
            r"barrier form failed on a 3-row stack .*ValueError.*broadcast":
                lambda a, b: (np.asarray(a)[..., None], 1.0, 0.0),
        }
        for message, form in cases.items():
            barrier = BarrierFunction(form=form)
            calls = []

            def controller(x):
                calls.append(x)
                return np.zeros(1)

            with pytest.raises(ConfigurationError, match=message):
                _probe_scenario(dyn, barrier, controller)
            with pytest.raises(ConfigurationError, match=message):
                certify_region(region, dyn, controller, barrier)
            assert calls == []

    def test_dynamics_dimensions_must_be_at_least_one(self):
        for n, m in ((0, 1), (2, 0)):
            with pytest.raises(ConfigurationError, match=f"must be >= 1, got n={n}, m={m}"):
                ControlAffineDynamics(drift_form=np.zeros, actuation=np.zeros, n=n, m=m)


def _probe_scenario(dyn, barrier, controller) -> Scenario:
    return Scenario(
        name="probe", dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        controller=controller, x0=(0.5,) * dyn.n,
        integrator=IntegratorConfig(horizon=1.0), schedule=HoldSchedule.continuous(),
    )


# ---------------------------------------------------------------------------
# decrease-condition margin: hdot + alpha(h), which is the trigger value with
# no amplification

# Oracle: lfh + lgh @ u must equal d/dt h(x(t)) along the held flow.
# Approximate that derivative by a short forward rollout and a central
# difference, entirely outside the Lie-derivative code path.


def _rollout_hdot(dyn, barrier, x, u, dt=1e-6):
    def step(x0, dt_):
        # RK4 on the frozen-input field, local to the oracle
        f = lambda s: dyn.drift(s) + dyn.actuation(s) @ u
        k1 = f(x0)
        k2 = f(x0 + 0.5 * dt_ * k1)
        k3 = f(x0 + 0.5 * dt_ * k2)
        k4 = f(x0 + dt_ * k3)
        return x0 + dt_ / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    h_plus = barrier.value(step(x, dt))
    h_minus = barrier.value(step(x, -dt))
    return (h_plus - h_minus) / (2.0 * dt)


class TestBarrierMargin:
    def test_matches_rollout_derivative(self):
        dyn, barrier = acc_dynamics(), acc_barrier()
        alpha = ClassKappa(1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = np.array([rng.uniform(0, 100), rng.uniform(5, 25), rng.uniform(50, 500)])
            u = np.array([rng.uniform(-2000.0, 2000.0)])
            lfh, lgh = lie_derivatives(dyn, barrier, x)
            hdot = _rollout_hdot(dyn, barrier, x, u)
            assert lfh + float(lgh @ u) == pytest.approx(hdot, abs=1e-4)
            margin = trigger_value(dyn, barrier, alpha, 0.0, x, u)
            assert margin - alpha(barrier.value(x)) == pytest.approx(hdot, abs=1e-4)

    def test_single_integrator_hand_value(self):
        dyn = ControlAffineDynamics(
            drift_form=lambda a: (0.0,), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a, 1.0))
        alpha = ClassKappa(1.0)
        # f = 0, g = 1, h = x1: margin at x1=2, u=0 is alpha(2) = 2
        assert trigger_value(dyn, barrier, alpha, 0.0, np.array([2.0]), np.array([0.0])) == 2.0

    def test_zero_on_boundary_with_balancing_input(self):
        dyn = ControlAffineDynamics(
            drift_form=lambda a: (1.0,), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a, 1.0))
        alpha = ClassKappa(1.0)
        # h = 0 and u cancels the drift: margin is exactly zero
        assert trigger_value(dyn, barrier, alpha, 0.0, np.array([0.0]), np.array([-1.0])) == 0.0


# ---------------------------------------------------------------------------
# amplified decrease term (1 + c) * alpha(h) inside the trigger value, and the
# expanded-set shift alpha^(-1)(-margin)


def _static_unit_barrier():
    """No drift, no actuation, h = x1: the trigger value is the amplified
    term alone."""
    dyn = ControlAffineDynamics(
        drift_form=lambda a: (0.0,), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
    )
    barrier = BarrierFunction(form=lambda a: (a, 1.0))
    return dyn, barrier


def _amplified(alpha: ClassKappa, c: float, r: float) -> float:
    dyn, barrier = _static_unit_barrier()
    return trigger_value(dyn, barrier, alpha, c, np.array([r]), np.zeros(1))


class TestAmplifiedAlpha:
    def test_zero_amplification_is_identity(self):
        alpha = ClassKappa(1.5)
        for r in (-2.0, 0.0, 0.7, 3.0):
            assert _amplified(alpha, 0.0, r) == alpha(r)

    def test_hand_value(self):
        alpha = ClassKappa(1.0)
        assert _amplified(alpha, 9.18, 0.5) == pytest.approx(5.09, rel=1e-12)

    def test_dominates_alpha_on_grid(self):
        alpha = ClassKappa(0.8)
        for r in np.linspace(0.0, 10.0, 100):
            assert _amplified(alpha, 2.5, r) >= alpha(r)

    def test_negative_amplification_rejected(self):
        dyn, barrier = _static_unit_barrier()
        with pytest.raises(ConfigurationError, match="trigger_c"):
            Scenario(
                name="negative-c", dynamics=dyn, barrier=barrier,
                alpha=ClassKappa(1.0), controller=lambda x: np.zeros(1), x0=(1.0,),
                integrator=IntegratorConfig(horizon=1.0), schedule=HoldSchedule.continuous(),
                trigger_c=-0.5,
            )


class TestExpandedCondition:
    # The margin-expanded safe set is {h >= alpha^(-1)(-margin)}; for a unit
    # slope its floor is -margin, the floor the practical period certifies.

    def test_linear_unit_margin_shifts_by_one(self):
        alpha = ClassKappa(1.0)
        for h in (-0.5, 0.0, 2.0):
            assert h - alpha.inverse(-1.0) == h + 1.0

    def test_linear_slope_scales_the_shift(self):
        a, w = 4.0, 0.75
        alpha = ClassKappa(a)
        assert 0.0 - alpha.inverse(-a * w) == pytest.approx(w)

    def test_boundary_value(self):
        alpha = ClassKappa(1.0)
        assert 0.0 - alpha.inverse(-0.2) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# gradient consistency


def test_acc_barrier_gradient_matches_finite_differences():
    barrier = acc_barrier()
    region = approach_region()
    rng = np.random.default_rng(17)
    pts = region.sample(rng, 100)
    step = 1e-6 * region.scale
    for x in pts:
        grad = barrier.gradient(x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            fd = (barrier.value(x + e) - barrier.value(x - e)) / (2.0 * step)
            scale = max(1.0, abs(grad[i]))
            assert abs(grad[i] - fd) <= 1e-4 * scale
