"""Safety filter, the boosted controller, and the tuning checks."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import qp_reference
from safehold.acc_benchmark import (
    X0_NEAR,
    AccParams,
    acc_filter,
    approach_region,
    certified_tuning,
    ride_region,
    thin_band_tuning,
)
from safehold.cbf_core import (
    BarrierFunction,
    ClassKappa,
    ControlAffineDynamics,
    lie_derivatives,
)
from safehold.config import load_config
from safehold.constants import BoundSet, OperatingRegion, Report, certify, certify_region
from safehold.errors import ConfigurationError, InfeasibleFilterError
from safehold.safety_filter import (
    CbfQpFilter,
    NominalController,
    TunableControllerConfig,
    solve_cbf_qp,
    tunable_control,
)
from safehold.simulator import HoldSchedule, IntegratorConfig, Scenario, run
from test_cbf_core import _gain
from test_constants import _plane_system

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _scalar_filter(drift_rate: float, alpha=None) -> CbfQpFilter:
    dyn = ControlAffineDynamics(
        drift=lambda x: np.array([drift_rate]),
        actuation=lambda x: np.ones((1, 1)),
        n=1, m=1,
    )
    barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
    return CbfQpFilter(
        dynamics=dyn,
        barrier=barrier,
        alpha=alpha or ClassKappa(1.0),
        nominal=NominalController(law=lambda x: np.zeros(1)),
    )


class TestSolveCbfQp:
    def test_inactive_constraint_returns_nominal_bitwise(self):
        filt = acc_filter()
        # at the cruise speed the nominal only fights resistance, which is safe
        x = np.array([0.0, 24.0, 1190.0])
        u_des = filt.nominal(x)
        u = solve_cbf_qp(filt, x)
        assert u[0] == u_des[0]
        u[0] += 1.0  # a copy, not a view of the nominal's output
        assert solve_cbf_qp(filt, x)[0] == u_des[0]

    def test_no_authority_but_satisfied_is_fine(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([1.0]),
            actuation=lambda x: np.zeros((1, 1)),
            n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(law=lambda x: np.array([7.0])),
        )
        # drift alone satisfies the decrease condition; u passes through
        assert solve_cbf_qp(filt, np.array([0.5]))[0] == 7.0

    def test_infeasible_raises_instead_of_clamping(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([-1.0]),
            actuation=lambda x: np.zeros((1, 1)),
            n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(law=lambda x: np.zeros(1)),
        )
        with pytest.raises(InfeasibleFilterError):
            solve_cbf_qp(filt, np.array([0.0]))

    def test_active_branch_matches_reference(self):
        filt = acc_filter()
        region = approach_region()
        rng = np.random.default_rng(23)
        checked_active = 0
        for x in region.sample(rng, 100):
            u = solve_cbf_qp(filt, x)
            ref = qp_reference(filt, x)
            assert u[0] == pytest.approx(ref, abs=2e-3)
            if u[0] != filt.nominal(x)[0]:
                checked_active += 1
        assert checked_active > 10  # the sample hits the constraint surface

    def test_active_solution_sits_on_the_constraint(self):
        filt = acc_filter()
        x = np.array([0.0, 20.0, 721.0])  # h = 1, nominal accelerates hard
        u = solve_cbf_qp(filt, x)
        lfh, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
        residual = lfh + float(lgh[0] * u[0]) + filt.barrier.value(x)
        assert residual == pytest.approx(0.0, abs=1e-9)

    def test_multi_input_rejected_up_front(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.zeros(2),
            actuation=lambda x: np.eye(2),
            n=2, m=2,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.array([1.0, 0.0]))
        with pytest.raises(ConfigurationError):
            CbfQpFilter(
                dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
                nominal=NominalController(law=lambda x: np.zeros(2)),
            )

    def test_nominal_shape_mismatch_surfaces(self):
        # The probe checks the nominal law behind the filter and behind the
        # boosted law, when the scenario is built or estimation starts. At
        # h = -0.5 the constraint binds, so the filter's own output is (1,).
        filt = _scalar_filter(0.0)
        filt = CbfQpFilter(
            dynamics=filt.dynamics, barrier=filt.barrier, alpha=filt.alpha,
            nominal=NominalController(law=lambda x: np.zeros(2)),
        )
        boosted = TunableControllerConfig(
            c=3.0, delta=1.0, band=1.0, epsilon=0.1, margin=2.0,
        ).controller(filt)
        for controller in (filt, boosted):
            with pytest.raises(ConfigurationError, match="nominal controller returned shape"):
                Scenario(
                    name="bad-nominal", dynamics=filt.dynamics, barrier=filt.barrier,
                    alpha=filt.alpha, controller=controller, x0=(-0.5,),
                    integrator=IntegratorConfig(horizon=1.0),
                    schedule=HoldSchedule.continuous(),
                )
        with pytest.raises(ConfigurationError, match="nominal controller returned shape"):
            certify_region(
                OperatingRegion(lower=(-1.0,), upper=(1.0,)), filt.dynamics, filt, filt.barrier,
            )


def _saturated(epsilon: float) -> TunableControllerConfig:
    """A gate whose activation height sits far above every tested barrier
    value, so it holds its 1/epsilon plateau exactly: a constant push."""
    return _gain(epsilon=epsilon, delta=1e6, band=1.0)


class TestAdjustedControl:
    # The constant-gain push (filtered input plus lgh / epsilon) is the
    # boosted law on its plateau.

    def test_huge_epsilon_collapses_to_plain(self):
        filt = acc_filter()
        x = np.array([0.0, 18.0, 600.0])
        plain = solve_cbf_qp(filt, x)
        adj = tunable_control(filt, _saturated(1e12), x)
        assert adj[0] == pytest.approx(plain[0], abs=1e-9)

    def test_acc_hand_value(self):
        p = AccParams()
        filt = acc_filter()
        x = np.array([0.0, 10.0, 200.0])
        # analytic route: active constraint, then the gradient push
        h = 200.0 - p.headway * 100.0
        R = p.f0 + p.f1 * 10.0 + p.f2 * 100.0
        lfh = (p.lead_speed - 10.0) + 2.0 * p.headway * 10.0 * R / p.mass
        lgh = -2.0 * p.headway * 10.0 / p.mass
        expected = (-h - lfh) / lgh + lgh / 1.0
        u = tunable_control(filt, _saturated(1.0), x)
        assert u[0] == pytest.approx(expected, rel=1e-12)

    def test_no_authority_adds_nothing(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([1.0]),
            actuation=lambda x: np.zeros((1, 1)),
            n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(law=lambda x: np.array([3.0])),
        )
        assert tunable_control(filt, _saturated(0.5), np.array([1.0]))[0] == 3.0

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            _saturated(0.0)


class TestTunableControl:
    def test_saturated_band_matches_adjusted(self):
        filt = acc_filter()
        gain = _gain(epsilon=2.0, delta=1.0, band=0.5)
        x = np.array([0.0, 20.0, 720.5])  # h = 0.5, inside the activation band
        boosted = tunable_control(filt, gain, x)
        _, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
        adjusted = solve_cbf_qp(filt, x) + lgh / 2.0
        assert boosted[0] == pytest.approx(adjusted[0], abs=1e-7 * abs(lgh[0]) / 2.0)

    def test_deep_interior_matches_plain(self):
        filt = acc_filter()
        gain = _gain(epsilon=2.0, delta=1.0, band=0.5)
        x = np.array([0.0, 10.0, 1100.0])  # h = 920, far past the band
        assert tunable_control(filt, gain, x)[0] == solve_cbf_qp(filt, x)[0]

    def test_midpoint_is_half_push_exactly(self):
        filt = acc_filter()
        eps, delta, band = 2.0, 1.0, 0.5
        gain = _gain(epsilon=eps, delta=delta, band=band)
        v = 20.0
        gap = 1.8 * v * v + delta + band / 2.0  # h lands on the sigmoid midpoint
        x = np.array([0.0, v, gap])
        plain = solve_cbf_qp(filt, x)
        _, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
        expected = plain[0] + (1.0 / (2.0 * eps)) * lgh[0]
        assert tunable_control(filt, gain, x)[0] == pytest.approx(expected, rel=1e-12)


class TestTunableControllerConfig:
    def test_presets_construct(self):
        wide_band = load_config(CONFIGS / "approach-boosted.yaml").tuning
        for cfg in (thin_band_tuning(), wide_band, certified_tuning()):
            # far below the band the gain is exactly its plateau 1/epsilon
            assert cfg(-1e6) == 1.0 / cfg.epsilon

    def test_field_validation_names_the_field(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            TunableControllerConfig(c=1.0, delta=1.0, band=1.0, epsilon=-1.0, margin=1.0)
        with pytest.raises(ConfigurationError, match="sharpness"):
            TunableControllerConfig(
                c=1.0, delta=1.0, band=1.0, epsilon=1.0, margin=1.0, sharpness=0.0,
            )

    def test_controller_closure_matches_free_function(self):
        filt = acc_filter()
        cfg = load_config(CONFIGS / "approach-boosted.yaml").tuning
        law = cfg.controller(filt)
        x = np.array([0.0, 19.0, 700.0])
        assert law(x)[0] == tunable_control(filt, cfg, x)[0]

    def test_the_tuning_is_the_gain(self):
        wide_band = load_config(CONFIGS / "approach-boosted.yaml").tuning
        for cfg in (thin_band_tuning(), wide_band, certified_tuning()):
            mid = cfg.delta + 0.5 * cfg.band
            for h in np.linspace(mid - cfg.band, mid + cfg.band, 41):
                z = cfg.sharpness * (h - cfg.delta - 0.5 * cfg.band)
                assert cfg(h) == 1.0 / (cfg.epsilon * (1.0 + math.exp(z)))
        dyn, barrier = _plane_system()
        _, bounds, _ = certify_region(
            OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
            dyn, lambda x: np.zeros(1), barrier, tuning=cfg,
        )
        assert bounds.l_sigma == cfg.slope_bound == cfg.sharpness / (4.0 * cfg.epsilon)


def _blind_drop(forms: bool) -> CbfQpFilter:
    """h = x0 under xdot = (-1, 0) + (0, 1) u: the input has no authority
    over h, and the drift violates the decrease condition once x0 < 1.
    With ``forms``, the plant, barrier and nominal law give float forms."""
    dyn = ControlAffineDynamics(
        drift=lambda x: np.array([-1.0, 0.0]), actuation=lambda x: np.array([[0.0], [1.0]]),
        n=2, m=1, scalar_drift=(lambda a, b: (-1.0, 0.0)) if forms else None,
    )
    barrier = BarrierFunction(
        value=lambda x: x.T[0], gradient=lambda x: np.array([1.0, 0.0]),
        scalar_form=(lambda a, b: (a, 1.0, 0.0)) if forms else None,
    )
    nominal = NominalController(
        law=lambda x: (0.5 * x.T[1])[..., None],
        scalar_law=(lambda a, b: 0.5 * b) if forms else None,
    )
    return CbfQpFilter(dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0), nominal=nominal)


class TestFloatLaw:
    # The held loop samples the filter and the boosted law on plain floats
    # when the plant, barrier and nominal law give their float forms.

    @pytest.mark.parametrize("tuning", (None, certified_tuning()), ids=("filter", "boosted"))
    def test_it_equals_the_array_law_bit_for_bit(self, tuning):
        filt = acc_filter()
        x0 = np.array(X0_NEAR)
        if tuning is None:
            law, want = filt.float_law(x0), lambda x: solve_cbf_qp(filt, x)
        else:
            law, want = tuning.controller(filt).float_law(x0), lambda x: tunable_control(
                filt, tuning, x)
        branches = set()
        for region in (ride_region(), approach_region()):
            boxed = [st.floats(lo, hi) for lo, hi in zip(region.lower, region.upper)]

            @settings(max_examples=100, deadline=None)
            @given(st.lists(st.tuples(*boxed), min_size=1, max_size=8))
            def check(states):
                for x in np.array(states):
                    u = law(*x.tolist())
                    assert isinstance(u, float)
                    assert np.array([u]).tobytes() == want(x).tobytes()
                    branches.add(bool(solve_cbf_qp(filt, x)[0] == filt.nominal(x)[0]))

            check()
        assert branches == {True, False}  # the nominal kept, and replaced

    def test_it_is_none_without_every_float_form(self):
        # Nor is there one when the actuation depends on the state.
        filt = _blind_drop(forms=True)
        x = np.array([1.5, 0.2])
        boosted = certified_tuning().controller(filt)
        assert filt.float_law(x) is not None and boosted.float_law(x) is not None
        less = [
            dataclasses.replace(filt, **{
                part: dataclasses.replace(getattr(filt, part), **{field: None}),
            })
            for part, field in (("dynamics", "scalar_drift"), ("barrier", "scalar_form"),
                                ("nominal", "scalar_law"))
        ]
        less.append(dataclasses.replace(filt, dynamics=dataclasses.replace(
            filt.dynamics, actuation=lambda x: np.stack((0.0 * x.T[0], 1.0 + 0.0 * x.T[0]), -1)[..., None],
        )))
        for filt in less:
            assert filt.float_law(x) is None
            assert certified_tuning().controller(filt).float_law(x) is None

    @pytest.mark.parametrize("boosted", (False, True), ids=("filter", "boosted"))
    def test_an_infeasible_sample_raises_as_the_array_law_does(self, boosted):
        # From x0 = 1.5 the filter turns infeasible at the first sample with
        # x0 < 1; the run reports the same message, time and state whether it
        # samples on floats or on arrays.
        errors = []
        for forms in (True, False):
            filt = _blind_drop(forms)
            calls = []
            if forms:
                scalar_law = filt.nominal.scalar_law
                filt = dataclasses.replace(filt, nominal=dataclasses.replace(
                    filt.nominal, scalar_law=lambda *c: calls.append(1) or scalar_law(*c),
                ))
            sc = Scenario(
                name="blind-drop", dynamics=filt.dynamics, barrier=filt.barrier,
                alpha=filt.alpha,
                controller=certified_tuning().controller(filt) if boosted else filt,
                x0=(1.5, 0.2), integrator=IntegratorConfig(horizon=1.0, substep=1e-3),
                schedule=HoldSchedule.periodic(0.05),
            )
            calls.clear()
            with pytest.raises(InfeasibleFilterError) as info:
                run(sc)
            assert bool(calls) == forms
            errors.append(info.value)
        floats, arrays = errors
        assert floats.args == arrays.args
        assert "no authority over the barrier" in floats.args[0]
        assert floats.time == arrays.time == pytest.approx(0.55)
        assert np.asarray(floats.state).tobytes() == np.asarray(arrays.state).tobytes()


class TestContinuity:
    # The filtered controller is continuous: min over nominal and the
    # constraint-restoring branch, both continuous in x. Ceiling frozen 5%
    # above the quotient measured once over these seeded pairs (1991.35).
    FROZEN_QUOTIENT = 2100.0

    def test_lipschitz_quotient_over_close_pairs(self):
        filt = acc_filter()
        region = ride_region()
        rng = np.random.default_rng(29)
        pts = region.sample(rng, 1000)
        worst = 0.0
        for x in pts:
            dx = rng.standard_normal(3)
            dx *= 1e-6 / np.linalg.norm(dx)
            du = abs(solve_cbf_qp(filt, x + dx)[0] - solve_cbf_qp(filt, x)[0])
            worst = max(worst, du / 1e-6)
        assert worst <= self.FROZEN_QUOTIENT


class TestValidateTuning:
    """``certify``'s tuning checks, on explicit bounds."""

    def _report(self, tuning: TunableControllerConfig, mu: float) -> Report:
        bounds = BoundSet(
            b_f=1.0, b_g=1.0, b_k=1.0, lam=1.0, mu=mu,
            m_lip=1.0, l_k=1.0, l_sigma=1.0, safety_factor=1.0,
        )
        cfg = dataclasses.replace(
            load_config(CONFIGS / "unit-bounds.yaml"), tuning=tuning, bounds=bounds,
        )
        return certify(cfg).tuning

    def test_amplification_pass(self):
        cfg = TunableControllerConfig(c=3.0, delta=1.0, band=1.0, epsilon=0.1, margin=2.0)
        report = self._report(cfg, mu=1.0)
        assert report["amplification_covers_margin"].status == "pass"

    def test_amplification_fail(self):
        cfg = TunableControllerConfig(c=1.0, delta=1.0, band=1.0, epsilon=0.1, margin=2.0)
        report = self._report(cfg, mu=1.0)
        assert report["amplification_covers_margin"].status == "fail"
        assert not report.passed

    def test_plateau_budget_boundary_passes(self):
        mu, d = 0.6, 2.0
        cfg = TunableControllerConfig(
            c=3.0, delta=1.0, band=1.0, epsilon=mu * mu / (4.0 * d), margin=d,
        )
        report = self._report(cfg, mu=mu)
        assert report["plateau_budget"].status == "pass"

    def test_plateau_budget_fails_just_past_boundary(self):
        mu, d = 0.6, 2.0
        cfg = TunableControllerConfig(
            c=3.0, delta=1.0, band=1.0, epsilon=mu * mu / (4.0 * d) * 1.01, margin=d,
        )
        report = self._report(cfg, mu=mu)
        assert report["plateau_budget"].status == "fail"

    def test_band_check_skipped_without_region(self):
        # Explicit bounds come with no sampling of the box.
        cfg = TunableControllerConfig(c=3.0, delta=1.0, band=1.0, epsilon=0.1, margin=2.0)
        report = self._report(cfg, mu=1.0)
        assert report["activation_band_gain"].status == "skipped"
        assert report.passed  # skipped does not fail the report

    def test_unknown_check_name_raises(self):
        cfg = TunableControllerConfig(c=3.0, delta=1.0, band=1.0, epsilon=0.1, margin=2.0)
        report = self._report(cfg, mu=1.0)
        with pytest.raises(KeyError):
            report["nope"]
