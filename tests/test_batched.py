"""Batch contract: a stacked call equals the row-by-row single-state calls,
bit for bit, for the plant, the barrier, the nominal law, the Lie
derivatives, the filter and the boosted law."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from safehold.acc_benchmark import (
    acc_filter,
    approach_region,
    certified_tuning,
    ride_region,
    wide_band_tuning,
)
from safehold.cbf_core import (
    BarrierFunction,
    ClassKappa,
    ControlAffineDynamics,
    lie_derivatives,
)
from safehold.constants import OperatingRegion, _row_norms
from safehold.errors import InfeasibleFilterError
from safehold.safety_filter import (
    CbfQpFilter,
    NominalController,
    solve_cbf_qp,
    tunable_control,
)
from test_constants import _plane_system

PROPERTY = settings(max_examples=60, deadline=None)


def _plane_filter() -> CbfQpFilter:
    dyn, barrier = _plane_system()
    return CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=ClassKappa.linear(1.0),
        nominal=NominalController(law=lambda x: np.zeros(1)),
    )


def _linear_filter() -> CbfQpFilter:
    """Random dense linear plant, n = 4, h = c @ x: every Lie-derivative
    row sums four nonzero products. Its own products are one dot per row
    (vecdot), since a matrix product over a stack sums in another order."""
    rng = np.random.default_rng(11)
    a, b, c = rng.normal(size=(4, 4)), rng.normal(size=(4, 1)), rng.normal(size=4)
    k = rng.normal(size=4)
    dyn = ControlAffineDynamics(
        drift=lambda x: np.vecdot(x[..., None, :], a), actuation=lambda x: b, n=4, m=1,
    )
    barrier = BarrierFunction(value=lambda x: np.vecdot(x, c), gradient=lambda x: c)
    return CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=ClassKappa.linear(1.0),
        nominal=NominalController(law=lambda x: np.vecdot(x, k)[..., None]),
    )


SYSTEMS = {
    "ride": (acc_filter(), ride_region(), certified_tuning()),
    "approach": (acc_filter(), approach_region(), wide_band_tuning()),
    "plane": (
        _plane_filter(), OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
        wide_band_tuning(),
    ),
    "linear": (
        _linear_filter(), OperatingRegion(lower=(-1.0,) * 4, upper=(1.0,) * 4),
        wide_band_tuning(),
    ),
}


@st.composite
def stacks(draw, region):
    """A (k, n) stack of states inside the region, k in 1..40."""
    k = draw(st.integers(1, 40))
    unit = draw(hnp.arrays(
        np.float64, (k, region.dimension),
        elements=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    ))
    return region.lower_arr + unit * (region.upper_arr - region.lower_arr)


def _rows(fn, xs) -> np.ndarray:
    return np.array([fn(x) for x in xs])


def _equal_rowwise(fn, xs) -> bool:
    single = _rows(fn, xs)
    return np.array_equal(np.broadcast_to(fn(xs), single.shape), single)


def _scalar_gain(gain, r: float) -> float:
    z = gain.sharpness * (r - gain.delta - 0.5 * gain.band)
    return 1.0 / (gain.epsilon * (1.0 + math.exp(min(max(z, -700.0), 700.0))))


def _property(name):
    filt, region, tuning = SYSTEMS[name]
    dyn, barrier, gain = filt.dynamics, filt.barrier, tuning.sigmoid

    @PROPERTY
    @given(xs=stacks(region))
    def check(xs):
        for fn in (dyn.drift, dyn.actuation, barrier.value, barrier.gradient, filt.nominal):
            assert _equal_rowwise(fn, xs), fn
        lfh, lgh = lie_derivatives(dyn, barrier, xs)
        # Reference: the matrix-product route, one state at a time.
        lfh_1 = _rows(lambda x: barrier.gradient(x) @ dyn.drift(x), xs)
        lgh_1 = _rows(lambda x: barrier.gradient(x) @ dyn.actuation(x), xs)
        assert np.array_equal(np.broadcast_to(lfh, lfh_1.shape), lfh_1)
        assert np.array_equal(np.broadcast_to(lgh, lgh_1.shape), lgh_1)
        # Reference: the C library's exp, one barrier value at a time.
        hs = np.broadcast_to(barrier.value(xs), lfh_1.shape)
        assert np.array_equal(gain(hs), _rows(lambda h: _scalar_gain(gain, h), hs))
        assert _equal_rowwise(lambda x: solve_cbf_qp(filt, x), xs)
        assert _equal_rowwise(lambda x: tunable_control(filt, gain, x), xs)
        drift = np.broadcast_to(dyn.drift(xs), xs.shape)
        assert np.array_equal(_row_norms(drift), _rows(np.linalg.norm, drift))

    return check


test_ride_box_batched_equals_single = _property("ride")
test_approach_box_batched_equals_single = _property("approach")
test_plane_system_batched_equals_single = _property("plane")
test_dense_linear_system_batched_equals_single = _property("linear")


@PROPERTY
@given(rows=hnp.arrays(
    np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
))
def test_row_norms_match_linalg_norm(rows):
    assert np.array_equal(_row_norms(rows), _rows(np.linalg.norm, rows))


@PROPERTY
@given(k=st.integers(1, 20), data=st.data())
def test_stack_with_an_infeasible_row_names_that_row(k, data):
    # No input authority and a drift of -1 under h = x1: the decrease
    # condition -1 + x1 >= 0 fails, infeasibly, exactly where x1 < 1.
    dyn = ControlAffineDynamics(
        drift=lambda x: np.array([-1.0]), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
    )
    barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
    filt = CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=ClassKappa.linear(1.0),
        nominal=NominalController(law=lambda x: np.zeros(1)),
    )
    first = data.draw(st.integers(0, k - 1))
    xs = np.full((k, 1), 2.0)
    xs[first:, 0] = data.draw(hnp.arrays(
        np.float64, k - first, elements=st.floats(-5.0, 5.0, allow_nan=False),
    ))
    xs[first, 0] = data.draw(st.floats(-5.0, 0.999, allow_nan=False))
    bad = np.flatnonzero(xs[:, 0] < 1.0)[0]
    with pytest.raises(InfeasibleFilterError, match="barrier constraint infeasible") as stacked:
        solve_cbf_qp(filt, xs)
    with pytest.raises(InfeasibleFilterError) as single:
        solve_cbf_qp(filt, xs[bad])
    assert bad == first
    assert np.array_equal(stacked.value.state, xs[bad])
    assert str(stacked.value) == str(single.value)
