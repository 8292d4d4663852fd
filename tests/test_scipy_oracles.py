"""SciPy as the oracle of the numpy code that replaced it in certification.

The stacked Brent iteration behind ``boundary_points`` must return SciPy
``brentq``'s root on every segment, and the envelope check's nearest-boundary
distances must equal ``cKDTree``'s, both bit for bit, so that no bound,
knot or budget moves. SciPy is needed here only; the package never imports
it (``test_cli.test_certification_runs_with_scipy_blocked``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from safehold.acc_benchmark import acc_barrier, approach_region
from safehold.cbf_core import BarrierFunction
from safehold.constants import (
    _DISTANCE_CHUNK,
    OperatingRegion,
    _brent_roots,
    _nearest_distances,
    boundary_points,
)

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_spatial = pytest.importorskip("scipy.spatial")

PROPERTY = settings(max_examples=80, deadline=None)

# Barrier families on a box: (lower, upper, g). A segment runs between two
# box points p, q at a level c carried as one more coordinate that stays
# fixed along it, and the value is g(p + t (q - p)) - c. The straight line
# converges by secant steps, the parabola and the cubic take inverse
# quadratic steps, and the steep tanh forces bisection. Each family keeps
# the batch contract: the cubic multiplies out (numpy's ``** 3`` rounds one
# state and a stack differently) and tanh is math.tanh on every element.
_APPROACH = approach_region()
_TANH = np.vectorize(math.tanh, otypes=[float])
FAMILIES = {
    "linear": ((-1.0, -1.0), (1.0, 1.0), lambda y: 0.7 * y.T[0] - 1.3 * y.T[1]),
    "acc-parabola": (_APPROACH.lower, _APPROACH.upper, acc_barrier().value),
    "cubic": (
        (-1.0, -1.0), (1.0, 1.0),
        lambda y: (y.T[0] - 0.2) * (y.T[0] - 0.2) * (y.T[0] - 0.2) - 0.05 * y.T[1],
    ),
    "steep-tanh": ((0.0, 0.0), (1.0, 1.0), lambda y: _TANH(40.0 * (y.T[0] - 0.3)) + 0.1 * y.T[1]),
}


def _leveled(g):
    return lambda x: g(x[..., :-1]) - x[..., -1]


@st.composite
def segments(draw):
    """A family and a stack of bracketing segments (k, n + 1) through it.
    The level sits strictly between the end values, or exactly at one end,
    so that brentq's f == 0 returns at t = 0 and t = 1 come up too."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    lower, upper, g = FAMILIES[name]
    lo, hi = np.array(lower), np.array(upper)
    k = draw(st.integers(1, 12))
    unit = st.tuples(*[st.floats(0.0, 1.0)] * len(lo))
    p, q = (lo + np.array(draw(st.lists(unit, min_size=k, max_size=k))) * (hi - lo)
            for _ in range(2))
    g_p, g_q = g(p), g(p + 1.0 * (q - p))  # the values brentq sees at t = 0 and 1
    levels = draw(st.lists(
        st.sampled_from(["at-p", "at-q"]) | st.floats(0.05, 0.95), min_size=k, max_size=k,
    ))
    c = np.array([
        g_p[i] if lv == "at-p" else g_q[i] if lv == "at-q" else g_p[i] + lv * (g_q[i] - g_p[i])
        for i, lv in enumerate(levels)
    ])
    a, b = np.column_stack([p, c]), np.column_stack([q, c])
    f_a, f_b = g_p - c, g_q - c
    bracket = (f_a == 0.0) | (f_b == 0.0) | (np.signbit(f_a) != np.signbit(f_b))
    assume(np.any(bracket))
    return name, a[bracket], b[bracket]


@PROPERTY
@given(segments())
def test_stacked_brent_equals_brentq_segment_by_segment(case):
    name, a, b = case
    value = _leveled(FAMILIES[name][2])
    got = _brent_roots(value, a, b)
    want = [
        scipy_optimize.brentq(
            lambda t: value(ai + t * (bi - ai)), 0.0, 1.0, xtol=1e-14, rtol=8.882e-16,
        )
        for ai, bi in zip(a, b)
    ]
    assert [float(t).hex() for t in got] == [float(t).hex() for t in want], name


def test_one_fixed_segment_per_branch_equals_brentq():
    """A zero at either end (brentq returns it after its two end calls), the
    secant on the line, inverse quadratic steps on the cubic and bisection
    on the steep tanh."""
    cases = {
        "zero-at-a": ("linear", [0.5, 0.0], [-0.5, 0.0], 0.35),
        "zero-at-b": ("linear", [0.5, 0.0], [-0.5, 0.0], -0.35),
        "secant": ("linear", [0.5, 0.0], [-0.5, 0.0], 0.0),
        "quadratic": ("cubic", [-1.0, 0.5], [1.0, 0.5], 0.0),
        "bisection": ("steep-tanh", [0.0, 0.0], [1.0, 0.0], 0.0),
    }
    for label, (name, p, q, c) in cases.items():
        value = _leveled(FAMILIES[name][2])
        a, b = np.array([p + [c]]), np.array([q + [c]])
        root, info = scipy_optimize.brentq(
            lambda t: value(a[0] + t * (b[0] - a[0])), 0.0, 1.0,
            xtol=1e-14, rtol=8.882e-16, full_output=True,
        )
        assert float(_brent_roots(value, a, b)[0]).hex() == root.hex(), label
        if label.startswith("zero"):
            assert info.function_calls == 2 and root == (label == "zero-at-b")


def test_a_segment_brentq_cannot_close_gives_its_last_iterate():
    """At the cubic's triple root brentq is still open after 100
    iterations; with ``disp=False`` it returns its last iterate, and so does
    the stacked solver. ``boundary_points`` then keeps the crossings whose
    |h| passes its filter instead of failing the whole sample."""
    value = _leveled(FAMILIES["cubic"][2])
    a, b = np.array([[-1.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])
    root, info = scipy_optimize.brentq(
        lambda t: value(a[0] + t * (b[0] - a[0])), 0.0, 1.0,
        xtol=1e-14, rtol=8.882e-16, full_output=True, disp=False,
    )
    assert not info.converged
    assert float(_brent_roots(value, a, b)[0]).hex() == root.hex()

    # The same triple root on the box, as a plane barrier in two states.
    barrier = BarrierFunction(
        value=lambda x: (x.T[0] - 0.2) * (x.T[0] - 0.2) * (x.T[0] - 0.2),
        gradient=lambda x: np.stack([3.0 * (x.T[0] - 0.2) ** 2, 0.0 * x.T[1]], axis=-1),
    )
    pts = boundary_points(
        OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0)), barrier,
        rng=np.random.default_rng(0),
    )
    assert len(pts) > 0
    assert np.all(np.abs(barrier.value(pts)) <= 1e-9)


@st.composite
def point_clouds(draw):
    """Points and targets in 1 to 4 dimensions. Targets repeat, points
    coincide with targets on the half-integer grid, and the point count
    lands on, or next to, a chunk boundary of the distance pass."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 40) | st.integers(1000, 3000))
    rows = _DISTANCE_CHUNK // m
    count = draw(st.sampled_from([1, 2, rows - 1, rows, rows + 1, 2 * rows + 1]).filter(
        lambda c: 1 <= c <= 4000
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        targets = rng.integers(-3, 4, size=(m, n)) * 0.5
        pts = rng.integers(-3, 4, size=(count, n)) * 0.5
    else:
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        targets = rng.normal(scale=scale, size=(m, n))
        pts = rng.normal(scale=scale, size=(count, n))
    duplicated = rng.integers(0, m, size=m // 4)
    targets = np.vstack([targets, targets[duplicated]])
    return pts, targets


@PROPERTY
@given(point_clouds())
def test_chunked_distances_equal_ckdtree(cloud):
    pts, targets = cloud
    want, _ = scipy_spatial.cKDTree(targets).query(pts)
    got = _nearest_distances(pts, targets)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
