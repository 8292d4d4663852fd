"""Regional bound estimation and safe hold-period budgets.

Sample-and-hold guarantees are quantitative: they trade bounds on the
dynamics, the controller, and the barrier geometry for an explicit hold
period below which safety survives discretization. This module estimates
those bounds over a user-declared compact box (trajectories are checked
against the box at run time, so regional bounds are sufficient evidence)
and evaluates the two budget formulas:

* ``practical_sampling_time``: hold period under which a plain filtered
  controller keeps the margin-expanded safe set invariant,
* ``violation_free_sampling_time``: hold period under which the boosted
  controller keeps the original safe set invariant.

Every estimated maximum is inflated, and every estimated minimum deflated,
by a safety factor (default 1.1) to hedge the finite sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cbf_core import (
    BarrierFunction,
    ControlAffineDynamics,
    SigmoidGain,
    _probe_shapes,
    lie_derivatives,
)
from .errors import BoundarySamplingError, ConfigurationError

__all__ = [
    "OperatingRegion",
    "BoundSet",
    "Check",
    "Report",
    "estimate_bounds",
    "boundary_points",
    "error_bound_plain",
    "error_bound_tunable",
    "practical_sampling_time",
    "violation_free_sampling_time",
    "check_assumptions",
]

DEFAULT_SAFETY_FACTOR = 1.1

# Relative threshold under which the boundary actuation margin counts as
# degenerate: mu below this fraction of lambda fails the boundary check.
_MU_DEGENERACY_RATIO = 0.01

# Sampling sizes of the estimation: root-found boundary points, random
# point pairs for the difference quotients, and the lattice's target point
# count (rounded to a whole number of points per axis, at least 2).
_BOUNDARY_COUNT = 512
_PAIR_COUNT = 100_000
_LATTICE_POINTS = 30_000

# Distance bins of the barrier-envelope check.
_ENVELOPE_BINS = 16


@dataclass(frozen=True)
class OperatingRegion:
    """Axis-aligned box over which bounds are estimated and runs certified."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    sample_count: int = 4096
    seed: int = 0

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ConfigurationError("region lower/upper must be 1-d and the same length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigurationError("region bounds must be finite")
        if not np.all(lo < hi):
            raise ConfigurationError("region must satisfy lower < upper on every axis")
        if self.sample_count < 2:
            raise ConfigurationError("region sample_count must be >= 2")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def lower_arr(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @property
    def upper_arr(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    @property
    def scale(self) -> float:
        return float(np.max(self.upper_arr - self.lower_arr))

    def sample(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        """Uniform points in the box, shape (count, n)."""
        k = self.sample_count if count is None else count
        return rng.uniform(self.lower_arr, self.upper_arr, size=(k, self.dimension))

    def lattice(self, per_axis: int) -> np.ndarray:
        """Regular grid including the box faces, shape (per_axis**n, n)."""
        axes = [
            np.linspace(self.lower[i], self.upper[i], per_axis) for i in range(self.dimension)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class BoundSet:
    """Regional bounds feeding the hold-period budgets.

    b_f, b_g, b_k bound the drift norm, actuation spectral norm, and
    controller norm. lam bounds the barrier-gradient actuation row norm from
    above, mu from below on the safe-set boundary. l_k and m_lip are
    Lipschitz estimates for the controller and for that row; l_sigma bounds
    the boost-gain slope. safety_factor records the hedge already applied.
    """

    b_f: float
    b_g: float
    b_k: float
    lam: float
    mu: float
    m_lip: float
    l_k: float
    l_sigma: float
    safety_factor: float = DEFAULT_SAFETY_FACTOR

    def __post_init__(self):
        for name in ("b_f", "b_g", "b_k", "lam", "mu", "m_lip", "l_k", "l_sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigurationError(f"bound {name} must be finite and >= 0, got {v}")
        if self.mu > self.lam:
            raise ConfigurationError(
                f"boundary margin mu={self.mu} cannot exceed its upper bound lam={self.lam}"
            )
        if self.safety_factor < 1.0:
            raise ConfigurationError(f"safety_factor must be >= 1, got {self.safety_factor}")


@dataclass(frozen=True)
class Check:
    """One named check of an assumption or tuning report."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str
    value: float | None = None


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def boundary_points(
    region: OperatingRegion,
    barrier: BarrierFunction,
    count: int = _BOUNDARY_COUNT,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Points on the safe-set boundary inside the region, shape (k, n).

    Works by pairing sampled points of opposite barrier sign (from
    max(8 * count, 2048) box samples) and root-finding along the connecting
    segments, so each returned point satisfies |h| <= 1e-9 relative to the
    barrier's sampled magnitude. Raises ``BoundarySamplingError`` when the
    box never straddles the boundary.
    """
    # SciPy is imported here and in check_assumptions, not at module level,
    # so that importing the package and running simulations never load it.
    from scipy.optimize import brentq

    if rng is None:
        rng = np.random.default_rng(region.seed)
    pts = region.sample(rng, max(8 * count, 2048))
    hs = np.broadcast_to(barrier.value(pts), (len(pts),))
    pos = pts[hs > 0.0]
    neg = pts[hs < 0.0]
    if len(pos) == 0 or len(neg) == 0:
        raise BoundarySamplingError(
            "region samples do not straddle the safe-set boundary "
            f"({len(pos)} inside, {len(neg)} outside)"
        )
    h_scale = max(float(np.max(np.abs(hs))), 1.0)
    roots = np.empty((count, region.dimension))
    for i in range(count):
        a = pos[i % len(pos)]
        b = neg[i % len(neg)]
        seg = lambda t: barrier.value(a + t * (b - a))
        t_root = brentq(seg, 0.0, 1.0, xtol=1e-14, rtol=8.882e-16)
        roots[i] = a + t_root * (b - a)
    out = roots[np.abs(np.broadcast_to(barrier.value(roots), (count,))) <= 1e-9 * h_scale]
    if not len(out):
        raise BoundarySamplingError("boundary refinement produced no converged points")
    return out


def _project_to_boundary(
    region: OperatingRegion,
    barrier: BarrierFunction,
    pts: np.ndarray,
) -> np.ndarray:
    """Newton-project points onto h = 0, keeping in-box converged landings.

    Complements ``boundary_points``: segment root-finding samples the
    boundary in proportion to its bulk, while projection follows the
    barrier gradient and so also lands on thin slivers of the boundary
    that random segments almost never cross. All points take their eight
    Newton steps together; a point whose step is undefined (non-finite value
    or gradient, zero gradient) or lands off the finite reals drops out.
    Returns the landings clipped to the box, shape (j, n).
    """
    lo, hi = region.lower_arr, region.upper_arr
    slack = 1e-12 * max(region.scale, 1.0)
    k, n = pts.shape
    x = np.array(pts, dtype=float)
    h0 = np.abs(np.broadcast_to(barrier.value(x), (k,)))
    alive = np.arange(k)
    for _ in range(8):
        xa = x[alive]
        h = np.broadcast_to(barrier.value(xa), (len(alive),))
        grad = np.broadcast_to(barrier.gradient(xa), (len(alive), n))
        gg = np.vecdot(grad, grad)
        ok = np.isfinite(h) & np.isfinite(gg) & (gg > 0.0)
        step = xa[ok] - grad[ok] * (h[ok] / gg[ok])[:, None]
        alive = alive[ok]
        x[alive] = step
        alive = alive[np.all(np.isfinite(step), axis=1)]
    x = x[alive]
    h = np.broadcast_to(barrier.value(x), (len(x),))
    converged = np.abs(h) <= 1e-9 * np.maximum(1.0, h0[alive])
    inside = np.all((x >= lo - slack) & (x <= hi + slack), axis=1)
    return np.clip(x[converged & inside], lo, hi)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, d) array, bit for bit equal to
    ``np.linalg.norm`` of that row alone (a BLAS dot per row, where
    ``np.linalg.norm(v, axis=1)`` sums squares in another order)."""
    return np.sqrt(np.vecdot(v, v))


def _evaluate_box(
    pts: np.ndarray,
    dyn: ControlAffineDynamics,
    controller: Callable[[np.ndarray], np.ndarray],
    barrier: BarrierFunction,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Fields at every point, each in one stacked call: the largest drift
    norm, the largest actuation spectral norm, and the controller and
    actuation-row values per point, shapes (k, m)."""
    k, n, m = len(pts), dyn.n, dyn.m
    f_max = float(np.max(_row_norms(np.broadcast_to(dyn.drift(pts), (k, n)))))
    # Singular values of each actuation matrix, as np.linalg.norm(g, 2)
    # takes them; a constant matrix is decomposed once.
    g_max = float(np.max(np.linalg.svd(dyn.actuation(pts), compute_uv=False)))
    k_vals = np.broadcast_to(controller(pts), (k, m))
    lgh_vals = np.broadcast_to(lie_derivatives(dyn, barrier, pts)[1], (k, m))
    return f_max, g_max, k_vals, lgh_vals


def _pair_quotients(fa: np.ndarray, fb: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> float:
    """Largest difference quotient ||f(a)-f(b)|| / ||a-b|| over paired rows."""
    num = np.linalg.norm(fa - fb, axis=1)
    den = np.linalg.norm(xa - xb, axis=1)
    keep = den > 0.0
    if not np.any(keep):
        return 0.0
    return float(np.max(num[keep] / den[keep]))


def _min_lgh_norm(dyn: ControlAffineDynamics, barrier: BarrierFunction, pts: np.ndarray) -> float:
    """Smallest actuation-row norm |lgh| over the points."""
    lgh = np.broadcast_to(lie_derivatives(dyn, barrier, pts)[1], (len(pts), dyn.m))
    return float(np.min(_row_norms(lgh)))


def estimate_bounds(
    region: OperatingRegion,
    dyn: ControlAffineDynamics,
    controller: Callable[[np.ndarray], np.ndarray],
    barrier: BarrierFunction,
    *,
    sigmoid: SigmoidGain | None = None,
    safety_factor: float = DEFAULT_SAFETY_FACTOR,
) -> BoundSet:
    """Estimate a BoundSet over the region by deterministic seeded sampling.

    Maxima (b_f, b_g, b_k, lam, l_k, m_lip) come from the region's uniform
    box samples, a lattice of about 30,000 points, and difference quotients
    over 100,000 random point pairs plus all lattice nearest-neighbor pairs;
    the boundary minimum mu comes from 512 root-found boundary points.
    Maxima are inflated and mu deflated by ``safety_factor``. The boost-gain
    slope bound l_sigma is analytic, ``sharpness / (4 * epsilon)``, and is
    zero when no sigmoid is supplied.
    """
    if safety_factor < 1.0:
        raise ConfigurationError(f"safety_factor must be >= 1, got {safety_factor}")
    rng = np.random.default_rng(region.seed)
    n = region.dimension

    per_axis = max(2, int(round(_LATTICE_POINTS ** (1.0 / n))))
    lattice = region.lattice(per_axis)
    box = region.sample(rng)
    _probe_shapes(dyn, barrier, box[0], controller)
    base = np.vstack([box, lattice])

    f_max, g_max, k_vals, lgh_vals = _evaluate_box(base, dyn, controller, barrier)
    b_f = safety_factor * f_max
    b_g = safety_factor * g_max
    b_k = safety_factor * float(np.max(np.linalg.norm(k_vals, axis=1)))
    lam = safety_factor * float(np.max(np.linalg.norm(lgh_vals, axis=1)))

    bpts = boundary_points(region, barrier, _BOUNDARY_COUNT, rng)
    mu = _min_lgh_norm(dyn, barrier, bpts) / safety_factor

    # Difference quotients: random pairs spread over the box, lattice
    # neighbors capture local slopes the random pairs dilute.
    pa = region.sample(rng, _PAIR_COUNT)
    pb = region.sample(rng, _PAIR_COUNT)
    k_a = np.broadcast_to(controller(pa), (_PAIR_COUNT, dyn.m))
    k_b = np.broadcast_to(controller(pb), (_PAIR_COUNT, dyn.m))
    lgh_a = np.broadcast_to(lie_derivatives(dyn, barrier, pa)[1], (_PAIR_COUNT, dyn.m))
    lgh_b = np.broadcast_to(lie_derivatives(dyn, barrier, pb)[1], (_PAIR_COUNT, dyn.m))
    l_k = _pair_quotients(k_a, k_b, pa, pb)
    m_lip = _pair_quotients(lgh_a, lgh_b, pa, pb)

    shape = (per_axis,) * n
    k_lat = k_vals[len(box):].reshape(shape + (dyn.m,))
    lgh_lat = lgh_vals[len(box):].reshape(shape + (dyn.m,))
    x_lat = lattice.reshape(shape + (n,))
    for axis in range(n):
        def shifted(arr):
            lead = tuple(slice(None) for _ in range(axis))
            return arr[lead + (slice(1, None),)], arr[lead + (slice(None, -1),)]
        for field in (k_lat, lgh_lat):
            fa, fb = shifted(field)
            xa, xb = shifted(x_lat)
            q = _pair_quotients(
                fa.reshape(-1, dyn.m), fb.reshape(-1, dyn.m),
                xa.reshape(-1, n), xb.reshape(-1, n),
            )
            if field is k_lat:
                l_k = max(l_k, q)
            else:
                m_lip = max(m_lip, q)

    l_k *= safety_factor
    m_lip *= safety_factor
    l_sigma = sigmoid.slope_bound if sigmoid is not None else 0.0

    return BoundSet(
        b_f=b_f, b_g=b_g, b_k=b_k, lam=lam, mu=mu,
        m_lip=m_lip, l_k=l_k, l_sigma=l_sigma, safety_factor=safety_factor,
    )


def error_bound_plain(bounds: BoundSet, t_hold: float) -> float:
    """Hold-error bound for the plain filtered controller over one interval."""
    if t_hold < 0.0:
        raise ConfigurationError(f"hold duration must be >= 0, got {t_hold}")
    return (bounds.b_f + bounds.b_g * bounds.b_k) * t_hold


def error_bound_tunable(bounds: BoundSet, epsilon: float, t_hold: float) -> float:
    """Hold-error bound for the boosted controller over one interval."""
    if epsilon <= 0.0:
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
    if t_hold < 0.0:
        raise ConfigurationError(f"hold duration must be >= 0, got {t_hold}")
    return (bounds.b_f + bounds.b_g * bounds.b_k + bounds.b_g * bounds.lam / epsilon) * t_hold


def practical_sampling_time(bounds: BoundSet, d: float) -> float:
    """Hold-period budget for the set-expansion route with margin d."""
    if d <= 0.0:
        raise ConfigurationError(f"margin d must be > 0, got {d}")
    denom = (bounds.b_f + bounds.b_g * bounds.b_k) * bounds.l_k * bounds.lam
    if denom == 0.0:
        raise ConfigurationError("degenerate bounds: zero denominator in hold-period budget")
    return d / denom


def violation_free_sampling_time(bounds: BoundSet, epsilon: float, d: float) -> float:
    """Hold-period budget under which the boosted controller rejects hold
    errors outright, keeping the original safe set invariant."""
    if epsilon <= 0.0:
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
    if d <= 0.0:
        raise ConfigurationError(f"margin d must be > 0, got {d}")
    rate = (
        bounds.l_sigma * bounds.lam ** 2
        + (bounds.l_k + bounds.m_lip / epsilon) * bounds.lam
    )
    drift = bounds.b_f + bounds.b_g * bounds.b_k + bounds.b_g * bounds.lam / epsilon
    denom = rate * drift
    if denom == 0.0:
        raise ConfigurationError("degenerate bounds: zero denominator in hold-period budget")
    return d / denom


def check_assumptions(
    region: OperatingRegion,
    dyn: ControlAffineDynamics,
    controller: Callable[[np.ndarray], np.ndarray],
    barrier: BarrierFunction,
) -> Report:
    """Empirical evidence report for the standing assumptions.

    Five checks: finite field and controller bounds, a finite controller
    Lipschitz estimate, a non-degenerate actuation margin on the safe-set
    boundary, a finite Lipschitz estimate for the barrier-gradient actuation
    row, and a monotone lower envelope for h as a function of distance to the
    boundary over 16 distance bins (evidence that h qualifies as a proper
    measure of clearance).
    """
    rng = np.random.default_rng(region.seed)
    pts = region.sample(rng)
    _probe_shapes(dyn, barrier, pts[0], controller)
    f_norm, g_norm, k_arr, lgh_arr = _evaluate_box(pts, dyn, controller, barrier)
    k_norm = float(np.max(np.linalg.norm(k_arr, axis=1)))
    lam_raw = float(np.max(np.linalg.norm(lgh_arr, axis=1)))

    checks = []
    ok = all(math.isfinite(v) for v in (f_norm, g_norm, k_norm))
    checks.append(Check(
        "bounded_fields", "pass" if ok else "fail",
        f"max|f|={f_norm:.6g}, max|g|={g_norm:.6g}, max|k|={k_norm:.6g}",
        f_norm,
    ))

    half = len(pts) // 2
    l_k_raw = _pair_quotients(k_arr[:half], k_arr[half:2 * half], pts[:half], pts[half:2 * half])
    checks.append(Check(
        "controller_lipschitz", "pass" if math.isfinite(l_k_raw) else "fail",
        f"sampled difference quotient {l_k_raw:.6g}", l_k_raw,
    ))

    try:
        bpts = boundary_points(region, barrier, _BOUNDARY_COUNT, rng)
    except BoundarySamplingError as exc:
        checks.append(Check("boundary_actuation", "fail", str(exc)))
        checks.append(Check("barrier_envelope", "skipped", "no boundary points"))
        return Report(tuple(checks))

    # Root-found crossings follow the boundary's bulk; Newton projection of
    # the box samples also reaches thin slivers (for the cruise-control
    # barrier, the zero-speed corner where actuation authority vanishes).
    proj = _project_to_boundary(region, barrier, pts)
    mu_raw = _min_lgh_norm(dyn, barrier, np.vstack([bpts, proj]))
    degenerate = not mu_raw > _MU_DEGENERACY_RATIO * lam_raw
    checks.append(Check(
        "boundary_actuation", "fail" if degenerate else "pass",
        f"min |lgh|={mu_raw:.6g} over {len(bpts)} root-found + {len(proj)} projected "
        f"boundary points vs max |lgh|={lam_raw:.6g} "
        f"(degenerate at or below {_MU_DEGENERACY_RATIO:g} ratio)",
        mu_raw,
    ))

    m_raw = _pair_quotients(
        lgh_arr[:half], lgh_arr[half:2 * half], pts[:half], pts[half:2 * half]
    )
    checks.append(Check(
        "gradient_actuation_lipschitz", "pass" if math.isfinite(m_raw) else "fail",
        f"sampled difference quotient {m_raw:.6g}", m_raw,
    ))

    hs = np.broadcast_to(barrier.value(pts), (len(pts),))
    safe = pts[hs >= 0.0]
    safe_h = hs[hs >= 0.0]
    if len(safe) < _ENVELOPE_BINS:
        checks.append(Check("barrier_envelope", "skipped", "too few safe samples"))
        return Report(tuple(checks))
    from scipy.spatial import cKDTree

    dists, _ = cKDTree(bpts).query(safe)
    edges = np.linspace(0.0, float(np.max(dists)), _ENVELOPE_BINS + 1)
    env, lefts = [], []
    for b in range(_ENVELOPE_BINS):
        hi = dists <= edges[b + 1] if b == _ENVELOPE_BINS - 1 else dists < edges[b + 1]
        mask = (dists >= edges[b]) & hi
        if np.any(mask):
            env.append(float(np.min(safe_h[mask])))
            lefts.append(float(edges[b]))
    iso = np.minimum.accumulate(env[::-1])[::-1]  # monotone lower envelope
    interior = [v for left, v in zip(lefts, iso) if left > 0.0]
    env_ok = len(interior) > 0 and min(interior) > 0.0 and iso[0] >= -1e-12
    knots = ", ".join(f"({l:.4g}, {v:.4g})" for l, v in zip(lefts, iso))
    checks.append(Check(
        "barrier_envelope", "pass" if env_ok else "fail",
        f"monotone envelope knots: {knots}",
        float(iso[-1]),
    ))
    return Report(tuple(checks))
