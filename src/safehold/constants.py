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
by the region's safety factor (default 1.1) to hedge the finite sampling.
``certify`` turns a run configuration into one ``Certificate``: the
assumption report, the bounds, and the tuning report, which checks the side
conditions under which the boosted controller's violation-free budget is
honest. ``certify_region`` samples the box once for all three, and the CLI's
``constants`` and ``compare`` print and run from that record.

The boundary of the safe set is sampled by root-finding h along segments
between box samples of opposite barrier sign. All segments run one stacked
Brent iteration together (a numpy port of SciPy's ``brentq``, whose roots it
reproduces bit for bit), so each iteration makes one stacked barrier call.
Nearest-boundary distances are exact brute-force minima, summed in the
order SciPy's ``cKDTree`` uses, so SciPy is needed by no code path.

Every sample set is evaluated in blocks of 4096 rows, and each block is
reduced to its maxima before the next is made. The random point pairs and
the lattice points are also made block by block, so beyond the lattice's
controller and actuation-row values, memory does not grow with the sample
counts. A maximum of block maxima is exact, and under the batch contract
each row's value is its value alone, so the bounds equal those of one
stacked call bit for bit.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .cbf_core import (
    BarrierFunction,
    ControlAffineDynamics,
    _probe_shapes,
    lie_derivatives,
)
from .errors import BoundarySamplingError, ConfigurationError

if TYPE_CHECKING:
    from .config import RunConfig
    from .safety_filter import TunableControllerConfig

__all__ = [
    "OperatingRegion",
    "BoundSet",
    "Check",
    "Report",
    "Certificate",
    "certify",
    "certify_region",
    "boundary_points",
    "error_bound_plain",
    "error_bound_tunable",
    "practical_sampling_time",
    "violation_free_sampling_time",
]

DEFAULT_SAFETY_FACTOR = 1.1

# Relative threshold under which the boundary actuation margin counts as
# degenerate: mu below this fraction of lambda fails the boundary check.
_MU_DEGENERACY_RATIO = 0.01

# Sampling sizes of the estimation: uniform box samples, root-found
# boundary points, random point pairs for the difference quotients, and the
# lattice's target point count (rounded to a whole number of points per
# axis, at least 2).
_SAMPLE_COUNT = 4096
_BOUNDARY_COUNT = 512
_PAIR_COUNT = 100_000
_LATTICE_POINTS = 30_000

# Distance bins of the barrier-envelope check.
_ENVELOPE_BINS = 16

# Brent root-finding along boundary segments, with the SciPy brentq
# settings whose roots it reproduces: absolute and relative tolerances on
# the segment parameter (the relative one just above brentq's floor of four
# machine epsilons) and brentq's default iteration cap.
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 8.882e-16
_BRENT_MAXITER = 100

# Elements in each temporary of the nearest-boundary distance pass: 128 KiB
# of float64, however many safe samples and boundary points there are.
_DISTANCE_CHUNK = 1 << 14

# Rows per stacked evaluation of a sample set (here) and of a trace (in the
# simulator); bounds the temporaries of one evaluation whatever the count.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class OperatingRegion:
    """Axis-aligned box over which bounds are estimated and runs certified.
    ``seed`` seeds the estimators' sampling of the box; ``safety_factor``
    (at least 1) inflates each maximum they estimate and deflates each
    minimum, to hedge that finite sampling."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    seed: int = 0
    safety_factor: float = DEFAULT_SAFETY_FACTOR

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ConfigurationError("lower and upper must be 1-d and the same length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigurationError("lower and upper must be finite")
        if not np.all(lo < hi):
            raise ConfigurationError("lower must be < upper on every axis")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (math.isfinite(self.safety_factor) and self.safety_factor >= 1.0):
            raise ConfigurationError(f"safety_factor must be >= 1, got {self.safety_factor}")

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

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform points in the box, shape (count, n)."""
        return rng.uniform(self.lower_arr, self.upper_arr, size=(count, self.dimension))


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
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigurationError(f"{f.name} must be finite and >= 0, got {v}")
        if self.mu > self.lam:
            raise ConfigurationError(
                f"mu cannot exceed its upper bound lam, got mu={self.mu}, lam={self.lam}"
            )
        if self.safety_factor < 1.0:
            raise ConfigurationError(f"safety_factor must be >= 1, got {self.safety_factor}")


@dataclass(frozen=True)
class Check:
    """One named check of an assumption or tuning report."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


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


@dataclass(frozen=True)
class Certificate:
    """One certification of a run configuration. ``assumptions`` is the
    assumption report, None when the config supplies its bounds; ``bounds``
    is None when an assumption check fails; ``tuning`` is the tuning report,
    None without bounds."""

    assumptions: Report | None
    bounds: BoundSet | None
    tuning: Report | None


def boundary_points(
    region: OperatingRegion,
    barrier: BarrierFunction,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Points on the safe-set boundary inside the region, shape (k, n).

    Works by root-finding along 512 segments that join box samples of
    opposite barrier sign (from 4096 samples), so each returned point
    satisfies |h| <= 1e-9 relative to the barrier's sampled magnitude. The
    segments are solved together by a stacked Brent iteration, one stacked
    barrier call per iteration, whose roots equal SciPy ``brentq``'s (xtol
    1e-14, rtol 8.882e-16) bit for bit; a segment still open after 100
    iterations gives its last iterate, which that |h| test keeps or drops. Raises ``BoundarySamplingError`` when the
    box never straddles the boundary, when the barrier is not finite at an
    iterate, or when no point passes the |h| test.
    """
    pts = region.sample(rng, 8 * _BOUNDARY_COUNT)
    hs = barrier.value(pts)
    pos = pts[hs > 0.0]
    neg = pts[hs < 0.0]
    if len(pos) == 0 or len(neg) == 0:
        raise BoundarySamplingError(
            "region samples do not straddle the safe-set boundary "
            f"({len(pos)} inside, {len(neg)} outside)"
        )
    h_scale = max(float(np.max(np.abs(hs))), 1.0)
    pair = np.arange(_BOUNDARY_COUNT)
    a = pos[pair % len(pos)]
    b = neg[pair % len(neg)]
    t_root = _brent_roots(barrier.value, a, b)
    roots = a + t_root[:, None] * (b - a)
    out = roots[np.abs(barrier.value(roots)) <= 1e-9 * h_scale]
    if not len(out):
        raise BoundarySamplingError("boundary refinement produced no converged points")
    return out


def _brent_roots(
    value: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Root t in [0, 1] of value(a + t (b - a)) on each row's segment, (k,).

    SciPy's ``brentq`` (its C core, brentq.c) on every segment at
    once: each step of brentq.c is a mask over the segments still open, in
    its operation order, and each iteration evaluates those segments in one
    stacked ``value`` call. On a callable that keeps the batch contract,
    each root equals ``brentq(lambda t: value(a + t * (b - a)), 0, 1,
    xtol=1e-14, rtol=8.882e-16, disp=False)`` bit for bit, including the
    last iterate of a segment still open after 100 iterations. The segment
    ends must have barrier values of opposite sign, or one must be zero.
    Raises ``BoundarySamplingError`` naming the state where a value is not
    finite.
    """
    step = b - a

    def evaluate(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        x = a[rows] + t[:, None] * step[rows]
        fx = value(x)
        bad = ~np.isfinite(fx)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise BoundarySamplingError(
                f"barrier value {fx[i]} at state {x[i].tolist()} on a boundary "
                "segment; root-finding cannot continue"
            )
        return fx

    rows = np.arange(len(a))
    xpre, xcur = np.zeros(len(a)), np.ones(len(a))
    fpre, fcur = evaluate(xpre, rows), evaluate(xcur, rows)
    # An end where the barrier is zero is the root.
    roots = np.where(fpre == 0.0, 0.0, 1.0)
    bracket = (fpre != 0.0) & (fcur != 0.0)
    same = bracket & (np.signbit(fpre) == np.signbit(fcur))
    if np.any(same):
        i = int(np.argmax(same))
        raise BoundarySamplingError(
            f"barrier has one sign at both ends of the segment from {a[i].tolist()} "
            f"to {b[i].tolist()}"
        )
    rows, xpre, xcur, fpre, fcur = (v[bracket] for v in (rows, xpre, xcur, fpre, fcur))
    xblk, fblk, spre, scur = (np.zeros(len(rows)) for _ in range(4))
    for _ in range(_BRENT_MAXITER):
        # Keep the root bracketed by [xcur, xblk], with xcur the better end.
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (
            np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        )
        fpre, fcur, fblk = (
            np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        )

        delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if np.any(done):
            roots[rows[done]] = xcur[done]
            keep = ~done
            rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[keep]
                for v in (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            )
        if not len(rows):
            return roots

        # brentq.c's interpolation (a secant, when xpre is the bracket end)
        # or extrapolation (inverse quadratic), taken only when short;
        # otherwise bisect.
        with np.errstate(all="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quadratic = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, quadratic)
        reach = np.abs(spre)
        cap = 3 * np.abs(sbis) - delta
        short = (
            (reach > delta)
            & (np.abs(fcur) < np.abs(fpre))
            & (2 * np.abs(stry) < np.where(reach < cap, reach, cap))
        )
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = evaluate(xcur, rows)
    roots[rows] = xcur  # still open: the last iterate, as brentq.c returns it
    return roots


def _row_blocks(count: int) -> list[slice]:
    """Consecutive slices of at most ``_BLOCK_ROWS`` rows covering
    ``count`` rows; each stops at or before ``count``."""
    return [slice(a, min(a + _BLOCK_ROWS, count)) for a in range(0, count, _BLOCK_ROWS)]


def _lattice_rows(axes: list[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """Points of the regular grid over the per-axis coordinates ``axes``
    at the C-order flat indices ``flat``, shape (len(flat), n): the rows
    of the flattened ``np.meshgrid(*axes, indexing="ij")`` grid."""
    idx = np.unravel_index(flat, tuple(len(a) for a in axes))
    return np.stack([a[i] for a, i in zip(axes, idx)], axis=1)


def _pair_blocks(
    region: OperatingRegion,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``_PAIR_COUNT`` random point pairs (a, b) in the box, made block by
    block over ``_row_blocks(_PAIR_COUNT)``. The a rows continue rng's
    stream; the b rows come from a copy of it advanced past all the a rows
    (a uniform draw takes one step of the stream per coordinate). So the a
    blocks concatenate to ``region.sample(rng, _PAIR_COUNT)`` and the b
    blocks to the draw that follows it, whatever the block size; rng ends
    after the a rows."""
    rng_b = np.random.Generator(
        copy.deepcopy(rng.bit_generator).advance(_PAIR_COUNT * region.dimension)
    )
    for rows in _row_blocks(_PAIR_COUNT):
        k = rows.stop - rows.start
        yield region.sample(rng, k), region.sample(rng_b, k)


def _nearest_distances(pts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of pts to its nearest row of
    targets, shape (k,), equal to SciPy ``cKDTree(targets).query(pts)``'s
    distances bit for bit: squared differences are summed axis by axis in
    axis order (as cKDTree does below 8 axes), minimised, then rooted.
    Rows go in chunks, so that each temporary holds about 128 KiB."""
    rows = max(1, _DISTANCE_CHUNK // len(targets))
    out = np.empty(len(pts))
    for start in range(0, len(pts), rows):
        block = pts[start:start + rows]
        sq = np.zeros((len(block), len(targets)))
        for axis in range(pts.shape[1]):
            d = block[:, axis, None] - targets[:, axis]
            sq += d * d
        out[start:start + rows] = np.sqrt(np.min(sq, axis=1))
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
    x = np.array(pts, dtype=float)
    h0 = np.abs(barrier.value(x))
    alive = np.arange(len(x))
    for _ in range(8):
        xa = x[alive]
        h = barrier.value(xa)
        grad = barrier.gradient(xa)
        gg = np.vecdot(grad, grad)
        ok = np.isfinite(h) & np.isfinite(gg) & (gg > 0.0)
        step = xa[ok] - grad[ok] * (h[ok] / gg[ok])[:, None]
        alive = alive[ok]
        x[alive] = step
        alive = alive[np.all(np.isfinite(step), axis=1)]
    x = x[alive]
    h = barrier.value(x)
    converged = np.abs(h) <= 1e-9 * np.maximum(1.0, h0[alive])
    inside = np.all((x >= lo - slack) & (x <= hi + slack), axis=1)
    return np.clip(x[converged & inside], lo, hi)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, d) array, bit for bit equal to
    ``np.linalg.norm`` of that row alone (a BLAS dot per row, where
    ``np.linalg.norm(v, axis=1)`` sums squares in another order)."""
    return np.sqrt(np.vecdot(v, v))


def _evaluate_box(
    blocks: Iterable[np.ndarray],
    dyn: ControlAffineDynamics,
    controller: Callable[[np.ndarray], np.ndarray],
    barrier: BarrierFunction,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Fields at every point of the blocks of rows, one stacked call each
    per block: the largest drift norm, the largest actuation spectral norm,
    and the controller and actuation-row values per point, shapes (k, m)."""
    f_max, g_max, k_vals, lgh_vals = [], [], [], []
    for x in blocks:
        f_max.append(np.max(_row_norms(dyn.drift(x))))
        # Singular values of each actuation matrix, as np.linalg.norm(g, 2)
        # takes them; a constant matrix is decomposed once per block.
        g_max.append(np.max(np.linalg.svd(dyn.actuation(x), compute_uv=False)))
        k_vals.append(np.broadcast_to(controller(x), (len(x), dyn.m)))
        lgh_vals.append(lie_derivatives(dyn, barrier, x)[1])
    # np.max, not max, so that a NaN block maximum propagates.
    return (
        float(np.max(f_max)), float(np.max(g_max)),
        np.concatenate(k_vals), np.concatenate(lgh_vals),
    )


def _max_quotient(df: np.ndarray, dx: np.ndarray) -> float:
    """Largest difference quotient ||df|| / ||dx|| over paired differences,
    each along the last axis."""
    num = np.linalg.norm(df, axis=-1)
    den = np.linalg.norm(dx, axis=-1)
    keep = den > 0.0
    if not np.any(keep):
        return 0.0
    return float(np.max(num[keep] / den[keep]))


def certify_region(
    region: OperatingRegion,
    dyn: ControlAffineDynamics,
    controller: Callable[[np.ndarray], np.ndarray],
    barrier: BarrierFunction,
    *,
    tuning: TunableControllerConfig | None = None,
) -> tuple[Report, BoundSet | None, np.ndarray | None]:
    """Assumption report, regional bounds and activation-band |lgh| over the
    region, from one deterministic seeded sampling.

    The report's five checks: finite field and controller bounds, finite
    Lipschitz estimates of the controller and of the barrier-gradient
    actuation row, a non-degenerate actuation margin on the safe-set
    boundary, and a monotone lower envelope of h over distance to the
    boundary in 16 bins (evidence that h measures clearance). The maxima
    b_f, b_g, b_k, lam, l_k and m_lip come from 4096 uniform box samples, a
    lattice of about 30,000 points, and difference quotients over 100,000
    random point pairs and all lattice neighbors; mu from 512 root-found
    boundary points. Maxima are inflated and mu deflated by the region's
    ``safety_factor``. l_sigma is the tuning's analytic ``slope_bound``,
    ``sharpness / (4 * epsilon)``, or zero when no tuning is supplied. The
    band values are the unhedged |lgh| at the root-found boundary points and
    the box samples with 0 <= h < ``tuning.delta``, or None without a tuning;
    bounds and band are None when the report fails.
    """
    rng = np.random.default_rng(region.seed)
    report, raw = _assumption_report(
        region, dyn, controller, barrier, rng, None if tuning is None else tuning.delta,
    )
    if not report.passed:
        return report, None, None
    f_max, g_max, k_max, lgh_max, mu, band = raw
    safety_factor = region.safety_factor
    n = region.dimension

    per_axis = max(2, int(round(_LATTICE_POINTS ** (1.0 / n))))
    size = per_axis ** n
    axes = [np.linspace(region.lower[i], region.upper[i], per_axis) for i in range(n)]
    f_lat, g_lat, k_lat, lgh_lat = _evaluate_box(
        (_lattice_rows(axes, np.arange(r.start, r.stop)) for r in _row_blocks(size)),
        dyn, controller, barrier,
    )
    # np.max, not max, so that a NaN on the lattice propagates.
    b_f = safety_factor * float(np.max([f_max, f_lat]))
    b_g = safety_factor * float(np.max([g_max, g_lat]))
    b_k = safety_factor * float(np.max([k_max, np.max(np.linalg.norm(k_lat, axis=1))]))
    lam = safety_factor * float(np.max([lgh_max, np.max(np.linalg.norm(lgh_lat, axis=1))]))

    # Difference quotients: random pairs spread over the box, lattice
    # neighbors capture local slopes the random pairs dilute.
    l_k, m_lip = [], []
    for a, b in _pair_blocks(region, rng):
        out_shape = (len(a), dyn.m)
        k_a = np.broadcast_to(controller(a), out_shape)
        k_b = np.broadcast_to(controller(b), out_shape)
        lgh_a = lie_derivatives(dyn, barrier, a)[1]
        lgh_b = lie_derivatives(dyn, barrier, b)[1]
        dx = a - b
        l_k.append(_max_quotient(k_a - k_b, dx))
        m_lip.append(_max_quotient(lgh_a - lgh_b, dx))
    l_k, m_lip = float(np.max(l_k)), float(np.max(m_lip))

    # Each lattice point p off the last plane of an axis pairs with its
    # neighbor q = p + stride along that axis, as np.diff along it would.
    for axis in range(n):
        stride = per_axis ** (n - 1 - axis)
        l_k_axis, m_lip_axis = [], []
        for rows in _row_blocks(size):
            p = np.arange(rows.start, rows.stop)
            p = p[p // stride % per_axis < per_axis - 1]
            q = p + stride
            dx = _lattice_rows(axes, q) - _lattice_rows(axes, p)
            l_k_axis.append(_max_quotient(k_lat[q] - k_lat[p], dx))
            m_lip_axis.append(_max_quotient(lgh_lat[q] - lgh_lat[p], dx))
        l_k = max(l_k, float(np.max(l_k_axis)))
        m_lip = max(m_lip, float(np.max(m_lip_axis)))

    return report, BoundSet(
        b_f=b_f, b_g=b_g, b_k=b_k, lam=lam, mu=mu / safety_factor, m_lip=safety_factor * m_lip,
        l_k=safety_factor * l_k, l_sigma=tuning.slope_bound if tuning is not None else 0.0,
        safety_factor=safety_factor,
    ), band


def _assumption_report(
    region: OperatingRegion,
    dyn: ControlAffineDynamics,
    controller: Callable[[np.ndarray], np.ndarray],
    barrier: BarrierFunction,
    rng: np.random.Generator,
    delta: float | None,
) -> tuple[Report, tuple | None]:
    """The five checks of ``certify_region`` from the first draws of rng (4096
    box samples, then the boundary points root-found from 4096 more), and
    what the bounds reuse, unhedged: the box maxima of |f|, |g|, |k| and
    |lgh|, the smallest root-found boundary |lgh| and the band values for
    ``delta``, or None without boundary points. The checks' temporaries are
    freed on return."""
    pts = region.sample(rng, _SAMPLE_COUNT)
    _probe_shapes(dyn, barrier, pts[0], controller)
    f_norm, g_norm, k_arr, lgh_arr = _evaluate_box(
        (pts[rows] for rows in _row_blocks(len(pts))), dyn, controller, barrier,
    )
    k_norm = float(np.max(np.linalg.norm(k_arr, axis=1)))
    lam_raw = float(np.max(np.linalg.norm(lgh_arr, axis=1)))

    checks = []
    ok = all(math.isfinite(v) for v in (f_norm, g_norm, k_norm))
    checks.append(Check(
        "bounded_fields", "pass" if ok else "fail",
        f"max|f|={f_norm:.6g}, max|g|={g_norm:.6g}, max|k|={k_norm:.6g}",
    ))

    half = len(pts) // 2
    dx = pts[:half] - pts[half:2 * half]
    l_k_raw = _max_quotient(k_arr[:half] - k_arr[half:2 * half], dx)
    checks.append(Check(
        "controller_lipschitz", "pass" if math.isfinite(l_k_raw) else "fail",
        f"sampled difference quotient {l_k_raw:.6g}",
    ))

    m_raw = _max_quotient(lgh_arr[:half] - lgh_arr[half:2 * half], dx)
    gradient_check = Check(
        "gradient_actuation_lipschitz", "pass" if math.isfinite(m_raw) else "fail",
        f"sampled difference quotient {m_raw:.6g}",
    )

    try:
        bpts = boundary_points(region, barrier, rng=rng)
    except BoundarySamplingError as exc:
        checks.append(Check("boundary_actuation", "fail", str(exc)))
        checks.append(gradient_check)
        checks.append(Check("barrier_envelope", "skipped", "no boundary points"))
        return Report(tuple(checks)), None

    # Root-found crossings follow the boundary's bulk; Newton projection of
    # the box samples also reaches thin slivers (for the cruise-control
    # barrier, the zero-speed corner where actuation authority vanishes).
    proj = _project_to_boundary(region, barrier, pts)
    lgh_b, lgh_p = (
        _row_norms(lie_derivatives(dyn, barrier, p)[1])
        for p in (bpts, proj)
    )
    # np.min, not min, so that a NaN propagates.
    mu_raw = float(np.min(np.concatenate([lgh_b, lgh_p])))
    hs = barrier.value(pts)
    band = None if delta is None else np.concatenate(
        [lgh_b, _row_norms(lgh_arr[(0.0 <= hs) & (hs < delta)])]
    )
    raw = (f_norm, g_norm, k_norm, lam_raw, float(np.min(lgh_b)), band)
    degenerate = not mu_raw > _MU_DEGENERACY_RATIO * lam_raw
    checks.append(Check(
        "boundary_actuation", "fail" if degenerate else "pass",
        f"min |lgh|={mu_raw:.6g} over {len(bpts)} root-found + {len(proj)} projected "
        f"boundary points vs max |lgh|={lam_raw:.6g} "
        f"(degenerate at or below {_MU_DEGENERACY_RATIO:g} ratio)",
    ))
    checks.append(gradient_check)

    safe = pts[hs >= 0.0]
    safe_h = hs[hs >= 0.0]
    if len(safe) < _ENVELOPE_BINS:
        checks.append(Check("barrier_envelope", "skipped", "too few safe samples"))
        return Report(tuple(checks)), raw
    dists = _nearest_distances(safe, bpts)
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
    ))
    return Report(tuple(checks)), raw


def certify(cfg: RunConfig) -> Certificate:
    """The config's certificate: its explicit bounds, or ``certify_region``'s
    over its box for the plain filter ``config`` builds from it, so the
    filter certified is the filter the config runs. The boosted controller's
    extra authority enters the budgets through epsilon, not b_k.

    Three tuning checks: the amplified decrease rate must out-run the margin
    at the activation height (c * alpha(delta) > margin), the plateau must be
    strong enough for the boundary actuation margin to reject worst-case
    drift (epsilon <= mu^2 / (4 * margin)), and the actuation row must stay
    above half its boundary floor throughout the activation band
    {0 <= h < delta}. The band check reads the box sampling's band values,
    so with explicit bounds it reports "skipped".
    """
    tuning = cfg.tuning
    if cfg.bounds is not None:
        assumptions, bounds, band = None, cfg.bounds, None
    else:
        from .config import filter_from_config  # config imports this module

        filt = filter_from_config(cfg)
        assumptions, bounds, band = certify_region(
            cfg.region, filt.dynamics, filt, filt.barrier, tuning=tuning,
        )
        if bounds is None:
            return Certificate(assumptions, None, None)

    amplified = tuning.c * cfg.alpha(tuning.delta)
    budget = bounds.mu ** 2 / (4.0 * tuning.margin)
    checks = [
        Check(
            "amplification_covers_margin",
            "pass" if amplified > tuning.margin else "fail",
            f"c * alpha(delta) = {amplified:.6g} vs margin = {tuning.margin:.6g}",
        ),
        Check(
            "plateau_budget",
            "pass" if tuning.epsilon <= budget else "fail",
            f"epsilon = {tuning.epsilon:.6g} vs mu^2/(4*margin) = {budget:.6g}",
        ),
    ]
    if band is None:
        checks.append(Check(
            "activation_band_gain", "skipped", "explicit bounds sample no box for the band",
        ))
    else:
        floor = bounds.mu / 2.0
        worst = float(np.min(band))
        checks.append(Check(
            "activation_band_gain",
            "pass" if worst >= floor else "fail",
            f"min |lgh| over the band = {worst:.6g} vs mu/2 = {floor:.6g} "
            f"({len(band)} band points)",
        ))
    return Certificate(assumptions, bounds, Report(tuple(checks)))


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
    denom = error_bound_plain(bounds, 1.0) * bounds.l_k * bounds.lam
    if denom == 0.0:
        raise ConfigurationError("degenerate bounds: zero denominator in hold-period budget")
    return d / denom


def violation_free_sampling_time(bounds: BoundSet, epsilon: float, d: float) -> float:
    """Hold-period budget under which the boosted controller rejects hold
    errors outright, keeping the original safe set invariant."""
    drift = error_bound_tunable(bounds, epsilon, 1.0)
    if d <= 0.0:
        raise ConfigurationError(f"margin d must be > 0, got {d}")
    rate = (
        bounds.l_sigma * bounds.lam ** 2
        + (bounds.l_k + bounds.m_lip / epsilon) * bounds.lam
    )
    denom = rate * drift
    if denom == 0.0:
        raise ConfigurationError("degenerate bounds: zero denominator in hold-period budget")
    return d / denom
