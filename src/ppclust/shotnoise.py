"""Shot-noise fields, coverage volumes, and Chernoff exceedance bounds.

A response function h maps distance to a non-negative, non-increasing
influence.  Summing h over a point pattern gives the additive shot-noise
field, taking the max gives the extremal field, and summing the indicator
response counts covering balls.  For the additive field of a process whose
factorial moments are dominated by a Poisson process of rate lambda, the
Poisson exponential moment yields Chernoff bounds on level exceedances;
``level_exceedance_bound`` evaluates those bounds by one-dimensional
minimization.  It imports ``scipy.integrate`` and ``scipy.optimize`` on
first use, and no CLI experiment calls it, so loading the package does not
load either solver.

The additive and extremal fields evaluate h at every (eval, point) pair
and sum or max each row through ``core.reduce_distances``, the one dense
distance kernel, so they share its ``core.MAX_DENSE_ENTRIES`` cap on work
and hold one row block of distances at a time.  Coverage counts read only the
pairs within r, from one KD-tree query per pattern at the largest of the
radii of a coverage curve, which ``k_covered_volume`` takes as one list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    PointPattern,
    RandomStream,
    Window,
    check_number,
    check_radii,
    check_window,
    csv_text,
    grid_centers,
    min_image,
    near_pairs,
    reduce_distances,
    replicate,
    unit_ball_volume,
    volume,
)
from .procgen import GeneratorSpec, prepare
from .summaries import CurveEstimate, _estimates

__all__ = [
    "ResponseFunction",
    "FieldSample",
    "indicator_ball",
    "exponential_response",
    "power_law_response",
    "tabulated_response",
    "additive_field",
    "extremal_field",
    "coverage_field",
    "k_covered_volume",
    "level_exceedance_bound",
    "coverage_summary_to_csv",
]

RESPONSE_KINDS = ("indicator_ball", "exponential", "power_law", "tabulated")
# Chernoff optimization: a walk over exponents in ratio _S_RATIO, then
# golden-section refinement to 1e-6 relative accuracy around its minimum.
_S_RATIO = math.sqrt(2.0)
_GOLDEN_RTOL = 1e-6
_QUAD_RTOL = 1e-8


@dataclass(frozen=True)
class ResponseFunction:
    """Radial influence kernel h(r), non-negative and non-increasing."""

    kind: str
    params: tuple = ()
    table: tuple = field(default=())  # (radii, values) for kind="tabulated"

    def __post_init__(self):
        if self.kind not in RESPONSE_KINDS:
            raise ValueError(f"unknown response kind {self.kind!r}")
        if self.kind == "indicator_ball":
            (rho,) = self.params
            check_number("indicator_ball radius", rho, "pos")
        elif self.kind == "exponential":
            (beta,) = self.params
            check_number("exponential rate", beta, "pos")
        elif self.kind == "power_law":
            beta, eps = self.params
            check_number("power_law beta", beta, "pos")
            check_number("power_law eps", eps, "pos")
        else:
            radii, values = (np.asarray(a, dtype=float) for a in self.table)
            if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
                raise ValueError("tabulated response needs matching 1-d grids")
            # NaN-safe: a NaN or inf entry fails one of the comparisons.
            if not (radii[0] >= 0 and np.all(np.diff(radii) > 0) and radii[-1] < np.inf):
                raise ValueError("tabulated radii must be non-negative and increasing")
            if not (values[0] < np.inf and np.all(values >= 0) and np.all(np.diff(values) <= 0)):
                raise ValueError("tabulated values must be non-negative and non-increasing")

    def evaluate(self, r) -> np.ndarray:
        """h at the given distances (vectorized, closed-ball convention)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "indicator_ball":
            return np.where(r <= self.params[0], 1.0, 0.0)
        if self.kind == "exponential":
            return np.exp(-self.params[0] * r)
        if self.kind == "power_law":
            beta, eps = self.params
            return (eps + r) ** (-beta)
        radii, values = (np.asarray(a, dtype=float) for a in self.table)
        return np.interp(r, radii, values, left=values[0], right=0.0)

    def support_radius(self) -> float:
        if self.kind == "indicator_ball":
            return self.params[0]
        if self.kind == "tabulated":
            return float(self.table[0][-1])
        return math.inf

    def check_integrable(self, d: int):
        """Integrability of h over R^d, decided analytically per kind."""
        if self.kind == "power_law" and self.params[0] <= d:
            raise ValueError(
                f"power_law response with beta={self.params[0]:g} is not "
                f"integrable in dimension {d}; beta > d is required"
            )

    def radial_inverse(self, t: float) -> float:
        """Distance r with h(r) = t, for strictly decreasing kinds."""
        if self.kind == "indicator_ball":
            raise ValueError("indicator responses are not strictly decreasing")
        h0 = float(self.evaluate(0.0))
        if not 0 < t <= h0:
            raise ValueError(f"level {t:g} outside the response range (0, {h0:g}]")
        if self.kind == "exponential":
            return -math.log(t) / self.params[0]
        if self.kind == "power_law":
            beta, eps = self.params
            return max(t ** (-1.0 / beta) - eps, 0.0)
        radii, values = (np.asarray(a, dtype=float) for a in self.table)
        if np.any(np.diff(values) >= 0):
            raise ValueError("tabulated response must be strictly decreasing to invert")
        return float(np.interp(t, values[::-1], radii[::-1]))


def indicator_ball(rho: float) -> ResponseFunction:
    return ResponseFunction("indicator_ball", (float(rho),))


def exponential_response(beta: float) -> ResponseFunction:
    return ResponseFunction("exponential", (float(beta),))


def power_law_response(beta: float, eps: float) -> ResponseFunction:
    return ResponseFunction("power_law", (float(beta), float(eps)))


def tabulated_response(radii, values) -> ResponseFunction:
    return ResponseFunction(
        "tabulated", (), (tuple(float(r) for r in radii), tuple(float(v) for v in values))
    )


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Field values at a finite set of evaluation points."""

    eval_points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.eval_points.shape[0] != self.values.shape[0]:
            raise ValueError("one value per evaluation point required")
        if np.any(self.values < 0):
            raise ValueError("field values must be non-negative")


def _check_eval_points(eval_points, w: Window) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if pts.shape[1] != w.dim:
        raise ValueError("evaluation points must match the window dimension")
    if not np.all(w.contains(pts)):
        raise ValueError("evaluation points must lie inside the window")
    return pts


def additive_field(pattern: PointPattern, h: ResponseFunction, eval_points) -> FieldSample:
    """Sum of h(distance to X) over all pattern points X, per eval point."""
    pts = _check_eval_points(eval_points, pattern.window)
    if pattern.points.shape[0] == 0:
        return FieldSample(pts, np.zeros(pts.shape[0]))
    values = reduce_distances(pts, pattern.window, pattern.points, h.evaluate, np.sum)
    return FieldSample(pts, values)


def extremal_field(pattern: PointPattern, h: ResponseFunction, eval_points) -> FieldSample:
    """Max of h(distance to X) over pattern points; 0 for an empty pattern
    (all responses are non-negative, so 0 is the natural floor)."""
    pts = _check_eval_points(eval_points, pattern.window)
    if pattern.points.shape[0] == 0:
        return FieldSample(pts, np.zeros(pts.shape[0]))
    values = reduce_distances(pts, pattern.window, pattern.points, h.evaluate, np.max)
    return FieldSample(pts, values)


def _coverage_counts(pattern: PointPattern, radii, grid_n: int) -> np.ndarray:
    """Balls covering each grid_centers cell, one row per radius in the order
    given, from one query at the largest.  Each offset's length (minimum
    image, root of the sum of squares) is compared with every radius, so
    ties fall as in a query at one radius."""
    w = pattern.window
    centers = grid_centers(w, grid_n)
    pairs = near_pairs(centers, pattern.points, w, max(radii))
    delta = min_image(np.abs(centers[pairs[:, 0]] - pattern.points[pairs[:, 1]]), w)
    dist = np.sqrt(np.sum(delta**2, axis=1))
    return np.array([np.bincount(pairs[dist <= r, 0], minlength=len(centers)) for r in radii])


def coverage_field(pattern: PointPattern, r: float, grid_n: int) -> FieldSample:
    """Number of radius-r balls covering each point of a regular grid."""
    w = pattern.window
    check_number("coverage radius", r, "nonneg")
    check_window("coverage_field", w, reach=r)
    counts = _coverage_counts(pattern, [r], grid_n)[0].astype(float)
    return FieldSample(grid_centers(w, grid_n), counts)


def _covered_cells(what: str, spec: GeneratorSpec, w: Window, radii, k: int, grid_n: int):
    """Check a k-coverage statistic's parameters and window, and return the
    checked radii and its replication: ``covered(rep)`` is a (radii, cells)
    boolean array whose row i flags each grid cell whose centre lies in at
    least k of the radius-radii[i] balls of the pattern sampled from ``rep``.
    """
    check_number("k", k, 1)
    radii = check_radii("radii", radii)
    check_window(what, w, reach=radii.max())
    check_number("grid_n", grid_n, 1)
    sampler = prepare(spec, w)

    def covered(rep: RandomStream) -> np.ndarray:
        return _coverage_counts(sampler.draw(rep), radii, grid_n) >= k

    return radii, covered


def k_covered_volume(
    spec: GeneratorSpec, w: Window, radii, k: int = 1, grid_n: int = 64,
    reps: int = 100, stream: RandomStream = None, threads: int = 1,
) -> CurveEstimate:
    """Expected volume of the region covered by at least k balls of radius
    r, at each radius in the order given, all read from the same replications.

    Counts grid cells whose center is covered k or more times; by
    stationarity the cell-center coverage probability equals the volume
    fraction, so the estimator is unbiased with a grid-resolution error
    of at most one cell layer along the coverage boundary.
    """
    radii, covered = _covered_cells("k_covered_volume", spec, w, radii, k, grid_n)
    cell_volume = volume(w) / grid_n**w.dim

    def one(rep: RandomStream) -> np.ndarray:
        return cell_volume * np.count_nonzero(covered(rep), axis=1)

    return CurveEstimate(tuple(radii.tolist()), _estimates(replicate(reps, stream, threads, one)))


def _radial_integral(h: ResponseFunction, f, d: int) -> float:
    """integral over R^d of f(h(|x|)), for an f with f(0) = 0; ArithmeticError
    (of which OverflowError is a kind) where the quadrature reports failure."""
    if h.kind == "indicator_ball":
        rho = h.params[0]
        return f(1.0) * unit_ball_volume(d) * rho**d
    surface = d * unit_ball_volume(d)

    def integrand(r):
        return f(float(h.evaluate(r))) * r ** (d - 1)

    upper = h.support_radius()
    from scipy import integrate

    # With full_output, quad warns of nothing and appends its message on failure.
    value, _, _, *failure = integrate.quad(
        integrand, 0.0, upper if math.isfinite(upper) else np.inf, epsrel=_QUAD_RTOL, limit=200,
        full_output=1,
    )
    if failure:
        raise ArithmeticError(failure[0])
    return surface * value


def _exponential_moment_integral(h: ResponseFunction, s: float, sign: int, d: int) -> float:
    """integral over R^d of (exp(sign * s * h(|x|)) - 1) dx."""
    return _radial_integral(h, lambda v: math.expm1(sign * s * v), d)


def level_exceedance_bound(
    lam: float, h: ResponseFunction, a: float, direction: str = "min_above", d: int = 2
) -> float:
    """Chernoff bound on shot-noise level exceedances at a single point.

    ``min_above`` bounds P(V >= a) by inf_s exp(-s a + lam I(s)) with
    I(s) = integral of (e^{s h} - 1); ``max_below`` bounds P(V <= a) with
    the signs flipped.  I is closed-form for indicator responses and
    adaptive quadrature otherwise; where e^{s h} overflows or the quadrature
    fails, the log-bound counts as +inf.  Bounds above 1 are reported as 1.

    The log-bound is convex and 0 at s = 0, with slope sign (lam int h - a)
    there, so the bound is 1 unless that slope is negative.  From s = 1, s
    walks down by _S_RATIO until the log-bound is below 0 (giving 1 once
    slope s >= -_GOLDEN_RTOL, as the log-bound is at least slope s below s),
    then up while it falls; golden section refines the minimum on (the
    previous s or 0, s, s _S_RATIO).
    """
    if direction not in ("min_above", "max_below"):
        raise ValueError("direction must be 'min_above' or 'max_below'")
    check_number("the level a", a, "pos")
    check_number("intensity", lam, "nonneg")
    check_number("dimension", d, 1)
    h.check_integrable(d)
    if lam == 0:
        # exp(-s a) for min_above (infimum 0 as s grows); for max_below the
        # empty process has V = 0 <= a always, and the bound degenerates to 1.
        return 0.0 if direction == "min_above" else 1.0
    sign = 1 if direction == "min_above" else -1

    def log_bound(s: float) -> float:
        if s <= 0:
            return 0.0
        try:
            value = -sign * s * a + lam * _exponential_moment_integral(h, s, sign, d)
        except ArithmeticError:
            return math.inf
        return value if math.isfinite(value) else math.inf

    try:
        slope = sign * (lam * _radial_integral(h, float, d) - a)
    except ArithmeticError:  # a failed quadrature gives no slope: vacuous
        return 1.0
    if slope >= 0:
        return 1.0
    s, value = 1.0, log_bound(1.0)
    while value >= 0:
        if slope * s >= -_GOLDEN_RTOL:
            return 1.0
        s /= _S_RATIO
        value = log_bound(s)
    lower, upper = 0.0, log_bound(s * _S_RATIO)
    while upper < value:
        lower, s, value = s, s * _S_RATIO, upper
        upper = log_bound(s * _S_RATIO)
    if value < upper:
        from scipy import optimize

        result = optimize.minimize_scalar(
            log_bound,
            bracket=(lower, s, s * _S_RATIO),
            method="golden",
            options={"xtol": _GOLDEN_RTOL},
        )
        value = min(float(result.fun), value)
    return math.exp(value)


# ---------------------------------------------------------------------------
# Serialization


def coverage_summary_to_csv(curve: CurveEstimate, k: int) -> str:
    """CSV rows r,k,volume,std_error, one per radius of the curve."""
    return csv_text(
        ("r", "k", "volume", "std_error"),
        ((r, k, est.value, est.std_error) for r, est in zip(curve.abscissa, curve.estimates)),
    )
