"""Monte Carlo summary statistics for point-process samplers.

Every estimator here runs its replications through core.replicate, whose
docstring states the protocol, and reduces them with _mean_and_se, the one
sample mean and standard error of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PointPattern,
    RandomStream,
    Window,
    as_float,
    as_point,
    ball_volume,
    check_number,
    check_radii,
    check_window,
    count_near,
    csv_text,
    neighbor_pairs,
    pair_distances,
    replicate,
    unit_ball_volume,
    volume,
)
from .procgen import GeneratorSpec, Sampler, prepare

__all__ = [
    "EstimateWithError",
    "CurveEstimate",
    "Region",
    "ball",
    "box",
    "close_pair_count",
    "ripley_k",
    "pair_correlation",
    "void_probability",
    "factorial_moment",
    "laplace_functional",
    "count_variance",
    "curve_to_csv",
    "indicator_function",
]

DEFAULT_BANDWIDTH_FRACTION = 0.15
MAX_FACTORIAL_ORDER = 4
# Above this exponent, exp() overflows double precision; the Laplace
# estimator switches to log-space accumulation before that point.
_EXP_DIRECT_LIMIT = 680.0


@dataclass(frozen=True)
class EstimateWithError:
    """A scalar Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    replications: int


@dataclass(frozen=True)
class CurveEstimate:
    """A function estimate on a fixed grid of abscissa values."""

    abscissa: tuple
    estimates: tuple  # of EstimateWithError, aligned with abscissa

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    def std_errors(self) -> np.ndarray:
        return np.array([e.std_error for e in self.estimates])


@dataclass(frozen=True)
class Region:
    """A test region shape: a ball of given radius or an axis-aligned box
    of given side length, both placed by their centre point."""

    kind: str
    size: float

    def __post_init__(self):
        if self.kind not in ("ball", "box"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        check_number("region size", self.size, "pos")

    def volume(self, dim: int) -> float:
        if self.kind == "ball":
            return ball_volume(self.size, dim)
        return self.size**dim

    def max_extent(self) -> float:
        """Diameter along any axis, used to check the region fits."""
        return 2.0 * self.size if self.kind == "ball" else self.size


def ball(radius: float) -> Region:
    return Region("ball", as_float("radius", radius))


def box(side: float) -> Region:
    return Region("box", as_float("side", side))


# ---------------------------------------------------------------------------
# Shared helpers


def _mean_and_se(values) -> tuple:
    """Sample mean and standard error over the replications on axis 0.

    Fortran order makes each column one contiguous vector, so a column's
    mean and standard error equal those of the column reduced on its own,
    bit for bit.  One replication gives a standard error of 0.
    """
    values = np.asfortranarray(values, dtype=float)
    n = values.shape[0]
    mean = np.mean(values, axis=0)
    se = np.std(values, axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, se


def _estimate(values) -> EstimateWithError:
    """Scalar estimate from one value per replication."""
    mean, se = _mean_and_se(values)
    return EstimateWithError(float(mean), float(se), len(values))


def _estimates(values) -> tuple:
    """One estimate per column of a (replications, k) array."""
    mean, se = _mean_and_se(values)
    return tuple(EstimateWithError(float(m), float(s), len(values)) for m, s in zip(mean, se))


def _proportion(hits) -> EstimateWithError:
    """Frequency of 0/1 outcomes with its binomial standard error."""
    p = float(np.mean(hits))
    return EstimateWithError(p, math.sqrt(p * (1.0 - p) / len(hits)), len(hits))


def _falling_factorial(counts: np.ndarray, k: int) -> np.ndarray:
    """N(N-1)...(N-k+1) of each count."""
    stat = np.ones_like(counts, dtype=float)
    for j in range(k):
        stat = stat * (counts - j)
    return stat


def _pair_distances(pattern: PointPattern, cutoff: float) -> np.ndarray:
    """Distances of the unordered pairs that may lie within the cutoff, as a
    flat vector.  The pairs are a superset of those within the cutoff, so
    callers compare the distances against their own scales."""
    pairs = neighbor_pairs(pattern.points, pattern.window, cutoff)
    return pair_distances(pattern.points, pairs, pattern.window)


def close_pair_count(pattern: PointPattern, r: float) -> int:
    """Number of ordered pairs of distinct points at distance <= r."""
    check_number("radius", r, "nonneg")
    check_window("close_pair_count", pattern.window, reach=r)
    d = _pair_distances(pattern, r)
    return 2 * int(np.count_nonzero(d <= r))


def _counts_in_regions(pattern: PointPattern, centers: np.ndarray, regions) -> np.ndarray:
    """Number of pattern points inside each region at each of its centres:
    ``centers[i]`` is a (placements, d) array placing ``regions[i]``, and
    the result is a (regions, placements) int64 array.

    A ball is the closed Euclidean ball of radius ``size``, a box the closed
    Chebyshev ball of radius ``size / 2``: one KD-tree on the pattern, then
    one counting query per region (core.count_near).  Offsets are measured
    in window-relative coordinates, ``c - lower`` against ``x - lower``, so
    a point exactly on a region's boundary is inside when the region's
    formula holds in that frame; on a window at origin 0 the frame is the
    plain ``c - x``.
    """
    balls = [(r.size, 2.0) if r.kind == "ball" else (r.size / 2.0, np.inf) for r in regions]
    return count_near(centers, pattern.points, pattern.window, balls)


# ---------------------------------------------------------------------------
# Second-order statistics


def ripley_k(
    spec: GeneratorSpec,
    w: Window,
    r_grid,
    reps: int = 100,
    stream: RandomStream = None,
    threads: int = 1,
) -> CurveEstimate:
    """Estimate the reduced second moment function K(r).

    For each replication the ordered pairs at distance <= r are counted and
    scaled by 1/(lambda^2 |W|) with the intensity pooled across replications;
    for a Poisson process the result approaches kappa_d r^d.  Empty
    replications carry no pairs and are skipped (an error is raised if more
    than half are empty, since the estimate would then be meaningless).
    """
    grid = check_radii("r_grid", r_grid)
    check_window("ripley_k", w, "periodic", reach=grid.max())
    return _ripley_k(prepare(spec, w), grid, reps, stream, threads)


def _ripley_k(sampler: Sampler, grid: np.ndarray, reps, stream, threads) -> CurveEstimate:
    """ripley_k of a prepared sampler at a checked grid."""

    def one(rep: RandomStream):
        pattern = sampler.draw(rep)
        n = pattern.points.shape[0]
        if n == 0:
            return None
        dists = np.sort(_pair_distances(pattern, grid.max()))
        counts = 2.0 * np.searchsorted(dists, grid, side="right")
        return n, counts

    used = replicate(reps, stream, threads, one)
    volume_w = volume(sampler.window)
    total_points = sum(n for n, _ in used)
    lam_hat = total_points / (len(used) * volume_w)
    per_rep = np.array([counts / (lam_hat**2 * volume_w) for _, counts in used])
    return CurveEstimate(tuple(float(r) for r in grid), _estimates(per_rep))


def pair_correlation(
    spec: GeneratorSpec,
    w: Window,
    r_grid,
    bandwidth: float = None,
    reps: int = 100,
    stream: RandomStream = None,
    threads: int = 1,
) -> CurveEstimate:
    """Kernel estimate of the pair correlation function g(r).

    Ordered pair distances are smoothed with an Epanechnikov kernel and
    normalised by the spherical surface measure d kappa_d r^(d-1), so a
    Poisson process gives g = 1 at every scale.  The default bandwidth is
    0.15 times the largest grid value.
    """
    grid = check_radii("r_grid", r_grid)
    if np.any(grid == 0.0):
        raise ValueError("r=0 is not estimable: the surface factor vanishes there")
    if bandwidth is None:
        bandwidth = DEFAULT_BANDWIDTH_FRACTION * float(grid.max())
    check_number("bandwidth", bandwidth, "pos")
    check_window("pair_correlation", w, "periodic", reach=grid.max() + bandwidth)
    d = w.dim
    surface = d * unit_ball_volume(d) * grid ** (d - 1)
    sampler = prepare(spec, w)

    def one(rep: RandomStream):
        pattern = sampler.draw(rep)
        n = pattern.points.shape[0]
        dists = _pair_distances(pattern, grid.max() + bandwidth)
        u = (grid[:, None] - dists[None, :]) / bandwidth
        kern = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u**2) / bandwidth, 0.0)
        return n, 2.0 * np.sum(kern, axis=1)

    results = replicate(reps, stream, threads, one)
    volume_w = volume(w)
    lam_hat = sum(n for n, _ in results) / (reps * volume_w)
    if lam_hat == 0:
        raise ValueError("all replications were empty")
    per_rep = np.array([s / (lam_hat**2 * volume_w * surface) for _, s in results])
    return CurveEstimate(tuple(float(r) for r in grid), _estimates(per_rep))


# ---------------------------------------------------------------------------
# Region-sampling statistics


def _total_variance(means: np.ndarray, wvars: np.ndarray, placements: int) -> EstimateWithError:
    """Count variance from the replications' means and within-pattern
    variances by the law of total variance, with a leave-one-out jackknife
    error."""
    reps = len(means)

    def estimator(ms: np.ndarray, vs: np.ndarray) -> float:
        # E Var(N | pattern) * (1 - 1/placements) + Var of conditional means
        # is unbiased for Var(N): the between-means variance picks up an
        # extra E Var(N | pattern)/placements of placement noise.
        between = float(np.var(ms, ddof=1))
        if placements == 1:
            return between
        return float(np.mean(vs)) * (1.0 - 1.0 / placements) + between

    value = estimator(means, wvars)
    idx = np.arange(reps)
    loo = np.array(
        [estimator(means[idx != i], wvars[idx != i]) for i in range(reps)]
    )
    se = math.sqrt((reps - 1) / reps * float(np.sum((loo - np.mean(loo)) ** 2)))
    return EstimateWithError(value, se, reps)


def _region_values(counts: np.ndarray, statistic, placements: int) -> np.ndarray:
    """One replication's ``"voids"`` or order-k value at each region of its
    (regions, placements) counts, or for ``"variance"`` the (2, regions) means
    and within variances; each row reduces as its own 1-d counts would."""
    if statistic == "voids":
        return np.mean(counts == 0, axis=1)
    if statistic == "variance":
        wvars = np.var(counts, axis=1, ddof=1) if placements > 1 else np.zeros(len(counts))
        return np.array([np.mean(counts, axis=1), wvars])
    return np.mean(_falling_factorial(counts, statistic), axis=1)


def _check_count_parameters(orders, placements):
    """Reject a factorial order outside 1..MAX_FACTORIAL_ORDER or fewer than
    one placement per region."""
    for k in orders:
        if check_number("k", k, 1) > MAX_FACTORIAL_ORDER:
            raise ValueError(f"k must be between 1 and {MAX_FACTORIAL_ORDER}")
    check_number("placements", placements, 1)


def _region_estimates(what, sampler, regions, statistics, placements, reps, stream, threads):
    """Estimate each statistic of ``statistics[i]`` at ``regions[i]``: one
    tuple of estimates per region, all from one replication.

    A statistic is ``"voids"``, ``"variance"`` or a factorial order k.
    Every input is checked before sampling.  Each replication draws the
    pattern from ``rep.derive(0)``, draws ``placements`` uniform centres per
    region as one (regions, placements, d) block from one generator of
    ``rep.derive(1)``, which gives the values of drawing them region by
    region in order, and counts every region in one ``_counts_in_regions``
    call: one KD-tree on the pattern and one counting query per region.
    Each replication reduces its own counts to one value per region and
    statistic, and each estimate stacks its values across replications.  A
    region's estimates do not depend on the regions after it, so the first
    equal a single-region call's at the same stream.
    """
    w = sampler.window
    orders = [s for stats in statistics for s in stats if not isinstance(s, str)]
    _check_count_parameters(orders, placements)
    check_window(what, w, "periodic", reach=max(r.max_extent() for r in regions) / 2)
    if any("variance" in stats for stats in statistics) and not reps >= 3:
        # two means must be left after each leave-one-out deletion
        raise ValueError("the jackknife needs reps >= 3")

    kinds = {s for stats in statistics for s in stats}

    def one(rep: RandomStream) -> dict:
        pattern = sampler.draw(rep.derive(0))
        draws = rep.derive(1).generator().random((len(regions), placements, w.dim))
        counts = _counts_in_regions(pattern, w.lower + draws * w.sides, regions).astype(float)
        return {s: _region_values(counts, s, placements) for s in kinds}

    per_rep = replicate(reps, stream, threads, one)

    def estimate(i: int, s) -> EstimateWithError:
        values = np.array([v[s][..., i] for v in per_rep])
        if s == "variance":
            return _total_variance(values[:, 0], values[:, 1], placements)
        return _estimate(values)

    return tuple(tuple(estimate(i, s) for s in stats) for i, stats in enumerate(statistics))


def void_probability(
    spec: GeneratorSpec,
    w: Window,
    region: Region,
    placements: int = 64,
    reps: int = 100,
    stream: RandomStream = None,
    threads: int = 1,
) -> EstimateWithError:
    """Probability that the region, uniformly placed, contains no points.

    Each replication averages the empty indicator over independently placed
    regions; the standard error is taken across replications, which keeps it
    honest about the within-pattern correlation of overlapping placements.
    """
    return _region_estimates(
        "void_probability", prepare(spec, w), [region], [["voids"]], placements, reps, stream,
        threads,
    )[0][0]


def factorial_moment(
    spec: GeneratorSpec,
    w: Window,
    box_side: float,
    k: int,
    placements: int = 64,
    reps: int = 100,
    stream: RandomStream = None,
    threads: int = 1,
) -> EstimateWithError:
    """k-th factorial moment E[N(N-1)...(N-k+1)] of the count in a box.

    The box of the given side is placed uniformly; k is limited to 4 because
    higher falling factorials are numerically dominated by rare large counts.
    """
    return _region_estimates(
        "factorial_moment", prepare(spec, w), [box(box_side)], [[k]], placements, reps, stream,
        threads,
    )[0][0]


def count_variance(
    spec: GeneratorSpec,
    w: Window,
    box_side: float,
    placements: int = 64,
    reps: int = 100,
    stream: RandomStream = None,
    threads: int = 1,
) -> EstimateWithError:
    """Variance of the count in a uniformly placed box.

    Combines the within-replication sample variance with the variance of the
    per-replication means by the law of total variance, so placements inside
    one pattern and pattern-to-pattern fluctuation both contribute.  The
    standard error comes from a leave-one-replication-out jackknife.
    """
    return _region_estimates(
        "count_variance", prepare(spec, w), [box(box_side)], [["variance"]], placements, reps,
        stream, threads,
    )[0][0]


# ---------------------------------------------------------------------------
# Transform statistics


def laplace_functional(
    spec: GeneratorSpec,
    w: Window,
    f,
    sign: str = "minus",
    reps: int = 100,
    stream: RandomStream = None,
    threads: int = 1,
) -> EstimateWithError:
    """Estimate E[exp(-sum f(x))] (sign="minus") or E[exp(+sum f(x))].

    ``f`` maps an (n, d) array of points to n non-negative values.  The
    "plus" sign grows exponentially in the point count, so accumulation runs
    in log space and an overflow of the final mean is reported as an error
    rather than returned as inf.
    """
    if sign not in ("minus", "plus"):
        raise ValueError("sign must be 'minus' or 'plus'")
    sampler = prepare(spec, w)

    def one(rep: RandomStream) -> float:
        pattern = sampler.draw(rep)
        if pattern.points.shape[0] == 0:
            return 0.0
        values = np.asarray(f(pattern.points), dtype=float)
        if values.shape != (pattern.points.shape[0],):
            raise ValueError("f must return one value per point")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("f must be non-negative and finite on the window")
        total = float(np.sum(values))
        return -total if sign == "minus" else total

    exponents = np.array(replicate(reps, stream, threads, one))
    if np.max(exponents) < _EXP_DIRECT_LIMIT:
        return _estimate(np.exp(exponents))
    # Log-space path: log-mean and log-second-moment via stable reductions.
    from scipy.special import logsumexp

    log_mean = float(logsumexp(exponents)) - math.log(reps)
    if log_mean > math.log(np.finfo(float).max):
        raise OverflowError(
            "Laplace functional estimate overflows double precision; "
            "rescale f or use sign='minus'"
        )
    mean = math.exp(log_mean)
    if reps < 2:
        return EstimateWithError(mean, 0.0, reps)
    # Var = m2 - mean^2 in log space: m2 >= mean^2 by Jensen, so the
    # difference is log_m2 + log1p(-exp(2 log_mean - log_m2)).
    log_m2 = float(logsumexp(2.0 * exponents)) - math.log(reps)
    gap = 2.0 * log_mean - log_m2
    if gap >= 0.0:  # numerically equal moments: zero spread
        return EstimateWithError(mean, 0.0, reps)
    log_se = 0.5 * (log_m2 + math.log1p(-math.exp(gap)) - math.log(reps - 1))
    se = math.exp(log_se) if log_se < math.log(np.finfo(float).max) else math.inf
    return EstimateWithError(mean, se, reps)


def indicator_function(lower, upper, height: float = 1.0):
    """Build f(points) = height inside the axis-aligned box, 0 outside.

    A convenient bounded non-negative test function for Laplace functionals:
    for a Poisson process the exact transform is exp(±lambda |B| (e^{∓h}-1))
    with B the box.
    """
    lo, hi = as_point(lower), as_point(upper)
    check_number("height", height, "nonneg")
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValueError("lower and upper must be 1-d with lower < upper")

    def f(points: np.ndarray) -> np.ndarray:
        inside = np.all((points >= lo) & (points < hi), axis=1)
        return np.where(inside, float(height), 0.0)

    return f


# ---------------------------------------------------------------------------
# Serialization


def curve_to_csv(curve: CurveEstimate) -> str:
    """CSV with one row per abscissa: r,estimate,std_error,replications."""
    return csv_text(
        ("r", "estimate", "std_error", "replications"),
        (
            (r, est.value, est.std_error, est.replications)
            for r, est in zip(curve.abscissa, curve.estimates)
        ),
    )
