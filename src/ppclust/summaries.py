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
    as_point,
    ball_volume,
    check_number,
    check_window,
    csv_text,
    min_image,
    near_pairs,
    neighbor_pairs,
    pair_distances,
    replicate,
    unit_ball_volume,
    volume,
)
from .procgen import GeneratorSpec, sample

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
    return Region("ball", float(radius))


def box(side: float) -> Region:
    return Region("box", float(side))


# ---------------------------------------------------------------------------
# Shared helpers


def _check_grid(r_grid) -> np.ndarray:
    grid = np.asarray(r_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("r_grid must be a non-empty 1-d sequence")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("r_grid must be strictly increasing")
    if not np.all(grid >= 0):
        raise ValueError("r_grid values must be non-negative")
    return grid


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
    d = _pair_distances(pattern, r)
    return 2 * int(np.count_nonzero(d <= r))


def _counts_in_regions(pattern: PointPattern, centers: np.ndarray, region: Region) -> np.ndarray:
    """Number of pattern points inside the region placed at each centre.

    A ball is a Euclidean ball of radius ``size``, a box a Chebyshev ball
    of radius ``size / 2``; candidates come from one KD-tree cross query
    and membership from the offsets, so ties on the boundary are decided
    by the comparisons below.
    """
    pts, w = pattern.points, pattern.window
    if region.kind == "ball":
        pairs = near_pairs(centers, pts, w, region.size)
    else:
        pairs = near_pairs(centers, pts, w, region.size / 2.0, p=np.inf)
    delta = min_image(np.abs(centers[pairs[:, 0]] - pts[pairs[:, 1]]), w)
    if region.kind == "ball":
        inside = np.sum(delta**2, axis=1) <= region.size**2
    else:
        inside = np.all(delta <= region.size / 2.0, axis=1)
    return np.bincount(pairs[inside, 0], minlength=centers.shape[0]).astype(np.int64)


def _region_counts(what: str, spec: GeneratorSpec, w: Window, regions, placements: int):
    """Check a region statistic's window and placement count, and return its
    replication: ``counts(rep)`` gives each region's counts at ``placements``
    uniform centres.

    The pattern comes from ``rep.derive(0)``; the centres come region by
    region, in order, from one generator of ``rep.derive(1)``.
    """
    check_window(what, w, "periodic", reach=max(r.max_extent() for r in regions) / 2)
    check_number("placements", placements, 1)

    def counts(rep: RandomStream) -> list:
        pattern = sample(spec, w, rep.derive(0))
        rng = rep.derive(1).generator()
        return [
            _counts_in_regions(pattern, w.lower + rng.random((placements, w.dim)) * w.sides, r)
            for r in regions
        ]

    return counts


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
    grid = _check_grid(r_grid)
    check_window("ripley_k", w, "periodic", reach=grid[-1])

    def one(rep: RandomStream):
        pattern = sample(spec, w, rep)
        n = pattern.points.shape[0]
        if n == 0:
            return None
        dists = np.sort(_pair_distances(pattern, grid[-1]))
        counts = 2.0 * np.searchsorted(dists, grid, side="right")
        return n, counts

    used = replicate(reps, stream, threads, one)
    volume_w = volume(w)
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
    grid = _check_grid(r_grid)
    if grid[0] == 0.0:
        raise ValueError("r=0 is not estimable: the surface factor vanishes there")
    if bandwidth is None:
        bandwidth = DEFAULT_BANDWIDTH_FRACTION * float(grid[-1])
    check_number("bandwidth", bandwidth, "pos")
    check_window("pair_correlation", w, "periodic", reach=grid[-1] + bandwidth)
    d = w.dim
    surface = d * unit_ball_volume(d) * grid ** (d - 1)

    def one(rep: RandomStream):
        pattern = sample(spec, w, rep)
        n = pattern.points.shape[0]
        dists = _pair_distances(pattern, grid[-1] + bandwidth)
        if dists.size == 0:
            return n, np.zeros(grid.size)
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
    counts = _region_counts("void_probability", spec, w, [region], placements)

    def one(rep: RandomStream) -> float:
        return float(np.mean(counts(rep)[0] == 0))

    return _estimate(replicate(reps, stream, threads, one))


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
    if not 1 <= k <= MAX_FACTORIAL_ORDER:
        raise ValueError(f"k must be between 1 and {MAX_FACTORIAL_ORDER}")
    counts = _region_counts("factorial_moment", spec, w, [box(box_side)], placements)

    def one(rep: RandomStream) -> float:
        return float(np.mean(_falling_factorial(counts(rep)[0].astype(float), k)))

    return _estimate(replicate(reps, stream, threads, one))


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
    counts = _region_counts("count_variance", spec, w, [box(box_side)], placements)
    if not reps >= 3:  # two means must be left after each leave-one-out deletion
        raise ValueError("the jackknife needs reps >= 3")

    def one(rep: RandomStream):
        c = counts(rep)[0].astype(float)
        m = float(np.mean(c))
        v = float(np.var(c, ddof=1)) if placements > 1 else 0.0
        return m, v

    rows = replicate(reps, stream, threads, one)
    means = np.array([m for m, _ in rows])
    wvars = np.array([v for _, v in rows])

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

    def one(rep: RandomStream) -> float:
        pattern = sample(spec, w, rep)
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
