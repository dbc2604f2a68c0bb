"""Geometry primitives: windows, metrics, grids, deterministic random streams,
the replication driver, the CSV artifact format, the one finite-number
validator and the one window contract.

Everything here is immutable after construction and safe to share across
parallel workers. Stationary statistics default to periodic (torus) windows;
Euclidean windows exist for experiments where wraparound would create
artifacts (crossing probabilities, complexes).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

# Enumeration costs explode in high dimension; boxes only.
MAX_DIMENSION = 8
# Cap on grid_centers output size (cells across all axes combined).
MAX_GRID_CELLS = 1 << 24
# Cap on the (n, m, d) offset array of pairwise_distances, the one dense
# distance kernel (shot-noise fields, SINR).
MAX_DENSE_ENTRIES = 1 << 24

METRICS = ("euclidean", "periodic")

# The bound table of check_number: bound -> (test on a finite value, phrase).
_BOUNDS = {
    None: (lambda v: True, "finite"),
    "pos": (lambda v: v > 0, "positive"),
    "nonneg": (lambda v: v >= 0, "non-negative"),
    "unit": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


def check_number(name: str, value, bound=None):
    """Return ``value`` if it is a finite number within ``bound``, else raise
    ``ValueError(f"{name} must be {phrase}")``.

    ``bound`` is a key of ``_BOUNDS`` (``None`` asks only for a finite
    value), or an int floor k: the value must then be an integer
    (``numbers.Integral``, so numpy integers pass) and >= k, and the phrase
    is ``>= k``.  Integers are finite by type; they never reach
    ``math.isfinite``, which overflows beyond the float range.
    """
    if isinstance(bound, int):
        if isinstance(value, numbers.Integral) and value >= bound:
            return value
        phrase = f">= {bound}"
    else:
        test, phrase = _BOUNDS[bound]
        if (isinstance(value, numbers.Integral) or math.isfinite(value)) and test(value):
            return value
    raise ValueError(f"{name} must be {phrase}")


def check_window(what: str, w: Window, metric: str = None, reach: float = None):
    """Raise ``ValueError`` naming ``what`` unless ``w`` has ``metric`` (when
    given) and, on a torus, ``reach`` stays strictly below half the smallest
    side.

    A kernel comparing distances up to ``reach`` is well defined on a torus
    only below half a side: at exactly half, a point at offset side/2 lies
    within reach of two images of another, and the minimum image counts it
    once.  Euclidean windows have no reach limit.
    """
    if metric is not None and w.metric != metric:
        name = "Euclidean" if metric == "euclidean" else metric
        raise ValueError(f"{what} needs a {name} window")
    if reach is not None and w.metric == "periodic":
        half = float(np.min(w.sides)) / 2.0
        if not reach < half:
            raise ValueError(
                f"{what}: reach {reach:g} must stay below half the smallest "
                f"window side ({half:g}) on a torus"
            )


def as_point(coords) -> np.ndarray:
    """Coerce coordinates to a finite float vector."""
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


@dataclass(frozen=True, eq=False)
class Window:
    """Axis-aligned box [lower, upper) with a distance metric.

    The half-open convention means grid tilings and lattice restrictions
    never double-count boundary points.
    """

    lower: np.ndarray
    upper: np.ndarray
    metric: str = "periodic"

    def __post_init__(self):
        object.__setattr__(self, "lower", as_point(self.lower))
        object.__setattr__(self, "upper", as_point(self.upper))
        if self.lower.shape != self.upper.shape:
            raise ValueError("window lower/upper dimension mismatch")
        if self.dim < 1 or self.dim > MAX_DIMENSION:
            raise ValueError(f"window dimension must be in [1, {MAX_DIMENSION}]")
        if not np.all(self.lower < self.upper):
            raise ValueError("window requires lower[i] < upper[i] on every axis")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership test for an (n, d) array of points."""
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lower) & (pts < self.upper), axis=1)

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """Map points onto the torus represented by this window."""
        wrapped = np.mod(points - self.lower, self.sides)
        # mod of a tiny negative offset can round up to the full side length.
        wrapped[wrapped >= self.sides] = 0.0
        return self.lower + wrapped


def box(*bounds, metric: str = "periodic") -> Window:
    """Window from per-axis (low, high) pairs: box((0, 10), (0, 10))."""
    lower = [b[0] for b in bounds]
    upper = [b[1] for b in bounds]
    return Window(np.array(lower, float), np.array(upper, float), metric)


def cube(side: float, d: int, origin: float = 0.0, metric: str = "periodic") -> Window:
    """Cubic window [origin, origin + side)^d."""
    lower = np.full(d, origin, float)
    return Window(lower, lower + side, metric)


@dataclass(frozen=True, eq=False)
class PointPattern:
    """A finite set of points inside a window, stored as an (n, d) array."""

    window: Window
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = np.empty((0, self.window.dim))
        if pts.ndim != 2 or pts.shape[1] != self.window.dim:
            raise ValueError("points must form an (n, d) array matching the window")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        if pts.shape[0] and not np.all(self.window.contains(pts)):
            raise ValueError("all points must lie inside the window (half-open)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.window.dim


def min_image(delta: np.ndarray, w: Window) -> np.ndarray:
    """Per-axis offsets |a - b| under the window's metric: on a torus, the
    shorter way round each axis."""
    if w.metric == "periodic":
        return np.minimum(delta, w.sides - delta)
    return delta


def distance(a, b, w: Window) -> float:
    """Distance between two points under the window's metric.

    Periodic distance is the minimum over all lattice images of b by the
    window side-length vector.
    """
    a = as_point(a)
    b = as_point(b)
    if a.shape != b.shape or a.shape[0] != w.dim:
        raise ValueError("dimension mismatch")
    delta = min_image(np.abs(a - b), w)
    return float(np.sqrt(np.sum(delta * delta)))


def pairwise_distances(points: np.ndarray, w: Window, others: np.ndarray = None) -> np.ndarray:
    """Dense (n, m) distance matrix from points to others (by default the
    points themselves) under the window's metric.

    The one dense distance kernel.  Its (n, m, d) offset array is checked
    against MAX_DENSE_ENTRIES before anything is allocated.
    """
    if others is None:
        others = points
    n, m = points.shape[0], others.shape[0]
    if n * m * w.dim > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"the offsets of {n} x {m} points in dimension {w.dim} exceed "
            f"MAX_DENSE_ENTRIES ({MAX_DENSE_ENTRIES})"
        )
    delta = min_image(np.abs(points[:, None, :] - others[None, :, :]), w)
    return np.sqrt(np.sum(delta * delta, axis=2))


def pair_distances(points: np.ndarray, pairs: np.ndarray, w: Window) -> np.ndarray:
    """Distance of each (i, j) row of pairs under the window's metric."""
    delta = min_image(np.abs(points[pairs[:, 0]] - points[pairs[:, 1]]), w)
    return np.sqrt(np.sum(delta**2, axis=1))


def _trees(w: Window, cutoff: float, *point_sets) -> tuple:
    """The padded query radius for the cutoff, then one KD-tree per point set.

    Points are shifted to the window's origin; on a torus the tree is
    periodic through ``boxsize``.  The radius carries a small slack, so a
    query returns a superset of the pairs within the cutoff: callers
    re-filter with their own formula, and ties on the boundary follow that
    one formula.
    """
    boxsize = w.sides if w.metric == "periodic" else None
    trees = []
    for points in point_sets:
        shifted = points - w.lower
        if boxsize is not None:
            # A point just below upper can round up to the full side length.
            shifted[shifted >= w.sides] = 0.0
        trees.append(cKDTree(shifted, boxsize=boxsize))
    # Relative slack for the tree's rounding, absolute slack for the shift.
    radius = cutoff * (1 + 1e-9) + 1e-12 * float(np.max(np.abs(w.lower) + w.sides))
    return (radius, *trees)


def neighbor_pairs(points: np.ndarray, w: Window, cutoff: float) -> np.ndarray:
    """Index pairs (i < j, lexicographic order) of points that may lie
    within the cutoff, as an (m, 2) int64 array.

    One KD-tree query, periodic on a torus, with the slack of ``_trees``:
    callers compare pair_distances against their own radius.  A zero
    cutoff still returns coincident points, which lie within it.
    """
    if points.shape[0] < 2 or not cutoff >= 0:
        return np.empty((0, 2), dtype=np.int64)
    radius, tree = _trees(w, cutoff, points)
    pairs = tree.query_pairs(radius, output_type="ndarray").astype(np.int64, copy=False)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def near_pairs(
    eval_points: np.ndarray, points: np.ndarray, w: Window, cutoff: float, p: float = 2.0
) -> np.ndarray:
    """(eval, point) index pairs that may lie within the cutoff in the
    Minkowski p-norm (2 for balls, inf for boxes), as an unsorted (m, 2)
    int64 array.

    One KD-tree cross query, periodic on a torus, with the slack of
    ``_trees``: the result is a superset of the pairs within the cutoff,
    and callers re-filter the offsets with their own formula.
    """
    if eval_points.shape[0] == 0 or points.shape[0] == 0 or not cutoff >= 0:
        return np.empty((0, 2), dtype=np.int64)
    radius, eval_tree, tree = _trees(w, cutoff, eval_points, points)
    found = eval_tree.sparse_distance_matrix(tree, radius, p=p, output_type="ndarray")
    return np.stack([found["i"], found["j"]], axis=1).astype(np.int64, copy=False)


def volume(w: Window) -> float:
    """Lebesgue measure of the window (product of side lengths)."""
    return float(np.prod(w.sides))


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional unit ball."""
    check_number("dimension", d, 1)
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def ball_volume(r: float, d: int) -> float:
    return unit_ball_volume(d) * r**d


def grid_centers(w: Window, n_per_axis: int) -> np.ndarray:
    """Centers of the n_per_axis^d congruent cells tiling w, row-major order.

    Row-major: the last axis varies fastest.
    """
    check_number("n_per_axis", n_per_axis, 1)
    if n_per_axis**w.dim > MAX_GRID_CELLS:
        raise ValueError(f"grid would exceed {MAX_GRID_CELLS} cells")
    step = w.sides / n_per_axis
    axes = [
        w.lower[i] + step[i] * (np.arange(n_per_axis) + 0.5) for i in range(w.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class RandomStream:
    """Deterministic hierarchical random stream.

    Derivation is by (master_seed, path), not sequential splitting, so the
    stream a worker receives never depends on thread scheduling. derive() is
    pure: identical (master_seed, path, i) yields an identical child.
    """

    master_seed: int
    path: tuple = ()

    def __post_init__(self):
        seed = self.master_seed
        if not (isinstance(seed, numbers.Integral) and 0 <= int(seed) < 2**64):
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        path = tuple(int(check_number("stream index", i, 0)) for i in self.path)
        object.__setattr__(self, "path", path)

    def derive(self, i: int) -> "RandomStream":
        return RandomStream(self.master_seed, self.path + (i,))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at this stream's origin."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def sort_points(points: np.ndarray) -> np.ndarray:
    """Lexicographic point order, so sampler output is deterministic."""
    if points.shape[0] <= 1:
        return points
    order = np.lexsort(points.T[::-1])
    return points[order]


def run_indexed(n: int, fn, threads: int = 1) -> list:
    """Evaluate fn(0..n-1), collecting results in index order.

    Work items are pure functions of their index (each derives its own
    stream), so the reduction order is fixed regardless of scheduling and
    results are identical for any thread count.
    """
    if threads <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


def check_replications(reps: int, stream: RandomStream):
    """Reject a missing stream or a replication count below one."""
    if stream is None:
        raise ValueError("an explicit RandomStream is required")
    check_number("reps", reps, 1)


def replicate(reps: int, stream: RandomStream, threads: int, one) -> list:
    """Run one Monte Carlo replication per index and collect the results.

    Every estimator follows the same protocol: draw ``reps`` independent
    patterns from a generator specification, compute a per-replication
    statistic, and report the across-replication mean with its standard
    error.  Replication ``i`` is ``one(stream.derive(i))``, so runs are
    reproducible and independent of the thread count; results come back
    in index order.  Curve-valued statistics evaluate all abscissa values
    on the same replications, so neighbouring estimates share noise but
    each is individually unbiased.

    A replication that returns None is empty (a pattern with no points,
    say) and is dropped; more than half empty raises ValueError, since the
    estimate would then rest on a minority of the replications.
    """
    check_replications(reps, stream)
    results = run_indexed(reps, lambda i: one(stream.derive(i)), threads)
    kept = [r for r in results if r is not None]
    empties = reps - len(kept)
    if empties * 2 > reps:
        raise ValueError(
            f"{empties} of {reps} replications were empty; the generator is "
            "too sparse for this window"
        )
    return kept


def csv_text(header, rows) -> str:
    """The CSV artifact format: the one place it is defined.

    ``header`` is the column names and ``rows`` an iterable of cell
    sequences.  Lines are comma-separated and end in LF.  A floating cell
    (Python or numpy) is written with 17 significant digits, enough to
    round-trip the double; every other cell (ints, strings) with ``str``.
    """
    floating = (float, np.floating)
    lines = [",".join(header)]
    lines.extend(
        ",".join([format(v, ".17g") if isinstance(v, floating) else str(v) for v in row])
        for row in rows
    )
    return "\n".join(lines) + "\n"
