"""Geometry primitives: windows, metrics, grids, deterministic random streams,
the replication driver, the CSV artifact format, the one finite-number
validator, the one radius-grid contract and the one window contract.

Everything here is immutable after construction and safe to share across
parallel workers. Stationary statistics default to periodic (torus) windows;
Euclidean windows exist for experiments where wraparound would create
artifacts (crossing probabilities, complexes).
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy.spatial import cKDTree

# Enumeration costs explode in high dimension; boxes only.
MAX_DIMENSION = 8
# Cap on grid_centers output size (cells across all axes combined).
MAX_GRID_CELLS = 1 << 24
# Cap on the (n, m, d) offsets of the one dense distance kernel
# (pairwise_distances and reduce_distances: shot-noise fields, SINR): a bound
# on its work, checked before the first block.
MAX_DENSE_ENTRIES = 1 << 24
# Offset entries the dense kernel holds at once: one row block of
# max(1, _DENSE_BLOCK_ENTRIES // (m * d)) rows.
_DENSE_BLOCK_ENTRIES = 1 << 14
# replicate's chunk bound: on crossing patterns of about 460 points, 2**10
# points was slower and 2**12 raised the peak memory with no gain.
FINISH_POINTS = 1 << 11
# Submitted replications per worker that may wait for replicate's caller.
_AHEAD = 4

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


def as_float(name: str, value) -> float:
    """``float(value)``, with ``ValueError`` naming ``name`` for an integer
    beyond the float range, where ``float`` would raise ``OverflowError``.

    The integer is compared before any conversion, exactly, as
    ``check_number`` compares integers; the bound is left to the caller.
    """
    if isinstance(value, numbers.Integral) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must lie within the float range")
    return float(value)


def check_radii(name: str, values, bound="nonneg") -> np.ndarray:
    """Return a non-empty 1-d list of radii or scales as a float array in
    the order given, each value checked by ``check_number(name, ...,
    bound)``; else raise ``ValueError`` naming ``name``.

    Order is free and repeats are allowed: every grid kernel answers each
    value on its own, in the caller's order.  An iterator is read once.
    """
    values = list(values) if isinstance(values, Iterator) else values
    if np.ndim(values) != 1 or len(values) == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    return np.array([check_number(name, as_float(name, v), bound) for v in values])


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


def _distance_blocks(points: np.ndarray, w: Window, others: np.ndarray):
    """Check the whole (n, m, d) offset array against MAX_DENSE_ENTRIES, then
    return an iterator of (rows, distances): consecutive row slices of
    points and their dense distances to others, one block of at most
    _DENSE_BLOCK_ENTRIES offsets at a time (a single row may exceed it).

    The one place that broadcasts offsets.  Every entry is the same
    elementwise formula whatever the block size.
    """
    n, m = points.shape[0], others.shape[0]
    if n * m * w.dim > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"the offsets of {n} x {m} points in dimension {w.dim} exceed "
            f"MAX_DENSE_ENTRIES ({MAX_DENSE_ENTRIES})"
        )
    step = max(1, _DENSE_BLOCK_ENTRIES // max(1, m * w.dim))

    def block(start: int) -> tuple:
        rows = slice(start, start + step)
        delta = min_image(np.abs(points[rows, None, :] - others[None, :, :]), w)
        return rows, np.sqrt(np.sum(delta * delta, axis=2))

    return map(block, range(0, n, step))


def pairwise_distances(points: np.ndarray, w: Window, others: np.ndarray = None) -> np.ndarray:
    """Dense (n, m) distance matrix from points to others (by default the
    points themselves) under the window's metric.

    The one dense distance kernel, for callers that need every entry.  Its
    (n, m, d) offsets are checked against MAX_DENSE_ENTRIES before anything
    is allocated, then computed one row block at a time, so memory is the
    (n, m) result plus one block.
    """
    if others is None:
        others = points
    blocks = _distance_blocks(points, w, others)
    dist = np.empty((points.shape[0], others.shape[0]))
    for rows, block in blocks:
        dist[rows] = block
    return dist


def reduce_distances(points: np.ndarray, w: Window, others: np.ndarray, f, reduce) -> np.ndarray:
    """``reduce(f(D), axis=1)`` for the dense (n, m) distance matrix D from
    points to others, as an (n,) array, without holding D.

    The same kernel and cap as pairwise_distances, but each row block is
    mapped by f (elementwise, returning an array of the block's shape) and
    reduced (np.sum, np.max) as soon as it exists, so memory is one block
    plus the result.  A row's reduction runs over the same m values in the
    same order for any block size.
    """
    blocks = _distance_blocks(points, w, others)
    out = np.empty(points.shape[0])
    for rows, block in blocks:
        out[rows] = reduce(f(block), axis=1)
    return out


def pair_distances(points: np.ndarray, pairs: np.ndarray, w: Window) -> np.ndarray:
    """Distance of each (i, j) row of pairs under the window's metric."""
    delta = min_image(np.abs(points[pairs[:, 0]] - points[pairs[:, 1]]), w)
    return np.sqrt(np.sum(delta**2, axis=1))


def _shifted(points: np.ndarray, w: Window) -> np.ndarray:
    """Points in window-relative coordinates ``x - lower``: the frame of every
    KD-tree here, so tree offsets are differences of shifted coordinates.

    On a torus a coordinate just below upper can round up to the full side
    length; it wraps to 0, where the tree's periodic box puts it.
    """
    shifted = points - w.lower
    if w.metric == "periodic":
        shifted[shifted >= w.sides] = 0.0
    return shifted


def _tree(points: np.ndarray, w: Window) -> cKDTree:
    """KD-tree on the shifted points, periodic through ``boxsize`` on a torus.

    Built by sliding midpoint splits with no node shrinking, the cheapest
    build: no caller's result depends on the tree's shape, since
    neighbor_pairs sorts its pairs, near_pairs feeds order-free counts and
    count_near returns counts.
    """
    return cKDTree(
        _shifted(points, w),
        boxsize=w.sides if w.metric == "periodic" else None,
        balanced_tree=False,
        compact_nodes=False,
    )


def _trees(w: Window, cutoff: float, *point_sets) -> tuple:
    """The padded query radius for the cutoff, then one KD-tree per point set.

    The radius carries a small slack, so a query returns a superset of the
    pairs within the cutoff: callers re-filter with their own formula, and
    ties on the boundary follow that one formula.
    """
    # Relative slack for the tree's rounding, absolute slack for the shift.
    radius = cutoff * (1 + 1e-9) + 1e-12 * float(np.max(np.abs(w.lower) + w.sides))
    return (radius, *(_tree(points, w) for points in point_sets))


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
    # One int64 key per pair, i * n + j, sorts as (i, j) does.
    keys = pairs[:, 0] * points.shape[0] + pairs[:, 1]
    keys.sort()
    return np.stack(np.divmod(keys, points.shape[0]), axis=1)


def near_pairs(
    eval_points: np.ndarray, points: np.ndarray, w: Window, cutoff: float
) -> np.ndarray:
    """(eval, point) index pairs that may lie within the Euclidean cutoff,
    as an unsorted (m, 2) int64 array.

    One KD-tree cross query, periodic on a torus, with the slack of
    ``_trees``: the result is a superset of the pairs within the cutoff,
    and callers re-filter the offsets with their own formula.
    """
    if eval_points.shape[0] == 0 or points.shape[0] == 0 or not cutoff >= 0:
        return np.empty((0, 2), dtype=np.int64)
    radius, eval_tree, tree = _trees(w, cutoff, eval_points, points)
    found = eval_tree.sparse_distance_matrix(tree, radius, output_type="ndarray")
    return np.stack([found["i"], found["j"]], axis=1).astype(np.int64, copy=False)


def count_near(eval_points, points: np.ndarray, w: Window, balls) -> np.ndarray:
    """Number of points inside closed Minkowski balls: ``balls[i]`` is a
    (radius, p) pair, with p = 2 for a Euclidean ball and inf for a
    Chebyshev ball (a box of side 2 * radius), placed at each row of the
    (placements, d) array ``eval_points[i]``.  The result is a
    (len(balls), placements) int64 array.

    One KD-tree on the points, then one counting query per ball, which
    returns only the counts.  There is no slack and no re-filter: the
    tree's own test, sum of squared offsets <= radius * radius at p = 2 and
    largest offset <= radius at p = inf, is the membership formula.
    Offsets are measured in window-relative coordinates (``_shifted``),
    ``|(c - lower) - (x - lower)|`` per axis, the shorter way round on a
    torus.  With lower = 0 that is ``|c - x|``; at another origin, rounding
    in the shift can move a point lying exactly on a boundary across it.
    """
    tree = _tree(points, w)
    return np.array(
        [
            tree.query_ball_point(_shifted(c, w), radius, p=p, return_length=True)
            for c, (radius, p) in zip(eval_points, balls)
        ],
        dtype=np.int64,
    )


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


def check_replications(reps: int, stream: RandomStream):
    """Reject a missing stream or a replication count below one."""
    if stream is None:
        raise ValueError("an explicit RandomStream is required")
    check_number("reps", reps, 1)


def replicate(reps: int, stream: RandomStream, threads: int, one, finish=None) -> list:
    """Run replication i as one(stream.derive(i)) for i < reps and return
    the results in index order, so runs are reproducible and independent
    of the thread count.  Curve-valued statistics read every abscissa from
    the same replications, so neighbouring estimates share noise but each
    is unbiased.

    With ``finish``, ``one`` returns ``(points, item)`` and the calling
    thread hands the items, in index order, to ``finish(items)`` in
    consecutive chunks of at most FINISH_POINTS points, which returns one
    result per item.  An item of 0 points never closes a chunk, and the
    results must not depend on the chunking.

    This is the library's one thread pool: ``threads``, an integer >= 1,
    gives min(threads, reps, os.cpu_count()) workers, since a thread beyond
    the replications or the cores adds no overlap, and one worker runs
    serially on the calling thread.  At most _AHEAD x workers submitted
    replications wait for the calling thread (and are cancelled if it
    raises), so a call holds that many results besides ``finish``'s chunk.

    A None result is an empty replication (a pattern with no points, say)
    and is dropped; more than half empty raises ValueError, since the
    estimate would then rest on a minority of the replications.
    """
    check_replications(reps, stream)
    check_number("threads", threads, 1)
    workers = min(threads, reps, os.cpu_count() or 1)
    streams = map(stream.derive, range(reps))
    with contextlib.ExitStack() as stack:
        results = map(one, streams)
        if workers > 1:
            from collections import deque
            from concurrent.futures import ThreadPoolExecutor

            pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
            ahead = deque(pool.submit(one, rep) for rep in islice(streams, _AHEAD * workers))
            stack.callback(lambda: [future.cancel() for future in ahead])

            def ordered():
                while ahead:
                    yield ahead.popleft().result()
                    ahead.extend(pool.submit(one, rep) for rep in islice(streams, 1))

            results = ordered()
        if finish is not None:
            chunk, size, finished = [], 0, []
            for points, item in results:
                if points and size and size + points > FINISH_POINTS:
                    finished += finish(chunk)
                    chunk, size = [], 0
                chunk.append(item)
                size += points
            results = finished + finish(chunk)
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
