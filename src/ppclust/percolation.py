"""Geometric-graph percolation experiments on sampled point patterns.

The Gilbert graph connects points whose balls of radius r overlap (center
distance at most 2r).  On a finite window, percolation is replaced by two
computable proxies: the mean fractions of nodes in the two largest
components (bulk statistic, periodic windows) and the probability that one
component spans from the left to the right face (crossing statistic,
Euclidean windows).  The critical radius is located by bisecting the
crossing probability at 1/2 with common random numbers across radii.

Every kernel here gets its point pairs from one periodic KD-tree query
(core.neighbor_pairs) and its components from scipy's connected_components
on the kept edges.  A radius sweep queries once at the largest radius,
sorts the pairs by length, and reads the graph at each radius as a prefix
of that order.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .core import (
    PointPattern,
    RandomStream,
    Window,
    check_replications,
    neighbor_pairs,
    pair_distances,
    replicate,
    unit_ball_volume,
)
from .procgen import GeneratorSpec, sample
from .shotnoise import ResponseFunction, coverage_field
from .summaries import EstimateWithError, _estimates, _proportion

__all__ = [
    "Graph",
    "SinrParams",
    "PercolationSweep",
    "PercolationBounds",
    "gilbert_graph",
    "components",
    "component_fraction_sweep",
    "crossing_probability",
    "critical_radius",
    "check_percolation_bounds",
    "k_percolation_crossing",
    "sinr_graph",
    "sweep_to_csv",
    "crossing_to_csv",
    "graph_to_csv",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on the points of a pattern."""

    n_vertices: int
    edges: tuple  # of (i, j) with i < j
    positions: PointPattern

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if not 0 <= i < j < self.n_vertices:
                raise ValueError("edges must satisfy 0 <= i < j < n_vertices")
            if (i, j) in seen:
                raise ValueError("duplicate edge")
            seen.add((i, j))

    def degree_histogram(self) -> np.ndarray:
        degrees = np.zeros(self.n_vertices, dtype=np.int64)
        for i, j in self.edges:
            degrees[i] += 1
            degrees[j] += 1
        return degrees


# The per-replication pair query of every Gilbert kernel.  The benchmark's
# tracer wraps it under this name to count candidate pairs.
_candidate_pairs = neighbor_pairs


def _edge_index_array(pattern: PointPattern, r: float) -> np.ndarray:
    """Index pairs (i < j) at distance <= 2r, as an integer array."""
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    w = pattern.window
    if w.metric == "periodic" and 2 * r >= float(np.min(w.sides)) / 2:
        raise ValueError(
            "2r must stay below half the window side on a torus; larger radii "
            "make wraparound adjacency ambiguous"
        )
    if r == 0:  # even coincident points stay unjoined
        return np.empty((0, 2), dtype=np.int64)
    pairs = _candidate_pairs(pattern.points, w, 2 * r)
    return pairs[pair_distances(pattern.points, pairs, w) <= 2 * r]


def gilbert_graph(pattern: PointPattern, r: float) -> Graph:
    """Graph with an edge wherever two points lie within distance 2r."""
    keep = _edge_index_array(pattern, r)
    n = pattern.points.shape[0]
    return Graph(n, tuple((int(i), int(j)) for i, j in keep), pattern)


def _component_labels(n: int, edge_array: np.ndarray) -> np.ndarray:
    adjacency = csr_matrix(
        (np.ones(edge_array.shape[0], dtype=np.int8), (edge_array[:, 0], edge_array[:, 1])),
        shape=(n, n),
    )
    return connected_components(adjacency, directed=False)[1]


def _component_sizes(n: int, edge_array: np.ndarray) -> np.ndarray:
    """Component sizes in descending order."""
    return np.sort(np.bincount(_component_labels(n, edge_array)))[::-1]


def components(g: Graph) -> list:
    """Connected-component sizes in descending order."""
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    return _component_sizes(g.n_vertices, edges).tolist()


@dataclass(frozen=True)
class PercolationSweep:
    """Component fractions (and optionally crossing estimates) per radius."""

    radii: tuple
    largest_fraction: tuple  # of EstimateWithError
    second_fraction: tuple  # of EstimateWithError
    crossing_prob: tuple = ()  # optional, aligned with radii when present

    def __post_init__(self):
        n = len(self.radii)
        if len(self.largest_fraction) != n or len(self.second_fraction) != n:
            raise ValueError("fraction sequences must align with radii")
        if self.crossing_prob and len(self.crossing_prob) != n:
            raise ValueError("crossing sequence must align with radii when present")


def component_fraction_sweep(
    spec: GeneratorSpec,
    w: Window,
    radii,
    reps: int = 50,
    stream: RandomStream = None,
    threads: int = 1,
) -> PercolationSweep:
    """Mean fractions of nodes in the largest and second-largest component.

    Each replication makes one pair query at the largest radius and sorts
    the pairs by length once; the graph at each radius is then a prefix of
    that order (found by searchsorted), whose components come from scipy's
    connected_components.  Empty patterns are skipped (with an error if
    more than half are empty).
    """
    radii = [float(r) for r in radii]
    if not radii or any(r < 0 for r in radii) or any(np.diff(radii) <= 0):
        raise ValueError("radii must be non-negative and strictly increasing")
    if w.metric == "periodic" and 2 * radii[-1] >= float(np.min(w.sides)) / 2:
        raise ValueError("largest radius too big for the torus adjacency rule")

    def one(rep: RandomStream):
        pattern = sample(spec, w, rep)
        n = pattern.points.shape[0]
        if n == 0:
            return None
        pairs = _candidate_pairs(pattern.points, w, 2 * radii[-1])
        dist = pair_distances(pattern.points, pairs, w)
        order = np.argsort(dist, kind="stable")
        pairs = pairs[order]
        prefixes = np.searchsorted(dist[order], 2 * np.array(radii), side="right")
        fractions = np.zeros((2, len(radii)))
        for k, m in enumerate(prefixes):
            sizes = _component_sizes(n, pairs[:m])[:2]
            fractions[: sizes.size, k] = sizes / n
        return fractions

    used = np.array(replicate(reps, stream, threads, one))
    return PercolationSweep(tuple(radii), _estimates(used[:, 0]), _estimates(used[:, 1]))


def _crossing_indicator(pattern: PointPattern, r: float) -> bool:
    """True when one Gilbert component touches both the left and right slab
    of width 2r along the first axis."""
    points = pattern.points
    n = points.shape[0]
    if n == 0:
        return False
    w = pattern.window
    left = points[:, 0] <= w.lower[0] + 2 * r
    right = points[:, 0] >= w.upper[0] - 2 * r
    if not (left.any() and right.any()):
        return False
    labels = _component_labels(n, _edge_index_array(pattern, r))
    return np.intersect1d(labels[left], labels[right]).size > 0


def crossing_probability(
    spec: GeneratorSpec,
    w: Window,
    r: float,
    reps: int = 50,
    stream: RandomStream = None,
    threads: int = 1,
) -> EstimateWithError:
    """Probability that a Gilbert component spans the window horizontally."""
    if w.metric != "euclidean":
        raise ValueError("crossing experiments need a Euclidean (non-wrapped) window")

    def one(rep: RandomStream) -> float:
        return float(_crossing_indicator(sample(spec, w, rep), r))

    return _proportion(replicate(reps, stream, threads, one))


def critical_radius(
    spec: GeneratorSpec,
    w: Window,
    reps: int = 50,
    tol: float = 0.02,
    stream: RandomStream = None,
    threads: int = 1,
) -> EstimateWithError:
    """Radius at which the horizontal crossing probability passes 1/2.

    Bisection with common random numbers: every radius is evaluated on the
    same replication streams, so the crossing indicator is monotone in r
    and the bisection is well posed despite Monte Carlo noise.  The
    reported error combines the final bracket half-width with the binomial
    noise propagated through the locally estimated slope.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    check_replications(reps, stream)
    eval_stream = stream.derive(0)

    def p_hat(r: float) -> EstimateWithError:
        return crossing_probability(spec, w, r, reps, eval_stream, threads)

    r_max = float(np.linalg.norm(w.sides)) / 4.0
    hi_est = p_hat(r_max)
    if hi_est.value < 0.5:
        raise ValueError(
            f"crossing probability at r={r_max:g} is only {hi_est.value:g}; "
            "no bracket for the 1/2 level in [0, diagonal/4]"
        )
    lo, lo_p = 0.0, 0.0
    hi, hi_p = r_max, hi_est.value
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        est = p_hat(mid)
        if est.value >= 0.5:
            hi, hi_p = mid, est.value
        else:
            lo, lo_p = mid, est.value
    slope = (hi_p - lo_p) / (hi - lo)
    se_p = math.sqrt(0.25 / reps)
    error = 0.5 * (hi - lo) + (se_p / slope if slope > 0 else math.inf)
    return EstimateWithError(0.5 * (lo + hi), error, reps)


@dataclass(frozen=True)
class PercolationBounds:
    lower: float
    upper: float
    verdict: str  # in | below | above


def check_percolation_bounds(r_hat: float, lam: float, d: int = 2) -> PercolationBounds:
    """Compare an estimated critical radius against the rigorous bracket
    [ (lam kappa_d)^{-1/d}, sqrt(d) (log(3^d - 2)/lam)^{1/d} ]."""
    if not lam > 0:
        raise ValueError("intensity must be positive")
    lower = (lam * unit_ball_volume(d)) ** (-1.0 / d)
    upper = math.sqrt(d) * (math.log(3**d - 2) / lam) ** (1.0 / d)
    if r_hat < lower:
        verdict = "below"
    elif r_hat > upper:
        verdict = "above"
    else:
        verdict = "in"
    return PercolationBounds(lower, upper, verdict)


def _site_crossing(open_cells: np.ndarray) -> bool:
    """Left-right crossing of open sites with close-packed adjacency
    (all 3^d - 1 neighbors), no wraparound."""
    shape = open_cells.shape
    d = open_cells.ndim
    if not open_cells.any():
        return False
    frontier = [idx for idx in zip(*np.nonzero(open_cells)) if idx[0] == 0]
    if not frontier:
        return False
    seen = set(frontier)
    offsets = [off for off in product((-1, 0, 1), repeat=d) if any(off)]
    last = shape[0] - 1
    while frontier:
        current = frontier.pop()
        if current[0] == last:
            return True
        for off in offsets:
            nb = tuple(c + o for c, o in zip(current, off))
            if any(x < 0 or x >= s for x, s in zip(nb, shape)):
                continue
            if nb in seen or not open_cells[nb]:
                continue
            seen.add(nb)
            frontier.append(nb)
    return False


def k_percolation_crossing(
    spec: GeneratorSpec,
    w: Window,
    r: float,
    k: int = 1,
    grid_n: int = 64,
    reps: int = 50,
    stream: RandomStream = None,
    threads: int = 1,
) -> EstimateWithError:
    """Crossing probability of the k-times-covered region, on a site grid.

    A grid cell is open when its center is covered by at least k balls of
    radius r; the open sites percolate left to right through close-packed
    (diagonal-including) adjacency.  This is a resolution-dependent
    surrogate for continuum k-coverage percolation: refine grid_n to see
    the dependence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    shape = (grid_n,) * w.dim

    def one(rep: RandomStream) -> float:
        covered = coverage_field(sample(spec, w, rep), r, grid_n).values >= k
        return float(_site_crossing(covered.reshape(shape)))

    return _proportion(replicate(reps, stream, threads, one))


@dataclass(frozen=True)
class SinrParams:
    """Physical parameters of the SINR connection rule."""

    power: float
    noise: float
    threshold: float
    gamma: float
    attenuation: ResponseFunction

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError("signal power must be positive")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.gamma < 0:
            raise ValueError("interference factor must be non-negative")
        l0 = float(self.attenuation.evaluate(0.0))
        if l0 > 1.0 + 1e-12:
            raise ValueError("attenuation must not exceed 1 (it is a path loss)")
        if self.noise > 0 and l0 < self.threshold * self.noise / self.power:
            raise ValueError(
                "attenuation at zero distance is below T*N/P; no link can "
                "ever form, so the parameters are inconsistent"
            )

    def gilbert_radius(self) -> float:
        """r with 2r = l^{-1}(T N / P): the gamma = 0 connection range."""
        if self.noise == 0:
            raise ValueError("zero noise has unbounded range; no Gilbert radius")
        return self.attenuation.radial_inverse(
            self.threshold * self.noise / self.power
        ) / 2.0


def sinr_graph(
    pattern_b: PointPattern, pattern_i: PointPattern, params: SinrParams
) -> Graph:
    """Bidirectional SINR graph on pattern_b with interferers pattern_i.

    The directed link X -> Y holds when P l(|XY|) exceeds T times noise
    plus gamma-weighted interference at the receiver Y; an edge needs both
    directions.  Interference sums the attenuation from every interferer,
    except that a receiver coinciding with an interferer does not hear
    itself (self-term removed by coordinate match).
    """
    wb, wi = pattern_b.window, pattern_i.window
    if (
        wb.metric != wi.metric
        or not np.array_equal(wb.lower, wi.lower)
        or not np.array_equal(wb.upper, wi.upper)
    ):
        raise ValueError("both patterns must live in the same window")
    params.attenuation.check_integrable(wb.dim)
    pts = pattern_b.points
    n = pts.shape[0]
    if n < 2:
        return Graph(n, (), pattern_b)
    l = params.attenuation

    delta = np.abs(pts[:, None, :] - pts[None, :, :])
    if wb.metric == "periodic":
        delta = np.minimum(delta, wb.sides - delta)
    signal = params.power * l.evaluate(np.sqrt(np.sum(delta**2, axis=2)))

    interference = np.zeros(n)
    if params.gamma > 0 and pattern_i.points.shape[0] > 0:
        delta_i = np.abs(pts[:, None, :] - pattern_i.points[None, :, :])
        if wb.metric == "periodic":
            delta_i = np.minimum(delta_i, wb.sides - delta_i)
        dist_i = np.sqrt(np.sum(delta_i**2, axis=2))
        terms = l.evaluate(dist_i)
        # A receiver that is itself an interferer does not hear its own signal.
        terms[dist_i == 0.0] = 0.0
        interference = np.sum(terms, axis=1)

    denom = params.noise + params.gamma * params.power * interference  # per receiver
    # ok[i, j]: transmission i -> j clears the threshold at receiver j.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = signal / denom[None, :]
    ok = np.where(denom[None, :] == 0.0, signal > 0.0, ratio > params.threshold)
    mutual = np.triu(ok & ok.T, k=1)
    edges = tuple((int(i), int(j)) for i, j in np.argwhere(mutual))
    return Graph(n, edges, pattern_b)


# ---------------------------------------------------------------------------
# Serialization


def sweep_to_csv(sweep: PercolationSweep) -> str:
    buf = io.StringIO()
    buf.write("r,largest_fraction,second_fraction,stderr_largest,stderr_second\n")
    for r, big, small in zip(sweep.radii, sweep.largest_fraction, sweep.second_fraction):
        buf.write(
            f"{format(r, '.17g')},{format(big.value, '.17g')},"
            f"{format(small.value, '.17g')},{format(big.std_error, '.17g')},"
            f"{format(small.std_error, '.17g')}\n"
        )
    return buf.getvalue()


def crossing_to_csv(entries) -> str:
    """CSV rows r,crossing_prob,std_error from (r, EstimateWithError)."""
    buf = io.StringIO()
    buf.write("r,crossing_prob,std_error\n")
    for r, est in entries:
        buf.write(
            f"{format(r, '.17g')},{format(est.value, '.17g')},"
            f"{format(est.std_error, '.17g')}\n"
        )
    return buf.getvalue()


def graph_to_csv(g: Graph) -> str:
    buf = io.StringIO()
    buf.write("i,j\n")
    for i, j in g.edges:
        buf.write(f"{i},{j}\n")
    return buf.getvalue()
