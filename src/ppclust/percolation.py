"""Geometric-graph percolation experiments on sampled point patterns.

The Gilbert graph connects points whose balls of radius r overlap (center
distance at most 2r).  On a finite window, percolation is replaced by two
computable proxies: the mean fractions of nodes in the two largest
components (bulk statistic, periodic windows) and the probability that one
component spans from the left to the right face (crossing statistic,
Euclidean windows).  The crossing curve and the critical radius (bisected
at crossing probability 1/2 with common random numbers) ask one kernel
whether a pattern crosses: the largest rank, of a grid radius or an exact
event radius, on the source-sink path of one minimum spanning tree, where a
source and a sink node stand for the two slabs.

Every kernel here gets its point pairs from one periodic KD-tree query
(core.neighbor_pairs) and its components from scipy's connected_components
on the kept edges.  A radius grid (the sweep, the crossing curve) is read
from one replication: one pattern, one query at the largest radius, and
for the sweep one labelling of one minimum spanning forest, one layer per
radius.  A Graph holds its edges as the (E, 2) int64 array of the query,
through components to graph_to_csv.  The site-grid crossing of k-coverage
labels its open cells with scipy.ndimage.  SINR links come from one pair
query too: with noise, a link needs the signal alone to clear T N, which
bounds its length.  What stays dense is the interference (receivers x
interferers, once per pattern, when some gamma is positive) and, at zero
noise with an unbounded attenuation, the signal; both come from
core.pairwise_distances under MAX_DENSE_ENTRIES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from .core import (
    PointPattern,
    RandomStream,
    Window,
    check_number,
    check_replications,
    check_window,
    csv_text,
    neighbor_pairs,
    pair_distances,
    pairwise_distances,
    replicate,
    unit_ball_volume,
    volume,
)
from .procgen import GeneratorSpec, sample
from .shotnoise import ResponseFunction, _covered_cells
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
    """Undirected graph on the points of a pattern.

    ``edges`` is a read-only (E, 2) int64 array of vertex pairs (i, j) with
    0 <= i < j < n_vertices and no repeated row.  The constructor takes any
    sequence of integer pairs, copies it once and keeps its order.
    """

    n_vertices: int
    edges: np.ndarray

    def __post_init__(self):
        edges = self.edges
        if isinstance(edges, np.ndarray):
            kinds = {edges.dtype.kind}
        else:
            # As objects the endpoints keep their own types; numpy would turn
            # a bool among ints into an int.
            edges = np.array(edges, dtype=object)
            kinds = {np.dtype(t).kind for t in set(map(type, edges.flat))}
        if edges.size == 0:
            edges = np.empty((0, 2), dtype=np.int64)
        elif edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be a sequence of (i, j) pairs")
        elif not kinds <= {"i", "u"}:
            raise ValueError("edge endpoints must be integers")
        i, j = edges.T
        if not np.all((0 <= i) & (i < j) & (j < self.n_vertices)):
            raise ValueError("edges must satisfy 0 <= i < j < n_vertices")
        edges = edges.astype(np.int64)
        keys = np.sort(edges[:, 0] * self.n_vertices + edges[:, 1])
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edge")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def degree_histogram(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices)


# The per-replication pair query of every Gilbert kernel.  The benchmark's
# tracer wraps it under this name to count candidate pairs.
_candidate_pairs = neighbor_pairs


def _edge_index_array(pattern: PointPattern, r: float) -> np.ndarray:
    """Index pairs (i < j) at distance <= 2r, as an integer array."""
    check_number("radius", r, "nonneg")
    w = pattern.window
    check_window("geometric graph", w, reach=2 * r)
    pairs = _candidate_pairs(pattern.points, w, 2 * r)
    return pairs[pair_distances(pattern.points, pairs, w) <= 2 * r]


def gilbert_graph(pattern: PointPattern, r: float) -> Graph:
    """Graph with an edge wherever two points lie within distance 2r."""
    return Graph(pattern.points.shape[0], _edge_index_array(pattern, r))


def _component_labels(n: int, edge_array: np.ndarray) -> np.ndarray:
    adjacency = csr_matrix(
        (np.ones(edge_array.shape[0], dtype=np.int8), (edge_array[:, 0], edge_array[:, 1])),
        shape=(n, n),
    )
    return connected_components(adjacency, directed=False)[1]


def _component_sizes(labels: np.ndarray) -> np.ndarray:
    """Component sizes in descending order."""
    return np.sort(np.bincount(labels))[::-1]


def components(g: Graph) -> list:
    """Connected-component sizes in descending order."""
    return _component_sizes(_component_labels(g.n_vertices, g.edges)).tolist()


def _spanning_forest(n: int, edges: np.ndarray, weights: np.ndarray):
    """Minimum spanning forest, as a sparse matrix, of the n-node graph whose
    (E, 2) edges carry the given weights; a weight must not be 0, which
    sparse storage reads as no edge."""
    return minimum_spanning_tree(csr_matrix((weights, (edges[:, 0], edges[:, 1])), shape=(n, n)))


def _gilbert_labels(pattern: PointPattern, radii) -> list:
    """Gilbert component labels at each radius, in the order given, from one
    pair query at twice the largest and one labelling.

    A pair's weight is 1 + the rank of the least of the K distinct sorted
    radii r with dist <= 2r, so the graph at the radius of rank q keeps the
    pairs of weight at most q + 1, and has the components of the minimum
    spanning forest's edges of those weights (single linkage; Gower & Ross,
    Applied Statistics 1969).  All K graphs are labelled by one call on K
    disjoint layers of the n nodes, layer q holding the forest edges of
    weight at most q + 1.  Components are numbered by their lowest node, so
    layer q less the label of its node 0 is the labelling of its graph alone.
    """
    points, w = pattern.points, pattern.window
    n = points.shape[0]
    twice, layer = np.unique(2 * np.array(radii, dtype=float), return_inverse=True)
    pairs = _candidate_pairs(points, w, twice[-1])
    weights = np.searchsorted(twice, pair_distances(points, pairs, w), side="left") + 1
    kept = weights <= twice.size
    forest = _spanning_forest(n, pairs[kept], weights[kept]).tocoo()
    layers, edge = np.nonzero(forest.data <= np.arange(1, twice.size + 1)[:, None])
    edges = np.stack([forest.row[edge], forest.col[edge]], axis=1) + n * layers[:, None]
    labels = _component_labels(twice.size * n, edges).reshape(twice.size, n)
    labels -= labels[:, :1]
    return list(labels[layer])


@dataclass(frozen=True)
class PercolationSweep:
    """Component fractions per radius."""

    radii: tuple
    largest_fraction: tuple  # of EstimateWithError
    second_fraction: tuple  # of EstimateWithError

    def __post_init__(self):
        n = len(self.radii)
        if len(self.largest_fraction) != n or len(self.second_fraction) != n:
            raise ValueError("fraction sequences must align with radii")


def component_fraction_sweep(
    spec: GeneratorSpec,
    w: Window,
    radii,
    reps: int = 50,
    stream: RandomStream = None,
    threads: int = 1,
) -> PercolationSweep:
    """Mean fractions of nodes in the largest and second-largest component.

    Each replication labels the components at every radius from one pair
    query (_gilbert_labels).  Empty patterns are skipped (with an error if
    more than half are empty).
    """
    radii = [float(r) for r in radii]
    # NaN-safe: a NaN or inf radius fails one of the comparisons.
    if not (radii and radii[0] >= 0 and np.all(np.diff(radii) > 0) and radii[-1] < math.inf):
        raise ValueError("radii must be non-negative and strictly increasing")
    check_window("component_fraction_sweep", w, reach=2 * radii[-1])

    def one(rep: RandomStream):
        pattern = sample(spec, w, rep)
        n = pattern.points.shape[0]
        if n == 0:
            return None
        fractions = np.zeros((2, len(radii)))
        for k, labels in enumerate(_gilbert_labels(pattern, radii)):
            sizes = _component_sizes(labels)[:2]
            fractions[: sizes.size, k] = sizes / n
        return fractions

    used = np.array(replicate(reps, stream, threads, one))
    return PercolationSweep(tuple(radii), _estimates(used[:, 0]), _estimates(used[:, 1]))


def _slab_edges(n: int) -> np.ndarray:
    """Each of n points joined to a source node n, then to a sink node n + 1."""
    return np.stack([np.tile(np.arange(n), 2), np.repeat([n, n + 1], n)], axis=1)


def _source_sink_rank(n: int, edges: np.ndarray, ranks: np.ndarray) -> float:
    """The largest rank (integers from 1) on the path from a source node n
    to a sink node n + 1 in a minimum spanning forest of the edges (the
    minimax path; Hu, Operations Research 1961), or inf when none joins them."""
    tree = _spanning_forest(n + 2, edges, ranks)
    _, parent = breadth_first_order(tree, n, directed=False)
    if parent[n + 1] < 0:
        return math.inf
    path = [n + 1]
    while path[-1] != n:
        path.append(parent[path[-1]])
    # Each node's rank is that of the tree edge to its parent.
    tree = tree.tocoo()
    node_ranks = np.zeros(n + 2, dtype=np.int64)
    node_ranks[np.where(parent[tree.col] == tree.row, tree.col, tree.row)] = tree.data
    return int(node_ranks[path[:-1]].max())


def _crossings(pattern: PointPattern, radii) -> list:
    """Per radius r, in the order given, whether one Gilbert component touches
    both slabs of width 2r along the first axis.  An edge's rank is 1 + that of
    the least radius at which dist <= 2r, x <= lower + 2r or x >= upper - 2r
    holds; radius q crosses if no path rank exceeds q + 1."""
    points, w = pattern.points, pattern.window
    n, x, lower, upper = points.shape[0], points[:, 0], w.lower[0], w.upper[0]
    twice, layer = np.unique(2 * np.array(radii, dtype=float), return_inverse=True)
    pairs = _candidate_pairs(points, w, twice[-1])
    ranks = 1 + np.concatenate([
        np.searchsorted(twice, pair_distances(points, pairs, w), side="left"),
        np.searchsorted(lower + twice, x, side="left"),
        twice.size - np.searchsorted((upper - twice)[::-1], x, side="right"),
    ])
    kept = ranks <= twice.size
    edges = np.concatenate([pairs, _slab_edges(n)])[kept]
    return (_source_sink_rank(n, edges, ranks[kept]) <= layer + 1).tolist()


def _crossing_indicator(pattern: PointPattern, r: float) -> bool:
    """_crossings at the one radius r.  It stays only while the benchmark's
    tracer looks this name up."""
    return _crossings(pattern, [r])[0]


def _crossing_curve(
    spec: GeneratorSpec, w: Window, radii, reps: int, stream: RandomStream, threads: int = 1
) -> list:
    """crossing_probability at each radius, in the order given, all read from
    the same replications; each estimate equals crossing_probability at its
    radius on the same stream, bit for bit."""
    check_window("crossing_probability", w, "euclidean")
    radii = [check_number("radius", r, "nonneg") for r in radii]
    if not radii:
        raise ValueError("crossing_probability needs at least one radius")
    hits = replicate(reps, stream, threads, lambda rep: _crossings(sample(spec, w, rep), radii))
    return [_proportion(column) for column in np.array(hits, dtype=float).T]


def crossing_probability(
    spec: GeneratorSpec, w: Window, r: float, reps: int = 50,
    stream: RandomStream = None, threads: int = 1,
) -> EstimateWithError:
    """Probability that a Gilbert component spans the window horizontally."""
    return _crossing_curve(spec, w, [r], reps, stream, threads)[0]


def _entry_radii(holds, values: np.ndarray, guess: np.ndarray, r_max: float) -> np.ndarray:
    """Per value, the least float r in [0, r_max] with holds(values, r), or
    inf where it fails at r_max; holds is elementwise and monotone in r.

    The guess is kept where it holds and its float predecessor does not,
    which is the usual case.  The rest are bisected on their bit patterns,
    which order the non-negative floats, from a bracket that gallops out
    from the guess by 1, 2, 4, ... ulps until it holds at its top and fails
    at its bottom (bit pattern -1 stands for a radius below 0).
    """
    r = np.clip(guess, 0.0, r_max)
    settled = holds(values, r) & ((r == 0) | ~holds(values, np.nextafter(r, -1.0)))
    never = ~holds(values, np.full_like(r, r_max))
    todo = ~settled & ~never
    if todo.any():
        rest = values[todo]
        top = np.float64(r_max).view(np.int64)
        lo = hi = np.clip(r[todo].view(np.int64), 0, top)
        step = 1
        while True:
            down = (lo >= 0) & holds(rest, np.maximum(lo, 0).view(np.float64))
            up = ~holds(rest, hi.view(np.float64))
            if not (down.any() or up.any()):
                break
            lo = np.where(down, lo - np.minimum(step, lo + 1), lo)
            hi = np.where(up, hi + np.minimum(step, top - hi), hi)
            step *= 2
        while np.any(hi - lo > 1):
            mid = np.where(hi - lo > 1, lo + (hi - lo) // 2, hi)
            ok = holds(rest, mid.view(np.float64))
            hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid)
        r[todo] = hi.view(np.float64)
    r[never] = np.inf
    return r


def _crossing_threshold(pattern: PointPattern, r_max: float) -> float:
    """The least radius at which the pattern crosses, or inf past r_max: the
    largest event (least float at which an edge's comparison holds) on the
    source-sink path; the pair query's rho doubles from the Poisson bound."""
    points, w = pattern.points, pattern.window
    n = points.shape[0]
    if n == 0:
        return math.inf
    lower, upper, x = w.lower[0], w.upper[0], points[:, 0]
    left = _entry_radii(lambda v, r: v <= lower + 2 * r, x, (x - lower) / 2, r_max)
    right = _entry_radii(lambda v, r: v >= upper - 2 * r, x, (upper - x) / 2, r_max)
    slabs = _slab_edges(n)
    rho = min((n / volume(w) * unit_ball_volume(w.dim)) ** (-1.0 / w.dim), r_max)
    while True:
        pairs = _candidate_pairs(points, w, 2 * rho)
        dist = pair_distances(points, pairs, w)
        # A pair's event is the least r with dist <= 2r.
        joined = _entry_radii(lambda d, r: d <= 2 * r, dist, dist / 2, rho)
        radii = np.concatenate([joined, left, right])
        kept = radii <= rho
        events, ranks = np.unique(radii[kept], return_inverse=True)
        rank = _source_sink_rank(n, np.concatenate([pairs, slabs])[kept], ranks + 1)
        if rank < math.inf:
            return float(events[rank - 1])
        if rho == r_max:
            return math.inf
        rho = min(2 * rho, r_max)


def critical_radius(
    spec: GeneratorSpec,
    w: Window,
    reps: int = 50,
    tol: float = 0.02,
    stream: RandomStream = None,
    threads: int = 1,
) -> EstimateWithError:
    """Radius at which the horizontal crossing probability passes 1/2.

    Bisection with common random numbers.  The crossing indicator of each
    replicated pattern is monotone in r, so it equals (r >= t) for that
    pattern's exact threshold t; each replication is sampled once and its
    t computed once, from one spanning tree per pair query
    (_crossing_threshold), and the crossing probability at every bisection
    radius is the fraction of thresholds at or below it.  The estimate is
    the one that resampling the same streams at each radius would give.
    The reported error combines the final bracket half-width with the
    binomial noise propagated through the locally estimated slope.
    """
    check_number("tol", tol, "pos")
    check_replications(reps, stream)
    check_window("critical_radius", w, "euclidean")
    r_max = float(np.linalg.norm(w.sides)) / 4.0
    thresholds = replicate(
        reps, stream.derive(0), threads,
        lambda rep: _crossing_threshold(sample(spec, w, rep), r_max),
    )

    def p_hat(r: float) -> EstimateWithError:
        return _proportion([float(t <= r) for t in thresholds])

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
    [ (lam kappa_d)^{-1/d}, sqrt(d) (log(3^d - 2)/lam)^{1/d} ] for d >= 2.

    In one dimension the Gilbert graph has no finite critical radius, and
    the upper bound's log(3 - 2) vanishes.
    """
    check_number("estimated radius", r_hat, "pos")
    check_number("intensity", lam, "pos")
    check_number("dimension", d, 2)
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
    (all 3^d - 1 neighbors), no wraparound: some cluster label appears in
    both the first and the last slab along axis 0."""
    from scipy import ndimage

    labels, _ = ndimage.label(open_cells, structure=np.ones((3,) * open_cells.ndim))
    return bool(np.intersect1d(labels[0], labels[-1]).any())


def k_percolation_crossing(
    spec: GeneratorSpec, w: Window, r: float, k: int = 1, grid_n: int = 64,
    reps: int = 50, stream: RandomStream = None, threads: int = 1,
) -> EstimateWithError:
    """Crossing probability of the k-times-covered region, on a site grid.

    A grid cell is open when its center is covered by at least k balls of
    radius r; the open sites percolate left to right through close-packed
    (diagonal-including) adjacency.  This is a resolution-dependent
    surrogate for continuum k-coverage percolation: refine grid_n to see
    the dependence.
    """
    covered = _covered_cells("k_percolation_crossing", spec, w, [r], k, grid_n)
    shape = (grid_n,) * w.dim

    def one(rep: RandomStream) -> float:
        return float(_site_crossing(covered(rep)[0].reshape(shape)))

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
        check_number("signal power", self.power, "pos")
        check_number("noise", self.noise, "nonneg")
        check_number("threshold", self.threshold, "pos")
        check_number("interference factor", self.gamma, "nonneg")
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


def _sinr_reach(params: SinrParams) -> float:
    """A distance beyond which no link can form at any gamma, or inf.

    With noise N > 0 every denominator is at least N, so a link needs
    P l(|XY|) > T N: beyond l^{-1}(T N / P) nothing links.  The level is
    lowered by a millionth so that the rounding of the inverse and of the
    link rule cannot drop a pair at the edge.  A bounded attenuation
    vanishes beyond its support at any noise.
    """
    l = params.attenuation
    if l.kind in ("indicator_ball", "tabulated"):
        return l.support_radius()
    level = params.threshold * params.noise / params.power
    if not level > 0:  # zero noise, or a level that underflows
        return math.inf
    return l.radial_inverse(level * (1 - 1e-6))


def _sinr_graphs(
    pattern_b: PointPattern, pattern_i: PointPattern, params: SinrParams, gammas
) -> list:
    """One SINR graph per interference factor in gammas (params.gamma is
    not read), from one set of candidate pairs and one interference field.

    The candidates are the pairs within _sinr_reach, from one pair query;
    only zero noise with an unbounded attenuation takes every pair, with
    distances from the dense kernel under MAX_DENSE_ENTRIES.  The
    interference is computed once, and only when some gamma is positive.
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
        return [Graph(n, ()) for _ in gammas]
    l = params.attenuation

    # Interference first, so that an interferer set over the dense cap
    # raises before the pairs exist.
    interference = np.zeros(n)
    if any(gamma > 0 for gamma in gammas):
        dist_i = pairwise_distances(pts, wb, pattern_i.points)
        terms = l.evaluate(dist_i)
        # A receiver that is itself an interferer does not hear its own signal.
        terms[dist_i == 0.0] = 0.0
        interference = np.sum(terms, axis=1)
    reach = _sinr_reach(params)
    if reach < math.inf:
        pairs = neighbor_pairs(pts, wb, reach)
        dist = pair_distances(pts, pairs, wb)
    else:
        dense = pairwise_distances(pts, wb)
        pairs = np.stack(np.triu_indices(n, k=1), axis=1)
        dist = dense[pairs[:, 0], pairs[:, 1]]
    signal = params.power * l.evaluate(dist)[:, None]

    graphs = []
    for gamma in gammas:
        # Per receiver; ok[k, 1] is the link pairs[k, 0] -> pairs[k, 1].
        denom = (params.noise + gamma * params.power * interference)[pairs]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = signal / denom
        ok = np.where(denom == 0.0, signal > 0.0, ratio > params.threshold)
        graphs.append(Graph(n, pairs[ok.all(axis=1)]))
    return graphs


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
    return _sinr_graphs(pattern_b, pattern_i, params, [params.gamma])[0]


# ---------------------------------------------------------------------------
# Serialization


def sweep_to_csv(sweep: PercolationSweep) -> str:
    return csv_text(
        ("r", "largest_fraction", "second_fraction", "stderr_largest", "stderr_second"),
        (
            (r, big.value, small.value, big.std_error, small.std_error)
            for r, big, small in zip(
                sweep.radii, sweep.largest_fraction, sweep.second_fraction
            )
        ),
    )


def crossing_to_csv(entries) -> str:
    """CSV rows r,crossing_prob,std_error from (r, EstimateWithError)."""
    return csv_text(
        ("r", "crossing_prob", "std_error"),
        ((r, est.value, est.std_error) for r, est in entries),
    )


def graph_to_csv(g: Graph) -> str:
    return csv_text(("i", "j"), g.edges.tolist())
