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
source and a sink node stand for the two slabs.  Pairs and slabs share one
rule: an edge of value v, a pair's distance or a point's offset from a
face, is kept at radius r when v <= 2r, so its event radius is v / 2 (one ulp
more where halving a value below 2**-1021 rounds down).  Its scipy calls
hold the GIL, so both estimators draw their patterns in the thread pool and
answer them on the calling thread, a group of patterns per spanning forest
(_replicate_crossings).

Every kernel here gets its point pairs from one periodic KD-tree query
(core.neighbor_pairs) and its components from scipy's connected_components
on the kept edges.  Each curve in r (the sweep, and the CurveEstimate of
crossing_probability and k_percolation_crossing) takes its list of radii
and reads it from one replication: one pattern, one query at the largest
radius, and for the sweep one labelling of one minimum spanning forest,
one layer per radius.  A Graph holds its edges as the (E, 2) int64 array
of the query, through components to graph_to_csv.  The site-grid crossing
of k-coverage labels its open cells with scipy.ndimage.  SINR links come
from one pair query too: with noise, a link needs the signal alone to
clear T N, which bounds its length.  What stays dense is the interference
(receivers x interferers, once per pattern, when some gamma is positive),
summed one row block at a time by core.reduce_distances, and, at zero
noise with an unbounded attenuation, the signal matrix of
core.pairwise_distances; both are capped by MAX_DENSE_ENTRIES.
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
    check_radii,
    check_replications,
    check_window,
    csv_text,
    neighbor_pairs,
    pair_distances,
    pairwise_distances,
    reduce_distances,
    replicate,
    unit_ball_volume,
    volume,
)
from .procgen import GeneratorSpec, prepare
from .shotnoise import ResponseFunction, _covered_cells
from .summaries import CurveEstimate, EstimateWithError, _estimates, _proportion

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
    "sinr_graphs",
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
    query (_gilbert_labels).  The radii may come in any order, repeats
    included; the fractions follow it.  Empty patterns are skipped (with an
    error if more than half are empty).
    """
    radii = check_radii("radii", radii).tolist()
    check_window("component_fraction_sweep", w, reach=2 * max(radii))
    sampler = prepare(spec, w)

    def one(rep: RandomStream):
        pattern = sampler.draw(rep)
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


def _source_sink_ranks(graphs: list) -> list:
    """Per graph (n, edges, ranks), the largest rank (integers from 1) on
    the path from its source node n to its sink node n + 1 in a minimum
    spanning forest of its edges (the minimax path; Hu, Operations Research
    1961), or inf when none joins them.

    The graphs are stacked with node offsets, and every other graph's source
    joins the first graph's source, the root, by a rank-1 edge: each such
    edge is a bridge, so it lies in every spanning forest, and the forest of
    the stack is one forest per graph.  One forest and one breadth-first
    order from the root answer every graph, each by a walk up the parents
    from its sink.  One graph is used as it is, with no offset copy.
    """
    starts = [0]
    for n, _, _ in graphs:
        starts.append(starts[-1] + n + 2)
    sources = [start + n for start, (n, _, _) in zip(starts, graphs)]
    root, total = sources[0], starts[-1]
    if len(graphs) == 1:
        _, edges, ranks = graphs[0]
    else:
        bridges = np.stack([np.full(len(sources) - 1, root), sources[1:]], axis=1)
        edges = np.concatenate([e + o for (_, e, _), o in zip(graphs, starts)] + [bridges])
        ranks = np.concatenate([r for _, _, r in graphs] + [np.ones(len(bridges), np.int64)])
    tree = _spanning_forest(total, edges, ranks)
    _, parent = breadth_first_order(tree, root, directed=False)
    # Each node's rank is that of the tree edge to its parent.
    tree = tree.tocoo()
    node_ranks = np.zeros(total, dtype=np.int64)
    node_ranks[np.where(parent[tree.col] == tree.row, tree.col, tree.row)] = tree.data

    def rank(source: int) -> float:
        # A reached sink's path to the root passes its own source.
        path = [source + 1]
        if parent[path[0]] < 0:
            return math.inf
        while path[-1] != source:
            path.append(parent[path[-1]])
        return int(node_ranks[path[:-1]].max())

    return [rank(source) for source in sources]


def _crossing_edges(pattern: PointPattern, pairs: np.ndarray):
    """The crossing edges and the value v of each, which is kept at radius r
    when v <= 2r: the pairs with their distances, then each point's edge to
    the source node (_slab_edges) with its offset x - lower from the left
    face, then its edge to the sink node with its offset upper - x from the
    right face, x the first coordinate."""
    points, w = pattern.points, pattern.window
    x = points[:, 0]
    values = np.concatenate([pair_distances(points, pairs, w), x - w.lower[0], w.upper[0] - x])
    return np.concatenate([pairs, _slab_edges(points.shape[0])]), values


def _crossings(patterns: list, radii) -> list:
    """Per pattern, and per radius r in the order given, whether one Gilbert
    component touches both slabs of width 2r along the first axis, from one
    _source_sink_ranks call.  An edge's rank is 1 + that of the least radius
    r with v <= 2r (_crossing_edges); radius q crosses if no path rank
    exceeds q + 1."""
    twice, layer = np.unique(2 * np.array(radii, dtype=float), return_inverse=True)
    graphs = []
    for pattern in patterns:
        points, w = pattern.points, pattern.window
        edges, values = _crossing_edges(pattern, _candidate_pairs(points, w, twice[-1]))
        ranks = 1 + np.searchsorted(twice, values, side="left")
        kept = ranks <= twice.size
        graphs.append((points.shape[0], edges[kept], ranks[kept]))
    return [(rank <= layer + 1).tolist() for rank in _source_sink_ranks(graphs)]


def _crossing_indicator(pattern: PointPattern, r: float) -> bool:
    """_crossings of the one pattern at the one radius r.  It stays only
    while the benchmark's tracer looks this name up."""
    return _crossings([pattern], [r])[0][0]


# The pattern size from which _replicate_crossings answers a pattern in its
# replication.  On a 2-vCPU host at two threads the grouped path was faster
# up to about 900 points, and the pool from 1,024 points on (critical radius
# 18% at 1,024, 39% at 4,150).  These are in-process timings: the benchmark's
# crossing patterns have about 460 points, so no workload runs the pool side.
_POOL_POINTS = 2**10

# The most points of one group on the calling thread: 2**10 was slower on
# patterns of about 460 points, and 2**12 raised the peak memory with no gain.
_GROUP_POINTS = 2**11


def _replicate_crossings(sampler, reps: int, stream: RandomStream, threads: int, answer) -> list:
    """answer(patterns) per replication's pattern, in index order.

    The pool draws the patterns.  One of at least _POOL_POINTS points is
    answered in its replication, where its pair query releases the GIL.
    The others come back as they are, and the calling thread answers them
    in consecutive groups of at most _GROUP_POINTS points, one call per
    group, since the spanning forest holds the GIL.
    """

    def one(rep: RandomStream):
        pattern = sampler.draw(rep)
        return pattern if pattern.points.shape[0] < _POOL_POINTS else answer([pattern])[0]

    results = replicate(reps, stream, threads, one)
    groups, size = [], 0
    for i, pattern in enumerate(results):
        if isinstance(pattern, PointPattern):
            n = pattern.points.shape[0]
            if not groups or size + n > _GROUP_POINTS:
                groups.append([])
                size = 0
            groups[-1].append(i)
            size += n
    for group in groups:
        for i, value in zip(group, answer([results[i] for i in group])):
            results[i] = value
    return results


def _hit_curve(radii: np.ndarray, hits: list) -> CurveEstimate:
    """Per radius, the frequency of the replications' 0/1 outcomes, from
    one (radii,) row of outcomes per replication."""
    columns = np.array(hits, dtype=float).T
    return CurveEstimate(tuple(radii.tolist()), tuple(map(_proportion, columns)))


def crossing_probability(
    spec: GeneratorSpec, w: Window, radii, reps: int = 50,
    stream: RandomStream = None, threads: int = 1,
) -> CurveEstimate:
    """Probability that a Gilbert component spans the window horizontally,
    at each radius in the order given, all read from the same replications
    (_crossings): each estimate equals the one-radius call, bit for bit.

    The pool draws the patterns and answers those of at least _POOL_POINTS
    points; the calling thread answers the rest in consecutive groups of at
    most _GROUP_POINTS points, one spanning forest per group
    (_replicate_crossings).  The outcomes do not depend on the grouping.
    """
    check_window("crossing_probability", w, "euclidean")
    radii = check_radii("radii", radii)
    sampler = prepare(spec, w)
    return _hit_curve(
        radii,
        _replicate_crossings(sampler, reps, stream, threads, lambda ps: _crossings(ps, radii)),
    )


def _event_radii(values: np.ndarray) -> np.ndarray:
    """Per value v, the least float r with v <= 2r: v / 2, one ulp up where
    halving rounded down, which only values below 2**-1021 do."""
    r = values / 2
    return np.where(2 * r < values, np.nextafter(r, np.inf), r)


def _crossing_thresholds(patterns: list, r_max: float) -> list:
    """Per pattern, the least radius at which it crosses, or inf past r_max:
    the largest event (the least float r with v <= 2r, _event_radii) on the
    source-sink path.  Each pattern's pair query radius rho doubles from the
    Poisson bound; each round makes one _source_sink_ranks call over the
    patterns that have not yet crossed at their rho."""
    thresholds = [math.inf] * len(patterns)
    rho = {}
    for i, pattern in enumerate(patterns):
        n, w = pattern.points.shape[0], pattern.window
        if n > 0:
            rho[i] = min((n / volume(w) * unit_ball_volume(w.dim)) ** (-1.0 / w.dim), r_max)
    while rho:
        graphs, events = [], []
        for i, r in rho.items():
            points, w = patterns[i].points, patterns[i].window
            edges, values = _crossing_edges(patterns[i], _candidate_pairs(points, w, 2 * r))
            radii = _event_radii(values)
            kept = radii <= r
            unique, ranks = np.unique(radii[kept], return_inverse=True)
            graphs.append((points.shape[0], edges[kept], ranks + 1))
            events.append(unique)
        for (i, r), unique, rank in zip(list(rho.items()), events, _source_sink_ranks(graphs)):
            if rank < math.inf:
                thresholds[i] = float(unique[rank - 1])
            if rank < math.inf or r == r_max:
                del rho[i]
            else:
                rho[i] = min(2 * r, r_max)
    return thresholds


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
    (_crossing_thresholds), and the crossing probability at every bisection
    radius is the fraction of thresholds at or below it.  The estimate is
    the one that resampling the same streams at each radius would give.
    The bisection stops at the bracket width tol, or where the bracket ends
    are adjacent floats.  The reported error combines the final bracket
    half-width with the binomial noise propagated through the locally
    estimated slope.

    The pool draws the patterns and answers those of at least
    _POOL_POINTS points; the calling thread answers the rest in
    consecutive groups of at most _GROUP_POINTS points, one spanning forest
    per group and doubling round (_replicate_crossings).
    """
    check_number("tol", tol, "pos")
    check_replications(reps, stream)
    check_window("critical_radius", w, "euclidean")
    sampler = prepare(spec, w)
    r_max = float(np.linalg.norm(w.sides)) / 4.0
    thresholds = _replicate_crossings(
        sampler, reps, stream.derive(0), threads, lambda ps: _crossing_thresholds(ps, r_max)
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
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
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
    spec: GeneratorSpec, w: Window, radii, k: int = 1, grid_n: int = 64,
    reps: int = 50, stream: RandomStream = None, threads: int = 1,
) -> CurveEstimate:
    """Crossing probability of the k-times-covered region, on a site grid,
    at each radius in the order given, all read from the same replications.

    A grid cell is open when its center is covered by at least k balls of
    radius r; the open sites percolate left to right through close-packed
    (diagonal-including) adjacency.  This is a resolution-dependent
    surrogate for continuum k-coverage percolation: refine grid_n to see
    the dependence.
    """
    radii, covered = _covered_cells("k_percolation_crossing", spec, w, radii, k, grid_n)
    shape = (grid_n,) * w.dim

    def one(rep: RandomStream) -> list:
        return [_site_crossing(cells.reshape(shape)) for cells in covered(rep)]

    return _hit_curve(radii, replicate(reps, stream, threads, one))


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


def sinr_graphs(
    pattern_b: PointPattern, pattern_i: PointPattern, params: SinrParams, gammas
) -> list:
    """sinr_graph at each interference factor in gammas (params.gamma is
    not read), from one set of candidate pairs and one interference field.

    The candidates are the pairs within _sinr_reach, from one pair query;
    only zero noise with an unbounded attenuation takes every pair, with
    distances from the dense kernel under MAX_DENSE_ENTRIES.  The
    interference is computed once, and only when some gamma is positive, as
    one dense reduction that holds one row block of distances at a time.
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
    l = params.attenuation

    # Interference first, so that an interferer set over the dense cap
    # raises before the pairs exist.
    interference = np.zeros(n)
    if any(gamma > 0 for gamma in gammas):

        def heard(dist: np.ndarray) -> np.ndarray:
            terms = l.evaluate(dist)
            # A receiver that is itself an interferer does not hear its own signal.
            terms[dist == 0.0] = 0.0
            return terms

        interference = reduce_distances(pts, wb, pattern_i.points, heard, np.sum)
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
    return sinr_graphs(pattern_b, pattern_i, params, [params.gamma])[0]


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


def crossing_to_csv(curve: CurveEstimate) -> str:
    """CSV rows r,crossing_prob,std_error, one per radius of the curve."""
    return csv_text(
        ("r", "crossing_prob", "std_error"),
        ((r, est.value, est.std_error) for r, est in zip(curve.abscissa, curve.estimates)),
    )


def graph_to_csv(g: Graph) -> str:
    return csv_text(("i", "j"), g.edges.tolist())
