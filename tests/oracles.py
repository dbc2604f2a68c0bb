"""Independent brute-force reference implementations for tests.

Everything here is deliberately naive (O(n^2) scans, BFS, explicit
enumeration) and shares no code with the package internals, so agreement
between the two is meaningful evidence of correctness.
"""

import math
from collections import deque


def brute_force_gilbert_edges(points, lower, upper, metric, r):
    """All pairs (i < j) with center distance <= 2r, by direct scan."""
    n = len(points)
    d = len(lower)
    sides = [upper[k] - lower[k] for k in range(d)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            total = 0.0
            for k in range(d):
                delta = abs(points[i][k] - points[j][k])
                if metric == "periodic":
                    delta = min(delta, sides[k] - delta)
                total += delta * delta
            if math.sqrt(total) <= 2 * r:
                edges.add((i, j))
    return edges


def brute_force_motif_count(n, edges, motif_adjacency):
    """Count k-subsets inducing a graph isomorphic to the motif, by trying
    every subset and every vertex relabeling against an adjacency matrix."""
    from itertools import combinations, permutations

    import numpy as np

    motif = np.asarray(motif_adjacency, dtype=bool)
    k = len(motif)
    adjacency = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = True
    subsets = np.array(list(combinations(range(n), k)), dtype=int).reshape(math.comb(n, k), k)
    induced = adjacency[subsets[:, :, None], subsets[:, None, :]]  # (subsets, k, k)
    a, b = np.triu_indices(k, 1)
    found = np.zeros(len(subsets), dtype=bool)
    for perm in permutations(range(k)):
        perm = np.array(perm, dtype=int)
        found |= np.all(induced[:, perm[a], perm[b]] == motif[a, b], axis=1)
    return int(found.sum())


def count_connected_subsets(n, edges, k):
    """Number of k-subsets that induce a connected subgraph."""
    from itertools import combinations

    neighbors = {i: set() for i in range(n)}
    for i, j in edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    count = 0
    for sub in combinations(range(n), k):
        members = set(sub)
        seen = {sub[0]}
        stack = [sub[0]]
        while stack:
            v = stack.pop()
            for u in neighbors[v] & members:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == k:
            count += 1
    return count


def ordered_tuple_sum(points, k, f):
    """Sum of f over ordered k-tuples of distinct points, the long way."""
    from itertools import permutations

    return sum(f(points[list(p)]) for p in permutations(range(len(points)), k))


def brute_force_chromatic(n, edges):
    """Smallest k admitting a proper coloring, by exhaustive search."""
    from itertools import product

    if n == 0:
        return 0
    for k in range(1, n + 1):
        for coloring in product(range(k), repeat=n):
            if all(coloring[i] != coloring[j] for i, j in edges):
                return k


def set_max_clique(n, edges):
    """Clique number by a set-based branch and bound that prunes with a
    greedy coloring of the candidate list (the search the package used
    before its bit-parallel one)."""
    if n == 0:
        return 0
    neighbors = [set() for _ in range(n)]
    for i, j in edges:
        neighbors[int(i)].add(int(j))
        neighbors[int(j)].add(int(i))
    order = sorted(range(n), key=lambda v: len(neighbors[v]))
    best = 1

    def color_bound(cands):
        classes = []
        for v in cands:
            for cls in classes:
                if all(u not in neighbors[v] for u in cls):
                    cls.append(v)
                    break
            else:
                classes.append([v])
        return len(classes)

    def expand(size, cands):
        nonlocal best
        if not cands:
            best = max(best, size)
            return
        if size + color_bound(cands) <= best:
            return
        for idx in range(len(cands) - 1, -1, -1):
            if size + idx + 1 <= best:
                return
            v = cands[idx]
            nxt = [u for u in cands[:idx] if u in neighbors[v]]
            if size + 1 > best and not nxt:
                best = size + 1
            else:
                expand(size + 1, nxt)

    expand(0, order)
    return best


def brute_force_clique_faces(n, edges, max_dim):
    """Faces of the clique complex up to max_dim: for each k, every
    (k+1)-subset of vertices that is pairwise adjacent, in lexicographic
    order."""
    from itertools import combinations

    adjacent = {(int(i), int(j)) for i, j in edges}
    adjacent |= {(j, i) for i, j in adjacent}
    return [
        [
            sub
            for sub in combinations(range(n), k + 1)
            if all(pair in adjacent for pair in combinations(sub, 2))
        ]
        for k in range(max_dim + 1)
    ]


def gf2_rank_gaussian(matrix):
    """Rank of a 0/1 matrix over Z/2 by textbook row elimination."""
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for i in range(pivot_row, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def naive_betti_numbers(faces):
    """Betti numbers from explicit dense boundary matrices over Z/2.

    faces[k] lists the k-faces as ascending vertex tuples; returns
    beta_0 .. beta_{len(faces)-2}.
    """
    max_dim = len(faces) - 1
    ranks = [0]
    for k in range(1, max_dim + 1):
        lower, upper = list(faces[k - 1]), list(faces[k])
        matrix = []
        for low in lower:
            row = []
            for up in upper:
                row.append(1 if set(low) <= set(up) else 0)
            matrix.append(row)
        ranks.append(gf2_rank_gaussian(matrix))
    return tuple(
        len(faces[k]) - ranks[k] - ranks[k + 1] for k in range(max_dim)
    )


def bfs_component_sizes(n, edges):
    """Connected-component sizes (descending) via breadth-first search."""
    neighbors = {i: [] for i in range(n)}
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        size = 0
        while queue:
            node = queue.popleft()
            size += 1
            for other in neighbors[node]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
        sizes.append(size)
    return sorted(sizes, reverse=True)


def bfs_site_crossing(open_cells):
    """Left-right crossing of open sites (a boolean d-dimensional grid) by
    breadth-first search from the open cells of the first slab along axis
    0, with close-packed adjacency (all 3^d - 1 neighbours) and no
    wraparound."""
    from itertools import product

    import numpy as np

    shape = open_cells.shape
    frontier = deque(idx for idx in zip(*np.nonzero(open_cells)) if idx[0] == 0)
    seen = set(frontier)
    offsets = [off for off in product((-1, 0, 1), repeat=open_cells.ndim) if any(off)]
    while frontier:
        current = frontier.popleft()
        if current[0] == shape[0] - 1:
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


def brute_force_miniball_radius(points, tol=1e-12):
    """Smallest enclosing ball radius, one support subset and one solve at
    a time: every subset of at most d+1 points whose circumcenter exists
    is a candidate, and the smallest candidate ball holding every point
    (within tol) wins."""
    from itertools import combinations

    import numpy as np

    def circumcenter(sub):
        if sub.shape[0] == 1:
            return sub[0]
        base = sub[0]
        span = sub[1:] - base
        gram = span @ span.T
        try:
            coeffs = np.linalg.solve(2.0 * gram, np.diag(gram).copy())
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(coeffs)):
            return None
        return base + span.T @ coeffs

    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    best = math.inf
    for size in range(1, min(m, d + 1) + 1):
        for sub in combinations(range(m), size):
            center = circumcenter(pts[list(sub)])
            if center is None:
                continue
            dist = np.sqrt(np.sum((pts - center) ** 2, axis=1))
            radius = float(np.max(dist[list(sub)]))
            if radius < best and np.all(dist <= radius + tol):
                best = radius
    return best


def scan_dsatur_colors(n, edges):
    """Saturation-order greedy coloring by a full scan per step: color the
    uncolored vertex with the most distinct neighbor colors (ties: higher
    degree, then lower index) with its smallest free color."""
    neighbors = [set() for _ in range(n)]
    for i, j in edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (len(neighbor_colors[u]), len(neighbors[u])),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for u in neighbors[v]:
            neighbor_colors[u].add(c)
    return colors


def _dense_offsets(eval_points, points, lower, upper, metric):
    """(eval, n, d) per-axis offsets by one broadcast, minimum image on a
    torus."""
    import numpy as np

    eval_points = np.asarray(eval_points, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1, eval_points.shape[1])
    delta = np.abs(eval_points[:, None, :] - points[None, :, :])
    if metric == "periodic":
        sides = np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float)
        delta = np.minimum(delta, sides - delta)
    return delta


def dense_distances(eval_points, points, lower, upper, metric):
    """(eval, n) distance matrix from the whole (eval, n, d) offset array
    at once: the one-shot form of core.pairwise_distances."""
    import numpy as np

    delta = _dense_offsets(eval_points, points, lower, upper, metric)
    return np.sqrt(np.sum(delta * delta, axis=2))


def dense_field(eval_points, points, lower, upper, metric, h, reduce):
    """reduce (np.sum or np.max) over each row of h(distances), from the
    one-shot distance matrix: the additive or extremal shot-noise field."""
    return reduce(h.evaluate(dense_distances(eval_points, points, lower, upper, metric)), axis=1)


def dense_interference(receivers, interferers, lower, upper, metric, attenuation):
    """Per receiver, the attenuation summed over every interferer from the
    one-shot distance matrix, except that a receiver coinciding with an
    interferer does not hear itself (zero distance contributes nothing)."""
    dist = dense_distances(receivers, interferers, lower, upper, metric)
    terms = attenuation.evaluate(dist)
    terms[dist == 0.0] = 0.0
    return terms.sum(axis=1)


def chernoff_grid_bound(lam, h, a, d, s_values):
    """min(1, exp(min over s of -s a + lam I(s))) for the min_above bound,
    I(s) = integral over R^d of (e^{s h(|x|)} - 1), by quadrature at each s.

    An s with s h(0) beyond the largest finite exponent is skipped, decided
    up front from h(0): h is non-increasing, so e^{s h} is finite everywhere
    exactly when it is finite at the origin.  An s whose quadrature reports
    failure is skipped too: its value bounds nothing.
    """
    import sys

    from scipy import integrate

    h0 = float(h.evaluate(0.0))
    upper = h.support_radius()
    surface = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
    best = 0.0
    for s in s_values:
        if s * h0 > math.log(sys.float_info.max):
            continue
        value, _, _, *failure = integrate.quad(
            lambda r: math.expm1(s * float(h.evaluate(r))) * r ** (d - 1),
            0.0, upper, epsrel=1e-10, limit=400, full_output=1,
        )
        if failure:
            continue
        best = min(best, -s * a + lam * surface * value)
    return math.exp(best)


def dense_counts_in_regions(centers, points, lower, upper, metric, kind, size):
    """Points inside the ball of radius size (kind "ball") or the box of
    side size (kind "box") placed at each centre, from the dense offsets."""
    import numpy as np

    delta = _dense_offsets(centers, points, lower, upper, metric)
    if kind == "ball":
        inside = np.sum(delta**2, axis=2) <= size**2
    else:
        inside = np.all(delta <= size / 2.0, axis=2)
    return np.count_nonzero(inside, axis=1)


def per_region_counts(pattern, centers, region):
    """Points inside one region at each centre, by one Euclidean KD-tree
    cross query per region: at the radius for a ball, at the circumradius
    for a box, then the region's own formula on the offsets.  A reference
    for summaries._counts_in_regions."""
    import numpy as np

    from ppclust.core import min_image, near_pairs

    pts, w = pattern.points, pattern.window
    if region.kind == "ball":
        pairs = near_pairs(centers, pts, w, region.size)
    else:
        pairs = near_pairs(centers, pts, w, region.size / 2.0 * np.sqrt(w.dim))
    delta = min_image(np.abs(centers[pairs[:, 0]] - pts[pairs[:, 1]]), w)
    if region.kind == "ball":
        inside = np.sum(delta**2, axis=1) <= region.size**2
    else:
        inside = np.all(delta <= region.size / 2.0, axis=1)
    return np.bincount(pairs[inside, 0], minlength=centers.shape[0]).astype(np.int64)


def one_query_counts_in_regions(pattern, centers, regions):
    """Points inside each region at each of its centres, by one Euclidean
    KD-tree cross query at the circumradius of the largest half-extent of
    all the regions, then each candidate's offsets re-filtered by its own
    region's formula.  The retired kernel of summaries._counts_in_regions,
    which queried the max norm, kept as its reference."""
    import functools

    import numpy as np

    from ppclust.core import min_image, near_pairs

    pts, w = pattern.points, pattern.window
    flat = centers.reshape(-1, w.dim)
    reach = max(r.max_extent() for r in regions) / 2 * np.sqrt(w.dim)
    pairs = near_pairs(flat, pts, w, reach)
    delta = min_image(np.abs(flat[pairs[:, 0]] - pts[pairs[:, 1]]), w)
    which = pairs[:, 0] // centers.shape[1]
    is_ball = np.array([r.kind == "ball" for r in regions])[which]
    bound = np.array([r.size**2 if r.kind == "ball" else r.size / 2.0 for r in regions])[which]
    # The largest offset column by column: a row-wise max over so short an
    # axis costs far more than d elementwise passes, and max is exact.
    chebyshev = functools.reduce(np.maximum, delta.T)
    inside = np.where(is_ball, np.sum(delta**2, axis=1) <= bound, chebyshev <= bound)
    counts = np.bincount(pairs[inside, 0], minlength=flat.shape[0])
    return counts.reshape(centers.shape[:2]).astype(np.int64)


def batch_region_estimates(counts, statistics, placements):
    """The estimates of summaries._region_estimates from every
    replication's counts at once: ``counts`` is the (reps, regions,
    placements) array, and each statistic of ``statistics[i]`` reduces
    region i's (reps, placements) slice.  The retired reduction, which held
    the whole array, kept as its reference."""
    import numpy as np

    from ppclust.summaries import _estimate, _falling_factorial, _total_variance

    counts = np.array(counts, dtype=float)

    def estimate(c, statistic):
        if statistic == "voids":
            return _estimate(np.mean(c == 0, axis=1))
        if statistic == "variance":
            wvars = np.var(c, axis=1, ddof=1) if placements > 1 else np.zeros(len(c))
            return _total_variance(np.mean(c, axis=1), wvars, placements)
        return _estimate(np.mean(_falling_factorial(c, statistic), axis=1))

    return tuple(
        tuple(estimate(counts[:, i], s) for s in stats) for i, stats in enumerate(statistics)
    )


def _window_relative(points, lower, upper, metric):
    """Points as offsets from lower, wrapped to 0 where a torus coordinate
    rounds up to the full side."""
    import numpy as np

    lower = np.asarray(lower, dtype=float)
    sides = np.asarray(upper, dtype=float) - lower
    shifted = np.asarray(points, dtype=float) - lower
    if metric == "periodic":
        shifted[shifted >= sides] = 0.0
    return shifted


def _balanced_tree(points, lower, upper, metric):
    """A default cKDTree (median splits, shrunk nodes) on the points in
    window-relative coordinates, periodic on a torus: the tree core built
    before it chose the cheapest build."""
    import numpy as np
    from scipy.spatial import cKDTree

    sides = np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float)
    return cKDTree(
        _window_relative(points, lower, upper, metric),
        boxsize=sides if metric == "periodic" else None,
    )


def _slack_radius(cutoff, lower, upper):
    """The padded query radius of core._trees."""
    import numpy as np

    lower = np.asarray(lower, dtype=float)
    sides = np.asarray(upper, dtype=float) - lower
    return cutoff * (1 + 1e-9) + 1e-12 * float(np.max(np.abs(lower) + sides))


def lexsorted_neighbor_pairs(points, lower, upper, metric, cutoff):
    """The retired core.neighbor_pairs: the candidate pairs (i < j) of one
    query_pairs call on a default balanced tree, at the same slack radius,
    ordered by a two-key np.lexsort."""
    import numpy as np

    if len(points) < 2 or not cutoff >= 0:
        return np.empty((0, 2), dtype=np.int64)
    tree = _balanced_tree(points, lower, upper, metric)
    radius = _slack_radius(cutoff, lower, upper)
    pairs = tree.query_pairs(radius, output_type="ndarray").astype(np.int64, copy=False)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def balanced_near_pairs(eval_points, points, lower, upper, metric, cutoff):
    """core.near_pairs on default balanced trees: the set of candidate
    (eval, point) pairs."""
    if len(eval_points) == 0 or len(points) == 0 or not cutoff >= 0:
        return set()
    eval_tree = _balanced_tree(eval_points, lower, upper, metric)
    tree = _balanced_tree(points, lower, upper, metric)
    found = eval_tree.sparse_distance_matrix(
        tree, _slack_radius(cutoff, lower, upper), output_type="ndarray"
    )
    return set(zip(found["i"].tolist(), found["j"].tolist()))


def balanced_count_near(eval_points, points, lower, upper, metric, radius, p):
    """core.count_near of one ball on a default balanced tree: the points
    within the closed p-norm ball of the radius at each evaluation point."""
    import numpy as np

    tree = _balanced_tree(points, lower, upper, metric)
    shifted = _window_relative(eval_points, lower, upper, metric)
    return np.asarray(tree.query_ball_point(shifted, radius, p=p, return_length=True))


def dense_coverage_counts(eval_points, points, lower, upper, metric, r):
    """Number of points within Euclidean distance r of each evaluation
    point, from the dense offsets."""
    import numpy as np

    delta = _dense_offsets(eval_points, points, lower, upper, metric)
    return np.count_nonzero(np.sqrt(np.sum(delta**2, axis=2)) <= r, axis=1)


def crossing_indicator(pattern, r):
    """The one-radius crossing indicator, from its own pair query at 2r
    (percolation._edge_index_array): True when one Gilbert component
    touches both the left and the right slab of width 2r along the first
    axis, a point's offset from the face no more than 2r."""
    import numpy as np

    from ppclust.percolation import _component_labels, _edge_index_array

    points = pattern.points
    n = points.shape[0]
    if n == 0:
        return False
    w = pattern.window
    left = points[:, 0] - w.lower[0] <= 2 * r
    right = w.upper[0] - points[:, 0] <= 2 * r
    if not (left.any() and right.any()):
        return False
    labels = _component_labels(n, _edge_index_array(pattern, r))
    return np.intersect1d(labels[left], labels[right]).size > 0


def source_sink_rank(n, edges, ranks):
    """One graph's minimax source-sink rank, the retired one-graph kernel:
    the largest rank (integers from 1) on the path from a source node n to
    a sink node n + 1 in a minimum spanning forest of the edges (Hu,
    Operations Research 1961), walked up the breadth-first parents from the
    sink, or inf when none joins them."""
    import numpy as np
    from scipy.sparse.csgraph import breadth_first_order

    from ppclust.percolation import _spanning_forest

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


def prefix_gilbert_labels(pattern, radii):
    """Gilbert component labels at each radius, in the order given, from one
    pair query at twice the largest: the graph at radius r is the prefix of
    the pairs, sorted stably by length, that are no longer than 2r; one
    component labelling per prefix."""
    import numpy as np

    from ppclust.core import pair_distances
    from ppclust.percolation import _candidate_pairs, _component_labels

    points, w = pattern.points, pattern.window
    pairs = _candidate_pairs(points, w, 2 * max(radii))
    dist = pair_distances(points, pairs, w)
    order = np.argsort(dist, kind="stable")
    pairs = pairs[order]
    prefixes = np.searchsorted(dist[order], 2 * np.array(radii), side="right")
    return [_component_labels(points.shape[0], pairs[:m]) for m in prefixes]


def bisection_critical_radius(spec, w, reps=50, tol=0.02, stream=None, threads=1):
    """The resampling critical-radius bisection: one crossing_probability
    call, which samples every replication again, per bisection radius."""
    import numpy as np

    from ppclust.core import check_replications
    from ppclust.percolation import crossing_probability
    from ppclust.summaries import EstimateWithError

    if not tol > 0:
        raise ValueError("tol must be positive")
    check_replications(reps, stream)
    eval_stream = stream.derive(0)

    def p_hat(r):
        return crossing_probability(spec, w, [r], reps, eval_stream, threads).estimates[0]

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


def bisected_crossing_threshold(pattern, r_max):
    """The least radius at which the pattern crosses, or inf: a bisection
    over the bit patterns of the floats in [0, rho], which order them, one
    component labelling of a prefix of the pairs sorted by length per step;
    rho doubles from the Poisson bound until the pattern crosses at rho."""
    import numpy as np

    from ppclust.core import pair_distances, unit_ball_volume, volume
    from ppclust.percolation import _candidate_pairs, _component_labels

    points = pattern.points
    n = points.shape[0]
    if n == 0:
        return math.inf
    w = pattern.window
    lower, upper, x = w.lower[0], w.upper[0], points[:, 0]

    def crosses(r: float) -> bool:
        labels = _component_labels(n, pairs[: np.searchsorted(dist, 2 * r, side="right")])
        return np.intersect1d(labels[x - lower <= 2 * r], labels[upper - x <= 2 * r]).size > 0

    rho = min((n / volume(w) * unit_ball_volume(w.dim)) ** (-1.0 / w.dim), r_max)
    while True:
        pairs = _candidate_pairs(points, w, 2 * rho)
        dist = pair_distances(points, pairs, w)
        order = np.argsort(dist, kind="stable")
        pairs, dist = pairs[order], dist[order]
        if crosses(rho):
            break
        if rho == r_max:
            return math.inf
        rho = min(2 * rho, r_max)
    # Bit pattern -1 stands for a radius below 0, where nothing crosses.
    lo, hi = -1, int(np.float64(rho).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if crosses(float(np.int64(mid).view(np.float64))):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def dense_field_covariance(w, grid_n, sigma, corr_length):
    """sigma^2 exp(-d / corr_length) between every two grid_centers(w, grid_n)
    cells, d the window's distance (minimum image on a torus): the dense
    covariance matrix of the log-Gaussian Cox field."""
    import numpy as np

    from ppclust.core import grid_centers, pairwise_distances

    centers = grid_centers(w, grid_n)
    return sigma**2 * np.exp(-pairwise_distances(centers, w) / corr_length)


def ginibre_basis(zs, ks, radius):
    """Orthonormal eigenfunction values psi_k(z) of the Ginibre kernel
    restricted to the disk of radius R, shape (len(zs), len(ks))."""
    import numpy as np
    from scipy import special

    log_lam = np.log(special.gammainc(ks + 1.0, radius**2))
    log_norm = 0.5 * (math.log(math.pi) + special.gammaln(ks + 1.0) + log_lam)
    r = np.abs(zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.where(r > 0, np.log(np.maximum(r, 1e-300)), -np.inf)
        log_mag = ks[None, :] * log_r[:, None] - (r**2)[:, None] / 2 - log_norm[None, :]
        phase = np.exp(1j * ks[None, :] * np.angle(zs)[:, None])
        mag = np.exp(log_mag)
    mag[np.isneginf(log_mag)] = 0.0
    # k = 0 at the origin: 0 * log 0 needs an explicit value
    if np.any(r == 0):
        mag[r == 0, :] = 0.0
        if ks.shape[0] and ks[0] == 0:
            mag[r == 0, 0] = np.exp(-log_norm[0])
    return mag * phase


def hkpv_ginibre(spec, w, rng):
    """The truncated Ginibre process by the HKPV chain rule: each disk
    eigenfunction psi_k (k < N) is kept with probability lambda_k, and one
    point is placed per kept psi_k.  With i placed, a proposal picks k
    uniformly among the n kept, r^2 ~ Gamma(k + 1) cut at R^2 and a uniform
    angle, so it has density |v(z)|^2 / n; it is accepted with probability
    |P v(z)|^2 / |v(z)|^2 <= 1, P the projection off the i placed rows.  The
    reference law for procgen's eigenvalue sampler; it shares only
    ginibre_eigenvalues with it."""
    import numpy as np
    from scipy import special

    from ppclust.procgen import ginibre_eigenvalues

    n_rank = spec.get("n_rank")
    radius = spec.get("radius")
    lambdas = ginibre_eigenvalues(n_rank, radius)
    ks = np.arange(n_rank)[rng.random(n_rank) < lambdas]
    n = ks.shape[0]
    points = np.empty((n, 2))
    basis = np.empty((n, n), dtype=complex)  # orthonormal rows spanning v(z_1..z_i)
    proposals = 0
    for i in range(n):
        placed = basis[:i]
        block = -(-n // (n - i))  # expected proposals per accepted point
        while True:
            proposals += block
            if proposals > 1 << 20:  # n * H_n <= 1,570 at N = 256
                raise RuntimeError("HKPV Ginibre sampling failed to accept")
            k = ks[rng.integers(n, size=block)]
            r2 = special.gammaincinv(k + 1.0, rng.random(block) * lambdas[k])
            zs = np.sqrt(r2) * np.exp(2j * math.pi * rng.random(block))
            vs = ginibre_basis(zs, ks, radius)
            resid = vs - (vs @ placed.conj().T) @ placed
            norm2 = np.sum(np.abs(vs) ** 2, axis=1)
            resid2 = np.sum(np.abs(resid) ** 2, axis=1)
            hits = np.flatnonzero(rng.random(block) * norm2 < resid2)
            if hits.size:
                break
        z, u = zs[hits[0]], resid[hits[0]]
        u = u - (placed.conj() @ u) @ placed  # second Gram-Schmidt pass
        basis[i] = u / np.linalg.norm(u)
        points[i] = z.real, z.imag
    return points


def envelope_ginibre(spec, w, rng):
    """The truncated Ginibre process by the HKPV chain rule, with rejection
    against a numerical envelope: uniform proposals on the disk, accepted
    under 1.05 times the largest |v(z)|^2 on a 4,096-point radius grid, in
    chunks of 128.  A second reference law for procgen's eigenvalue sampler;
    it shares ginibre_basis with hkpv_ginibre, and draws ks first as well."""
    import numpy as np

    from ppclust.procgen import ginibre_eigenvalues

    n_rank = spec.get("n_rank")
    radius = spec.get("radius")
    lambdas = ginibre_eigenvalues(n_rank, radius)
    ks = np.arange(n_rank)[rng.random(n_rank) < lambdas]
    n = ks.shape[0]
    if n == 0:
        return np.empty((0, 2))

    r_grid = np.linspace(0.0, radius, 4096)
    f = np.sum(np.abs(ginibre_basis(r_grid.astype(complex), ks, radius)) ** 2, axis=1)
    envelope = float(f.max()) * 1.05

    chunk = 128
    basis = np.zeros((0, n), dtype=complex)
    points = []
    for _ in range(n):
        accepted = None
        for _ in range(2000):
            rr = radius * np.sqrt(rng.random(chunk))
            theta = 2 * math.pi * rng.random(chunk)
            zs = rr * np.exp(1j * theta)
            vs = ginibre_basis(zs, ks, radius)
            targets = np.sum(np.abs(vs) ** 2, axis=1)
            if basis.shape[0]:
                proj = vs @ basis.conj().T
                targets = targets - np.sum(np.abs(proj) ** 2, axis=1)
            if np.any(targets > envelope):
                raise RuntimeError("rejection envelope violated")
            hits = np.nonzero(rng.random(chunk) * envelope < targets)[0]
            if hits.size:
                accepted = (zs[hits[0]], vs[hits[0]])
                break
        if accepted is None:
            raise RuntimeError("rejection sampling failed to accept")
        z, v = accepted
        points.append([z.real, z.imag])
        u = v.astype(complex)
        for e in basis:
            u = u - np.vdot(e, u) * e
        norm = np.linalg.norm(u)
        if norm > 1e-12:
            basis = np.vstack([basis, u / norm])
    return np.array(points)


def loop_weak_poisson_test(spec, w, scales, k_max, placements, reps, stream, threads):
    """The weak sub-Poisson test by its own replication loop: each
    replication samples the pattern from rep.derive(0), counts a ball and a
    box per scale from the dense offsets, at centres drawn in that order
    from one generator of rep.derive(1), and keeps the void frequency and
    the factorial moments; the (reps, scales, orders) arrays are then
    reduced column by column.  The reference for compare.weak_poisson_test,
    field for field."""
    import numpy as np

    from ppclust.compare import OrderingReport, ScaleComparison, _verdict, _z_score
    from ppclust.core import ball_volume, replicate
    from ppclust.procgen import intensity, sample
    from ppclust.summaries import _estimates, ball, box

    regions = [region for s in scales for region in (ball(s), box(s))]
    lam = intensity(spec, d=w.dim, w=w).value
    orders = list(range(2, k_max + 1))

    def one(rep):
        pattern = sample(spec, w, rep.derive(0))
        rng = rep.derive(1).generator()
        per_region = [
            dense_counts_in_regions(
                w.lower + rng.random((placements, w.dim)) * w.sides,
                pattern.points, w.lower, w.upper, w.metric, r.kind, r.size,
            )
            for r in regions
        ]
        voids = [np.mean(c == 0) for c in per_region[0::2]]
        moments = [
            [np.mean(np.prod([c.astype(float) - j for j in range(k)], axis=0)) for k in orders]
            for c in per_region[1::2]
        ]
        return voids, moments

    results = replicate(reps, stream, threads, one)
    void_mat = np.array([v for v, _ in results])  # (reps, scales)
    mom_mat = np.array([m for _, m in results])  # (reps, scales, orders)

    def report(statistic, mat, refs):
        rows = tuple(
            ScaleComparison(s, e.value, ref, _z_score(e.value - ref, e.std_error))
            for s, e, ref in zip(scales, _estimates(mat), refs)
        )
        return OrderingReport(statistic, rows, _verdict([row.z for row in rows]))

    d = w.dim
    reports = [report("voids", void_mat, [math.exp(-lam * ball_volume(s, d)) for s in scales])]
    for c, k in enumerate(orders):
        refs = [(lam * s**d) ** k for s in scales]
        reports.append(report(f"factorial_moments({k})", mom_mat[:, :, c], refs))
    return reports


def dense_sinr_graph(pattern_b, pattern_i, params):
    """Bidirectional SINR graph on pattern_b with interferers pattern_i.

    The directed link X -> Y holds when P l(|XY|) exceeds T times noise
    plus gamma-weighted interference at the receiver Y; an edge needs both
    directions.  Interference sums the attenuation from every interferer,
    except that a receiver coinciding with an interferer does not hear
    itself (self-term removed by coordinate match).

    The dense form: the n x n signal and the ratio rule on every ordered
    pair, then np.argwhere on the upper triangle of ok & ok.T.  The
    reference for percolation.sinr_graph, which reads only the pairs within
    its noise-limited reach.
    """
    import numpy as np

    from ppclust.percolation import Graph

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
        return Graph(n, ())
    l = params.attenuation
    frame = (wb.lower, wb.upper, wb.metric)

    interference = np.zeros(n)
    if params.gamma > 0:
        interference = dense_interference(pts, pattern_i.points, *frame, l)
    signal = params.power * l.evaluate(dense_distances(pts, pts, *frame))

    denom = params.noise + params.gamma * params.power * interference  # per receiver
    # ok[i, j]: transmission i -> j clears the threshold at receiver j.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = signal / denom[None, :]
    ok = np.where(denom[None, :] == 0.0, signal > 0.0, ratio > params.threshold)
    return Graph(n, np.argwhere(np.triu(ok & ok.T, k=1)))


def planar_betti(pattern, r, k):
    """(beta_0, ..., beta_k) of the radius-r Cech complex of one planar
    pattern for k <= 1, or None where the Cech path must decide: the
    per-pattern planar kernel that complexes._planar_betti_row batches over
    a row of patterns.

    beta_0 counts the Gilbert components.  beta_1 = beta_0 - chi, where chi
    is counted on the alpha complex of the points' Delaunay triangulation:
    a triangle enters at its circumradius; an edge at half its length,
    unless the vertex opposite it in an incident triangle lies strictly
    inside its diametral disk, when it enters at the least circumradius of
    its incident triangles.  None when the pattern is not planar or k > 1,
    when there are fewer than three points, when qhull fails or leaves a
    point out, and when a Delaunay edge's half-length or a circumradius
    lies within the band of r where the alpha and Cech slack rules may
    disagree.
    """
    import numpy as np
    from scipy.spatial import Delaunay, QhullError

    from ppclust.complexes import ALPHA_BAND, MINIBALL_TOLERANCE
    from ppclust.percolation import _component_labels, _edge_index_array

    points = pattern.points
    n = points.shape[0]
    if points.shape[1] != 2 or k > 1:
        return None
    labels = _component_labels(n, _edge_index_array(pattern, r))
    b0 = int(labels.max(initial=-1)) + 1
    if k == 0:
        return (b0,)
    if n < 3:
        return None
    try:
        tri = Delaunay(points)
    except QhullError:
        return None
    if tri.coplanar.size:
        return None
    # Side s of a triangle joins corners s+1 and s+2 (mod 3), opposite corner s.
    following, preceding = [1, 2, 0], [2, 0, 1]
    simplices = tri.simplices
    corner = points[simplices]
    to_next = corner[:, following] - corner
    to_last = corner[:, preceding] - corner
    half = 0.5 * np.hypot(*np.moveaxis(to_last - to_next, 2, 0))
    cross = np.abs(
        to_next[:, 0, 0] * to_last[:, 0, 1] - to_next[:, 0, 1] * to_last[:, 0, 0]
    )
    with np.errstate(divide="ignore"):
        circum = 4.0 * np.prod(half, axis=1) / cross
    obtuse = np.sum(to_next * to_last, axis=2) < 0.0
    first, second = simplices[:, following].astype(np.int64), simplices[:, preceding]
    key = (np.minimum(first, second) * n + np.maximum(first, second)).ravel()
    order = np.argsort(key)
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    edge_half = half.ravel()[order][start]
    values = np.concatenate([edge_half, circum])
    if np.any(np.abs(values - r) <= ALPHA_BAND * r + 2.0 * MINIBALL_TOLERANCE):
        return None
    attached = np.logical_or.reduceat(obtuse.ravel()[order], start)
    least = np.minimum.reduceat(np.repeat(circum, 3)[order], start)
    edges = np.count_nonzero(np.where(attached, least, edge_half) <= r)
    chi = n - edges + np.count_nonzero(circum <= r)
    return (b0, b0 - int(chi))
