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
    every subset and every vertex relabeling."""
    from itertools import combinations, permutations

    k = len(motif_adjacency)
    adjacent = set()
    for i, j in edges:
        adjacent.add((i, j))
        adjacent.add((j, i))
    count = 0
    for sub in combinations(range(n), k):
        for perm in permutations(range(k)):
            if all(
                ((sub[perm[a]], sub[perm[b]]) in adjacent)
                == bool(motif_adjacency[a][b])
                for a in range(k)
                for b in range(a + 1, k)
            ):
                count += 1
                break
    return count


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


def dense_coverage_counts(eval_points, points, lower, upper, metric, r):
    """Number of points within Euclidean distance r of each evaluation
    point, from the dense offsets."""
    import numpy as np

    delta = _dense_offsets(eval_points, points, lower, upper, metric)
    return np.count_nonzero(np.sqrt(np.sum(delta**2, axis=2)) <= r, axis=1)


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


def dense_field_covariance(w, grid_n, sigma, corr_length):
    """sigma^2 exp(-d / corr_length) between every two grid_centers(w, grid_n)
    cells, d the window's distance (minimum image on a torus): the dense
    covariance matrix of the log-Gaussian Cox field."""
    import numpy as np

    from ppclust.core import grid_centers, pairwise_distances

    centers = grid_centers(w, grid_n)
    return sigma**2 * np.exp(-pairwise_distances(centers, w) / corr_length)
