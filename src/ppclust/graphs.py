"""Random geometric graphs, motif counts, U-statistics, and scaling runs.

The geometric graph here uses the direct convention: points are adjacent
when their distance is at most r.  (The percolation module's Gilbert graph
connects at distance 2r, the grain-overlap convention; rgg(pattern, r)
equals gilbert_graph(pattern, r/2) edge for edge.)  Graphs carry their
edges as the (E, 2) int64 array of the pair query, and the search
kernels read Python adjacency sets built from it once per graph.  The
clique search (and the clique complex in complexes.py) works on local
bitmasks instead: Python ints over one vertex's neighbourhood, with bit
p standing for the p-th member, so a mask is never longer than the
neighbourhood.  Masks over all n vertices would cost O(n^2) memory.

Motif counting enumerates connected induced subgraphs only, growing
subsets from each root vertex so every connected k-subset is visited
exactly once.  A subset matches when its upper-triangle pair bitmask is
one of the motif's under its k! relabelings, a set that is exact and
small for motifs of at most 5 vertices.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
from scipy.sparse.csgraph import connected_components

from .core import PointPattern, RandomStream, box, check_number, check_replications, csv_text, replicate, run_indexed
from .percolation import Graph, _edge_index_array
from .procgen import GeneratorSpec, sample

__all__ = [
    "Motif",
    "GraphStats",
    "ScalingRow",
    "MOTIF_NAMES",
    "named_motif",
    "rgg",
    "induced_subgraph_count",
    "u_statistic",
    "u_statistic_pattern",
    "graph_stats",
    "scaling_experiment",
    "scaling_to_csv",
]

MAX_MOTIF_VERTICES = 5
# Cap on the C(n, k) subsets that u_statistic and u_statistic_pattern
# evaluate f on and store.
MAX_SUBSETS = 1 << 24
DEFAULT_EXACT_CHROMATIC_LIMIT = 60


@dataclass(frozen=True, eq=False)
class Motif:
    """A small connected graph to count occurrences of."""

    k: int
    adjacency: np.ndarray
    name: str = ""

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        object.__setattr__(self, "adjacency", adj)
        if self.k < 2 or self.k > MAX_MOTIF_VERTICES:
            raise ValueError(
                f"motif too large: need 2 <= k <= {MAX_MOTIF_VERTICES}, got {self.k}"
            )
        if adj.shape != (self.k, self.k):
            raise ValueError("adjacency must be k x k")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("adjacency must have a zero diagonal")
        if connected_components(adj, directed=False)[0] != 1:
            raise ValueError("motif must be connected")

    def canonical_form(self) -> int:
        return _canonical_form(self.adjacency)


def _orbit_masks(adj: np.ndarray) -> frozenset:
    """Upper-triangle bitmasks of the graph under every vertex relabeling:
    bit b stands for the b-th pair of combinations(range(k), 2)."""
    k = adj.shape[0]
    pair_bits = list(enumerate(combinations(range(k), 2)))
    return frozenset(
        sum(1 << bit for bit, (i, j) in pair_bits if adj[perm[i], perm[j]])
        for perm in permutations(range(k))
    )


def _canonical_form(adj: np.ndarray) -> int:
    """Smallest upper-triangle bitmask over all vertex relabelings."""
    return min(_orbit_masks(adj))


_MOTIF_TABLE = {
    "edge": [(0, 1)],
    "path3": [(0, 1), (1, 2)],
    "triangle": [(0, 1), (1, 2), (0, 2)],
    "star3": [(0, 1), (0, 2), (0, 3)],
    "path4": [(0, 1), (1, 2), (2, 3)],
    "cycle4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "clique4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}

MOTIF_NAMES = tuple(sorted(_MOTIF_TABLE))


def named_motif(name: str) -> Motif:
    """One of the built-in motifs: edge, path3, triangle, star3, path4,
    cycle4, clique4."""
    if name not in _MOTIF_TABLE:
        raise ValueError(f"unknown motif {name!r}; choose from {MOTIF_NAMES}")
    edges = _MOTIF_TABLE[name]
    k = max(max(e) for e in edges) + 1
    adj = np.zeros((k, k), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return Motif(k, adj, name)


def rgg(pattern: PointPattern, r: float) -> Graph:
    """Geometric graph joining points at distance <= r."""
    return Graph(pattern.points.shape[0], _edge_index_array(pattern, r / 2.0))


def _neighbor_sets(n: int, edges: np.ndarray) -> list:
    """Adjacency sets of the graph on vertices 0..n-1 with the given (E, 2)
    edge array; the one adjacency the Python search kernels read."""
    neighbors = [set() for _ in range(n)]
    for i, j in edges.tolist():
        neighbors[i].add(j)
        neighbors[j].add(i)
    return neighbors


def _connected_subsets_from_root(neighbors: list, root: int, k: int) -> list:
    """All connected k-subsets whose minimum vertex is the root.

    Subsets grow by attaching exclusive neighbors of the newest vertex, so
    each subset appears exactly once across all roots.
    """
    results = []

    def extend(sub: tuple, extension: set, banned: set):
        if len(sub) == k:
            results.append(sub)
            return
        ext = set(extension)
        while ext:
            w = ext.pop()
            fresh = {
                u
                for u in neighbors[w]
                if u > root and u not in banned and u not in ext and u not in sub
            }
            extend(sub + (w,), ext | fresh, banned | fresh | {w})

    initial = {u for u in neighbors[root] if u > root}
    extend((root,), initial, initial | {root})
    return results


def induced_subgraph_count(g: Graph, motif: Motif, threads: int = 1) -> int:
    """Number of vertex subsets whose induced subgraph matches the motif.

    This is the unordered count; multiply by k! for the sum over ordered
    k-tuples (as u_statistic does).
    """
    neighbors = _neighbor_sets(g.n_vertices, g.edges)
    orbit = _orbit_masks(motif.adjacency)
    pair_bits = list(enumerate(combinations(range(motif.k), 2)))

    def count_from_root(root: int) -> int:
        total = 0
        for sub in _connected_subsets_from_root(neighbors, root, motif.k):
            mask = sum(1 << bit for bit, (a, b) in pair_bits if sub[b] in neighbors[sub[a]])
            total += mask in orbit
        return total

    return sum(run_indexed(g.n_vertices, count_from_root, threads))


def _subset_values(pattern: PointPattern, k: int, f) -> list:
    if not 1 <= k <= 4:
        raise ValueError("k must be between 1 and 4")
    points = pattern.points
    n = points.shape[0]
    if math.comb(n, k) > MAX_SUBSETS:
        raise ValueError(f"C({n}, {k}) subsets exceed MAX_SUBSETS ({MAX_SUBSETS})")
    values = []
    for subset in combinations(range(n), k):
        value = float(f(points[list(subset)]))
        if not math.isfinite(value) or value < 0:
            raise ValueError("f must be finite and non-negative on every subset")
        values.append(value)
    return values


def u_statistic(pattern: PointPattern, k: int, f) -> float:
    """Sum of a symmetric non-negative function over ordered k-tuples of
    distinct points: k! times the sum over unordered subsets."""
    return sum(_subset_values(pattern, k, f)) * math.factorial(k)


def u_statistic_pattern(pattern: PointPattern, k: int, f) -> PointPattern:
    """The multiset of f-values over unordered k-subsets, as a pattern on
    the half-line (a 1-d window just wide enough to hold the maximum)."""
    values = sorted(_subset_values(pattern, k, f))
    top = values[-1] if values else 0.0
    upper = top * (1.0 + 1e-9) + 1e-12 if top > 0 else 1.0
    w = box((0.0, upper), metric="euclidean")
    return PointPattern(w, np.array(values).reshape(-1, 1))


@dataclass(frozen=True)
class GraphStats:
    """Clique number, max degree, and (possibly bounded) chromatic number."""

    clique_number: int
    max_degree: int
    chromatic_number: int
    chromatic_exact: bool

    def __post_init__(self):
        if not (
            self.clique_number <= self.chromatic_number <= self.max_degree + 1
        ):
            raise ValueError(
                "statistics violate clique <= chromatic <= max degree + 1"
            )


def _local_masks(neighbors: list, members: list) -> list:
    """Bitmasks of the subgraph induced on an ordered members list: bit p of
    masks[q] is set when members[p] is in neighbors[members[q]].

    Bits are local positions, not vertex ids, so no mask is longer than
    len(members) bits; masks over all n vertices would cost O(n^2) memory.
    """
    bit = {v: 1 << p for p, v in enumerate(members)}
    return [sum(map(bit.__getitem__, bit.keys() & neighbors[v])) for v in members]


def _max_clique(neighbors: list, n: int) -> int:
    """Exact clique number by a bit-parallel colour-bound branch and bound
    (MCQ, Tomita & Seki 2003; BBMC, San Segundo et al. 2011).

    Vertices are ordered by (degree, index), a stable sort by degree.  Each
    vertex is searched with the candidates that are its neighbours later in
    that order, as local masks, and one best size is shared across the
    searches.  A greedy colouring of the candidates bounds the clique they
    can add.
    """
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: len(neighbors[v]))
    rank = {v: i for i, v in enumerate(order)}
    best = 1

    def expand(masks: list, size: int, cands: int):
        nonlocal best
        # Colour the candidates greedily, lowest bit first; a vertex whose
        # colour cannot lift size past best is never branched on.
        branch = []
        uncoloured, colour = cands, 0
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                low = avail & -avail
                avail &= ~(masks[low.bit_length() - 1] | low)
                uncoloured &= ~low
                if size + colour > best:
                    branch.append((low, colour))
        for low, colour in reversed(branch):
            if size + colour <= best:
                return
            nxt = cands & masks[low.bit_length() - 1]
            if nxt:
                expand(masks, size + 1, nxt)
            elif size + 1 > best:
                best = size + 1
            cands &= ~low

    for v in order:
        later = sorted(
            (u for u in neighbors[v] if rank[u] > rank[v]), key=rank.__getitem__
        )
        if 1 + len(later) <= best:
            continue
        expand(_local_masks(neighbors, later), 1, (1 << len(later)) - 1)
    return best


def _dsatur_greedy(neighbors: list, n: int) -> int:
    """Number of colors used by the saturation-order greedy coloring, which
    picks the most saturated vertex, then the highest degree, then the
    lowest index."""
    return max(_dsatur_colors(neighbors, n), default=-1) + 1


def _dsatur_colors(neighbors: list, n: int) -> list:
    """Saturation-order greedy coloring, one color index per vertex.

    Each step colors, with its smallest free color, the uncolored vertex
    with the most distinct neighbor colors; ties go to the higher degree,
    then to the lower index.  A heap keyed (-saturation, -degree, vertex)
    picks that vertex; a vertex is pushed again whenever its saturation
    grows, and entries left behind by an older saturation are skipped.
    """
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    heap = [(0, -len(neighbors[v]), v) for v in range(n)]
    heapq.heapify(heap)
    while heap:
        neg_saturation, _, v = heapq.heappop(heap)
        if colors[v] != -1 or -neg_saturation != len(neighbor_colors[v]):
            continue
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for u in neighbors[v]:
            if colors[u] == -1 and c not in neighbor_colors[u]:
                neighbor_colors[u].add(c)
                heapq.heappush(
                    heap, (-len(neighbor_colors[u]), -len(neighbors[u]), u)
                )
    return colors


def _colorable(neighbors: list, n: int, k: int) -> bool:
    """Proper k-colorability by saturation-guided backtracking."""
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]

    def backtrack(done: int, used: int) -> bool:
        if done == n:
            return True
        v = max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (len(neighbor_colors[u]), len(neighbors[u])),
        )
        # Trying one brand-new color is enough; higher fresh colors are
        # symmetric to it.
        for c in range(min(k, used + 1)):
            if c in neighbor_colors[v]:
                continue
            colors[v] = c
            added = [u for u in neighbors[v] if c not in neighbor_colors[u]]
            for u in added:
                neighbor_colors[u].add(c)
            if backtrack(done + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            for u in added:
                neighbor_colors[u].discard(c)
        return False

    return backtrack(0, 0)


def graph_stats(
    g: Graph, exact_chromatic_limit: int = DEFAULT_EXACT_CHROMATIC_LIMIT
) -> GraphStats:
    """Clique number (exact), max degree (exact), and chromatic number
    (exact up to the size limit, else a flagged greedy upper bound)."""
    n = g.n_vertices
    neighbors = _neighbor_sets(n, g.edges)
    max_degree = max((len(s) for s in neighbors), default=0)
    clique = _max_clique(neighbors, n)
    greedy = _dsatur_greedy(neighbors, n)
    if n <= exact_chromatic_limit:
        chromatic = clique
        while chromatic < greedy and not _colorable(neighbors, n, chromatic):
            chromatic += 1
        exact = True
    else:
        chromatic, exact = greedy, False
    return GraphStats(clique, max_degree, chromatic, exact)


@dataclass(frozen=True)
class ScalingRow:
    """Graph statistics averaged over replications at one window scale."""

    n: int
    r: float
    mean_clique: float
    mean_max_degree: float
    mean_chromatic: float
    mean_edges: float
    prob_clique_below: float
    clique_threshold: int
    replications: int
    chromatic_all_exact: bool


def _volume_windows(r_rule, n_list, d: int, stream: RandomStream):
    """Yield (n, r, window, stream) per entry of n_list: the centred
    Euclidean cube of volume n, the radius r_rule(n), and the entry's
    sub-stream stream.derive(index)."""
    check_number("d", d, 1)
    for idx, n in enumerate(n_list):
        r = check_number("r_rule radius", float(r_rule(n)), "pos")
        half = 0.5 * float(n) ** (1.0 / d)
        yield int(n), r, box(*(((-half, half),) * d), metric="euclidean"), stream.derive(idx)


def scaling_experiment(
    spec: GeneratorSpec,
    r_rule,
    n_list,
    reps: int = 20,
    stream: RandomStream = None,
    d: int = 2,
    clique_threshold: int = 2,
    exact_chromatic_limit: int = DEFAULT_EXACT_CHROMATIC_LIMIT,
    threads: int = 1,
) -> list:
    """Sample patterns on growing centered windows of volume n, build the
    geometric graph at radius r_rule(n), and average its statistics."""
    check_replications(reps, stream)
    rows = []
    for n, r, w, level in _volume_windows(r_rule, n_list, d, stream):

        def one(rep: RandomStream):
            graph = rgg(sample(spec, w, rep), r)
            stats = graph_stats(graph, exact_chromatic_limit)
            return (
                stats.clique_number,
                stats.max_degree,
                stats.chromatic_number,
                len(graph.edges),
                stats.chromatic_exact,
            )

        data = replicate(reps, level, threads, one)
        cliques = np.array([row[0] for row in data], dtype=float)
        rows.append(
            ScalingRow(
                n=n,
                r=r,
                mean_clique=float(np.mean(cliques)),
                mean_max_degree=float(np.mean([row[1] for row in data])),
                mean_chromatic=float(np.mean([row[2] for row in data])),
                mean_edges=float(np.mean([row[3] for row in data])),
                prob_clique_below=float(np.mean(cliques < clique_threshold)),
                clique_threshold=clique_threshold,
                replications=reps,
                chromatic_all_exact=all(row[4] for row in data),
            )
        )
    return rows


def scaling_to_csv(rows) -> str:
    columns = (
        "n r mean_clique mean_max_degree mean_chromatic mean_edges prob_clique_below"
    ).split()
    return csv_text(columns, ([getattr(row, c) for c in columns] for row in rows))
