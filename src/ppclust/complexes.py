"""Proximity complexes on point patterns and their Z/2 homology.

Two standard constructions: the Vietoris-Rips complex (fill every clique
of the distance-2r graph) and the Cech complex (keep a face only when one
ball of radius r covers all its vertices, decided by the smallest
enclosing ball).  Both share the same 1-skeleton; Cech faces are a subset
of Rips faces at matched radii.

Betti numbers come from boundary-matrix ranks over Z/2, computed by
column reduction on bitmask columns: beta_k = S_k - rank d_k - rank d_{k+1}.

betti_scaling_experiment takes a shorter path for beta_0 and beta_1 in the
plane.  The Cech complex, like the Delaunay-restricted (alpha) complex, has
the homotopy type of the union of the radius-r discs (nerve theorem;
Edelsbrunner, "The union of balls and its dual shape", DCG 1995).  So beta_0
is the number of Gilbert components, and beta_1 = beta_0 - chi, with the
Euler characteristic chi counted on the alpha complex of one Delaunay
triangulation.  Each replication makes only its pair query and its one
Delaunay call (_planar_parts); the labelling and the alpha-complex counts
run once per row of replications on the stacked patterns
(_planar_betti_row).  Where the two slack rules could disagree (a Delaunay
edge or triangle value within a small band of r), or qhull cannot
triangulate the points, the Cech path decides instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .core import (
    PointPattern,
    RandomStream,
    check_number,
    check_replications,
    check_window,
    csv_text,
    replicate,
)
from .graphs import _local_masks, _volume_windows
from .percolation import _component_labels, _edge_index_array
from .procgen import GeneratorSpec
from .summaries import _estimate

__all__ = [
    "SimplicialComplex",
    "BettiVector",
    "BettiScalingRow",
    "miniball_radius",
    "vietoris_rips",
    "cech_complex",
    "simplex_counts",
    "betti_numbers",
    "euler_characteristic",
    "betti_scaling_experiment",
    "betti_scaling_to_csv",
]

MAX_COMPLEX_DIM = 4
# Points this close to the smallest-enclosing-ball boundary count as inside;
# the same slack decides face inclusion at radius r.
MINIBALL_TOLERANCE = 1e-12
# The planar Betti kernel leaves a pattern to the Cech path when a Delaunay
# value lies within this relative band (plus twice the slack above) of r.
ALPHA_BAND = 1e-9
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Faces per dimension, each face an ascending vertex tuple."""

    max_dim: int
    faces: tuple  # faces[k] = tuple of (k+1)-vertex tuples, lexicographic

    def __post_init__(self):
        check_number("max_dim", self.max_dim, 0)
        if len(self.faces) != self.max_dim + 1:
            raise ValueError("need one face sequence per dimension 0..max_dim")
        for k, level in enumerate(self.faces):
            if list(level) != sorted(set(level)):
                raise ValueError(f"{k}-faces must be sorted and unique")
            below = set(self.faces[k - 1]) if k else None
            for face in level:
                if len(face) != k + 1 or list(face) != sorted(set(face)):
                    raise ValueError(
                        f"{k}-faces must be ascending tuples of {k + 1} vertices"
                    )
                if k and not all(
                    face[:omit] + face[omit + 1 :] in below
                    for omit in range(k + 1)
                ):
                    raise ValueError(
                        "not downward closed: a sub-face is missing"
                    )


@dataclass(frozen=True)
class BettiVector:
    betti: tuple

    def __post_init__(self):
        if any(b < 0 for b in self.betti):
            raise ValueError("Betti numbers are non-negative")


def miniball_radius(points) -> float:
    """Radius of the smallest ball enclosing the points (Euclidean).

    The optimum ball is determined by an affinely independent support set
    of at most d+1 points; with at most 5 vertices per face, enumerating
    every candidate support set is exact and cheap.  Points within
    MINIBALL_TOLERANCE of a candidate boundary count as enclosed.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a non-empty (m, d) array of points")
    return float(_miniball_radii(pts[None])[0])


def _miniball_radii(pts: np.ndarray) -> np.ndarray:
    """Smallest-enclosing-ball radii of an (F, m, d) stack of faces.

    Each support subset is tried on the whole stack at once: its
    circumcenter comes from one stacked solve, and a face keeps the
    smallest radius whose ball holds all its vertices.  Affinely dependent
    supports (a singular or non-finite solve) are skipped face by face.
    """
    f, m, d = pts.shape
    best = np.full(f, math.inf)
    for size in range(1, min(m, d + 1) + 1):
        for sub in combinations(range(m), size):
            support = pts[:, list(sub)]
            base = support[:, 0]
            valid = np.ones(f, dtype=bool)
            if size > 1:
                span = support[:, 1:] - base[:, None]
                gram = span @ span.transpose(0, 2, 1)
                diag = np.diagonal(gram, axis1=1, axis2=2)[..., None]
                coeffs = _solve_each(2.0 * gram, diag)
                valid = np.all(np.isfinite(coeffs), axis=(1, 2))
                # Zeroed coefficients give a finite center that is never kept.
                coeffs[~valid] = 0.0
                base = base + (span.transpose(0, 2, 1) @ coeffs)[..., 0]
            dist = np.sqrt(np.sum((pts - base[:, None]) ** 2, axis=2))
            radius = np.max(dist[:, list(sub)], axis=1)
            valid &= radius < best
            valid &= np.all(dist <= (radius + MINIBALL_TOLERANCE)[:, None], axis=1)
            best = np.where(valid, radius, best)
    return best


def _solve_each(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve; when any matrix is exactly singular, the stack is
    solved one matrix at a time and the singular ones give NaN."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i in range(lhs.shape[0]):
            try:
                out[i] = np.linalg.solve(lhs[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _clique_levels(n: int, edges: np.ndarray, max_dim: int, keep=None) -> list:
    """Faces of the clique complex, level by level, from a lexicographic
    (E, 2) edge array with i < j (as the pair query returns it).

    A face extends by the common neighbours of its vertices above its last
    one.  These are read off the local masks over the face's first
    vertex's higher neighbours in ascending order: the AND of the masks of
    its other vertices, shifted past the last.  Extensions then come out
    in ascending order, so each level is lexicographic as built.

    An optional predicate filters each level of dimension >= 2: it takes
    the level's candidate faces (their sub-faces are already accepted) and
    returns a boolean mask of the faces to keep.
    """
    levels = [tuple((i,) for i in range(n))]
    if max_dim == 0:
        return levels
    pairs = edges.tolist()
    levels.append(tuple(map(tuple, pairs)))
    higher = [[] for _ in range(n)]
    for i, j in pairs:
        higher[i].append(j)
    # Masks over the higher neighbours only: the bits above a face's last
    # vertex, the only ones read, are the same as with full adjacency.
    above = [set(members) for members in higher]
    masks = [_local_masks(above, members) for members in higher]
    # The faces that may extend, each with its first vertex, the position of
    # its last vertex among the first's higher neighbours, and the AND of the
    # masks of its vertices after the first.
    frontier = [
        ((a, u), a, q, mask)
        for a in range(n)
        for q, (u, mask) in enumerate(zip(higher[a], masks[a]))
        if mask
    ]
    for dim in range(2, max_dim + 1):
        grown = []
        for face, a, q, common in frontier:
            ext = common >> (q + 1)
            members, local = higher[a], masks[a]
            while ext:
                low = ext & -ext
                p = q + low.bit_length()
                grown.append((face + (members[p],), a, p, common & local[p]))
                ext ^= low
        if keep is not None and grown:
            grown = list(compress(grown, keep([entry[0] for entry in grown])))
        levels.append(tuple(entry[0] for entry in grown))
        frontier = grown
    return levels


def _check_max_dim(max_dim: int) -> None:
    if check_number("max_dim", max_dim, 0) > MAX_COMPLEX_DIM:
        raise ValueError(f"max_dim must be between 0 and {MAX_COMPLEX_DIM}")


def vietoris_rips(pattern: PointPattern, r: float, max_dim: int = 2) -> SimplicialComplex:
    """Clique complex of the distance-2r graph, up to max_dim."""
    _check_max_dim(max_dim)
    edges = _edge_index_array(pattern, r)
    levels = _clique_levels(pattern.points.shape[0], edges, max_dim)
    return SimplicialComplex(max_dim, tuple(levels))


def cech_complex(pattern: PointPattern, r: float, max_dim: int = 2) -> SimplicialComplex:
    """Faces are vertex sets coverable by one radius-r ball.

    Candidate faces come from the clique complex (a coverable set is
    pairwise within 2r), then each candidate of dimension >= 2 must pass
    the smallest-enclosing-ball test.  Edges need no test: two points at
    distance <= 2r always fit in one radius-r ball.
    """
    _check_max_dim(max_dim)
    check_window("cech_complex", pattern.window, "euclidean")
    points = pattern.points
    edges = _edge_index_array(pattern, r)

    def keep(faces: list) -> np.ndarray:
        return _miniball_radii(points[np.array(faces)]) <= r + MINIBALL_TOLERANCE

    levels = _clique_levels(points.shape[0], edges, max_dim, keep)
    return SimplicialComplex(max_dim, tuple(levels))


def simplex_counts(c: SimplicialComplex) -> tuple:
    return tuple(len(level) for level in c.faces)


def _gf2_rank(columns: list) -> int:
    """Rank of a Z/2 matrix given as bitmask columns, by column reduction."""
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            pivot = col.bit_length() - 1
            if pivot in pivots:
                col ^= pivots[pivot]
            else:
                pivots[pivot] = col
                rank += 1
                break
    return rank


def _boundary_columns(lower: tuple, upper: tuple) -> list:
    index = {face: i for i, face in enumerate(lower)}
    columns = []
    for face in upper:
        mask = 0
        for omit in range(len(face)):
            mask |= 1 << index[face[:omit] + face[omit + 1 :]]
        columns.append(mask)
    return columns


def betti_numbers(c: SimplicialComplex) -> BettiVector:
    """Z/2 Betti numbers beta_0 .. beta_{max_dim - 1}.

    beta_k needs the (k+1)-faces to cancel spurious cycles, so a complex
    built to max_dim yields exactly max_dim Betti numbers.
    """
    if c.max_dim < 1:
        raise ValueError(
            "insufficient max_dim: computing beta_k needs faces up to "
            "dimension k+1, so build the complex to max_dim >= 1"
        )
    counts = simplex_counts(c)
    ranks = [0]  # rank of the dimension-0 boundary map
    for k in range(1, c.max_dim + 1):
        ranks.append(_gf2_rank(_boundary_columns(c.faces[k - 1], c.faces[k])))
    betti = tuple(
        counts[k] - ranks[k] - ranks[k + 1] for k in range(c.max_dim)
    )
    return BettiVector(betti)


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** k * count for k, count in enumerate(simplex_counts(c)))


def _planar_parts(pattern: PointPattern, r: float, k: int) -> tuple:
    """The per-replication part of the planar Betti kernel: the points, the
    Gilbert edges at radius r and, for k = 1, the triangles of the points'
    one Delaunay triangulation.  The triangles are None for k = 0, for
    fewer than three points, and where qhull fails or leaves a point out
    (coincident points among them)."""
    points = pattern.points
    edges = _edge_index_array(pattern, r)
    if k == 0 or points.shape[0] < 3:
        return points, edges, None
    try:
        tri = Delaunay(points)
    except QhullError:
        return points, edges, None
    return points, edges, None if tri.coplanar.size else tri.simplices


def _planar_betti_row(parts: list, r: float, k: int) -> list:
    """(beta_0, ..., beta_k) of the radius-r Cech complex, k <= 1, for each
    planar pattern of a row given by its _planar_parts, or None where the
    Cech path must decide.

    The row's patterns are stacked with vertex offsets, so one labelling
    and one set of array operations serve them all; a component, an edge
    key or a triangle never spans two patterns, and per-pattern counts
    come from bincount on the owning pattern.  beta_0 counts the
    components of the Cech 1-skeleton (the Gilbert graph, with its own
    comparison).  beta_1 = beta_0 - chi, where chi is counted on the alpha
    complex of the points' Delaunay triangulation: a triangle enters at
    its circumradius; an edge at half its length, unless the vertex
    opposite it in an incident triangle lies strictly inside its diametral
    disk (an obtuse angle), when it enters at the least circumradius of
    its incident triangles.  Windows are taken to be Euclidean, as
    betti_scaling_experiment's always are.  For k = 1 a pattern is None
    when it has no triangles (see _planar_parts) and when a Delaunay
    edge's half-length or a circumradius lies within the band of r where
    the alpha and Cech slack rules may disagree.
    """
    m = len(parts)
    sizes = np.array([points.shape[0] for points, _, _ in parts])
    offsets = np.r_[0, np.cumsum(sizes)]
    total = int(offsets[-1])
    owner = np.repeat(np.arange(m), sizes)
    labels = _component_labels(
        total, np.concatenate([edges + at for (_, edges, _), at in zip(parts, offsets)])
    )
    # One node per component (its first) names the pattern that owns it.
    b0 = np.bincount(owner[np.unique(labels, return_index=True)[1]], minlength=m)
    if k == 0:
        return [(int(b),) for b in b0]
    meshed = [i for i, (_, _, simplices) in enumerate(parts) if simplices is not None]
    if not meshed:
        return [None] * m
    points = np.concatenate([points for points, _, _ in parts])
    simplices = np.concatenate([parts[i][2] + offsets[i] for i in meshed])
    tri_owner = np.repeat(meshed, [parts[i][2].shape[0] for i in meshed])
    # Side s of a triangle joins corners s+1 and s+2 (mod 3), opposite corner s.
    x, y = points.T[:, simplices]
    next_x, next_y = x[:, _NEXT] - x, y[:, _NEXT] - y
    last_x, last_y = x[:, _LAST] - x, y[:, _LAST] - y
    half = 0.5 * np.hypot(last_x - next_x, last_y - next_y)
    cross = np.abs(next_x[:, 0] * last_y[:, 0] - next_y[:, 0] * last_x[:, 0])
    with np.errstate(divide="ignore"):
        circum = 4.0 * np.prod(half, axis=1) / cross
    obtuse = next_x * last_x + next_y * last_y < 0.0
    first, second = simplices[:, _NEXT], simplices[:, _LAST]
    key = (np.minimum(first, second) * total + np.maximum(first, second)).ravel()
    order = np.argsort(key)
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    edge_owner = owner[key[start] // total]
    edge_half = half.ravel()[order][start]
    slack = ALPHA_BAND * r + 2.0 * MINIBALL_TOLERANCE
    tied = np.zeros(m, dtype=bool)
    tied[edge_owner[np.abs(edge_half - r) <= slack]] = True
    tied[tri_owner[np.abs(circum - r) <= slack]] = True
    attached = np.logical_or.reduceat(obtuse.ravel()[order], start)
    least = np.minimum.reduceat(np.repeat(circum, 3)[order], start)
    entered = np.where(attached, least, edge_half) <= r
    chi = sizes - np.bincount(edge_owner[entered], minlength=m) + np.bincount(tri_owner[circum <= r], minlength=m)
    return [
        (int(b0[i]), int(b0[i] - chi[i]))
        if parts[i][2] is not None and not tied[i]
        else None
        for i in range(m)
    ]


def _cech_betti(pattern: PointPattern, r: float, k: int) -> tuple:
    """(beta_0, ..., beta_k) from the Cech complex built to dimension k+1,
    the minimum that makes beta_k meaningful, and its Z/2 ranks."""
    return betti_numbers(cech_complex(pattern, r, max_dim=k + 1)).betti


@dataclass(frozen=True)
class BettiScalingRow:
    n: int
    r: float
    mean_betti: float
    p_zero: float
    std_error: float
    replications: int


def betti_scaling_experiment(
    spec: GeneratorSpec,
    r_rule,
    n_list,
    k: int = 1,
    reps: int = 20,
    stream: RandomStream = None,
    d: int = 2,
    threads: int = 1,
) -> list:
    """Mean beta_k of the coverage complex on growing volume-n windows.

    Windows are Euclidean (a torus would add wraparound cycles of its
    own).  In the plane with k <= 1, beta_k comes from the Gilbert
    components and the alpha complex's Euler characteristic: each
    replication samples its pattern and takes its _planar_parts (the pair
    query and the one Delaunay call), and one _planar_betti_row pass per
    entry of n_list then counts every pattern of the row at once.  Every
    other (d, k) builds the Cech complex to dimension k+1 inside its
    replication (_cech_betti); a planar pattern the row pass leaves to the
    Cech path builds it after the pass, on the calling thread.
    """
    if check_number("k", k, 0) > 2:
        raise ValueError("k must be 0, 1, or 2")
    check_replications(reps, stream)
    planar = d == 2 and k <= 1
    rows = []
    for n, r, sampler, level in _volume_windows(spec, r_rule, n_list, d, stream):

        def one(rep: RandomStream):
            pattern = sampler.draw(rep)
            return _planar_parts(pattern, r, k) if planar else _cech_betti(pattern, r, k)

        results = replicate(reps, level, threads, one)
        if planar:
            w = sampler.window
            results = [
                _cech_betti(PointPattern(w, parts[0]), r, k) if betti is None else betti
                for parts, betti in zip(results, _planar_betti_row(results, r, k))
            ]
        values = np.array([float(betti[k]) for betti in results])
        est = _estimate(values)
        rows.append(
            BettiScalingRow(
                n=n,
                r=r,
                mean_betti=est.value,
                p_zero=float(np.mean(values == 0.0)),
                std_error=est.std_error,
                replications=reps,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Serialization


def betti_scaling_to_csv(rows) -> str:
    return csv_text(
        ("n", "mean_betti", "p_zero", "std_error"),
        ((row.n, row.mean_betti, row.p_zero, row.std_error) for row in rows),
    )
