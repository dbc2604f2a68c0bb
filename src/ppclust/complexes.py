"""Proximity complexes on point patterns and their Z/2 homology.

Two standard constructions: the Vietoris-Rips complex (fill every clique
of the distance-2r graph) and the Cech complex (keep a face only when one
ball of radius r covers all its vertices, decided by the smallest
enclosing ball).  Both share the same 1-skeleton; Cech faces are a subset
of Rips faces at matched radii.

Betti numbers come from boundary-matrix ranks over Z/2, computed by
column reduction on bitmask columns: beta_k = S_k - rank d_k - rank d_{k+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np

from .core import (
    PointPattern,
    RandomStream,
    check_number,
    check_replications,
    check_window,
    csv_text,
    replicate,
)
from .graphs import _neighbor_sets, _volume_windows
from .percolation import _edge_index_array
from .procgen import GeneratorSpec, sample
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
    "complex_to_csv",
    "betti_scaling_to_csv",
]

MAX_COMPLEX_DIM = 4
# Points this close to the smallest-enclosing-ball boundary count as inside;
# the same slack decides face inclusion at radius r.
MINIBALL_TOLERANCE = 1e-12


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

    An optional predicate filters each level of dimension >= 2: it takes
    the level's candidate faces (their sub-faces are already accepted) and
    returns a boolean mask of the faces to keep.
    """
    levels = [tuple((i,) for i in range(n))]
    if max_dim == 0:
        return levels
    neighbors = _neighbor_sets(n, edges)
    levels.append(tuple(map(tuple, edges.tolist())))
    for dim in range(2, max_dim + 1):
        candidates = []
        for face in levels[-1]:
            common = set.intersection(*(neighbors[v] for v in face))
            candidates.extend(face + (v,) for v in sorted(common) if v > face[-1])
        candidates.sort()
        if keep is not None and candidates:
            candidates = list(compress(candidates, keep(candidates)))
        levels.append(tuple(candidates))
    return levels


def vietoris_rips(pattern: PointPattern, r: float, max_dim: int = 2) -> SimplicialComplex:
    """Clique complex of the distance-2r graph, up to max_dim."""
    if not 0 <= max_dim <= MAX_COMPLEX_DIM:
        raise ValueError(f"max_dim must be between 0 and {MAX_COMPLEX_DIM}")
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
    if not 0 <= max_dim <= MAX_COMPLEX_DIM:
        raise ValueError(f"max_dim must be between 0 and {MAX_COMPLEX_DIM}")
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
    own); the complex is built to dimension k+1, the minimum that makes
    beta_k meaningful.
    """
    if not 0 <= k <= 2:
        raise ValueError("k must be 0, 1, or 2")
    check_replications(reps, stream)
    rows = []
    for n, r, w, level in _volume_windows(r_rule, n_list, d, stream):

        def one(rep: RandomStream) -> float:
            complex_ = cech_complex(sample(spec, w, rep), r, max_dim=k + 1)
            return float(betti_numbers(complex_).betti[k])

        values = np.array(replicate(reps, level, threads, one))
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


def complex_to_csv(c: SimplicialComplex) -> str:
    """One row per face: its dimension and space-separated vertices."""
    return csv_text(
        ("dim", "vertices"),
        (
            (k, " ".join(str(v) for v in face))
            for k, level in enumerate(c.faces)
            for face in level
        ),
    )


def betti_scaling_to_csv(rows) -> str:
    return csv_text(
        ("n", "mean_betti", "p_zero", "std_error"),
        ((row.n, row.mean_betti, row.p_zero, row.std_error) for row in rows),
    )
