import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

import ppclust.complexes as cx
import ppclust.core as core
import ppclust.percolation as perc
import ppclust.procgen as pg
from oracles import (
    brute_force_clique_faces,
    brute_force_miniball_radius,
    naive_betti_numbers,
    planar_betti,
)
from ppclust.complexes import (
    BettiVector,
    SimplicialComplex,
    betti_numbers,
    betti_scaling_experiment,
    betti_scaling_to_csv,
    cech_complex,
    euler_characteristic,
    miniball_radius,
    simplex_counts,
    vietoris_rips,
)
from ppclust.core import PointPattern, RandomStream, box, cube

STREAM = RandomStream(505)


def euclid_pattern(points, pad=2.0):
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0) - pad
    hi = pts.max(axis=0) + pad
    w = box(*zip(lo.tolist(), hi.tolist()), metric="euclidean")
    return PointPattern(w, pts)


def unit_square_corners():
    return euclid_pattern([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def random_pattern(i, side=6.0, intensity=1.2):
    return pg.sample(
        pg.homogeneous_poisson(intensity),
        cube(side, 2, metric="euclidean"),
        STREAM.derive(i),
    )


class TestSimplicialComplexType:
    def test_downward_closure_enforced(self):
        with pytest.raises(ValueError, match="downward"):
            SimplicialComplex(1, (((0,), (1,)), ((0, 2),)))

    def test_faces_must_be_sorted(self):
        with pytest.raises(ValueError):
            SimplicialComplex(1, (((1,), (0,)), ()))

    def test_vertex_order_inside_face(self):
        with pytest.raises(ValueError):
            SimplicialComplex(1, (((0,), (1,)), ((1, 0),)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(0, (((0,), (0,)),))

    def test_betti_vector_non_negative(self):
        with pytest.raises(ValueError):
            BettiVector((1, -1))


class TestMiniball:
    def test_right_triangle(self):
        # Hypotenuse sqrt(2) subtends the diameter.
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert miniball_radius(pts) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    def test_equilateral_triangle(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
        assert miniball_radius(pts) == pytest.approx(1 / math.sqrt(3), rel=1e-12)

    def test_obtuse_triangle_uses_longest_side(self):
        pts = [[0.0, 0.0], [2.0, 0.0], [1.0, 0.1]]
        assert miniball_radius(pts) == pytest.approx(1.0, rel=1e-12)

    def test_collinear(self):
        assert miniball_radius([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]) == pytest.approx(1.5)

    def test_single_and_coincident(self):
        assert miniball_radius([[2.0, 3.0]]) == 0.0
        assert miniball_radius([[1.0, 1.0], [1.0, 1.0]]) == 0.0

    def test_square_in_three_dimensions(self):
        pts = [[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [1.0, 1.0, 5.0], [0.0, 1.0, 5.0]]
        assert miniball_radius(pts) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    def test_contains_all_points(self):
        rng = STREAM.derive(0).generator()
        for _ in range(20):
            pts = rng.uniform(0, 1, size=(5, 3))
            r = miniball_radius(pts)
            center_free_max = max(
                np.linalg.norm(pts[i] - pts[j]) for i in range(5) for j in range(5)
            )
            assert center_free_max / 2 <= r + 1e-9  # at least half the diameter
            assert r <= center_free_max / math.sqrt(2) + 1e-9  # Jung bound, d>=2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            miniball_radius(np.empty((0, 2)))


def degenerate_stacks(rng, m, d):
    """Face stacks whose support subsets include singular systems."""
    line = rng.uniform(-1, 1, size=(40, m, 1)) * rng.uniform(-1, 1, size=(40, 1, d))
    coincident = rng.uniform(0, 1, size=(40, m, d))
    coincident[:, 1] = coincident[:, 0]
    lattice = rng.integers(0, 2, size=(40, m, d)).astype(float)
    return {"collinear": line, "coincident": coincident, "lattice": lattice}


class TestBatchedMiniball:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_per_face_oracle(self, m, d):
        rng = STREAM.derive(30 + 10 * d + m).generator()
        stacks = {"random": rng.uniform(-2, 2, size=(60, m, d))}
        stacks.update(degenerate_stacks(rng, m, d))
        # One stack mixing every kind, so singular faces share a batch with
        # regular ones.
        stacks["mixed"] = np.concatenate(list(stacks.values()))
        for name, stack in stacks.items():
            radii = cx._miniball_radii(stack)
            expected = [brute_force_miniball_radius(face) for face in stack]
            np.testing.assert_allclose(radii, expected, rtol=1e-12, atol=0, err_msg=name)

    def test_singular_matrix_skipped_within_batch(self):
        lhs = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]]])
        rhs = np.array([[[1.0], [2.0]], [[1.0], [1.0]]])
        out = cx._solve_each(lhs, rhs)
        assert np.array_equal(out[0], np.linalg.solve(lhs[0], rhs[0]))
        assert np.all(np.isnan(out[1]))

    @pytest.mark.parametrize(
        "lattice, r",
        [
            ("square", 1 / math.sqrt(2)),
            ("square", math.nextafter(1 / math.sqrt(2), 1.0)),
            ("square", 0.75),
            ("hex", 0.5),
            ("hex", 1 / math.sqrt(3)),
        ],
    )
    def test_cech_faces_match_per_face_oracle_filter_on_lattice(self, lattice, r):
        # Lattice faces sit on the tolerance boundary: a unit square's
        # circumradius is 1/sqrt(2), a unit triangle's is 1/sqrt(3).
        w = box((0.0, 5.0), (0.0, 5.0), metric="euclidean")
        spec = getattr(pg, f"{lattice}_lattice")(1.0, stationary=False)
        pattern = pg.sample(spec, w, STREAM)
        points = pattern.points
        rips = vietoris_rips(pattern, r, max_dim=3).faces
        expected = [rips[0], rips[1]]
        for level in rips[2:]:
            accepted = set(expected[-1])
            expected.append(
                tuple(
                    face
                    for face in level
                    if all(
                        face[:omit] + face[omit + 1 :] in accepted
                        for omit in range(len(face))
                    )
                    and brute_force_miniball_radius(points[list(face)]) <= r + 1e-12
                )
            )
        assert cech_complex(pattern, r, max_dim=3).faces == tuple(expected)


class TestVietorisRips:
    def test_triangle_filled(self):
        pattern = euclid_pattern([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
        c = vietoris_rips(pattern, 0.55, 2)
        assert simplex_counts(c) == (3, 3, 1)

    def test_square_cycle_no_fill(self):
        # Side 1, diagonal sqrt(2): with 2r in [1, sqrt(2)) only the sides
        # appear, and no triangle is pairwise-close.
        c = vietoris_rips(unit_square_corners(), 0.55, 2)
        assert simplex_counts(c) == (4, 4, 0)
        assert c.faces[1] == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_zero_radius(self):
        c = vietoris_rips(unit_square_corners(), 0.0, 2)
        assert simplex_counts(c) == (4, 0, 0)

    def test_max_dim_zero(self):
        c = vietoris_rips(unit_square_corners(), 1.0, 0)
        assert simplex_counts(c) == (4,)

    def test_max_dim_validation(self):
        with pytest.raises(ValueError):
            vietoris_rips(unit_square_corners(), 0.5, 5)

    def test_periodic_windows_allowed(self):
        w = cube(4.0, 2)
        pattern = PointPattern(w, np.array([[0.2, 2.0], [3.8, 2.0], [0.0, 2.4]]))
        c = vietoris_rips(pattern, 0.35, 2)
        assert simplex_counts(c) == (3, 3, 1)  # wrapped distances connect all

    @pytest.mark.parametrize("max_dim", [2, 3, 4])
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    def test_faces_match_brute_force_clique_oracle(self, max_dim, metric):
        # Frozen against the all-subsets scan in tests/oracles.py
        # (brute_force_clique_faces), faces in lexicographic order.
        for i in range(4):
            pattern = pg.sample(
                pg.homogeneous_poisson(1.3),
                cube(4.5, 2, metric=metric),
                STREAM.derive(40 + i),
            )
            for r in (0.5, 0.8):
                edges = perc._edge_index_array(pattern, r)
                expected = brute_force_clique_faces(
                    pattern.points.shape[0], edges, max_dim
                )
                faces = vietoris_rips(pattern, r, max_dim).faces
                assert [list(level) for level in faces] == expected


class TestCechComplex:
    def test_square_cycle_below_circumradius(self):
        # Triples of corners need a ball of radius sqrt(2)/2 ~ 0.707.
        c = cech_complex(unit_square_corners(), 0.6, 2)
        assert simplex_counts(c) == (4, 4, 0)

    def test_square_fills_above_circumradius(self):
        c = cech_complex(unit_square_corners(), 0.8, 2)
        assert simplex_counts(c) == (4, 6, 4)

    def test_small_diameter_triple_is_covered(self):
        pattern = euclid_pattern([[0.0, 0.0], [0.3, 0.0], [0.15, 0.2]])
        c = cech_complex(pattern, 0.4, 2)
        assert simplex_counts(c)[2] == 1

    def test_faces_subset_of_rips(self):
        for i in range(3):
            pattern = random_pattern(i + 1)
            for r in (0.4, 0.7):
                ch = cech_complex(pattern, r, 2)
                vr = vietoris_rips(pattern, r, 2)
                assert set(ch.faces[1]) == set(vr.faces[1])
                assert set(ch.faces[2]) <= set(vr.faces[2])

    def test_rejects_periodic_window(self):
        pattern = pg.sample(pg.homogeneous_poisson(1.0), cube(5.0, 2), STREAM.derive(4))
        with pytest.raises(ValueError, match="Euclidean"):
            cech_complex(pattern, 0.5, 2)


class TestSimplexCounts:
    def test_filled_triangle(self):
        pattern = euclid_pattern([[0.0, 0.0], [0.2, 0.0], [0.1, 0.15]])
        assert simplex_counts(vietoris_rips(pattern, 0.2, 2)) == (3, 3, 1)

    def test_empty_pattern(self):
        w = box((0.0, 4.0), (0.0, 4.0), metric="euclidean")
        pattern = PointPattern(w, np.empty((0, 2)))
        assert simplex_counts(vietoris_rips(pattern, 0.5, 0)) == (0,)


class TestBettiNumbers:
    def test_four_cycle(self):
        c = vietoris_rips(unit_square_corners(), 0.55, 2)
        assert betti_numbers(c).betti == (1, 1)

    def test_filled_triangle(self):
        pattern = euclid_pattern([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
        assert betti_numbers(vietoris_rips(pattern, 0.55, 2)).betti == (1, 0)

    def test_two_disjoint_edges(self):
        pattern = euclid_pattern([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
        c = vietoris_rips(pattern, 0.5, 2)
        assert betti_numbers(c).betti[0] == 2

    def test_requires_dimension_above_zero(self):
        c = vietoris_rips(unit_square_corners(), 0.55, 0)
        with pytest.raises(ValueError, match="insufficient max_dim"):
            betti_numbers(c)

    def test_component_count_matches_graph(self):
        for i in range(5, 10):
            pattern = random_pattern(i)
            for r in (0.3, 0.5, 0.8):
                b0 = betti_numbers(cech_complex(pattern, r, 2)).betti[0]
                n_components = len(perc.components(perc.gilbert_graph(pattern, r)))
                assert b0 == n_components

    def test_matches_gaussian_elimination_oracle(self):
        # Frozen against the dense-matrix row reduction in tests/oracles.py
        # (naive_betti_numbers).
        checked = 0
        for i in range(10, 16):
            pattern = random_pattern(i, side=5.0, intensity=1.0)
            c = cech_complex(pattern, 0.5, 3)
            if sum(simplex_counts(c)) > 200:
                continue
            assert betti_numbers(c).betti == naive_betti_numbers(c.faces)
            checked += 1
        assert checked >= 3

    def test_torus_pattern_wraparound_cycle(self):
        # Points wrapped around one axis of the torus form a loop the Rips
        # complex detects.
        w = cube(4.0, 2)
        ring = np.column_stack([np.arange(0, 4.0, 0.5), np.full(8, 2.0)])
        c = vietoris_rips(PointPattern(w, ring), 0.3, 2)
        assert betti_numbers(c).betti == (1, 1)


class TestEulerCharacteristic:
    def test_examples(self):
        assert euler_characteristic(vietoris_rips(unit_square_corners(), 0.55, 2)) == 0
        tri = euclid_pattern([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
        assert euler_characteristic(vietoris_rips(tri, 0.55, 2)) == 1
        two = euclid_pattern([[0.0, 0.0], [5.0, 0.0]])
        assert euler_characteristic(vietoris_rips(two, 0.5, 1)) == 2

    def test_equals_alternating_betti_on_full_builds(self):
        checked = 0
        for i in range(16, 30):
            pattern = random_pattern(i, side=6.0, intensity=0.9)
            c = vietoris_rips(pattern, 0.35, 4)
            if simplex_counts(c)[-1] != 0:
                continue  # cliques past 5 vertices: build not full-dimensional
            chi = euler_characteristic(c)
            alternating = sum(
                (-1) ** k * b for k, b in enumerate(betti_numbers(c).betti)
            )
            assert chi == alternating
            checked += 1
        assert checked >= 8


def cech_betti(pattern, r, k):
    return betti_numbers(cech_complex(pattern, r, max_dim=k + 1)).betti


def row_betti(pattern, r, k):
    """The planar row kernel on a one-pattern row."""
    return cx._planar_betti_row([cx._planar_parts(pattern, r, k)], r, k)[0]


def assert_planar_betti_is_exact(pattern, r, fallback=False):
    """beta_0 always comes from the planar kernel; beta_1 must equal the
    Cech path's, or be left to it exactly when a fallback is expected."""
    assert row_betti(pattern, r, 0) == cech_betti(pattern, r, 0)
    got = row_betti(pattern, r, 1)
    if fallback:
        assert got is None
    else:
        assert got == cech_betti(pattern, r, 1)


DEGENERATE = [
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.5, 3.5]],
    [[1.0, 1.0]] * 4,
    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [0.3, 1.1], [1.0, 0.2], [1.4, 1.3]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e-17, 1e-17]],
    [[1.0, 1.0]],
    [[1.0, 1.0], [1.5, 1.0]],
    np.empty((0, 2)),
]
DEGENERATE_IDS = [
    "collinear",
    "coincident",
    "repeated_points",
    "near_coincident",
    "one_point",
    "two_points",
    "empty",
]


class TestPlanarBetti:
    @pytest.mark.parametrize(
        "spec",
        [
            pg.homogeneous_poisson(1.0),
            pg.thomas_cluster(0.2, 5.0, 0.5),
            pg.ginibre_truncated(50, 7.0),
        ],
        ids=["poisson", "thomas", "ginibre"],
    )
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    def test_equals_the_cech_path(self, spec, r):
        w = box((-5.0, 5.0), (-5.0, 5.0), metric="euclidean")
        for i in range(6):
            assert_planar_betti_is_exact(pg.sample(spec, w, STREAM.derive(600 + i)), r)

    @pytest.mark.parametrize(
        "lattice, r",
        [
            ("square", 0.5),
            ("square", 1 / math.sqrt(2)),
            ("hex", 0.5),
            ("hex", 1 / math.sqrt(3)),
        ],
    )
    def test_lattice_tie_radii_fall_back(self, lattice, r):
        # Side half-lengths and circumradii sit exactly at r, where the
        # Cech slack and the alpha comparison may disagree.
        w = box((0.0, 5.0), (0.0, 5.0), metric="euclidean")
        pattern = pg.sample(getattr(pg, f"{lattice}_lattice")(1.0, stationary=False), w, STREAM)
        assert_planar_betti_is_exact(pattern, r, fallback=True)
        assert_planar_betti_is_exact(pattern, r * (1 + 1e-6))
        assert_planar_betti_is_exact(pattern, r * (1 - 1e-6))

    def test_lattice_cycles_away_from_ties(self):
        w = box((0.0, 5.0), (0.0, 5.0), metric="euclidean")
        pattern = pg.sample(pg.square_lattice(1.0, stationary=False), w, STREAM)
        # 5 x 5 sites: 16 empty unit squares below the circumradius.
        assert row_betti(pattern, 0.6, 1) == (1, 16)
        assert row_betti(pattern, 0.75, 1) == (1, 0)

    def test_obtuse_triangle_edge_enters_with_the_triangle(self):
        # The apex lies inside the long side's diametral disk, so between
        # its half-length 1 and the circumradius 1.82 the side stays out.
        pattern = euclid_pattern([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.3], [0.0, -10.0]])
        for r in (0.9, 1.05, 1.5, 1.8, 2.0):
            assert_planar_betti_is_exact(pattern, r)

    @pytest.mark.parametrize("points", DEGENERATE, ids=DEGENERATE_IDS)
    def test_degenerate_patterns_fall_back(self, points):
        # qhull fails on the first two and leaves a point out of the next two.
        w = box((0.0, 5.0), (0.0, 5.0), metric="euclidean")
        pattern = PointPattern(w, np.array(points, dtype=float))
        for r in (0.0, 0.3, 1.0):
            assert_planar_betti_is_exact(pattern, r, fallback=True)

    def test_scope(self, monkeypatch):
        # Beyond beta_1 and beyond the plane, every replication builds its
        # Cech complex and none takes the planar parts.
        built = []

        def counted(*a, **kw):
            built.append(1)
            return cech_complex(*a, **kw)

        def refuse(*a):
            raise AssertionError("planar parts outside the planar scope")

        monkeypatch.setattr(cx, "cech_complex", counted)
        monkeypatch.setattr(cx, "_planar_parts", refuse)
        for k, d in [(2, 2), (1, 3)]:
            built.clear()
            betti_scaling_experiment(
                pg.homogeneous_poisson(1.0),
                lambda n: 0.4,
                [8, 27],
                k=k,
                reps=5,
                stream=STREAM.derive(47),
                d=d,
            )
            assert len(built) == 10

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(st.integers(0, 16), max_size=60),
        r=st.sampled_from([0.0, 0.125, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0, 1.5]),
    )
    def test_random_quarter_grid_patterns(self, cells, r):
        # Coordinates on a 1/4 grid, so that coincident, collinear and
        # co-circular points and values at exactly r are common.
        points = np.resize(np.array(cells, dtype=float) / 4, (len(cells) // 2, 2))
        pattern = PointPattern(box((0.0, 4.25), (0.0, 4.25), metric="euclidean"), points)
        assert row_betti(pattern, r, 0) == cech_betti(pattern, r, 0)
        got = row_betti(pattern, r, 1)
        assert got is None or got == cech_betti(pattern, r, 1)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1 / math.sqrt(2)])
    def test_row_equals_the_per_pattern_kernel(self, k, r):
        # One row holding degenerate patterns, lattices at their tie radii
        # and random patterns: a key collision or a label range leaking
        # across the vertex offsets would show in some pattern's numbers.
        small = box((0.0, 5.0), (0.0, 5.0), metric="euclidean")
        large = box((-5.0, 5.0), (-5.0, 5.0), metric="euclidean")
        row = [PointPattern(small, np.array(points, dtype=float)) for points in DEGENERATE]
        for lattice in (pg.square_lattice, pg.hex_lattice):
            row.append(pg.sample(lattice(1.0, stationary=False), small, STREAM))
        for i, spec in enumerate(
            [pg.homogeneous_poisson(1.0), pg.thomas_cluster(0.2, 5.0, 0.5), pg.ginibre_truncated(50, 7.0)]
        ):
            row.append(pg.sample(spec, large, STREAM.derive(610 + i)))
        expected = [planar_betti(pattern, r, k) for pattern in row]
        assert cx._planar_betti_row([cx._planar_parts(p, r, k) for p in row], r, k) == expected
        assert any(b is not None and b[0] > 1 for b in expected)
        if k:
            assert any(b is None for b in expected)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(0, 16), max_size=40), min_size=1, max_size=6),
        r=st.sampled_from([0.0, 0.125, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0, 1.5]),
        k=st.sampled_from([0, 1]),
    )
    def test_random_quarter_grid_rows(self, rows, r, k):
        w = box((0.0, 4.25), (0.0, 4.25), metric="euclidean")
        row = [
            PointPattern(w, np.resize(np.array(cells, dtype=float) / 4, (len(cells) // 2, 2)))
            for cells in rows
        ]
        got = cx._planar_betti_row([cx._planar_parts(p, r, k) for p in row], r, k)
        assert got == [planar_betti(pattern, r, k) for pattern in row]


class TestBettiScaling:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k", [0, 1])
    def test_rows_do_not_depend_on_the_chunking(self, monkeypatch, k, threads):
        # FINISH_POINTS 1 gives each pattern a row pass of its own, and 10**6
        # one pass a row.
        real, passes, rows = cx._planar_betti_row, [], {}

        def counted(parts, r, k):
            passes.append(len(parts))
            return real(parts, r, k)

        monkeypatch.setattr(cx, "_planar_betti_row", counted)
        args = dict(k=k, reps=12, stream=STREAM.derive(47), threads=threads)
        for bound in (1, 10**6):
            monkeypatch.setattr(core, "FINISH_POINTS", bound)
            rows[bound] = betti_scaling_experiment(
                pg.thomas_cluster(0.3, 4.0, 0.4), lambda n: 0.55, [30, 80], **args
            )
        assert rows[1] == rows[10**6]
        assert passes == [1] * 24 + [12, 12]

    def test_memory_does_not_grow_with_replications(self):
        # The calling thread holds one chunk of _planar_parts, not the row.
        peaks = []
        for reps in (500, 4000):
            tracemalloc.start()
            try:
                betti_scaling_experiment(
                    pg.homogeneous_poisson(1.0), lambda n: 0.5, [20], 1, reps, RandomStream(1)
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_sparse_regime_kills_cycles(self):
        rows = betti_scaling_experiment(
            pg.homogeneous_poisson(1.0),
            lambda n: 1.0 / n,
            [16, 64],
            k=1,
            reps=15,
            stream=STREAM.derive(40),
        )
        assert rows[-1].p_zero >= 0.95

    def test_dense_regime_keeps_cycles(self):
        # r_n = n^(-1/8): n r^4 grows, so one-dimensional holes persist.
        rows = betti_scaling_experiment(
            pg.homogeneous_poisson(1.0),
            lambda n: float(n) ** -0.125,
            [64],
            k=1,
            reps=15,
            stream=STREAM.derive(41),
        )
        assert rows[0].mean_betti > 0.5

    def test_too_few_points_give_zero(self):
        rows = betti_scaling_experiment(
            pg.binomial_process(2),
            lambda n: 0.5,
            [4],
            k=1,
            reps=6,
            stream=STREAM.derive(42),
        )
        assert rows[0].mean_betti == 0.0
        assert rows[0].p_zero == 1.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            betti_scaling_experiment(
                pg.homogeneous_poisson(1.0),
                lambda n: 0.5,
                [4],
                k=3,
                reps=2,
                stream=STREAM.derive(43),
            )

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize(
        "spec",
        [pg.homogeneous_poisson(1.0), pg.thomas_cluster(0.3, 4.0, 0.4)],
        ids=["poisson", "thomas"],
    )
    def test_planar_path_equals_the_cech_path(self, monkeypatch, spec, k):
        args = dict(k=k, reps=10, stream=STREAM.derive(46))
        built = []

        def counted(*a, **kw):
            built.append(1)
            return cech_complex(*a, **kw)

        monkeypatch.setattr(cx, "cech_complex", counted)
        planar = betti_scaling_experiment(spec, lambda n: 0.55, [30, 80], **args)
        assert not built
        monkeypatch.setattr(cx, "_planar_betti_row", lambda parts, r, k: [None] * len(parts))
        assert betti_scaling_experiment(spec, lambda n: 0.55, [30, 80], **args) == planar
        assert len(built) == 20

    def test_k0_makes_no_delaunay_call(self, monkeypatch):
        calls = []

        def counted(*a, **kw):
            calls.append(1)
            return Delaunay(*a, **kw)

        monkeypatch.setattr(cx, "Delaunay", counted)
        args = dict(reps=6, stream=STREAM.derive(48))
        betti_scaling_experiment(pg.homogeneous_poisson(1.0), lambda n: 0.4, [16, 36], k=0, **args)
        assert not calls
        betti_scaling_experiment(pg.homogeneous_poisson(1.0), lambda n: 0.4, [16, 36], k=1, **args)
        assert len(calls) == 12

    def test_fallback_rows_are_thread_independent(self, monkeypatch):
        # Every lattice edge's half-length is the tie radius 0.5, so every
        # pattern goes to the Cech path after the row pass.
        built = []

        def counted(*a, **kw):
            built.append(1)
            return cech_complex(*a, **kw)

        monkeypatch.setattr(cx, "cech_complex", counted)
        args = dict(k=1, reps=6, stream=STREAM.derive(49))
        spec = pg.square_lattice(1.0, stationary=False)
        a = betti_scaling_experiment(spec, lambda n: 0.5, [16, 36], threads=1, **args)
        assert len(built) == 12
        b = betti_scaling_experiment(spec, lambda n: 0.5, [16, 36], threads=2, **args)
        assert len(built) == 24
        assert a == b

    def test_deterministic_across_threads(self):
        args = dict(k=1, reps=8, stream=STREAM.derive(44))
        a = betti_scaling_experiment(
            pg.homogeneous_poisson(1.0), lambda n: 0.4, [16], threads=1, **args
        )
        b = betti_scaling_experiment(
            pg.homogeneous_poisson(1.0), lambda n: 0.4, [16], threads=4, **args
        )
        assert a == b


class TestSerialization:
    def test_scaling_csv(self):
        rows = betti_scaling_experiment(
            pg.binomial_process(2),
            lambda n: 0.5,
            [4],
            k=1,
            reps=4,
            stream=STREAM.derive(45),
        )
        text = betti_scaling_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "n,mean_betti,p_zero,std_error"
        assert lines[1] == "4,0,1,0"
