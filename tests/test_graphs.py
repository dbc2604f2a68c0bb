import math

import numpy as np
import pytest

import ppclust.dists as dists
import ppclust.graphs as gr
import ppclust.procgen as pg
from oracles import (
    brute_force_chromatic,
    brute_force_motif_count,
    count_connected_subsets,
    ordered_tuple_sum,
    scan_dsatur_colors,
    set_max_clique,
)
from ppclust.core import PointPattern, RandomStream, box, cube
from ppclust.graphs import (
    MOTIF_NAMES,
    GraphStats,
    Motif,
    graph_stats,
    induced_subgraph_count,
    named_motif,
    rgg,
    scaling_experiment,
    scaling_to_csv,
    u_statistic,
    u_statistic_pattern,
)
from ppclust.percolation import Graph, gilbert_graph

STREAM = RandomStream(404)


def collinear(n, spacing=1.0):
    w = box((-1.0, n * spacing + 1.0), (-1.0, 1.0), metric="euclidean")
    pts = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return PointPattern(w, pts)


def poisson_pattern(side, intensity, stream, metric="euclidean"):
    return pg.sample(pg.homogeneous_poisson(intensity), cube(side, 2, metric=metric), stream)


class TestMotifType:
    def test_named_motifs(self):
        assert set(MOTIF_NAMES) == {
            "edge", "path3", "triangle", "star3", "path4", "cycle4", "clique4",
        }
        assert named_motif("edge").k == 2
        assert named_motif("triangle").k == 3
        assert named_motif("star3").k == 4
        assert named_motif("clique4").adjacency.sum() == 12

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown motif"):
            named_motif("pentagon")

    def test_rejects_disconnected(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
        with pytest.raises(ValueError, match="connected"):
            Motif(4, adj)

    def test_rejects_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            Motif(6, np.zeros((6, 6), dtype=bool))

    def test_rejects_asymmetric(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Motif(2, adj)

    def test_rejects_self_loop(self):
        adj = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="diagonal"):
            Motif(2, adj)

    def test_canonical_form_is_isomorphism_invariant(self):
        # A path relabeled two ways still matches; a triangle does not.
        a = np.zeros((3, 3), dtype=bool)
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = True
        b = np.zeros((3, 3), dtype=bool)
        b[0, 2] = b[2, 0] = b[0, 1] = b[1, 0] = True
        assert Motif(3, a).canonical_form() == Motif(3, b).canonical_form()
        assert (
            Motif(3, a).canonical_form()
            != named_motif("triangle").canonical_form()
        )


class TestRgg:
    def test_collinear_path(self):
        g = rgg(collinear(4), 1.0)
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_edges_are_a_read_only_int64_array(self):
        for r, count in ((1.0, 3), (0.99, 0)):
            edges = rgg(collinear(4), r).edges
            assert edges.dtype == np.int64 and edges.shape == (count, 2)
            with pytest.raises(ValueError):
                edges[...] = 0

    def test_radius_below_min_spacing(self):
        assert rgg(collinear(4), 0.99).edges.tolist() == []

    def test_matches_gilbert_at_half_radius(self):
        pattern = poisson_pattern(8.0, 1.0, STREAM.derive(0))
        for r in (0.3, 0.8, 1.5):
            assert np.array_equal(rgg(pattern, r).edges, gilbert_graph(pattern, r / 2).edges)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            rgg(collinear(3), -1.0)


class TestInducedSubgraphCount:
    def test_triangle_has_three_edges(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert induced_subgraph_count(g, named_motif("edge")) == 3

    def test_path_contains_no_triangle(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert induced_subgraph_count(g, named_motif("triangle")) == 0

    def test_induced_not_partial(self):
        # A triangle induces no path3: the third edge disqualifies it.
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert induced_subgraph_count(g, named_motif("path3")) == 0

    def test_edge_motif_equals_edge_count(self):
        g = rgg(poisson_pattern(8.0, 1.0, STREAM.derive(1)), 0.9)
        assert induced_subgraph_count(g, named_motif("edge")) == len(g.edges)

    @pytest.mark.parametrize("name", ["path3", "triangle", "star3", "path4", "cycle4", "clique4"])
    def test_matches_brute_force(self, name):
        # Frozen by direct comparison with the all-subsets scan in
        # tests/oracles.py (brute_force_motif_count).
        pattern = poisson_pattern(6.0, 1.0, STREAM.derive(2))
        g = rgg(pattern, 1.1)
        motif = named_motif(name)
        expected = brute_force_motif_count(
            g.n_vertices, g.edges, motif.adjacency.astype(int).tolist()
        )
        assert induced_subgraph_count(g, motif) == expected

    def test_three_vertex_partition(self):
        # Every connected 3-subset is either a path or a triangle.
        g = rgg(poisson_pattern(7.0, 1.0, STREAM.derive(3)), 1.0)
        total = induced_subgraph_count(g, named_motif("path3")) + induced_subgraph_count(
            g, named_motif("triangle")
        )
        assert total == count_connected_subsets(g.n_vertices, g.edges, 3)

    def test_periodic_window_counts_wrapped_edges(self):
        w = cube(4.0, 2)
        pattern = PointPattern(w, np.array([[0.2, 2.0], [3.8, 2.0], [0.2, 2.5]]))
        g = rgg(pattern, 0.6)
        assert induced_subgraph_count(g, named_motif("path3")) == 1


class TestUStatistic:
    def test_count_functional(self):
        pattern = poisson_pattern(6.0, 1.0, STREAM.derive(5))
        n = pattern.points.shape[0]
        assert u_statistic(pattern, 1, lambda pts: 1.0) == pytest.approx(n)

    def test_ordered_pair_indicator_is_twice_edges(self):
        pattern = poisson_pattern(6.0, 1.0, STREAM.derive(6))
        g = rgg(pattern, 0.8)
        f = lambda pts: float(np.linalg.norm(pts[0] - pts[1]) <= 0.8)
        assert u_statistic(pattern, 2, f) == pytest.approx(2 * len(g.edges))

    def test_matches_ordered_tuple_oracle(self):
        # Frozen against the permutation sum in tests/oracles.py
        # (ordered_tuple_sum).
        pattern = poisson_pattern(4.0, 0.8, STREAM.derive(7))
        points = pattern.points[:12]
        small = PointPattern(pattern.window, points)
        f = lambda pts: float(np.exp(-np.sum(pts**2) / 8.0))
        expected = ordered_tuple_sum(points, 3, f)
        assert u_statistic(small, 3, f) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_values(self):
        pattern = collinear(3)
        with pytest.raises(ValueError, match="non-negative"):
            u_statistic(pattern, 2, lambda pts: -1.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            u_statistic(collinear(3), 5, lambda pts: 1.0)

    @pytest.mark.parametrize("estimator", [u_statistic, u_statistic_pattern])
    def test_subset_cap_raises_before_calling_f(self, estimator, monkeypatch):
        def never(pts):
            raise AssertionError("f called above the subset cap")

        # At the default cap, n = 400 and k = 4 would be 1.05e9 calls.
        with pytest.raises(ValueError, match="MAX_SUBSETS"):
            estimator(collinear(400), 4, never)
        # C(6, 3) = 20 fits a cap of 20 exactly; C(7, 3) = 35 does not.
        monkeypatch.setattr(gr, "MAX_SUBSETS", 20)
        estimator(collinear(6), 3, lambda pts: 1.0)
        with pytest.raises(ValueError, match=r"C\(7, 3\) subsets exceed MAX_SUBSETS \(20\)"):
            estimator(collinear(7), 3, never)


class TestUStatisticPattern:
    def test_collinear_distances(self):
        result = u_statistic_pattern(
            collinear(3), 2, lambda pts: float(np.linalg.norm(pts[0] - pts[1]))
        )
        assert result.points.ravel().tolist() == [1.0, 1.0, 2.0]
        assert result.window.dim == 1

    def test_too_few_points_gives_empty(self):
        result = u_statistic_pattern(
            collinear(2), 3, lambda pts: 1.0
        )
        assert result.points.shape[0] == 0

    def test_value_count_is_binomial(self):
        pattern = poisson_pattern(5.0, 0.8, STREAM.derive(8))
        n = pattern.points.shape[0]
        result = u_statistic_pattern(pattern, 2, lambda pts: 1.0)
        assert result.points.shape[0] == math.comb(n, 2)


class TestGraphStats:
    def test_triangle(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert graph_stats(g) == GraphStats(3, 2, 3, True)

    def test_empty_graph_on_five(self):
        g = Graph(5, ())
        assert graph_stats(g) == GraphStats(1, 0, 1, True)

    def test_five_cycle_needs_three_colors(self):
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
        assert graph_stats(g) == GraphStats(2, 2, 3, True)

    def test_matches_exhaustive_chromatic(self):
        # Frozen against the exhaustive coloring search in tests/oracles.py
        # (brute_force_chromatic) over random small graphs.
        rng = STREAM.derive(9).generator()
        for _ in range(25):
            n = int(rng.integers(3, 9))
            candidates = {
                (int(a), int(b))
                for a, b in rng.integers(0, n, size=(12, 2))
                if a < b
            }
            g = Graph(n, tuple(sorted(candidates)))
            stats = graph_stats(g)
            assert stats.chromatic_exact
            assert stats.chromatic_number == brute_force_chromatic(n, g.edges)
            assert (
                stats.clique_number
                <= stats.chromatic_number
                <= stats.max_degree + 1
            )

    def test_greedy_fallback_is_flagged_and_sandwiched(self):
        pattern = poisson_pattern(10.0, 1.2, STREAM.derive(10))
        g = rgg(pattern, 1.2)
        assert g.n_vertices > 60
        stats = graph_stats(g, exact_chromatic_limit=60)
        assert not stats.chromatic_exact
        assert stats.clique_number <= stats.chromatic_number <= stats.max_degree + 1

    def test_sandwich_violation_rejected(self):
        with pytest.raises(ValueError, match="clique"):
            GraphStats(3, 1, 2, True)


TIE_HEAVY_SPECS = [
    pg.homogeneous_poisson(1.5),
    pg.square_lattice(1.0, stationary=False),
    pg.hex_lattice(1.0, stationary=False),
    pg.square_lattice(1.0),
]
TIE_HEAVY_IDS = ["poisson", "square", "hex", "square_stationary"]


class TestDsatur:
    @pytest.mark.parametrize("spec", TIE_HEAVY_SPECS, ids=TIE_HEAVY_IDS)
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.3])
    def test_heap_order_matches_scan_oracle(self, spec, r):
        # Lattice graphs are full of saturation and degree ties, so the
        # colorings agree only if both break ties the same way.
        pattern = pg.sample(spec, cube(9.0, 2, metric="euclidean"), STREAM.derive(11))
        g = rgg(pattern, r)
        neighbors = gr._neighbor_sets(g.n_vertices, g.edges)
        colors = gr._dsatur_colors(neighbors, g.n_vertices)
        assert colors == scan_dsatur_colors(g.n_vertices, g.edges)
        assert gr._dsatur_greedy(neighbors, g.n_vertices) == max(colors) + 1

    def test_empty_graph(self):
        assert gr._dsatur_colors([], 0) == []
        assert gr._dsatur_greedy([], 0) == 0


def grotzsch_graph():
    """Triangle-free, 4-chromatic, 11 vertices: a 5-cycle, a copy vertex
    5 + i joined to the cycle neighbours of i, and a hub joined to the
    copies."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + s) % 5) for i in range(5) for s in (1, 4)]
    edges += [(5 + i, 10) for i in range(5)]
    return Graph(11, tuple(sorted((min(e), max(e)) for e in edges)))


class TestMaxClique:
    @pytest.mark.parametrize("spec", TIE_HEAVY_SPECS, ids=TIE_HEAVY_IDS)
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.3])
    def test_matches_set_based_oracle(self, spec, r):
        # Frozen against the set-based branch and bound in tests/oracles.py
        # (set_max_clique).
        pattern = pg.sample(spec, cube(9.0, 2, metric="euclidean"), STREAM.derive(11))
        g = rgg(pattern, r)
        neighbors = gr._neighbor_sets(g.n_vertices, g.edges)
        assert gr._max_clique(neighbors, g.n_vertices) == set_max_clique(
            g.n_vertices, g.edges
        )

    def test_matches_set_based_oracle_on_clustered_patterns(self):
        spec = pg.matern_cluster(0.3, 6.0, 0.8)
        for i in range(6):
            pattern = pg.sample(spec, cube(12.0, 2, metric="euclidean"), STREAM.derive(30 + i))
            g = rgg(pattern, 1.2)
            neighbors = gr._neighbor_sets(g.n_vertices, g.edges)
            assert gr._max_clique(neighbors, g.n_vertices) == set_max_clique(
                g.n_vertices, g.edges
            )

    def test_edge_cases(self):
        assert gr._max_clique([], 0) == 0
        assert graph_stats(Graph(4, ())).clique_number == 1
        complete = Graph(7, tuple((i, j) for i in range(7) for j in range(i + 1, 7)))
        assert graph_stats(complete) == GraphStats(7, 6, 7, True)

    def test_grotzsch_colour_bound_exceeds_clique(self):
        # The greedy colouring of any candidate set needs 3 or more colours,
        # but no triangle exists: the bound must not be taken as a clique.
        assert graph_stats(grotzsch_graph()) == GraphStats(2, 5, 4, True)

    def test_local_masks_are_local(self):
        # A mask stores no bit beyond its members list, so the search costs
        # memory in the neighbourhood size, not in n.
        pattern = poisson_pattern(14.0, 1.5, STREAM.derive(12))
        g = rgg(pattern, 1.5)
        n = g.n_vertices
        neighbors = gr._neighbor_sets(n, g.edges)
        for v in range(n):
            for members in (sorted(neighbors[v]), sorted(neighbors[v] | {v}, reverse=True)):
                masks = gr._local_masks(neighbors, members)
                assert len(masks) == len(members)
                for q, mask in enumerate(masks):
                    assert mask.bit_length() <= len(members)
                    assert [p for p in range(len(members)) if mask >> p & 1] == [
                        p for p, u in enumerate(members) if u in neighbors[members[q]]
                    ]


class TestScalingExperiment:
    def test_vanishing_regime_loses_all_edges(self):
        # With r_n = 1/n the expected pair count in the volume-n window
        # shrinks to zero, so the clique number drops below 2.
        rows = scaling_experiment(
            pg.homogeneous_poisson(1.0),
            lambda n: 1.0 / n,
            [16, 256],
            reps=30,
            stream=STREAM.derive(11),
        )
        assert rows[-1].prob_clique_below >= 0.9
        assert rows[-1].prob_clique_below >= rows[0].prob_clique_below - 0.2

    def test_huge_radius_gives_complete_graph(self):
        rows = scaling_experiment(
            pg.binomial_process(9),
            lambda n: 100.0,
            [9],
            reps=5,
            stream=STREAM.derive(12),
        )
        assert rows[0].mean_clique == pytest.approx(9.0)
        assert rows[0].mean_chromatic == pytest.approx(9.0)
        assert rows[0].mean_max_degree == pytest.approx(8.0)

    def test_sub_poisson_has_fewer_edges(self):
        jitter = pg.perturbed_lattice(
            1.0, dists.deterministic(1), pg.uniform_in_cell()
        )
        row_j = scaling_experiment(
            jitter, lambda n: 0.5, [64], reps=40, stream=STREAM.derive(13)
        )[0]
        row_p = scaling_experiment(
            pg.homogeneous_poisson(1.0),
            lambda n: 0.5,
            [64],
            reps=40,
            stream=STREAM.derive(14),
        )[0]
        assert row_j.mean_edges < row_p.mean_edges

    def test_radius_rule_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            scaling_experiment(
                pg.homogeneous_poisson(1.0),
                lambda n: 0.0,
                [16],
                reps=2,
                stream=STREAM.derive(15),
            )

    def test_deterministic_across_threads(self):
        args = (pg.homogeneous_poisson(1.0), lambda n: 0.4, [25])
        a = scaling_experiment(*args, reps=12, stream=STREAM.derive(16), threads=1)
        b = scaling_experiment(*args, reps=12, stream=STREAM.derive(16), threads=4)
        assert a == b


class TestSerialization:
    def test_scaling_csv(self):
        rows = scaling_experiment(
            pg.binomial_process(4),
            lambda n: 100.0,
            [4],
            reps=3,
            stream=STREAM.derive(17),
        )
        text = scaling_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == (
            "n,r,mean_clique,mean_max_degree,mean_chromatic,mean_edges,"
            "prob_clique_below"
        )
        assert lines[1] == "4,100,4,3,4,6,0"
        assert text.endswith("\n")
