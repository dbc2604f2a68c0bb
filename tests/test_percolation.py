import contextlib
import functools
import math
import signal
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import ppclust.core as core
import ppclust.dists as dists
import ppclust.percolation as percolation
import ppclust.procgen as pg
from ppclust.procgen import Sampler
import ppclust.shotnoise as sn
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from oracles import (
    bfs_component_sizes,
    bfs_site_crossing,
    bisected_crossing_threshold,
    bisection_critical_radius,
    brute_force_gilbert_edges,
    crossing_indicator,
    dense_interference,
    dense_sinr_graph,
    prefix_gilbert_labels,
    source_sink_rank,
)
from ppclust.complexes import vietoris_rips
from ppclust.core import PointPattern, RandomStream, box, cube
from ppclust.graphs import rgg
from ppclust.percolation import (
    Graph,
    PercolationSweep,
    SinrParams,
    _site_crossing,
    check_percolation_bounds,
    component_fraction_sweep,
    components,
    critical_radius,
    crossing_probability,
    crossing_to_csv,
    gilbert_graph,
    graph_to_csv,
    k_percolation_crossing,
    sinr_graph,
    sweep_to_csv,
)

STREAM = RandomStream(303)
FLOAT_MAX = float(np.finfo(float).max)


def euclid(side):
    return cube(side, 2, metric="euclidean")


def collinear_pattern():
    w = box((-1.0, 5.0), (-1.0, 1.0), metric="euclidean")
    return PointPattern(w, np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))


class TestGraphType:
    def test_valid(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert g.n_vertices == 3
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 1], [1, 2]]
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            Graph(3, ((2, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            Graph(3, ((0, 2), (1, 2), (0, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_degree_histogram(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert g.degree_histogram().tolist() == [1, 2, 1]

    @pytest.mark.parametrize("edges", [((0.5, 1),), ((0.0, 1.0),), ((True, 2),)])
    def test_rejects_non_integer_ids(self, edges):
        with pytest.raises(ValueError, match="integers"):
            Graph(3, edges)

    def test_constructor_copies_its_input(self):
        source = np.array([[0, 1]])
        g = Graph(3, source)
        source[0, 1] = 2
        assert g.edges.tolist() == [[0, 1]]

    @pytest.mark.parametrize("edges", [(), [], np.empty((0, 2), dtype=np.int64)])
    def test_empty_graph_has_shape_0_by_2(self, edges):
        g = Graph(3, edges)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        assert components(g) == [1, 1, 1]
        assert g.degree_histogram().tolist() == [0, 0, 0]

    def test_unsorted_input_keeps_its_order(self):
        g = Graph(3, ((1, 2), (0, 2), (0, 1)))
        assert graph_to_csv(g) == "i,j\n1,2\n0,2\n0,1\n"

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1, 2),))


class TestGilbertGraph:
    def test_three_collinear_points(self):
        # Distances 1, 2, 3; only the first pair is within 2r = 1.5.
        g = gilbert_graph(collinear_pattern(), 0.75)
        assert g.edges.tolist() == [[0, 1]]

    def test_zero_radius_gives_no_edges(self):
        g = gilbert_graph(collinear_pattern(), 0.0)
        assert g.edges.tolist() == []

    def test_zero_radius_joins_coincident_points(self):
        # Within distance 2r at every radius, r = 0 included: the graph,
        # the radius-grid prefix at r = 0, rgg and Vietoris-Rips agree.
        p = PointPattern(cube(10.0, 2), np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]))
        assert gilbert_graph(p, 0.0).edges.tolist() == [[0, 1]]
        assert components(gilbert_graph(p, 0.0)) == [2, 1]
        (labels,) = percolation._gilbert_labels(p, [0.0])
        assert sorted(np.bincount(labels).tolist(), reverse=True) == [2, 1]
        assert rgg(p, 0.0).edges.tolist() == [[0, 1]]
        assert vietoris_rips(p, 0.0, max_dim=1).faces[1] == ((0, 1),)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            gilbert_graph(collinear_pattern(), -0.1)

    def test_torus_radius_limit(self):
        pattern = pg.sample(pg.homogeneous_poisson(1.0), cube(4.0, 2), STREAM.derive(0))
        with pytest.raises(ValueError, match="below half the smallest window side"):
            gilbert_graph(pattern, 1.0)

    def test_periodic_wraparound_edge(self):
        w = cube(4.0, 2)
        pattern = PointPattern(w, np.array([[0.1, 2.0], [3.9, 2.0]]))
        assert gilbert_graph(pattern, 0.15).edges.tolist() == [[0, 1]]
        assert gilbert_graph(pattern, 0.09).edges.tolist() == []

    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    def test_matches_brute_force(self, metric):
        w = cube(8.0, 2, metric=metric)
        pattern = pg.sample(pg.homogeneous_poisson(0.8), w, STREAM.derive(1))
        assert pattern.points.shape[0] > 20
        for k, r in enumerate((0.2, 0.5, 0.9)):
            expected = brute_force_gilbert_edges(
                pattern.points.tolist(), w.lower.tolist(), w.upper.tolist(), metric, r
            )
            assert set(map(tuple, gilbert_graph(pattern, r).edges.tolist())) == expected

    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    def test_bucket_grid_matches_brute_force(self, metric):
        w = cube(9.0, 2, metric=metric)
        pattern = pg.sample(pg.homogeneous_poisson(1.0), w, STREAM.derive(2))
        for r in (0.15, 0.4, 0.8, 1.6):
            expected = brute_force_gilbert_edges(
                pattern.points.tolist(), w.lower.tolist(), w.upper.tolist(), metric, r
            )
            assert set(map(tuple, gilbert_graph(pattern, r).edges.tolist())) == expected

    def test_bucket_grid_three_dimensional(self):
        w = cube(6.0, 3)
        pattern = pg.sample(pg.homogeneous_poisson(0.6), w, STREAM.derive(3))
        expected = brute_force_gilbert_edges(
            pattern.points.tolist(), w.lower.tolist(), w.upper.tolist(), "periodic", 0.5
        )
        assert set(map(tuple, gilbert_graph(pattern, 0.5).edges.tolist())) == expected

    # (origin, a, b): b - a is exactly 2r in floating point.  In the last two
    # cases shifting by the origin rounds that pair apart, so a KD-tree query
    # at exactly 2r, or at 2r plus a relative slack when 2r is tiny, would
    # miss it.
    @pytest.mark.parametrize(
        "origin, a, b",
        [(0.0, 1.0, 1.5), (-1.3, -0.4, -0.2), (-1.3, -0.3, -0.299999999999)],
    )
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    def test_pair_at_exactly_2r_is_kept_and_one_ulp_beyond_dropped(self, metric, origin, a, b):
        w = cube(4.0, 2, origin=origin, metric=metric)
        r = (b - a) / 2
        points = np.array([[a, a], [b, a], [a, a + 2.0], [np.nextafter(b, np.inf), a + 2.0]])
        assert points[1, 0] - points[0, 0] == 2 * r
        assert points[3, 0] - points[2, 0] > 2 * r
        expected = brute_force_gilbert_edges(
            points.tolist(), w.lower.tolist(), w.upper.tolist(), metric, r
        )
        assert expected == {(0, 1)}
        assert gilbert_graph(PointPattern(w, points), r).edges.tolist() == [[0, 1]]

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_edges_are_a_read_only_int64_array(self, r):
        pattern = pg.sample(pg.homogeneous_poisson(1.0), cube(6.0, 2), STREAM.derive(8))
        edges = gilbert_graph(pattern, r).edges
        assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
        assert (edges.shape[0] > 0) == (r > 0)
        with pytest.raises(ValueError):
            edges[...] = 0

    def test_single_point(self):
        w = euclid(4.0)
        pattern = PointPattern(w, np.array([[1.0, 1.0]]))
        g = gilbert_graph(pattern, 1.0)
        assert g.n_vertices == 1 and g.edges.tolist() == []


class TestComponents:
    def test_collinear_example(self):
        assert components(gilbert_graph(collinear_pattern(), 0.75)) == [2, 1]

    def test_all_connected(self):
        assert components(gilbert_graph(collinear_pattern(), 2.0)) == [3]

    def test_all_isolated(self):
        assert components(gilbert_graph(collinear_pattern(), 0.1)) == [1, 1, 1]

    def test_sizes_sum_to_vertex_count(self):
        pattern = pg.sample(pg.homogeneous_poisson(1.0), cube(8.0, 2), STREAM.derive(4))
        sizes = components(gilbert_graph(pattern, 0.4))
        assert sum(sizes) == pattern.points.shape[0]
        assert sizes == sorted(sizes, reverse=True)

    def test_matches_bfs(self):
        pattern = pg.sample(pg.homogeneous_poisson(0.9), cube(8.0, 2), STREAM.derive(5))
        g = gilbert_graph(pattern, 0.45)
        assert components(g) == bfs_component_sizes(g.n_vertices, g.edges)

    def test_adding_edge_never_splits(self):
        pattern = pg.sample(pg.homogeneous_poisson(0.9), cube(8.0, 2), STREAM.derive(6))
        g = gilbert_graph(pattern, 0.45)
        base = len(components(g))
        edge_set = set(map(tuple, g.edges.tolist()))
        rng = STREAM.derive(7).generator()
        added = 0
        while added < 5:
            i, j = sorted(rng.integers(0, g.n_vertices, size=2).tolist())
            if i == j or (i, j) in edge_set:
                continue
            bigger = Graph(g.n_vertices, tuple(edge_set | {(i, j)}))
            assert len(components(bigger)) <= base
            added += 1

    def test_empty_graph(self):
        w = euclid(4.0)
        pattern = PointPattern(w, np.empty((0, 2)))
        assert components(gilbert_graph(pattern, 1.0)) == []


def assert_same_labels(pattern, radii):
    got = percolation._gilbert_labels(pattern, radii)
    expected = prefix_gilbert_labels(pattern, radii)
    assert len(got) == len(expected) == len(radii)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestGilbertLabelsAgainstPrefixes:
    # One spanning forest and one layered labelling against one labelling
    # per prefix of the length-sorted pairs: the same labels, not only the
    # same partitions.  Radii unsorted, with a repeat and 0.
    SPECS = {
        "poisson": pg.homogeneous_poisson(1.2),
        "thomas": pg.thomas_cluster(0.3, 4.0, 0.4),
        "geometric_lattice": pg.perturbed_lattice(
            0.93, dists.geometric(0.5), pg.uniform_in_cell()
        ),
    }
    SIDES = {1: 60.0, 2: 12.0, 3: 5.0}
    RADII = [0.55, 0.0, 0.3, 0.8, 0.55, 0.25]

    @pytest.mark.parametrize("metric", ["periodic", "euclidean"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_equals_one_labelling_per_prefix(self, name, d, metric):
        w = cube(self.SIDES[d], d, metric=metric)
        for i in range(3):
            pattern = pg.sample(self.SPECS[name], w, STREAM.derive(40).derive(i))
            assert_same_labels(pattern, self.RADII)
            assert_same_labels(pattern, [0.5])

    @pytest.mark.parametrize(
        "points",
        [
            # Three coincident points, a pair at exactly 2r = 0.5 and one a
            # few ulps inside 2r = 1.6.
            [[1.0, 1.0], [1.0, 1.0], [4.0, 4.0], [1.0, 1.0], [1.5, 1.0], [4.0, 5.6]],
            [[2.0, 3.0]],
            np.empty((0, 2)),
        ],
        ids=["coincident", "one_point", "empty"],
    )
    def test_degenerate_patterns(self, points):
        pattern = PointPattern(cube(8.0, 2), np.array(points, dtype=float))
        assert_same_labels(pattern, self.RADII)
        assert_same_labels(pattern, [0.0])

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 3),
        metric=st.sampled_from(["periodic", "euclidean"]),
        cells=st.lists(st.integers(0, 31), max_size=90),
        radii=st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5]), min_size=1,
                       max_size=6),
    )
    def test_random_quarter_grid_patterns(self, d, metric, cells, radii):
        # Coordinates on a 1/4 grid of an 8-cube, so that coincident points
        # and pairs at exactly 2r are common.
        points = np.resize(np.array(cells, dtype=float) / 4, (len(cells) // d, d))
        assert_same_labels(PointPattern(cube(8.0, d, metric=metric), points), radii)


class TestComponentFractionSweep:
    def test_zero_radius_fractions(self):
        spec = pg.binomial_process(25)
        sweep = component_fraction_sweep(
            spec, cube(10.0, 2), [0.0, 2.0], reps=10, stream=STREAM.derive(8)
        )
        assert sweep.largest_fraction[0].value == pytest.approx(1 / 25)
        assert sweep.second_fraction[0].value == pytest.approx(1 / 25)
        # 2r = 4 on a 10-torus with 25 points: everything coalesces.
        assert sweep.largest_fraction[1].value == pytest.approx(1.0)
        assert sweep.second_fraction[1].value == pytest.approx(0.0)

    def test_near_critical_fraction_is_intermediate(self):
        sweep = component_fraction_sweep(
            pg.homogeneous_poisson(1.154701),
            cube(30.0, 2),
            [0.5576495],
            reps=20,
            stream=STREAM.derive(9),
        )
        assert 0.2 < sweep.largest_fraction[0].value < 0.8

    def test_largest_fraction_monotone_in_radius(self):
        # Edges only accumulate with r, replication by replication, so the
        # averaged largest fraction is monotone as well.
        sweep = component_fraction_sweep(
            pg.homogeneous_poisson(1.0),
            cube(12.0, 2),
            [0.2, 0.4, 0.6, 0.9, 1.3],
            reps=15,
            stream=STREAM.derive(10),
        )
        values = [e.value for e in sweep.largest_fraction]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        for big, small in zip(sweep.largest_fraction, sweep.second_fraction):
            assert small.value <= big.value + 1e-12

    def test_single_replication_matches_bfs_oracle(self):
        # With one replication the sweep's means are that replication's own
        # fractions, so its prefix-of-sorted-edges components must reproduce,
        # radius by radius, a breadth-first count on the brute-force edge set.
        spec = pg.perturbed_lattice(
            0.93, dists.neg_binomial(1, 0.5), pg.uniform_in_cell()
        )
        w = cube(8.0, 2)
        radii = [0.1, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.8]
        stream = STREAM.derive(29)
        sweep = component_fraction_sweep(spec, w, radii, reps=1, stream=stream)
        pattern = pg.sample(spec, w, stream.derive(0))
        n = pattern.points.shape[0]
        assert n > 0
        for k, r in enumerate(radii):
            edges = brute_force_gilbert_edges(
                pattern.points, w.lower, w.upper, w.metric, r
            )
            sizes = bfs_component_sizes(n, edges) + [0]
            assert sweep.largest_fraction[k].value == sizes[0] / n
            assert sweep.second_fraction[k].value == sizes[1] / n

    def test_any_order_with_repeats_equals_the_sorted_call(self):
        # Each radius is read on its own, so an unsorted grid with a repeat
        # gives the sorted call's estimates in the caller's order, bit for bit.
        spec, w = pg.thomas_cluster(0.3, 4.0, 0.4), cube(10.0, 2)
        given = component_fraction_sweep(spec, w, [0.6, 0.2, 0.4, 0.2], 5, STREAM.derive(11))
        ordered = component_fraction_sweep(spec, w, [0.2, 0.4, 0.6], 5, STREAM.derive(11))
        where = [2, 0, 1, 0]
        assert given.radii == (0.6, 0.2, 0.4, 0.2)
        assert given.largest_fraction == tuple(ordered.largest_fraction[i] for i in where)
        assert given.second_fraction == tuple(ordered.second_fraction[i] for i in where)

    @pytest.mark.parametrize(
        "radii", [[0.1, math.nan], [math.nan], [math.nan, 0.1], [-0.1, 0.1], [0.1, math.inf]]
    )
    def test_rejects_nan_or_negative_radii_before_sampling(self, radii, monkeypatch):
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        message = "^radii must be non-negative$"
        with pytest.raises(ValueError, match=message):
            component_fraction_sweep(
                pg.homogeneous_poisson(1.0),
                cube(10.0, 2),
                radii,
                reps=5,
                stream=STREAM.derive(11),
            )

    def test_requires_stream(self):
        with pytest.raises(ValueError):
            component_fraction_sweep(
                pg.homogeneous_poisson(1.0), cube(10.0, 2), [0.5], reps=5
            )

    def test_deterministic_across_threads(self):
        kwargs = dict(reps=12, stream=STREAM.derive(12))
        a = component_fraction_sweep(
            pg.homogeneous_poisson(1.0), cube(10.0, 2), [0.3, 0.7], threads=1, **kwargs
        )
        b = component_fraction_sweep(
            pg.homogeneous_poisson(1.0), cube(10.0, 2), [0.3, 0.7], threads=4, **kwargs
        )
        assert a == b

    def test_sweep_type_validates_alignment(self):
        with pytest.raises(ValueError):
            PercolationSweep((0.1, 0.2), (None,), (None, None))


class TestCrossingProbability:
    def test_brackets_the_half_level(self):
        # Sub/super-critical radii around the percolation transition.
        spec = pg.homogeneous_poisson(1.154701)
        w = euclid(30.0)
        low, high = crossing_probability(
            spec, w, [0.45, 0.70], reps=40, stream=STREAM.derive(13)
        ).estimates
        assert low.value < 0.5 < high.value

    def test_monotone_under_common_random_numbers(self):
        spec = pg.homogeneous_poisson(1.2)
        w = euclid(15.0)
        shared = STREAM.derive(14)
        values = [
            crossing_probability(spec, w, [r], reps=25, stream=shared).estimates[0].value
            for r in (0.3, 0.5, 0.8)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_empty_pattern_never_crosses(self):
        curve = crossing_probability(
            pg.binomial_process(0), euclid(10.0), [1.0], reps=8, stream=STREAM.derive(15)
        )
        assert curve.values().tolist() == [0.0]

    def test_rejects_periodic_window(self):
        with pytest.raises(ValueError, match="Euclidean"):
            crossing_probability(
                pg.homogeneous_poisson(1.0), cube(10.0, 2), [0.5], reps=5,
                stream=STREAM.derive(16),
            )

    @pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_nan_radius_before_sampling(self, r, monkeypatch):
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        with pytest.raises(ValueError, match="^radii must be non-negative$"):
            crossing_probability(
                pg.homogeneous_poisson(1.0), euclid(10.0), [r], reps=5,
                stream=STREAM.derive(16),
            )


class TestCrossingCurve:
    # Every radius reads the same replications, so each estimate is the
    # one-radius call ([r]) on the same stream.  Radii unsorted, one repeated.
    SPECS = {
        "poisson": pg.homogeneous_poisson(1.2),
        "thomas": pg.thomas_cluster(0.3, 4.0, 0.4),
        "geometric_lattice": pg.perturbed_lattice(
            0.93, dists.geometric(0.5), pg.uniform_in_cell()
        ),
    }
    RADII = [0.55, 0.0, 0.3, 0.8, 0.55]

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_each_radius_equals_the_one_radius_call(self, name):
        spec, w, stream = self.SPECS[name], euclid(12.0), STREAM.derive(17)
        curve = crossing_probability(spec, w, self.RADII, 12, stream)
        assert curve.abscissa == tuple(self.RADII)
        assert curve.estimates == tuple(
            crossing_probability(spec, w, [r], 12, stream).estimates[0] for r in self.RADII
        )
        assert 0 < curve.estimates[0].value < 1

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_each_pattern_matches_a_query_per_radius(self, name):
        for i in range(6):
            pattern = pg.sample(self.SPECS[name], euclid(12.0), STREAM.derive(18).derive(i))
            expected = [crossing_indicator(pattern, r) for r in self.RADII]
            assert percolation._crossings([pattern], self.RADII)[0] == expected

    @pytest.mark.parametrize("origin", [0.0, 1022.9])
    @pytest.mark.parametrize("n", range(7))
    def test_ties_at_grid_radii_match_a_query_per_radius(self, n, origin):
        # Points on a 1/4 grid of a 4 x 4 box: slab edges and pair lengths
        # fall exactly on 2r.  The box at 1022.9 straddles 1024, where the
        # float spacing doubles: there they fall within a rounding of 2r, and
        # lower + 2r or upper - 2r would round where x - lower and upper - x
        # do not.  Radii unsorted, with a repeat and 0.
        w = box((origin, origin + 4.0), (origin, origin + 4.0), metric="euclidean")
        radii = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 0.5]
        rng = np.random.default_rng(n)
        for _ in range(40):
            pattern = PointPattern(w, origin + rng.integers(0, 16, size=(n, 2)) / 4)
            expected = [crossing_indicator(pattern, r) for r in radii]
            assert percolation._crossings([pattern], radii)[0] == expected, pattern.points

    def test_empty_pattern_never_crosses(self):
        pattern = PointPattern(euclid(4.0), np.empty((0, 2)))
        assert percolation._crossings([pattern], [1.0, 0.0])[0] == [False, False]

    def test_rejects_a_bad_radius_before_sampling(self, monkeypatch):
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        with pytest.raises(ValueError, match="^radii must be non-negative$"):
            crossing_probability(
                pg.homogeneous_poisson(1.0), euclid(10.0), [0.5, -1.0], 5, STREAM
            )


@st.composite
def ranked_graphs(draw):
    """(n, edges, ranks) on n points, a source node n and a sink node n + 1:
    any edges, ranks 1..4 so that ties are common; n = 0 and a sink with no
    edge occur."""
    n = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(n + 2) for j in range(i + 1, n + 2)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n + 4))
    ranks = draw(st.lists(st.integers(1, 4), min_size=len(chosen), max_size=len(chosen)))
    return n, np.array(chosen, dtype=np.int64).reshape(-1, 2), np.array(ranks, dtype=np.int64)


def crossing_graph(pattern, radii):
    """The graph that _crossings hands the crossing kernel for one pattern."""
    seen, kernel = [], percolation._source_sink_ranks
    with mock.patch.object(
        percolation, "_source_sink_ranks", lambda graphs: seen.extend(graphs) or kernel(graphs)
    ):
        percolation._crossings([pattern], radii)
    return seen[0]


@st.composite
def quarter_grid_graphs(draw):
    """The crossing graph of a pattern on the 1/4 grid of a 4 x 4 box (see
    test_ties_at_grid_radii_match_a_query_per_radius), empty ones included."""
    origin = draw(st.sampled_from([0.0, 1022.9]))
    w = box((origin, origin + 4.0), (origin, origin + 4.0), metric="euclidean")
    cells = draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=6))
    pattern = PointPattern(w, origin + np.array(cells, dtype=float).reshape(-1, 2) / 4)
    return crossing_graph(pattern, [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])


class TestSourceSinkRanks:
    # The stacked kernel answers each graph as the one-graph oracle does.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(ranked_graphs(), quarter_grid_graphs()), min_size=1, max_size=8))
    def test_each_graph_equals_the_one_graph_oracle(self, graphs):
        assert percolation._source_sink_ranks(graphs) == [source_sink_rank(*g) for g in graphs]

    def test_unreached_and_empty_graphs_give_inf(self):
        edges = np.array([[0, 1], [1, 2]])  # the sink, node 3, has no edge
        empty = (0, np.empty((0, 2), np.int64), np.empty(0, np.int64))
        graphs = [(2, edges, np.array([1, 2])), empty]
        graphs.append((1, np.array([[0, 1], [0, 2]]), np.array([3, 2])))
        assert percolation._source_sink_ranks(graphs) == [math.inf, math.inf, 3]

    def test_one_graph_is_not_copied(self):
        # The one-pattern call in the pool hands its arrays to the forest.
        n, edges, ranks = 3, np.array([[0, 3], [0, 1], [1, 2], [2, 4]]), np.array([1, 2, 3, 1])
        seen = []
        forest = percolation._spanning_forest

        def spy(total, e, w):
            seen.append((total, e, w))
            return forest(total, e, w)

        with mock.patch.object(percolation, "_spanning_forest", spy):
            assert percolation._source_sink_ranks([(n, edges, ranks)]) == [3]
        assert seen[0][0] == n + 2 and seen[0][1] is edges and seen[0][2] is ranks


# A clustered process whose pattern sizes range from 20 to 135 points on an
# 8 x 8 window: with _POOL_POINTS and core.FINISH_POINTS patched to 100, one
# call answers some patterns in their replications and groups the rest in
# the finish chunks, some alone and some two together.
GROUPED_SPEC = pg.thomas_cluster(0.05, 20.0, 1.0)
GROUPED_RADII = [0.3, 0.55, 0.8, 1.2, 0.55]


def _patterns(spec, w, stream, reps):
    sampler = pg.prepare(spec, w)
    return [sampler.draw(stream.derive(i)) for i in range(reps)]


class TestGroupedReplications:
    def _calls(self, monkeypatch, name):
        """Patch _POOL_POINTS and core.FINISH_POINTS to 100 and record the
        number of patterns in each call of the named batch function."""
        sizes, real = [], getattr(percolation, name)
        monkeypatch.setattr(percolation, "_POOL_POINTS", 100)
        monkeypatch.setattr(core, "FINISH_POINTS", 100)

        def counted(patterns, *args):
            sizes.append(len(patterns))
            return real(patterns, *args)

        monkeypatch.setattr(percolation, name, counted)
        return sizes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_crossings_match_the_indicator_per_pattern(self, monkeypatch, threads):
        w, stream = euclid(8.0), STREAM.derive(50)
        default = crossing_probability(GROUPED_SPEC, w, GROUPED_RADII, 24, stream, threads)
        sizes = self._calls(monkeypatch, "_crossings")
        sampler = pg.prepare(GROUPED_SPEC, w)
        stages = percolation._crossing_stages(
            sampler, lambda ps: percolation._crossings(ps, GROUPED_RADII)
        )
        got = core.replicate(24, stream, threads, *stages)
        patterns = _patterns(GROUPED_SPEC, w, stream, 24)
        assert got == [[crossing_indicator(p, r) for r in GROUPED_RADII] for p in patterns]
        assert sorted(set(sizes)) == [1, 2]
        assert sizes.count(1) > sum(len(p) >= 100 for p in patterns) > 0
        grouped = crossing_probability(GROUPED_SPEC, w, GROUPED_RADII, 24, stream, threads)
        assert grouped == default

    @pytest.mark.parametrize("threads", [1, 2])
    def test_thresholds_match_the_bisected_threshold_per_pattern(self, monkeypatch, threads):
        w, stream = euclid(8.0), STREAM.derive(51)
        default = critical_radius(GROUPED_SPEC, w, 24, 0.02, stream, threads)
        sizes = self._calls(monkeypatch, "_crossing_thresholds")
        r_max = float(np.linalg.norm(w.sides)) / 4.0
        for cap in (r_max, r_max / 6):
            sampler = pg.prepare(GROUPED_SPEC, w)
            stages = percolation._crossing_stages(
                sampler, lambda ps: percolation._crossing_thresholds(ps, cap)
            )
            got = core.replicate(24, stream.derive(0), threads, *stages)
            patterns = _patterns(GROUPED_SPEC, w, stream.derive(0), 24)
            assert got == [bisected_crossing_threshold(p, cap) for p in patterns]
        assert sorted(set(sizes)) == [1, 2]
        assert critical_radius(GROUPED_SPEC, w, 24, 0.02, stream, threads) == default

    def test_the_group_bound_is_apart_from_the_pool_switch(self, monkeypatch):
        # Every pattern below 100 points comes back from the pool, and one
        # group takes them all.
        w, stream = euclid(8.0), STREAM.derive(50)
        default = crossing_probability(GROUPED_SPEC, w, GROUPED_RADII, 24, stream, 2)
        sizes = self._calls(monkeypatch, "_crossings")
        monkeypatch.setattr(core, "FINISH_POINTS", 10**6)
        assert crossing_probability(GROUPED_SPEC, w, GROUPED_RADII, 24, stream, 2) == default
        small = sum(len(p) < 100 for p in _patterns(GROUPED_SPEC, w, stream, 24))
        assert sorted(sizes) == [1] * (24 - small) + [small]

    def test_memory_holds_small_patterns_only(self):
        # The crossing_poisson bench input at 1,000 replications holds every
        # pattern (about 460 points each) until the pool is done: a peak of
        # 8.2 MB measured with tracemalloc, against 0.5 MB when each
        # replication answered its own.  The bound of the design is
        # reps x _POOL_POINTS x d x 8 = 16.4 MB; the ceiling is 3x the peak.
        spec, w = pg.homogeneous_poisson(1.1547005383792515), euclid(20.0)
        tracemalloc.start()
        try:
            crossing_probability(spec, w, [0.5, 0.55, 0.6], 1000, RandomStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, peak

    def test_memory_does_not_grow_with_replications(self):
        # The calling thread holds one chunk of small patterns, not every
        # replication's.  At a radius of 1, the chunk's pairs outweigh the
        # replications' outcomes.
        spec, w = pg.homogeneous_poisson(1.1547005383792515), euclid(10.0)
        peaks = []
        for reps in (500, 4000):
            tracemalloc.start()
            try:
                crossing_probability(spec, w, [1.0], reps, RandomStream(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestCriticalRadius:
    def test_poisson_transition_location(self):
        # Horizontal crossing of the Gilbert graph for unit-diameter discs
        # at intensity 1.154701 switches on near r = 0.558 on a 30 x 30 box.
        est = critical_radius(
            pg.homogeneous_poisson(1.154701),
            euclid(30.0),
            reps=40,
            tol=0.02,
            stream=STREAM.derive(17),
        )
        assert est.value == pytest.approx(0.558, abs=0.05)
        assert 0 < est.std_error < 0.2

    def test_no_bracket_raises(self):
        with pytest.raises(ValueError, match="no bracket"):
            critical_radius(
                pg.binomial_process(0), euclid(10.0), reps=8, tol=0.1,
                stream=STREAM.derive(18),
            )

    def test_no_bracket_message_matches_resampling_bisection(self):
        args = (pg.binomial_process(0), euclid(10.0))
        kwargs = dict(reps=8, tol=0.1, stream=STREAM.derive(18))
        with pytest.raises(ValueError) as expected:
            bisection_critical_radius(*args, **kwargs)
        with pytest.raises(ValueError) as got:
            critical_radius(*args, **kwargs)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("crossing probability at r=3.53553 is only 0;")

    def test_rejects_periodic_window_before_sampling(self, monkeypatch):
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        with pytest.raises(ValueError, match="^critical_radius needs a Euclidean window$"):
            critical_radius(
                pg.homogeneous_poisson(1.0), cube(10.0, 2), reps=8, tol=0.1,
                stream=STREAM.derive(19),
            )

    @pytest.mark.parametrize("tol", [1e-18, 5e-324])
    def test_tol_below_the_float_spacing_ends_at_adjacent_floats(self, tol):
        # Once lo and hi are adjacent floats their midpoint is one of them;
        # the bisection ends there.  With 6 thresholds t, p(r) >= 1/2 from
        # the third smallest on, so hi is that threshold and lo its
        # predecessor.
        spec, w, stream = pg.homogeneous_poisson(1.2), euclid(10.0), RandomStream(1)
        with returns_within(20):
            est = critical_radius(spec, w, reps=6, tol=tol, stream=stream)
        sampler = pg.prepare(spec, w)
        patterns = [sampler.draw(stream.derive(0).derive(i)) for i in range(6)]
        r_max = float(np.linalg.norm(w.sides)) / 4.0
        t = sorted(percolation._crossing_thresholds(patterns, r_max))
        hi = t[2]
        lo = float(np.nextafter(hi, 0.0))
        hi_p, lo_p = (sum(x <= r for x in t) / 6 for r in (hi, lo))
        assert lo_p < 0.5 <= hi_p
        assert est.value == 0.5 * (lo + hi)
        assert est.std_error == 0.5 * (hi - lo) + math.sqrt(0.25 / 6) / ((hi_p - lo_p) / (hi - lo))

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            critical_radius(
                pg.homogeneous_poisson(1.0), euclid(10.0), reps=8, tol=0.0,
                stream=STREAM.derive(19),
            )


# Inputs of the threshold replay against the resampling bisection: Poisson
# at the reference intensity, the jittered unit lattice, the unjittered
# unit lattice (every neighbour distance tied), and a window whose lower
# corner is not the origin.
CRITICAL_CASES = {
    "poisson": (pg.homogeneous_poisson(2 / math.sqrt(3)), euclid(20.0)),
    "jittered_lattice": (
        pg.perturbed_lattice(1.0, dists.deterministic(1), pg.uniform_in_cell()),
        euclid(20.0),
    ),
    "unit_lattice": (pg.square_lattice(1.0), euclid(20.0)),
    "offset_window": (
        pg.homogeneous_poisson(2 / math.sqrt(3)),
        box((0.1, 20.1), (-3.3, 16.7), metric="euclidean"),
    ),
}


# More inputs of the bit-for-bit comparison with the bisected threshold:
# clustered points, one and three dimensions, and a window far from the
# origin, where a point's offsets from the faces are rounded.
ORACLE_CASES = {
    **CRITICAL_CASES,
    "thomas": (pg.thomas_cluster(0.3, 4.0, 0.4), euclid(20.0)),
    "poisson_1d": (pg.homogeneous_poisson(2 / math.sqrt(3)), cube(60.0, 1, metric="euclidean")),
    "poisson_3d": (pg.homogeneous_poisson(2 / math.sqrt(3)), cube(6.0, 3, metric="euclidean")),
    "far_window": (
        pg.homogeneous_poisson(2 / math.sqrt(3)),
        box((1000.1, 1020.1), (1000.1, 1020.1), metric="euclidean"),
    ),
}


@contextlib.contextmanager
def returns_within(seconds):
    """Fail, rather than hang, if the block runs longer than seconds."""

    def stop(signum, frame):
        raise AssertionError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled a pattern")


def _assert_threshold_is_exact(pattern):
    r_max = float(np.linalg.norm(pattern.window.sides)) / 4.0
    t = percolation._crossing_thresholds([pattern], r_max)[0]
    radii = list(np.linspace(0.0, r_max, 61))
    if math.isfinite(t):
        assert 0 < t <= r_max
        radii += [t, float(np.nextafter(t, 0.0))]
    for r in radii:
        assert crossing_indicator(pattern, float(r)) == (r >= t), (r, t)
    return t


class TestCrossingThreshold:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", sorted(CRITICAL_CASES))
    def test_critical_radius_matches_resampling_bisection(self, case, threads):
        spec, w = CRITICAL_CASES[case]
        kwargs = dict(reps=12, tol=0.02, stream=STREAM.derive(40), threads=threads)
        expected = bisection_critical_radius(spec, w, **kwargs)
        got = critical_radius(spec, w, **kwargs)
        assert got.value == expected.value
        assert got.std_error == expected.std_error
        assert got.replications == expected.replications

    @pytest.mark.parametrize("case", sorted(CRITICAL_CASES))
    def test_threshold_is_where_the_indicator_turns_on(self, case):
        spec, w = CRITICAL_CASES[case]
        stream = STREAM.derive(41)
        for i in range(2):
            _assert_threshold_is_exact(pg.sample(spec, w, stream.derive(i)))

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_threshold_equals_the_bisected_threshold(self, case):
        # At r_max / 6 some one- and three-dimensional patterns never cross.
        spec, w = ORACLE_CASES[case]
        r_max = float(np.linalg.norm(w.sides)) / 4.0
        got = []
        for i in range(4):
            pattern = pg.sample(spec, w, STREAM.derive(42).derive(i))
            for cap in (r_max, r_max / 6):
                t = percolation._crossing_thresholds([pattern], cap)[0]
                assert t == bisected_crossing_threshold(pattern, cap), (i, cap)
                got.append(t)
        assert (math.inf in got) == (case in ("poisson_1d", "poisson_3d"))

    def test_empty_pattern_never_crosses(self):
        pattern = PointPattern(euclid(10.0), np.empty((0, 2)))
        assert _assert_threshold_is_exact(pattern) == math.inf

    def test_single_point_crosses_once_in_both_slabs(self):
        pattern = PointPattern(euclid(10.0), np.array([[3.0, 5.0]]))
        assert _assert_threshold_is_exact(pattern) == 3.5

    def test_coincident_points(self):
        w = euclid(4.0)
        points = np.array([[0.5, 1.0], [0.5, 1.0], [2.0, 1.0], [2.0, 1.0], [3.5, 1.0]])
        assert _assert_threshold_is_exact(PointPattern(w, points)) == 0.75

    def test_threshold_at_a_left_slab_entry(self):
        # The chain joins and reaches the right slab at r = 0.4; it enters
        # the left slab at r = 0.6.
        w = box((0.0, 4.0), (0.0, 1.0), metric="euclidean")
        points = np.array([[1.2, 0.5], [2.0, 0.5], [2.8, 0.5], [3.6, 0.5]])
        assert _assert_threshold_is_exact(PointPattern(w, points)) == 0.6

    def test_threshold_at_a_right_slab_entry(self):
        # The chain enters the left slab at r = 0.2 and joins at r = 0.4; it
        # reaches the right slab when upper - x = 4.0 - 2.8 <= 2r.  In floats
        # that offset is 1.2000000000000002, so the threshold is one ulp
        # above 0.6.
        w = box((0.0, 4.0), (0.0, 1.0), metric="euclidean")
        points = np.array([[0.4, 0.5], [1.2, 0.5], [2.0, 0.5], [2.8, 0.5]])
        assert _assert_threshold_is_exact(PointPattern(w, points)) == (4.0 - 2.8) / 2

    def test_sparse_crossing_grows_the_query_radius(self, monkeypatch):
        # A tight cluster sets a small start rho: the Poisson start is about
        # 0.70 and half the largest gap along x 0.75.  The zigzag chain
        # (steps of 1.5 along x and 2 along y) joins only at 1.25 > sqrt(2)
        # rho: three pair queries.
        w = euclid(10.0)
        cluster = 0.01 * np.stack(np.meshgrid(np.arange(10), np.arange(10)), -1).reshape(-1, 2)
        chain = np.array([[1.5 * k, 1.0 + 2.0 * (k % 2)] for k in range(7)])
        pattern = PointPattern(w, np.concatenate([cluster + [5.0, 9.0], chain]))
        queries = []

        def counted(*args):
            queries.append(args[2])
            return core.neighbor_pairs(*args)

        monkeypatch.setattr(percolation, "_candidate_pairs", counted)
        assert percolation._crossing_thresholds([pattern], 2.5)[0] == 1.25
        assert len(queries) == 3
        monkeypatch.undo()
        assert _assert_threshold_is_exact(pattern) == 1.25

    def test_coincident_points_on_the_slab_faces(self):
        # Two coincident points on the left face: their slab entries and
        # their join are events at r = 0, which must stay edges of the tree.
        # They reach the right slab at r = 1.
        w = box((0.0, 2.0), (0.0, 4.0), metric="euclidean")
        points = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert _assert_threshold_is_exact(PointPattern(w, points)) == 1.0

    def test_point_on_the_lower_face(self):
        w = box((0.1, 4.1), (-3.3, 0.7), metric="euclidean")
        points = np.array([[0.1, 0.0], [1.1, 0.0], [2.1, 0.0], [3.9, 0.0]])
        _assert_threshold_is_exact(PointPattern(w, points))

    def test_no_crossing_at_r_max_gives_inf(self):
        w = box((0.0, 40.0), (0.0, 1.0), metric="euclidean")
        points = np.array([[1.0, 0.5], [39.0, 0.5]])
        assert _assert_threshold_is_exact(PointPattern(w, points)) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        lower=st.floats(-1e6, 1e6),
        side=st.floats(1e-3, 1e3),
        near=st.lists(
            st.tuples(st.booleans(), st.integers(0, 2**40)), min_size=1, max_size=12
        ),
        spread=st.lists(st.floats(0.0, 1.0), max_size=12),
        extreme=st.lists(
            st.one_of(
                st.sampled_from([0.0, 5e-324, 2.0**-1022, np.nextafter(2.0**-1021, 0.0)]),
                st.integers(0, 2**53).map(lambda k: k * 5e-324),
                st.floats(FLOAT_MAX / 4, FLOAT_MAX),
            ),
            max_size=8,
        ),
    )
    def test_event_is_the_least_float_where_the_rule_holds(
        self, lower, side, near, spread, extreme
    ):
        # Offsets x - lower and upper - x of points near the faces (k ulps in)
        # and inside windows far from the origin; then 0, subnormals and the
        # smallest normals, where halving rounds, and values near the float
        # maximum, where doubling the event must not overflow.
        upper = lower + side
        x = [(upper - k * np.spacing(upper)) if top else (lower + k * np.spacing(lower))
             for top, k in near]
        x = np.clip(x + [lower + f * side for f in spread], lower, upper)
        v = np.concatenate([x - lower, upper - x, extreme])
        e = percolation._event_radii(v)
        assert np.all(v <= 2 * e)
        assert not np.any(v <= 2 * np.nextafter(e, -np.inf))


# Crossing-threshold schedules (_START, _GROWTH, _CRITICAL_DEGREE,
# _REGULAR): the (lam kappa_d)^(-1/d) start doubling in every dimension, that
# start for every pattern as if it were regular, a start far below the
# threshold with slow growth, and a start far above it.
SCHEDULES = {
    "bound_doubling": dict(_CRITICAL_DEGREE={}, _GROWTH=2.0),
    "all_regular": dict(_REGULAR=math.inf),
    "undershoot": dict(_START=0.25, _GROWTH=1.1),
    "overshoot": dict(_START=4.0, _GROWTH=2.0),
}


@functools.lru_cache(maxsize=None)
def _oracle_thresholds(case, reps):
    """Per replication of STREAM.derive(43), the bisected threshold of the
    case's pattern at caps r_max and r_max / 6."""
    spec, w = ORACLE_CASES[case]
    r_max = float(np.linalg.norm(w.sides)) / 4.0
    patterns = _patterns(spec, w, STREAM.derive(43), reps)
    return {cap: [bisected_crossing_threshold(p, cap) for p in patterns]
            for cap in (r_max, r_max / 6)}


class TestThresholdSchedule:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("side", ["grouped", "pool"])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_thresholds_do_not_depend_on_the_schedule(
        self, monkeypatch, schedule, side, threads
    ):
        # Every round that crosses gives the exact threshold, so any start and
        # growth give the bisected threshold, whether a pattern is answered
        # in its replication (_POOL_POINTS 100) or in a group.
        for attr, value in SCHEDULES[schedule].items():
            monkeypatch.setattr(percolation, attr, value)
        if side == "pool":
            monkeypatch.setattr(percolation, "_POOL_POINTS", 100)
        for case in sorted(ORACLE_CASES):
            spec, w = ORACLE_CASES[case]
            for cap, expected in _oracle_thresholds(case, 4).items():
                stages = percolation._crossing_stages(
                    pg.prepare(spec, w), lambda ps: percolation._crossing_thresholds(ps, cap)
                )
                got = core.replicate(4, STREAM.derive(43), threads, *stages)
                assert got == expected, (case, cap)

    def test_a_long_thin_window_keeps_its_grid_of_cells_in_int64(self):
        # About 50 points in 1e20 x 1e-17: the rounded dispersion grid once
        # had about 1.1e19 cells along the long side, and the cast overflowed.
        spec = pg.homogeneous_poisson(50 / (1e20 * 1e-17))
        w, stream = box((0, 1e20), (0, 1e-17), metric="euclidean"), RandomStream(1)
        r_max = float(np.linalg.norm(w.sides)) / 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stages = percolation._crossing_stages(
                pg.prepare(spec, w), lambda ps: percolation._crossing_thresholds(ps, r_max)
            )
            got = core.replicate(4, stream.derive(0), 1, *stages)
            critical_radius(spec, w, 4, 2e18, stream)
        patterns = _patterns(spec, w, stream.derive(0), 4)
        assert got == [bisected_crossing_threshold(p, r_max) for p in patterns]

    def test_most_patterns_take_one_pair_query(self, monkeypatch):
        # The critical_poisson input (16 replications at seeds 1-5) made 1.78
        # pair queries a pattern when every query started at the Poisson
        # bound (lam kappa_2)^(-1/2), about 0.525, below r_c of about 0.558.
        spec = pg.homogeneous_poisson(1.1547005383792515)
        queries = []

        def counted(*args):
            queries.append(args[2])
            return core.neighbor_pairs(*args)

        monkeypatch.setattr(percolation, "_candidate_pairs", counted)
        for seed in range(1, 6):
            critical_radius(spec, euclid(20.0), 16, 0.02, RandomStream(seed))
        assert len(queries) <= 1.2 * 5 * 16, len(queries)

    def test_one_dimension_takes_one_pair_query(self, monkeypatch):
        # Half the largest gap along the axis is the threshold in one
        # dimension (about 2.7 here); (lam kappa_1)^(-1) doubling took 4.17
        # queries a pattern.
        w = cube(400.0, 1, metric="euclidean")
        patterns = _patterns(pg.homogeneous_poisson(1.1547005383792515), w, STREAM.derive(44), 8)
        queries = []

        def counted(*args):
            queries.append(args[2])
            return core.neighbor_pairs(*args)

        monkeypatch.setattr(percolation, "_candidate_pairs", counted)
        got = percolation._crossing_thresholds(patterns, 100.0)
        assert len(queries) == len(patterns)
        assert got == [bisected_crossing_threshold(p, 100.0) for p in patterns]

    @pytest.mark.parametrize(
        "case, regular",
        [("jittered_lattice", True), ("unit_lattice", True), ("poisson", False), ("thomas", False)],
    )
    def test_regular_patterns_keep_the_bound_start(self, monkeypatch, case, regular):
        # A lattice crosses below the Poisson start: it starts at
        # (lam kappa_2)^(-1/2), a Poisson or Thomas pattern above it.
        spec, w = ORACLE_CASES[case]
        pattern = _patterns(spec, w, STREAM.derive(45), 1)[0]
        queries = []

        def counted(*args):
            queries.append(args[2])
            return core.neighbor_pairs(*args)

        monkeypatch.setattr(percolation, "_candidate_pairs", counted)
        percolation._crossing_thresholds([pattern], 100.0)
        bound = (pattern.points.shape[0] / 400.0 * math.pi) ** -0.5
        assert (percolation._dispersion(pattern) < percolation._REGULAR) == regular
        assert (queries[0] / 2 == pytest.approx(bound)) == regular


class TestPercolationBounds:
    # The lower end is the radius of mean degree lam kappa_d (2r)^d = 1.
    def test_unit_intensity_bracket(self):
        bounds = check_percolation_bounds(0.6, 1.0, 2)
        assert bounds.lower == pytest.approx(0.5 / math.sqrt(math.pi))
        assert bounds.upper == pytest.approx(math.sqrt(2.0) * math.sqrt(math.log(7.0)))
        assert bounds.verdict == "in"

    def test_verdicts(self):
        assert check_percolation_bounds(0.25, 1.0, 2).verdict == "below"
        assert check_percolation_bounds(2.5, 1.0, 2).verdict == "above"

    def test_three_dimensional_bracket(self):
        bounds = check_percolation_bounds(0.5, 1.0, 3)
        kappa3 = 4.0 * math.pi / 3.0
        assert bounds.lower == pytest.approx(0.5 * kappa3 ** (-1.0 / 3.0))
        assert bounds.upper == pytest.approx(
            math.sqrt(3.0) * math.log(25.0) ** (1.0 / 3.0)
        )

    def test_three_dimensional_poisson_estimate_lies_in_the_bracket(self):
        # r_c is about 0.434 at unit intensity in space, below the old lower
        # end kappa_3^(-1/3) = 0.620.
        w = cube(10.0, 3, metric="euclidean")
        est = critical_radius(pg.homogeneous_poisson(1.0), w, 16, 0.02, STREAM.derive(60))
        assert est.value == pytest.approx(0.434, abs=0.05)
        assert check_percolation_bounds(est.value, 1.0, 3).verdict == "in"

    def test_intensity_must_be_positive(self):
        with pytest.raises(ValueError):
            check_percolation_bounds(0.5, 0.0, 2)

    @pytest.mark.parametrize(
        "r_hat, lam, d, message",
        [
            # A NaN estimate once got verdict "in": both comparisons are False.
            (math.nan, 1.0, 2, "estimated radius must be positive"),
            (math.inf, 1.0, 2, "estimated radius must be positive"),
            (0.0, 1.0, 2, "estimated radius must be positive"),
            # An infinite intensity once gave the bracket [0, 0].
            (0.5, math.inf, 2, "intensity must be positive"),
            (0.5, math.nan, 2, "intensity must be positive"),
            (0.5, 1.0, 0, "dimension must be >= 2"),
            (0.5, 1.0, 2.0, "dimension must be >= 2"),
            # d = 1 once gave the inverted bracket [0.5, 0]: log(3 - 2) = 0.
            (0.5, 1.0, 1, "dimension must be >= 2"),
        ],
    )
    def test_rejects_non_finite_or_out_of_range_arguments(self, r_hat, lam, d, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_percolation_bounds(r_hat, lam, d)


class TestKPercolationCrossing:
    def test_large_radius_always_crosses(self):
        curve = k_percolation_crossing(
            pg.homogeneous_poisson(1.0), cube(8.0, 2), [1.9], k=1, grid_n=24,
            reps=10, stream=STREAM.derive(20),
        )
        assert curve.values().tolist() == [1.0]

    def test_unreachable_coverage_level_never_crosses(self):
        curve = k_percolation_crossing(
            pg.homogeneous_poisson(1.0), cube(8.0, 2), [0.3], k=50, grid_n=24,
            reps=10, stream=STREAM.derive(21),
        )
        assert curve.values().tolist() == [0.0]

    def test_monotone_in_radius_with_shared_seeds(self):
        shared = STREAM.derive(22)
        values = [
            k_percolation_crossing(
                pg.homogeneous_poisson(1.2), cube(10.0, 2), [r], k=2, grid_n=32,
                reps=12, stream=shared,
            ).estimates[0].value
            for r in (0.4, 0.8, 1.6)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_each_radius_equals_the_one_radius_call(self):
        # Every radius reads the same replications and one coverage query at
        # the largest.  Radii unsorted, one repeated.
        spec, w, stream = pg.homogeneous_poisson(1.2), cube(10.0, 2), STREAM.derive(22)
        radii = [0.8, 0.4, 1.6, 0.8]
        curve = k_percolation_crossing(spec, w, radii, k=2, grid_n=32, reps=12, stream=stream)
        assert curve.abscissa == tuple(radii)
        assert curve.estimates == tuple(
            k_percolation_crossing(spec, w, [r], k=2, grid_n=32, reps=12, stream=stream)
            .estimates[0]
            for r in radii
        )

    def test_k_validation(self):
        with pytest.raises(ValueError):
            k_percolation_crossing(
                pg.homogeneous_poisson(1.0), cube(8.0, 2), [0.5], k=0,
                reps=5, stream=STREAM.derive(23),
            )

    @pytest.mark.parametrize("grid_n", [2.5, 24.0])
    def test_rejects_non_integer_grid_count_before_sampling(self, grid_n, monkeypatch):
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        with pytest.raises(ValueError, match="^grid_n must be >= 1$"):
            k_percolation_crossing(
                pg.homogeneous_poisson(1.0), cube(8.0, 2), [0.5], grid_n=grid_n,
                reps=5, stream=STREAM.derive(23),
            )


    def test_rejects_torus_wide_radius_before_sampling(self, monkeypatch):
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        with pytest.raises(ValueError, match="below half the smallest window side"):
            k_percolation_crossing(
                pg.homogeneous_poisson(1.0), cube(8.0, 2), [0.5, 5.0], reps=5,
                stream=STREAM.derive(23),
            )


class TestSiteCrossing:
    @pytest.mark.parametrize("d, side", [(1, 12), (2, 9), (3, 5)])
    def test_matches_bfs_on_random_grids(self, d, side):
        rng = STREAM.derive(40 + d).generator()
        for density in (0.2, 0.4, 0.5, 0.6, 0.8):
            for _ in range(40):
                open_cells = rng.random((side,) * d) < density
                assert _site_crossing(open_cells) == bfs_site_crossing(open_cells)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_closed_and_all_open(self, d):
        shape = (4,) * d
        assert not _site_crossing(np.zeros(shape, dtype=bool))
        assert _site_crossing(np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("shape", [(1,), (1, 6), (1, 4, 3)])
    def test_one_cell_thick_along_axis_0(self, shape):
        open_cells = np.zeros(shape, dtype=bool)
        assert not _site_crossing(open_cells) and not bfs_site_crossing(open_cells)
        open_cells.flat[-1] = True
        assert _site_crossing(open_cells) and bfs_site_crossing(open_cells)

    def test_crosses_through_diagonal_neighbours_only(self):
        open_cells = np.eye(5, dtype=bool)
        assert _site_crossing(open_cells) and bfs_site_crossing(open_cells)
        cube_diagonal = np.zeros((3, 3, 3), dtype=bool)
        cube_diagonal[[0, 1, 2], [0, 1, 2], [0, 1, 2]] = True
        assert _site_crossing(cube_diagonal) and bfs_site_crossing(cube_diagonal)

    def test_touching_both_faces_needs_one_cluster(self):
        open_cells = np.zeros((5, 5), dtype=bool)
        open_cells[:2, 0] = True  # touches the first slab
        open_cells[3:, 4] = True  # touches the last slab, another cluster
        assert not _site_crossing(open_cells) and not bfs_site_crossing(open_cells)


def exponential_params(gamma=0.0, threshold=1.0, noise=0.1):
    return SinrParams(
        power=1.0,
        noise=noise,
        threshold=threshold,
        gamma=gamma,
        attenuation=sn.exponential_response(1.0),
    )


class TestSinrParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_params(noise=-0.1)
        with pytest.raises(ValueError):
            exponential_params(threshold=0.0)
        with pytest.raises(ValueError):
            exponential_params(gamma=-1.0)
        with pytest.raises(ValueError):
            SinrParams(0.0, 0.1, 1.0, 0.0, sn.exponential_response(1.0))

    def test_rejects_amplifying_attenuation(self):
        table = sn.tabulated_response([0.0, 1.0, 2.0], [3.0, 1.0, 0.1])
        with pytest.raises(ValueError, match="exceed 1"):
            SinrParams(1.0, 0.1, 1.0, 0.0, table)

    def test_rejects_unreachable_threshold(self):
        # l(0) = 1 < T N / P = 2: even coincident points cannot connect.
        with pytest.raises(ValueError, match="T\\*N/P"):
            SinrParams(1.0, 2.0, 1.0, 0.0, sn.exponential_response(1.0))

    def test_gilbert_radius_closed_form(self):
        # l(x) = e^-x: the range where l = T N / P = 0.1 is ln 10.
        assert exponential_params().gilbert_radius() * 2 == pytest.approx(
            math.log(10.0), rel=1e-12
        )

    def test_gilbert_radius_needs_noise(self):
        with pytest.raises(ValueError):
            exponential_params(noise=0.0).gilbert_radius()


class TestSinrGraph:
    def test_two_points_connect_iff_within_log_ten(self):
        w = euclid(6.0)
        params = exponential_params()
        d_crit = math.log(10.0)
        near = PointPattern(w, np.array([[0.5, 0.5], [0.5 + d_crit - 1e-9, 0.5]]))
        far = PointPattern(w, np.array([[0.5, 0.5], [0.5 + d_crit + 1e-9, 0.5]]))
        assert sinr_graph(near, near, params).edges.tolist() == [[0, 1]]
        assert sinr_graph(far, far, params).edges.tolist() == []

    def test_zero_gamma_matches_gilbert_graph(self):
        params = exponential_params()
        r = params.gilbert_radius()
        for i in range(10):
            pattern = pg.sample(
                pg.homogeneous_poisson(0.7), euclid(9.0), STREAM.derive(24).derive(i)
            )
            assert np.array_equal(
                sinr_graph(pattern, pattern, params).edges, gilbert_graph(pattern, r).edges
            )

    def test_edges_shrink_with_gamma(self):
        pattern = pg.sample(pg.homogeneous_poisson(0.8), euclid(8.0), STREAM.derive(25))
        previous = None
        for gamma in (0.0, 0.02, 0.1, 0.5, 5.0):
            g = sinr_graph(pattern, pattern, exponential_params(gamma))
            edges = set(map(tuple, g.edges.tolist()))
            if previous is not None:
                assert edges <= previous
            previous = edges
        assert previous == set()  # strong interference kills every link

    def test_edges_shrink_with_threshold(self):
        pattern = pg.sample(pg.homogeneous_poisson(0.8), euclid(8.0), STREAM.derive(26))
        previous = None
        for threshold in (0.5, 1.0, 2.0, 4.0):
            g = sinr_graph(pattern, pattern, exponential_params(0.01, threshold))
            edges = set(map(tuple, g.edges.tolist()))
            if previous is not None:
                assert edges <= previous
            previous = edges

    def test_receiver_does_not_hear_itself(self):
        # With the self-term removed the pair connects at gamma = 0.5;
        # counting the receiver's own l(0) = 1 would push SINR below 1.
        w = euclid(6.0)
        pattern = PointPattern(w, np.array([[1.0, 1.0], [1.5, 1.0]]))
        g = sinr_graph(pattern, pattern, exponential_params(gamma=0.5))
        assert g.edges.tolist() == [[0, 1]]

    def test_separate_interferer_pattern(self):
        w = euclid(6.0)
        pair = PointPattern(w, np.array([[1.0, 1.0], [1.5, 1.0]]))
        jammer = PointPattern(w, np.array([[1.6, 1.0]]))
        quiet = sinr_graph(pair, PointPattern(w, np.empty((0, 2))), exponential_params(2.0))
        jammed = sinr_graph(pair, jammer, exponential_params(2.0))
        assert quiet.edges.tolist() == [[0, 1]]
        assert jammed.edges.tolist() == []

    def test_window_mismatch_rejected(self):
        a = PointPattern(euclid(6.0), np.array([[1.0, 1.0]]))
        b = PointPattern(euclid(7.0), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match="same window"):
            sinr_graph(a, b, exponential_params())

    def test_non_integrable_attenuation_rejected(self):
        # Power-law decay with exponent <= dimension has infinite expected
        # interference; the graph build refuses it.
        params = SinrParams(1.0, 0.1, 1.0, 0.5, sn.power_law_response(2.0, 1.0))
        pattern = pg.sample(pg.homogeneous_poisson(0.5), euclid(6.0), STREAM.derive(27))
        with pytest.raises(ValueError):
            sinr_graph(pattern, pattern, params)

    def test_edges_are_a_read_only_int64_array(self):
        pattern = pg.sample(pg.homogeneous_poisson(0.8), euclid(8.0), STREAM.derive(29))
        edges = sinr_graph(pattern, pattern, exponential_params()).edges
        assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
        assert edges.shape[0] > 0
        with pytest.raises(ValueError):
            edges[...] = 0

    def test_empty_and_single_point_graphs_have_shape_0_by_2(self):
        # Fewer than two receivers take the general path, interference
        # included; zero noise with an unbounded attenuation is the dense one.
        w = euclid(6.0)
        jammers = PointPattern(w, np.array([[1.0, 1.0], [3.0, 2.0]]))
        dense = SinrParams(1.0, 0.0, 1.0, 0.5, sn.power_law_response(3.0, 1.0))
        for points in (np.empty((0, 2)), np.array([[1.0, 1.0]])):
            pattern = PointPattern(w, points)
            for params in (exponential_params(), exponential_params(0.5), dense):
                for interferers in (pattern, jammers):
                    g = sinr_graph(pattern, interferers, params)
                    assert g.n_vertices == len(points)
                    assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64

    def test_periodic_window_uses_wrapped_distances(self):
        w = cube(6.0, 2)
        pattern = PointPattern(w, np.array([[0.2, 3.0], [5.8, 3.0]]))
        g = sinr_graph(pattern, pattern, exponential_params())
        assert g.edges.tolist() == [[0, 1]]  # wrapped distance 0.4, direct 5.6


ATTENUATIONS = {
    "exponential": sn.exponential_response(1.0),
    "power_law": sn.power_law_response(3.0, 1.0),
    "indicator_ball": sn.indicator_ball(1.2),
    "tabulated": sn.tabulated_response([0.0, 0.5, 1.5], [1.0, 0.4, 0.15]),
}


def sinr_edges_and_oracle(pattern_b, pattern_i, params):
    """sinr_graph's edges, checked against the dense oracle's."""
    edges = sinr_graph(pattern_b, pattern_i, params).edges
    assert np.array_equal(edges, dense_sinr_graph(pattern_b, pattern_i, params).edges)
    return edges.tolist()


def line_pattern(w, *xs):
    return PointPattern(w, np.array(xs, dtype=float)[:, None])


class TestSinrAgainstDenseOracle:
    # sinr_graph reads only the pairs within its noise-limited reach (every
    # pair at zero noise with an unbounded attenuation); the dense oracle
    # reads every ordered pair.  The edge arrays must be equal, order too.
    GAMMAS = (0.0, 0.01, 0.2, 1e6)

    @pytest.mark.parametrize("separate", [False, True], ids=["self", "separate"])
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("noise", [0.1, 0.0])
    @pytest.mark.parametrize("kind", list(ATTENUATIONS))
    def test_every_gamma_matches(self, kind, noise, metric, separate):
        w = cube(7.0, 2, metric=metric)
        pattern = pg.sample(pg.homogeneous_poisson(1.2), w, STREAM.derive(40))
        interferers = pattern
        if separate:
            interferers = pg.sample(pg.homogeneous_poisson(0.8), w, STREAM.derive(41))
        attenuation = ATTENUATIONS[kind]
        graphs = percolation.sinr_graphs(
            pattern, interferers, SinrParams(1.0, noise, 1.0, 0.0, attenuation), self.GAMMAS
        )
        assert len(graphs) == len(self.GAMMAS)
        for gamma, g in zip(self.GAMMAS, graphs):
            params = SinrParams(1.0, noise, 1.0, gamma, attenuation)
            assert g.edges.tolist() == sinr_edges_and_oracle(pattern, interferers, params)
        counts = [len(g.edges) for g in graphs]
        assert counts[0] > counts[2]
        if not separate:
            # A sender is an interferer at its receiver: SINR <= 1/gamma.
            assert counts[-1] == 0

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 3),
        metric=st.sampled_from(["euclidean", "periodic"]),
        kind=st.sampled_from(list(ATTENUATIONS)),
        scale=st.floats(0.2, 5.0),
        eps=st.floats(1.0, 1e7),  # l(0) = eps^-beta <= 1
        link=st.floats(0.0, 4.0),
        zero_noise=st.booleans(),
        power=st.floats(0.1, 10.0),
        threshold=st.floats(0.01, 10.0),
        gamma=st.sampled_from([0.0, 1e-4, 0.05, 1.0, 1e6]),
        separate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_parameters_match(
        self, d, metric, kind, scale, eps, link, zero_noise, power, threshold, gamma,
        separate, seed,
    ):
        # The noise puts the gamma = 0 link range at `link`, with a pair of
        # points about that far apart.  A power law with a large eps has its
        # reach (T N / P)^(-1/beta) - eps at the mercy of rounding.
        attenuation = {
            "exponential": sn.exponential_response(scale),
            "power_law": sn.power_law_response(d + scale, eps),
            "indicator_ball": sn.indicator_ball(scale),
            "tabulated": sn.tabulated_response(
                [0.0, scale, 2 * scale], [1.0, 0.3, 0.1]
            ),
        }[kind]
        noise = 0.0 if zero_noise else power * float(attenuation.evaluate(link)) / threshold
        try:
            params = SinrParams(power, noise, threshold, gamma, attenuation)
        except ValueError:  # a level that rounds above l(0)
            reject()
        w = cube(6.0, d, metric=metric)
        rng = np.random.default_rng(seed)
        points = rng.random((30, d)) * 6.0
        points[1] = points[0]
        points[2] = points[0]
        points[2, 0] = (points[0, 0] + link) % 6.0
        pattern = PointPattern(w, points)
        interferers = pattern
        if separate:
            interferers = PointPattern(w, rng.random((12, d)) * 6.0)
        sinr_edges_and_oracle(pattern, interferers, params)


class TestSinrTies:
    @pytest.mark.parametrize(
        "attenuation",
        [sn.exponential_response(1.0), sn.power_law_response(3.5, 1e7)],
        ids=["exponential", "power_law_large_eps"],
    )
    def test_pair_at_the_last_linking_distance(self, attenuation):
        # The largest float distance whose ratio still clears T, and the next
        # float after it, with the gamma = 0 range near 2.  For the power law
        # the inverse (T N / P)^(-1/beta) - eps loses about 1e-8 to
        # cancellation, more than the pair query's own slack.
        noise = float(attenuation.evaluate(2.0))
        params = SinrParams(1.0, noise, 1.0, 0.0, attenuation)

        def links(bits):
            d = np.array([bits]).view(np.float64)
            return 1.0 * attenuation.evaluate(d)[0] / noise > 1.0

        lo, hi = np.float64(0.0).view(np.int64), np.float64(4.0).view(np.int64)
        while hi - lo > 1:  # links at lo, not at hi
            mid = lo + (hi - lo) // 2
            lo, hi = (mid, hi) if links(mid) else (lo, mid)
        d_last, d_past = np.array([lo, hi]).view(np.float64)
        assert abs(d_last - 2.0) < 1e-6
        assert percolation._sinr_reach(params) > d_last
        w = cube(6.0, 1, metric="euclidean")
        tie = line_pattern(w, 0.0, d_last)
        assert sinr_edges_and_oracle(tie, tie, params) == [[0, 1]]
        past = line_pattern(w, 0.0, d_past)
        assert sinr_edges_and_oracle(past, past, params) == []

    @pytest.mark.parametrize("noise", [0.1, 0.0])
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize(
        "attenuation, support",
        [(sn.indicator_ball(1.0), 1.0), (sn.tabulated_response([0.0, 1.5], [1.0, 0.5]), 1.5)],
        ids=["indicator_ball", "tabulated"],
    )
    def test_pair_at_exactly_the_support_radius(self, attenuation, support, metric, noise):
        # Closed support: a pair at exactly the support radius links, one a
        # float or two further does not.  On the torus the pair lies
        # 4 - support apart the direct way, so the tie is the wrapped distance.
        params = SinrParams(1.0, noise, 1.0, 0.0, attenuation)
        w = cube(4.0, 1, metric=metric)
        x = support if metric == "euclidean" else 4.0 - support
        x_past = np.nextafter(x, math.inf if metric == "euclidean" else -math.inf)
        tie, past = line_pattern(w, 0.0, x), line_pattern(w, 0.0, x_past)
        assert core.distance(tie.points[0], tie.points[1], w) == support
        assert core.distance(past.points[0], past.points[1], w) > support
        assert sinr_edges_and_oracle(tie, tie, params) == [[0, 1]]
        assert sinr_edges_and_oracle(past, past, params) == []

    @pytest.mark.parametrize(
        "attenuation, x",
        # l(1) = 2^-4 exactly, and the indicator is 1 on its support.
        [(sn.power_law_response(4.0, 1.0), 1.0), (sn.indicator_ball(1.0), 0.5)],
        ids=["power_law", "indicator_ball"],
    )
    def test_ratio_exactly_at_the_threshold_does_not_link(self, attenuation, x):
        level = float(attenuation.evaluate(x))
        pattern = line_pattern(cube(4.0, 1, metric="euclidean"), 0.0, x)
        tie = SinrParams(1.0, level, 1.0, 0.0, attenuation)  # P l / N == T
        assert sinr_edges_and_oracle(pattern, pattern, tie) == []
        below = SinrParams(1.0, level, np.nextafter(1.0, 0.0), 0.0, attenuation)
        assert sinr_edges_and_oracle(pattern, pattern, below) == [[0, 1]]


def peak_bytes_raising(match, fn, *args) -> int:
    """Peak bytes traced while fn(*args) raises a ValueError matching match."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSinrInterferenceBlocks:
    # The interference is one core.reduce_distances sum, one row block of
    # distances at a time; every block size gives the floats of the one-shot
    # oracle, bit for bit, and with them the same graphs.
    @pytest.mark.parametrize("block", [1, 7, 64, core._DENSE_BLOCK_ENTRIES])
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_one_shot_oracle(self, monkeypatch, block, d, metric):
        monkeypatch.setattr(core, "_DENSE_BLOCK_ENTRIES", block)
        sums = []

        def spy(*args):
            sums.append(core.reduce_distances(*args))
            return sums[-1]

        monkeypatch.setattr(percolation, "reduce_distances", spy)
        w = cube(5.0, d, origin=-0.4, metric=metric)
        rng = np.random.default_rng(80 + d)
        receivers = w.lower + rng.random((13, d)) * w.sides
        jammers = w.lower + rng.random((6, d)) * w.sides
        jammers[4] = receivers[2]  # an interferer on a receiver
        frame = (w.lower, w.upper, metric)
        attenuations = {**ATTENUATIONS, "power_law": sn.power_law_response(d + 0.5, 1.0)}
        for attenuation in attenuations.values():
            params = SinrParams(1.0, 0.05, 1.0, 0.3, attenuation)
            for interferers in (jammers, receivers, np.empty((0, d))):
                pattern_b, pattern_i = PointPattern(w, receivers), PointPattern(w, interferers)
                sums.clear()
                edges = sinr_graph(pattern_b, pattern_i, params).edges
                expected = dense_interference(receivers, interferers, *frame, attenuation)
                assert len(sums) == 1 and np.array_equal(sums[0], expected)
                assert np.array_equal(edges, dense_sinr_graph(pattern_b, pattern_i, params).edges)

    def test_memory_is_one_block(self):
        # The whole (1000, 1000, 2) interference offsets took 45.8 MB traced.
        w = cube(30.0, 2)
        pattern = PointPattern(w, np.random.default_rng(9).random((1000, 2)) * 30.0)
        params = exponential_params(gamma=0.01)
        tracemalloc.start()
        try:
            g = sinr_graph(pattern, pattern, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.edges) > 0
        assert peak < 4 * 2**20


class TestSinrMemoryCap:
    # The interference (n x m x d) offsets, reduced by core.reduce_distances,
    # and at zero noise with an unbounded attenuation the signal (n x n x d)
    # offsets of core.pairwise_distances, are capped at
    # core.MAX_DENSE_ENTRIES and checked before either is allocated.
    def test_signal_cap_raises_before_allocating(self):
        # Zero noise with an unbounded attenuation is the one path that
        # still builds the n x n signal: every pair can link.
        n = math.isqrt(core.MAX_DENSE_ENTRIES) + 1
        pattern = PointPattern(cube(float(n), 1, metric="euclidean"), np.arange(n)[:, None])
        peak = peak_bytes_raising(
            "MAX_DENSE_ENTRIES", sinr_graph, pattern, pattern, exponential_params(noise=0.0)
        )
        assert peak < 2**20  # the offsets alone would take 8 * n * n bytes

    def test_noise_limited_signal_needs_no_cap(self):
        # With noise the links come from the pair query, so the same n that
        # the dense signal refuses now builds, as the Gilbert graph it is.
        n = math.isqrt(core.MAX_DENSE_ENTRIES) + 1
        pattern = PointPattern(cube(float(n), 1, metric="euclidean"), np.arange(n)[:, None])
        params = exponential_params()
        g = sinr_graph(pattern, pattern, params)
        assert np.array_equal(g.edges, gilbert_graph(pattern, params.gilbert_radius()).edges)
        assert len(g.edges) == 2 * n - 3  # neighbours at 1 and 2 < ln 10 < 3

    def test_interference_cap_raises_before_allocating(self):
        # 4096 receivers fit the signal cap exactly; 4097 interferers do not.
        n = math.isqrt(core.MAX_DENSE_ENTRIES)
        w = cube(float(n + 1), 1, metric="euclidean")
        receivers = PointPattern(w, np.arange(n)[:, None] + 0.5)
        interferers = PointPattern(w, np.arange(n + 1)[:, None])
        peak = peak_bytes_raising(
            "MAX_DENSE_ENTRIES", sinr_graph, receivers, interferers, exponential_params(0.1)
        )
        assert peak < 2**20

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", 8)
        w = euclid(6.0)
        pair = PointPattern(w, np.array([[1.0, 1.0], [1.5, 1.0]]))
        jammers = PointPattern(w, np.array([[1.6, 1.0], [4.0, 4.0], [5.0, 5.0]]))
        assert sinr_graph(pair, pair, exponential_params(0.5)).edges.tolist() == [[0, 1]]
        # Without interference the interferers are never read.
        assert sinr_graph(pair, jammers, exponential_params()).edges.tolist() == [[0, 1]]
        with pytest.raises(ValueError, match="2 x 3 points.*MAX_DENSE_ENTRIES"):
            sinr_graph(pair, jammers, exponential_params(2.0))

    def test_one_receiver_meets_the_cap(self, monkeypatch):
        # A lone receiver's interference is the same dense reduction.
        monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", 2)
        w = euclid(6.0)
        one = PointPattern(w, np.array([[1.0, 1.0]]))
        jammers = PointPattern(w, np.array([[1.6, 1.0], [4.0, 4.0], [5.0, 5.0]]))
        assert sinr_graph(one, jammers, exponential_params()).edges.shape == (0, 2)
        with pytest.raises(ValueError, match="1 x 3 points.*MAX_DENSE_ENTRIES"):
            sinr_graph(one, jammers, exponential_params(2.0))


class TestSerialization:
    def test_sweep_csv(self):
        spec = pg.binomial_process(4)
        sweep = component_fraction_sweep(
            spec, cube(8.0, 2), [0.0], reps=4, stream=STREAM.derive(28)
        )
        text = sweep_to_csv(sweep)
        lines = text.splitlines()
        assert lines[0] == "r,largest_fraction,second_fraction,stderr_largest,stderr_second"
        assert lines[1].startswith("0,0.25,0.25,")
        assert text.endswith("\n")

    def test_crossing_csv(self):
        from ppclust.summaries import CurveEstimate, EstimateWithError

        text = crossing_to_csv(CurveEstimate((0.5,), (EstimateWithError(0.25, 0.0625, 16),)))
        assert text == "r,crossing_prob,std_error\n0.5,0.25,0.0625\n"

    def test_graph_csv(self):
        text = graph_to_csv(gilbert_graph(collinear_pattern(), 0.75))
        assert text == "i,j\n0,1\n"
