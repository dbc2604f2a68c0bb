"""Tests for the Monte Carlo summary statistics."""

import math

import numpy as np
import pytest

import ppclust.summaries as summaries
from oracles import dense_counts_in_regions
from ppclust.core import PointPattern, RandomStream, box as window_box, cube, pairwise_distances
from ppclust.dists import deterministic
from ppclust.procgen import (
    binomial_process,
    homogeneous_poisson,
    matern_cluster,
    perturbed_lattice,
    square_lattice,
    sample,
    thomas_cluster,
    uniform_in_cell,
)
from ppclust.summaries import (
    CurveEstimate,
    EstimateWithError,
    Region,
    ball,
    box,
    close_pair_count,
    count_variance,
    curve_to_csv,
    factorial_moment,
    indicator_function,
    laplace_functional,
    pair_correlation,
    ripley_k,
    void_probability,
)

STREAM = RandomStream(777)


def periodic(side):
    return cube(side, 2, metric="periodic")


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled a pattern")


class TestRegions:
    def test_ball_and_box_volumes(self):
        assert ball(1.0).volume(2) == pytest.approx(math.pi)
        assert box(2.0).volume(3) == pytest.approx(8.0)

    def test_extents(self):
        assert ball(0.5).max_extent() == 1.0
        assert box(0.5).max_extent() == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Region("disk", 1.0)
        with pytest.raises(ValueError):
            ball(0.0)


class TestMeanAndSe:
    @pytest.mark.parametrize("reps", [1, 2, 7, 8, 50])
    def test_columns_match_one_dimensional_reductions_exactly(self, reps):
        rng = np.random.default_rng(reps)
        values = rng.lognormal(0.0, 2.0, size=(reps, 13)) * 10.0 ** rng.integers(-8, 8, 13)
        mean, se = summaries._mean_and_se(values)
        for j in range(values.shape[1]):
            col = values[:, j].copy()
            assert mean[j] == np.mean(col)
            expected = np.std(col, ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
            assert se[j] == expected

    @pytest.mark.parametrize("reps", [1, 2, 7, 8, 50])
    def test_vector_matches_scalar_reductions(self, reps):
        values = np.random.default_rng(reps).normal(3.0, 1.0, reps)
        est = summaries._estimate(values)
        assert est.value == np.mean(values) and est.replications == reps
        assert est.std_error == (np.std(values, ddof=1) / math.sqrt(reps) if reps > 1 else 0.0)

    def test_one_replication_has_zero_error(self):
        mean, se = summaries._mean_and_se(np.array([[1.5, -2.0, 7.0]]))
        assert mean.tolist() == [1.5, -2.0, 7.0] and se.tolist() == [0.0, 0.0, 0.0]

    def test_proportion_binomial_error(self):
        est = summaries._proportion(np.array([1.0, 0.0, 1.0, 1.0]))
        assert est.value == 0.75 and est.replications == 4
        assert est.std_error == math.sqrt(0.75 * 0.25 / 4)

    def test_falling_factorial(self):
        counts = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
        assert summaries._falling_factorial(counts, 3).tolist() == [0.0, 0.0, 0.0, 6.0, 60.0]
        assert summaries._falling_factorial(counts, 1).tolist() == counts.tolist()


class TestPairCounting:
    def test_two_points_inside_radius(self):
        w = periodic(4.0)
        pat = PointPattern(w, np.array([[1.0, 1.0], [1.5, 1.0]]))
        assert close_pair_count(pat, 0.6) == 2  # ordered pairs
        assert close_pair_count(pat, 0.4) == 0

    def test_single_point(self):
        w = periodic(4.0)
        pat = PointPattern(w, np.array([[1.0, 1.0]]))
        assert close_pair_count(pat, 1.0) == 0

    def test_wraparound_pair(self):
        w = periodic(4.0)
        pat = PointPattern(w, np.array([[0.1, 2.0], [3.9, 2.0]]))
        assert close_pair_count(pat, 0.25) == 2


def dense_pair_distances(pattern, cutoff):
    """Every unordered pair distance, read off the full distance matrix."""
    n = pattern.points.shape[0]
    return pairwise_distances(pattern.points, pattern.window)[np.triu_indices(n, k=1)]


class TestAgainstDensePairs:
    # The KD-tree pair query must give the estimators exactly the distances
    # the full n x n matrix gives, up to the pairs beyond every scale.
    SPECS = {
        "poisson": homogeneous_poisson(1.0),
        "thomas": thomas_cluster(0.2, 5.0, 0.4),
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_estimators_match_the_dense_path(self, name, d, monkeypatch):
        spec = self.SPECS[name]
        w = cube(40.0 if d == 1 else 7.0, d)
        grid = np.linspace(0.2, 2.4, 12)
        stream = STREAM.derive(80 + d)
        fast = (
            ripley_k(spec, w, grid, reps=4, stream=stream),
            pair_correlation(spec, w, grid, reps=4, stream=stream),
        )
        pattern = sample(spec, w, stream.derive(0))
        counts = [close_pair_count(pattern, r) for r in (0.0, 0.5, 1.7)]
        monkeypatch.setattr(summaries, "_pair_distances", dense_pair_distances)
        assert ripley_k(spec, w, grid, reps=4, stream=stream) == fast[0]
        dense_g = pair_correlation(spec, w, grid, reps=4, stream=stream)
        for got, want in zip(fast[1].estimates, dense_g.estimates):
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
            assert got.std_error == pytest.approx(want.std_error, rel=1e-12, abs=0)
        assert [close_pair_count(pattern, r) for r in (0.0, 0.5, 1.7)] == counts


def dense_counts(pattern, centers, region):
    w = pattern.window
    return dense_counts_in_regions(
        centers, pattern.points, w.lower, w.upper, w.metric, region.kind, region.size
    )


class TestCountsInRegionsAgainstDense:
    # The KD-tree cross query must give exactly the counts of the dense
    # (centres, n, d) broadcast, ties on the region boundary included.
    SPECS = {
        "poisson": homogeneous_poisson(1.0),
        "thomas": thomas_cluster(0.2, 5.0, 0.4),
    }

    @pytest.mark.parametrize("metric", ["periodic", "euclidean"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_random_patterns(self, name, d, metric):
        w = cube(40.0 if d == 1 else 7.0, d, origin=-1.3, metric=metric)
        for seed in range(4):
            stream = STREAM.derive(120 + seed)
            pattern = sample(self.SPECS[name], w, stream.derive(0))
            rng = stream.derive(1).generator()
            centers = w.lower + rng.random((64, d)) * w.sides
            for region in (ball(0.3), ball(1.0), ball(2.5), box(0.5), box(2.0), box(5.0)):
                got = summaries._counts_in_regions(pattern, centers, region)
                assert got.dtype == np.int64
                assert np.array_equal(got, dense_counts(pattern, centers, region))

    @pytest.mark.parametrize("metric", ["periodic", "euclidean"])
    def test_points_exactly_on_the_boundary(self, metric):
        w = cube(4.0, 2, metric=metric)
        centers = np.array([[1.0, 1.0], [2.0, 2.0]])
        # Three points lie at distance exactly 0.5 from the first centre,
        # on the closed ball of radius 0.5; (1.5, 1.5) lies at Chebyshev
        # distance exactly 0.5 from both centres, on the box of side 1.  The
        # last two lie one ulp beyond both regions, within the query slack.
        beyond = np.nextafter(1.5, 2.0), np.nextafter(2.5, 3.0)
        points = np.array(
            [[1.5, 1.0], [1.0, 0.5], [0.5, 1.0], [1.5, 1.5], [1.0, 1.25],
             [1.0, beyond[0]], [beyond[1], 2.0]]
        )
        pattern = PointPattern(w, points)
        for region, want in ((ball(0.5), [4, 0]), (box(1.0), [5, 1])):
            got = summaries._counts_in_regions(pattern, centers, region)
            assert got.tolist() == want
            assert np.array_equal(got, dense_counts(pattern, centers, region))

    def test_pairs_across_the_seam(self):
        w = periodic(4.0)
        pattern = PointPattern(w, np.array([[3.75, 2.0], [3.9, 3.9], [2.0, 2.0]]))
        centers = np.array([[0.25, 2.0], [0.1, 0.1], [0.0, 0.0]])
        # 3.75 and 0.25 lie exactly 0.5 apart through the seam.
        for region, want in ((ball(0.5), [1, 1, 1]), (box(1.0), [1, 1, 1])):
            got = summaries._counts_in_regions(pattern, centers, region)
            assert got.tolist() == want
            assert np.array_equal(got, dense_counts(pattern, centers, region))

    def test_point_rounding_up_to_the_torus_side(self):
        # The largest double below 2.7, shifted by -(-1.3), rounds to the
        # full side 4.0; the tree must still see it next to the origin.
        w = window_box((-1.3, 2.7), (-1.3, 2.7))
        top = np.nextafter(2.7, -np.inf)
        pattern = PointPattern(w, np.array([[top, 0.0], [top, top]]))
        centers = np.array([[-1.3, 0.0], [-1.3, -1.3], [top, top], [0.5, 0.5]])
        assert pattern.points[0, 0] - w.lower[0] == w.sides[0]
        for region in (ball(0.1), box(0.2)):
            got = summaries._counts_in_regions(pattern, centers, region)
            assert got.tolist() == [1, 1, 1, 0]
            assert np.array_equal(got, dense_counts(pattern, centers, region))

    def test_empty_pattern(self):
        pattern = PointPattern(periodic(4.0), np.empty((0, 2)))
        centers = np.array([[1.0, 1.0], [2.0, 3.0]])
        for region in (ball(1.0), box(1.0)):
            got = summaries._counts_in_regions(pattern, centers, region)
            assert got.dtype == np.int64 and got.tolist() == [0, 0]

    def test_estimators_match_the_dense_path(self, monkeypatch):
        spec = thomas_cluster(0.3, 4.0, 0.4)
        w = periodic(10.0)
        fast = (
            void_probability(spec, w, ball(1.0), reps=6, stream=STREAM.derive(130)),
            factorial_moment(spec, w, 2.0, 2, reps=6, stream=STREAM.derive(131)),
        )
        monkeypatch.setattr(summaries, "_counts_in_regions", dense_counts)
        assert void_probability(spec, w, ball(1.0), reps=6, stream=STREAM.derive(130)) == fast[0]
        assert factorial_moment(spec, w, 2.0, 2, reps=6, stream=STREAM.derive(131)) == fast[1]


class TestRipleyK:
    def test_poisson_matches_pi_r_squared(self):
        # For a Poisson process K(r) = pi r^2 in the plane.
        curve = ripley_k(
            homogeneous_poisson(1.0), periodic(16.0), [0.25, 0.5, 1.0], reps=50, stream=STREAM
        )
        for r, est in zip(curve.abscissa, curve.estimates):
            assert est.value == pytest.approx(math.pi * r * r, abs=4 * est.std_error)
            assert est.replications == 50

    def test_single_point_patterns_give_zero(self):
        curve = ripley_k(
            binomial_process(1), periodic(4.0), [0.5, 1.0], reps=10, stream=STREAM.derive(1)
        )
        assert np.all(curve.values() == 0.0)

    def test_monotone_in_r(self):
        # Pair counts are cumulative in r, so the estimate never decreases.
        grid = np.linspace(0.1, 1.5, 12)
        for spec in (homogeneous_poisson(1.0), matern_cluster(1.0, 4.0, 0.2)):
            curve = ripley_k(spec, periodic(8.0), grid, reps=20, stream=STREAM.derive(2))
            assert np.all(np.diff(curve.values()) >= 0)

    def test_clustered_exceeds_poisson_at_small_r(self):
        curve = ripley_k(
            matern_cluster(1.0, 5.0, 0.1), periodic(8.0), [0.1], reps=40, stream=STREAM.derive(3)
        )
        est = curve.estimates[0]
        assert est.value > math.pi * 0.01 + 4 * est.std_error

    def test_requires_periodic_window(self):
        with pytest.raises(ValueError, match="periodic"):
            ripley_k(
                homogeneous_poisson(1.0),
                cube(8.0, 2, metric="euclidean"),
                [0.5],
                reps=5,
                stream=STREAM,
            )

    def test_rejects_large_radii(self):
        with pytest.raises(ValueError, match="half the smallest"):
            ripley_k(homogeneous_poisson(1.0), periodic(4.0), [2.0], reps=5, stream=STREAM)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            ripley_k(homogeneous_poisson(1.0), periodic(4.0), [1.0, 0.5], reps=5, stream=STREAM)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([math.nan], "^r_grid values must be non-negative$"),
            ([0.5, math.nan], "^r_grid must be strictly increasing$"),
            ([math.nan, 0.5], "^r_grid must be strictly increasing$"),
        ],
    )
    def test_rejects_nan_radius_before_sampling(self, grid, message, monkeypatch):
        monkeypatch.setattr(summaries, "sample", _no_sampling)
        with pytest.raises(ValueError, match=message):
            ripley_k(homogeneous_poisson(1.0), periodic(4.0), grid, reps=5, stream=STREAM)

    def test_mostly_empty_replications_error(self):
        with pytest.raises(ValueError, match="empty"):
            ripley_k(
                homogeneous_poisson(0.01), periodic(2.0), [0.2], reps=40, stream=STREAM.derive(4)
            )

    def test_deterministic_and_thread_invariant(self):
        args = (homogeneous_poisson(1.0), periodic(8.0), [0.5, 1.0])
        a = ripley_k(*args, reps=16, stream=STREAM.derive(5))
        b = ripley_k(*args, reps=16, stream=STREAM.derive(5))
        c = ripley_k(*args, reps=16, stream=STREAM.derive(5), threads=4)
        assert np.array_equal(a.values(), b.values())
        assert np.array_equal(a.values(), c.values())
        assert np.array_equal(a.std_errors(), c.std_errors())


class TestPairCorrelation:
    def test_poisson_is_flat_one(self):
        curve = pair_correlation(
            homogeneous_poisson(1.0),
            periodic(12.0),
            [0.5, 1.0],
            bandwidth=None,
            reps=80,
            stream=STREAM.derive(6),
        )
        for est in curve.estimates:
            assert est.value == pytest.approx(1.0, abs=4 * est.std_error)

    def test_matern_matches_analytic_value(self):
        # Kernel-smoothed pair correlation of a Matern cluster process with
        # parent rate 1, mean 5 offspring, radius 0.1, at r = 0.05 with
        # Epanechnikov bandwidth 0.02.  Oracle:
        # tests/oracle_scripts/matern_pair_correlation.py -> 22.502225838341011.
        curve = pair_correlation(
            matern_cluster(1.0, 5.0, 0.1),
            periodic(4.0),
            [0.05, 0.5],
            bandwidth=0.02,
            reps=150,
            stream=RandomStream(2024),
        )
        near, far = curve.estimates
        assert near.value == pytest.approx(22.502225838341011, rel=0.10)
        assert near.value > 1.0 + 10 * near.std_error  # unmistakably clustered
        assert far.value == pytest.approx(1.0, abs=5 * far.std_error)

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError, match="r=0"):
            pair_correlation(
                homogeneous_poisson(1.0), periodic(8.0), [0.0, 0.5], reps=5, stream=STREAM
            )

    @pytest.mark.parametrize("grid", [[0.5, math.nan], [math.nan, 0.5]])
    def test_rejects_nan_radius_before_sampling(self, grid, monkeypatch):
        monkeypatch.setattr(summaries, "sample", _no_sampling)
        with pytest.raises(ValueError, match="^r_grid must be strictly increasing$"):
            pair_correlation(
                homogeneous_poisson(1.0),
                periodic(8.0),
                grid,
                bandwidth=0.1,
                reps=5,
                stream=STREAM,
            )

    def test_empty_grid_rejected_with_default_bandwidth(self, monkeypatch):
        # The default bandwidth reads the grid's largest value, so the grid
        # is checked before it.
        monkeypatch.setattr(summaries, "sample", _no_sampling)
        with pytest.raises(ValueError, match="^r_grid must be a non-empty 1-d sequence$"):
            pair_correlation(homogeneous_poisson(1.0), periodic(8.0), [], reps=5, stream=STREAM)

    def test_kernel_support_must_fit(self):
        # r_max + bandwidth may not reach half the window side.
        with pytest.raises(ValueError, match="half the smallest"):
            pair_correlation(
                homogeneous_poisson(1.0),
                periodic(4.0),
                [1.9],
                bandwidth=0.2,
                reps=5,
                stream=STREAM,
            )

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            pair_correlation(
                homogeneous_poisson(1.0),
                periodic(8.0),
                [0.5],
                bandwidth=-0.1,
                reps=5,
                stream=STREAM,
            )


class TestVoidProbability:
    def test_poisson_ball_void(self):
        # Exact Poisson void probability: exp(-lambda * pi * rho^2).
        est = void_probability(
            homogeneous_poisson(1.0),
            periodic(8.0),
            ball(0.5),
            placements=64,
            reps=200,
            stream=STREAM.derive(7),
        )
        assert est.value == pytest.approx(math.exp(-math.pi / 4), abs=4 * est.std_error)

    def test_dense_lattice_void_is_zero(self):
        est = void_probability(
            square_lattice(0.1),
            periodic(2.0),
            ball(0.5),
            placements=16,
            reps=20,
            stream=STREAM.derive(8),
        )
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_box_region(self):
        # Poisson void of a box: exp(-lambda * side^2).
        est = void_probability(
            homogeneous_poisson(1.0),
            periodic(8.0),
            box(1.0),
            placements=64,
            reps=200,
            stream=STREAM.derive(9),
        )
        assert est.value == pytest.approx(math.exp(-1.0), abs=4 * est.std_error)

    def test_region_must_fit(self):
        with pytest.raises(ValueError, match="below half the smallest window side"):
            void_probability(
                homogeneous_poisson(1.0), periodic(3.0), ball(2.0), reps=5, stream=STREAM
            )


class TestFactorialMoment:
    def test_poisson_first_two_moments(self):
        # For Poisson counts the k-th factorial moment is (lambda V)^k.
        w = periodic(8.0)
        m1 = factorial_moment(
            homogeneous_poisson(2.0), w, 1.0, 1, placements=64, reps=200, stream=STREAM.derive(10)
        )
        m2 = factorial_moment(
            homogeneous_poisson(2.0), w, 1.0, 2, placements=64, reps=200, stream=STREAM.derive(11)
        )
        assert m1.value == pytest.approx(2.0, abs=4 * m1.std_error)
        assert m2.value == pytest.approx(4.0, abs=4 * m2.std_error)

    def test_order_validated(self):
        for k in (0, 5):
            with pytest.raises(ValueError, match="k must be"):
                factorial_moment(
                    homogeneous_poisson(1.0), periodic(4.0), 1.0, k, reps=5, stream=STREAM
                )

    def test_consistency_with_count_variance(self):
        # E[N(N-1)] = Var(N) + m^2 - m couples three estimators.
        w = periodic(6.0)
        spec = thomas_cluster(2.0, 3.0, 0.2)
        m = factorial_moment(spec, w, 1.0, 1, placements=48, reps=250, stream=STREAM.derive(12))
        a2 = factorial_moment(spec, w, 1.0, 2, placements=48, reps=250, stream=STREAM.derive(13))
        va = count_variance(spec, w, 1.0, placements=48, reps=250, stream=STREAM.derive(14))
        rhs = va.value + m.value**2 - m.value
        tol = 5 * (a2.std_error + va.std_error + (2 * m.value + 1) * m.std_error)
        assert a2.value == pytest.approx(rhs, abs=tol)


class TestCountVariance:
    def test_jittered_grid_exact_variance(self):
        # One point per unit cell, uniformly jittered inside it, box side 2:
        # Var(N) = 4 - (5/3)^2 = 11/9.  Oracle:
        # tests/oracle_scripts/box_count_variance.py.
        spec = perturbed_lattice(1.0, deterministic(1), uniform_in_cell())
        est = count_variance(
            spec, periodic(10.0), 2.0, placements=32, reps=400, stream=RandomStream(2024).derive(1)
        )
        assert est.value == pytest.approx(11.0 / 9.0, abs=5 * est.std_error)
        # Strongly sub-Poisson: a Poisson process of the same intensity has
        # variance 4 in this box.
        assert est.value < 2.0

    def test_poisson_variance_equals_mean(self):
        est = count_variance(
            homogeneous_poisson(1.5),
            periodic(8.0),
            1.0,
            placements=32,
            reps=300,
            stream=STREAM.derive(15),
        )
        assert est.value == pytest.approx(1.5, abs=4 * est.std_error)

    def test_single_placement_path(self):
        est = count_variance(
            homogeneous_poisson(1.5),
            periodic(8.0),
            1.0,
            placements=1,
            reps=600,
            stream=STREAM.derive(16),
        )
        assert est.value == pytest.approx(1.5, abs=4 * est.std_error)

    def test_needs_two_replications(self):
        with pytest.raises(ValueError, match="reps"):
            count_variance(homogeneous_poisson(1.0), periodic(4.0), 1.0, reps=1, stream=STREAM)

    def test_jackknife_needs_three_replications(self):
        # At reps=2 each leave-one-out estimate has a single mean, whose
        # ddof=1 variance is undefined: the error must come before sampling.
        with pytest.raises(ValueError, match="reps >= 3"):
            count_variance(thomas_cluster(0.3, 4.0, 0.4), periodic(10.0), 1.5, reps=2, stream=STREAM)


class TestLaplaceFunctional:
    def test_zero_function_gives_one_exactly(self):
        est = laplace_functional(
            homogeneous_poisson(1.0),
            periodic(3.0),
            lambda pts: np.zeros(len(pts)),
            "minus",
            reps=20,
            stream=STREAM.derive(17),
        )
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_poisson_minus_transform(self):
        # E exp(-sum f) = exp(-lambda |B| (1 - e^{-1})) for a unit indicator.
        est = laplace_functional(
            homogeneous_poisson(1.0),
            periodic(3.0),
            indicator_function([0.0, 0.0], [1.0, 1.0]),
            "minus",
            reps=400,
            stream=STREAM.derive(18),
        )
        exact = math.exp(-(1.0 - math.exp(-1.0)))
        assert est.value == pytest.approx(exact, abs=4 * est.std_error)

    def test_poisson_plus_transform(self):
        # E exp(+sum f) = exp(lambda |B| (e - 1)).
        est = laplace_functional(
            homogeneous_poisson(1.0),
            periodic(3.0),
            indicator_function([0.0, 0.0], [1.0, 1.0]),
            "plus",
            reps=400,
            stream=STREAM.derive(19),
        )
        exact = math.exp(math.e - 1.0)
        assert est.value == pytest.approx(exact, abs=4 * est.std_error)

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            laplace_functional(
                homogeneous_poisson(1.0),
                periodic(3.0),
                lambda pts: -np.ones(len(pts)),
                "minus",
                reps=5,
                stream=STREAM.derive(20),
            )

    def test_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            laplace_functional(
                homogeneous_poisson(1.0),
                periodic(3.0),
                lambda pts: np.zeros(len(pts)),
                "times",
                reps=5,
                stream=STREAM,
            )

    def test_log_space_path_returns_finite(self):
        # One point per pattern with f = 690 everywhere: the exponent sits
        # between the direct-exp limit and the overflow threshold, so the
        # log-space reduction must return exp(690) exactly.
        est = laplace_functional(
            binomial_process(1),
            periodic(3.0),
            lambda pts: np.full(len(pts), 690.0),
            "plus",
            reps=20,
            stream=STREAM.derive(21),
        )
        assert math.isfinite(est.value)
        assert est.value == pytest.approx(math.exp(690.0), rel=1e-12)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError, match="overflow"):
            laplace_functional(
                homogeneous_poisson(1.0),
                periodic(3.0),
                indicator_function([0.0, 0.0], [1.0, 1.0], height=800.0),
                "plus",
                reps=20,
                stream=STREAM.derive(22),
            )


class TestSerialization:
    def test_curve_csv_layout(self):
        curve = CurveEstimate(
            (0.5, 1.0),
            (
                EstimateWithError(0.25, 0.001, 40),
                EstimateWithError(1.0, 0.5, 40),
            ),
        )
        text = curve_to_csv(curve)
        lines = text.split("\n")
        assert lines[0] == "r,estimate,std_error,replications"
        assert lines[1] == "0.5,0.25,0.001,40"
        assert lines[2] == "1,1,0.5,40"
        assert text.endswith("\n")
