"""Tests for shot-noise fields, coverage volumes, and exceedance bounds."""

import math
import tracemalloc

import numpy as np
import pytest

import ppclust.core as core
import ppclust.shotnoise as shotnoise
from oracles import (
    chernoff_grid_bound,
    dense_coverage_counts,
    dense_field,
    grid_level_exceedance_bound,
)
from ppclust.core import PointPattern, RandomStream, box as window_box, cube, grid_centers
from ppclust.dists import deterministic, geometric
from ppclust.procgen import (
    Sampler,
    homogeneous_poisson,
    perturbed_lattice,
    sample,
    square_lattice,
    thomas_cluster,
    uniform_in_cell,
)
from ppclust.shotnoise import (
    FieldSample,
    ResponseFunction,
    additive_field,
    coverage_field,
    coverage_summary_to_csv,
    exponential_response,
    extremal_field,
    indicator_ball,
    k_covered_volume,
    level_exceedance_bound,
    power_law_response,
    tabulated_response,
)
from ppclust.summaries import CurveEstimate, EstimateWithError

STREAM = RandomStream(91)


def periodic(side):
    return cube(side, 2, metric="periodic")


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled a pattern")


# The coarse log grid of s that the Chernoff search once minimised over.
S_GRID = 2.0 ** np.arange(-10.0, 6.5, 0.5)

# Ball of unit area in the plane: kappa_2 rho^2 = 1.
UNIT_AREA_RADIUS = 1.0 / math.sqrt(math.pi)


class TestResponseFunctions:
    def test_indicator_closed_ball(self):
        h = indicator_ball(1.0)
        assert np.array_equal(h.evaluate([0.0, 0.5, 1.0, 1.1]), [1.0, 1.0, 1.0, 0.0])

    def test_exponential_decay(self):
        h = exponential_response(2.0)
        assert h.evaluate(1.0) == pytest.approx(math.exp(-2.0))

    def test_power_law_values(self):
        h = power_law_response(3.0, 0.5)
        assert h.evaluate(0.5) == pytest.approx(1.0)
        assert h.evaluate(0.0) == pytest.approx(8.0)

    def test_tabulated_interpolation_and_tail(self):
        h = tabulated_response([0.0, 1.0, 2.0], [4.0, 2.0, 0.0])
        assert np.allclose(h.evaluate([0.0, 0.5, 1.5, 3.0]), [4.0, 3.0, 1.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ResponseFunction("gaussian", (1.0,))
        with pytest.raises(ValueError, match="positive"):
            indicator_ball(0.0)
        with pytest.raises(ValueError, match="positive"):
            exponential_response(-1.0)
        with pytest.raises(ValueError, match="beta"):
            power_law_response(0.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            tabulated_response([1.0, 0.5], [1.0, 0.5])
        with pytest.raises(ValueError, match="non-increasing"):
            tabulated_response([0.0, 1.0], [0.5, 1.0])

    def test_radial_inverse_closed_forms(self):
        assert exponential_response(1.0).radial_inverse(0.1) == pytest.approx(math.log(10.0))
        assert power_law_response(3.0, 0.5).radial_inverse(1.0) == pytest.approx(0.5)
        h = tabulated_response([0.0, 1.0, 2.0], [4.0, 2.0, 1.0])
        assert h.radial_inverse(3.0) == pytest.approx(0.5)

    def test_radial_inverse_rejects_flat_kinds(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            indicator_ball(1.0).radial_inverse(0.5)
        with pytest.raises(ValueError, match="strictly decreasing"):
            tabulated_response([0.0, 1.0, 2.0], [2.0, 2.0, 1.0]).radial_inverse(2.0)

    def test_radial_inverse_range(self):
        with pytest.raises(ValueError, match="range"):
            exponential_response(1.0).radial_inverse(2.0)

    def test_integrability_check(self):
        power_law_response(3.0, 0.5).check_integrable(2)
        with pytest.raises(ValueError, match="integrable"):
            power_law_response(2.0, 0.5).check_integrable(2)


class TestFields:
    def test_additive_single_point(self):
        pat = PointPattern(periodic(4.0), np.array([[0.0, 0.0]]))
        fs = additive_field(pat, indicator_ball(1.0), [[0.5, 0.0]])
        assert fs.values[0] == 1.0

    def test_additive_empty_pattern(self):
        pat = PointPattern(periodic(4.0), np.empty((0, 2)))
        fs = additive_field(pat, exponential_response(1.0), [[1.0, 1.0], [2.0, 2.0]])
        assert np.array_equal(fs.values, [0.0, 0.0])

    def test_additive_sums_contributions(self):
        pat = PointPattern(periodic(4.0), np.array([[1.0, 1.0], [1.0, 3.0]]))
        fs = additive_field(pat, exponential_response(1.0), [[1.0, 2.0]])
        assert fs.values[0] == pytest.approx(2.0 * math.exp(-1.0))

    def test_additive_uses_window_metric(self):
        pat = PointPattern(periodic(4.0), np.array([[3.9, 0.0]]))
        fs = additive_field(pat, indicator_ball(0.5), [[0.1, 0.0]])
        assert fs.values[0] == 1.0  # wraparound distance 0.2

    def test_extremal_takes_max(self):
        w = cube(6.0, 2, metric="euclidean")
        pat = PointPattern(w, np.array([[1.0, 1.0], [1.0, 2.0]]))
        fs = extremal_field(pat, exponential_response(1.0), [[1.0, 0.0]])
        assert fs.values[0] == pytest.approx(math.exp(-1.0))

    def test_extremal_empty_is_zero(self):
        pat = PointPattern(periodic(4.0), np.empty((0, 2)))
        assert extremal_field(pat, indicator_ball(1.0), [[1.0, 1.0]]).values[0] == 0.0

    def test_extremal_indicator_inside(self):
        pat = PointPattern(periodic(4.0), np.array([[2.0, 2.0]]))
        assert extremal_field(pat, indicator_ball(1.0), [[2.5, 2.0]]).values[0] == 1.0

    def test_eval_points_must_lie_inside(self):
        pat = PointPattern(periodic(4.0), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match="inside"):
            additive_field(pat, indicator_ball(1.0), [[5.0, 0.0]])

    def test_additive_dominates_extremal(self):
        rng = np.random.default_rng(3)
        w = periodic(5.0)
        for h in (indicator_ball(0.8), exponential_response(1.5), power_law_response(3.0, 0.5)):
            pts = rng.random((30, 2)) * 5.0
            pat = PointPattern(w, pts)
            evals = rng.random((20, 2)) * 5.0
            add = additive_field(pat, h, evals).values
            ext = extremal_field(pat, h, evals).values
            assert np.all(add >= ext - 1e-12)

    def test_field_sample_validation(self):
        with pytest.raises(ValueError, match="per evaluation point"):
            FieldSample(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="non-negative"):
            FieldSample(np.zeros((1, 2)), np.array([-1.0]))


class TestCoverageField:
    def test_disk_area_fraction(self):
        pat = PointPattern(periodic(4.0), np.array([[2.0, 2.0]]))
        fs = coverage_field(pat, 1.0, 64)
        assert set(np.unique(fs.values)) <= {0.0, 1.0}
        assert np.mean(fs.values) == pytest.approx(math.pi / 16.0, abs=0.01)

    def test_coincident_points_double_cover(self):
        pat = PointPattern(periodic(4.0), np.array([[2.0, 2.0], [2.0, 2.0]]))
        fs = coverage_field(pat, 1.0, 32)
        assert set(np.unique(fs.values)) <= {0.0, 2.0}

    def test_tiny_radius_hits_only_own_cell(self):
        # Grid centers of [0,4)^2 at n=4 are 0.5 + integers; a point exactly
        # on a center covers that cell alone as r -> 0.
        pat = PointPattern(periodic(4.0), np.array([[0.5, 0.5]]))
        fs = coverage_field(pat, 1e-12, 4)
        assert np.sum(fs.values) == 1.0

    def test_radius_limit_on_torus(self):
        pat = PointPattern(periodic(4.0), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match="half the smallest"):
            coverage_field(pat, 2.0, 16)


def peak_bytes_raising(match, fn, *args) -> int:
    """Peak bytes traced while fn(*args) raises a ValueError matching match."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDenseFieldCap:
    # additive_field and extremal_field build (eval, n, d) offsets through
    # core.pairwise_distances; above core.MAX_DENSE_ENTRIES they raise
    # before allocating them.
    @pytest.mark.parametrize("field", [additive_field, extremal_field])
    def test_raises_before_allocating(self, field):
        n = 4096
        w = cube(float(n), 1)
        pattern = PointPattern(w, np.arange(n)[:, None])
        evals = np.linspace(0.0, n - 1.0, core.MAX_DENSE_ENTRIES // n + 1)[:, None]
        peak = peak_bytes_raising(
            "MAX_DENSE_ENTRIES", field, pattern, exponential_response(1.0), evals
        )
        assert peak < 2**20  # the offsets alone would take 128 MiB

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", 12)
        pattern = PointPattern(periodic(4.0), np.array([[1.0, 1.0], [2.0, 2.0]]))
        h = exponential_response(1.0)
        assert additive_field(pattern, h, [[0.5, 0.5]] * 3).values.shape == (3,)
        with pytest.raises(ValueError, match="MAX_DENSE_ENTRIES"):
            extremal_field(pattern, h, [[0.5, 0.5]] * 4)


RESPONSES = (
    indicator_ball(0.8),
    exponential_response(1.5),
    power_law_response(3.0, 0.5),
    tabulated_response([0.0, 0.5, 1.5], [1.0, 0.4, 0.15]),
)


class TestDenseFieldBlocks:
    # The fields reduce one row block of distances at a time; every block
    # size gives the floats of the one-shot oracle, bit for bit.
    @pytest.mark.parametrize("block", [1, 7, 64, core._DENSE_BLOCK_ENTRIES])
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fields_match_the_one_shot_oracle(self, monkeypatch, block, d, metric):
        monkeypatch.setattr(core, "_DENSE_BLOCK_ENTRIES", block)
        w = cube(4.0, d, origin=-0.7, metric=metric)
        rng = np.random.default_rng(60 + d)
        points = w.lower + rng.random((9, d)) * w.sides
        evals = w.lower + rng.random((13, d)) * w.sides
        evals[3] = points[5]  # an evaluation point on a pattern point
        pattern = PointPattern(w, points)
        frame = (w.lower, w.upper, metric)
        for h in RESPONSES:
            for field, reduce in ((additive_field, np.sum), (extremal_field, np.max)):
                expected = dense_field(evals, points, *frame, h, reduce)
                assert np.array_equal(field(pattern, h, evals).values, expected)

    @pytest.mark.parametrize("field", [additive_field, extremal_field])
    def test_memory_is_one_block(self, field):
        # The whole (1000, 1000, 2) offset array took 45.8 MB traced.
        w = periodic(30.0)
        rng = np.random.default_rng(8)
        pattern = PointPattern(w, rng.random((1000, 2)) * 30.0)
        evals = rng.random((1000, 2)) * 30.0
        tracemalloc.start()
        try:
            field(pattern, exponential_response(1.0), evals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def dense_coverage(pattern, r, grid_n):
    w = pattern.window
    centers = grid_centers(w, grid_n)
    return dense_coverage_counts(centers, pattern.points, w.lower, w.upper, w.metric, r)


class TestCoverageFieldAgainstDense:
    # The KD-tree cross query must give exactly the counts of the dense
    # (grid, n, d) broadcast, ties at distance r included.
    SPECS = {
        "poisson": homogeneous_poisson(1.0),
        "thomas": thomas_cluster(0.2, 5.0, 0.4),
    }

    @pytest.mark.parametrize("metric", ["periodic", "euclidean"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_random_patterns(self, name, d, metric):
        w = cube(40.0 if d == 1 else 7.0, d, origin=-1.3, metric=metric)
        grid_n = {1: 97, 2: 24, 3: 9}[d]
        for seed in range(3):
            pattern = sample(self.SPECS[name], w, STREAM.derive(40 + seed))
            for r in (0.0, 0.3, 1.0, 2.5):
                fs = coverage_field(pattern, r, grid_n)
                assert fs.values.dtype == np.float64
                assert np.array_equal(fs.values, dense_coverage(pattern, r, grid_n))

    @pytest.mark.parametrize("metric", ["periodic", "euclidean"])
    def test_points_exactly_at_r(self, metric):
        # Grid centres of [0, 4)^2 at n = 4 are 0.5 + integers; (1.5, 1.5) is
        # one of them and exactly 1 from four others, and (0.5, 2.0) is
        # exactly 0.5 from two.  The last point is one ulp beyond 0.5 from
        # (3.5, 2.5), within the query slack.
        points = np.array([[1.5, 1.5], [0.5, 2.0], [3.5, np.nextafter(3.0, 4.0)]])
        pattern = PointPattern(cube(4.0, 2, metric=metric), points)
        for r, covered in ((1.0, 9), (0.5, 4)):
            values = coverage_field(pattern, r, 4).values
            assert np.sum(values) == covered
            assert np.array_equal(values, dense_coverage(pattern, r, 4))

    def test_pairs_across_the_seam(self):
        # 3.9 is 0.6 from the centre 0.5 through the seam.
        pattern = PointPattern(periodic(4.0), np.array([[3.9, 0.5]]))
        values = coverage_field(pattern, 0.65, 4).values.reshape(4, 4)
        assert values[0, 0] == 1.0 and values[3, 0] == 1.0 and np.sum(values) == 2.0
        assert np.array_equal(values.ravel(), dense_coverage(pattern, 0.65, 4))

    def test_point_rounding_up_to_the_torus_side(self):
        # The largest double below 2.7, shifted by -(-1.3), rounds to the
        # full side 4.0; the point sits on the corner of the torus, about
        # 0.707 from the four grid centres around it.
        w = window_box((-1.3, 2.7), (-1.3, 2.7))
        top = np.nextafter(2.7, -np.inf)
        pattern = PointPattern(w, np.array([[top, top]]))
        assert pattern.points[0, 0] - w.lower[0] == w.sides[0]
        values = coverage_field(pattern, 0.75, 4).values
        assert np.sum(values) == 4.0
        assert np.array_equal(values, dense_coverage(pattern, 0.75, 4))

    def test_empty_pattern(self):
        pattern = PointPattern(periodic(4.0), np.empty((0, 2)))
        values = coverage_field(pattern, 1.0, 8).values
        assert values.dtype == np.float64 and not values.any()

    def test_zero_radius_counts_coincident_points(self):
        pattern = PointPattern(periodic(4.0), np.array([[0.5, 0.5], [0.5, 0.5], [0.7, 0.5]]))
        values = coverage_field(pattern, 0.0, 4).values
        assert values[0] == 2.0 and np.sum(values) == 2.0
        assert np.array_equal(values, dense_coverage(pattern, 0.0, 4))


class TestCoverageCurve:
    # Every radius reads the same replications and one query at the largest
    # radius, so each row equals the one-radius call ([r]).  Radii unsorted,
    # one repeated.
    SPECS = {
        "poisson": homogeneous_poisson(1.0),
        "thomas": thomas_cluster(0.2, 5.0, 0.4),
        "geometric_lattice": perturbed_lattice(0.93, geometric(0.5), uniform_in_cell()),
    }
    RADII = [0.8, 0.0, 0.4, 1.2, 0.8]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_each_radius_equals_the_one_radius_call(self, name, k):
        spec, w, stream = self.SPECS[name], periodic(8.0), STREAM.derive(60)
        curve = k_covered_volume(spec, w, self.RADII, k, 16, 6, stream)
        assert curve.abscissa == tuple(self.RADII)
        assert curve.estimates == tuple(
            k_covered_volume(spec, w, [r], k, 16, 6, stream).estimates[0] for r in self.RADII
        )
        assert curve.estimates[0].value > 0

    @pytest.mark.parametrize("metric", ["periodic", "euclidean"])
    def test_counts_match_the_dense_oracle_at_every_radius(self, metric):
        w = cube(7.0, 2, origin=-1.3, metric=metric)
        radii = [1.0, 0.0, 0.3, 2.5, 1.0]
        for name in sorted(self.SPECS):
            pattern = sample(self.SPECS[name], w, STREAM.derive(61))
            counts = shotnoise._coverage_counts(pattern, radii, 24)
            for row, r in zip(counts, radii):
                assert np.array_equal(row, dense_coverage(pattern, r, 24))

    def test_ties_at_each_radius(self):
        # The tie pattern of TestCoverageFieldAgainstDense, read at 0.5 and
        # 1.0 from one query at 1.0.
        points = np.array([[1.5, 1.5], [0.5, 2.0], [3.5, np.nextafter(3.0, 4.0)]])
        pattern = PointPattern(periodic(4.0), points)
        counts = shotnoise._coverage_counts(pattern, [1.0, 0.5], 4)
        assert counts.sum(axis=1).tolist() == [9, 4]
        for row, r in zip(counts, [1.0, 0.5]):
            assert np.array_equal(row, dense_coverage(pattern, r, 4))

    def test_rejects_a_bad_radius_before_sampling(self, monkeypatch):
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        with pytest.raises(ValueError, match="^radii must be non-negative$"):
            k_covered_volume(
                homogeneous_poisson(1.0), periodic(8.0), [0.5, -1.0], 1, 8, 4, STREAM
            )


class TestKCoveredVolume:
    def test_poisson_single_coverage(self):
        # P(covered) = 1 - exp(-lambda pi r^2); window volume 100.
        (est,) = k_covered_volume(
            homogeneous_poisson(1.0),
            periodic(10.0),
            [0.5],
            k=1,
            grid_n=64,
            reps=60,
            stream=STREAM,
        ).estimates
        exact = 100.0 * (1.0 - math.exp(-math.pi / 4.0))
        assert est.value == pytest.approx(exact, abs=3 * est.std_error)

    def test_full_volume_when_radius_covers_lattice(self):
        # Square lattice spacing 1: half-diagonal ~0.7071 covers everything.
        (est,) = k_covered_volume(
            square_lattice(1.0), periodic(4.0), [0.75], k=1, grid_n=32, reps=5, stream=STREAM
        ).estimates
        assert est.value == pytest.approx(16.0)
        assert est.std_error == 0.0

    def test_empty_process_covers_nothing(self):
        spec = perturbed_lattice(1.0, deterministic(0), uniform_in_cell())
        curve = k_covered_volume(spec, periodic(4.0), [0.5], k=1, grid_n=16, reps=5, stream=STREAM)
        assert curve.values().tolist() == [0.0]

    def test_monotone_in_k_and_r(self):
        # On a fixed seed the covered region shrinks with k and grows with r.
        w = periodic(6.0)
        values_k = [
            k_covered_volume(
                homogeneous_poisson(2.0), w, [0.5], k=k, grid_n=48, reps=8, stream=STREAM.derive(1)
            ).estimates[0].value
            for k in (1, 2, 3)
        ]
        assert values_k[0] >= values_k[1] >= values_k[2]
        values_r = [
            k_covered_volume(
                homogeneous_poisson(2.0), w, [r], k=1, grid_n=48, reps=8, stream=STREAM.derive(1)
            ).estimates[0].value
            for r in (0.2, 0.4, 0.8)
        ]
        assert values_r[0] <= values_r[1] <= values_r[2]

    def test_grid_refinement_converges(self):
        args = (homogeneous_poisson(1.0), periodic(10.0), [0.5], 1)
        coarse = k_covered_volume(*args, grid_n=64, reps=5, stream=STREAM.derive(2))
        fine = k_covered_volume(*args, grid_n=128, reps=5, stream=STREAM.derive(2))
        assert abs(coarse.values()[0] - fine.values()[0]) < 1.0

    def test_k_validated(self):
        with pytest.raises(ValueError, match="k must be"):
            k_covered_volume(
                homogeneous_poisson(1.0), periodic(4.0), [0.5], k=0, reps=2, stream=STREAM
            )

    @pytest.mark.parametrize("grid_n", [2.5, 2.0])
    def test_rejects_non_integer_grid_count_before_sampling(self, grid_n, monkeypatch):
        # grid_n=2.5 once reported 25.92 on a 36-area window against 18.0 at
        # 2 and 17.0 at 3: most of its 9 cell centres lay outside the window.
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        with pytest.raises(ValueError, match="^grid_n must be >= 1$"):
            k_covered_volume(
                homogeneous_poisson(1.0), periodic(6.0), [0.5], grid_n=grid_n, reps=4,
                stream=STREAM,
            )


    def test_rejects_torus_wide_radius_before_sampling(self, monkeypatch):
        monkeypatch.setattr(Sampler, "draw", _no_sampling)
        with pytest.raises(ValueError, match="below half the smallest window side"):
            k_covered_volume(
                homogeneous_poisson(1.0), periodic(8.0), [0.5, 5.0], reps=5, stream=STREAM
            )


class TestLevelExceedanceBound:
    def test_unit_ball_upper_tail(self):
        # Closed form a^{-a} e^{a-1} at the optimizer s = ln a.  Oracle:
        # tests/oracle_scripts/chernoff_bound_values.py.
        bound = level_exceedance_bound(1.0, indicator_ball(UNIT_AREA_RADIUS), 5.0, "min_above", 2)
        assert bound == pytest.approx(0.017471408010606157, rel=1e-6)
        bound3 = level_exceedance_bound(1.0, indicator_ball(UNIT_AREA_RADIUS), 3.0, "min_above", 2)
        assert bound3 == pytest.approx(0.2736687444048389, rel=1e-6)

    def test_unit_ball_lower_tail(self):
        bound = level_exceedance_bound(1.0, indicator_ball(UNIT_AREA_RADIUS), 0.2, "max_below", 2)
        assert bound == pytest.approx(0.61995249954617249, rel=1e-6)

    def test_exponential_response_quadrature(self):
        # Independent mpmath quadrature + golden-section oracle:
        # tests/oracle_scripts/chernoff_bound_values.py.
        bound = level_exceedance_bound(1.0, exponential_response(1.0), 10.0, "min_above", 2)
        assert bound == pytest.approx(0.035939000321953835, rel=1e-6)

    def test_tabulated_matches_indicator(self):
        # Near-step table reproduces the closed-form indicator bound.
        rho = UNIT_AREA_RADIUS
        tab = tabulated_response([0.0, rho, rho + 1e-9], [1.0, 1.0, 0.0])
        a = level_exceedance_bound(1.0, tab, 5.0, "min_above", 2)
        b = level_exceedance_bound(1.0, indicator_ball(rho), 5.0, "min_above", 2)
        assert a == pytest.approx(b, rel=1e-6)

    def test_vacuous_below_mean(self):
        # The mean field is lam * area = 1; Chernoff above a <= mean is 1.
        bound = level_exceedance_bound(1.0, indicator_ball(UNIT_AREA_RADIUS), 0.5, "min_above", 2)
        assert bound == 1.0

    def test_zero_intensity(self):
        assert level_exceedance_bound(0.0, indicator_ball(1.0), 5.0, "min_above", 2) == 0.0
        assert level_exceedance_bound(0.0, indicator_ball(1.0), 5.0, "max_below", 2) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="direction"):
            level_exceedance_bound(1.0, indicator_ball(1.0), 5.0, "sideways", 2)
        with pytest.raises(ValueError, match="positive"):
            level_exceedance_bound(1.0, indicator_ball(1.0), 0.0, "min_above", 2)
        with pytest.raises(ValueError, match="integrable"):
            level_exceedance_bound(1.0, power_law_response(1.5, 0.5), 5.0, "min_above", 2)

    def test_bounds_empirical_exceedance_of_sub_poisson_counts(self):
        # The additive field of an indicator response at the origin is the
        # ball count; for generators whose moments are Poisson-dominated the
        # empirical exceedance frequency must respect the Poisson Chernoff
        # bound (within binomial noise).
        w = periodic(6.0)
        a = 3.0
        bound = level_exceedance_bound(1.0, indicator_ball(UNIT_AREA_RADIUS), a, "min_above", 2)
        for spec in (
            perturbed_lattice(1.0, deterministic(1), uniform_in_cell()),
            homogeneous_poisson(1.0),
        ):
            reps = 600
            hits = 0
            for i in range(reps):
                pattern = sample(spec, w, STREAM.derive(3).derive(i))
                fs = additive_field(pattern, indicator_ball(UNIT_AREA_RADIUS), [[3.0, 3.0]])
                hits += fs.values[0] >= a
            freq = hits / reps
            se = math.sqrt(freq * (1 - freq) / reps)
            assert freq <= bound + 3 * se


class TestLevelExceedanceOverflow:
    # With h(0) above 709.78 / 64 the grid's largest s overflows e^{s h};
    # such an s bounds nothing and the infimum runs over the others.
    @pytest.mark.parametrize(
        "lam, h, a",
        [
            (1.0, power_law_response(3.0, 0.1), 20.0),
            (1.0, power_law_response(3.0, 0.2), 20.0),
            (1.0, power_law_response(3.0, 0.3), 20.0),
            (1.0, power_law_response(3.0, 0.4), 20.0),
            (1.0, tabulated_response([0.0, 0.5, 1.0], [12.0, 10.0, 0.0]), 200.0),
            (1.0, tabulated_response([0.0, 0.5, 1.0], [50.0, 10.0, 0.0]), 20.0),
            (1.0, tabulated_response([0.0, 0.5, 1.0], [50.0, 10.0, 0.0]), 200.0),
        ],
    )
    def test_bound_over_the_finite_grid(self, lam, h, a):
        bound = level_exceedance_bound(lam, h, a, "min_above", 2)
        assert 0.0 <= bound <= 1.0
        # The golden-section refinement only lowers the grid's minimum; the
        # log-bound is convex in s, so a fine grid finds the same infimum.
        finite_grid = chernoff_grid_bound(lam, h, a, 2, S_GRID)
        assert bound <= finite_grid * (1 + 1e-9)
        fine = chernoff_grid_bound(lam, h, a, 2, 2.0 ** np.linspace(-10.0, 6.0, 1281))
        assert bound == pytest.approx(fine, rel=1e-3)

    def test_vacuous_when_no_finite_s_bounds(self):
        h = power_law_response(3.0, 0.1)
        assert chernoff_grid_bound(1.0, h, 20.0, 2, S_GRID) == 1.0
        assert level_exceedance_bound(1.0, h, 20.0, "min_above", 2) == 1.0

    # A narrow power law (h(0) = eps^-3) makes quad report failure at some s
    # of the grid, where e^{s h} is a spike of height up to e^700 at r = 0.
    # Such an s bounds nothing and counts as +inf, as an overflowing one does.
    @pytest.mark.parametrize(
        "eps, a", [(0.05, 20.0), (0.03, 20.0), (0.05, 2000.0), (0.05, 20000.0)]
    )
    def test_bound_skips_a_failed_quadrature(self, eps, a):
        h = power_law_response(3.0, eps)
        bound = level_exceedance_bound(1.0, h, a, "min_above", 2)
        assert 0.0 <= bound <= 1.0
        assert bound <= chernoff_grid_bound(1.0, h, a, 2, S_GRID) * (1 + 1e-9)

    def test_a_failed_quadrature_raises_instead_of_warning(self):
        h = power_law_response(3.0, 0.05)
        with pytest.raises(ArithmeticError, match="does not converge"):
            shotnoise._exponential_moment_integral(h, 0.0625, 1, 2)


class TestLevelExceedanceGridEnds:
    # A grid minimum at either end of S_GRID is refined like one inside it.
    def test_a_minimum_at_the_bottom_of_the_grid_is_refined(self):
        # The log-bound is -1.74 at the grid's smallest s, 2^-10, and rises
        # from there; its minimum lies between 0 (where it is 0) and 2^-9.5.
        h = power_law_response(3.0, 0.05)
        bound = level_exceedance_bound(1.0, h, 2000.0, "min_above", 2)
        assert bound < 0.99 * chernoff_grid_bound(1.0, h, 2000.0, 2, S_GRID)
        fine = chernoff_grid_bound(1.0, h, 2000.0, 2, np.linspace(0.0, 2**-9.5, 4001)[1:])
        assert bound == pytest.approx(fine, rel=shotnoise._GOLDEN_RTOL)

    def test_a_minimum_below_the_grid_is_found(self):
        # The log-bound is +27.75 at 2^-10, the grid's smallest s, and above
        # 0 across the grid, but its slope at 0, lam * (integral of h) - a,
        # is 25 pi - 500 < 0: it dips to -0.121 at 2^-11.
        h = power_law_response(3.0, 0.04)
        assert chernoff_grid_bound(1.0, h, 500.0, 2, S_GRID) == 1.0
        bound = level_exceedance_bound(1.0, h, 500.0, "min_above", 2)
        fine = chernoff_grid_bound(1.0, h, 500.0, 2, np.linspace(0.0, 2**-9.5, 4001)[1:])
        assert fine == pytest.approx(0.874, abs=1e-3)
        assert bound == pytest.approx(fine, rel=shotnoise._GOLDEN_RTOL)

    def test_a_minimum_past_the_top_of_the_grid_is_refined(self):
        # A response this weak keeps the log-bound falling past s = 2^6.
        h = tabulated_response([0.0, 0.5, 1.0], [0.001, 0.0005, 0.0])
        bound = level_exceedance_bound(1.0, h, 0.01, "min_above", 2)
        assert bound < 1e-9 * chernoff_grid_bound(1.0, h, 0.01, 2, S_GRID)
        fine = chernoff_grid_bound(1.0, h, 0.01, 2, np.geomspace(2**6, 2**16, 8001))
        assert bound == pytest.approx(fine, rel=shotnoise._GOLDEN_RTOL)


# Two responses per kind.  Among them the narrow power law and the tall
# table overflow e^{s h} or fail quadrature inside the old grid, and the weak
# table's minimum lies past its top.  Power laws decay with beta = 4 so that
# they are integrable up to d = 3.
ORACLE_RESPONSES = [
    indicator_ball(UNIT_AREA_RADIUS),
    indicator_ball(0.3),
    exponential_response(1.0),
    exponential_response(5.0),
    power_law_response(4.0, 0.5),
    power_law_response(4.0, 0.03),
    tabulated_response([0.0, 0.5, 1.0], [50.0, 10.0, 0.0]),
    tabulated_response([0.0, 0.5, 1.0], [0.001, 0.0005, 0.0]),
]
# Levels as multiples of the mean field lam * (integral of h): each
# direction gets one vacuous level and two that it bounds.
ORACLE_LEVELS = {"min_above": (0.5, 2.0, 50.0), "max_below": (0.05, 0.5, 2.0)}


class TestLevelExceedanceOracle:
    # The walk from convexity against the retired grid-and-refine search.
    @pytest.mark.parametrize("direction", ["min_above", "max_below"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "h", ORACLE_RESPONSES, ids=lambda h: f"{h.kind}{h.params or h.table[1]}"
    )
    def test_matches_the_grid_search(self, h, d, direction):
        mean = shotnoise._radial_integral(h, float, d)
        for level in ORACLE_LEVELS[direction]:
            bound = level_exceedance_bound(1.0, h, level * mean, direction, d)
            oracle = grid_level_exceedance_bound(1.0, h, level * mean, direction, d)
            assert bound == pytest.approx(oracle, rel=1e-9, abs=0.0), level

    # The overflow, failed-quadrature and grid-end cases of the classes above.
    @pytest.mark.parametrize("direction", ["min_above", "max_below"])
    @pytest.mark.parametrize(
        "h, a",
        [
            (power_law_response(3.0, 0.1), 20.0),
            (tabulated_response([0.0, 0.5, 1.0], [50.0, 10.0, 0.0]), 200.0),
            (power_law_response(3.0, 0.05), 20.0),
            (power_law_response(3.0, 0.05), 2000.0),
            (power_law_response(3.0, 0.05), 20000.0),
            (power_law_response(3.0, 0.04), 500.0),
            (tabulated_response([0.0, 0.5, 1.0], [0.001, 0.0005, 0.0]), 0.01),
        ],
    )
    def test_matches_the_grid_search_at_its_edge_cases(self, h, a, direction):
        bound = level_exceedance_bound(1.0, h, a, direction, 2)
        oracle = grid_level_exceedance_bound(1.0, h, a, direction, 2)
        assert bound == pytest.approx(oracle, rel=1e-9, abs=0.0)


class TestLevelExceedanceWork:
    # Golden section evaluates its bracket (lower, s, s * _S_RATIO) again,
    # then the middle point once more; each s is integrated once.
    @pytest.mark.parametrize(
        "h, a",
        [
            (exponential_response(1.0), 10.0),
            (power_law_response(3.0, 0.05), 2000.0),
            (tabulated_response([0.0, 0.5, 1.0], [0.001, 0.0005, 0.0]), 0.01),
            (indicator_ball(UNIT_AREA_RADIUS), 3.0),
        ],
    )
    def test_no_exponent_is_integrated_twice(self, monkeypatch, h, a):
        expected = level_exceedance_bound(1.0, h, a, "min_above", 2)
        seen, integral = [], shotnoise._exponential_moment_integral

        def recorded(h, s, sign, d):
            seen.append(s)
            return integral(h, s, sign, d)

        monkeypatch.setattr(shotnoise, "_exponential_moment_integral", recorded)
        assert level_exceedance_bound(1.0, h, a, "min_above", 2) == expected < 1.0
        assert len(seen) == len(set(seen)) > 10


class TestSerialization:
    def test_coverage_csv(self):
        curve = CurveEstimate((0.5,), (EstimateWithError(54.5, 0.25, 60),))
        text = coverage_summary_to_csv(curve, 1)
        assert text == "r,k,volume,std_error\n0.5,1,54.5,0.25\n"
