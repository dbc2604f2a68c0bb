"""Tests for clustering-comparison verdicts and the deviation-bound check."""

import math

import numpy as np
import pytest

from ppclust.compare import (
    ConcentrationRow,
    OrderingReport,
    ScaleComparison,
    _verdict,
    compare_two,
    concentration_check,
    concentration_to_csv,
    ordering_to_csv,
    overall_verdict,
    weak_poisson_test,
)
from ppclust.core import RandomStream, cube
from ppclust.dists import deterministic
from ppclust.procgen import (
    homogeneous_poisson,
    matern_cluster,
    mixed_poisson,
    perturbed_lattice,
    thomas_cluster,
    uniform_in_cell,
)
from ppclust.summaries import ball, void_probability

STREAM = RandomStream(55)


def periodic(side):
    return cube(side, 2, metric="periodic")


JITTERED_GRID = perturbed_lattice(1.0, deterministic(1), uniform_in_cell())


class TestVerdictMachinery:
    def test_all_small_is_inconclusive(self):
        assert _verdict([0.5, -1.2, 1.9]) == "inconclusive"

    def test_below_only_is_sub(self):
        assert _verdict([-5.0, -0.3, 1.0]) == "consistent_sub"

    def test_above_only_is_super(self):
        assert _verdict([0.1, 3.5, 2.1]) == "consistent_super"

    def test_mild_mixed_is_inconclusive(self):
        # Excursions in both directions, but none beyond the violation bar.
        assert _verdict([-3.0, 3.0]) == "inconclusive"

    def test_strong_mixed_is_violated(self):
        assert _verdict([-5.0, 5.0]) == "violated"
        assert _verdict([-2.5, 4.5]) == "violated"

    def test_infinite_z_from_zero_variance(self):
        assert _verdict([-math.inf, -1.0]) == "consistent_sub"

    def test_boundary_values_count_as_consistent(self):
        assert _verdict([2.0, -2.0]) == "inconclusive"

    def test_overall_combination(self):
        def report(verdict):
            return OrderingReport("voids", (), verdict)

        assert overall_verdict([report("consistent_sub"), report("inconclusive")]) == (
            "consistent_sub"
        )
        assert overall_verdict([report("consistent_sub"), report("consistent_super")]) == (
            "violated"
        )
        assert overall_verdict([report("inconclusive")] * 3) == "inconclusive"
        assert overall_verdict([report("violated"), report("consistent_sub")]) == "violated"


class TestWeakPoissonTest:
    def test_jittered_grid_is_sub(self):
        # One uniformly jittered point per cell: voids and factorial moments
        # both sit strictly below the Poisson reference at every scale.
        reports = weak_poisson_test(
            JITTERED_GRID, periodic(10.0), [0.25, 0.5, 1.0], k_max=3, reps=150, stream=STREAM
        )
        assert [r.statistic for r in reports] == [
            "voids",
            "factorial_moments(2)",
            "factorial_moments(3)",
        ]
        for r in reports:
            assert r.verdict == "consistent_sub"
        assert overall_verdict(reports) == "consistent_sub"

    def test_cluster_process_is_super(self):
        reports = weak_poisson_test(
            matern_cluster(0.25, 4.0, 0.3),
            periodic(10.0),
            [0.25, 0.5, 1.0],
            k_max=3,
            reps=150,
            stream=STREAM.derive(1),
        )
        for r in reports:
            assert r.verdict == "consistent_super"
        assert overall_verdict(reports) == "consistent_super"

    def test_poisson_is_inconclusive(self):
        reports = weak_poisson_test(
            homogeneous_poisson(1.0),
            periodic(10.0),
            [0.5, 1.0],
            k_max=2,
            reps=150,
            stream=RandomStream(42),
        )
        for r in reports:
            assert r.verdict == "inconclusive"
            assert np.all(np.abs(r.z_scores()) < 2.0)

    def test_references_are_poisson_closed_forms(self):
        reports = weak_poisson_test(
            homogeneous_poisson(2.0),
            periodic(8.0),
            [0.5],
            k_max=2,
            reps=10,
            stream=STREAM.derive(2),
        )
        voids, moments = reports
        assert voids.per_scale[0].reference == pytest.approx(math.exp(-2.0 * math.pi * 0.25))
        assert moments.per_scale[0].reference == pytest.approx((2.0 * 0.25) ** 2)

    def test_first_scale_void_is_void_probability(self):
        # Both draw the pattern from rep.derive(0) and the first ball's
        # centres first from rep.derive(1), so the estimates agree exactly.
        spec, w, stream = matern_cluster(0.25, 4.0, 0.3), periodic(8.0), STREAM.derive(4)
        voids = weak_poisson_test(spec, w, [0.5, 1.0], placements=16, reps=12, stream=stream)[0]
        alone = void_probability(spec, w, ball(0.5), placements=16, reps=12, stream=stream)
        assert voids.per_scale[0].estimate == alone.value

    def test_scale_must_fit(self):
        with pytest.raises(ValueError, match="below half the smallest window side"):
            weak_poisson_test(
                homogeneous_poisson(1.0), periodic(4.0), [2.5], reps=5, stream=STREAM
            )

    def test_k_max_validated(self):
        with pytest.raises(ValueError, match="k_max"):
            weak_poisson_test(
                homogeneous_poisson(1.0), periodic(8.0), [0.5], k_max=7, reps=5, stream=STREAM
            )

    def test_deterministic_and_thread_invariant(self):
        a = weak_poisson_test(
            JITTERED_GRID, periodic(8.0), [0.5], k_max=2, reps=24, stream=STREAM.derive(3)
        )
        b = weak_poisson_test(
            JITTERED_GRID, periodic(8.0), [0.5], k_max=2, reps=24, stream=STREAM.derive(3)
        )
        c = weak_poisson_test(
            JITTERED_GRID,
            periodic(8.0),
            [0.5],
            k_max=2,
            reps=24,
            stream=STREAM.derive(3),
            threads=4,
        )
        for x, y in ((a, b), (a, c)):
            for rx, ry in zip(x, y):
                assert rx == ry  # dataclass equality covers every field


class TestCompareTwo:
    def test_cluster_exceeds_poisson_in_second_moment(self):
        report = compare_two(
            matern_cluster(1.0, 1.0, 0.1),
            homogeneous_poisson(1.0),
            periodic(8.0),
            statistic="factorial_moments",
            scales=[0.1],
            k=2,
            reps=200,
            stream=STREAM,
        )
        assert report.statistic == "factorial_moments(2)"
        assert report.verdict == "consistent_super"
        assert report.per_scale[0].z > 2.0

    def test_direction_flips_with_argument_order(self):
        report = compare_two(
            homogeneous_poisson(1.0),
            matern_cluster(1.0, 1.0, 0.1),
            periodic(8.0),
            statistic="factorial_moments",
            scales=[0.1],
            k=2,
            reps=200,
            stream=STREAM,
        )
        assert report.verdict == "consistent_sub"

    def test_ripley_route(self):
        report = compare_two(
            thomas_cluster(1.0, 2.0, 0.1),
            homogeneous_poisson(2.0),
            periodic(8.0),
            statistic="ripley_k",
            scales=[0.2, 0.5],
            reps=100,
            stream=STREAM.derive(3),
        )
        assert report.verdict == "consistent_super"

    def test_variance_route_detects_sub(self):
        report = compare_two(
            JITTERED_GRID,
            homogeneous_poisson(1.0),
            periodic(8.0),
            statistic="variance",
            scales=[1.0, 2.0],
            reps=150,
            stream=STREAM.derive(4),
        )
        assert report.verdict == "consistent_sub"

    def test_same_generator_is_inconclusive(self):
        report = compare_two(
            homogeneous_poisson(1.0),
            homogeneous_poisson(1.0),
            periodic(8.0),
            statistic="voids",
            scales=[0.5],
            reps=200,
            stream=STREAM.derive(5),
        )
        assert report.verdict == "inconclusive"

    def test_intensity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1%"):
            compare_two(
                homogeneous_poisson(1.0),
                homogeneous_poisson(1.2),
                periodic(8.0),
                stream=STREAM,
            )

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError, match="statistic"):
            compare_two(
                homogeneous_poisson(1.0),
                homogeneous_poisson(1.0),
                periodic(8.0),
                statistic="nearest_neighbour",
                stream=STREAM,
            )


class TestConcentrationCheck:
    def test_jittered_grid_concentrates(self):
        # Counts of the jittered grid deviate by at most O(boundary), far
        # below n^0.75, so the bound holds with empirical frequency zero.
        rows = concentration_check(
            JITTERED_GRID, a=0.75, n_list=[64, 100, 256], reps=400, stream=STREAM.derive(6)
        )
        assert [r.status for r in rows] == ["holds", "holds", "holds"]
        assert all(r.empirical == 0.0 for r in rows)

    def test_overdispersed_mixture_fails(self):
        # A 50/50 mixture of rates 0.5 and 1.5 keeps unit intensity but
        # swings counts by about n/2, which dwarfs n^0.75.
        spec = mixed_poisson([(0.5, 0.5), (0.5, 1.5)])
        rows = concentration_check(spec, a=0.75, n_list=[64, 256], reps=300, stream=RandomStream(11))
        assert [r.status for r in rows] == ["fails", "fails"]
        assert rows[1].empirical > rows[1].bound

    def test_power_guard_skips_unresolvable_bounds(self):
        rows = concentration_check(
            homogeneous_poisson(1.0), a=0.9, n_list=[4096], reps=50, stream=STREAM.derive(7)
        )
        assert rows[0].status == "skipped"
        assert math.isnan(rows[0].empirical)
        assert rows[0].bound < 1e-30

    def test_exponent_range_validated(self):
        for a in (0.5, 1.0, 1.3):
            with pytest.raises(ValueError, match="exponent"):
                concentration_check(homogeneous_poisson(1.0), a=a, stream=STREAM)

    def test_minimum_volume_validated(self):
        with pytest.raises(ValueError, match="16"):
            concentration_check(homogeneous_poisson(1.0), n_list=[8], stream=STREAM)

    def test_unit_intensity_required(self):
        with pytest.raises(ValueError, match="unit intensity"):
            concentration_check(homogeneous_poisson(2.0), stream=STREAM)


class TestSerialization:
    def test_ordering_csv(self):
        report = OrderingReport(
            "voids",
            (ScaleComparison(0.5, 0.25, 0.5, -2.5), ScaleComparison(1.0, 1.0, 1.0, 0.0)),
            "consistent_sub",
        )
        text = ordering_to_csv(report)
        lines = text.split("\n")
        assert lines[0] == "scale,estimate,reference,z"
        assert lines[1] == "0.5,0.25,0.5,-2.5"
        assert lines[2] == "1,1,1,0"

    def test_concentration_csv(self):
        rows = [
            ConcentrationRow(64, 0.0, 0.8125, 0.0, "holds"),
            ConcentrationRow(256, math.nan, 1e-40, math.nan, "skipped"),
        ]
        text = concentration_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "n,empirical,bound,std_error,status"
        assert lines[1] == "64,0,0.8125,0,holds"
        assert lines[1].endswith("holds")
        assert lines[2].endswith("skipped")
