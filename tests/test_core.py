"""Geometry primitives, metrics, grids, and stream determinism."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppclust import core


class TestDistance:
    def test_euclidean_3_4_5(self):
        w = core.box((0, 10), (0, 10), metric="euclidean")
        assert core.distance((0, 0), (3, 4), w) == pytest.approx(5.0)

    def test_periodic_wraparound(self):
        w = core.box((0, 10), (0, 10), metric="periodic")
        assert core.distance((0.1, 0.1), (9.9, 0.1), w) == pytest.approx(0.2)

    def test_identity(self):
        w = core.cube(5.0, 3)
        assert core.distance((1, 2, 3), (1, 2, 3), w) == 0.0

    def test_dimension_mismatch(self):
        w = core.cube(1.0, 2)
        with pytest.raises(ValueError):
            core.distance((0.1, 0.1, 0.1), (0.2, 0.2, 0.2), w)


coords2 = st.tuples(
    st.floats(0, 10, allow_nan=False, width=32),
    st.floats(0, 10, allow_nan=False, width=32),
).map(lambda t: np.array(t, float) * (1 - 1e-7))


@settings(max_examples=200, deadline=None)
@given(a=coords2, b=coords2, c=coords2)
def test_distance_metric_properties(a, b, c):
    for metric in ("euclidean", "periodic"):
        w = core.box((0, 10), (0, 10), metric=metric)
        dab = core.distance(a, b, w)
        dba = core.distance(b, a, w)
        assert dab == pytest.approx(dba, abs=1e-12)
        dac = core.distance(a, c, w)
        dcb = core.distance(c, b, w)
        assert dab <= dac + dcb + 1e-9
    we = core.box((0, 10), (0, 10), metric="euclidean")
    wp = core.box((0, 10), (0, 10), metric="periodic")
    assert core.distance(a, b, wp) <= core.distance(a, b, we) + 1e-12


class TestVolume:
    def test_square(self):
        assert core.volume(core.cube(10.0, 2)) == pytest.approx(100.0)

    def test_unit_cube(self):
        assert core.volume(core.cube(1.0, 3)) == pytest.approx(1.0)

    def test_centered_square(self):
        assert core.volume(core.box((-2, 2), (-2, 2))) == pytest.approx(16.0)


class TestUnitBallVolume:
    def test_d1(self):
        assert core.unit_ball_volume(1) == pytest.approx(2.0)

    def test_d2(self):
        assert core.unit_ball_volume(2) == pytest.approx(math.pi)

    def test_d3(self):
        assert core.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            core.unit_ball_volume(0)


class TestGridCenters:
    def test_2x2(self):
        got = core.grid_centers(core.cube(2.0, 2), 2)
        expected = {(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)}
        assert {tuple(p) for p in got} == expected

    def test_single_cell_1d(self):
        got = core.grid_centers(core.cube(1.0, 1), 1)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(0.5)

    def test_1d_three_cells(self):
        got = core.grid_centers(core.cube(3.0, 1), 3)
        assert np.allclose(got[:, 0], [0.5, 1.5, 2.5])

    def test_row_major_order(self):
        got = core.grid_centers(core.cube(2.0, 2), 2)
        # Last axis varies fastest.
        assert np.allclose(got, [[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5]])

    def test_cell_cap(self):
        with pytest.raises(ValueError):
            core.grid_centers(core.cube(1.0, 8), 100)

    @pytest.mark.parametrize("n", [2.5, 2.0, math.nan])
    def test_rejects_non_integer_count(self, n):
        # 2.5 cells per axis once gave 9 centres, 5 of them outside the window.
        with pytest.raises(ValueError, match="^n_per_axis must be >= 1$"):
            core.grid_centers(core.cube(6.0, 2), n)


class TestWindow:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            core.box((0, 0), (1, 2))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            core.cube(1.0, 9)

    def test_half_open_membership(self):
        w = core.cube(1.0, 2)
        assert w.contains(np.array([[0.0, 0.0]]))[0]
        assert not w.contains(np.array([[1.0, 0.5]]))[0]

    def test_pattern_rejects_outside_points(self):
        w = core.cube(1.0, 2)
        with pytest.raises(ValueError):
            core.PointPattern(w, np.array([[1.5, 0.5]]))


class TestRandomStream:
    def test_derive_is_pure(self):
        s = core.RandomStream(12345)
        a = s.derive(7).generator().random(16)
        b = s.derive(7).generator().random(16)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        s = core.RandomStream(12345)
        a = s.derive(0).generator().random(16)
        b = s.derive(1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_nested_derivation_independent_of_order(self):
        s = core.RandomStream(99)
        direct = core.RandomStream(99, (3, 5))
        derived = s.derive(3).derive(5)
        assert np.array_equal(
            direct.generator().random(8), derived.generator().random(8)
        )

    @pytest.mark.parametrize("seed", [3.0, -1, 2**64, "7"])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        with pytest.raises(ValueError, match="^master_seed must be a 64-bit unsigned integer$"):
            core.RandomStream(seed)

    @pytest.mark.parametrize("index", [1.2, 1.7, 1.0, -1, np.float64(2.0)])
    def test_index_must_be_a_non_negative_integer(self, index):
        with pytest.raises(ValueError, match="^stream index must be >= 0$"):
            core.RandomStream(5).derive(index)
        with pytest.raises(ValueError, match="^stream index must be >= 0$"):
            core.RandomStream(5, (0, index))

    def test_numpy_integers_pass(self):
        s = core.RandomStream(np.uint64(5)).derive(np.int64(3))
        assert s == core.RandomStream(5).derive(3)
        assert np.array_equal(
            s.generator().random(8), core.RandomStream(5, (3,)).generator().random(8)
        )


class TestReplicate:
    STREAM = core.RandomStream(31)

    def test_results_in_index_order_on_derived_streams(self):
        out = core.replicate(12, self.STREAM, 1, lambda rep: rep)
        assert out == [self.STREAM.derive(i) for i in range(12)]

    def test_replication_values_come_from_their_own_stream(self):
        out = core.replicate(5, self.STREAM, 1, lambda rep: rep.generator().random())
        expected = [self.STREAM.derive(i).generator().random() for i in range(5)]
        assert out == expected

    def test_empty_replications_are_dropped(self):
        out = core.replicate(6, self.STREAM, 1, lambda rep: None if rep.path[-1] % 2 else rep.path)
        assert out == [(0,), (2,), (4,)]

    @pytest.mark.parametrize("reps", [1, 2, 7, 8])
    def test_half_empty_passes_and_one_more_raises(self, reps):
        def first_empty(count):
            return lambda rep: None if rep.path[-1] < count else rep.path[-1]

        half = reps // 2
        assert core.replicate(reps, self.STREAM, 1, first_empty(half)) == list(range(half, reps))
        with pytest.raises(ValueError, match=f"{half + 1} of {reps} replications were empty"):
            core.replicate(reps, self.STREAM, 1, first_empty(half + 1))

    def test_thread_count_does_not_change_results(self):
        def one(rep):
            value = rep.generator().random()
            return None if value < 0.2 else value

        serial = core.replicate(40, self.STREAM, 1, one)
        assert core.replicate(40, self.STREAM, 2, one) == serial
        assert len(serial) < 40

    @pytest.mark.parametrize("reps", [0, -3])
    def test_rejects_reps_below_one(self, reps):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            core.replicate(reps, self.STREAM, 1, lambda rep: 0.0)

    def test_rejects_missing_stream(self):
        with pytest.raises(ValueError, match="explicit RandomStream"):
            core.replicate(3, None, 1, lambda rep: 0.0)


class TestRunIndexed:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_first_failing_index_raises(self, threads):
        def fn(i):
            if i in (3, 5):
                raise ValueError(f"index {i}")
            return i

        with pytest.raises(ValueError, match="index 3"):
            core.run_indexed(8, fn, threads)


def test_sort_points_lexicographic():
    pts = np.array([[2.0, 1.0], [1.0, 5.0], [1.0, 2.0]])
    out = core.sort_points(pts)
    assert np.allclose(out, [[1.0, 2.0], [1.0, 5.0], [2.0, 1.0]])


def _brute_pairs(points, w, cutoff):
    """Pairs (i < j) within the cutoff, one distance call per pair."""
    n = points.shape[0]
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if core.distance(points[i], points[j], w) <= cutoff
    }


class TestNeighborPairs:
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force_in_every_dimension(self, d, metric):
        side = {1: 40.0, 2: 7.0, 3: 4.0}[d]
        w = core.cube(side, d, origin=-1.3, metric=metric)
        rng = np.random.default_rng(d)
        points = w.lower + rng.random((60, d)) * w.sides
        for cutoff in (0.3, 0.8, 1.5):
            pairs = core.neighbor_pairs(points, w, cutoff)
            assert pairs.dtype == np.int64 and pairs.shape[1] == 2
            assert np.all(pairs[:, 0] < pairs[:, 1])
            # Lexicographic, so also free of duplicates.
            assert np.all(np.diff(pairs[:, 0] * points.shape[0] + pairs[:, 1]) > 0)
            kept = pairs[core.pair_distances(points, pairs, w) <= cutoff]
            assert set(map(tuple, kept.tolist())) == _brute_pairs(points, w, cutoff)

    def test_point_rounding_up_to_the_torus_side(self):
        # -1.3 + 4 = 2.7, and the largest double below 2.7 minus -1.3
        # rounds to 4.0: the shifted point lands on the box side.
        w = core.box((-1.3, 2.7), (-1.3, 2.7))
        top = np.nextafter(2.7, -np.inf)
        points = np.array([[top, 0.0], [-1.3, 0.0], [0.5, 0.5], [top, top], [-1.3, -1.3]])
        assert points[0, 0] - w.lower[0] == w.sides[0]
        pairs = core.neighbor_pairs(points, w, 0.1)
        kept = pairs[core.pair_distances(points, pairs, w) <= 0.1]
        assert set(map(tuple, kept.tolist())) == _brute_pairs(points, w, 0.1)
        assert {(0, 1), (3, 4)} <= set(map(tuple, kept.tolist()))

    @pytest.mark.parametrize(
        "points, cutoff",
        [
            (np.empty((0, 2)), 1.0),
            (np.array([[1.0, 1.0]]), 1.0),
            (np.array([[1.0, 1.0], [1.5, 1.0]]), 0.0),
            (np.array([[1.0, 1.0], [1.5, 1.0]]), -1.0),
        ],
    )
    def test_empty_results(self, points, cutoff):
        pairs = core.neighbor_pairs(points, core.cube(4.0, 2), cutoff)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64

    def test_zero_cutoff_keeps_coincident_points(self):
        points = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
        pairs = core.neighbor_pairs(points, core.cube(4.0, 2), 0.0)
        assert pairs.tolist() == [[0, 2]]


def _brute_near(eval_points, points, w, cutoff, p):
    """(eval, point) pairs within the cutoff in the p-norm, one pair at a time."""
    out = set()
    for i, a in enumerate(eval_points):
        for j, b in enumerate(points):
            delta = core.min_image(np.abs(a - b), w)
            dist = np.max(delta) if p == np.inf else math.sqrt(float(np.sum(delta * delta)))
            if dist <= cutoff:
                out.add((i, j))
    return out


class TestNearPairs:
    @pytest.mark.parametrize("p", [2.0, np.inf])
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_superset_of_brute_force_in_every_dimension(self, d, metric, p):
        side = {1: 40.0, 2: 7.0, 3: 4.0}[d]
        w = core.cube(side, d, origin=-1.3, metric=metric)
        rng = np.random.default_rng(10 + d)
        eval_points = w.lower + rng.random((30, d)) * w.sides
        points = w.lower + rng.random((50, d)) * w.sides
        for cutoff in (0.3, 0.8, 1.5):
            pairs = core.near_pairs(eval_points, points, w, cutoff, p)
            assert pairs.dtype == np.int64 and pairs.shape[1] == 2
            found = set(map(tuple, pairs.tolist()))
            assert len(found) == pairs.shape[0]
            assert _brute_near(eval_points, points, w, cutoff, p) <= found

    @pytest.mark.parametrize(
        "eval_points, points, cutoff",
        [
            (np.empty((0, 2)), np.array([[1.0, 1.0]]), 1.0),
            (np.array([[1.0, 1.0]]), np.empty((0, 2)), 1.0),
            (np.array([[1.0, 1.0]]), np.array([[1.5, 1.0]]), -1.0),
        ],
    )
    def test_empty_results(self, eval_points, points, cutoff):
        pairs = core.near_pairs(eval_points, points, core.cube(4.0, 2), cutoff)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_zero_cutoff_keeps_coincident_points(self, p):
        eval_points = np.array([[1.0, 1.0], [3.0, 3.0]])
        points = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
        pairs = core.near_pairs(eval_points, points, core.cube(4.0, 2), 0.0, p)
        assert sorted(map(tuple, pairs.tolist())) == [(0, 0), (0, 2)]


class TestPairwiseDistances:
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_distance_entry_by_entry(self, d, metric):
        side = {1: 40.0, 2: 7.0, 3: 4.0}[d]
        w = core.cube(side, d, origin=-1.3, metric=metric)
        rng = np.random.default_rng(20 + d)
        points = w.lower + rng.random((13, d)) * w.sides
        others = w.lower + rng.random((9, d)) * w.sides
        for a, b in ((points, others), (points, points)):
            dist = core.pairwise_distances(a, w, b)
            assert dist.shape == (a.shape[0], b.shape[0])
            expected = [[core.distance(x, y, w) for y in b] for x in a]
            assert dist.tolist() == expected
        assert np.array_equal(core.pairwise_distances(points, w), dist)
        direct = np.sqrt(np.sum((points[:, None, :] - others[None, :, :]) ** 2, axis=2))
        # Some pair is nearer the other way round the torus.
        wrapped = core.pairwise_distances(points, w, others) < direct - 1e-9
        assert np.any(wrapped) == (metric == "periodic")

    @pytest.mark.parametrize("n, m", [(0, 4), (4, 0), (0, 0)])
    def test_empty_shapes(self, n, m):
        w = core.cube(4.0, 2)
        points = np.full((n, 2), 1.0)
        others = np.full((m, 2), 2.0)
        assert core.pairwise_distances(points, w, others).shape == (n, m)

    def test_cap_raises_before_allocating(self):
        n = math.isqrt(core.MAX_DENSE_ENTRIES // 2) + 1
        points = np.zeros((n, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{n} x {n} points in dimension 2.*MAX_DENSE"):
                core.pairwise_distances(points, core.cube(1.0, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the offsets alone would take 128 MiB

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", 24)
        w = core.cube(4.0, 3)
        points = np.ones((2, 3))
        assert core.pairwise_distances(points, w, np.ones((4, 3))).shape == (2, 4)
        with pytest.raises(ValueError, match="2 x 5 points.*MAX_DENSE_ENTRIES \\(24\\)"):
            core.pairwise_distances(points, w, np.ones((5, 3)))


class TestCsvText:
    FLOATS = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, -0.0, math.inf, math.nan]

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32])
    @pytest.mark.parametrize("value", FLOATS)
    def test_floats_round_trip(self, value, kind):
        with np.errstate(over="ignore"):  # float32(1.8e308) is inf
            x = kind(value)
        text = core.csv_text(["v"], [[x]])
        cell = text.split("\n")[1]
        back = float(cell)
        if math.isnan(x):
            assert math.isnan(back)
        else:
            # float32 cells go through the float they widen to, exactly.
            assert back == float(x)
            assert math.copysign(1.0, back) == math.copysign(1.0, float(x))
            assert kind(back) == x

    @pytest.mark.parametrize("value", [0.1, 1 / 3, 2.5, 1e-7, 3.4e38])
    def test_float32_keeps_field_csv_text(self, value):
        # field_to_csv wrote format(c, ".17g") of each float32 coordinate.
        x = np.float32(value)
        assert core.csv_text(["v"], [[x]]) == f"v\n{format(x, '.17g')}\n"

    def test_ints_are_exact(self):
        values = [0, -3, 2**63 - 1, np.int64(2**63 - 1), np.int64(-7)]
        text = core.csv_text(["a", "b", "c", "d", "e"], [values])
        assert text == "a,b,c,d,e\n0,-3,9223372036854775807,9223372036854775807,-7\n"

    def test_strings_verbatim(self):
        text = core.csv_text(["chain", "label"], [["sub", "binomial(10 0.3)"], ["", "0.1"]])
        assert text == "chain,label\nsub,binomial(10 0.3)\n,0.1\n"

    def test_no_rows_gives_header_only(self):
        assert core.csv_text(["r", "estimate"], []) == "r,estimate\n"
        assert core.csv_text(("i", "j"), iter(())) == "i,j\n"

    def test_single_lf_endings(self):
        text = core.csv_text(["x", "y"], [(1.5, 2), (np.float64(0.25), "a")])
        assert text == "x,y\n1.5,2\n0.25,a\n"
        assert "\r" not in text
        assert text.endswith("\n") and not text.endswith("\n\n")


class TestCheckNumber:
    PHRASES = {None: "finite", "pos": "positive", "nonneg": "non-negative", "unit": "in [0, 1]"}
    TINY, TINY32 = 5e-324, np.nextafter(np.float32(0), np.float32(1))
    ONE_UP, ONE_UP32 = np.nextafter(1.0, 2.0), np.nextafter(np.float32(1), np.float32(2))
    # (bound, values just inside, values just outside); NaN and +-inf are
    # outside every bound.
    CASES = [
        (None, [-1.7976931348623157e308, 0.0, 1.7976931348623157e308], []),
        ("pos", [TINY, 1.0], [0.0, -0.0, -TINY]),
        ("nonneg", [0.0, -0.0, TINY], [-TINY, -1.0]),
        ("unit", [0.0, 1.0, np.nextafter(1.0, 0.0)], [-TINY, ONE_UP]),
    ]
    CASES32 = [
        (None, [np.finfo(np.float32).max, np.float32(0)], []),
        ("pos", [TINY32], [np.float32(0), -TINY32]),
        ("nonneg", [np.float32(0), TINY32], [-TINY32]),
        ("unit", [np.float32(1)], [-TINY32, ONE_UP32]),
    ]
    NON_FINITE = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32])
    def test_floats_against_each_named_bound(self, kind):
        non_finite = [kind(v) for v in self.NON_FINITE]
        for bound, inside, outside in self.CASES32 if kind is np.float32 else self.CASES:
            for x in (kind(v) for v in inside):
                assert core.check_number("x", x, bound) is x
            phrase = re.escape(self.PHRASES[bound])
            for x in [kind(v) for v in outside] + non_finite:
                with pytest.raises(ValueError, match=rf"^the x must be {phrase}$"):
                    core.check_number("the x", x, bound)

    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_integers_against_an_int_floor(self, kind):
        for floor in (0, 1, 3):
            assert core.check_number("reps", kind(floor), floor) == floor
            assert core.check_number("reps", kind(floor + 5), floor) == floor + 5
            with pytest.raises(ValueError, match=f"^reps must be >= {floor}$"):
                core.check_number("reps", kind(floor - 1), floor)

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(4.0), np.float32(4.0)] + NON_FINITE)
    def test_int_floor_needs_an_integer(self, value):
        with pytest.raises(ValueError, match="^reps must be >= 1$"):
            core.check_number("reps", value, 1)

    def test_integers_pass_the_named_bounds(self):
        for bound in self.PHRASES:
            assert core.check_number("k", np.int64(1), bound) == 1
        with pytest.raises(ValueError, match="^k must be positive$"):
            core.check_number("k", np.int64(0), "pos")

    def test_huge_integers_do_not_overflow(self):
        # math.isfinite(10**400) raises OverflowError; integers skip it.
        assert core.check_number("k", 10**400, "nonneg") == 10**400
        assert core.check_number("k", 10**400, 0) == 10**400
        assert core.check_number("k", 10**400) == 10**400
        with pytest.raises(ValueError, match="^k must be non-negative$"):
            core.check_number("k", -(10**400), "nonneg")


@settings(max_examples=300, deadline=None)
@given(
    value=st.one_of(st.floats(), st.floats(width=32).map(np.float32)),
    bound=st.sampled_from([None, "pos", "nonneg", "unit", 0, 1]),
)
def test_check_number_accepts_exactly_the_finite_values_within_the_bound(value, bound):
    if isinstance(bound, int):
        expected = False  # a float never satisfies an integer floor
    else:
        inside = {None: True, "pos": value > 0, "nonneg": value >= 0, "unit": 0 <= value <= 1}
        expected = math.isfinite(value) and inside[bound]
    try:
        core.check_number("v", value, bound)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected
