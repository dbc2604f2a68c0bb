"""Geometry primitives, metrics, grids, and stream determinism."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    balanced_count_near,
    balanced_near_pairs,
    dense_counts_in_regions,
    dense_distances,
    lexsorted_neighbor_pairs,
)
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


class TestReplicatePool:
    # The executor starts one OS thread per submit up to max_workers, so the
    # pool is replaced by a recorder of that cap which starts none.
    STREAM = core.RandomStream(37)

    @pytest.fixture
    def caps(self, monkeypatch):
        import concurrent.futures

        made = []

        class Recorder:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        return made

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_first_failing_index_raises(self, monkeypatch, caps, threads):
        def one(rep):
            if rep.path[-1] in (3, 5):
                raise ValueError(f"index {rep.path[-1]}")
            return rep.path[-1]

        monkeypatch.setattr(core.os, "cpu_count", lambda: 8)
        with pytest.raises(ValueError, match="index 3"):
            core.replicate(8, self.STREAM, threads, one)
        assert caps == ([] if threads == 1 else [threads])

    @pytest.mark.parametrize("threads", [math.nan, math.inf, 0, -3, 2.5])
    def test_out_of_bound_thread_count_raises_before_any_work(self, caps, threads):
        # A NaN worker cap would start no worker and wait forever.
        calls = []
        with pytest.raises(ValueError, match="^threads must be >= 1$"):
            core.replicate(8, self.STREAM, threads, calls.append)
        assert calls == [] and caps == []

    @pytest.mark.parametrize("threads", [1, 4])
    def test_empty_rule_holds_on_either_path(self, monkeypatch, caps, threads):
        def first_empty(count):
            return lambda rep: None if rep.path[-1] < count else rep.path[-1]

        monkeypatch.setattr(core.os, "cpu_count", lambda: 8)
        assert core.replicate(8, self.STREAM, threads, first_empty(4)) == [4, 5, 6, 7]
        with pytest.raises(ValueError, match="5 of 8 replications were empty"):
            core.replicate(8, self.STREAM, threads, first_empty(5))
        assert caps == ([] if threads == 1 else [threads, threads])

    @pytest.mark.parametrize(
        "threads, reps, cores, workers",
        [(64, 10, 4, 4), (3, 10, 8, 3), (64, 5, 8, 5), (2, 10, 2, 2), (64, 10, 1, None),
         (64, 10, None, None), (4, 1, 8, None)],
    )
    def test_pool_workers_are_capped_by_replications_and_cores(self, monkeypatch, caps, threads,
                                                               reps, cores, workers):
        monkeypatch.setattr(core.os, "cpu_count", lambda: cores)
        got = core.replicate(reps, self.STREAM, threads, lambda rep: rep.path[-1] ** 2)
        assert got == [i * i for i in range(reps)]
        assert caps == ([] if workers is None else [workers])

    @staticmethod
    def sized(points):
        """A one stage whose replication i has points[i] points, and a
        finish stage that records each chunk of indices it is given."""
        chunks = []

        def finish(items):
            chunks.append(items)
            return [10 * i for i in items]

        return (lambda rep: (points[rep.path[-1]], rep.path[-1])), finish, chunks

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "points, expected",
        [
            # Chunks that fill FINISH_POINTS exactly, one item past it, and
            # one item alone above it.
            ([4, 6, 1, 9, 1, 11, 3, 7], [[0, 1], [2, 3], [4], [5], [6, 7]]),
            # Items of 0 points join the chunk they meet, even a full one or
            # one above the bound, and never close it.
            ([0, 0, 20, 0, 5], [[0, 1, 2, 3], [4]]),
            ([3, 7, 0, 0, 1, 0], [[0, 1, 2, 3], [4, 5]]),
            ([0, 0, 0], [[0, 1, 2]]),
        ],
    )
    def test_chunks_close_by_points(self, monkeypatch, caps, threads, points, expected):
        monkeypatch.setattr(core.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(core, "FINISH_POINTS", 10)
        one, finish, chunks = self.sized(points)
        got = core.replicate(len(points), self.STREAM, threads, one, finish)
        assert got == [10 * i for i in range(len(points))]
        assert chunks == expected

    @pytest.mark.parametrize("threads", [1, 4])
    def test_empty_rule_holds_on_the_finish_results(self, monkeypatch, caps, threads):
        monkeypatch.setattr(core.os, "cpu_count", lambda: 8)
        one = lambda rep: (1, rep.path[-1])  # noqa: E731
        assert core.replicate(8, self.STREAM, threads, one, lambda items: [
            None if i < 4 else i for i in items]) == [4, 5, 6, 7]
        with pytest.raises(ValueError, match="5 of 8 replications were empty"):
            core.replicate(8, self.STREAM, threads, one, lambda items: [
                None if i < 5 else i for i in items])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("stage", ["one", "finish"])
    def test_first_failing_index_raises_from_either_stage(self, monkeypatch, caps, threads,
                                                          stage):
        monkeypatch.setattr(core.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(core, "FINISH_POINTS", 2)
        chunks = []

        def one(rep):
            i = rep.path[-1]
            if stage == "one" and i in (3, 5):
                raise ValueError(f"index {i}")
            return 1, i

        def finish(items):
            chunks.append(items)
            bad = [i for i in items if stage == "finish" and i in (3, 5)]
            if bad:
                raise ValueError(f"index {bad[0]}")
            return items

        with pytest.raises(ValueError, match="index 3"):
            core.replicate(8, self.STREAM, threads, one, finish)
        assert chunks == ([[0, 1]] if stage == "one" else [[0, 1], [2, 3]])


class TestReplicateWindow:
    # A real pool: the calling thread takes results in index order, and at
    # most _AHEAD x workers submitted replications wait for it.  With one
    # item per chunk, chunk [i] is finished once item i + 1 has closed it,
    # so serially exactly i + 2 replications have started by then.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_pool_runs_a_bounded_window_ahead_of_finish(self, monkeypatch, threads):
        monkeypatch.setattr(core.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(core, "FINISH_POINTS", 1)
        started, seen = [], []

        def one(rep):
            started.append(rep.path[-1])
            return 1, rep.path[-1]

        def finish(items):
            seen.append(len(started))
            return items

        got = core.replicate(200, core.RandomStream(38), threads, one, finish)
        assert got == list(range(200))
        if threads == 1:
            assert seen == [i + 2 for i in range(199)] + [200]
        else:
            window = core._AHEAD * threads
            assert seen[0] <= window + threads
            assert max(s - i for i, s in enumerate(seen)) <= window + threads

    def test_an_error_cancels_the_replications_not_yet_started(self, monkeypatch):
        # Replications 4 and 5 hold both workers while the calling thread
        # meets the error of replication 3, so none after them starts.
        monkeypatch.setattr(core.os, "cpu_count", lambda: 8)
        started = []

        def one(rep):
            started.append(rep.path[-1])
            if rep.path[-1] == 3:
                raise ValueError("index 3")
            if rep.path[-1] >= 4:
                time.sleep(0.5)
            return rep.path[-1]

        with pytest.raises(ValueError, match="index 3"):
            core.replicate(40, core.RandomStream(39), 2, one)
        assert sorted(started) == [0, 1, 2, 3, 4, 5]


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
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_superset_of_brute_force_in_every_dimension(self, d, metric):
        side = {1: 40.0, 2: 7.0, 3: 4.0}[d]
        w = core.cube(side, d, origin=-1.3, metric=metric)
        rng = np.random.default_rng(10 + d)
        eval_points = w.lower + rng.random((30, d)) * w.sides
        points = w.lower + rng.random((50, d)) * w.sides
        for cutoff in (0.3, 0.8, 1.5):
            pairs = core.near_pairs(eval_points, points, w, cutoff)
            assert pairs.dtype == np.int64 and pairs.shape[1] == 2
            found = set(map(tuple, pairs.tolist()))
            assert len(found) == pairs.shape[0]
            assert _brute_near(eval_points, points, w, cutoff, 2.0) <= found

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

    def test_zero_cutoff_keeps_coincident_points(self):
        eval_points = np.array([[1.0, 1.0], [3.0, 3.0]])
        points = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
        pairs = core.near_pairs(eval_points, points, core.cube(4.0, 2), 0.0)
        assert sorted(map(tuple, pairs.tolist())) == [(0, 0), (0, 2)]


class TestCountNear:
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_the_brute_force_pairs_in_every_dimension(self, d, metric):
        side = {1: 40.0, 2: 7.0, 3: 4.0}[d]
        w = core.cube(side, d, origin=-1.3, metric=metric)
        rng = np.random.default_rng(20 + d)
        eval_points = w.lower + rng.random((3, 30, d)) * w.sides
        points = w.lower + rng.random((50, d)) * w.sides
        balls = [(0.3, 2.0), (0.8, np.inf), (1.5, 2.0)]
        counts = core.count_near(eval_points, points, w, balls)
        assert counts.dtype == np.int64 and counts.shape == (3, 30)
        for row, c, (radius, p) in zip(counts, eval_points, balls):
            pairs = _brute_near(c, points, w, radius, p)
            assert row.tolist() == [sum(i == k for i, _ in pairs) for k in range(30)]

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_zero_radius_counts_coincident_points(self, p):
        eval_points = np.array([[[1.0, 1.0], [3.0, 3.0]]])
        points = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
        assert core.count_near(eval_points, points, core.cube(4.0, 2), [(0.0, p)]).tolist() == [
            [2, 0]
        ]

    def test_no_points_give_zero_counts(self):
        eval_points = np.array([[[1.0, 1.0], [3.0, 3.0]]] * 2)
        counts = core.count_near(eval_points, np.empty((0, 2)), core.cube(4.0, 2),
                                 [(1.0, 2.0), (1.0, np.inf)])
        assert counts.dtype == np.int64 and counts.tolist() == [[0, 0], [0, 0]]


@st.composite
def lattice_ties(draw):
    """Points on a lattice of `cells` steps per axis over a window at origin
    0, repeats allowed (coincident points), or uniform points; a cutoff and
    placements of lattice offsets, so pairs and region boundaries tie
    exactly; both metrics, dimension 1 to 3, and n = 0, 1 and 2 included."""
    d = draw(st.integers(1, 3))
    metric = draw(st.sampled_from(["euclidean", "periodic"]))
    step = draw(st.sampled_from([0.25, 0.3, 0.5, 1.0, 1 / 3]))
    cells = draw(st.integers(3, 8))
    w = core.cube(cells * step, d, metric=metric)
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 40))
    lattice = st.lists(st.integers(0, cells - 1), min_size=d, max_size=d)
    if draw(st.booleans()):
        points = np.array(draw(st.lists(lattice, min_size=n, max_size=n)), float).reshape(n, d)
        points *= step
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        points = w.lower + np.random.default_rng(seed).random((n, d)) * w.sides
    centers = np.array(draw(st.lists(lattice, min_size=1, max_size=8)), float) * step
    # A torus reach stays below half the side, as check_window asks.
    cutoff = step * draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    return w, points, centers, cutoff


class TestTreeShapeAndPairOrder:
    # The library builds its KD-trees by sliding midpoint with no node
    # shrinking and orders pairs by one integer key.  Neither may change a
    # result: the pairs equal the retired lexsort of a default balanced
    # tree's query, the cross-query candidates are that tree's, and the
    # counts are that tree's and the dense formula's, ties included.
    @settings(max_examples=300, deadline=None)
    @given(case=lattice_ties())
    def test_neighbor_pairs_equal_the_retired_lexsort_order(self, case):
        w, points, _, cutoff = case
        got = core.neighbor_pairs(points, w, cutoff)
        want = lexsorted_neighbor_pairs(points, w.lower, w.upper, w.metric, cutoff)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(case=lattice_ties())
    def test_near_pairs_are_the_balanced_trees_candidates(self, case):
        w, points, centers, cutoff = case
        got = core.near_pairs(centers, points, w, cutoff)
        found = set(map(tuple, got.tolist()))
        assert len(found) == got.shape[0]
        assert found == balanced_near_pairs(centers, points, w.lower, w.upper, w.metric, cutoff)
        assert _brute_near(centers, points, w, cutoff, 2.0) <= found

    @settings(max_examples=300, deadline=None)
    @given(case=lattice_ties(), kind=st.sampled_from(["ball", "box"]))
    def test_count_near_equals_the_balanced_tree_and_the_dense_formula(self, case, kind):
        w, points, centers, cutoff = case
        radius, p, size = (cutoff, 2.0, cutoff) if kind == "ball" else (cutoff, np.inf, 2 * cutoff)
        (got,) = core.count_near(centers[None], points, w, [(radius, p)])
        assert np.array_equal(
            got, balanced_count_near(centers, points, w.lower, w.upper, w.metric, radius, p)
        )
        dense = dense_counts_in_regions(centers, points, w.lower, w.upper, w.metric, kind, size)
        assert np.array_equal(got, dense)


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

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 3),
        metric=st.sampled_from(["euclidean", "periodic"]),
        side=st.floats(0.5, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_distances_give_the_same_floats(self, d, metric, side, seed):
        # The pair kernel squares with delta**2 and the dense one with
        # delta * delta; callers that swap one for the other (SINR) rely on
        # both giving the same float for every pair.
        w = core.cube(side, d, origin=-side / 3, metric=metric)
        rng = np.random.default_rng(seed)
        points = w.lower + rng.random((25, d)) * w.sides
        points[1] = points[0]
        i, j = np.triu_indices(points.shape[0], k=1)
        pairs = np.stack([i, j], axis=1)
        dense = core.pairwise_distances(points, w)
        assert np.array_equal(core.pair_distances(points, pairs, w), dense[i, j])
        assert np.array_equal(dense, dense.T)

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


class TestDenseRowBlocks:
    # pairwise_distances and reduce_distances compute the offsets one row
    # block of at most _DENSE_BLOCK_ENTRIES entries at a time; every block
    # size gives the floats of the whole offset array at once.
    @pytest.mark.parametrize("block", [1, 7, 64, core._DENSE_BLOCK_ENTRIES])
    @pytest.mark.parametrize("metric", ["euclidean", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_match_the_one_shot_oracle(self, monkeypatch, block, d, metric):
        monkeypatch.setattr(core, "_DENSE_BLOCK_ENTRIES", block)
        w = core.cube(5.0, d, origin=-1.3, metric=metric)
        rng = np.random.default_rng(40 + d)
        points = w.lower + rng.random((13, d)) * w.sides
        others = w.lower + rng.random((5, d)) * w.sides
        others[2] = points[4]
        frame = (w.lower, w.upper, metric)
        for a, b in ((points, others), (others, points), (points, points)):
            dist = dense_distances(a, b, *frame)
            assert np.array_equal(core.pairwise_distances(a, w, b), dist)
            for f in (np.sqrt, lambda x: np.exp(-x)):
                for reduce in (np.sum, np.max):
                    expected = reduce(f(dist), axis=1)
                    assert np.array_equal(core.reduce_distances(a, w, b, f, reduce), expected)

    @pytest.mark.parametrize("m, d, rows", [(5, 2, 6), (13, 3, 1), (40, 1, 1), (0, 2, 64)])
    def test_block_rows(self, monkeypatch, m, d, rows):
        # max(1, B // (m d)) rows per block, the last block holding the rest.
        monkeypatch.setattr(core, "_DENSE_BLOCK_ENTRIES", 64)
        w = core.cube(1.0, d)
        shapes = []

        def f(dist):
            shapes.append(dist.shape)
            return dist

        core.reduce_distances(np.zeros((13, d)), w, np.zeros((m, d)), f, np.sum)
        expected = [(min(rows, 13 - i), m) for i in range(0, 13, rows)]
        assert shapes == expected

    def test_empty_reductions(self):
        w = core.cube(4.0, 2)
        summed = core.reduce_distances(np.ones((3, 2)), w, np.empty((0, 2)), np.sqrt, np.sum)
        assert summed.tolist() == [0.0, 0.0, 0.0]
        none = core.reduce_distances(np.empty((0, 2)), w, np.ones((3, 2)), np.sqrt, np.max)
        assert none.shape == (0,)

    def test_reduction_cap_raises_before_any_block(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", 24)
        w = core.cube(4.0, 3)
        blocks = []

        def f(dist):
            blocks.append(dist.shape)
            return dist

        points = np.ones((2, 3))
        assert core.reduce_distances(points, w, np.ones((4, 3)), f, np.sum).shape == (2,)
        with pytest.raises(ValueError, match="2 x 5 points.*MAX_DENSE_ENTRIES \\(24\\)"):
            core.reduce_distances(points, w, np.ones((5, 3)), f, np.sum)
        assert blocks == [(2, 4)]

    def test_memory_is_the_result_plus_one_block(self):
        # The whole (1000, 1000, 2) offset array would take 16 MB per copy.
        w = core.cube(10.0, 2)
        points = w.lower + np.random.default_rng(7).random((1000, 2)) * w.sides
        tracemalloc.start()
        try:
            core.reduce_distances(points, w, points, np.sqrt, np.sum)
            reduced = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            core.pairwise_distances(points, w)
            dense = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reduced < 2**20
        assert dense < 1000 * 1000 * 8 + 2**20


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
        # A float32 cell keeps the text format(c, ".17g") gives it, as the
        # field CSVs of earlier versions wrote it.
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


class TestCheckRadii:
    def test_keeps_the_callers_order_and_repeats(self):
        for values in ([0.6, 0.2, 0.4, 0.2], (1, np.float32(0.5), np.int64(0)), np.array([0.0])):
            got = core.check_radii("radii", values)
            assert got.dtype == np.float64
            assert got.tolist() == [float(v) for v in values]
        assert core.check_radii("radii", (r for r in [0.6, 0.2, 0.6])).tolist() == [0.6, 0.2, 0.6]

    @pytest.mark.parametrize("bound, outside", [("nonneg", [-5e-324]), ("pos", [0.0, -1.0])])
    def test_every_value_is_checked_against_the_bound(self, bound, outside):
        phrase = TestCheckNumber.PHRASES[bound]
        for value in outside + TestCheckNumber.NON_FINITE:
            for values in ([value], [0.5, value], [value, 0.5, 0.5]):
                with pytest.raises(ValueError, match=f"^scales must be {phrase}$"):
                    core.check_radii("scales", values, bound)

    @pytest.mark.parametrize(
        "values", [[], (), np.empty(0), iter([]), 0.5, [[0.5, 1.0]], np.ones((2, 2))]
    )
    def test_needs_a_non_empty_1d_sequence(self, values):
        with pytest.raises(ValueError, match="^r_grid must be a non-empty 1-d sequence$"):
            core.check_radii("r_grid", values)

    def test_integers_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="^radii must lie within the float range$"):
            core.check_radii("radii", [0.5, 10**400])


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
