"""Sampler correctness: intensities, exact counts, determinism, mean-count bands."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import dense_field_covariance
from ppclust import core, dists, procgen
from ppclust.core import RandomStream


def counts_over_reps(spec, w, reps, seed=101):
    s = RandomStream(seed)
    return np.array(
        [len(procgen.sample(spec, w, s.derive(i))) for i in range(reps)], float
    )


class TestIntensity:
    def test_square_lattice(self):
        rep = procgen.intensity(procgen.square_lattice(0.5), d=2)
        assert rep.value == pytest.approx(4.0)

    def test_matern(self):
        rep = procgen.intensity(procgen.matern_cluster(2.0, 3.0, 0.1))
        assert rep.value == pytest.approx(6.0)

    def test_hex(self):
        rep = procgen.intensity(procgen.hex_lattice(1.0))
        assert rep.value == pytest.approx(2.0 / math.sqrt(3))

    def test_ginibre(self):
        rep = procgen.intensity(procgen.ginibre_truncated(16, 2.0))
        assert rep.value == pytest.approx(1.0 / math.pi)

    def test_binomial_needs_window(self):
        spec = procgen.binomial_process(50)
        with pytest.raises(ValueError):
            procgen.intensity(spec)
        w = core.cube(10.0, 2)
        assert procgen.intensity(spec, w=w).value == pytest.approx(0.5)

    def test_log_gaussian_cox(self):
        spec = procgen.log_gaussian_cox(0.2, 0.8, 1.0, 16)
        assert procgen.intensity(spec).value == pytest.approx(math.exp(0.2 + 0.32))


class TestSpecValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            procgen.homogeneous_poisson(-1.0)
        with pytest.raises(ValueError):
            procgen.square_lattice(0.0)
        with pytest.raises(ValueError):
            procgen.bernoulli_lattice(1.0, 1.5)

    def test_neyman_scott_rejects_cell_displacement(self):
        with pytest.raises(ValueError):
            procgen.neyman_scott(1.0, dists.poisson(2.0), procgen.uniform_in_cell())

    def test_ginibre_caps(self):
        with pytest.raises(ValueError):
            procgen.ginibre_truncated(10_000, 3.0)
        with pytest.raises(ValueError):
            procgen.ginibre_truncated(4, 3.0)  # R^2 > N

    def test_ginibre_window_constraints(self):
        spec = procgen.ginibre_truncated(16, 2.0)
        s = RandomStream(0)
        with pytest.raises(ValueError, match="needs a Euclidean window"):
            procgen.sample(spec, core.cube(4.0, 2, origin=-2.0, metric="periodic"), s)
        with pytest.raises(ValueError):
            procgen.sample(spec, core.cube(4.0, 3, origin=-2.0, metric="euclidean"), s)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            procgen.homogeneous_poisson(2.0),
            procgen.square_lattice(1.0),
            procgen.bernoulli_lattice(1.0, 0.5),
            procgen.perturbed_lattice(
                1.0, dists.poisson(1.0), procgen.uniform_in_cell()
            ),
            procgen.matern_cluster(1.0, 3.0, 0.3),
            procgen.mixed_poisson([(0.5, 1.0), (0.5, 3.0)]),
        ],
    )
    def test_same_stream_same_pattern(self, spec):
        w = core.cube(8.0, 2)
        s = RandomStream(77).derive(3)
        a = procgen.sample(spec, w, s)
        b = procgen.sample(spec, w, s)
        assert np.array_equal(a.points, b.points)

    def test_lgcp_patterns_survive_cache_eviction_across_threads(self):
        # Twelve window geometries sampled on four threads at a fine switch
        # interval: each pattern must equal its serial draw.
        spec = procgen.log_gaussian_cox(0.0, 0.8, 1.0, 8)
        jobs = [(core.cube(4.0 + i % 12, 2), RandomStream(31).derive(i)) for i in range(48)]
        serial = [procgen.sample(spec, w, s).points for w, s in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(
                    pool.map(lambda job: procgen.sample(spec, *job).points, jobs, timeout=60)
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_points_sorted(self):
        w = core.cube(8.0, 2)
        p = procgen.sample(procgen.homogeneous_poisson(2.0), w, RandomStream(5))
        assert np.array_equal(p.points, core.sort_points(p.points))


class TestExactCounts:
    def test_simple_perturbed_lattice_one_per_cell(self):
        spec = procgen.perturbed_lattice(
            1.0, dists.binomial(1, 1.0), procgen.uniform_in_cell()
        )
        w = core.cube(10.0, 2)
        p = procgen.sample(spec, w, RandomStream(3))
        assert len(p) == 100
        # one point per unit cell
        cells = np.floor(p.points).astype(int)
        assert len({tuple(c) for c in cells}) == 100

    def test_deterministic_zero_replication_empty(self):
        spec = procgen.perturbed_lattice(
            1.0, dists.deterministic(0), procgen.uniform_in_cell()
        )
        for i in range(5):
            p = procgen.sample(spec, core.cube(6.0, 2), RandomStream(9).derive(i))
            assert len(p) == 0

    def test_bernoulli_p1_equals_stationary_lattice(self):
        w = core.cube(9.0, 2)
        s = RandomStream(123).derive(4)
        lattice = procgen.sample(procgen.square_lattice(1.0, stationary=True), w, s)
        bern = procgen.sample(procgen.bernoulli_lattice(1.0, 1.0), w, s)
        assert np.array_equal(lattice.points, bern.points)

    def test_binomial_process_fixed_count(self):
        p = procgen.sample(procgen.binomial_process(37), core.cube(5.0, 2), RandomStream(1))
        assert len(p) == 37

    def test_hex_lattice_commensurate_window(self):
        # 10 columns, 12 rows of pitch sqrt(3)/2: exact intensity 2/sqrt(3)
        w = core.box((0, 10), (0, 12 * math.sqrt(3) / 2))
        p = procgen.sample(procgen.hex_lattice(1.0), w, RandomStream(8))
        assert len(p) == 120
        lam = procgen.intensity(procgen.hex_lattice(1.0)).value
        assert lam * core.volume(w) == pytest.approx(120.0, rel=1e-12)


MEAN_COUNT_CASES = [
    (procgen.homogeneous_poisson(2.0), core.cube(10.0, 2)),
    (procgen.homogeneous_poisson(0.5), core.cube(4.0, 3)),
    (procgen.square_lattice(1.0, stationary=True), core.cube(8.0, 2)),
    (procgen.bernoulli_lattice(1.0, 0.3), core.cube(8.0, 2)),
    (procgen.binomial_process(64), core.cube(8.0, 2)),
    (
        procgen.perturbed_lattice(1.0, dists.geometric(0.5), procgen.uniform_in_cell()),
        core.cube(8.0, 2),
    ),
    (
        procgen.perturbed_lattice(
            1.0, dists.poisson(1.0), procgen.gaussian_displacement(0.4)
        ),
        core.cube(8.0, 2),
    ),
    (procgen.matern_cluster(0.5, 4.0, 0.5), core.cube(8.0, 2)),
    (procgen.thomas_cluster(0.5, 4.0, 0.4), core.cube(8.0, 2)),
    (
        procgen.neyman_scott(0.5, dists.geometric(0.2), procgen.ball_displacement(0.5)),
        core.cube(8.0, 2),
    ),
    (procgen.mixed_poisson([(0.25, 1.0), (0.75, 3.0)]), core.cube(8.0, 2)),
    (procgen.log_gaussian_cox(0.0, 0.7, 1.0, 16), core.cube(8.0, 2)),
    (procgen.log_gaussian_cox(0.0, 0.7, 2.0, 16), core.cube(5.0, 2, metric="euclidean")),
]


@pytest.mark.parametrize("spec,w", MEAN_COUNT_CASES, ids=lambda v: getattr(v, "family", ""))
def test_mean_count_matches_intensity(spec, w):
    reps = 500
    counts = counts_over_reps(spec, w, reps)
    expected = procgen.intensity(spec, w=w).value * core.volume(w)
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - expected) <= 4 * se + 1e-6


class BasisNoise:
    """Stands in for the generator: each standard_normal call returns the
    next unit vector of the requested shape."""

    def __init__(self):
        self.calls = 0
        self.shape = None

    def standard_normal(self, shape):
        self.shape = shape
        e = np.zeros(shape)
        e.flat[self.calls] = 1.0
        self.calls += 1
        return e


def field_covariance(sigma, corr_length, grid_n, w):
    """The field's exact covariance, from its response to every unit noise
    vector, and the shape of the embedding torus."""
    noise = BasisNoise()
    columns = [procgen._gaussian_field(sigma, corr_length, grid_n, w, noise)]
    while noise.calls < math.prod(noise.shape):
        columns.append(procgen._gaussian_field(sigma, corr_length, grid_n, w, noise))
    a = np.array(columns).T
    return a @ a.T, noise.shape


class TestGaussianField:
    @pytest.mark.parametrize(
        "w, corr_length, grid_n, embedding",
        [
            (core.cube(6.0, 2), 1.0, 5, (5, 5)),
            (core.box((0.0, 4.0), (-1.0, 5.0)), 1.5, 4, (4, 4)),
            (core.cube(6.0, 3), 1.0, 4, (4, 4, 4)),
            (core.cube(5.0, 2, metric="euclidean"), 2.0, 4, (8, 8)),
            (core.cube(3.0, 2, metric="euclidean"), 2.0, 4, (16, 16)),
            (core.cube(4.0, 1, metric="euclidean"), 3.0, 6, (12,)),
            (core.cube(4.0, 3, metric="euclidean"), 1.0, 3, (6, 6, 6)),
        ],
    )
    def test_covariance_equals_dense_matrix(self, w, corr_length, grid_n, embedding):
        cov, shape = field_covariance(0.7, corr_length, grid_n, w)
        assert shape == embedding
        dense = dense_field_covariance(w, grid_n, 0.7, corr_length)
        assert np.max(np.abs(cov - dense)) <= 1e-12

    def test_lag_covariance_over_many_fields(self):
        sigma, corr_length, n = 0.8, 1.5, 16
        w = core.cube(8.0, 2)
        rng = RandomStream(404).generator()
        fields = np.array(
            [procgen._gaussian_field(sigma, corr_length, n, w, rng) for _ in range(400)]
        ).reshape(400, n, n)
        assert abs(fields.mean()) < 0.05
        for axis in (1, 2):
            for k in (0, 1, 2, 4, 8):
                lagged = np.mean(fields * np.roll(fields, k, axis=axis))
                expected = sigma**2 * math.exp(-k * 0.5 / corr_length)
                assert abs(lagged - expected) < 0.05

    def test_euclidean_sample_covariance_over_many_fields(self):
        w = core.cube(5.0, 2, metric="euclidean")
        rng = RandomStream(405).generator()
        fields = np.array([procgen._gaussian_field(0.8, 2.0, 8, w, rng) for _ in range(2000)])
        cov = fields.T @ fields / len(fields)
        assert np.max(np.abs(cov - dense_field_covariance(w, 8, 0.8, 2.0))) < 0.1

    def test_long_correlation_on_a_torus_raises_named_error(self):
        # The minimum-image exponential covariance is not positive
        # semi-definite when corr_length is long against the side.
        spec = procgen.log_gaussian_cox(0.0, 1.0, 2.0, 32)
        with pytest.raises(ValueError, match="negative eigenvalue on the torus"):
            procgen.sample(spec, core.cube(10.0, 2), RandomStream(1))

    def test_euclidean_window_embeds_four_times(self):
        spec = procgen.log_gaussian_cox(0.0, 1.0, 2.0, 32)
        w = core.cube(5.0, 2, metric="euclidean")
        noise = BasisNoise()
        procgen._gaussian_field(1.0, 2.0, 32, w, noise)
        assert noise.shape == (128, 128)
        p = procgen.sample(spec, w, RandomStream(2))
        assert len(p) > 0 and np.all(w.contains(p.points))

    @pytest.mark.parametrize(
        "spec, w",
        [
            # Doubling from 64 reaches 2048^2 cells before the eigenvalues
            # turn non-negative.
            (procgen.log_gaussian_cox(0.0, 1.0, 15.0, 32), core.cube(5.0, 2, metric="euclidean")),
            (procgen.log_gaussian_cox(0.0, 1.0, 0.1, 513), core.cube(5.0, 2, metric="euclidean")),
            (procgen.log_gaussian_cox(0.0, 1.0, 0.1, 1025), core.cube(5.0, 2)),
        ],
    )
    def test_embedding_over_the_cap_raises(self, spec, w):
        with pytest.raises(ValueError, match="MAX_COX_CELLS"):
            procgen.sample(spec, w, RandomStream(3))


class TestEuclideanMode:
    def test_cluster_halo_removes_edge_bias(self):
        # Without parent dilation the mean count near the boundary drops.
        spec = procgen.matern_cluster(1.0, 4.0, 0.5)
        w = core.cube(6.0, 2, metric="euclidean")
        counts = counts_over_reps(spec, w, 500)
        expected = 4.0 * core.volume(w)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - expected) <= 4 * se

    def test_perturbed_lattice_euclidean(self):
        spec = procgen.perturbed_lattice(
            1.0, dists.poisson(1.0), procgen.gaussian_displacement(0.5)
        )
        w = core.cube(8.0, 2, metric="euclidean")
        counts = counts_over_reps(spec, w, 500)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 64.0) <= 4 * se


class TestGinibre:
    # E[count] = 8.9999999999999921 for N=40, R=3, computed by
    # tests/oracle_scripts/ginibre_expected_count.py
    EXPECTED_COUNT = 8.9999999999999921

    def test_mean_count_and_repulsion(self):
        spec = procgen.ginibre_truncated(40, 3.0)
        w = core.box((-3.5, 3.5), (-3.5, 3.5), metric="euclidean")
        s = RandomStream(2024)
        counts = []
        min_gap = math.inf
        for i in range(200):
            p = procgen.sample(spec, w, s.derive(i))
            counts.append(len(p))
            if len(p) >= 2:
                dm = core.pairwise_distances(p.points, w)
                np.fill_diagonal(dm, math.inf)
                min_gap = min(min_gap, float(dm.min()))
            assert np.all(np.linalg.norm(p.points, axis=1) <= 3.0 + 1e-9)
        counts = np.array(counts, float)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - self.EXPECTED_COUNT) <= 4 * se
        assert min_gap > 1e-9

    def test_variance_below_mean(self):
        # Repulsion: count variance strictly below Poisson's (= mean).
        spec = procgen.ginibre_truncated(16, 2.0)
        w = core.box((-2.5, 2.5), (-2.5, 2.5), metric="euclidean")
        counts = counts_over_reps(spec, w, 300, seed=55)
        assert counts.var(ddof=1) < counts.mean()


class TestExerciseOneSmoke:
    def test_poisson_replication_gives_poisson_counts(self):
        # Poisson(1) replication + uniform-in-cell displacement should give
        # Poisson counts in sub-boxes that straddle cell boundaries.
        spec = procgen.perturbed_lattice(
            1.0, dists.poisson(1.0), procgen.uniform_in_cell()
        )
        w = core.cube(10.0, 2)
        s = RandomStream(31)
        reps = 600
        sub_counts = []
        for i in range(reps):
            p = procgen.sample(spec, w, s.derive(i))
            inside = np.all((p.points >= 0.3) & (p.points < 2.8), axis=1)
            sub_counts.append(int(inside.sum()))
        sub_counts = np.array(sub_counts, float)
        target = 2.5**2
        se_mean = sub_counts.std(ddof=1) / math.sqrt(reps)
        assert abs(sub_counts.mean() - target) <= 4 * se_mean
        # Poisson variance equals the mean; variance of the sample variance
        # for Poisson(m) is roughly (2m^2 + m)/n.
        se_var = math.sqrt((2 * target**2 + target) / reps)
        assert abs(sub_counts.var(ddof=1) - target) <= 4 * se_var


class TestSerialization:
    def test_csv_round_trip(self):
        p = procgen.sample(procgen.homogeneous_poisson(1.0), core.cube(5.0, 2), RandomStream(6))
        text = procgen.pattern_to_csv(p)
        lines = text.strip().split("\n")
        assert lines[0] == "x0,x1"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed, p.points)

    def test_metadata_mentions_spec_and_seed(self):
        spec = procgen.thomas_cluster(1.0, 2.0, 0.3)
        w = core.cube(5.0, 2)
        meta = procgen.pattern_metadata(spec, w, RandomStream(99).derive(1))
        assert "spec.family=thomas_cluster" in meta
        assert "seed=99" in meta
        assert "path=1" in meta
