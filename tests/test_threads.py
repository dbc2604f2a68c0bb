"""Thread-count invariance and argument checks of every public estimator
that takes threads.

Every replication derives its own stream, so running replications on two
threads must give exactly the single-thread results.  Every replicated
estimator rejects a missing stream and a replication count below one
before it samples anything.
"""

import numpy as np
import pytest

import ppclust.procgen as pg
from ppclust.compare import compare_two, concentration_check, weak_poisson_test
from ppclust.complexes import betti_scaling_experiment
from ppclust.core import RandomStream, cube
from ppclust.graphs import scaling_experiment
from ppclust.percolation import (
    component_fraction_sweep,
    critical_radius,
    crossing_probability,
    k_percolation_crossing,
)
from ppclust.shotnoise import k_covered_volume
from ppclust.summaries import (
    Region,
    count_variance,
    factorial_moment,
    laplace_functional,
    pair_correlation,
    ripley_k,
    void_probability,
)

STREAM = RandomStream(4242)
POISSON = pg.homogeneous_poisson(1.2)
UNIT_POISSON = pg.homogeneous_poisson(1.0)
THOMAS = pg.thomas_cluster(0.3, 4.0, 0.4)
TORUS = cube(10.0, 2)
BOX = cube(10.0, 2, metric="euclidean")
GRID = np.linspace(0.2, 2.0, 10)
LGCP = pg.log_gaussian_cox(0.0, 1.0, 1.0, 8)
GINIBRE = pg.ginibre_truncated(20, 4.0)

# name -> (estimator, positional arguments, keyword arguments)
ESTIMATORS = {
    "component_fraction_sweep": (
        component_fraction_sweep,
        (THOMAS, TORUS, [0.2, 0.4, 0.6, 1.0]),
        dict(reps=8, stream=STREAM.derive(0)),
    ),
    "crossing_probability": (
        crossing_probability, (POISSON, BOX, [0.55]), dict(reps=8, stream=STREAM.derive(1))
    ),
    # One prepared Euclidean LGCP spectrum serves every replication's field.
    "lgcp_crossing_probability": (
        crossing_probability, (LGCP, BOX, [0.8]), dict(reps=8, stream=STREAM.derive(19))
    ),
    "critical_radius": (
        critical_radius, (POISSON, BOX), dict(reps=6, tol=0.1, stream=STREAM.derive(2))
    ),
    "ripley_k": (ripley_k, (THOMAS, TORUS, GRID), dict(reps=8, stream=STREAM.derive(3))),
    "pair_correlation": (
        pair_correlation, (THOMAS, TORUS, GRID), dict(reps=8, stream=STREAM.derive(4))
    ),
    "scaling_experiment": (
        scaling_experiment,
        (POISSON, lambda n: 0.8, [25, 64]),
        dict(reps=6, stream=STREAM.derive(5)),
    ),
    # The Ginibre sampler's Gaussian matrix comes from each pattern's stream.
    "ginibre_scaling_experiment": (
        scaling_experiment,
        (GINIBRE, lambda n: 1.5, [16, 36]),
        dict(reps=6, stream=STREAM.derive(16)),
    ),
    "betti_scaling_experiment": (
        betti_scaling_experiment,
        (POISSON, lambda n: 0.4, [25, 49]),
        dict(reps=6, stream=STREAM.derive(6)),
    ),
    # Each LGCP replication draws its own field from its own stream.
    "weak_poisson_test": (
        weak_poisson_test,
        (LGCP, TORUS, [0.5, 1.0]),
        dict(k_max=3, reps=8, stream=STREAM.derive(7)),
    ),
    "compare_two": (
        compare_two, (THOMAS, POISSON, TORUS), dict(reps=8, stream=STREAM.derive(8))
    ),
    "concentration_check": (
        concentration_check,
        (UNIT_POISSON,),
        dict(n_list=[64, 100], reps=20, stream=STREAM.derive(9)),
    ),
    "k_percolation_crossing": (
        k_percolation_crossing,
        (POISSON, TORUS, [0.6]),
        dict(k=2, grid_n=16, reps=8, stream=STREAM.derive(10)),
    ),
    "k_covered_volume": (
        k_covered_volume,
        (THOMAS, TORUS, [0.6]),
        dict(k=2, grid_n=16, reps=8, stream=STREAM.derive(11)),
    ),
    "void_probability": (
        void_probability,
        (THOMAS, TORUS, Region("ball", 0.8)),
        dict(reps=8, stream=STREAM.derive(12)),
    ),
    "factorial_moment": (
        factorial_moment, (THOMAS, TORUS, 1.5, 2), dict(reps=8, stream=STREAM.derive(13))
    ),
    "count_variance": (
        count_variance, (THOMAS, TORUS, 1.5), dict(reps=8, stream=STREAM.derive(14))
    ),
    "laplace_functional": (
        laplace_functional,
        (THOMAS, TORUS, lambda pts: 0.1 * np.ones(len(pts))),
        dict(reps=8, stream=STREAM.derive(15)),
    ),
    # The radius-grid curves: every radius from the same replications.
    "crossing_probability_grid": (
        crossing_probability,
        (POISSON, BOX, [0.55, 0.3, 0.8, 0.3]),
        dict(reps=8, stream=STREAM.derive(17)),
    ),
    "k_covered_volume_grid": (
        k_covered_volume,
        (THOMAS, TORUS, [0.6, 0.2, 1.0]),
        dict(k=2, grid_n=16, reps=8, stream=STREAM.derive(18)),
    ),
    "k_percolation_crossing_grid": (
        k_percolation_crossing,
        (POISSON, TORUS, [0.6, 1.2, 0.3, 1.2]),
        dict(k=2, grid_n=16, reps=8, stream=STREAM.derive(20)),
    ),
}
GRIDS = ["crossing_probability_grid", "k_covered_volume_grid", "k_percolation_crossing_grid"]
REPLICATED = sorted(name for name, (_, _, kwargs) in ESTIMATORS.items() if "reps" in kwargs)


def run(name, **overrides):
    estimator, args, kwargs = ESTIMATORS[name]
    return estimator(*args, **{**kwargs, **overrides})


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_one_and_two_threads_agree_exactly(name):
    assert run(name, threads=1) == run(name, threads=2)


@pytest.mark.parametrize("name", REPLICATED)
def test_rejects_missing_stream_and_nonpositive_reps_before_sampling(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before validating reps and stream")

    monkeypatch.setattr(pg.Sampler, "draw", refuse)
    with pytest.raises(ValueError, match="explicit RandomStream"):
        run(name, stream=None)
    for reps in (0, -3):
        with pytest.raises(ValueError, match="reps"):
            run(name, reps=reps)


@pytest.mark.parametrize("name", GRIDS)
def test_radius_grids_reject_no_radii_before_sampling(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before validating the radii")

    monkeypatch.setattr(pg.Sampler, "draw", refuse)
    estimator, (spec, w, _), kwargs = ESTIMATORS[name]
    with pytest.raises(ValueError, match="^radii must be a non-empty 1-d sequence$"):
        estimator(spec, w, [], **kwargs)


@pytest.mark.parametrize("name", ["scaling_experiment", "betti_scaling_experiment"])
def test_scaling_runs_validate_with_no_window_sizes(name):
    estimator = ESTIMATORS[name][0]
    with pytest.raises(ValueError, match="reps"):
        estimator(POISSON, lambda n: 0.8, [], reps=0, stream=STREAM)
    with pytest.raises(ValueError, match="explicit RandomStream"):
        estimator(POISSON, lambda n: 0.8, [], reps=4, stream=None)
