"""Thread-count invariance of every public estimator that takes threads.

Every replication derives its own stream, so running replications on two
threads must give exactly the single-thread results.
"""

import numpy as np
import pytest

import ppclust.procgen as pg
from ppclust.compare import compare_two, concentration_check, weak_poisson_test
from ppclust.complexes import betti_scaling_experiment
from ppclust.core import RandomStream, cube
from ppclust.graphs import induced_subgraph_count, named_motif, rgg, scaling_experiment
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
GRAPH = rgg(pg.sample(POISSON, BOX, STREAM.derive(99)), 1.5)

ESTIMATORS = {
    "component_fraction_sweep": lambda threads: component_fraction_sweep(
        THOMAS, TORUS, [0.2, 0.4, 0.6, 1.0], reps=8, stream=STREAM.derive(0), threads=threads
    ),
    "crossing_probability": lambda threads: crossing_probability(
        POISSON, BOX, 0.55, reps=8, stream=STREAM.derive(1), threads=threads
    ),
    "critical_radius": lambda threads: critical_radius(
        POISSON, BOX, reps=6, tol=0.1, stream=STREAM.derive(2), threads=threads
    ),
    "ripley_k": lambda threads: ripley_k(
        THOMAS, TORUS, GRID, reps=8, stream=STREAM.derive(3), threads=threads
    ),
    "pair_correlation": lambda threads: pair_correlation(
        THOMAS, TORUS, GRID, reps=8, stream=STREAM.derive(4), threads=threads
    ),
    "scaling_experiment": lambda threads: scaling_experiment(
        POISSON, lambda n: 0.8, [25, 64], reps=6, stream=STREAM.derive(5), threads=threads
    ),
    "betti_scaling_experiment": lambda threads: betti_scaling_experiment(
        POISSON, lambda n: 0.4, [25, 49], reps=6, stream=STREAM.derive(6), threads=threads
    ),
    # The LGCP replications share the cached field factorization.
    "weak_poisson_test": lambda threads: weak_poisson_test(
        LGCP, TORUS, [0.5, 1.0], k_max=3, reps=8, stream=STREAM.derive(7), threads=threads
    ),
    "compare_two": lambda threads: compare_two(
        THOMAS, POISSON, TORUS, reps=8, stream=STREAM.derive(8), threads=threads
    ),
    "concentration_check": lambda threads: concentration_check(
        UNIT_POISSON, n_list=[64, 100], reps=20, stream=STREAM.derive(9), threads=threads
    ),
    "k_percolation_crossing": lambda threads: k_percolation_crossing(
        POISSON, TORUS, 0.6, k=2, grid_n=16, reps=8, stream=STREAM.derive(10), threads=threads
    ),
    "k_covered_volume": lambda threads: k_covered_volume(
        THOMAS, TORUS, 0.6, k=2, grid_n=16, reps=8, stream=STREAM.derive(11), threads=threads
    ),
    "void_probability": lambda threads: void_probability(
        THOMAS, TORUS, Region("ball", 0.8), reps=8, stream=STREAM.derive(12), threads=threads
    ),
    "factorial_moment": lambda threads: factorial_moment(
        THOMAS, TORUS, 1.5, 2, reps=8, stream=STREAM.derive(13), threads=threads
    ),
    "count_variance": lambda threads: count_variance(
        THOMAS, TORUS, 1.5, reps=8, stream=STREAM.derive(14), threads=threads
    ),
    "laplace_functional": lambda threads: laplace_functional(
        THOMAS,
        TORUS,
        lambda pts: 0.1 * np.ones(len(pts)),
        reps=8,
        stream=STREAM.derive(15),
        threads=threads,
    ),
    "induced_subgraph_count": lambda threads: induced_subgraph_count(
        GRAPH, named_motif("path3"), threads=threads
    ),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_one_and_two_threads_agree_exactly(name):
    estimator = ESTIMATORS[name]
    assert estimator(1) == estimator(2)
