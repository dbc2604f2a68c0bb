"""Thread-count invariance of the estimators built on the pair query.

Every replication derives its own stream, so running replications on two
threads must give exactly the single-thread results.
"""

import numpy as np
import pytest

import ppclust.procgen as pg
from ppclust.complexes import betti_scaling_experiment
from ppclust.core import RandomStream, cube
from ppclust.graphs import scaling_experiment
from ppclust.percolation import component_fraction_sweep, critical_radius, crossing_probability
from ppclust.summaries import pair_correlation, ripley_k

STREAM = RandomStream(4242)
POISSON = pg.homogeneous_poisson(1.2)
THOMAS = pg.thomas_cluster(0.3, 4.0, 0.4)
TORUS = cube(10.0, 2)
BOX = cube(10.0, 2, metric="euclidean")
GRID = np.linspace(0.2, 2.0, 10)

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
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_one_and_two_threads_agree_exactly(name):
    estimator = ESTIMATORS[name]
    assert estimator(1) == estimator(2)
