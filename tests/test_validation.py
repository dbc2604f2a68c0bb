"""Every scalar parameter is checked by core.check_number, and every window
by core.check_window, before any work.

One table covers every public factory and parameter dataclass, with each of
their float parameters; a second covers the scalar arguments of the
estimators and kernels.  Each parameter is tried at NaN, +inf, -inf and at
values just outside its bound, and must raise ValueError at once:
``procgen.Sampler.draw``, the one way to draw a pattern, is replaced by a
function that fails.  A third table states the window contract of each
estimator and kernel: the metric it needs and the reach that must stay
below half the smallest side of a torus, and the windows its generator
cannot be drawn on.  A fourth gives float parameters an integer beyond the float
range, which must raise ValueError naming the parameter, not OverflowError.
"""

import math

import numpy as np
import pytest

import ppclust.compare as compare
import ppclust.complexes as complexes
import ppclust.dists as dists
import ppclust.graphs as graphs
import ppclust.percolation as percolation
import ppclust.procgen as pg
import ppclust.shotnoise as sn
import ppclust.summaries as summaries
from ppclust.core import PointPattern, RandomStream, box, cube

STREAM = RandomStream(1111)
TINY = 5e-324
NON_FINITE = [math.nan, math.inf, -math.inf]
# Values just outside each bound; NaN and +-inf are added to every row.
POS = [0.0, -TINY]
NONNEG = [-TINY]
UNIT = [-TINY, np.nextafter(1.0, 2.0)]
FINITE = []
PLACEMENTS = [0, -1, 2.5]  # an integer >= 1
THREADS = [0, -1, 2.5]  # an integer >= 1
ORDER = [0, -1, 5, 2.5]  # an integer factorial order between 1 and 4
ORDER_MAX = [1, 5, 2.5]  # an integer highest order between 2 and 4
DIM = [0, -1, 1.5]  # an integer dimension >= 1
N_LIST = [0, -4, 2.5]  # an integer window volume >= 1
BETTI_K = [-1, 3, 1.5]  # an integer Betti index between 0 and 2
MAX_DIM = [-1, 5, 1.5]  # an integer complex dimension between 0 and 4
SUBSET_K = [0, 5, 2.5]  # an integer subset size between 1 and 4
MOTIF_K = [1, 6, 2.0]  # an integer motif size between 2 and 5
CONCENTRATION_N = [15, 16.9, 64.0]  # an integer window volume >= 16

POISSON = pg.homogeneous_poisson(1.0)
BALL = sn.indicator_ball(1.0)
CELL = pg.uniform_in_cell()
ONE = dists.deterministic(1)


def _periodic():
    return cube(8.0, 2)


def _euclid():
    return cube(8.0, 2, metric="euclidean")


def _pattern(w):
    return PointPattern(w, np.array([[1.0, 1.0], [2.0, 1.5], [6.0, 6.0]]))


def _one(points):
    return 1.0


# (label, constructor of the parameter value, values just outside its bound)
FACTORIES = [
    ("homogeneous_poisson.lam", pg.homogeneous_poisson, NONNEG),
    ("square_lattice.delta", pg.square_lattice, POS),
    ("hex_lattice.delta", pg.hex_lattice, POS),
    ("bernoulli_lattice.delta", lambda x: pg.bernoulli_lattice(x, 0.5), POS),
    ("bernoulli_lattice.p", lambda x: pg.bernoulli_lattice(1.0, x), UNIT),
    ("perturbed_lattice.delta", lambda x: pg.perturbed_lattice(x, ONE, CELL), POS),
    ("matern_cluster.lam_p", lambda x: pg.matern_cluster(x, 2.0, 0.5), NONNEG),
    ("matern_cluster.mu", lambda x: pg.matern_cluster(1.0, x, 0.5), POS),
    ("matern_cluster.r_cl", lambda x: pg.matern_cluster(1.0, 2.0, x), POS),
    ("thomas_cluster.lam_p", lambda x: pg.thomas_cluster(x, 2.0, 0.5), NONNEG),
    ("thomas_cluster.mu", lambda x: pg.thomas_cluster(1.0, x, 0.5), POS),
    ("thomas_cluster.sigma", lambda x: pg.thomas_cluster(1.0, 2.0, x), POS),
    (
        "neyman_scott.lam_p",
        lambda x: pg.neyman_scott(x, ONE, pg.gaussian_displacement(0.5)),
        NONNEG,
    ),
    ("mixed_poisson.weight", lambda x: pg.mixed_poisson([(x, 1.0), (1.0, 2.0)]), NONNEG),
    ("mixed_poisson.lam", lambda x: pg.mixed_poisson([(0.5, x), (0.5, 2.0)]), NONNEG),
    ("log_gaussian_cox.mu_g", lambda x: pg.log_gaussian_cox(x, 0.5, 1.0, 8), FINITE),
    ("log_gaussian_cox.sigma", lambda x: pg.log_gaussian_cox(0.0, x, 1.0, 8), NONNEG),
    ("log_gaussian_cox.corr_length", lambda x: pg.log_gaussian_cox(0.0, 0.5, x, 8), POS),
    ("ginibre_truncated.radius", lambda x: pg.ginibre_truncated(5, x), POS),
    ("gaussian_displacement.sigma", pg.gaussian_displacement, POS),
    ("ball_displacement.rho", pg.ball_displacement, POS),
    ("Displacement.scale", lambda x: pg.Displacement("gaussian", x), POS),
    ("IntensityReport.value", lambda x: pg.IntensityReport(x), NONNEG),
    ("binomial.p", lambda x: dists.binomial(4, x), UNIT),
    ("poisson.lam", dists.poisson, NONNEG),
    ("neg_binomial.r", lambda x: dists.neg_binomial(x, 0.5), POS),
    ("neg_binomial.p", lambda x: dists.neg_binomial(2.0, x), [-TINY, 1.0]),
    ("geometric.p", dists.geometric, [0.0, np.nextafter(1.0, 2.0)]),
    ("mixture.weight", lambda x: dists.mixture([x, 1.0], [ONE, ONE]), NONNEG),
    ("indicator_ball.rho", sn.indicator_ball, POS),
    ("exponential_response.beta", sn.exponential_response, POS),
    ("power_law_response.beta", lambda x: sn.power_law_response(x, 0.5), POS),
    ("power_law_response.eps", lambda x: sn.power_law_response(3.0, x), POS),
    ("tabulated_response.radii[0]", lambda x: sn.tabulated_response([x, 1, 2], [2, 1, 0]), NONNEG),
    ("tabulated_response.radii[1]", lambda x: sn.tabulated_response([0, x, 2], [2, 1, 0]), []),
    ("tabulated_response.radii[-1]", lambda x: sn.tabulated_response([0, 1, x], [2, 1, 0]), []),
    ("tabulated_response.values[0]", lambda x: sn.tabulated_response([0, 1, 2], [x, 1, 0]), []),
    ("tabulated_response.values[-1]", lambda x: sn.tabulated_response([0, 1, 2], [2, 1, x]), NONNEG),
    ("SinrParams.power", lambda x: percolation.SinrParams(x, 0.1, 1.0, 0.5, BALL), POS),
    ("SinrParams.noise", lambda x: percolation.SinrParams(1.0, x, 1.0, 0.5, BALL), NONNEG),
    ("SinrParams.threshold", lambda x: percolation.SinrParams(1.0, 0.1, x, 0.5, BALL), POS),
    ("SinrParams.gamma", lambda x: percolation.SinrParams(1.0, 0.1, 1.0, x, BALL), NONNEG),
    ("summaries.ball.radius", summaries.ball, POS),
    ("summaries.box.side", summaries.box, POS),
    ("indicator_function.lower", lambda x: summaries.indicator_function([x, 0], [1, 1]), FINITE),
    ("indicator_function.upper", lambda x: summaries.indicator_function([0, 0], [x, 1]), FINITE),
    (
        "indicator_function.height",
        lambda x: summaries.indicator_function([0, 0], [1, 1], x),
        NONNEG,
    ),
]

ESTIMATORS = [
    (
        "critical_radius.tol",
        lambda x: percolation.critical_radius(POISSON, _euclid(), 5, x, STREAM),
        POS,
    ),
    ("gilbert_graph.r", lambda x: percolation.gilbert_graph(_pattern(_euclid()), x), [-1e-300]),
    ("rgg.r", lambda x: graphs.rgg(_pattern(_euclid()), x), [-1e-300]),
    (
        "vietoris_rips.r",
        lambda x: complexes.vietoris_rips(_pattern(_euclid()), x),
        [-1e-300],
    ),
    ("cech_complex.r", lambda x: complexes.cech_complex(_pattern(_euclid()), x), [-1e-300]),
    (
        "vietoris_rips.max_dim",
        lambda x: complexes.vietoris_rips(_pattern(_euclid()), 0.5, x),
        MAX_DIM,
    ),
    (
        "cech_complex.max_dim",
        lambda x: complexes.cech_complex(_pattern(_euclid()), 0.5, x),
        MAX_DIM,
    ),
    ("u_statistic.k", lambda x: graphs.u_statistic(_pattern(_euclid()), x, _one), SUBSET_K),
    (
        "u_statistic_pattern.k",
        lambda x: graphs.u_statistic_pattern(_pattern(_euclid()), x, _one),
        SUBSET_K,
    ),
    ("Motif.k", lambda x: graphs.Motif(x, np.ones((2, 2)) - np.eye(2)), MOTIF_K),
    (
        "concentration_check.n_list",
        lambda x: compare.concentration_check(POISSON, n_list=[64, x], reps=20, stream=STREAM),
        CONCENTRATION_N,
    ),
    ("coverage_field.r", lambda x: sn.coverage_field(_pattern(_euclid()), x, 4), NONNEG),
    # Grids: the bad value follows a good one.
    (
        "crossing_probability.radii",
        lambda x: percolation.crossing_probability(POISSON, _euclid(), [0.5, x], 5, STREAM),
        [-1e-300],
    ),
    (
        "component_fraction_sweep.radii",
        lambda x: percolation.component_fraction_sweep(POISSON, _periodic(), [0.5, x], 5, STREAM),
        NONNEG,
    ),
    (
        "ripley_k.r_grid",
        lambda x: summaries.ripley_k(POISSON, _periodic(), [1.0, x], 5, STREAM),
        NONNEG,
    ),
    (
        "pair_correlation.r_grid",
        lambda x: summaries.pair_correlation(POISSON, _periodic(), [1.0, x], 0.5, 5, STREAM),
        POS,
    ),
    ("close_pair_count.r", lambda x: summaries.close_pair_count(_pattern(_euclid()), x), NONNEG),
    (
        "k_covered_volume.radii",
        lambda x: sn.k_covered_volume(POISSON, _periodic(), [0.5, x], reps=5, stream=STREAM),
        NONNEG,
    ),
    (
        "k_percolation_crossing.radii",
        lambda x: percolation.k_percolation_crossing(POISSON, _euclid(), [0.5, x], reps=5,
                                                     stream=STREAM),
        NONNEG,
    ),
    (
        "check_percolation_bounds.r_hat",
        lambda x: percolation.check_percolation_bounds(x, 1.0),
        POS,
    ),
    ("check_percolation_bounds.lam", lambda x: percolation.check_percolation_bounds(0.5, x), POS),
    ("level_exceedance_bound.lam", lambda x: sn.level_exceedance_bound(x, BALL, 2.0), NONNEG),
    ("level_exceedance_bound.a", lambda x: sn.level_exceedance_bound(1.0, BALL, x), POS),
    (
        "ripley_k.threads",
        lambda x: summaries.ripley_k(POISSON, _periodic(), [1.0], 5, STREAM, threads=x),
        THREADS,
    ),
    (
        "pair_correlation.bandwidth",
        lambda x: summaries.pair_correlation(POISSON, _periodic(), [1.0], x, 5, STREAM),
        POS,
    ),
    (
        "void_probability.placements",
        lambda x: summaries.void_probability(POISSON, _periodic(), summaries.ball(1.0), x, 5,
                                             STREAM),
        PLACEMENTS,
    ),
    (
        "factorial_moment.placements",
        lambda x: summaries.factorial_moment(POISSON, _periodic(), 1.0, 2, x, 5, STREAM),
        PLACEMENTS,
    ),
    (
        "factorial_moment.k",
        lambda x: summaries.factorial_moment(POISSON, _periodic(), 1.0, x, 4, 5, STREAM),
        ORDER,
    ),
    (
        "count_variance.placements",
        lambda x: summaries.count_variance(POISSON, _periodic(), 1.0, x, 5, STREAM),
        PLACEMENTS,
    ),
    (
        "weak_poisson_test.placements",
        lambda x: compare.weak_poisson_test(POISSON, _periodic(), [0.5, 1.0], placements=x,
                                            reps=5, stream=STREAM),
        PLACEMENTS,
    ),
    (
        "weak_poisson_test.k_max",
        lambda x: compare.weak_poisson_test(POISSON, _periodic(), [0.5], k_max=x, reps=5,
                                            stream=STREAM),
        ORDER_MAX,
    ),
    (
        "weak_poisson_test.scales",
        lambda x: compare.weak_poisson_test(POISSON, _periodic(), [0.5, x], reps=5, stream=STREAM),
        POS,
    ),
    (
        "compare_two.scales",
        lambda x: compare.compare_two(POISSON, POISSON, _periodic(), "voids", [x], reps=5,
                                      stream=STREAM),
        POS,
    ),
    (
        "compare_two.k",
        lambda x: compare.compare_two(POISSON, POISSON, _periodic(), "factorial_moments", [0.5],
                                      k=x, reps=5, stream=STREAM),
        ORDER,
    ),
    (
        "compare_two.voids.k",
        lambda x: compare.compare_two(POISSON, POISSON, _periodic(), "voids", [0.5], k=x, reps=5,
                                      stream=STREAM),
        ORDER,
    ),
    (
        "compare_two.ripley_k.k",
        lambda x: compare.compare_two(POISSON, POISSON, _periodic(), "ripley_k", [0.5], k=x,
                                      reps=5, stream=STREAM),
        ORDER,
    ),
    (
        "compare_two.ripley_k.placements",
        lambda x: compare.compare_two(POISSON, POISSON, _periodic(), "ripley_k", [0.5],
                                      placements=x, reps=5, stream=STREAM),
        PLACEMENTS,
    ),
    (
        "scaling_experiment.r_rule",
        lambda x: graphs.scaling_experiment(POISSON, lambda n: x, [16], reps=2, stream=STREAM),
        POS,
    ),
    (
        "scaling_experiment.n_list",
        lambda x: graphs.scaling_experiment(POISSON, lambda n: 0.5, [16, x], reps=2, stream=STREAM),
        N_LIST,
    ),
    (
        "scaling_experiment.d",
        lambda x: graphs.scaling_experiment(POISSON, lambda n: 0.5, [16], reps=2, stream=STREAM,
                                            d=x),
        DIM,
    ),
    (
        "betti_scaling_experiment.r_rule",
        lambda x: complexes.betti_scaling_experiment(POISSON, lambda n: x, [16], reps=2,
                                                     stream=STREAM),
        POS,
    ),
    (
        "betti_scaling_experiment.n_list",
        lambda x: complexes.betti_scaling_experiment(POISSON, lambda n: 0.5, [16, x], reps=2,
                                                     stream=STREAM),
        N_LIST,
    ),
    (
        "betti_scaling_experiment.d",
        lambda x: complexes.betti_scaling_experiment(POISSON, lambda n: 0.5, [16], reps=2,
                                                     stream=STREAM, d=x),
        DIM,
    ),
    (
        "betti_scaling_experiment.k",
        lambda x: complexes.betti_scaling_experiment(POISSON, lambda n: 0.5, [16], k=x, reps=2,
                                                     stream=STREAM),
        BETTI_K,
    ),
    ("stop_loss.a", lambda x: dists.stop_loss(ONE, x), NONNEG),
]


def _cases(table):
    return [
        pytest.param(build, value, id=f"{label}={value!r}")
        for label, build, outside in table
        for value in NON_FINITE + outside
    ]


@pytest.fixture(autouse=True)
def _no_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a pattern before validating the parameters")

    monkeypatch.setattr(pg.Sampler, "draw", refuse)


@pytest.mark.parametrize("build, value", _cases(FACTORIES))
def test_factories_and_dataclasses_reject_out_of_bound_values(build, value):
    with pytest.raises(ValueError):
        build(value)


@pytest.mark.parametrize("build, value", _cases(ESTIMATORS))
def test_estimators_reject_out_of_bound_scalars_before_sampling(build, value):
    with pytest.raises(ValueError):
        build(value)


@pytest.mark.parametrize("table", [FACTORIES, ESTIMATORS], ids=["factories", "estimators"])
def test_in_bound_values_pass_validation(table):
    # Each row's builder is sound: a value inside every bound gets past the
    # parameter checks (an estimator then stops at the refused sample).
    inside = {
        "bernoulli_lattice.p": 0.5,
        "mixed_poisson.weight": 0.0,
        "mixed_poisson.lam": 2.0,
        "neg_binomial.p": 0.5,
        "geometric.p": 0.5,
        "mixture.weight": 0.0,
        "ripley_k.threads": 2,
        "void_probability.placements": 4,
        "factorial_moment.placements": 4,
        "factorial_moment.k": 2,
        "count_variance.placements": 4,
        "weak_poisson_test.placements": 4,
        "weak_poisson_test.k_max": 3,
        "compare_two.k": 2,
        "compare_two.voids.k": 2,
        "compare_two.ripley_k.k": 2,
        "compare_two.ripley_k.placements": 4,
        "scaling_experiment.n_list": 4,
        "scaling_experiment.d": 2,
        "betti_scaling_experiment.n_list": 4,
        "betti_scaling_experiment.d": 2,
        "betti_scaling_experiment.k": 1,
        "vietoris_rips.max_dim": 2,
        "cech_complex.max_dim": 2,
        "u_statistic.k": 2,
        "u_statistic_pattern.k": 2,
        "Motif.k": 2,
        "concentration_check.n_list": 16,
        "tabulated_response.radii[0]": 0.5,
        "tabulated_response.radii[1]": 1.5,
        "tabulated_response.radii[-1]": 3.0,
        "tabulated_response.values[0]": 3.0,
        "tabulated_response.values[-1]": 0.5,
    }
    for label, build, _ in table:
        value = inside.get(label, 0.25)
        try:
            build(value)
        except AssertionError as exc:
            assert "sampled a pattern" in str(exc), label


# Float parameters given an integer beyond the float range, where float()
# raises OverflowError: (label, call at that value, the parameter named).
HUGE = 10**400
HUGE_INTEGERS = [
    ("summaries.ball.radius", summaries.ball, "radius"),
    ("summaries.box.side", summaries.box, "side"),
    (
        "weak_poisson_test.scales",
        lambda x: compare.weak_poisson_test(POISSON, _periodic(), [0.5, x], reps=5, stream=STREAM),
        "scales",
    ),
    (
        "compare_two.scales",
        lambda x: compare.compare_two(POISSON, POISSON, _periodic(), "voids", [x], reps=5,
                                      stream=STREAM),
        "scales",
    ),
    (
        "component_fraction_sweep.radii",
        lambda x: percolation.component_fraction_sweep(POISSON, _periodic(), [0.1, x], 5, STREAM),
        "radii",
    ),
    (
        "scaling_experiment.n_list",
        lambda x: graphs.scaling_experiment(POISSON, lambda n: 0.5, [4, x], reps=5, stream=STREAM),
        "n_list",
    ),
    (
        "betti_scaling_experiment.n_list",
        lambda x: complexes.betti_scaling_experiment(POISSON, lambda n: 0.5, [4, x], reps=5,
                                                     stream=STREAM),
        "n_list",
    ),
    (
        "concentration_check.n_list",
        lambda x: compare.concentration_check(POISSON, n_list=[64, x], reps=5, stream=STREAM),
        "n_list",
    ),
]


@pytest.mark.parametrize(
    "build, name", [pytest.param(b, n, id=label) for label, b, n in HUGE_INTEGERS]
)
def test_integers_beyond_the_float_range_raise_value_error_naming_the_parameter(build, name):
    with pytest.raises(ValueError, match=f"^{name} must lie within the float range$"):
        build(HUGE)
    with pytest.raises(ValueError, match=f"^{name} must"):
        build(-HUGE)


# The window contract: (what the error names, the metric it needs or None,
# the call at reach rho on window w).  Each call turns rho into its own
# scale exactly: halving, doubling and the bandwidth 1 add no rounding.
CONTRACTS = [
    ("geometric graph", None, lambda w, rho: percolation.gilbert_graph(_pattern(w), rho / 2)),
    ("geometric graph", None, lambda w, rho: graphs.rgg(_pattern(w), rho)),
    ("geometric graph", None, lambda w, rho: complexes.vietoris_rips(_pattern(w), rho / 2)),
    (
        "component_fraction_sweep",
        None,
        lambda w, rho: percolation.component_fraction_sweep(POISSON, w, [rho / 2], 5, STREAM),
    ),
    ("coverage_field", None, lambda w, rho: sn.coverage_field(_pattern(w), rho, 4)),
    ("close_pair_count", None, lambda w, rho: summaries.close_pair_count(_pattern(w), rho)),
    (
        "k_covered_volume",
        None,
        lambda w, rho: sn.k_covered_volume(POISSON, w, [rho], reps=5, stream=STREAM),
    ),
    (
        "k_percolation_crossing",
        None,
        lambda w, rho: percolation.k_percolation_crossing(POISSON, w, [rho], reps=5,
                                                          stream=STREAM),
    ),
    ("ripley_k", "periodic", lambda w, rho: summaries.ripley_k(POISSON, w, [rho], 5, STREAM)),
    (
        "pair_correlation",
        "periodic",
        lambda w, rho: summaries.pair_correlation(POISSON, w, [rho - 1.0], 1.0, 5, STREAM),
    ),
    (
        "void_probability",
        "periodic",
        lambda w, rho: summaries.void_probability(
            POISSON, w, summaries.ball(rho), reps=5, stream=STREAM
        ),
    ),
    (
        "factorial_moment",
        "periodic",
        lambda w, rho: summaries.factorial_moment(POISSON, w, 2 * rho, 2, reps=5, stream=STREAM),
    ),
    (
        "count_variance",
        "periodic",
        lambda w, rho: summaries.count_variance(POISSON, w, 2 * rho, reps=5, stream=STREAM),
    ),
    (
        "weak_poisson_test",
        "periodic",
        lambda w, rho: compare.weak_poisson_test(POISSON, w, [rho], reps=5, stream=STREAM),
    ),
    (
        "compare_two",
        "periodic",
        lambda w, rho: compare.compare_two(POISSON, POISSON, w, "voids", [rho / 2, rho], reps=5,
                                           stream=STREAM),
    ),
    (
        "compare_two",
        "periodic",
        lambda w, rho: compare.compare_two(POISSON, POISSON, w, "factorial_moments",
                                           [2 * rho, rho], reps=5, stream=STREAM),
    ),
    (
        "compare_two",
        "periodic",
        lambda w, rho: compare.compare_two(POISSON, POISSON, w, "variance", [rho, 2 * rho],
                                           reps=5, stream=STREAM),
    ),
    (
        "compare_two",
        "periodic",
        lambda w, rho: compare.compare_two(POISSON, POISSON, w, "ripley_k", [rho / 2, rho],
                                           reps=5, stream=STREAM),
    ),
    (
        "crossing_probability",
        "euclidean",
        lambda w, rho: percolation.crossing_probability(POISSON, w, [rho / 2], 5, STREAM),
    ),
    (
        "critical_radius",
        "euclidean",
        lambda w, rho: percolation.critical_radius(POISSON, w, 5, 0.1, STREAM),
    ),
    ("cech_complex", "euclidean", lambda w, rho: complexes.cech_complex(_pattern(w), rho / 2)),
]
# A window whose smallest side is 8, so every torus reach must stay below 4.
HALF_SIDE = 4.0


def _rectangle(metric):
    return box((0.0, 8.0), (0.0, 12.0), metric=metric)


def _contracts(keep):
    # pytest numbers the three "geometric graph" ids apart.
    return [
        pytest.param(what, metric, call, id=what)
        for what, metric, call in CONTRACTS
        if keep(metric)
    ]


def _clears_the_contract(call):
    """Run a call that passes the window contract: an estimator then stops
    at the refused sample, and a kernel on a given pattern returns."""
    try:
        call()
    except AssertionError as exc:
        assert "sampled a pattern" in str(exc)


@pytest.mark.parametrize("what, metric, call", _contracts(lambda m: m is not None))
def test_wrong_metric_raises_before_sampling(what, metric, call):
    other = "euclidean" if metric == "periodic" else "periodic"
    name = "Euclidean" if metric == "euclidean" else metric
    with pytest.raises(ValueError, match=f"^{what} needs a {name} window$"):
        call(_rectangle(other), 2.0)


@pytest.mark.parametrize("what, metric, call", _contracts(lambda m: m != "euclidean"))
def test_torus_reach_of_half_the_smallest_side_raises_before_sampling(what, metric, call):
    message = rf"^{what}: reach 4 must stay below half the smallest window side \(4\)"
    with pytest.raises(ValueError, match=message):
        call(_rectangle("periodic"), HALF_SIDE)


@pytest.mark.parametrize("what, metric, call", _contracts(lambda m: m != "euclidean"))
def test_torus_reach_one_ulp_below_half_the_smallest_side_passes(what, metric, call):
    _clears_the_contract(lambda: call(_rectangle("periodic"), np.nextafter(HALF_SIDE, 0.0)))


@pytest.mark.parametrize("what, metric, call", _contracts(lambda m: m != "periodic"))
def test_euclidean_windows_have_no_reach_limit(what, metric, call):
    _clears_the_contract(lambda: call(_rectangle("euclidean"), HALF_SIDE))


# The spec x window contract: a generator that cannot be drawn on a window
# raises when procgen.prepare checks it, which every estimator does before
# it samples.  (label, spec, window, the error).  The LGCP specs have unit
# intensity (mu_g = -sigma^2 / 2), as concentration_check asks.
GINIBRE = pg.ginibre_truncated(20, 4.0)
LONG_LGCP = pg.log_gaussian_cox(-0.5, 1.0, 2.0, 32)
HUGE_LGCP = pg.log_gaussian_cox(-0.5, 1.0, 0.1, 1025)
SPEC_WINDOW = [
    ("ginibre-torus", GINIBRE, cube(8.0, 2),
     "^the non-stationary Ginibre process needs a Euclidean window$"),
    ("ginibre-3d", GINIBRE, cube(8.0, 3, metric="euclidean"), "^Ginibre requires d = 2$"),
    ("lgcp-torus-eigenvalue", LONG_LGCP, cube(8.0, 2), "negative eigenvalue on the torus"),
    ("lgcp-cox-cells-torus", HUGE_LGCP, cube(8.0, 2), "MAX_COX_CELLS"),
    ("lgcp-cox-cells-euclidean", HUGE_LGCP, cube(8.0, 2, metric="euclidean"), "MAX_COX_CELLS"),
]


def _poisson_like(spec, w):
    """A Poisson generator of the spec's intensity, for compare_two."""
    return pg.homogeneous_poisson(pg.intensity(spec, w=w).value)


# Every estimator that samples: (name, the metric it needs or None, its call
# on (spec, w)).  The scaling experiments and concentration_check make their
# own windows of volume 64 (side 8 in the plane) in the window's dimension.
SAMPLING = [
    ("ripley_k", "periodic", lambda s, w: summaries.ripley_k(s, w, [0.5], 5, STREAM)),
    (
        "pair_correlation",
        "periodic",
        lambda s, w: summaries.pair_correlation(s, w, [0.5], 0.2, 5, STREAM),
    ),
    (
        "void_probability",
        "periodic",
        lambda s, w: summaries.void_probability(s, w, summaries.ball(0.5), reps=5, stream=STREAM),
    ),
    (
        "factorial_moment",
        "periodic",
        lambda s, w: summaries.factorial_moment(s, w, 1.0, 2, reps=5, stream=STREAM),
    ),
    (
        "count_variance",
        "periodic",
        lambda s, w: summaries.count_variance(s, w, 1.0, reps=5, stream=STREAM),
    ),
    (
        "weak_poisson_test",
        "periodic",
        lambda s, w: compare.weak_poisson_test(s, w, [0.5], reps=5, stream=STREAM),
    ),
    (
        "compare_two",
        "periodic",
        lambda s, w: compare.compare_two(_poisson_like(s, w), s, w, "voids", [0.5], reps=5,
                                         stream=STREAM),
    ),
    (
        "compare_two-ripley_k",
        "periodic",
        lambda s, w: compare.compare_two(_poisson_like(s, w), s, w, "ripley_k", [0.5], reps=5,
                                         stream=STREAM),
    ),
    (
        "concentration_check",
        "periodic",
        lambda s, w: compare.concentration_check(s, n_list=[64], reps=20, stream=STREAM,
                                                 d=w.dim),
    ),
    (
        "laplace_functional",
        None,
        lambda s, w: summaries.laplace_functional(s, w, lambda x: np.zeros(len(x)), reps=5,
                                                  stream=STREAM),
    ),
    (
        "component_fraction_sweep",
        None,
        lambda s, w: percolation.component_fraction_sweep(s, w, [0.5], 5, STREAM),
    ),
    (
        "k_covered_volume",
        None,
        lambda s, w: sn.k_covered_volume(s, w, [0.5], reps=5, stream=STREAM),
    ),
    (
        "k_percolation_crossing",
        None,
        lambda s, w: percolation.k_percolation_crossing(s, w, [0.5], reps=5, stream=STREAM),
    ),
    (
        "crossing_probability",
        "euclidean",
        lambda s, w: percolation.crossing_probability(s, w, [0.5], 5, STREAM),
    ),
    (
        "critical_radius",
        "euclidean",
        lambda s, w: percolation.critical_radius(s, w, 5, 0.1, STREAM),
    ),
    (
        "scaling_experiment",
        "euclidean",
        lambda s, w: graphs.scaling_experiment(s, lambda n: 0.5, [64], reps=5, stream=STREAM,
                                               d=w.dim),
    ),
    (
        "betti_scaling_experiment",
        "euclidean",
        lambda s, w: complexes.betti_scaling_experiment(s, lambda n: 0.5, [64], reps=5,
                                                        stream=STREAM, d=w.dim),
    ),
]


def _spec_window_cases():
    # An estimator meets each row whose window it takes; concentration_check
    # takes only unit-intensity generators.
    return [
        pytest.param(spec, w, message, call, id=f"{label}-{name}")
        for label, spec, w, message in SPEC_WINDOW
        for name, metric, call in SAMPLING
        if metric in (None, w.metric)
        and (name != "concentration_check" or spec.family == "log_gaussian_cox")
    ]


@pytest.mark.parametrize("spec, w, message, call", _spec_window_cases())
def test_spec_window_errors_raise_before_sampling(spec, w, message, call):
    with pytest.raises(ValueError, match=message):
        call(spec, w)
