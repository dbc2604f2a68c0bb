"""Every scalar parameter is checked by core.check_number, and every window
by core.check_window, before any work.

One table covers every public factory and parameter dataclass, with each of
their float parameters; a second covers the scalar arguments of the
estimators and kernels.  Each parameter is tried at NaN, +inf, -inf and at
values just outside its bound, and must raise ValueError at once: ``sample``
is replaced by a function that fails, in every module that imports it.  A
third table states the window contract of each estimator and kernel: the
metric it needs and the reach that must stay below half the smallest side
of a torus.
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
ORDER = [0, -1, 5, 2.5]  # an integer factorial order between 1 and 4
ORDER_MAX = [1, 5, 2.5]  # an integer highest order between 2 and 4
DIM = [0, -1, 1.5]  # an integer dimension >= 1
BETTI_K = [-1, 3, 1.5]  # an integer Betti index between 0 and 2

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
        "crossing_probability.r",
        lambda x: percolation.crossing_probability(POISSON, _euclid(), x, 5, STREAM),
        [-1e-300],
    ),
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
    ("coverage_field.r", lambda x: sn.coverage_field(_pattern(_euclid()), x, 4), NONNEG),
    (
        "k_covered_volume.r",
        lambda x: sn.k_covered_volume(POISSON, _periodic(), x, reps=5, stream=STREAM),
        NONNEG,
    ),
    (
        "k_percolation_crossing.r",
        lambda x: percolation.k_percolation_crossing(POISSON, _euclid(), x, reps=5, stream=STREAM),
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
        "scaling_experiment.r_rule",
        lambda x: graphs.scaling_experiment(POISSON, lambda n: x, [16], reps=2, stream=STREAM),
        POS,
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

    for module in (pg, summaries, percolation, sn, compare, graphs, complexes):
        monkeypatch.setattr(module, "sample", refuse)


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
        "void_probability.placements": 4,
        "factorial_moment.placements": 4,
        "factorial_moment.k": 2,
        "count_variance.placements": 4,
        "weak_poisson_test.placements": 4,
        "weak_poisson_test.k_max": 3,
        "compare_two.k": 2,
        "scaling_experiment.d": 2,
        "betti_scaling_experiment.d": 2,
        "betti_scaling_experiment.k": 1,
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
    (
        "k_covered_volume",
        None,
        lambda w, rho: sn.k_covered_volume(POISSON, w, rho, reps=5, stream=STREAM),
    ),
    (
        "k_percolation_crossing",
        None,
        lambda w, rho: percolation.k_percolation_crossing(POISSON, w, rho, reps=5, stream=STREAM),
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
        lambda w, rho: percolation.crossing_probability(POISSON, w, rho / 2, 5, STREAM),
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
