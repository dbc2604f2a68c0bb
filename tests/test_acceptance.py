"""End-to-end acceptance checks, one per documented guarantee.

Every test prints a single PASS/FAIL report line (written to the original
stdout so it survives pytest's capture) and then asserts, so the module both
reports and gates.  All tolerances are fixed constants here, and every Monte
Carlo check runs from a pinned seed, so the whole module is deterministic:
a pass today is a pass on every rerun.
"""

import math
import sys
import time

import numpy as np
import pytest

from oracles import (
    brute_force_gilbert_edges,
    brute_force_motif_count,
    naive_betti_numbers,
    ordered_tuple_sum,
)
from ppclust import cli, compare, complexes, dists, graphs, percolation
from ppclust import procgen, shotnoise, summaries
from ppclust.core import PointPattern, RandomStream, box, cube

THREADS = 4
ACC = RandomStream(424242)

POISSON = procgen.homogeneous_poisson(1.0)
# A unit lattice whose cells each receive a Poisson(1) number of uniformly
# placed points is itself a homogeneous Poisson process, so it must be
# statistically indistinguishable from one.
JITTERED_POISSON_LATTICE = procgen.perturbed_lattice(
    1.0, dists.poisson(1.0), procgen.uniform_in_cell()
)
# One point per cell, uniformly displaced: the standard sub-Poisson lattice.
JITTERED_LATTICE = procgen.perturbed_lattice(
    1.0, dists.deterministic(1), procgen.uniform_in_cell()
)


_UNCAPTURE = None


@pytest.fixture(autouse=True)
def _live_reporting(capfd):
    """Let _report reach the real terminal even under fd-level capture."""
    global _UNCAPTURE
    _UNCAPTURE = capfd.disabled
    yield
    _UNCAPTURE = None


def _report(label: str, ok: bool, detail: str = "") -> str:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    if _UNCAPTURE is None:
        print(line, file=sys.__stdout__, flush=True)
    else:
        with _UNCAPTURE():
            print(line, flush=True)
    return line


def test_poisson_ripley_k_matches_closed_form():
    r_grid = (0.2, 0.4, 0.6, 0.8, 1.0)
    curve = summaries.ripley_k(
        POISSON,
        cube(20.0, 2, metric="periodic"),
        r_grid,
        reps=200,
        stream=ACC.derive(1),
        threads=THREADS,
    )
    values, errors = curve.values(), curve.std_errors()
    z_scores = [
        (v - math.pi * r * r) / s for r, v, s in zip(r_grid, values, errors)
    ]
    rel_at_one = abs(values[-1] - math.pi) / math.pi
    ok = max(abs(z) for z in z_scores) <= 3.0 and rel_at_one <= 0.05
    line = _report(
        "ripley-k-closed-form",
        ok,
        f"max |z| = {max(abs(z) for z in z_scores):.2f} over r = {r_grid}, "
        f"relative error at r=1 is {rel_at_one:.3%}",
    )
    assert ok, line


def test_poisson_void_moment_and_laplace_match_closed_forms():
    w = cube(10.0, 2, metric="periodic")
    stream = RandomStream(909090)

    void = summaries.void_probability(
        POISSON, w, summaries.ball(0.5), reps=300,
        stream=stream.derive(1), threads=THREADS,
    )
    z_void = (void.value - math.exp(-math.pi / 4)) / void.std_error

    moment = summaries.factorial_moment(
        POISSON, w, 1.0, 2, reps=300, stream=stream.derive(2), threads=THREADS
    )
    z_moment = (moment.value - 1.0) / moment.std_error

    # E exp(-sum f) and E exp(+sum f) for the indicator of a unit box have
    # the closed forms exp(-(1 - 1/e)) and exp(e - 1) under Poisson(1).
    f = summaries.indicator_function([0.0, 0.0], [1.0, 1.0])
    lap_minus = summaries.laplace_functional(
        POISSON, w, f, sign="minus", reps=400,
        stream=stream.derive(3), threads=THREADS,
    )
    z_minus = (
        lap_minus.value - math.exp(-(1.0 - math.exp(-1.0)))
    ) / lap_minus.std_error
    lap_plus = summaries.laplace_functional(
        POISSON, w, f, sign="plus", reps=400,
        stream=stream.derive(4), threads=THREADS,
    )
    z_plus = (lap_plus.value - math.exp(math.e - 1.0)) / lap_plus.std_error

    zs = {"void": z_void, "moment": z_moment, "lap-": z_minus, "lap+": z_plus}
    ok = all(abs(z) <= 3.0 for z in zs.values())
    line = _report(
        "poisson-summaries",
        ok,
        ", ".join(f"{name} z = {z:+.2f}" for name, z in zs.items()),
    )
    assert ok, line


def test_convex_order_chains_hold_and_reversals_fail():
    start = time.perf_counter()
    # Dispersion increases left to right in both chains: a hypergeometric,
    # then binomials with growing trial count, up to Poisson; and from
    # Poisson through negative binomials with shrinking shape to a
    # geometric and a two-component geometric mixture (weights over
    # success probabilities chosen so every law keeps mean 1).
    sub_side = [
        dists.hypergeometric(6, 3, 2),
        dists.binomial(2, 0.5),
        dists.binomial(3, 1.0 / 3.0),
        dists.binomial(4, 0.25),
        dists.poisson(1.0),
    ]
    super_side = [
        dists.poisson(1.0),
        dists.neg_binomial(2, 1.0 / 3.0),
        dists.neg_binomial(1, 0.5),
        dists.geometric(0.5),
        dists.mixture(
            [0.5, 0.5], [dists.geometric(0.4), dists.geometric(2.0 / 3.0)]
        ),
    ]

    problems = []
    forward = [(a, b) for chain in (sub_side, super_side)
               for a, b in zip(chain, chain[1:])]
    worst_slack = math.inf
    for lower, upper in forward:
        verdict = dists.check_cx(lower, upper)
        if verdict.status != "holds":
            problems.append(f"{lower!r} vs {upper!r}: {verdict.status}")
        a_max = max(dists.support_upper(lower), dists.support_upper(upper))
        slack = min(
            dists.stop_loss(upper, a) - dists.stop_loss(lower, a)
            for a in np.arange(0.0, a_max + 0.5, 0.5)
        )
        worst_slack = min(worst_slack, slack)
        if slack < -1e-12:
            problems.append(f"slack {slack:.3e} for {lower!r} vs {upper!r}")

    # A negative binomial with one failure is the geometric law itself:
    # identical pmfs, hence ordered both ways with zero slack.  Verify
    # that, then collapse the duplicate so every remaining adjacent pair
    # is strict and must flip to "fails" when reversed.
    nb_one, geo = super_side[2], super_side[3]
    top = max(dists.support_upper(nb_one), dists.support_upper(geo))
    if any(
        abs(dists.pmf(nb_one, i) - dists.pmf(geo, i)) > 1e-15
        for i in range(top + 1)
    ):
        problems.append("neg_binomial(1, 1/2) pmf differs from geometric(1/2)")
    if dists.check_cx(geo, nb_one).status != "holds":
        problems.append("equal laws not ordered in both directions")

    strict_super = [super_side[0], super_side[1], geo, super_side[4]]
    for chain in (sub_side, strict_super):
        for lower, upper in zip(chain, chain[1:]):
            verdict = dists.check_cx(upper, lower)
            if verdict.status != "fails":
                problems.append(
                    f"reversed {upper!r} vs {lower!r}: {verdict.status}"
                )

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget is 1s")
    ok = not problems
    line = _report(
        "convex-order-chains",
        ok,
        "; ".join(problems)
        or f"8 pairs hold (worst slack {worst_slack:+.2e}), "
        f"7 strict reversals fail, {elapsed * 1000:.0f} ms",
    )
    assert ok, line


def test_jittered_poisson_lattice_is_indistinguishable_from_poisson():
    w = cube(10.0, 2, metric="periodic")
    worst = {}
    for i, statistic in enumerate(("ripley_k", "voids", "factorial_moments")):
        report = compare.compare_two(
            JITTERED_POISSON_LATTICE,
            POISSON,
            w,
            statistic=statistic,
            scales=(0.25, 0.5, 1.0),
            k=2,
            reps=200,
            stream=ACC.derive(40 + i),
            threads=THREADS,
        )
        worst[statistic] = max(abs(z) for z in report.z_scores())
    ok = all(z <= 3.0 for z in worst.values())
    line = _report(
        "jittered-vs-poisson",
        ok,
        ", ".join(f"{name} max |z| = {z:.2f}" for name, z in worst.items()),
    )
    assert ok, line


def test_weak_poisson_orderings_classify_known_generators():
    w = cube(12.0, 2, metric="periodic")
    scales = (0.25, 0.5, 1.0, 2.0)
    problems = []

    sub_reports = compare.weak_poisson_test(
        JITTERED_LATTICE, w, scales, reps=200,
        stream=ACC.derive(50), threads=THREADS,
    )
    for report in sub_reports:
        if report.verdict != "consistent_sub":
            problems.append(f"lattice {report.statistic}: {report.verdict}")

    super_lattice = procgen.perturbed_lattice(
        1.0, dists.geometric(0.5), procgen.uniform_in_cell()
    )
    super_reports = compare.weak_poisson_test(
        super_lattice, w, scales, reps=200,
        stream=ACC.derive(51), threads=THREADS,
    )
    for report in super_reports:
        if report.verdict != "consistent_super":
            problems.append(
                f"geometric lattice {report.statistic}: {report.verdict}"
            )

    # Cluster process, probed inside the cluster radius where its moments
    # must exceed Poisson.
    matern = procgen.matern_cluster(0.25, 4.0, 0.5)
    matern_reports = compare.weak_poisson_test(
        matern, w, (0.25, 0.5), reps=200,
        stream=ACC.derive(52), threads=THREADS,
    )
    moment_reports = [
        r for r in matern_reports if r.statistic.startswith("factorial")
    ]
    assert moment_reports, "expected factorial-moment reports"
    for report in moment_reports:
        if report.verdict != "consistent_super":
            problems.append(f"matern {report.statistic}: {report.verdict}")

    ok = not problems
    line = _report(
        "weak-ordering-verdicts",
        ok,
        "; ".join(problems)
        or "lattice sub, geometric lattice super, cluster moments super",
    )
    assert ok, line


# Intensity of the triangular-lattice benchmark and its unit cell size.
BENCH_INTENSITY = 2.0 / math.sqrt(3.0)
BENCH_DELTA = 1.0 / math.sqrt(BENCH_INTENSITY)
# Reference critical radius of the Poisson Gilbert graph (edges at distance
# <= 2r) at BENCH_INTENSITY: the critical mean degree 4.512 solves
# BENCH_INTENSITY * pi * (2r)^2 = 4.512 at r ~= 0.558.
POISSON_CRITICAL_RADIUS = 0.558


def test_component_fraction_curves_are_ordered_across_radii():
    # One point per cell (spread out) versus geometric replica counts
    # (clustered) on the same lattice, both of mean one per cell.  The two
    # comparison tools predict opposite orderings on the two sides of the
    # transition.  Below it, moment measures govern: the clustered family
    # has larger expected counts of short paths and subgraphs, so it forms
    # larger finite clusters and its largest-component fraction is higher.
    # Above it, void probabilities govern: the spread-out family leaves
    # fewer holes, so it connects sooner and its fraction is higher.  So
    # d(r) = spread - clustered must change sign exactly once over the
    # whole grid, from negative to positive, and the crossing must come no
    # later than the Poisson transition, from where the spread-out family
    # dominates at every radius.
    w = cube(30.0, 2, metric="periodic")
    radii = tuple(round(0.30 + 0.025 * i, 3) for i in range(21))
    spread = procgen.perturbed_lattice(
        BENCH_DELTA, dists.binomial(1, 1.0), procgen.uniform_in_cell()
    )
    clustered = procgen.perturbed_lattice(
        BENCH_DELTA, dists.neg_binomial(1, 0.5), procgen.uniform_in_cell()
    )
    sweep_spread = percolation.component_fraction_sweep(
        spread, w, radii, reps=100, stream=ACC.derive(60), threads=THREADS
    )
    sweep_clustered = percolation.component_fraction_sweep(
        clustered, w, radii, reps=100, stream=ACC.derive(61), threads=THREADS
    )
    signs, z_scores = [], []
    for a, b in zip(
        sweep_spread.largest_fraction, sweep_clustered.largest_fraction
    ):
        difference = a.value - b.value
        signs.append((difference > 0) - (difference < 0))
        se = math.hypot(a.std_error, b.std_error)
        z_scores.append(difference / se if se else math.nan)
    # A tie counts as its own sign, so it shows up as an extra sign change.
    flips = [k for k in range(1, len(radii)) if signs[k] != signs[k - 1]]
    crossing = radii[flips[0]] if len(flips) == 1 else None

    problems = []
    if signs[0] != -1:
        problems.append(f"spread-out curve not below at r={radii[0]:.3f}")
    if signs[-1] != 1:
        problems.append(f"spread-out curve not above at r={radii[-1]:.3f}")
    if len(flips) != 1:
        problems.append(f"{len(flips)} sign changes")
    if crossing is not None and crossing > POISSON_CRITICAL_RADIUS:
        problems.append(
            f"crossing at r={crossing:.3f} is above the Poisson "
            f"r_c = {POISSON_CRITICAL_RADIUS}"
        )
    shape = f"sign changes over {len(radii)} radii: " + (
        "; ".join(
            f"r={radii[k - 1]:.3f} (z = {z_scores[k - 1]:+.2f}) -> "
            f"r={radii[k]:.3f} (z = {z_scores[k]:+.2f})"
            for k in flips
        )
        or "none"
    )
    ok = not problems
    line = _report(
        "percolation-curve-ordering",
        ok,
        "; ".join(problems + [shape])
        if problems
        else f"{shape}; crossing r={crossing:.3f} <= Poisson r_c = "
        f"{POISSON_CRITICAL_RADIUS}",
    )
    assert ok, line


def test_poisson_critical_radius_matches_reference_value():
    start = time.perf_counter()
    estimate = percolation.critical_radius(
        procgen.homogeneous_poisson(BENCH_INTENSITY),
        cube(30.0, 2, metric="euclidean"),
        reps=60,
        tol=0.02,
        stream=ACC.derive(62),
        threads=THREADS,
    )
    ok = abs(estimate.value - POISSON_CRITICAL_RADIUS) <= 0.05
    line = _report(
        "percolation-critical-radius",
        ok,
        f"r_c = {estimate.value:.4f} +- {estimate.std_error:.4f} "
        f"vs reference {POISSON_CRITICAL_RADIUS} +- 0.05, "
        f"{time.perf_counter() - start:.0f}s",
    )
    assert ok, line


def test_critical_radius_estimates_respect_rigorous_bounds():
    w = cube(20.0, 2, metric="euclidean")
    problems = []
    details = []
    for name, spec, idx in (
        ("poisson", POISSON, 10),
        ("jittered lattice", JITTERED_LATTICE, 11),
    ):
        estimate = percolation.critical_radius(
            spec, w, reps=40, tol=0.02, stream=ACC.derive(idx),
            threads=THREADS,
        )
        bounds = percolation.check_percolation_bounds(estimate.value, 1.0, 2)
        details.append(
            f"{name} r_c = {estimate.value:.4f} in "
            f"[{bounds.lower:.3f}, {bounds.upper:.3f}]"
        )
        # The finite window biases the estimate low by up to the bisection
        # bracket, so the lower bound is checked with that slack.
        if estimate.value + 0.05 < bounds.lower:
            problems.append(f"{name} below lower bound")
        if estimate.value > bounds.upper:
            problems.append(f"{name} above upper bound")
    ok = not problems
    line = _report(
        "percolation-rigorous-bounds",
        ok,
        "; ".join(problems) or "; ".join(details),
    )
    assert ok, line


def test_truncated_ginibre_count_mean_and_sub_poisson_variance():
    # Oracle values computed by tests/oracle_scripts/ginibre_expected_count.py
    # (sums of lambda_k and lambda_k (1 - lambda_k) over the 40 leading
    # eigenvalues of the disk-truncated kernel).
    expected_count = 8.9999999999999921
    expected_variance = 1.6806878287630542
    w = box((-3.5, 3.5), (-3.5, 3.5), metric="euclidean")
    spec = procgen.ginibre_truncated(40, 3.0)
    stream = ACC.derive(20)
    counts = np.array(
        [
            float(
                np.sum(
                    np.linalg.norm(
                        procgen.sample(spec, w, stream.derive(i)).points,
                        axis=1,
                    )
                    <= 3.0
                )
            )
            for i in range(300)
        ]
    )
    n = len(counts)
    mean = counts.mean()
    se_mean = counts.std(ddof=1) / math.sqrt(n)
    variance = counts.var(ddof=1)

    # Delete-one jackknife standard errors for the variance and for the
    # statistic mean - variance.
    total, total_sq = counts.sum(), float(np.sum(counts**2))
    m_loo = (total - counts) / (n - 1)
    v_loo = (total_sq - counts * counts - (n - 1) * m_loo * m_loo) / (n - 2)

    def jackknife_se(leave_one_out):
        return math.sqrt(
            (n - 1) / n * float(np.sum((leave_one_out - leave_one_out.mean()) ** 2))
        )

    z_mean = (mean - expected_count) / se_mean
    z_var = (variance - expected_variance) / jackknife_se(v_loo)
    z_gap = (mean - variance) / jackknife_se(m_loo - v_loo)
    ok = abs(z_mean) <= 3.0 and abs(z_var) <= 3.0 and z_gap > 3.0
    line = _report(
        "ginibre-count-signature",
        ok,
        f"mean = {mean:.3f} (z = {z_mean:+.2f} vs {expected_count:.3f}), "
        f"variance = {variance:.3f} (z = {z_var:+.2f} vs {expected_variance:.3f}), "
        f"mean - variance z = {z_gap:+.1f}",
    )
    assert ok, line


def test_sinr_graph_reduces_to_gilbert_and_is_monotone_in_interference():
    attenuation = shotnoise.exponential_response(1.0)
    power, noise, threshold = 1.0, 0.2, 1.0
    r_link = attenuation.radial_inverse(threshold * noise / power) / 2.0
    problems = []
    if abs(r_link - math.log(5.0) / 2.0) > 1e-12:
        problems.append(f"link radius {r_link} is not ln(5)/2")

    w = cube(8.0, 2, metric="euclidean")
    stream = RandomStream(606060)
    params = percolation.SinrParams(power, noise, threshold, 0.0, attenuation)
    for i in range(100):
        pattern = procgen.sample(POISSON, w, stream.derive(1000 + i))
        no_interference = percolation.sinr_graph(pattern, pattern, params)
        gilbert = percolation.gilbert_graph(pattern, r_link)
        if not np.array_equal(no_interference.edges, gilbert.edges):
            problems.append(f"instance {i}: edge sets differ")
            break

    pattern = procgen.sample(POISSON, w, stream.derive(1100))
    gammas = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5)
    edge_counts = [
        len(
            percolation.sinr_graph(
                pattern,
                pattern,
                percolation.SinrParams(power, noise, threshold, g, attenuation),
            ).edges
        )
        for g in gammas
    ]
    if edge_counts != sorted(edge_counts, reverse=True):
        problems.append(f"edge counts not non-increasing: {edge_counts}")

    ok = not problems
    line = _report(
        "sinr-reduction-and-monotonicity",
        ok,
        "; ".join(problems)
        or f"100 instances reduce exactly; sweep {edge_counts[0]} -> "
        f"{edge_counts[-1]} edges",
    )
    assert ok, line


def test_topology_suite_betti_euler_and_component_counts():
    problems = []

    # Hand-checkable square: side 1, so radius 0.6 joins the four sides
    # into a cycle (one loop) and radius 0.8 exceeds the half-diagonal,
    # filling the square into a contractible blob.
    square = PointPattern(
        box((-0.5, 1.5), (-0.5, 1.5), metric="euclidean"),
        np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    )
    loop = complexes.betti_numbers(
        complexes.cech_complex(square, 0.6, max_dim=2)
    ).betti
    filled = complexes.betti_numbers(
        complexes.cech_complex(square, 0.8, max_dim=3)
    ).betti
    if loop[:2] != (1, 1):
        problems.append(f"square at 0.6 gave betti {loop}")
    if filled[:2] != (1, 0):
        problems.append(f"square at 0.8 gave betti {filled}")

    stream = RandomStream(606060)
    w = cube(8.0, 2, metric="euclidean")

    # beta_0 must agree with the graph component count.
    for i in range(50):
        pattern = procgen.sample(
            procgen.binomial_process(60), w, stream.derive(900 + i)
        )
        for r in (0.2, 0.35, 0.5, 0.65, 0.8):
            b0 = complexes.betti_numbers(
                complexes.cech_complex(pattern, r, max_dim=1)
            ).betti[0]
            n_components = len(
                percolation.components(percolation.gilbert_graph(pattern, r))
            )
            if b0 != n_components:
                problems.append(
                    f"beta_0 {b0} != {n_components} components "
                    f"(instance {i}, r = {r})"
                )

    # Euler characteristic: the alternating simplex-count sum must equal the
    # alternating Betti sum on every instance.  The radii keep each complex
    # strictly below the dimension cap (asserted), so no face is truncated.
    euler_checked = 0
    for i in range(50):
        pattern = procgen.sample(
            procgen.binomial_process(40), w, stream.derive(400 + i)
        )
        for r in (0.2, 0.3):
            cech = complexes.cech_complex(pattern, r, max_dim=4)
            counts = complexes.simplex_counts(cech)
            if counts[-1] != 0:
                problems.append(
                    f"instance {i} at r = {r} reaches the dimension cap"
                )
                continue
            chi = complexes.euler_characteristic(cech)
            betti = complexes.betti_numbers(cech).betti
            alternating = sum((-1) ** k * b for k, b in enumerate(betti))
            if chi != alternating:
                problems.append(
                    f"euler {chi} != alternating betti {alternating} "
                    f"(instance {i}, r = {r})"
                )
            euler_checked += 1

    # Full Betti vectors against the dense Gaussian-elimination oracle on
    # every complex small enough for it.
    betti_checked = 0
    for i in range(12):
        pattern = procgen.sample(
            procgen.binomial_process(18), w, stream.derive(700 + i)
        )
        for r in (0.3, 0.45):
            cech = complexes.cech_complex(pattern, r, max_dim=3)
            if sum(len(level) for level in cech.faces) > 200:
                continue
            mine = complexes.betti_numbers(cech).betti
            reference = naive_betti_numbers(cech.faces)
            if tuple(mine) != tuple(reference[: len(mine)]):
                problems.append(
                    f"betti {mine} != oracle {reference} (instance {i}, r = {r})"
                )
            betti_checked += 1
    if betti_checked < 20:
        problems.append(f"only {betti_checked} oracle-sized complexes")

    ok = not problems
    line = _report(
        "topology-suite",
        ok,
        "; ".join(problems[:5])
        or f"square hand values, 250 component counts, {euler_checked} Euler "
        f"identities, {betti_checked} oracle Betti vectors",
    )
    assert ok, line


def test_poisson_tail_concentration_bound_holds():
    problems = []
    details = []
    for name, spec, idx in (
        ("poisson", POISSON, 30),
        ("jittered lattice", JITTERED_LATTICE, 31),
    ):
        row = compare.concentration_check(
            spec, a=0.75, n_list=[100], reps=10000,
            stream=ACC.derive(idx), d=2, threads=THREADS,
        )[0]
        details.append(
            f"{name} tail {row.empirical:.4f} <= bound {row.bound:.3f}"
        )
        if row.status != "holds" or row.empirical > row.bound:
            problems.append(f"{name} bound violated ({row.empirical:.4f})")
        # The theoretical bound at n = 100 is a weak 0.658; the exact
        # Poisson tail is about 0.0016, so a sound sampler stays well
        # under one percent.
        if row.empirical > 0.01:
            problems.append(f"{name} tail {row.empirical:.4f} above 1%")
    ok = not problems
    line = _report(
        "concentration-bound", ok, "; ".join(problems) or "; ".join(details)
    )
    assert ok, line


def test_graph_primitives_match_brute_force_oracles():
    stream = RandomStream(606060)
    problems = []

    for i in range(50):
        n = 20 + (i * 37) % 181
        metric = "periodic" if i % 2 else "euclidean"
        w = cube(10.0, 2, metric=metric)
        pattern = procgen.sample(
            procgen.binomial_process(n), w, stream.derive(1200 + i)
        )
        r = 0.3 + 0.02 * (i % 10)
        mine = set(map(tuple, percolation.gilbert_graph(pattern, r).edges.tolist()))
        reference = set(
            brute_force_gilbert_edges(pattern.points, w.lower, w.upper, metric, r)
        )
        if mine != reference:
            problems.append(f"gilbert instance {i} ({metric}, n = {n})")
            break

    w = cube(6.0, 2, metric="euclidean")
    pattern = procgen.sample(procgen.binomial_process(30), w, stream.derive(1500))
    graph = graphs.rgg(pattern, 1.2)
    for name in ("edge", "path3", "triangle", "path4", "cycle4", "clique4",
                 "star3"):
        motif = graphs.named_motif(name)
        mine = graphs.induced_subgraph_count(graph, motif)
        reference = brute_force_motif_count(
            graph.n_vertices, graph.edges, motif.adjacency
        )
        if mine != reference:
            problems.append(f"motif {name}: {mine} != {reference}")

    # Indicator-valued summands keep all arithmetic in small integers, so
    # both sides are exact and must agree to the bit.
    w = cube(4.0, 2, metric="euclidean")
    small = procgen.sample(procgen.binomial_process(12), w, stream.derive(1600))

    def near_pair(points):
        return 1.0 if float(np.linalg.norm(points[0] - points[1])) <= 0.9 else 0.0

    def tight_triple(points):
        d01 = float(np.linalg.norm(points[0] - points[1]))
        d02 = float(np.linalg.norm(points[0] - points[2]))
        d12 = float(np.linalg.norm(points[1] - points[2]))
        return 1.0 if max(d01, d02, d12) <= 1.2 else 0.0

    def triangle_area(points):
        ax, ay = points[1] - points[0]
        bx, by = points[2] - points[0]
        return abs(ax * by - ay * bx) / 2.0

    for k, f in ((1, lambda pts: 1.0), (2, near_pair), (3, tight_triple)):
        mine = graphs.u_statistic(small, k, f)
        reference = ordered_tuple_sum(small.points, k, f)
        if mine != reference:
            problems.append(f"u-statistic k = {k}: {mine} != {reference}")
    # Smoothly varying summands accumulate rounding differently on the two
    # sides, so those are held to a relative tolerance at machine scale.
    mine = graphs.u_statistic(small, 3, triangle_area)
    reference = ordered_tuple_sum(small.points, 3, triangle_area)
    if abs(mine - reference) > 1e-12 * abs(reference):
        problems.append(f"u-statistic areas: {mine} != {reference}")

    ok = not problems
    line = _report(
        "brute-force-oracles",
        ok,
        "; ".join(problems)
        or "50 gilbert graphs, 7 motifs, 4 u-statistics all match",
    )
    assert ok, line


CLI_CONFIGS = {
    "sample": """
[run]
seed = 101
[window]
sides = 6
metric = periodic
[generator]
type = poisson
intensity = 1.0
""",
    "summary": """
[run]
seed = 102
replications = 5
[window]
sides = 8
[generator]
type = poisson
intensity = 1.0
[summary]
r_min = 0.2
r_max = 0.6
r_count = 3
""",
    "compare": """
[run]
seed = 103
replications = 8
[window]
sides = 8
[generator]
type = poisson
intensity = 1.0
[compare]
scales = 0.5,1.0
placements = 16
""",
    "percolation": """
[run]
seed = 104
replications = 4
[window]
sides = 8
metric = euclidean
[generator]
type = poisson
intensity = 1.154701
[generator_b]
type = perturbed_lattice
delta = 0.93
replication = binomial 1 1.0
displacement = uniform_in_cell
[percolation]
mode = sweep
r_min = 0.3
r_max = 0.5
r_step = 0.1
""",
    "coverage": """
[run]
seed = 105
replications = 6
[window]
sides = 5
[generator]
type = poisson
intensity = 1.0
[coverage]
r_min = 0.2
r_max = 0.4
r_count = 2
grid_n = 16
""",
    "sinr": """
[run]
seed = 106
[window]
sides = 6
metric = euclidean
[generator]
type = poisson
intensity = 1.5
[sinr]
noise = 0.1
threshold = 1.0
gammas = 0.0,0.2,0.5
""",
    "graph": """
[run]
seed = 107
replications = 3
[generator]
type = poisson
intensity = 1.0
[graph]
n_list = 9,16
""",
    "complex": """
[run]
seed = 108
replications = 3
[generator]
type = poisson
intensity = 1.0
[complex]
n_list = 9
r_coeff = 0.6
""",
    "kernel_chain": """
[kernel_chain]
lam = 1.0
""",
}


def test_cli_experiments_are_deterministic_across_threads(tmp_path):
    problems = []
    files_compared = 0
    for experiment, body in CLI_CONFIGS.items():
        base = tmp_path / experiment
        base.mkdir()
        config = base / "config.ini"
        config.write_text(body.lstrip(), encoding="utf-8")
        first = base / "first"
        code = cli.main(
            [experiment, "--config", str(config), "--out", str(first)]
        )
        if code != 0:
            problems.append(f"{experiment}: initial run exited {code}")
            continue
        manifest = first / "manifest.ini"
        reruns = []
        for threads, label in (("1", "serial"), ("8", "parallel")):
            out = base / label
            code = cli.main(
                [
                    experiment,
                    "--config",
                    str(manifest),
                    "--out",
                    str(out),
                    "--threads",
                    threads,
                ]
            )
            if code != 0:
                problems.append(f"{experiment}: rerun at {threads} exited {code}")
            reruns.append(out)
        if problems and problems[-1].startswith(experiment):
            continue
        names = sorted(p.name for p in first.glob("*.csv"))
        if not names:
            problems.append(f"{experiment}: produced no CSV files")
        for out in reruns:
            if sorted(p.name for p in out.glob("*.csv")) != names:
                problems.append(f"{experiment}: CSV sets differ in {out.name}")
        for name in names + ["manifest.ini"]:
            reference = (first / name).read_bytes()
            for out in reruns:
                if (out / name).read_bytes() != reference:
                    problems.append(
                        f"{experiment}: {name} differs at "
                        f"{out.name} thread count"
                    )
            files_compared += 1
    ok = not problems
    line = _report(
        "cli-thread-determinism",
        ok,
        "; ".join(problems[:4])
        or f"{len(CLI_CONFIGS)} experiments, {files_compared} files "
        "byte-identical at 1 and 8 threads",
    )
    assert ok, line
