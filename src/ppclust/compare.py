"""Clustering comparison between samplers and against the Poisson benchmark.

The comparisons here are one-sided in spirit: a process whose void
probabilities and factorial moments all sit below the Poisson reference
behaves as if it clusters less, one whose statistics sit above clusters
more.  Monte Carlo estimates come with standard errors, so each scale
contributes a z-score and the verdict machinery turns the set of z-scores
into one of four labels:

* ``consistent_sub``   - nothing sticks out above the reference.
* ``consistent_super`` - nothing sticks out below.
* ``inconclusive``     - compatible with both directions (or too noisy to
  call while z-scores disagree only mildly).
* ``violated``         - both directions clearly exceeded somewhere, i.e.
  the ordering fails at some scale beyond plausible Monte Carlo noise.

Z-scores within +-2 count as "consistent"; a mixed sign pattern needs an
excursion beyond +-4 before it is reported as a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    RandomStream,
    Window,
    as_float,
    ball_volume,
    check_number,
    check_radii,
    check_replications,
    check_window,
    csv_text,
    cube,
    replicate,
)
from .procgen import GeneratorSpec, intensity, prepare
from .summaries import (
    EstimateWithError,
    _check_count_parameters,
    _proportion,
    _region_estimates,
    _ripley_k,
    ball,
    box,
)

__all__ = [
    "ScaleComparison",
    "OrderingReport",
    "ConcentrationRow",
    "weak_poisson_test",
    "compare_two",
    "concentration_check",
    "overall_verdict",
    "ordering_to_csv",
]

Z_CONSISTENT = 2.0
Z_VIOLATION = 4.0
INTENSITY_MATCH_RTOL = 0.01
UNIT_INTENSITY_ATOL = 1e-9
COMPARISON_STATISTICS = ("voids", "factorial_moments", "ripley_k", "variance")


@dataclass(frozen=True)
class ScaleComparison:
    """Estimate vs reference at one scale, with the z-score of the gap."""

    scale: float
    estimate: float
    reference: float
    z: float


@dataclass(frozen=True)
class OrderingReport:
    """Comparison of one statistic across scales, with its verdict."""

    statistic: str
    per_scale: tuple  # of ScaleComparison
    verdict: str

    def z_scores(self) -> np.ndarray:
        return np.array([row.z for row in self.per_scale])


@dataclass(frozen=True)
class ConcentrationRow:
    """Empirical large-deviation frequency against its theoretical bound."""

    n: int
    empirical: float
    bound: float
    std_error: float
    status: str  # holds | fails | skipped


def _z_score(diff: float, se: float) -> float:
    if se > 0:
        return diff / se
    if diff == 0:
        return 0.0
    return math.copysign(math.inf, diff)


def _verdict(zs) -> str:
    zs = np.asarray(zs, dtype=float)
    sub_ok = bool(np.all(zs <= Z_CONSISTENT))
    super_ok = bool(np.all(zs >= -Z_CONSISTENT))
    if sub_ok and super_ok:
        return "inconclusive"
    if sub_ok:
        return "consistent_sub"
    if super_ok:
        return "consistent_super"
    # Significant excursions on both sides: a violation only if at least one
    # is far outside Monte Carlo noise, otherwise withhold judgement.
    if np.any(np.abs(zs) > Z_VIOLATION):
        return "violated"
    return "inconclusive"


def _exact(value: float) -> EstimateWithError:
    """A closed-form reference: an estimate with no error."""
    return EstimateWithError(value, 0.0, 0)


def _report(statistic: str, scales, estimates, references) -> OrderingReport:
    """One row per scale of estimate against reference, z-scored by their
    combined standard error, and the verdict on the rows."""
    rows = tuple(
        ScaleComparison(
            s, e.value, r.value, _z_score(e.value - r.value, math.hypot(e.std_error, r.std_error))
        )
        for s, e, r in zip(scales, estimates, references)
    )
    return OrderingReport(statistic, rows, _verdict([row.z for row in rows]))


def overall_verdict(reports) -> str:
    """Combine per-statistic verdicts into one label.

    Directional verdicts must not disagree; inconclusive statistics defer
    to the conclusive ones.
    """
    verdicts = {r.verdict for r in reports}
    if "violated" in verdicts:
        return "violated"
    has_sub = "consistent_sub" in verdicts
    has_super = "consistent_super" in verdicts
    if has_sub and has_super:
        return "violated"
    if has_sub:
        return "consistent_sub"
    if has_super:
        return "consistent_super"
    return "inconclusive"


def weak_poisson_test(
    spec: GeneratorSpec,
    w: Window,
    scales,
    k_max: int = 3,
    placements: int = 64,
    reps: int = 200,
    stream: RandomStream = None,
    threads: int = 1,
) -> list:
    """Test void probabilities and factorial moments against Poisson values.

    Produces one report for void probabilities of balls (scale = radius)
    and one per factorial-moment order k = 2..k_max for boxes (scale =
    side), all against the closed-form Poisson references at the
    generator's intensity.  All statistics come from one replication: a
    single region-estimator call over a ball and then a box of each scale,
    with the voids at the balls and every order at the boxes.  The
    references enter the z-scores as estimates with no error.
    """
    scales = check_radii("scales", scales, "pos").tolist()
    if check_number("k_max", k_max, 2) > 4:
        raise ValueError("k_max must be between 2 and 4")
    lam, d = intensity(spec, d=w.dim, w=w).value, w.dim
    orders = list(range(2, k_max + 1))
    regions = [region for s in scales for region in (ball(s), box(s))]
    estimates = _region_estimates(
        "weak_poisson_test", prepare(spec, w), regions, [["voids"], orders] * len(scales),
        placements, reps, stream, threads,
    )
    voids = [e for (e,) in estimates[0::2]]
    refs = [_exact(math.exp(-lam * ball_volume(s, d))) for s in scales]
    reports = [_report("voids", scales, voids, refs)]
    for k, moments in zip(orders, zip(*estimates[1::2])):
        refs = [_exact((lam * s**d) ** k) for s in scales]
        reports.append(_report(f"factorial_moments({k})", scales, moments, refs))
    return reports


def compare_two(
    spec_a: GeneratorSpec,
    spec_b: GeneratorSpec,
    w: Window,
    statistic: str = "voids",
    scales=(0.5, 1.0),
    k: int = 2,
    placements: int = 64,
    reps: int = 200,
    stream: RandomStream = None,
    threads: int = 1,
) -> OrderingReport:
    """Directional comparison of two generators on one summary statistic.

    ``consistent_sub`` means generator A never exceeds generator B beyond
    noise (A clusters at most as much, in the chosen statistic).  The
    comparison refuses to run unless the two intensities agree to 1%,
    since ordering statistics of different-rate processes conflates rate
    with clustering.

    All scales share one replication per generator: A runs on
    ``stream.derive(0)`` and B on ``stream.derive(1)``.  Voids use a ball of
    radius s and the moments and variance a box of side s, so each
    generator's estimate at the first scale equals the single-region
    estimator's on the same stream, bit for bit.  ``k`` and ``placements``
    are checked whatever the statistic.
    """
    if statistic not in COMPARISON_STATISTICS:
        raise ValueError(f"statistic must be one of {COMPARISON_STATISTICS}")
    _check_count_parameters([k], placements)
    scales = check_radii("scales", scales, "pos").tolist()
    check_replications(reps, stream)
    lam_a = intensity(spec_a, d=w.dim, w=w).value
    lam_b = intensity(spec_b, d=w.dim, w=w).value
    if abs(lam_a - lam_b) > INTENSITY_MATCH_RTOL * 0.5 * (lam_a + lam_b):
        raise ValueError(
            f"intensities differ by more than 1% ({lam_a:g} vs {lam_b:g}); "
            "rescale one generator before comparing clustering"
        )

    if statistic == "ripley_k":
        check_window("compare_two", w, "periodic", reach=max(scales))
    sampler_a, sampler_b = prepare(spec_a, w), prepare(spec_b, w)

    def estimates(sampler, stream: RandomStream) -> list:
        if statistic == "ripley_k":
            return list(_ripley_k(sampler, np.array(scales), reps, stream, threads).estimates)
        regions = [(ball if statistic == "voids" else box)(s) for s in scales]
        stats = [[k if statistic == "factorial_moments" else statistic]] * len(scales)
        per_region = _region_estimates(
            "compare_two", sampler, regions, stats, placements, reps, stream, threads
        )
        return [e for (e,) in per_region]

    est_a, est_b = estimates(sampler_a, stream.derive(0)), estimates(sampler_b, stream.derive(1))
    name = f"factorial_moments({k})" if statistic == "factorial_moments" else statistic
    return _report(name, scales, est_a, est_b)


def concentration_check(
    spec: GeneratorSpec,
    a: float = 0.75,
    n_list=(64, 128, 256),
    reps: int = 1000,
    stream: RandomStream = None,
    d: int = 2,
    threads: int = 1,
) -> list:
    """Check the deviation bound P(|N - n| >= n^a) <= 2 exp(-n^(2a-1)/9).

    Runs the generator at unit intensity on growing cubes of volume n and
    compares the empirical frequency of large count deviations with the
    sub-Gaussian bound expected for well-concentrated (sub-Poisson-like)
    processes.  Scales with too little Monte Carlo power to resolve the
    bound are reported as skipped rather than as spurious passes.
    """
    if not 0.5 < a < 1.0:
        raise ValueError("the deviation exponent a must lie in (0.5, 1)")
    # Window volumes below 16 are too small to be informative.
    n_list = [int(check_number("n_list", n, 16)) for n in n_list]
    for n in n_list:
        as_float("n_list", n)  # n ** a and the cube side take n as a float
    check_replications(reps, stream)
    lam = intensity(spec, d=d).value
    if not math.isclose(lam, 1.0, rel_tol=0.0, abs_tol=UNIT_INTENSITY_ATOL):
        raise ValueError(
            f"concentration_check requires unit intensity, got {lam:g}; "
            "rescale the generator so count deviations are comparable to n^a"
        )

    rows = []
    for idx, n in enumerate(n_list):
        bound = 2.0 * math.exp(-(n ** (2 * a - 1)) / 9.0)
        if reps < 10.0 / bound:
            rows.append(ConcentrationRow(n, math.nan, bound, math.nan, "skipped"))
            continue
        sampler = prepare(spec, cube(n ** (1.0 / d), d, metric="periodic"))
        threshold = n**a

        def one(rep: RandomStream) -> float:
            pattern = sampler.draw(rep)
            return float(abs(pattern.points.shape[0] - n) >= threshold)

        est = _proportion(replicate(reps, stream.derive(idx), threads, one))
        status = "holds" if est.value <= bound + 3.0 * est.std_error else "fails"
        rows.append(ConcentrationRow(n, est.value, bound, est.std_error, status))
    return rows


# ---------------------------------------------------------------------------
# Serialization


def ordering_to_csv(report: OrderingReport) -> str:
    """CSV rows scale,estimate,reference,z; statistic and verdict are the
    caller's to record (the CLI stores them in the manifest)."""
    return csv_text(
        ("scale", "estimate", "reference", "z"),
        ((row.scale, row.estimate, row.reference, row.z) for row in report.per_scale),
    )
