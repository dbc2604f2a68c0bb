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
    ball_volume,
    check_number,
    check_replications,
    csv_text,
    cube,
    replicate,
)
from .procgen import GeneratorSpec, intensity, sample
from .summaries import (
    _estimates,
    _falling_factorial,
    _proportion,
    _region_counts,
    ball,
    box,
    count_variance,
    factorial_moment,
    ripley_k,
    void_probability,
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
    "concentration_to_csv",
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


def _positive_scales(scales) -> list:
    scales = [check_number("scales", float(s), "pos") for s in scales]
    if not scales:
        raise ValueError("scales must be non-empty")
    return scales


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
    generator's intensity.  All statistics are evaluated on the same
    replications.
    """
    scales = _positive_scales(scales)
    if not 2 <= k_max <= 4:
        raise ValueError("k_max must be between 2 and 4")
    regions = [region for s in scales for region in (ball(s), box(s))]
    counts = _region_counts("weak_poisson_test", spec, w, regions, placements)
    check_replications(reps, stream)
    lam = intensity(spec, d=w.dim, w=w).value
    orders = list(range(2, k_max + 1))

    def one(rep: RandomStream):
        per_region = counts(rep)
        voids = [np.mean(c == 0) for c in per_region[0::2]]
        moments = [
            [np.mean(_falling_factorial(c.astype(float), k)) for k in orders]
            for c in per_region[1::2]
        ]
        return voids, moments

    results = replicate(reps, stream, threads, one)
    void_mat = np.array([v for v, _ in results])  # (reps, scales)
    mom_mat = np.array([m for _, m in results])  # (reps, scales, orders)

    def summarize(mat: np.ndarray, refs) -> tuple:
        return tuple(
            ScaleComparison(s, e.value, ref, _z_score(e.value - ref, e.std_error))
            for s, e, ref in zip(scales, _estimates(mat), refs)
        )

    d = w.dim
    void_refs = [math.exp(-lam * ball_volume(s, d)) for s in scales]
    rows = summarize(void_mat, void_refs)
    reports = [OrderingReport("voids", rows, _verdict([r.z for r in rows]))]
    for c, k in enumerate(orders):
        refs = [(lam * s**d) ** k for s in scales]
        rows = summarize(mom_mat[:, :, c], refs)
        reports.append(
            OrderingReport(f"factorial_moments({k})", rows, _verdict([r.z for r in rows]))
        )
    return reports


def _scalar_statistic(statistic, spec, w, scale, k, placements, reps, stream, threads):
    if statistic == "voids":
        est = void_probability(spec, w, ball(scale), placements, reps, stream, threads)
    elif statistic == "factorial_moments":
        est = factorial_moment(spec, w, scale, k, placements, reps, stream, threads)
    else:  # variance
        est = count_variance(spec, w, scale, placements, reps, stream, threads)
    return est.value, est.std_error


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
    """
    if statistic not in COMPARISON_STATISTICS:
        raise ValueError(f"statistic must be one of {COMPARISON_STATISTICS}")
    scales = _positive_scales(scales)
    check_replications(reps, stream)
    lam_a = intensity(spec_a, d=w.dim, w=w).value
    lam_b = intensity(spec_b, d=w.dim, w=w).value
    if abs(lam_a - lam_b) > INTENSITY_MATCH_RTOL * 0.5 * (lam_a + lam_b):
        raise ValueError(
            f"intensities differ by more than 1% ({lam_a:g} vs {lam_b:g}); "
            "rescale one generator before comparing clustering"
        )

    if statistic == "ripley_k":
        curve_a = ripley_k(spec_a, w, scales, reps, stream.derive(0), threads)
        curve_b = ripley_k(spec_b, w, scales, reps, stream.derive(1), threads)
        rows = tuple(
            ScaleComparison(
                s,
                ea.value,
                eb.value,
                _z_score(ea.value - eb.value, math.hypot(ea.std_error, eb.std_error)),
            )
            for s, ea, eb in zip(scales, curve_a.estimates, curve_b.estimates)
        )
    else:
        rows = []
        for j, s in enumerate(scales):
            va, sa = _scalar_statistic(
                statistic, spec_a, w, s, k, placements, reps, stream.derive(0).derive(j), threads
            )
            vb, sb = _scalar_statistic(
                statistic, spec_b, w, s, k, placements, reps, stream.derive(1).derive(j), threads
            )
            rows.append(ScaleComparison(s, va, vb, _z_score(va - vb, math.hypot(sa, sb))))
        rows = tuple(rows)

    name = f"factorial_moments({k})" if statistic == "factorial_moments" else statistic
    return OrderingReport(name, rows, _verdict([r.z for r in rows]))


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
    n_list = [int(n) for n in n_list]
    if any(n < 16 for n in n_list):
        raise ValueError("window volumes below 16 are too small to be informative")
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
        side = n ** (1.0 / d)
        w_n = cube(side, d, metric="periodic")
        threshold = n**a

        def one(rep: RandomStream) -> float:
            pattern = sample(spec, w_n, rep)
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


def concentration_to_csv(rows) -> str:
    return csv_text(
        ("n", "empirical", "bound", "std_error", "status"),
        ((row.n, row.empirical, row.bound, row.std_error, row.status) for row in rows),
    )
