"""Exact discrete count distributions and a convex-order checker.

These laws serve as replication kernels for perturbed lattices and cluster
processes, and as subjects of the convex-order (cx) comparisons that separate
sub-Poisson from super-Poisson clustering. The cx checker works through the
stop-loss transform E(X-a)+, which characterizes cx order at equal means.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import RandomStream, check_number

# Tail mass below which infinite supports are truncated for summation.
DEFAULT_TRUNCATION_TOL = 1e-14
# Hard cap on truncated support length; the laws in play stay far below it.
_MAX_SUPPORT = 10_000_000

_KINDS = (
    "deterministic",
    "binomial",
    "poisson",
    "neg_binomial",
    "geometric",
    "hypergeometric",
    "mixture",
)


@dataclass(frozen=True)
class CountDistribution:
    """A non-negative integer law with exact pmf, mean, and stop-loss.

    Construct via the factory functions below (binomial(), poisson(), ...).
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        _validate(self)

    def __repr__(self):
        if self.kind == "mixture":
            weights, components = self.params
            inner = ", ".join(f"{w:g}: {c!r}" for w, c in zip(weights, components))
            return f"mixture({inner})"
        return f"{self.kind}{self.params!r}"


def deterministic(k: int) -> CountDistribution:
    return CountDistribution("deterministic", (int(k),))


def binomial(n: int, p: float) -> CountDistribution:
    return CountDistribution("binomial", (int(n), float(p)))


def poisson(lam: float) -> CountDistribution:
    return CountDistribution("poisson", (float(lam),))


def neg_binomial(r: float, p: float) -> CountDistribution:
    """pmf(i) = C(r+i-1, i) p^i (1-p)^r, mean r p/(1-p)."""
    return CountDistribution("neg_binomial", (float(r), float(p)))


def geometric(p: float) -> CountDistribution:
    """pmf(i) = p (1-p)^i on i >= 0, mean 1/p - 1."""
    return CountDistribution("geometric", (float(p),))


def hypergeometric(n: int, m: int, k: int) -> CountDistribution:
    """Good draws among k taken from n items of which m are good; mean km/n."""
    return CountDistribution("hypergeometric", (int(n), int(m), int(k)))


def mixture(weights, components) -> CountDistribution:
    w = tuple(float(x) for x in weights)
    comps = tuple(components)
    return CountDistribution("mixture", (w, comps))


def _validate(dist: CountDistribution) -> None:
    kind, p = dist.kind, dist.params
    if kind == "deterministic":
        check_number("deterministic value", p[0], 0)
    elif kind == "binomial":
        check_number("binomial n", p[0], 0)
        check_number("binomial p", p[1], "unit")
    elif kind == "poisson":
        check_number("poisson rate", p[0], "nonneg")
    elif kind == "neg_binomial":
        r, prob = p
        check_number("neg_binomial r", r, "pos")
        if not (0.0 <= prob < 1.0):
            raise ValueError("neg_binomial p must be in [0, 1)")
    elif kind == "geometric":
        (prob,) = p
        if not (0.0 < prob <= 1.0):
            raise ValueError("geometric p must be in (0, 1]")
    elif kind == "hypergeometric":
        n, m, k = p
        if not (0 <= m <= n and 0 <= k <= n):
            raise ValueError("hypergeometric requires 0 <= m, k <= n")
    elif kind == "mixture":
        weights, comps = p
        if len(weights) != len(comps) or not comps:
            raise ValueError("mixture weights/components length mismatch")
        for w in weights:
            check_number("mixture weights", w, "nonneg")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1 within 1e-12")
        for c in comps:
            if not isinstance(c, CountDistribution):
                raise ValueError("mixture components must be CountDistribution")


def pmf(dist: CountDistribution, i: int) -> float:
    """Exact probability mass at integer i >= 0."""
    return _pmf(dist, check_number("pmf argument", i, 0))


def _pmf(dist: CountDistribution, i: int) -> float:
    """pmf without the argument check, for the summation loops."""
    kind, p = dist.kind, dist.params
    if kind == "deterministic":
        return 1.0 if i == p[0] else 0.0
    if kind == "binomial":
        n, prob = p
        if i > n:
            return 0.0
        coefficient = math.comb(n, i)
        powers = prob**i, (1.0 - prob) ** (n - i)
        if coefficient <= sys.float_info.max and min(powers) >= sys.float_info.min:
            return coefficient * powers[0] * powers[1]
        # A power below the normal range has lost digits, and a coefficient
        # beyond the float range has 0 < i < n; either way prob 0 or 1 leaves
        # no mass.  math.log reads the exact integer, which lgamma sums would not.
        if prob in (0.0, 1.0):
            return 0.0
        return math.exp(math.log(coefficient) + i * math.log(prob) + (n - i) * math.log1p(-prob))
    if kind == "poisson":
        (lam,) = p
        if lam == 0.0:
            return 1.0 if i == 0 else 0.0
        return math.exp(i * math.log(lam) - lam - math.lgamma(i + 1))
    if kind == "neg_binomial":
        r, prob = p
        if prob == 0.0:
            return 1.0 if i == 0 else 0.0
        log_comb = math.lgamma(r + i) - math.lgamma(r) - math.lgamma(i + 1)
        return math.exp(log_comb + i * math.log(prob) + r * math.log1p(-prob))
    if kind == "geometric":
        (prob,) = p
        return prob * (1.0 - prob) ** i
    if kind == "hypergeometric":
        n, m, k = p
        if i > m or k - i > n - m or i > k:
            return 0.0
        return math.comb(m, i) * math.comb(n - m, k - i) / math.comb(n, k)
    if kind == "mixture":
        weights, comps = p
        return sum(w * _pmf(c, i) for w, c in zip(weights, comps))
    raise AssertionError(kind)


def mean(dist: CountDistribution) -> float:
    """Closed-form mean."""
    kind, p = dist.kind, dist.params
    if kind == "deterministic":
        return float(p[0])
    if kind == "binomial":
        n, prob = p
        return n * prob
    if kind == "poisson":
        return p[0]
    if kind == "neg_binomial":
        r, prob = p
        return r * prob / (1.0 - prob)
    if kind == "geometric":
        return 1.0 / p[0] - 1.0
    if kind == "hypergeometric":
        n, m, k = p
        return k * m / n if n > 0 else 0.0
    if kind == "mixture":
        weights, comps = p
        return sum(w * mean(c) for w, c in zip(weights, comps))
    raise AssertionError(kind)


def support_upper(dist: CountDistribution) -> int:
    """Largest integer kept after truncating tail mass below the tolerance."""
    kind, p = dist.kind, dist.params
    if kind == "deterministic":
        return p[0]
    if kind == "binomial":
        return p[0]
    if kind == "hypergeometric":
        n, m, k = p
        return min(m, k)
    if kind == "mixture":
        weights, comps = p
        return max(support_upper(c) for c in comps)
    # Infinite support: walk out until the remaining tail is below tolerance.
    # The running total alone can stall just short of 1 - tol through rounding
    # in the summed pmf values, so the tail is also bounded geometrically.
    tol = DEFAULT_TRUNCATION_TOL
    total = 0.0
    i = 0
    mu = mean(dist)
    while i < _MAX_SUPPORT:
        mass = _pmf(dist, i)
        total += mass
        if i >= mu:
            if total >= 1.0 - tol:
                return i
            q = _tail_ratio_bound(dist, i)
            if q < 1.0 and mass * q / (1.0 - q) <= tol:
                return i
        i += 1
    raise RuntimeError("support truncation failed to converge")


def _tail_ratio_bound(dist: CountDistribution, i: int) -> float:
    """Upper bound on pmf(j + 1) / pmf(j) over all j >= i (infinite-support laws).

    When it is below 1, the tail beyond i is at most pmf(i) * q / (1 - q).
    """
    kind, p = dist.kind, dist.params
    if kind == "poisson":
        return p[0] / (i + 1)
    if kind == "geometric":
        return 1.0 - p[0]
    if kind == "neg_binomial":
        r, prob = p
        # (r + j) / (j + 1) decreases in j when r >= 1 and rises to 1 when r < 1.
        return prob * max(1.0, (r + i) / (i + 1))
    raise AssertionError(kind)


def pmf_table(dist: CountDistribution) -> np.ndarray:
    """pmf values on 0..support_upper(dist) as an array."""
    upper = support_upper(dist)
    return np.array([_pmf(dist, i) for i in range(upper + 1)])


def stop_loss(dist: CountDistribution, a: float) -> float:
    """Stop-loss transform E(X - a)+ over the truncated support."""
    check_number("stop_loss point", a, "nonneg")
    return stop_loss_from_pmf(pmf_table(dist).tolist(), a)


def stop_loss_from_pmf(pmfs: list, a: float) -> float:
    """E(X - a)+ from the pmf values on 0..len(pmfs) - 1, summed upward
    from the first integer above a; build pmfs once per law with
    pmf_table(dist).tolist() and evaluate it at many points."""
    start = int(math.floor(a)) + 1 if a == math.floor(a) else int(math.ceil(a))
    return sum((i - a) * pmfs[i] for i in range(max(start, 0), len(pmfs)))


@dataclass(frozen=True)
class CxVerdict:
    """Outcome of a convex-order comparison d1 <=cx d2."""

    status: str  # holds | fails | means_differ
    min_slack: float  # least E(X2 - a)+ - E(X1 - a)+ over the grid
    witness: Optional[float] = None  # smallest violating a when status == fails

    def __bool__(self):
        return self.status == "holds"


# Means farther apart than this cannot be cx-comparable.
MEAN_MATCH_TOL = 1e-9
# Numerical slack allowed on each stop-loss comparison.
CX_SLACK = 1e-12


def check_cx(d1: CountDistribution, d2: CountDistribution) -> CxVerdict:
    """Exact check of d1 <=cx d2 via stop-loss transforms.

    Stop-loss functions of integer-supported laws are piecewise linear with
    knots at the integers, so comparing on the half-integer grid up to the
    truncated support maximum decides the order exactly.  One walk over the
    grid gives the witness and the least slack, whatever the means.
    """
    p1, p2 = pmf_table(d1).tolist(), pmf_table(d2).tolist()
    a_max = max(len(p1), len(p2)) - 1
    witness, slacks = None, []
    for a in np.arange(0.0, a_max + 0.5, 0.5):
        s1, s2 = stop_loss_from_pmf(p1, a), stop_loss_from_pmf(p2, a)
        if witness is None and s1 > s2 + CX_SLACK:
            witness = float(a)
        slacks.append(s2 - s1)
    if abs(mean(d1) - mean(d2)) > MEAN_MATCH_TOL:
        return CxVerdict("means_differ", min(slacks))
    return CxVerdict("holds" if witness is None else "fails", min(slacks), witness)


def sample(dist: CountDistribution, stream: RandomStream) -> int:
    """One draw with the exact law, deterministic per stream."""
    return int(sample_array(dist, 1, stream.generator())[0])


def sample_array(dist: CountDistribution, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws, used by samplers that need one count per site."""
    kind, p = dist.kind, dist.params
    if kind == "deterministic":
        return np.full(size, p[0], dtype=np.int64)
    if kind == "binomial":
        n, prob = p
        return rng.binomial(n, prob, size=size)
    if kind == "poisson":
        return rng.poisson(p[0], size=size)
    if kind == "neg_binomial":
        # numpy's parameterization counts failures before r successes with
        # success probability q; matching pmfs requires q = 1 - p.
        r, prob = p
        return rng.negative_binomial(r, 1.0 - prob, size=size)
    if kind == "geometric":
        return rng.geometric(p[0], size=size) - 1
    if kind == "hypergeometric":
        n, m, k = p
        return rng.hypergeometric(m, n - m, k, size=size)
    if kind == "mixture":
        weights, comps = p
        choice = rng.choice(len(comps), size=size, p=np.array(weights))
        out = np.zeros(size, dtype=np.int64)
        for j, comp in enumerate(comps):
            mask = choice == j
            cnt = int(mask.sum())
            if cnt:
                out[mask] = sample_array(comp, cnt, rng)
        return out
    raise AssertionError(kind)
