"""Count-distribution pmfs, means, stop-loss transforms, and cx-order checks."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppclust import dists
from ppclust.core import RandomStream


class TestPmf:
    def test_hypergeometric_direct_combinatorics(self):
        # 2/3, computed by tests/oracle_scripts/count_law_values.py
        d = dists.hypergeometric(4, 2, 2)
        assert dists.pmf(d, 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_binomial(self):
        assert dists.pmf(dists.binomial(2, 0.5), 1) == pytest.approx(0.5)

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.01])
    def test_binomial_beyond_the_float_range_of_its_coefficient(self, p):
        # C(2000, i) passes the float range for i in 230..1770, where the
        # pmf is taken in log space.
        from scipy.stats import binom

        d = dists.binomial(2000, p)
        i = [k for k in range(2001) if math.comb(2000, k) > sys.float_info.max]
        assert (i[0], i[-1]) == (230, 1770)
        got = [dists.pmf(d, k) for k in i]
        np.testing.assert_allclose(got, binom.pmf(i, 2000, p), rtol=1e-12, atol=0)
        assert dists.pmf_table(d).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.01])
    def test_binomial_where_a_power_falls_below_the_normal_range(self, p):
        # At n = 2000, p**i or (1 - p)**(n - i) is subnormal or 0 for some i
        # whose coefficient fits a float (p = 0.01: i = 156..229; p = 0.5:
        # i = 198..229 and 1771..1802); a product over such a power has lost
        # digits.  Every mass at or above the normal range meets scipy.
        from scipy.stats import binom

        n, d = 2000, dists.binomial(2000, p)
        expected = binom.pmf(np.arange(n + 1), n, p)
        normal = np.flatnonzero(expected >= sys.float_info.min)
        got = [dists.pmf(d, int(k)) for k in normal]
        np.testing.assert_allclose(got, expected[normal], rtol=1e-12, atol=0)
        # Where both powers stay normal the pmf is the product itself.
        for k in range(n + 1):
            powers = p**k, (1 - p) ** (n - k)
            if math.comb(n, k) <= sys.float_info.max and min(powers) >= sys.float_info.min:
                assert dists.pmf(d, k) == math.comb(n, k) * powers[0] * powers[1]

    def test_binomial_with_a_certain_outcome_beyond_the_float_range(self):
        assert dists.pmf(dists.binomial(2000, 0.0), 1000) == 0.0
        assert dists.pmf(dists.binomial(2000, 1.0), 1000) == 0.0
        assert dists.pmf(dists.binomial(2000, 1.0), 2000) == 1.0

    def test_poisson_zero(self):
        assert dists.pmf(dists.poisson(1.0), 0) == pytest.approx(math.exp(-1))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            dists.binomial(3, 1.5)
        with pytest.raises(ValueError):
            dists.hypergeometric(4, 5, 2)
        with pytest.raises(ValueError):
            dists.mixture([0.5, 0.6], [dists.poisson(1), dists.poisson(2)])


class TestMean:
    def test_hypergeometric(self):
        # km/n = 3*4/6 = 2, tests/oracle_scripts/count_law_values.py
        assert dists.mean(dists.hypergeometric(6, 4, 3)) == pytest.approx(2.0)

    def test_geometric(self):
        assert dists.mean(dists.geometric(0.5)) == pytest.approx(1.0)

    def test_mixture(self):
        d = dists.mixture([0.5, 0.5], [dists.poisson(0.0), dists.poisson(2.0)])
        assert dists.mean(d) == pytest.approx(1.0)


class TestSample:
    def test_deterministic(self):
        s = RandomStream(7)
        assert all(dists.sample(dists.deterministic(3), s.derive(i)) == 3 for i in range(5))

    def test_binomial_1_1(self):
        s = RandomStream(7)
        assert all(dists.sample(dists.binomial(1, 1.0), s.derive(i)) == 1 for i in range(5))

    def test_poisson_clt_band(self):
        rng = RandomStream(42).generator()
        draws = dists.sample_array(dists.poisson(4.0), 100_000, rng)
        # CLT band 4 +/- 3*sqrt(4/1e5)
        assert abs(draws.mean() - 4.0) <= 3 * math.sqrt(4 / 100_000)

    def test_sample_is_deterministic_per_stream(self):
        d = dists.neg_binomial(3, 0.4)
        s = RandomStream(11).derive(2)
        assert dists.sample(d, s) == dists.sample(d, s)

    def test_mixture_sampling_mean(self):
        d = dists.mixture([0.25, 0.75], [dists.deterministic(0), dists.poisson(2.0)])
        rng = RandomStream(5).generator()
        draws = dists.sample_array(d, 50_000, rng)
        se = math.sqrt(np.var(draws) / draws.size)
        assert abs(draws.mean() - dists.mean(d)) <= 4 * se


class TestStopLoss:
    def test_deterministic(self):
        assert dists.stop_loss(dists.deterministic(2), 1.0) == pytest.approx(1.0)

    def test_poisson_at_zero_is_mean(self):
        assert dists.stop_loss(dists.poisson(1.0), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_binomial_direct_sum(self):
        # p(2)*1 = 1/4, tests/oracle_scripts/count_law_values.py
        assert dists.stop_loss(dists.binomial(2, 0.5), 1.0) == pytest.approx(0.25)


simple_dists = st.one_of(
    st.integers(0, 6).map(dists.deterministic),
    st.tuples(st.integers(0, 12), st.floats(0, 1)).map(lambda t: dists.binomial(*t)),
    st.floats(0, 8).map(dists.poisson),
    st.floats(0.05, 1).map(dists.geometric),
    st.tuples(st.floats(0.5, 6), st.floats(0.0, 0.9)).map(
        lambda t: dists.neg_binomial(*t)
    ),
)


@settings(max_examples=100, deadline=None)
@given(d=simple_dists)
def test_pmf_sums_to_one(d):
    total = sum(dists.pmf(d, i) for i in range(dists.support_upper(d) + 1))
    assert total == pytest.approx(1.0, abs=10 * dists.DEFAULT_TRUNCATION_TOL)


@settings(max_examples=100, deadline=None)
@given(d=simple_dists)
def test_stop_loss_at_zero_equals_mean(d):
    assert dists.stop_loss(d, 0.0) == pytest.approx(dists.mean(d), abs=1e-9)


def test_support_upper_converges_when_summed_pmf_stalls_below_one():
    # The float sum of this law's pmf stalls about 1.2e-14 short of 1, above
    # the 1e-14 tolerance; the geometric tail bound still ends the walk.
    d = dists.neg_binomial(4.49363108615508, 0.890625)
    assert dists.mean(d) <= dists.support_upper(d) < 1000
    assert dists.stop_loss(d, 0.0) == pytest.approx(dists.mean(d), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(d=simple_dists)
def test_stop_loss_convex_nonincreasing(d):
    grid = np.arange(0.0, dists.support_upper(d) + 1.0, 0.5)
    vals = [dists.stop_loss(d, a) for a in grid]
    for v0, v1 in zip(vals, vals[1:]):
        assert v1 <= v0 + 1e-12
    for v0, v1, v2 in zip(vals, vals[1:], vals[2:]):
        assert v0 + v2 >= 2 * v1 - 1e-12


class TestCheckCx:
    def test_binomial_below_poisson(self):
        verdict = dists.check_cx(dists.binomial(4, 0.25), dists.poisson(1.0))
        assert verdict.status == "holds"

    def test_poisson_below_geometric(self):
        verdict = dists.check_cx(dists.poisson(1.0), dists.geometric(0.5))
        assert verdict.status == "holds"

    def test_means_differ(self):
        verdict = dists.check_cx(dists.poisson(1.0), dists.poisson(2.0))
        assert verdict.status == "means_differ"

    def test_reversed_strict_pair_fails_with_witness(self):
        # Poisson(1) stop-loss at a=1 is 0.36788 > 81/256 = 0.31641 for
        # Binomial(4, 1/4); tests/oracle_scripts/count_law_values.py
        verdict = dists.check_cx(dists.poisson(1.0), dists.binomial(4, 0.25))
        assert verdict.status == "fails"
        assert verdict.witness is not None
        assert dists.stop_loss(dists.poisson(1.0), verdict.witness) > dists.stop_loss(
            dists.binomial(4, 0.25), verdict.witness
        )

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (dists.poisson(1.0), dists.geometric(0.5)),
            (dists.poisson(3.0), dists.neg_binomial(2.0, 0.6)),
            (dists.binomial(4, 0.25), dists.poisson(1.0)),
        ],
    )
    def test_walks_each_support_once(self, lo, hi, monkeypatch):
        # The stop-loss grid has one point per half-integer up to the
        # support maximum; re-walking the support at each point made
        # check_cx quadratic in it.
        walks = []
        walk = dists.support_upper

        def counted(dist):
            walks.append(dist)
            return walk(dist)

        monkeypatch.setattr(dists, "support_upper", counted)
        verdict = dists.check_cx(lo, hi)
        assert verdict.status == "holds"
        assert walks == [lo, hi]


def geometric_mixture(lam, weights, ps):
    """Mixture of geometrics with mean lam: sum w_j = 1, sum w_j/p_j = lam + 1."""
    comps = [dists.geometric(p) for p in ps]
    assert abs(sum(weights) - 1) < 1e-12
    assert abs(sum(w / p for w, p in zip(weights, ps)) - (lam + 1)) < 1e-9
    return dists.mixture(weights, comps)


class TestKernelChains:
    """Full sub-Poisson and super-Poisson convex-order chains."""

    LAM = 2.0

    def test_sub_poisson_chain(self):
        lam = self.LAM
        n, m, r = 16, 4, 8  # lam <= m <= min(r, n), lam*n/m integer
        chain = [
            dists.hypergeometric(n, m, int(lam * n / m)),
            dists.binomial(m, lam / m),
            dists.binomial(r, lam / r),
            dists.poisson(lam),
        ]
        for lo, hi in zip(chain, chain[1:]):
            assert dists.check_cx(lo, hi).status == "holds"

    def test_super_poisson_chain(self):
        lam = self.LAM
        r1, r2 = 2, 5  # r1 <= r2
        # 0.5/0.2 + 0.5/1.0 = 3 = lam + 1
        mix = geometric_mixture(lam, [0.5, 0.5], [0.2, 1.0])
        chain = [
            dists.poisson(lam),
            dists.neg_binomial(r2, lam / (r2 + lam)),
            dists.neg_binomial(r1, lam / (r1 + lam)),
            dists.geometric(1 / (1 + lam)),
            mix,
        ]
        for lo, hi in zip(chain, chain[1:]):
            assert dists.check_cx(lo, hi).status == "holds"

    def test_poisson_mixture_above_poisson(self):
        lam = 1.5
        mix = dists.mixture([0.5, 0.5], [dists.poisson(1.0), dists.poisson(2.0)])
        assert dists.mean(mix) == pytest.approx(lam)
        assert dists.check_cx(dists.poisson(lam), mix).status == "holds"

    def test_chain_asymmetry(self):
        lam = self.LAM
        pairs = [
            (dists.binomial(4, lam / 4), dists.poisson(lam)),
            (dists.poisson(lam), dists.geometric(1 / (1 + lam))),
        ]
        for lo, hi in pairs:
            assert dists.check_cx(lo, hi).status == "holds"
            assert dists.check_cx(hi, lo).status == "fails"
