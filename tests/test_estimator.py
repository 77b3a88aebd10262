"""Randomized-truncation length estimator tests.

The Poisson survival is checked against a direct term sum, the telescoping
sum is rebuilt from the weighted running mean of the kept samples, the mean
estimate is checked against the exact conditional expectation, and the
exactness case (single tokenization) pins the estimate to an integer.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokaudit import (
    ConstrainedSample,
    DomainError,
    ModelSpec,
    TruncationDist,
    Vocabulary,
    conditional_expected_length,
    estimate_length,
    weighted_running_mean,
)


def _pmf(trunc, k):
    """P(K = k), written out as a reference for survivals()."""
    return math.exp(-trunc.param + k * math.log(trunc.param) - math.lgamma(k + 1))


class TestTruncationDist:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            TruncationDist(kind="weird", param=1.0)

    @pytest.mark.parametrize("kind, param", [("geometric", 0.15), ("deterministic", 3.0)])
    def test_geometric_and_deterministic_rejected(self, kind, param):
        # a fixed K biases the estimate; only a Poisson K is accepted
        with pytest.raises(DomainError, match=f"unknown truncation kind '{kind}'"):
            TruncationDist(kind=kind, param=param)

    def test_poisson_needs_positive_rate(self):
        with pytest.raises(DomainError):
            TruncationDist.poisson(0.0)

    def test_poisson_rate_must_be_finite_and_within_numpy_limit(self):
        # numpy's largest rate, the next float up, inf and nan are all past
        # the survival sum's bound, so each is refused before any draw
        limit = 9.223372006484771e18  # int64 max - 10 * sqrt(int64 max)
        np.random.default_rng(0).poisson(limit)
        above = math.nextafter(limit, math.inf)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(above)
        for bad in (limit, above, 1e19, math.inf, math.nan):
            with pytest.raises(DomainError, match="poisson rate .* is out of range"):
                TruncationDist.poisson(bad)

    def test_poisson_rate_must_keep_the_survival_sum_representable(self):
        # the upward sum for P(K >= 1) starts at rate * exp(-rate); past
        # ~714.97 that term is subnormal and P(K >= 1) reads low (0.94 at
        # 751), then 0.0 from 752 up
        bound = 714.9686572379665
        for good in (4.0, 7.0, 714.0, bound):
            trunc = TruncationDist.poisson(good)
            assert trunc.param == good
            assert math.isclose(trunc.survivals(1)[1], -math.expm1(-good), rel_tol=1e-12)
        for bad in (math.nextafter(bound, math.inf), 748.0, 751.0, 1e-310):
            with pytest.raises(DomainError, match=f"poisson rate {bad!r} is out of range"):
                TruncationDist.poisson(bad)

    @pytest.mark.parametrize(
        "trunc",
        [
            TruncationDist.poisson(4.0),
            TruncationDist.poisson(0.5),
            TruncationDist.poisson(2.0),
        ],
    )
    def test_pmf_is_survival_difference(self, trunc):
        for k in range(1, 30):
            diff = trunc.survivals(k)[k] - trunc.survivals(k + 1)[k + 1]
            assert math.isclose(_pmf(trunc, k), diff, rel_tol=1e-12, abs_tol=1e-300)

    def test_poisson_survival_matches_term_sum(self):
        rate = 7.0
        for k in range(1, 40):
            direct = sum(
                math.exp(-rate + j * math.log(rate) - math.lgamma(j + 1))
                for j in range(k, k + 200)
            )
            assert math.isclose(
                TruncationDist.poisson(rate).survivals(k)[k], direct, rel_tol=1e-10
            )

    def test_pmf_sums_to_one(self):
        for trunc in (TruncationDist.poisson(4.0), TruncationDist.poisson(0.5)):
            total = sum(_pmf(trunc, k) for k in range(0, 200))
            assert math.isclose(total, 1.0, rel_tol=1e-12)
            assert math.isclose(trunc.survivals(1)[1], total - _pmf(trunc, 0), rel_tol=1e-12)

    def test_sample_is_one_poisson_draw(self):
        trunc = TruncationDist.poisson(7.0)
        rng = np.random.default_rng(0)
        got = [trunc.sample(rng) for _ in range(50)]
        assert got == np.random.default_rng(0).poisson(7.0, size=50).tolist()


def _fake_sample(length, log_weight):
    return ConstrainedSample(seq=(0,) * length, log_weight=log_weight)


class TestWeightedRunningMean:
    def test_frozen_example(self):
        # weights e^0 and e^ln3 = 3: mean = (1*2 + 3*4) / 4 = 3.5
        samples = (_fake_sample(2, 0.0), _fake_sample(4, math.log(3)))
        assert math.isclose(weighted_running_mean(samples, 2), 3.5, rel_tol=1e-14)
        assert weighted_running_mean(samples, 1) == 2.0

    def test_shift_invariance(self):
        samples = tuple(_fake_sample(i + 1, float(i)) for i in range(5))
        shifted = tuple(_fake_sample(i + 1, float(i) + 700.0) for i in range(5))
        for k in range(1, 6):
            assert math.isclose(
                weighted_running_mean(samples, k),
                weighted_running_mean(shifted, k),
                rel_tol=1e-12,
            )

    def test_huge_negative_weights_survive(self):
        samples = (_fake_sample(3, -1e5), _fake_sample(5, -1e5 - math.log(2)))
        # weights 1 and 1/2 after shifting: (3 + 2.5) / 1.5
        assert math.isclose(weighted_running_mean(samples, 2), 11.0 / 3.0, rel_tol=1e-12)

    def test_k_bounds(self):
        samples = (_fake_sample(1, 0.0),)
        with pytest.raises(DomainError):
            weighted_running_mean(samples, 0)
        with pytest.raises(DomainError):
            weighted_running_mean(samples, 2)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.floats(min_value=-30, max_value=5),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_stays_inside_length_hull(self, raw):
        samples = tuple(_fake_sample(n, lw) for n, lw in raw)
        lengths = [len(s.seq) for s in samples]
        for k in range(1, len(samples) + 1):
            got = weighted_running_mean(samples, k)
            assert min(lengths[:k]) - 1e-9 <= got <= max(lengths[:k]) + 1e-9


class TestEstimateLength:
    def test_zero_truncation_returns_zero(self, spec_tiny6):
        # rate so small the Poisson draw is 0 essentially surely
        trunc = TruncationDist.poisson(1e-12)
        est = estimate_length(
            spec_tiny6, "ab", "abab", trunc, np.random.default_rng(0)
        )
        assert est.value == 0.0
        assert est.k_used == 0
        assert est.samples == ()

    def test_value_is_rescaled_running_mean_increments(self, spec_tiny6):
        trunc = TruncationDist.poisson(6.0)
        est = estimate_length(
            spec_tiny6, "ab", "abab", trunc, np.random.default_rng(4)
        )
        assert est.k_used >= 2
        assert len(est.samples) == est.k_used
        # sum_k (R_k - R_{k-1}) / P(K >= k), R_k rebuilt from the kept samples
        running = [0.0] + [
            weighted_running_mean(est.samples, k) for k in range(1, est.k_used + 1)
        ]
        ref = sum(
            (running[k] - running[k - 1]) / trunc.survivals(k)[k]
            for k in range(1, est.k_used + 1)
        )
        assert math.isclose(est.value, ref, rel_tol=1e-12)

    def test_single_tokenization_two_point_law(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        spec = ModelSpec(seed=5, vocab=vocab, max_len=6)
        trunc = TruncationDist.poisson(3.0)
        rng = np.random.default_rng(8)
        # only one way to spell "abba", so R_k = 4 always and the telescoping
        # sum collapses to 4 / P(K >= 1) whenever K >= 1 and to 0 otherwise;
        # the mean of that two-point law is exactly 4
        lifted = 4.0 / trunc.survivals(1)[1]
        for _ in range(30):
            est = estimate_length(spec, "ab", "abba", trunc, rng)
            if est.k_used > 0:
                assert math.isclose(est.value, lifted, rel_tol=1e-12)
            else:
                assert est.value == 0.0

    def test_keep_samples_false_drops_them(self, spec_tiny6):
        trunc = TruncationDist.poisson(40.0)
        est = estimate_length(
            spec_tiny6, "ab", "abab", trunc, np.random.default_rng(4), keep_samples=False
        )
        assert est.samples == ()
        assert est.k_used > 0

    def test_reproducible(self, spec_tiny6):
        trunc = TruncationDist.poisson(5.0)
        a = estimate_length(spec_tiny6, "ba", "abab", trunc, np.random.default_rng(99))
        b = estimate_length(spec_tiny6, "ba", "abab", trunc, np.random.default_rng(99))
        assert a.value == b.value
        assert a.k_used == b.k_used

    def test_unbiased_against_enumeration_mean(self):
        # tiny target with two tokenizations: the randomized-truncation mean
        # over many draws must approach the exact conditional expectation
        # (coarse 6-sigma check, small n for speed)
        vocab = Vocabulary.from_tokens(["a", "b", "ab"])
        spec = ModelSpec(seed=13, vocab=vocab, max_len=4)
        trunc = TruncationDist.poisson(4.0)
        rng = np.random.default_rng(123)
        vals = [
            estimate_length(spec, "ab", "ab", trunc, rng, keep_samples=False).value
            for _ in range(4000)
        ]
        ref = conditional_expected_length(spec, "ab", "ab")
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean - ref) < 6 * se
