"""Reporting-policy tests: string preservation, split selection, top-p
verification, and the exact split-lattice expectation."""
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokaudit import (
    DomainError,
    ModelSpec,
    PolicySpec,
    ResourceLimitError,
    Vocabulary,
    apply_policy,
    enumerate_output_distribution,
    expected_extra_tokens,
    heuristic_split_policy,
    load_config,
    next_token_dist,
    pair_splits,
    random_split_policy,
    str_of,
    top_p_set,
)
from tokaudit import policies

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


class TestPolicySpec:
    def test_constructors(self):
        assert PolicySpec.faithful().kind == "faithful"
        assert PolicySpec.random(3).m == 3
        h = PolicySpec.heuristic(2, 0.9)
        assert (h.kind, h.m, h.p) == ("heuristic", 2, 0.9)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            PolicySpec(kind="sneaky")

    def test_negative_m(self):
        with pytest.raises(DomainError):
            PolicySpec.random(-1)

    def test_heuristic_needs_p(self):
        with pytest.raises(DomainError):
            PolicySpec(kind="heuristic", m=1)
        with pytest.raises(DomainError):
            PolicySpec.heuristic(1, 1.0)


class TestTopPSet:
    def test_frozen_example(self):
        dist = [0.5, 0.3, 0.15, 0.05]
        assert top_p_set(dist, 0.5) == {0}
        assert top_p_set(dist, 0.6) == {0, 1}
        assert top_p_set(dist, 0.9) == {0, 1, 2}

    def test_tie_breaks_by_ascending_id(self):
        dist = [0.25, 0.25, 0.25, 0.25]
        assert top_p_set(dist, 0.4) == {0, 1}

    def test_p_bounds(self):
        with pytest.raises(DomainError):
            top_p_set([1.0], 0.0)
        with pytest.raises(DomainError):
            top_p_set([1.0], 1.0)


class TestRandomSplitPolicy:
    def test_preserves_string_and_adds_m_tokens(self, vocab_abc):
        rng = np.random.default_rng(0)
        seq = (5, 3)  # "abc" + "ab", both splittable
        for m in range(4):
            out = random_split_policy(seq, m, vocab_abc, np.random.default_rng(m))
            assert str_of(out, vocab_abc) == "abcab"
            # enough split depth exists here for the full budget
            assert len(out) == len(seq) + m

    def test_stops_when_atomic(self, vocab_abc):
        seq = (0, 1, 2)  # single chars only
        out = random_split_policy(seq, 5, vocab_abc, np.random.default_rng(1))
        assert out == seq

    def test_m_zero_is_identity(self, vocab_abc):
        seq = (5,)
        assert random_split_policy(seq, 0, vocab_abc, np.random.default_rng(2)) == seq

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_invariants(self, seed, m):
        vocab = Vocabulary.from_tokens(["a", "b", "c", "ab", "bc", "abc"])
        seq = (5, 4, 0)
        out = random_split_policy(seq, m, vocab, np.random.default_rng(seed))
        assert str_of(out, vocab) == str_of(seq, vocab)
        assert len(seq) <= len(out) <= len(seq) + m


class TestHeuristicSplitPolicy:
    def test_empty_sequence_unchanged(self, spec_abc):
        assert heuristic_split_policy((), 3, 0.99, spec_abc, "ab") == ()

    def test_single_char_tokens_unchanged(self, spec_abc):
        seq = (0, 1, 2)
        assert heuristic_split_policy(seq, 3, 0.99, spec_abc, "ab") == seq

    def test_split_choice_is_deterministic(self, vocab_abc):
        # p close to 1 makes the verification permissive
        spec = ModelSpec(seed=11, vocab=vocab_abc, max_len=12, temperature=8.0)
        # ids: a=0 b=1 c=2 ab=3 bc=4 abc=5; "abc" splits to (0,4) or (3,2);
        # min(0,4)=0 < min(3,2)=2, so (3,2) wins, then "ab"(3) -> (0,1)
        out = heuristic_split_policy((5,), 2, 0.999999, spec, "ab")
        assert out in ((0, 1, 2), (5,))
        if out != (5,):
            assert str_of(out, vocab_abc) == "abc"

    def test_verification_can_reject(self, vocab_abc):
        # p tiny: the top-p set is a single token per position, so the
        # modified sequence almost surely fails and falls back
        spec = ModelSpec(seed=11, vocab=vocab_abc, max_len=12)
        seq = (5, 4)
        out = heuristic_split_policy(seq, 2, 1e-9, spec, "ab")
        assert out == seq

    def test_string_always_preserved(self, spec_abc):
        for seed_seq in [(5,), (5, 3), (4, 4), (3, 2, 5)]:
            out = heuristic_split_policy(seed_seq, 3, 0.99, spec_abc, "abc")
            assert str_of(out, spec_abc.vocab) == str_of(seed_seq, spec_abc.vocab)

    def test_result_is_original_object_when_unmodified(self, spec_abc):
        seq = (0, 0, 1)
        out = heuristic_split_policy(seq, 4, 0.5, spec_abc, "ab")
        assert out == seq


def _heuristic_by_definition(generated, m, p, spec, prompt):
    """The heuristic policy with its verification written as defined: the
    top-p set of next_token_dist, recomputed at every position."""
    vocab = spec.vocab
    seq = list(generated)
    if not seq:
        return tuple(generated)
    for _ in range(m):
        i = max(range(len(seq)), key=lambda j: (seq[j], -j))
        if len(vocab.strings[seq[i]]) == 1:
            break
        pairs = pair_splits(seq[i], vocab)
        if not pairs:
            break
        best = max(pairs, key=lambda ab: (min(ab), -ab[0], -ab[1]))
        seq[i : i + 1] = best
    out = tuple(seq)
    if out == tuple(generated):
        return tuple(generated)
    for idx in range(len(out)):
        if out[idx] not in top_p_set(next_token_dist(spec, prompt, out[:idx]), p):
            return tuple(generated)
    return out


class TestHeuristicMatchesDefinition:
    def test_every_output_of_the_heuristic_config(self):
        cfg = load_config(CONFIGS / "heuristic.json")
        spec, policy = cfg.model, cfg.policy
        assert spec.max_len == 6
        kept = changed = 0
        for prompt in cfg.corpus.prompts:
            for seq, _ in enumerate_output_distribution(spec, prompt).entries:
                for p in (policy.p, 0.9, 0.5):
                    got = heuristic_split_policy(seq, policy.m, p, spec, prompt)
                    assert got == _heuristic_by_definition(seq, policy.m, p, spec, prompt)
                    changed += got != seq
                    kept += got == seq
        assert kept and changed  # both verification outcomes are exercised

    def test_invalid_ids_raise_where_next_token_dist_raises(self, vocab_tiny):
        # EOS (id 3), negative and out-of-range ids are rejected on entry by
        # both policies, whatever m is, as next_token_dist rejects them
        spec = ModelSpec(seed=3, vocab=vocab_tiny, max_len=4)
        for seq in [(0, 3, 0), (3,), (-1, 0), (-1,), (9,), (2, 1, 3)]:
            with pytest.raises(DomainError):
                next_token_dist(spec, "ab", seq)
            for m in (0, 2):
                with pytest.raises(DomainError):
                    heuristic_split_policy(seq, m, 0.99, spec, "ab")
                with pytest.raises(DomainError):
                    random_split_policy(seq, m, vocab_tiny, np.random.default_rng(0))
        # only ids are checked: a valid over-long input comes back unchanged
        long = (2, 2, 2, 2, 2)
        assert heuristic_split_policy(long, 2, 1 - 1e-12, spec, "ab") == long

    def test_top_p_cache_is_bounded(self):
        maxsize = policies._top_p_at.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


class TestApplyPolicy:
    def test_faithful_identity(self, spec_abc):
        seq = (5, 3)
        got = apply_policy(PolicySpec.faithful(), spec_abc, "ab", seq, np.random.default_rng(0))
        assert got == seq

    def test_random_dispatch_matches_direct(self, spec_abc):
        seq = (5, 3)
        a = apply_policy(PolicySpec.random(2), spec_abc, "ab", seq, np.random.default_rng(9))
        b = random_split_policy(seq, 2, spec_abc.vocab, np.random.default_rng(9))
        assert a == b

    def test_heuristic_dispatch_matches_direct(self, spec_abc):
        seq = (5, 4)
        a = apply_policy(
            PolicySpec.heuristic(2, 0.9), spec_abc, "ab", seq, np.random.default_rng(0)
        )
        b = heuristic_split_policy(seq, 2, 0.9, spec_abc, "ab")
        assert a == b


class TestExpectedExtraTokens:
    def test_faithful_zero(self, spec_abc):
        assert expected_extra_tokens(PolicySpec.faithful(), spec_abc, "ab", (5, 3)) == 0.0

    def test_heuristic_matches_policy_difference(self, spec_abc):
        policy = PolicySpec.heuristic(2, 0.99)
        seq = (5, 3)
        out = heuristic_split_policy(seq, 2, 0.99, spec_abc, "ab")
        got = expected_extra_tokens(policy, spec_abc, "ab", seq)
        assert got == float(len(out) - len(seq))

    def test_random_exact_one_step(self, spec_abc):
        # from (5,): splits (0,4) and (3,2) both exist, every branch adds
        # exactly one token, so the expectation is exactly 1
        got = expected_extra_tokens(PolicySpec.random(1), spec_abc, "ab", (5,))
        assert got == 1.0

    def test_random_exact_saturates(self, spec_abc):
        # budget far beyond the split depth: "abc" fully splits in 2 steps
        got = expected_extra_tokens(PolicySpec.random(10), spec_abc, "ab", (5,))
        assert got == 2.0

    def test_random_exact_matches_monte_carlo(self, spec_abc):
        policy = PolicySpec.random(2)
        seq = (5, 4)
        exact = expected_extra_tokens(policy, spec_abc, "ab", seq)
        rng = np.random.default_rng(17)
        draws = [
            len(random_split_policy(seq, 2, spec_abc.vocab, rng)) - len(seq)
            for _ in range(20000)
        ]
        mean = float(np.mean(draws))
        se = float(np.std(draws, ddof=1) / math.sqrt(len(draws)))
        assert abs(mean - exact) < 4 * max(se, 1e-12)

    def test_state_cap_raises_without_rng(self, spec_abc):
        with pytest.raises(ResourceLimitError):
            expected_extra_tokens(
                PolicySpec.random(3), spec_abc, "ab", (5, 5, 5), state_cap=1
            )
