"""Exhaustive-enumeration oracle tests.

These are the reference computations the statistical criteria leans on, so
they get checked against direct recomputation from the model primitives.
"""
import gc
import math

import numpy as np
import pytest

from tokaudit import (
    DomainError,
    ModelSpec,
    PolicySpec,
    ResourceLimitError,
    TruncationDist,
    Vocabulary,
    conditional_expected_length,
    conditional_expected_lengths,
    enumerate_output_distribution,
    enumerate_tokenizations,
    evidence_moments,
    exact_intensity,
    load_config,
    next_token_log_probs,
    sequence_log_prob,
    str_of,
)


def _recursive_law(spec, prompt):
    """The output-law walk as a recursive closure, kept as the order reference."""
    eos = spec.vocab.eos_id
    out = []

    def walk(prefix, acc):
        logp = next_token_log_probs(spec, prompt, prefix)
        out.append((prefix, acc + float(logp[eos])))
        if len(prefix) == spec.max_len:
            return
        for t in spec.vocab.token_ids:
            walk(prefix + (t,), acc + float(logp[t]))

    walk((), 0.0)
    return out


class TestEnumerateOutputDistribution:
    def test_mass_is_one(self, spec_tiny_short):
        dist = enumerate_output_distribution(spec_tiny_short, "ab")
        assert math.isclose(dist.total_mass, 1.0, rel_tol=0, abs_tol=1e-9)

    def test_entries_respect_max_len(self, spec_tiny_short):
        dist = enumerate_output_distribution(spec_tiny_short, "ab")
        assert all(len(seq) <= spec_tiny_short.max_len for seq, _ in dist.entries)
        # geometric series over the non-EOS alphabet, EOS-terminated
        expect = sum(3**k for k in range(spec_tiny_short.max_len + 1))
        assert len(dist.entries) == expect

    def test_log_probs_match_direct_recompute(self, spec_tiny_short):
        dist = enumerate_output_distribution(spec_tiny_short, "ba")
        for seq, lp in dist.entries[:50]:
            assert math.isclose(
                lp, sequence_log_prob(spec_tiny_short, "ba", seq), rel_tol=0, abs_tol=1e-10
            )

    def test_cap_enforced(self, spec_tiny_short):
        with pytest.raises(ResourceLimitError):
            enumerate_output_distribution(spec_tiny_short, "ab", cap=10)

    @pytest.mark.parametrize("cw", [None, 0, 1])
    def test_entries_in_recursive_preorder(self, spec_tiny_short, cw):
        # exact_intensity sums in entry order, so the order is part of its value;
        # cw 0 has its own case because prefix[-0:] is the whole prefix
        spec = spec_tiny_short
        if cw is not None:
            spec = ModelSpec(seed=3, vocab=spec.vocab, context_window=cw, eos_boost=0.4, max_len=5)
        dist = enumerate_output_distribution(spec, "ab")
        expect = _recursive_law(spec, "ab")
        assert list(dist.entries) == expect
        assert dist.total_mass == math.fsum(math.exp(lp) for _, lp in expect)


class TestConditionalExpectedLength:
    def test_matches_direct_recompute(self, spec_tiny_short):
        target = "abab"
        got = conditional_expected_length(spec_tiny_short, "ab", target)
        toks = [
            t
            for t in enumerate_tokenizations(target, spec_tiny_short.vocab)
            if len(t) <= spec_tiny_short.max_len
        ]
        ws = [math.exp(sequence_log_prob(spec_tiny_short, "ab", t)) for t in toks]
        expect = sum(w * len(t) for w, t in zip(ws, toks)) / sum(ws)
        assert math.isclose(got, expect, rel_tol=1e-12)

    def test_stays_in_length_hull(self, spec_tiny_short):
        got = conditional_expected_length(spec_tiny_short, "ab", "abab")
        toks = enumerate_tokenizations("abab", spec_tiny_short.vocab)
        lens = [len(t) for t in toks if len(t) <= spec_tiny_short.max_len]
        assert min(lens) <= got <= max(lens)

    def test_unproducible_target(self, vocab_tiny):
        spec = ModelSpec(seed=7, vocab=vocab_tiny, max_len=2)
        with pytest.raises(DomainError):
            conditional_expected_length(spec, "ab", "ababab")


class TestConditionalExpectedLengths:
    def _check(self, spec, prompt):
        dist = enumerate_output_distribution(spec, prompt)
        got = conditional_expected_lengths(dist, spec.vocab)
        assert set(got) == {str_of(seq, spec.vocab) for seq, _ in dist.entries}
        for s, value in got.items():
            assert value == conditional_expected_length(spec, prompt, s), s

    def test_equals_reference_on_heuristic_config(self, configs_dir):
        cfg = load_config(configs_dir / "heuristic.json")
        assert cfg.model.max_len == 6 and len(cfg.corpus.prompts) == 4
        for prompt in cfg.corpus.prompts:
            self._check(cfg.model, prompt)

    def test_equals_reference_on_tiny_short(self, spec_tiny_short):
        self._check(spec_tiny_short, "ab")


class TestNoReferenceCycles:
    @pytest.mark.parametrize("name", ["law", "tokenizations", "random", "heuristic"])
    def test_one_call_leaves_no_cyclic_garbage(self, vocab_tiny, name):
        spec = ModelSpec(seed=7, vocab=vocab_tiny, eos_boost=0.7, max_len=6)
        call = {
            "law": lambda: enumerate_output_distribution(spec, "ab"),
            "tokenizations": lambda: enumerate_tokenizations("abababab", vocab_tiny),
            "random": lambda: exact_intensity(PolicySpec.random(2), spec, ("ab",)),
            "heuristic": lambda: exact_intensity(PolicySpec.heuristic(2, 0.9), spec, ("ab",)),
        }[name]
        call()  # warm the model's caches
        gc.collect()
        gc.disable()
        try:
            call()
        finally:
            gc.enable()
        assert gc.collect() == 0


class TestExactIntensity:
    def test_faithful_is_exactly_zero(self, spec_tiny_short):
        assert exact_intensity(PolicySpec.faithful(), spec_tiny_short, ("ab",)) == 0.0

    def test_monotone_in_split_budget(self, spec_tiny_short, corpus_tiny):
        vals = [
            exact_intensity(PolicySpec.random(m), spec_tiny_short, corpus_tiny.prompts)
            for m in (1, 2, 3)
        ]
        assert vals[0] > 0
        assert vals[0] <= vals[1] <= vals[2]

    def test_matches_hand_averaged_expectation(self, spec_tiny_short):
        # recompute the m=1 intensity for one prompt straight from the
        # output table and the per-sequence expected extra tokens
        from tokaudit import expected_extra_tokens

        policy = PolicySpec.random(1)
        dist = enumerate_output_distribution(spec_tiny_short, "ab")
        num = 0.0
        den = 0.0
        for seq, lp in dist.entries:
            w = math.exp(lp)
            num += w * expected_extra_tokens(policy, spec_tiny_short, "ab", seq)
            den += w
        expect = num / den
        got = exact_intensity(policy, spec_tiny_short, ("ab",))
        assert math.isclose(got, expect, rel_tol=1e-12)


class TestEvidenceMoments:
    def test_fields_are_consistent(self, spec_tiny_short, corpus_tiny):
        trunc = TruncationDist.poisson(4.0)
        mom = evidence_moments(
            PolicySpec.random(1),
            spec_tiny_short,
            corpus_tiny.prompts,
            trunc,
            n=400,
            rng=np.random.default_rng(3),
            lambda0=0.2,
        )
        assert mom.n == 400
        assert mom.lambda0 == 0.2
        assert mom.min_evidence <= mom.mean <= mom.max_evidence
        assert math.isclose(mom.se, math.sqrt(mom.variance / mom.n), rel_tol=1e-12)
        assert math.isclose(
            mom.empirical_b_minus, 1.0 + 0.2 * mom.min_evidence, rel_tol=1e-12
        )
        assert math.isclose(
            mom.empirical_b_plus, 1.0 + 0.2 * mom.max_evidence, rel_tol=1e-12
        )

    def test_faithful_mean_near_zero(self, spec_tiny_short, corpus_tiny):
        trunc = TruncationDist.poisson(4.0)
        mom = evidence_moments(
            PolicySpec.faithful(),
            spec_tiny_short,
            corpus_tiny.prompts,
            trunc,
            n=3000,
            rng=np.random.default_rng(6),
        )
        assert abs(mom.mean) < 5 * mom.se

    def test_needs_two_draws(self, spec_tiny_short, corpus_tiny):
        with pytest.raises(DomainError):
            evidence_moments(
                PolicySpec.faithful(),
                spec_tiny_short,
                corpus_tiny.prompts,
                TruncationDist.poisson(4.0),
                n=1,
                rng=np.random.default_rng(0),
            )

    def test_empty_corpus(self, spec_tiny_short):
        with pytest.raises(DomainError):
            evidence_moments(
                PolicySpec.faithful(),
                spec_tiny_short,
                (),
                TruncationDist.poisson(4.0),
                n=10,
                rng=np.random.default_rng(0),
            )
