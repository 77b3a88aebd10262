"""Deterministic toy model and constrained-generation tests.

Weight identities are the load-bearing part: a constrained sample's
log_weight must equal both the sum of step normalizers and the gap
between the free-model path probability and the masked path probability.
"""
import contextlib
import dataclasses
import gc
import hashlib
import itertools
import math
import os
import pickle
import subprocess
import sys
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokaudit import (
    ConstrainedSample,
    DomainError,
    ModelSpec,
    PolicySpec,
    TruncationDist,
    Vocabulary,
    apply_policy,
    enumerate_output_distribution,
    estimate_length,
    masked_path_log_prob,
    next_token_dist,
    next_token_log_probs,
    sample_constrained,
    sample_sequence,
    sequence_log_prob,
    str_of,
)
from tokaudit import estimator, load_config, toymodel
from tokaudit.rngstream import exact_stream
from tokaudit.tokenspace import min_tokens_to_complete
from tokaudit.toymodel import _root_context, constrained_sampler


def _context_node(spec, prompt, ctx):
    """The prompt's context node for ctx, reached by walking ctx from the root."""
    c = toymodel._walk(spec, prompt, ctx)
    assert c.ctx == tuple(ctx)
    return c


def _step_table(spec, prompt, ctx, prefix_len):
    """(probs, log_probs, CDF) of one prefix length, read from the context node."""
    c = _context_node(spec, prompt, ctx)
    return c.probs[prefix_len], c.log_probs[prefix_len], c.cdfs[prefix_len] or c.cdf(prefix_len)


class TestModelSpecValidation:
    def test_rejects_bad_temperature(self, vocab_tiny):
        with pytest.raises(DomainError):
            ModelSpec(seed=1, vocab=vocab_tiny, temperature=0.0)

    def test_rejects_bad_max_len(self, vocab_tiny):
        with pytest.raises(DomainError):
            ModelSpec(seed=1, vocab=vocab_tiny, max_len=0)

    def test_rejects_bad_context_window(self, vocab_tiny):
        with pytest.raises(DomainError):
            ModelSpec(seed=1, vocab=vocab_tiny, context_window=-1)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 2**70])
    def test_rejects_seed_outside_int64(self, vocab_tiny, seed):
        # _Context packs the seed into 8 signed bytes
        with pytest.raises(DomainError, match="seed must lie in"):
            ModelSpec(seed=seed, vocab=vocab_tiny)

    def test_accepts_int64_extremes(self, vocab_tiny):
        for seed in (2**63 - 1, -(2**63)):
            spec = ModelSpec(seed=seed, vocab=vocab_tiny, max_len=4)
            assert next_token_dist(spec, "ab", ()).sum() == pytest.approx(1.0)


class TestModelSpecHash:
    def test_cached_hash_stays_out_of_repr_and_eq(self, vocab_tiny):
        a = ModelSpec(seed=1, vocab=vocab_tiny)
        b = ModelSpec(seed=1, vocab=vocab_tiny)
        hash(a)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "_hash" not in repr(a)
        assert a != ModelSpec(seed=2, vocab=vocab_tiny)

    def test_pickle_round_trip_recomputes_hash(self, vocab_tiny):
        spec = ModelSpec(seed=1, vocab=vocab_tiny, max_len=5)
        hash(spec)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        assert "_hash" not in spec.__getstate__()

    def test_pickle_from_another_hash_seed(self, vocab_tiny):
        # string hashes differ between processes, so a hash carried in the
        # pickle would break dict lookups here
        code = (
            "import pickle, sys\n"
            "from tokaudit import ModelSpec, Vocabulary\n"
            "spec = ModelSpec(seed=1, vocab=Vocabulary.from_tokens(['a', 'b', 'ab']))\n"
            "hash(spec)\n"
            "sys.stdout.buffer.write(pickle.dumps(spec))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        blob = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, check=True).stdout
        back = pickle.loads(blob)
        here = ModelSpec(seed=1, vocab=vocab_tiny)
        assert back == here and hash(back) == hash(here)
        assert {here: 1}[back] == 1


class TestNextTokenDist:
    def test_sums_to_one(self, spec_tiny6):
        dist = next_token_dist(spec_tiny6, "ab", (0, 1))
        assert dist.shape == (spec_tiny6.vocab.size,)
        assert np.all(dist > 0)
        assert math.isclose(float(dist.sum()), 1.0, abs_tol=1e-12)

    def test_deterministic_across_calls(self, spec_tiny6):
        a = next_token_dist(spec_tiny6, "ab", (0, 2))
        b = next_token_dist(spec_tiny6, "ab", (0, 2))
        assert np.array_equal(a, b)

    def test_depends_on_prompt_and_seed(self, vocab_tiny):
        s1 = ModelSpec(seed=1, vocab=vocab_tiny)
        s2 = ModelSpec(seed=2, vocab=vocab_tiny)
        assert not np.array_equal(
            next_token_dist(s1, "ab", ()), next_token_dist(s2, "ab", ())
        )
        assert not np.array_equal(
            next_token_dist(s1, "ab", ()), next_token_dist(s1, "ba", ())
        )

    def test_context_window_limits_memory(self, vocab_tiny):
        spec = ModelSpec(seed=3, vocab=vocab_tiny, context_window=1, max_len=8)
        # same final token and same length: identical context hash inputs
        a = next_token_dist(spec, "ab", (0, 0, 1))
        b = next_token_dist(spec, "ab", (1, 0, 1))
        assert np.array_equal(a, b)
        # but a different trailing token changes the distribution
        c = next_token_dist(spec, "ab", (0, 0, 0))
        assert not np.array_equal(a, c)

    def test_eos_point_mass_at_max_len(self, spec_tiny4):
        dist = next_token_dist(spec_tiny4, "ab", (0, 0, 0, 0))
        assert dist[spec_tiny4.vocab.eos_id] == 1.0
        assert float(dist.sum()) == 1.0

    def test_eos_boost_raises_stop_probability(self, vocab_tiny):
        base = ModelSpec(seed=5, vocab=vocab_tiny, eos_boost=0.0, max_len=8)
        keen = ModelSpec(seed=5, vocab=vocab_tiny, eos_boost=1.5, max_len=8)
        prefix = (0, 1)
        p0 = next_token_dist(base, "ab", prefix)[vocab_tiny.eos_id]
        p1 = next_token_dist(keen, "ab", prefix)[vocab_tiny.eos_id]
        assert p1 > p0

    @pytest.mark.parametrize("kw", [dict(eos_boost=1e308), dict(temperature=1e-320)],
                             ids=["eos_boost=1e308", "temperature=1e-320"])
    def test_overflowing_rows_are_a_domain_error(self, vocab_tiny, kw):
        # finite settings whose softmax overflows to inf and then nan: refused
        # when the context is built, with no numpy warning on the way
        spec = ModelSpec(seed=5, vocab=vocab_tiny, max_len=8, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="probabilities are not finite"):
                next_token_dist(spec, "ab", ())
            with pytest.raises(DomainError, match="probabilities are not finite"):
                sample_sequence(spec, "ab", np.random.default_rng(0))

    def test_rejects_overlong_prefix(self, spec_tiny4):
        with pytest.raises(DomainError):
            next_token_dist(spec_tiny4, "ab", (0,) * 5)

    def test_rejects_bad_prefix_id(self, spec_tiny4):
        with pytest.raises(DomainError):
            next_token_dist(spec_tiny4, "ab", (spec_tiny4.vocab.eos_id,))

    def test_log_probs_match_dist(self, spec_tiny6):
        dist = next_token_dist(spec_tiny6, "ba", (2,))
        logp = next_token_log_probs(spec_tiny6, "ba", (2,))
        assert np.allclose(np.exp(logp), dist, atol=1e-12)


class TestSampleSequence:
    def test_length_capped(self, spec_tiny4):
        rng = np.random.default_rng(0)
        for _ in range(200):
            seq = sample_sequence(spec_tiny4, "ab", rng)
            assert len(seq) <= spec_tiny4.max_len
            assert spec_tiny4.vocab.eos_id not in seq

    def test_reproducible(self, spec_tiny6):
        a = [sample_sequence(spec_tiny6, "ab", np.random.default_rng(42)) for _ in range(5)]
        b = [sample_sequence(spec_tiny6, "ab", np.random.default_rng(42)) for _ in range(5)]
        assert a == b

    def test_log_prob_recomputes(self, spec_tiny6):
        rng = np.random.default_rng(7)
        for _ in range(50):
            seq = sample_sequence(spec_tiny6, "ba", rng)
            lp = sequence_log_prob(spec_tiny6, "ba", seq)
            # manual stepwise recomputation, including the final stop
            manual = 0.0
            for i, t in enumerate(seq):
                manual += math.log(next_token_dist(spec_tiny6, "ba", seq[:i])[t])
            manual += math.log(
                next_token_dist(spec_tiny6, "ba", seq)[spec_tiny6.vocab.eos_id]
            )
            assert math.isclose(lp, manual, rel_tol=0, abs_tol=1e-10)


class TestConstrainedSampling:
    def test_produces_target_string(self, spec_tiny6):
        rng = np.random.default_rng(3)
        for _ in range(100):
            cs = sample_constrained(spec_tiny6, "ab", "abab", rng)
            assert str_of(cs.seq, spec_tiny6.vocab) == "abab"
            assert len(cs.seq) <= spec_tiny6.max_len
            assert math.isfinite(cs.log_weight)

    def test_weight_identity_sum_of_normalizers(self, spec_tiny6):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cs = sample_constrained(spec_tiny6, "ba", "abab", rng)
            _, log_z_sum = masked_path_log_prob(spec_tiny6, "ba", "abab", cs.seq)
            assert math.isclose(cs.log_weight, log_z_sum, rel_tol=0, abs_tol=1e-12)

    def test_weight_identity_model_minus_masked(self, spec_tiny6):
        rng = np.random.default_rng(12)
        for _ in range(50):
            cs = sample_constrained(spec_tiny6, "ba", "abab", rng)
            masked_lp, _ = masked_path_log_prob(spec_tiny6, "ba", "abab", cs.seq)
            model_lp = sequence_log_prob(spec_tiny6, "ba", cs.seq)
            assert math.isclose(
                cs.log_weight, model_lp - masked_lp, rel_tol=0, abs_tol=1e-12
            )

    def test_budget_masking_never_strands(self, vocab_tiny):
        # max_len 4 and target "abab": paths using four single-char tokens
        # fit exactly, so every admissible step keeps completion possible
        spec = ModelSpec(seed=9, vocab=vocab_tiny, max_len=4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            cs = sample_constrained(spec, "ab", "abab", rng)
            assert str_of(cs.seq, spec.vocab) == "abab"
            assert len(cs.seq) <= 4

    def test_unproducible_target_rejected(self, vocab_tiny):
        spec = ModelSpec(seed=9, vocab=vocab_tiny, max_len=2)
        with pytest.raises(DomainError) as exc:
            sample_constrained(spec, "ab", "ababab", np.random.default_rng(0))
        assert "not producible" in str(exc.value)

    def test_unspellable_target_rejected(self, spec_tiny6):
        with pytest.raises(DomainError):
            sample_constrained(spec_tiny6, "ab", "abxba", np.random.default_rng(0))

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.text(alphabet="ab", min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_fuzz_string_preserved_and_weights_agree(self, draw_seed, target):
        vocab = Vocabulary.from_tokens(["a", "b", "ab"])
        spec = ModelSpec(seed=21, vocab=vocab, max_len=6)
        rng = np.random.default_rng(draw_seed)
        cs = sample_constrained(spec, "ab", target, rng)
        assert str_of(cs.seq, vocab) == target
        masked_lp, log_z_sum = masked_path_log_prob(spec, "ab", target, cs.seq)
        assert math.isclose(cs.log_weight, log_z_sum, abs_tol=1e-12)
        model_lp = sequence_log_prob(spec, "ab", cs.seq)
        assert math.isclose(cs.log_weight, model_lp - masked_lp, abs_tol=1e-12)


class _ReferenceSampler:
    """The dict-keyed sampler that linked nodes replaced: every step rebuilds
    its context tuple and looks its state up, and P(EOS) is read from the
    step table at the end."""

    def __init__(self, spec, prompt, target):
        self.spec = spec
        self.prompt = prompt
        self.target = target
        self._min_left = min_tokens_to_complete(target, spec.vocab)
        self._states = {}

    def _state(self, consumed, plen, ctx):
        key = (consumed, plen, ctx)
        st = self._states.get(key)
        if st is None:
            st = self._states[key] = self._build(consumed, plen, ctx)
        return st

    def _build(self, consumed, plen, ctx):
        spec = self.spec
        strings = spec.vocab.strings
        probs, _, _ = _step_table(spec, self.prompt, ctx, plen)
        budget = spec.max_len - plen - 1
        ids, advances, weights = [], [], []
        for t in spec.vocab.token_ids:
            s = strings[t]
            if self.target.startswith(s, consumed) and self._min_left[consumed + len(s)] <= budget:
                ids.append(t)
                advances.append(len(s))
                weights.append(float(probs[t]))
        z = math.fsum(weights)
        cum = []
        acc = 0.0
        for w in weights:
            acc += w
            cum.append(acc / z)
        cum[-1] = 1.0
        return ids, advances, cum, math.log(z)

    def sample(self, rng):
        cw = self.spec.context_window
        consumed = 0
        ids = []
        log_w = 0.0
        while consumed < len(self.target):
            ctx = tuple(ids[-cw:]) if cw else ()
            st_ids, advances, cum, log_z = self._state(consumed, len(ids), ctx)
            j = bisect_right(cum, rng.random())
            if j >= len(st_ids):
                j = len(st_ids) - 1
            log_w += log_z
            consumed += advances[j]
            ids.append(st_ids[j])
        ctx = tuple(ids[-cw:]) if cw else ()
        _, logp, _ = _step_table(self.spec, self.prompt, ctx, len(ids))
        log_w += float(logp[self.spec.vocab.eos_id])
        return ConstrainedSample(seq=tuple(ids), log_weight=log_w)

    def draw(self, rng, k):
        return [(len(cs.seq), cs.log_weight) for cs in (self.sample(rng) for _ in range(k))]


def _stream_cases(vocab_tiny, vocab_abc, vocab_default):
    default = ModelSpec(seed=20240, vocab=vocab_default, context_window=2,
                        temperature=1.25, eos_boost=0.45, max_len=16)
    return [
        # the length cap bites: "abab" needs at least 2 of at most 4 tokens
        (ModelSpec(seed=7, vocab=vocab_tiny, context_window=2, max_len=4), "ab", ["abab"]),
        (ModelSpec(seed=11, vocab=vocab_abc, context_window=2, eos_boost=0.3, max_len=8),
         "abc", ["abcab", "cabc", "abc"]),
        (default, "beast", ["tabbest", "setbeat", "a"]),
        # ids not sorted by token length: admissible ids stay in id order
        (ModelSpec(seed=3, vocab=Vocabulary.from_tokens(["abc", "c", "ab", "a", "bc", "b"]),
                   context_window=1, eos_boost=0.2, max_len=6), "cab", ["abcab", "bcabc"]),
    ]


class TestDrawStreamPinned:
    """Linked sampler nodes draw the same tokens, weights and RNG stream
    as the dict-keyed sampler, bit for bit."""

    def test_sample_constrained_matches_reference(self, vocab_tiny, vocab_abc, vocab_default):
        for spec, prompt, targets in _stream_cases(vocab_tiny, vocab_abc, vocab_default):
            for target in targets:
                ref = _ReferenceSampler(spec, prompt, target)
                rng_new = np.random.default_rng(2024)
                rng_ref = np.random.default_rng(2024)
                for _ in range(2000):
                    got = sample_constrained(spec, prompt, target, rng_new)
                    want = ref.sample(rng_ref)
                    assert got.seq == want.seq
                    assert got.log_weight == want.log_weight
                assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_estimate_length_matches_reference(self, monkeypatch, vocab_tiny, vocab_abc,
                                               vocab_default):
        trunc = TruncationDist.poisson(7.0)
        cases = _stream_cases(vocab_tiny, vocab_abc, vocab_default)

        def values():
            out = []
            for spec, prompt, targets in cases:
                for target in targets:
                    rng = np.random.default_rng(99)
                    out += [estimate_length(spec, prompt, target, trunc, rng).value
                            for _ in range(50)]
            return out

        got = values()
        monkeypatch.setattr(estimator, "constrained_sampler", _ReferenceSampler)
        assert got == values()

    def test_keep_samples_changes_neither_value_nor_stream(self, vocab_tiny, vocab_abc,
                                                           vocab_default):
        trunc = TruncationDist.poisson(7.0)
        for spec, prompt, targets in _stream_cases(vocab_tiny, vocab_abc, vocab_default):
            for target in targets:
                rng_kept = np.random.default_rng(5)
                rng_dropped = np.random.default_rng(5)
                for _ in range(50):
                    kept = estimate_length(spec, prompt, target, trunc, rng_kept)
                    dropped = estimate_length(spec, prompt, target, trunc, rng_dropped,
                                              keep_samples=False)
                    assert dropped.value == kept.value
                    assert dropped.k_used == kept.k_used == len(kept.samples)
                    assert dropped.samples == ()
                assert rng_dropped.bit_generator.state == rng_kept.bit_generator.state


class TestLengthOnlyDraw:
    """draw(rng, k) walks the paths of k sample(rng) calls: the same lengths,
    the same weights bit for bit and the same RNG stream."""

    @pytest.mark.parametrize("streamed", [False, True], ids=["numpy", "exact_stream"])
    def test_matches_sequence_draw(self, streamed, vocab_tiny, vocab_abc, vocab_default):
        def draws(spec, prompt, target, rng, one_by_one):
            # one fresh sampler per form, so each builds its own lattice
            sampler = toymodel.ConstrainedSampler(spec, prompt, target)
            out = []
            with exact_stream(rng) if streamed else contextlib.nullcontext(rng) as source:
                for k in (1, 2, 7, 50, 300):
                    if one_by_one:
                        samples = [sampler.sample(source) for _ in range(k)]
                        out += [(len(cs.seq), cs.log_weight) for cs in samples]
                    else:
                        out += sampler.draw(source, k)
            return out

        for spec, prompt, targets in _stream_cases(vocab_tiny, vocab_abc, vocab_default):
            for target in targets:
                rng_seqs = np.random.default_rng(8)
                rng_lens = np.random.default_rng(8)
                by_seq = draws(spec, prompt, target, rng_seqs, one_by_one=True)
                by_len = draws(spec, prompt, target, rng_lens, one_by_one=False)
                assert by_len == by_seq
                assert all(type(n) is int for n, _ in by_len)
                assert rng_lens.bit_generator.state == rng_seqs.bit_generator.state


class TestSamplerCacheEviction:
    """The sampler cache is bounded; a sampler rebuilt after eviction gives
    the same estimates and draws as one that was never evicted."""

    def test_eviction_changes_no_estimate(self, vocab_abc):
        spec = ModelSpec(seed=11, vocab=vocab_abc, context_window=2, eos_boost=0.3, max_len=8)
        maxsize = constrained_sampler.cache_info().maxsize
        # single-character tokens spell every string over "abc"
        targets = [
            "".join(chars)
            for n in range(1, spec.max_len + 1)
            for chars in itertools.product("abc", repeat=n)
        ][: maxsize + 64]
        assert len(targets) == maxsize + 64
        # each target twice in a row (a hit on a grown lattice), then the whole
        # list again, which finds every sampler evicted and rebuilds it
        calls = [t for t in targets for _ in range(2)] + targets
        trunc = TruncationDist.poisson(7.0)

        def run(clear_each):
            rng = np.random.default_rng(31)
            out = []
            for target in calls:
                if clear_each:
                    constrained_sampler.cache_clear()
                est = estimate_length(spec, "abc", target, trunc, rng)
                out.append((est.value, est.samples, rng.bit_generator.state))
            return out

        constrained_sampler.cache_clear()
        evicting = run(clear_each=False)
        info = constrained_sampler.cache_info()
        assert info.currsize <= info.maxsize
        assert info.misses == len(targets) * 2  # one build per target, one rebuild
        assert evicting == run(clear_each=True)


def _live(cls):
    """The objects of cls that are still alive, whether or not a collection has run."""
    return [o for o in gc.get_objects() if isinstance(o, cls)]


@contextlib.contextmanager
def _gc_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestLatticeLifetime:
    """A sampler drops the lattice of its first draw and keeps it from the
    second draw on; neither changes an estimate or the RNG stream."""

    @staticmethod
    def _call_orders(triples):
        # rotation r estimates triple i 1 + (i + r) % 3 times: once in
        # round-robin passes over the others, once back to back
        orders = []
        for r in range(3):
            counts = [1 + (i + r) % 3 for i in range(len(triples))]
            orders.append([t for p in range(3) for t, n in zip(triples, counts) if n > p])
            orders.append([t for t, n in zip(triples, counts) for _ in range(n)])
        return orders

    def test_estimates_match_reference_across_call_orders(self, monkeypatch, vocab_tiny,
                                                         vocab_abc, vocab_default):
        trunc = TruncationDist.poisson(7.0)
        triples = [(spec, prompt, target)
                   for spec, prompt, targets in _stream_cases(vocab_tiny, vocab_abc, vocab_default)
                   for target in targets]
        orders = self._call_orders(triples)
        assert {len(order) for order in orders} == {2 * len(triples)}

        def run(order):
            constrained_sampler.cache_clear()
            rng = np.random.default_rng(17)
            values = [estimate_length(spec, prompt, target, trunc, rng, keep_samples=False).value
                      for spec, prompt, target in order]
            return values, rng.bit_generator.state

        got = [run(order) for order in orders]
        monkeypatch.setattr(estimator, "constrained_sampler", _ReferenceSampler)
        assert got == [run(order) for order in orders]

    def test_first_draw_frees_its_nodes_and_second_keeps_them(self, spec_abc):
        sampler = toymodel.ConstrainedSampler(spec_abc, "abc", "abcab")
        rng = np.random.default_rng(3)
        with _gc_disabled():
            before = len(_live(toymodel._Node))
            sampler.draw(rng, 20)
            assert sampler._nodes == {} and "_root" not in vars(sampler)
            # freed by reference count: no collection has run
            assert len(_live(toymodel._Node)) == before
            sampler.draw(rng, 20)
            kept = dict(sampler._nodes)
            root = sampler._root
            assert kept and len(_live(toymodel._Node)) == before + len(kept)
            sampler.draw(rng, 20)
        assert sampler._root is root
        assert all(sampler._nodes[key] is node for key, node in kept.items())

    def test_evicted_prompt_tables_are_freed(self, vocab_tiny):
        # more prompts than _root_context keeps, each with one estimate: a
        # sampler used once holds no context, so an evicted table is not pinned
        spec = ModelSpec(seed=4_711, vocab=vocab_tiny, context_window=2, max_len=5)
        maxsize = _root_context.cache_info().maxsize
        prompts = [f"q{i}" for i in range(maxsize + 36)]
        trunc = TruncationDist.poisson(4.0)
        _root_context.cache_clear()
        constrained_sampler.cache_clear()
        rng = np.random.default_rng(2)
        for prompt in prompts:
            for _ in range(5):
                seq = sample_sequence(spec, prompt, rng)
            estimate_length(spec, prompt, str_of(seq, spec.vocab), trunc, rng, keep_samples=False)
        gc.collect()
        alive = {id(c.table) for c in _live(toymodel._Context) if c.spec is spec}
        cached = {id(_root_context(spec, prompt).table) for prompt in prompts[-maxsize:]}
        assert _root_context.cache_info().currsize == maxsize
        assert alive == cached


class TestLazyCompletionTable:
    """The minimal-completion table is built only where the length cap can
    bite, and every node admits the ids the full table admits."""

    @pytest.mark.parametrize("max_len", [4, 5])
    def test_admissible_ids_match_full_table(self, vocab_abc, max_len):
        spec = ModelSpec(seed=13, vocab=vocab_abc, context_window=2, eos_boost=0.3,
                         max_len=max_len)
        built = 0
        for n in range(1, max_len + 2):
            for chars in itertools.product("abc", repeat=n):
                target = "".join(chars)
                min_left = min_tokens_to_complete(target, vocab_abc)
                if min_left[0] > max_len:
                    with pytest.raises(DomainError, match="not producible"):
                        toymodel.ConstrainedSampler(spec, "abc", target)
                    continue
                sampler = toymodel.ConstrainedSampler(spec, "abc", target)
                ref = _ReferenceSampler(spec, "abc", target)
                rng = np.random.default_rng(n)
                rng_ref = np.random.default_rng(n)
                for _ in range(200):
                    got, want = sampler.sample(rng), ref.sample(rng_ref)
                    assert got.seq == want.seq and got.log_weight == want.log_weight
                assert rng.bit_generator.state == rng_ref.bit_generator.state
                for (consumed, plen, _), node in sampler._nodes.items():
                    if node.ids is not None:
                        budget = max_len - plen - 1
                        assert node.ids == tuple(
                            t for t, size in vocab_abc.matches_at(target, consumed)
                            if min_left[consumed + size] <= budget)
                # only a target longer than the cap needs the table
                assert ("_min_left" in vars(sampler)) == (n > max_len)
                built += n > max_len
        assert built > 0


def _single_step_table(spec, prompt, ctx, prefix_len):
    """The step table as one function: a fresh logits generator for every
    (context, prefix length), with no memo shared between lengths."""
    n = spec.vocab.size
    eos = spec.vocab.eos_id
    if prefix_len == spec.max_len:
        probs = np.zeros(n)
        probs[eos] = 1.0
        logp = np.full(n, -np.inf)
        logp[eos] = 0.0
    else:
        h = hashlib.blake2b(digest_size=32)
        h.update(spec.seed.to_bytes(8, "little", signed=True))
        h.update(hashlib.blake2b(prompt.encode("utf-8"), digest_size=16).digest())
        for t in ctx:
            h.update(int(t).to_bytes(4, "little"))
        entropy = np.frombuffer(h.digest(), dtype=np.uint32)
        gen = np.random.default_rng(np.random.SeedSequence(entropy.tolist()))
        logits = gen.standard_normal(n)
        logits[eos] += spec.eos_boost * prefix_len
        x = logits / spec.temperature
        x -= x.max()
        logp = x - math.log(float(np.exp(x).sum()))
        probs = np.exp(logp)
    cum = np.cumsum(probs).tolist()
    cum[-1] = 1.0
    return probs, logp, cum


class TestStepTablePinned:
    """One softmax per context gives every prefix length's row, bit for bit."""

    @staticmethod
    def _specs(configs_dir, spec_abc):
        shipped = [load_config(path).model for path in sorted(configs_dir.glob("*.json"))]
        assert len(shipped) == 5
        # past 128 ids numpy's pairwise summation splits a row recursively
        wide = Vocabulary.from_tokens([chr(0x100 + i) for i in range(300)])
        return shipped + [
            spec_abc,
            dataclasses.replace(spec_abc, context_window=0),
            dataclasses.replace(spec_abc, max_len=1),
            ModelSpec(seed=5, vocab=wide, context_window=1, temperature=0.7,
                      eos_boost=0.9, max_len=20),
        ]

    def test_matches_single_function_version(self, configs_dir, spec_abc):
        for spec in self._specs(configs_dir, spec_abc):
            ids = spec.vocab.token_ids
            cw = spec.context_window
            contexts = {c[-cw:] if cw else ()
                        for c in [(), (ids[0],), (ids[-1], ids[0]), (ids[1], ids[1]),
                                  (ids[2], ids[-1])]}
            for prompt in ("beast", "abc"):
                for ctx in contexts:
                    c = _context_node(spec, prompt, ctx)
                    probs, logp = c.probs, c.log_probs
                    assert probs.shape == logp.shape == (spec.max_len + 1, spec.vocab.size)
                    assert not probs.flags.writeable and not logp.flags.writeable
                    for plen in range(spec.max_len + 1):
                        want_probs, want_logp, want_cum = _single_step_table(
                            spec, prompt, ctx, plen)
                        assert (probs[plen] == want_probs).all()
                        assert (logp[plen] == want_logp).all()
                        assert list(c.cdfs[plen] or c.cdf(plen)) == want_cum

    def test_next_token_arrays_are_read_only(self, spec_abc):
        for prefix in [(), (1, 2), (1,) * spec_abc.max_len]:
            for arr in (next_token_dist(spec_abc, "abc", prefix),
                        next_token_log_probs(spec_abc, "abc", prefix)):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_context_rows_memo_is_bounded(self):
        assert _root_context.cache_info().maxsize is not None


def _per_token_walk(spec, prompt, rng):
    """sample_sequence as one _step_table lookup per token, with no linked nodes."""
    eos = spec.vocab.eos_id
    cw = spec.context_window
    ids = []
    while True:
        ctx = tuple(ids[-cw:]) if cw else ()
        _, _, cum = _step_table(spec, prompt, ctx, len(ids))
        j = bisect_right(cum, rng.random())
        if j == eos:
            return tuple(ids)
        ids.append(j)


class TestGenerationNodes:
    """Generation over linked per-prompt nodes draws what the per-token walk draws."""

    DRAWS = 2000

    def _specs(self, configs_dir, vocab_tiny):
        default = load_config(configs_dir / "default.json")
        prompts = tuple(default.corpus)[:3]
        return [
            (default.model, prompts),
            (dataclasses.replace(default.model, context_window=0), prompts),
            (dataclasses.replace(default.model, context_window=1), prompts),
            # a short cap with no EOS boost: many draws stop at the cap
            (ModelSpec(seed=7, vocab=vocab_tiny, context_window=2, max_len=3), ("ab", "ba")),
        ]

    def test_matches_per_token_walk(self, configs_dir, vocab_tiny):
        capped = 0
        for spec, prompts in self._specs(configs_dir, vocab_tiny):
            for i, prompt in enumerate(prompts):
                walk = np.random.default_rng(i)
                linked = np.random.default_rng(i)
                for _ in range(self.DRAWS):
                    seq = sample_sequence(spec, prompt, linked)
                    assert seq == _per_token_walk(spec, prompt, walk)
                    capped += len(seq) == spec.max_len
                assert linked.bit_generator.state == walk.bit_generator.state
        assert capped > 100

    def test_eviction_changes_no_draw(self, vocab_tiny):
        spec = ModelSpec(seed=3, vocab=vocab_tiny, context_window=1, max_len=5)
        maxsize = _root_context.cache_info().maxsize
        prompts = [f"p{i}" for i in range(maxsize + 8)]
        _root_context.cache_clear()
        linked = np.random.default_rng(5)
        walk = np.random.default_rng(5)
        for _ in range(2):  # the second pass finds every table evicted
            for prompt in prompts:
                for _ in range(5):
                    assert sample_sequence(spec, prompt, linked) == _per_token_walk(spec, prompt, walk)
        info = _root_context.cache_info()
        assert info.currsize == maxsize
        assert info.misses == 2 * len(prompts)
        assert linked.bit_generator.state == walk.bit_generator.state


class TestContextTable:
    """One table of linked contexts per prompt, which every walker shares."""

    @pytest.mark.parametrize("cw", [0, 1, 2])
    def test_walk_lands_on_last_window(self, spec_abc, cw):
        spec = dataclasses.replace(spec_abc, context_window=cw, max_len=5)
        root = _root_context(spec, "abc")
        ids = spec.vocab.token_ids
        for n in range(spec.max_len + 1):
            for prefix in itertools.product(ids[:3], repeat=n):
                c = toymodel._walk(spec, "abc", prefix)
                want = prefix[max(n - cw, 0):]
                assert c.ctx == want
                assert root.table[want] is c

    def test_each_context_is_built_once(self, monkeypatch, vocab_abc):
        built = []
        init = toymodel._Context.__init__

        def counting_init(self, spec, prompt, table, ctx):
            built.append(ctx)
            init(self, spec, prompt, table, ctx)

        monkeypatch.setattr(toymodel._Context, "__init__", counting_init)
        # a seed no other test uses, so the prompt's table starts empty
        spec = ModelSpec(seed=90_210, vocab=vocab_abc, context_window=2, eos_boost=0.5, max_len=5)
        prompt = "abc"
        rng = np.random.default_rng(1)
        heuristic = PolicySpec.heuristic(2, 0.9)
        for _ in range(50):
            seq = sample_sequence(spec, prompt, rng)
            apply_policy(heuristic, spec, prompt, seq, rng)
        estimate_length(spec, prompt, "abcab", TruncationDist.poisson(3.0), rng)
        sequence_log_prob(spec, prompt, (5, 3, 0))
        enumerate_output_distribution(spec, prompt)
        table = _root_context(spec, prompt).table
        assert len(built) == len(set(built)) == len(table)
        assert set(built) == set(table)

    def test_numpy_ids_walk_like_python_ints(self, spec_abc):
        # numpy ids walk first, on a prompt no other test uses, so they build
        # the contexts that the Python ints then must find
        prompt = "numpy ids"
        prefix = (5, 0, 4, 1)
        as_numpy = tuple(np.array(prefix, dtype=np.int64))
        for n in range(len(prefix) + 1):
            c = toymodel._walk(spec_abc, prompt, as_numpy[:n])
            assert all(type(t) is int for t in c.ctx)
            assert toymodel._walk(spec_abc, prompt, prefix[:n]) is c
            assert (next_token_dist(spec_abc, prompt, as_numpy[:n]) == c.probs[n]).all()
            assert (next_token_log_probs(spec_abc, prompt, as_numpy[:n]) == c.log_probs[n]).all()
        assert sequence_log_prob(spec_abc, prompt, as_numpy) == sequence_log_prob(
            spec_abc, prompt, prefix)
        assert all(type(t) is int for ctx in c.table for t in ctx)
