"""The block stream gives numpy's own values and leaves numpy's own state.

numpy does not promise Generator streams across versions (NEP 19), so these
tests pin the stream to the installed numpy: every value and the final
bit_generator.state are compared with plain Generator calls.
"""
import hashlib
import random

import numpy as np
import pytest

from tokaudit import (
    DomainError,
    LambdaSchedule,
    ModelSpec,
    PolicySpec,
    TruncationDist,
    Vocabulary,
    audit,
    calibration_report,
    evidence_moments,
    run_audit,
)
from tokaudit.audit import draw_evidence
from tokaudit.rngstream import BlockStream, exact_stream
from tokaudit.toymodel import sample_sequence

NS = (1, 2, 12, 2**31 + 5)
LAMS = (0.5, 4, 7, 9.99, 10, 40)


def _ops(seed, n):
    choose = random.Random(seed)
    out = []
    for _ in range(n):
        r = choose.random()
        if r < 0.6:
            out.append(("random", ()))
        elif r < 0.85:
            out.append(("integers", (choose.choice(NS),)))
        else:
            out.append(("poisson", (choose.choice(LAMS),)))
    return out


def _apply(rng, ops):
    return [float(getattr(rng, name)(*args)) for name, args in ops]


@pytest.fixture(scope="module")
def setup():
    vocab = Vocabulary.from_tokens(["a", "b", "ab"])
    spec = ModelSpec(seed=7, vocab=vocab, context_window=2, max_len=6)
    return spec, ("ab", "ba", "aab"), TruncationDist.poisson(4.0)


class TestBlockStream:
    @pytest.mark.parametrize("seed", range(12))
    def test_interleavings_match_numpy(self, seed):
        # 3,000 calls read past a dozen 256-value blocks
        ops = _ops(seed, 3000)
        plain = np.random.default_rng(seed)
        streamed = np.random.default_rng(seed)
        if seed % 2:  # enter with the half-word buffered
            plain.integers(7)
            streamed.integers(7)
            assert streamed.bit_generator.state["has_uint32"] == 1
        want = _apply(plain, ops)
        with exact_stream(streamed) as stream:
            assert isinstance(stream, BlockStream)
            got = _apply(stream, ops)
        assert got == want
        assert streamed.bit_generator.state == plain.bit_generator.state

    @pytest.mark.parametrize("ops", [
        [("random", ())],                      # half-word stays buffered
        [("integers", (12,))],                 # buffered half-word used up
        [("integers", (12,)), ("integers", (5,)), ("random", ())],
        [],
    ])
    def test_state_restored_with_buffered_half_word(self, ops):
        plain = np.random.default_rng(3)
        streamed = np.random.default_rng(3)
        for rng in (plain, streamed):
            rng.integers(9)
        want = _apply(plain, ops)
        with exact_stream(streamed) as stream:
            got = _apply(stream, ops)
        assert got == want
        assert streamed.bit_generator.state == plain.bit_generator.state
        assert streamed.integers(2**31 + 5) == plain.integers(2**31 + 5)

    def test_state_restored_after_an_exception(self):
        ops = _ops(99, 300)
        plain = np.random.default_rng(99)
        _apply(plain, ops)
        streamed = np.random.default_rng(99)
        with pytest.raises(RuntimeError):
            with exact_stream(streamed) as stream:
                _apply(stream, ops)
                raise RuntimeError
        assert streamed.bit_generator.state == plain.bit_generator.state

    def test_other_generators_pass_through(self):
        rng = np.random.Generator(np.random.MT19937(1))
        with exact_stream(rng) as stream:
            assert stream is rng
        legacy = np.random.RandomState(1)
        with exact_stream(legacy) as stream:
            assert stream is legacy


def _replayed(setup, policy, seed, draws):
    spec, prompts, trunc = setup
    rng = np.random.default_rng(seed)
    es = []
    for _ in range(draws):
        _, reported, est = draw_evidence(spec, policy, prompts, trunc, rng)
        es.append(len(reported) - est)
    return es, rng.bit_generator.state


class TestLoopsLeaveNumpyState:
    """Each loop over draw_evidence leaves the generator where replaying its
    draws on a plain generator leaves it."""

    @pytest.mark.parametrize("policy", [PolicySpec.faithful(), PolicySpec.random(2)])
    def test_run_audit(self, setup, policy):
        spec, prompts, trunc = setup
        rng = np.random.default_rng(21)
        out = run_audit(spec, policy, prompts, LambdaSchedule.constant(0.05), 0.05, trunc, 60, rng)
        draws = len(out.trajectory) + (out.anomaly is not None)
        es, state = _replayed(setup, policy, 21, draws)
        assert [rec.evidence for rec in out.trajectory] == es[: len(out.trajectory)]
        assert rng.bit_generator.state == state

    def test_calibration_report(self, setup):
        spec, prompts, trunc = setup
        rng = np.random.default_rng(22)
        rep = calibration_report(spec, prompts, trunc, n_holdout=50, rng=rng)
        es, state = _replayed(setup, PolicySpec.faithful(), 22, 50)
        assert list(rep.evidences) == es
        assert rng.bit_generator.state == state

    def test_evidence_moments(self, setup):
        spec, prompts, trunc = setup
        rng = np.random.default_rng(23)
        mom = evidence_moments(PolicySpec.random(1), spec, prompts, trunc, 50, rng)
        es, state = _replayed(setup, PolicySpec.random(1), 23, 50)
        assert (mom.min_evidence, mom.max_evidence) == (min(es), max(es))
        assert rng.bit_generator.state == state

    def test_loops_at_a_ptrs_rate_match_a_replay(self, setup):
        # at rate 12 the stream hands every K to numpy's PTRS method, with a
        # state round trip each time; each loop still matches its replay
        spec, prompts, _ = setup
        trunc = TruncationDist.poisson(12.0)
        at12 = (spec, prompts, trunc)
        policy = PolicySpec.random(2)
        rng = np.random.default_rng(24)
        out = run_audit(spec, policy, prompts, LambdaSchedule.constant(0.05), 0.05, trunc, 60, rng)
        draws = len(out.trajectory) + (out.anomaly is not None)
        es, state = _replayed(at12, policy, 24, draws)
        assert [rec.evidence for rec in out.trajectory] == es[: len(out.trajectory)]
        assert rng.bit_generator.state == state

        rng = np.random.default_rng(25)
        rep = calibration_report(spec, prompts, trunc, n_holdout=50, rng=rng)
        es, state = _replayed(at12, PolicySpec.faithful(), 25, 50)
        assert list(rep.evidences) == es
        assert rng.bit_generator.state == state

        rng = np.random.default_rng(26)
        mom = evidence_moments(PolicySpec.random(1), spec, prompts, trunc, 50, rng)
        es, state = _replayed(at12, PolicySpec.random(1), 26, 50)
        assert (mom.min_evidence, mom.max_evidence) == (min(es), max(es))
        assert rng.bit_generator.state == state

    def test_run_audit_failing_at_step_3(self, setup, monkeypatch):
        spec, prompts, trunc = setup
        policy = PolicySpec.faithful()
        replay = np.random.default_rng(17)
        draw_evidence(spec, policy, prompts, trunc, replay)
        draw_evidence(spec, policy, prompts, trunc, replay)
        pid = int(replay.integers(len(prompts)))
        sample_sequence(spec, prompts[pid], replay)
        real = audit.estimate_length
        calls = []

        def third_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise DomainError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(audit, "estimate_length", third_fails)
        rng = np.random.default_rng(17)
        with pytest.raises(DomainError, match="audit step 3"):
            run_audit(spec, policy, prompts, LambdaSchedule.constant(0.01), 0.05, trunc, 10, rng)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_mt19937_outputs_unchanged(self, setup):
        # digest of these outputs before the block stream existed
        spec, prompts, trunc = setup
        rng = np.random.Generator(np.random.MT19937(1))
        out = [
            run_audit(spec, PolicySpec.random(2), prompts, LambdaSchedule.constant(0.05), 0.05,
                      trunc, 40, rng),
            calibration_report(spec, prompts, trunc, n_holdout=30, rng=rng),
            evidence_moments(PolicySpec.random(1), spec, prompts, trunc, 30, rng),
            rng.bit_generator.state["state"]["key"].tolist(),
            rng.bit_generator.state["state"]["pos"],
        ]
        assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == MT19937_DIGEST


MT19937_DIGEST = "52dbda0dfc8f805f"
