"""Wealth process, audit loop, bet calibration, and detection-time bound."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokaudit import (
    ConditionsViolated,
    DomainError,
    LambdaSchedule,
    PolicySpec,
    TruncationDist,
    Vocabulary,
    WealthState,
    calibration_report,
    detection_time_bound,
    evidence_moments,
    run_audit,
    update_wealth,
)
from tokaudit import ModelSpec, audit
from tokaudit.audit import draw_evidence


class TestLambdaSchedule:
    def test_constant(self):
        s = LambdaSchedule.constant(0.2)
        assert s.at(1) == 0.2
        assert s.at(100) == 0.2

    def test_decreasing(self):
        s = LambdaSchedule.decreasing(0.5)
        assert s.at(1) == 0.5
        assert s.at(2) == 0.25
        assert s.at(10) == 0.05

    def test_step_must_be_positive(self):
        with pytest.raises(DomainError):
            LambdaSchedule.constant(0.1).at(0)

    def test_lambda0_validation(self):
        with pytest.raises(DomainError):
            LambdaSchedule.constant(0.0)
        with pytest.raises(DomainError):
            LambdaSchedule(kind="nope", lambda0=0.1)


class TestUpdateWealth:
    def test_multiplicative_recursion(self):
        sched = LambdaSchedule.constant(0.5)
        s0 = WealthState()
        s1 = update_wealth(s0, 1.0, sched)
        assert s1.step == 1
        assert math.isclose(s1.log_wealth, math.log(1.5), rel_tol=1e-12)
        s2 = update_wealth(s1, -0.5, sched)
        assert math.isclose(s2.log_wealth, math.log(1.5) + math.log(0.75), rel_tol=1e-12)
        assert len(s2.history) == 2
        assert s2.history[1].factor == 0.75

    def test_wealth_property(self):
        sched = LambdaSchedule.constant(0.1)
        s = update_wealth(WealthState(), 2.0, sched)
        assert math.isclose(s.wealth, 1.2, rel_tol=1e-12)

    def test_nonpositive_factor_does_not_advance(self):
        sched = LambdaSchedule.constant(0.5)
        s0 = update_wealth(WealthState(), 1.0, sched)
        s1 = update_wealth(s0, -2.0, sched)  # factor = 0
        assert s1.step == s0.step
        assert s1.log_wealth == s0.log_wealth
        assert s1.anomaly is not None
        assert s1.anomaly.factor == 0.0
        assert s1.anomaly.step == s0.step + 1
        assert len(s1.history) == len(s0.history)

    def test_decreasing_schedule_uses_step_index(self):
        sched = LambdaSchedule.decreasing(0.5)
        s1 = update_wealth(WealthState(), 1.0, sched)
        s2 = update_wealth(s1, 1.0, sched)
        assert s1.history[0].lam == 0.5
        assert s2.history[1].lam == 0.25

    def test_long_audit_history_in_step_order(self):
        sched = LambdaSchedule.decreasing(0.5)
        state = WealthState()
        for i in range(20_000):
            state = update_wealth(state, 0.25 if i % 2 else -0.25, sched)
        assert state.step == 20_000
        assert len(state.history) == 20_000
        assert [rec.step for rec in state.history] == list(range(1, 20_001))


@pytest.fixture(scope="module")
def audit_setup():
    vocab = Vocabulary.from_tokens(["a", "b", "ab"])
    spec = ModelSpec(seed=7, vocab=vocab, context_window=2, max_len=6)
    prompts = ("ab", "ba", "aab")
    trunc = TruncationDist.poisson(4.0)
    return spec, prompts, trunc


class TestRunAudit:
    def test_faithful_rarely_flags_and_reproduces(self, audit_setup):
        spec, prompts, trunc = audit_setup
        sched = LambdaSchedule.constant(0.05)
        kwargs = dict(
            spec=spec,
            policy=PolicySpec.faithful(),
            prompts=prompts,
            schedule=sched,
            alpha=0.05,
            trunc=trunc,
            max_steps=40,
        )
        a = run_audit(rng=np.random.default_rng(123), **kwargs)
        b = run_audit(rng=np.random.default_rng(123), **kwargs)
        assert a.flagged == b.flagged
        assert a.final_log_wealth == b.final_log_wealth
        assert [r.evidence for r in a.trajectory] == [r.evidence for r in b.trajectory]

    def test_trajectory_is_internally_consistent(self, audit_setup):
        spec, prompts, trunc = audit_setup
        sched = LambdaSchedule.constant(0.05)
        out = run_audit(
            spec=spec,
            policy=PolicySpec.random(2),
            prompts=prompts,
            schedule=sched,
            alpha=0.05,
            trunc=trunc,
            max_steps=60,
            rng=np.random.default_rng(5),
        )
        log_w = 0.0
        for i, rec in enumerate(out.trajectory, start=1):
            assert rec.step == i
            assert rec.lam == sched.at(i)
            assert math.isclose(rec.factor, 1.0 + rec.lam * rec.evidence, rel_tol=1e-12)
            assert math.isclose(rec.evidence, rec.reported_len - rec.estimate, rel_tol=1e-12)
            assert 0 <= rec.prompt_id < len(prompts)
            log_w += math.log(rec.factor)
        assert math.isclose(out.final_log_wealth, log_w, rel_tol=1e-9, abs_tol=1e-12)

    def test_flag_threshold_and_tau(self, audit_setup):
        spec, prompts, trunc = audit_setup
        out = run_audit(
            spec=spec,
            policy=PolicySpec.random(3),
            prompts=prompts,
            schedule=LambdaSchedule.constant(0.3),
            alpha=0.05,
            trunc=trunc,
            max_steps=400,
            rng=np.random.default_rng(21),
        )
        if out.flagged:
            assert out.tau == len(out.trajectory)
            assert out.final_log_wealth > -math.log(0.05)
            # the stop is the first crossing
            partial = 0.0
            for rec in out.trajectory[:-1]:
                partial += math.log(rec.factor)
                assert partial <= -math.log(0.05)
        else:
            assert out.tau is None

    def test_abort_mode_stops_at_anomaly(self, audit_setup):
        spec, prompts, trunc = audit_setup
        # a bet this large makes some factor nonpositive quickly under
        # heavy splitting, because evidence can be deeply negative
        out = run_audit(
            spec=spec,
            policy=PolicySpec.faithful(),
            prompts=prompts,
            schedule=LambdaSchedule.constant(0.9),
            alpha=1e-6,
            trunc=trunc,
            max_steps=2000,
            rng=np.random.default_rng(2),
        )
        if out.anomaly is not None:
            assert not out.flagged
            assert out.anomaly.factor <= 0.0
            assert len(out.trajectory) == out.anomaly.step - 1

    def test_trajectory_is_a_tuple(self, audit_setup):
        # the benchmark fingerprints repr(trajectory)
        spec, prompts, trunc = audit_setup
        out = run_audit(spec, PolicySpec.faithful(), prompts, LambdaSchedule.constant(0.05),
                        0.05, trunc, 30, np.random.default_rng(4))
        assert type(out.trajectory) is tuple
        assert [rec.step for rec in out.trajectory] == list(range(1, len(out.trajectory) + 1))

    def test_validation_errors(self, audit_setup):
        spec, prompts, trunc = audit_setup
        sched = LambdaSchedule.constant(0.1)
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            run_audit(spec, PolicySpec.faithful(), prompts, sched, 1.5, trunc, 10, rng)
        with pytest.raises(DomainError):
            run_audit(spec, PolicySpec.faithful(), prompts, sched, 0.05, trunc, 0, rng)
        with pytest.raises(DomainError):
            run_audit(spec, PolicySpec.faithful(), (), sched, 0.05, trunc, 10, rng)


class TestDrawEvidence:
    def test_run_audit_bets_on_successive_draws(self, audit_setup):
        spec, prompts, trunc = audit_setup
        policy = PolicySpec.random(2)
        out = run_audit(spec, policy, prompts, LambdaSchedule.constant(0.05), 0.05, trunc,
                        40, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for rec in out.trajectory:
            pid, reported, est = draw_evidence(spec, policy, prompts, trunc, rng)
            assert (rec.prompt_id, rec.reported_len, rec.estimate) == (pid, len(reported), est)
            assert rec.evidence == len(reported) - est

    def test_faithful_moments_match_calibration(self, audit_setup):
        spec, prompts, trunc = audit_setup
        rep = calibration_report(spec, prompts, trunc, n_holdout=60,
                                 rng=np.random.default_rng(13))
        mom = evidence_moments(PolicySpec.faithful(), spec, prompts, trunc, 60,
                               np.random.default_rng(13))
        assert (mom.min_evidence, mom.max_evidence) == (min(rep.evidences), max(rep.evidences))

    def test_audit_error_names_step_and_prompt(self, audit_setup, monkeypatch):
        spec, prompts, trunc = audit_setup
        policy = PolicySpec.faithful()
        replay = np.random.default_rng(17)
        draw_evidence(spec, policy, prompts, trunc, replay)
        draw_evidence(spec, policy, prompts, trunc, replay)
        pid = int(replay.integers(len(prompts)))
        real = audit.estimate_length
        calls = []

        def third_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise DomainError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(audit, "estimate_length", third_fails)
        with pytest.raises(DomainError) as exc:
            run_audit(spec, policy, prompts, LambdaSchedule.constant(0.01), 0.05, trunc, 10,
                      np.random.default_rng(17))
        assert str(exc.value) == f"audit step 3, prompt {pid}: boom"


class TestCalibration:
    def test_report_relations(self, audit_setup):
        spec, prompts, trunc = audit_setup
        rep = calibration_report(
            spec, prompts, trunc, n_holdout=80, rng=np.random.default_rng(31)
        )
        assert len(rep.evidences) == 80
        assert rep.lam == 0.9 * rep.lam_max
        if rep.min_evidence < 0:
            assert math.isclose(rep.lam_max, 1.0 / (-rep.min_evidence), rel_tol=1e-12)
            # the calibrated bet keeps every holdout factor positive
            assert 1.0 + rep.lam * rep.min_evidence > 0
        else:
            assert rep.lam_max == rep.cap

    def test_cap_branch(self):
        # single-char vocabulary: every string has a unique tokenization, so
        # the estimate equals the reported length on every nonzero draw and
        # evidence is never negative enough to bind; with deterministic
        # truncation the evidence is exactly 0 and the cap branch triggers
        vocab = Vocabulary.from_tokens(["a", "b"])
        spec = ModelSpec(seed=3, vocab=vocab, max_len=6)
        rep = calibration_report(
            spec,
            ("ab", "ba"),
            TruncationDist.deterministic(2),
            n_holdout=25,
            cap=0.7,
            rng=np.random.default_rng(11),
        )
        assert rep.lam_max == 0.7
        assert math.isclose(rep.lam, 0.63, rel_tol=1e-12)
        assert min(rep.evidences) >= 0.0

    def test_validation(self, audit_setup):
        spec, prompts, trunc = audit_setup
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            calibration_report(spec, prompts, trunc, 0, rng=rng)
        with pytest.raises(DomainError):
            calibration_report(spec, prompts, trunc, 10, safety=0.0, rng=rng)
        with pytest.raises(DomainError):
            calibration_report(spec, prompts, trunc, 10, cap=0.0, rng=rng)
        with pytest.raises(DomainError):
            calibration_report(spec, (), trunc, 10, rng=rng)

    def test_missing_rng_is_a_domain_error(self, audit_setup):
        spec, prompts, trunc = audit_setup
        with pytest.raises(DomainError, match="rng"):
            calibration_report(spec, prompts, trunc, 10)


class TestDetectionTimeBound:
    def test_frozen_value(self):
        # (log(1/0.05) + log 2) / (log(1.3) - 1 * 0.01 / (2 * 0.25))
        got = detection_time_bound(0.1, 0.05, 3.0, 1.0, 0.5, 2.0)
        expect = (math.log(20.0) + math.log(2.0)) / (math.log1p(0.3) - 0.02)
        assert math.isclose(got, expect, rel_tol=1e-12)
        assert math.isclose(got, 15.22039341, rel_tol=1e-8)

    def test_monotone_in_alpha(self):
        loose = detection_time_bound(0.1, 0.1, 3.0, 1.0, 0.5, 2.0)
        tight = detection_time_bound(0.1, 0.01, 3.0, 1.0, 0.5, 2.0)
        assert tight > loose

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            detection_time_bound(0.1, 0.05, 3.0, 1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            detection_time_bound(0.1, 0.05, 3.0, 1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            detection_time_bound(0.1, 1.5, 3.0, 1.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            detection_time_bound(-0.1, 0.05, 3.0, 1.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            detection_time_bound(0.1, 0.05, 3.0, -1.0, 0.5, 2.0)

    def test_conditions_violated_nonpositive_mean_factor(self):
        with pytest.raises(ConditionsViolated):
            detection_time_bound(0.5, 0.05, -3.0, 1.0, 0.2, 2.0)

    def test_conditions_violated_gap(self):
        # tiny intensity with a big variance penalty: growth condition fails
        with pytest.raises(ConditionsViolated) as exc:
            detection_time_bound(0.5, 0.05, 0.01, 10.0, 0.2, 2.0)
        assert "gap" in str(exc.value)

    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_bound_positive_when_defined(self, lam0, intensity):
        try:
            got = detection_time_bound(lam0, 0.05, intensity, 1.0, 0.4, 3.0)
        except ConditionsViolated:
            return
        assert got > 0
