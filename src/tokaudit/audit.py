"""Evidence stream, wealth process, sequential test, and bet-size calibration.

Each audit step compares the provider's reported token count against an
unbiased estimate of the conditional expected tokenization length of the
reported string. The difference is the step's evidence; a faithful provider
makes its expectation exactly zero. Evidence is aggregated multiplicatively:
under faithfulness the signed product W of the factors 1 + lambda * E is a
martingale with mean 1, and while every factor stays positive it is also
nonnegative, so Ville's inequality bounds the chance of ever exceeding
1/alpha by alpha. A nonpositive factor aborts the audit. Freezing the wealth
at 0 there does not keep a supermartingale, since max(0, 1 + lambda * E) has
a conditional mean above 1 whenever 1 + lambda * E < 0 has positive
probability. What holds is optional stopping of W at T = min(flag, abort,
max_steps): P(flag) <= alpha * (1 + E[|W_T|; abort]), with W_T the signed
wealth at the abort step. Only bets that can never abort give alpha exactly.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional

import numpy as np

from .errors import ConditionsViolated, DomainError, TokenAuditError
from .estimator import TruncationDist, estimate_length
from .policies import PolicySpec, apply_policy
from .rngstream import exact_stream
from .toymodel import ModelSpec, sample_sequence


@dataclass(frozen=True)
class LambdaSchedule:
    """Per-step bet sizes: constant lambda0, or lambda0 / step."""

    kind: str
    lambda0: float

    def __post_init__(self):
        if self.kind not in ("constant", "decreasing"):
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        if not 0 < self.lambda0 < math.inf:
            raise DomainError(f"lambda0 must be positive and finite, not {self.lambda0!r}")

    @classmethod
    def constant(cls, lambda0: float) -> "LambdaSchedule":
        return cls("constant", float(lambda0))

    @classmethod
    def decreasing(cls, lambda0: float) -> "LambdaSchedule":
        return cls("decreasing", float(lambda0))

    def at(self, i: int) -> float:
        if i < 1:
            raise DomainError("steps are counted from 1")
        return self.lambda0 if self.kind == "constant" else self.lambda0 / i


@dataclass(frozen=True, slots=True)
class EvidenceRecord:
    step: int
    prompt_id: int
    reported_len: int
    estimate: float
    evidence: float
    lam: float
    factor: float


@dataclass(frozen=True, slots=True)
class AnomalyRecord:
    """A nonpositive betting factor observed at some step."""

    step: int
    evidence: float
    lam: float
    factor: float


class Trajectory(Sequence):
    """An audit's evidence records, stored column by column.

    Each EvidenceRecord field is one typed array (int64 for step, prompt_id
    and reported_len, double for the rest), so a step keeps 56 bytes, not a
    record and its number objects. Iterating or indexing builds the records
    on the fly; repr, == and hash are those of the tuple of the records.
    """

    __slots__ = ("step", "prompt_id", "reported_len", "estimate", "evidence", "lam", "factor")

    def __init__(self, records=()):
        records = tuple(records)
        for name, code in zip(self.__slots__, "qqqdddd"):
            setattr(self, name, array(code, map(attrgetter(name), records)))

    def append(self, step, prompt_id, reported_len, estimate, evidence, lam, factor):
        self.step.append(step)
        self.prompt_id.append(prompt_id)
        self.reported_len.append(reported_len)
        self.estimate.append(estimate)
        self.evidence.append(evidence)
        self.lam.append(lam)
        self.factor.append(factor)

    def _columns(self):
        return (self.step, self.prompt_id, self.reported_len, self.estimate,
                self.evidence, self.lam, self.factor)

    def __len__(self):
        return len(self.step)

    def __iter__(self):
        return map(EvidenceRecord, *self._columns())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(EvidenceRecord, *(col[i] for col in self._columns())))
        return EvidenceRecord(*(col[i] for col in self._columns()))

    def __repr__(self):
        return repr(tuple(self))

    def __eq__(self, other):
        if isinstance(other, (Trajectory, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __reduce__(self):
        return Trajectory, (tuple(self),)


@dataclass(frozen=True)
class WealthState:
    """Running state of the test process; log wealth is authoritative.

    history is one Trajectory shared along an audit: update_wealth appends
    each step's record to its columns and hands it on, so a step costs the
    same however late it comes, and earlier states see the later records too.
    """

    step: int = 0
    log_wealth: float = 0.0
    history: Trajectory = field(default_factory=Trajectory)
    anomaly: Optional[AnomalyRecord] = None

    @property
    def wealth(self) -> float:
        return math.exp(self.log_wealth)


@dataclass(frozen=True)
class AuditOutcome:
    """How an audit ended, with its steps' records.

    run_audit hands over its WealthState.history as the trajectory; any
    other sequence of EvidenceRecords is copied into a Trajectory.
    """

    flagged: bool
    tau: Optional[int]  # None when censored at max_steps or aborted
    trajectory: Trajectory
    final_log_wealth: float
    anomaly: Optional[AnomalyRecord] = None

    def __post_init__(self):
        if not isinstance(self.trajectory, Trajectory):
            object.__setattr__(self, "trajectory", Trajectory(self.trajectory))

    @property
    def final_wealth(self) -> float:
        return math.exp(self.final_log_wealth)


def update_wealth(
    state: WealthState,
    e: float,
    schedule: LambdaSchedule,
    *,
    prompt_id: int = -1,
    reported_len: int = 0,
    estimate: float = float("nan"),
) -> WealthState:
    """Advance the wealth process by one evidence value.

    A nonpositive or NaN factor does not advance the process; the state comes back
    with the anomaly attached and the audit ends there. The record goes onto
    the columns of state.history in place, so advance each state at most once.
    """
    i = state.step + 1
    lam = schedule.at(i)
    factor = 1.0 + lam * e
    # a NaN factor is an anomaly too, so no audit ends with a NaN wealth
    if not factor > 0.0:
        return replace(
            state, anomaly=AnomalyRecord(step=i, evidence=e, lam=lam, factor=factor)
        )
    state.history.append(i, prompt_id, reported_len, estimate, e, lam, factor)
    return WealthState(i, state.log_wealth + math.log(factor), state.history, None)


def draw_evidence(spec: ModelSpec, policy: PolicySpec, prompts, trunc: TruncationDist, rng):
    """Draw a prompt, generate, report under policy and estimate, in that rng order.

    Returns (prompt id, reported sequence, estimate); the evidence is
    len(reported) - estimate. An estimator error names the prompt id.
    """
    pid = int(rng.integers(len(prompts)))
    q = prompts[pid]
    generated = sample_sequence(spec, q, rng)
    reported = apply_policy(policy, spec, q, generated, rng)
    try:
        # reported ids come from sample_sequence or a policy that checked them
        target = "".join(map(spec.vocab.strings.__getitem__, reported))
        est = estimate_length(spec, q, target, trunc, rng, keep_samples=False)
    except TokenAuditError as err:
        raise type(err)(f"prompt {pid}: {err}") from err
    return pid, reported, est.value


def run_audit(
    spec: ModelSpec,
    policy: PolicySpec,
    prompts,
    schedule: LambdaSchedule,
    alpha: float,
    trunc: TruncationDist,
    max_steps: int,
    rng,
) -> AuditOutcome:
    """Sequential audit: stop and flag once the wealth exceeds 1/alpha.

    Per step: one draw_evidence and a bet on its evidence. A nonpositive
    factor ends the audit unflagged with the anomaly recorded. That is not a
    factor of 0 in a nonnegative supermartingale (see the module docstring):
    under a faithful provider the false-flag rate is at most
    alpha * (1 + E[|W_T|; abort]), which is alpha only if no audit aborts.

    The steps draw from rng through exact_stream, which leaves rng where
    numpy's own calls would have, also when a step raises.
    """
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    if max_steps < 1:
        raise DomainError("max_steps must be at least 1")
    if len(prompts) == 0:
        raise DomainError("prompt corpus is empty")

    threshold = -math.log(alpha)
    state = WealthState()
    with exact_stream(rng) as stream:
        while state.step < max_steps:
            try:
                pid, reported, est = draw_evidence(spec, policy, prompts, trunc, stream)
            except TokenAuditError as err:
                raise type(err)(f"audit step {state.step + 1}, {err}") from err
            state = update_wealth(
                state, len(reported) - est, schedule,
                prompt_id=pid, reported_len=len(reported), estimate=est,
            )
            if state.anomaly is not None or state.log_wealth > threshold:
                break
    flagged = state.log_wealth > threshold
    return AuditOutcome(
        flagged=flagged,
        tau=state.step if flagged else None,
        trajectory=state.history,
        final_log_wealth=state.log_wealth,
        anomaly=state.anomaly,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Holdout evidence draws and the bet size derived from them."""

    lam: float
    lam_max: float
    evidences: tuple
    safety: float
    cap: float

    @property
    def min_evidence(self) -> float:
        return min(self.evidences)

    @property
    def mean_evidence(self) -> float:
        return sum(self.evidences) / len(self.evidences)


def calibration_report(
    spec: ModelSpec,
    prompts,
    trunc: TruncationDist,
    n_holdout: int,
    safety: float = 0.9,
    cap: float = 1.0,
    rng=None,
) -> CalibrationResult:
    """Pick the largest bet size the faithful holdout evidence tolerates.

    Draws n_holdout evidence values under the faithful policy; the largest
    admissible bet is 1 / (-min evidence) when any draw is negative, else
    cap; the returned bet is scaled by safety. The holdout corpus must be
    disjoint from the audited one, which the harness enforces.
    """
    if n_holdout < 1:
        raise DomainError("n_holdout must be at least 1")
    if not 0 < safety <= 1:
        raise DomainError("safety must lie in (0, 1]")
    if not 0 < cap < math.inf:
        raise DomainError(f"cap must be positive and finite, not {cap!r}")
    if len(prompts) == 0:
        raise DomainError("holdout corpus is empty")
    if rng is None:
        raise DomainError("calibration_report needs an rng")
    es = []
    with exact_stream(rng) as stream:
        for _ in range(n_holdout):
            _, reported, est = draw_evidence(spec, PolicySpec.faithful(), prompts, trunc, stream)
            es.append(len(reported) - est)
    worst = min(es)
    lam_max = 1.0 / (-worst) if worst < 0 else cap
    return CalibrationResult(
        lam=safety * lam_max,
        lam_max=lam_max,
        evidences=tuple(es),
        safety=safety,
        cap=cap,
    )


@dataclass(frozen=True)
class EvidenceMoments:
    """Monte Carlo moments of the evidence, plus factor support bounds at lambda0."""

    mean: float
    variance: float
    se: float
    n: int
    min_evidence: float
    max_evidence: float
    lambda0: float
    empirical_b_minus: float
    empirical_b_plus: float


def evidence_moments(
    policy: PolicySpec,
    spec: ModelSpec,
    prompts,
    trunc: TruncationDist,
    n: int,
    rng,
    lambda0: float = 0.1,
) -> EvidenceMoments:
    """Draw n evidence values under the given policy and summarize them."""
    if n < 2:
        raise DomainError("need n >= 2 for a variance")
    if len(prompts) == 0:
        raise DomainError("prompt corpus is empty")
    es = np.empty(n)
    with exact_stream(rng) as stream:
        for idx in range(n):
            _, reported, est = draw_evidence(spec, policy, prompts, trunc, stream)
            es[idx] = len(reported) - est
    var = float(es.var(ddof=1))
    factors = 1.0 + lambda0 * es
    return EvidenceMoments(
        mean=float(es.mean()),
        variance=var,
        se=math.sqrt(var / n),
        n=n,
        min_evidence=float(es.min()),
        max_evidence=float(es.max()),
        lambda0=lambda0,
        empirical_b_minus=float(factors.min()),
        empirical_b_plus=float(factors.max()),
    )


def detection_time_bound(
    lambda0: float,
    alpha: float,
    intensity: float,
    var_e: float,
    b_minus: float,
    b_plus: float,
) -> float:
    """Upper bound on the mean detection step under a constant bet size.

    Requires support bounds 0 < b_minus <= 1 + lambda0 * E <= b_plus and a
    positive growth gap log(1 + lambda0 * intensity) minus the variance
    penalty var_e * lambda0^2 / (2 b_minus^2). Raises ConditionsViolated
    when the gap is not positive.
    """
    if not b_minus > 0 or not b_plus > b_minus:
        raise DomainError("need 0 < b_minus < b_plus")
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    if not lambda0 > 0:
        raise DomainError("lambda0 must be positive")
    if var_e < 0:
        raise DomainError("var_e must be nonnegative")
    if 1.0 + lambda0 * intensity <= 0:
        raise ConditionsViolated("mean factor is nonpositive; no growth possible")
    gap = math.log1p(lambda0 * intensity) - var_e * lambda0**2 / (2.0 * b_minus**2)
    if gap <= 0:
        raise ConditionsViolated(f"growth condition fails (gap = {gap:.6g})")
    return (math.log(1.0 / alpha) + math.log(b_plus)) / gap
