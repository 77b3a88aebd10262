"""Exact brute-force references for every audited expectation, at toy scale.

Everything here is slow and exhaustive on purpose: enumerate, sum, compare.
The sampling-based machinery is tested against these references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .estimator import TruncationDist, estimate_length
from .policies import PolicySpec, apply_policy, expected_extra_tokens
from .tokenspace import enumerate_tokenizations, str_of
from .toymodel import ModelSpec, next_token_log_probs, sample_sequence, sequence_log_prob


@dataclass(frozen=True)
class EnumeratedDistribution:
    """Exhaustive (sequence, log probability) table for one prompt."""

    entries: tuple
    total_mass: float


def enumerate_output_distribution(
    spec: ModelSpec, prompt: str, cap: int = 100_000
) -> EnumeratedDistribution:
    """Every sequence the model can emit, with its exact log probability."""
    eos = spec.vocab.eos_id
    out: list = []

    def walk(prefix: tuple, acc: float):
        logp = next_token_log_probs(spec, prompt, prefix)
        out.append((prefix, acc + float(logp[eos])))
        if len(out) > cap:
            raise ResourceLimitError(f"output tree for {prompt!r} exceeded {cap} sequences")
        if len(prefix) == spec.max_len:
            return
        for t in spec.vocab.token_ids:
            walk(prefix + (t,), acc + float(logp[t]))

    walk((), 0.0)
    total = math.fsum(math.exp(lp) for _, lp in out)
    return EnumeratedDistribution(entries=tuple(out), total_mass=total)


def conditional_expected_length(
    spec: ModelSpec, prompt: str, target: str, cap: int = 100_000
) -> float:
    """Exact mean tokenization length of target under the model, given target.

    Enumerates all tokenizations that fit within max_len and takes the
    probability-weighted mean of their lengths in shifted log space.
    """
    toks = enumerate_tokenizations(target, spec.vocab, cap)
    feasible = [t for t in toks if len(t) <= spec.max_len]
    if not feasible:
        raise DomainError(f"target {target!r} is not producible within max_len")
    lps = [sequence_log_prob(spec, prompt, t) for t in feasible]
    shift = max(lps)
    ws = [math.exp(lp - shift) for lp in lps]
    num = math.fsum(w * len(t) for w, t in zip(ws, feasible))
    return num / math.fsum(ws)


def exact_intensity(
    policy: PolicySpec,
    spec: ModelSpec,
    prompts,
    cap: int = 100_000,
    state_cap: int = 10_000,
) -> float:
    """Mean expected extra reported tokens per output over a finite corpus."""
    if policy.kind == "faithful":
        return 0.0
    total = 0.0
    for q in prompts:
        dist = enumerate_output_distribution(spec, q, cap)
        num = 0.0
        den = 0.0
        for seq, lp in dist.entries:
            w = math.exp(lp)
            num += w * expected_extra_tokens(policy, spec, q, seq, state_cap=state_cap)
            den += w
        total += num / den
    return total / len(prompts)


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
    for idx in range(n):
        pid = int(rng.integers(len(prompts)))
        q = prompts[pid]
        gen = sample_sequence(spec, q, rng)
        rep = apply_policy(policy, spec, q, gen, rng)
        est = estimate_length(spec, q, str_of(rep, spec.vocab), trunc, rng, keep_samples=False)
        es[idx] = len(rep) - est.value
    mean = float(es.mean())
    var = float(es.var(ddof=1))
    factors = 1.0 + lambda0 * es
    return EvidenceMoments(
        mean=mean,
        variance=var,
        se=math.sqrt(var / n),
        n=n,
        min_evidence=float(es.min()),
        max_evidence=float(es.max()),
        lambda0=lambda0,
        empirical_b_minus=float(factors.min()),
        empirical_b_plus=float(factors.max()),
    )
