"""Exact brute-force references for every audited expectation, at toy scale.

Everything here is exhaustive: enumerate, sum, compare. The sampling-based
machinery is tested against these references; nothing here draws at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError
from .policies import PolicySpec, _heuristic_split, expected_extra_tokens
from .tokenspace import Vocabulary, enumerate_tokenizations
from .toymodel import ModelSpec, _root_context, sequence_log_prob

# estimate_length, apply_policy and sample_sequence are unused here, but
# perfbench/spans.py wraps oracle.<name> by attribute, so traced runs need them
from .estimator import estimate_length
from .policies import apply_policy
from .toymodel import sample_sequence

# Most sequences enumerate_output_distribution lists before giving up.
_OUTPUT_TREE_CAP = 100_000


@dataclass(frozen=True)
class EnumeratedDistribution:
    """Exhaustive (sequence, log probability) table for one prompt."""

    entries: tuple
    total_mass: float


def enumerate_output_distribution(spec: ModelSpec, prompt: str) -> EnumeratedDistribution:
    """Every sequence the model can emit, with its exact log probability.

    Entries are in preorder: a prefix, then its extensions by ascending id.
    Each log probability is summed left to right, as sequence_log_prob does.
    Raises ResourceLimitError past _OUTPUT_TREE_CAP sequences.
    """
    cap = _OUTPUT_TREE_CAP
    eos = spec.vocab.eos_id
    out: list = []
    rows: dict = {}  # per context, its log-prob rows as lists, converted once
    # explicit stack, children pushed in descending id so they pop ascending
    children = spec.vocab.token_ids[::-1]
    stack = [((), 0.0, _root_context(spec, prompt))]
    while stack:
        prefix, acc, c = stack.pop()
        ctx_rows = rows.get(c)
        if ctx_rows is None:
            ctx_rows = rows[c] = c.log_probs.tolist()
        logp = ctx_rows[len(prefix)]
        out.append((prefix, acc + logp[eos]))
        if len(out) > cap:
            raise ResourceLimitError(f"output tree for {prompt!r} exceeded {cap} sequences")
        if len(prefix) < spec.max_len:
            stack.extend((prefix + (t,), acc + logp[t], c.succ[t] or c.next(t)) for t in children)
    total = math.fsum(math.exp(lp) for _, lp in out)
    return EnumeratedDistribution(entries=tuple(out), total_mass=total)


def conditional_expected_lengths(dist: EnumeratedDistribution, vocab: Vocabulary) -> dict:
    """conditional_expected_length for every string of an output law.

    The law holds every tokenization within max_len with the log probability
    sequence_log_prob gives it, and fsum ignores order, so each value equals
    the per-string reference exactly.
    """
    groups: dict = {}
    strings = vocab.strings
    # the law's ids come from the vocabulary by construction: no check_ids
    for seq, lp in dist.entries:
        groups.setdefault("".join(map(strings.__getitem__, seq)), []).append((lp, len(seq)))
    out = {}
    for s, group in groups.items():
        shift = max(lp for lp, _ in group)
        ws = [(math.exp(lp - shift), n) for lp, n in group]
        out[s] = math.fsum(w * n for w, n in ws) / math.fsum(w for w, _ in ws)
    return out


def conditional_expected_length(spec: ModelSpec, prompt: str, target: str) -> float:
    """Exact mean tokenization length of target under the model, given target.

    Enumerates all tokenizations that fit within max_len and takes the
    probability-weighted mean of their lengths in shifted log space. This is
    the per-string reference that tests compare conditional_expected_lengths
    and the estimator against.
    """
    toks = enumerate_tokenizations(target, spec.vocab)
    feasible = [t for t in toks if len(t) <= spec.max_len]
    if not feasible:
        raise DomainError(f"target {target!r} is not producible within max_len")
    lps = [sequence_log_prob(spec, prompt, t) for t in feasible]
    shift = max(lps)
    ws = [math.exp(lp - shift) for lp in lps]
    num = math.fsum(w * len(t) for w, t in zip(ws, feasible))
    return num / math.fsum(ws)


def law_intensity(
    policy: PolicySpec, spec: ModelSpec, prompt: str, dist: EnumeratedDistribution
) -> float:
    """Expected extra reported tokens per output of one prompt, over its output law."""
    if policy.kind == "heuristic":
        # the law's ids come from the vocabulary by construction: no check_ids
        def extra(seq):
            return len(_heuristic_split(seq, policy.m, policy.p, spec, prompt)) - len(seq)
    else:
        def extra(seq):
            return expected_extra_tokens(policy, spec, prompt, seq)
    num = 0.0
    den = 0.0
    for seq, lp in dist.entries:
        w = math.exp(lp)
        num += w * extra(seq)
        den += w
    return num / den


def exact_intensity(policy: PolicySpec, spec: ModelSpec, prompts) -> float:
    """Mean expected extra reported tokens per output over a finite corpus."""
    if policy.kind == "faithful":
        return 0.0
    total = 0.0
    for q in prompts:
        total += law_intensity(policy, spec, q, enumerate_output_distribution(spec, q))
    return total / len(prompts)
