"""Provider reporting policies and their expected token inflation.

All policies preserve the generated string; the dishonest ones only re-cut
it into more tokens. The random policy applies uniformly chosen 2-way
splits. The heuristic policy deterministically splits the highest-id token
and then keeps the modified sequence only if every token of it survives a
top-p plausibility check against the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import DomainError, ResourceLimitError
from .tokenspace import TokenSeq, Vocabulary, check_ids, pair_splits, valid_splits
from .toymodel import ModelSpec, _step_table

_KINDS = ("faithful", "random", "heuristic")


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    m: int = 0
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown policy kind {self.kind!r}")
        if self.m < 0:
            raise DomainError("split budget m must be nonnegative")
        if self.kind == "heuristic":
            if self.p is None or not 0 < self.p < 1:
                raise DomainError("heuristic policy needs p in (0, 1)")

    @classmethod
    def faithful(cls) -> "PolicySpec":
        return cls("faithful")

    @classmethod
    def random(cls, m: int) -> "PolicySpec":
        return cls("random", m=m)

    @classmethod
    def heuristic(cls, m: int, p: float) -> "PolicySpec":
        return cls("heuristic", m=m, p=p)


def top_p_set(dist, p: float) -> frozenset:
    """Smallest id set reaching cumulative probability p.

    Tokens are taken in descending probability, ties broken by ascending id.
    """
    if not 0 < p < 1:
        raise DomainError("p must lie in (0, 1)")
    order = sorted(range(len(dist)), key=lambda t: (-dist[t], t))
    acc = 0.0
    out = []
    for t in order:
        out.append(t)
        acc += float(dist[t])
        if acc >= p:
            break
    return frozenset(out)


@lru_cache(maxsize=65_536)
def _top_p_at(spec: ModelSpec, prompt: str, ctx: tuple, prefix_len: int, p: float) -> frozenset:
    """top_p_set of the next-token distribution at one conditioning context."""
    probs, _, _ = _step_table(spec, prompt, ctx, prefix_len)
    return top_p_set(probs, p)


@lru_cache(maxsize=16)
def _heuristic_splits(vocab: Vocabulary) -> tuple:
    """Per id, the heuristic policy's split pair; None where it has none (EOS too)."""
    best = [None] * vocab.size
    for t in vocab.token_ids:
        pairs = pair_splits(t, vocab)
        if pairs:  # lex ascending, and max keeps the first of equal keys
            best[t] = max(pairs, key=min)
    return tuple(best)


def random_split_policy(generated: TokenSeq, m: int, vocab: Vocabulary, rng) -> TokenSeq:
    """Apply up to m uniformly random string-preserving splits.

    Stops early once no token admits a 2-way split. An invalid id in
    generated raises DomainError.
    """
    seq = tuple(generated)
    check_ids(seq, vocab)
    for _ in range(m):
        splits = valid_splits(seq, vocab)
        if not splits:
            break
        i, a, b = splits[int(rng.integers(len(splits)))]
        seq = seq[:i] + (a, b) + seq[i + 1 :]
    return seq


def heuristic_split_policy(
    generated: TokenSeq, m: int, p: float, spec: ModelSpec, prompt: str
) -> TokenSeq:
    """Deterministic split-then-verify policy.

    Repeats up to m times: pick the position with the largest token id
    (ties to the lowest position); stop on a single-character token;
    replace it by the split pair maximizing min(left, right), ties to the
    smallest (left, right). The result is kept only if every one of its
    tokens lies in the model's top-p set at its position; otherwise the
    original sequence is reported unchanged. An invalid id in generated
    raises DomainError.
    """
    check_ids(generated, spec.vocab)
    seq = list(generated)
    if not seq:
        return tuple(generated)
    best = _heuristic_splits(spec.vocab)
    for _ in range(m):
        i = seq.index(max(seq))
        pair = best[seq[i]]
        if pair is None:
            break
        seq[i : i + 1] = pair
    if len(seq) == len(generated):
        return tuple(generated)
    out = tuple(seq)
    cw = spec.context_window
    for idx, t in enumerate(out):
        # past the length cap the distribution is an EOS point mass, so an
        # over-long modification fails here and falls back
        ctx = out[idx - cw : idx] if idx > cw else out[:idx]
        if t not in _top_p_at(spec, prompt, ctx, idx, p):
            return tuple(generated)
    return out


def apply_policy(policy: PolicySpec, spec: ModelSpec, prompt: str, generated: TokenSeq, rng) -> TokenSeq:
    """Dispatch to the configured reporting policy; always string-preserving."""
    if policy.kind == "faithful":
        return tuple(generated)
    if policy.kind == "random":
        return random_split_policy(generated, policy.m, spec.vocab, rng)
    return heuristic_split_policy(generated, policy.m, policy.p, spec, prompt)


def expected_extra_tokens(
    policy: PolicySpec,
    spec: ModelSpec,
    prompt: str,
    generated: TokenSeq,
    *,
    state_cap: int = 10_000,
) -> float:
    """Expected reported-minus-generated length for one generated sequence.

    Exact for the faithful (zero) and heuristic (deterministic) policies.
    For the random policy the split lattice is enumerated exactly; past
    state_cap memoized states it raises ResourceLimitError.
    """
    if policy.kind == "faithful":
        return 0.0
    if policy.kind == "heuristic":
        out = heuristic_split_policy(generated, policy.m, policy.p, spec, prompt)
        return float(len(out) - len(generated))
    return _random_extra_exact(tuple(generated), policy.m, spec.vocab, {}, state_cap)


def _random_extra_exact(s: tuple, r: int, vocab: Vocabulary, memo: dict, state_cap: int) -> float:
    # module-level recursion with the memo passed in: a self-referencing
    # closure would be a reference cycle that keeps the memo alive until a
    # full garbage collection
    if r == 0:
        return 0.0
    key = (s, r)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(memo) >= state_cap:
        raise ResourceLimitError(f"random-policy split lattice exceeded {state_cap} states")
    splits = valid_splits(s, vocab)
    if not splits:
        val = 0.0
    else:
        total = 0.0
        for i, a, b in splits:
            child = s[:i] + (a, b) + s[i + 1 :]
            total += _random_extra_exact(child, r - 1, vocab, memo, state_cap)
        val = 1.0 + total / len(splits)
    memo[key] = val
    return val
