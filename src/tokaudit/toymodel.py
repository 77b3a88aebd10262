"""Hash-seeded autoregressive toy token model with constrained generation.

The model stands in for a provider's LLM. Its next-token logits are a
deterministic hash of (seed, prompt, recent context), so every probability
is exactly reproducible and, at small scale, exactly enumerable. EOS gets a
logit bonus growing linearly with position, which keeps generated lengths
short and enumeration tractable. So one softmax per (prompt, context) gives
the next-token law at every prefix length: a read-only table with one row
per length, which generation, the sampler, the policies and the oracle all
read.

Constrained generation draws a tokenization of a fixed target string by
masking, at every step, the tokens that would break the prefix relation
(and EOS until the target is complete), then renormalizing. The sum of the
log normalizers along the path is exactly the log importance weight of the
draw: model probability over sampler probability.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InvariantViolation
from .tokenspace import TokenSeq, Vocabulary, check_ids, min_tokens_to_complete


@dataclass(frozen=True)
class ModelSpec:
    """Complete description of a toy model; equal specs give identical outputs."""

    seed: int
    vocab: Vocabulary
    context_window: int = 2
    temperature: float = 1.0
    eos_boost: float = 0.0
    max_len: int = 16

    def __post_init__(self):
        # _context_rows hashes the seed as a signed 64-bit integer
        if not -(2**63) <= self.seed < 2**63:
            raise DomainError(f"seed must lie in [-2**63, 2**63), not {self.seed}")
        if self.temperature <= 0:
            raise DomainError("temperature must be positive")
        if self.max_len < 1:
            raise DomainError("max_len must be at least 1")
        if self.context_window < 0:
            raise DomainError("context_window must be nonnegative")
        if self.eos_boost < 0:
            raise DomainError("eos_boost must be nonnegative")

    # Every cache lookup hashes the spec, so the hash is computed once and kept
    # outside the fields: repr and == ignore it, and pickles drop it because
    # string hashes differ between processes.
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.seed, self.vocab, self.context_window, self.temperature,
                     self.eos_boost, self.max_len))

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class ConstrainedSample:
    """One tokenization of a target plus its log importance weight.

    log_weight = log P(seq under the model) - log P(seq under the masked
    sampler); it telescopes to the sum of per-step log normalizers,
    including the terminal EOS step where the normalizer is the EOS
    probability itself.
    """

    seq: TokenSeq
    log_weight: float


# 4,096 (spec, prompt, context) rows tables: one is about 3.2 KB at
# default.json's shape (17 prefix lengths x 10 ids, two float64 arrays), so
# about 13 MB at worst; an fpr-default study fills 1,609 (README "Caches").
@lru_cache(maxsize=4_096)
def _context_rows(spec: ModelSpec, prompt: str, ctx: tuple):
    """(probs, log_probs) of one conditioning context, one row per prefix length.

    Row n is the next-token law after n tokens, for n in 0..max_len; row
    max_len is the length cap's EOS point mass. The logits are hash-seeded,
    so one draw serves every prefix length, and only the EOS logit moves
    with it (eos_boost per token). Each row's softmax runs elementwise in
    the order a single row would, so every row is the same bit for bit.
    Both arrays are read-only.
    """
    h = hashlib.blake2b(digest_size=32)
    h.update(spec.seed.to_bytes(8, "little", signed=True))
    h.update(hashlib.blake2b(prompt.encode("utf-8"), digest_size=16).digest())
    for t in ctx:
        h.update(int(t).to_bytes(4, "little"))
    entropy = np.frombuffer(h.digest(), dtype=np.uint32)
    gen = np.random.default_rng(np.random.SeedSequence(entropy.tolist()))
    logits = gen.standard_normal(spec.vocab.size)
    L = spec.max_len
    eos = spec.vocab.eos_id
    x = np.empty((L + 1, logits.size))
    free = x[:L]  # a view: the rows before the length cap
    free[:] = logits
    free[:, eos] += spec.eos_boost * np.arange(L)
    free /= spec.temperature
    free -= free.max(axis=1, keepdims=True)
    # math.log per row, as one row computes it: np.log's SIMD path may differ
    log_z = [math.log(z) for z in np.exp(free).sum(axis=1).tolist()]
    free -= np.array(log_z)[:, None]
    # hard length cap: generation must stop here
    x[L] = -np.inf
    x[L, eos] = 0.0
    probs = np.exp(x)
    probs.setflags(write=False)
    x.setflags(write=False)
    return probs, x


def _context(spec: ModelSpec, prefix) -> tuple:
    cw = spec.context_window
    if cw == 0:
        return ()
    return tuple(int(t) for t in prefix[-cw:])


def _check_prefix(spec: ModelSpec, prefix):
    """Raise DomainError for an over-long prefix or a bad id."""
    if len(prefix) > spec.max_len:
        raise DomainError(
            f"prefix of length {len(prefix)} exceeds max_len {spec.max_len}"
        )
    check_ids(prefix, spec.vocab)


def next_token_dist(spec: ModelSpec, prompt: str, prefix: TokenSeq) -> np.ndarray:
    """Next-token probabilities (EOS included) given prompt and prefix.

    Strictly positive and summing to one, except at the length cap where
    all mass sits on EOS.
    """
    _check_prefix(spec, prefix)
    return _context_rows(spec, prompt, _context(spec, prefix))[0][len(prefix)]


def next_token_log_probs(spec: ModelSpec, prompt: str, prefix: TokenSeq) -> np.ndarray:
    """Log form of next_token_dist."""
    _check_prefix(spec, prefix)
    return _context_rows(spec, prompt, _context(spec, prefix))[1][len(prefix)]


class _GenerationNodes:
    """The generation nodes of one (spec, prompt), one per (prefix length, context).

    A node is a list: node[t] is the node reached by emitting token t,
    linked on first use, and node[-1] is the step's next-token CDF, which
    the node owns. Plain lists, keyed by context in one dict per prefix
    length, keep a node to about 240 B plus its CDF (README "Caches").
    """

    def __init__(self, spec: ModelSpec, prompt: str):
        self.spec = spec
        self.prompt = prompt
        self._levels = [{} for _ in range(spec.max_len + 1)]
        self.root = self._node(0, ())

    def _node(self, plen: int, ctx: tuple) -> list:
        level = self._levels[plen]
        node = level.get(ctx)
        if node is None:
            cum = np.cumsum(_context_rows(self.spec, self.prompt, ctx)[0][plen]).tolist()
            cum[-1] = 1.0  # rng.random() < 1, so bisect_right stays in range
            node = level[ctx] = [None] * len(cum) + [cum]
        return node

    def link(self, node: list, ids: list) -> list:
        """Link node to its successor by ids[-1]; ids is the prefix after it."""
        cw = self.spec.context_window
        nxt = node[ids[-1]] = self._node(len(ids), tuple(ids[-cw:]) if cw else ())
        return nxt


# One table per prompt; evicting one only makes its next generations relink
# the same nodes (README "Caches").
@lru_cache(maxsize=64)
def _generation_nodes(spec: ModelSpec, prompt: str) -> _GenerationNodes:
    return _GenerationNodes(spec, prompt)


def sample_sequence(spec: ModelSpec, prompt: str, rng) -> TokenSeq:
    """Sample tokens until EOS; the returned sequence excludes EOS.

    One rng.random() per token, inverted through the step's CDF.
    """
    nodes = _generation_nodes(spec, prompt)
    eos = spec.vocab.eos_id
    rand = rng.random
    node = nodes.root
    ids: list = []
    while True:
        j = bisect_right(node[-1], rand())
        if j == eos:
            return tuple(ids)
        ids.append(j)
        node = node[j] or nodes.link(node, ids)


def sequence_log_prob(spec: ModelSpec, prompt: str, seq: TokenSeq) -> float:
    """log P(seq then EOS | prompt), summed stepwise in log space."""
    _check_prefix(spec, seq)
    cw = spec.context_window
    total = 0.0
    ids: list = []
    for t in seq:
        ctx = tuple(ids[-cw:]) if cw else ()
        total += float(_context_rows(spec, prompt, ctx)[1][len(ids), t])
        ids.append(int(t))
    ctx = tuple(ids[-cw:]) if cw else ()
    return total + float(_context_rows(spec, prompt, ctx)[1][len(ids), spec.vocab.eos_id])


class _Node:
    """One sampler step: admissible ids and their masked CDF.

    succ[j] is the node reached by taking ids[j], linked on first use. A
    terminal node (the target complete) has ids None and log_z = log P(EOS).
    """

    __slots__ = ("key", "ids", "cum", "log_z", "succ")


class ConstrainedSampler:
    """Reusable masked sampler for one (model, prompt, target) triple.

    At each step the admissible tokens are those that extend the consumed
    prefix of the target AND still leave room to finish within max_len
    (checked against a minimal-completion table, so no path can dead-end
    at the length cap). EOS becomes admissible exactly at completion.
    Step nodes are built lazily, once per (chars consumed, prefix length,
    context), and linked to their successors the first time a draw takes
    each edge, so a draw walks node to node with no per-step lookup.
    """

    def __init__(self, spec: ModelSpec, prompt: str, target: str):
        self.spec = spec
        self.prompt = prompt
        self.target = target
        self._min_left = min_tokens_to_complete(target, spec.vocab)
        if self._min_left[0] > spec.max_len:
            raise DomainError(
                f"target {target!r} is not producible within max_len={spec.max_len}"
            )
        self._nodes: dict = {}
        self._root = None

    def _node(self, consumed: int, plen: int, ctx: tuple) -> _Node:
        key = (consumed, plen, ctx)
        node = self._nodes.get(key)
        if node is None:
            node = self._build(consumed, plen, ctx)
            node.key = key
            self._nodes[key] = node
        return node

    def _successor(self, node: _Node, j: int) -> _Node:
        consumed, plen, ctx = node.key
        t = node.ids[j]
        cw = self.spec.context_window
        nxt = self._node(
            consumed + len(self.spec.vocab.strings[t]), plen + 1, (ctx + (t,))[-cw:] if cw else ()
        )
        node.succ[j] = nxt
        return nxt

    def _build(self, consumed: int, plen: int, ctx: tuple) -> _Node:
        spec = self.spec
        vocab = spec.vocab
        target = self.target
        probs, logp = _context_rows(spec, self.prompt, ctx)
        node = _Node()
        if consumed == len(target):
            # completion: the mask leaves EOS alone, so the normalizer is P(EOS)
            node.ids = None
            node.log_z = float(logp[plen, vocab.eos_id])
            return node
        min_left = self._min_left
        budget = spec.max_len - plen - 1  # tokens left after taking one more
        ids: list = []
        weights: list = []
        for t, size in vocab.matches_at(target, consumed):
            if min_left[consumed + size] <= budget:
                ids.append(t)
                weights.append(float(probs[plen, t]))
        if not ids:
            raise InvariantViolation(
                f"no admissible token at offset {consumed} of {target!r}"
            )
        z = math.fsum(weights)
        if z <= 0.0:
            raise InvariantViolation(f"zero mask normalizer at offset {consumed}")
        cum = []
        acc = 0.0
        for w in weights:
            acc += w
            cum.append(acc / z)
        cum[-1] = 1.0  # rng.random() < 1, so bisect_right stays in range
        node.ids = tuple(ids)  # tuples: no spare capacity in a lattice this large
        node.cum = tuple(cum)
        node.log_z = math.log(z)
        node.succ = [None] * len(ids)
        return node

    def draw(self, rng, k: int) -> list:
        """k independent paths, as a list of (seq, log weight) pairs."""
        root = self._root
        if root is None:
            root = self._root = self._node(0, 0, ())
        rand = rng.random
        out = []
        for _ in range(k):
            node = root
            ids: list = []
            log_w = 0.0
            while node.ids is not None:
                j = bisect_right(node.cum, rand())
                log_w += node.log_z
                ids.append(node.ids[j])
                node = node.succ[j] or self._successor(node, j)
            out.append((tuple(ids), log_w + node.log_z))
        return out

    def sample(self, rng) -> ConstrainedSample:
        (seq, log_w), = self.draw(rng, 1)
        return ConstrainedSample(seq=seq, log_weight=log_w)


# Most targets are estimated once, so a larger cache holds lattices that are
# never reused (README "Caches"). An evicted sampler is rebuilt with the same
# nodes, so the bound moves speed and memory, never a value or a draw.
@lru_cache(maxsize=512)
def constrained_sampler(spec: ModelSpec, prompt: str, target: str) -> ConstrainedSampler:
    """Shared sampler instance; its node lattice only grows, so reuse is safe."""
    return ConstrainedSampler(spec, prompt, target)


def sample_constrained(spec: ModelSpec, prompt: str, target: str, rng) -> ConstrainedSample:
    """Draw one tokenization of target from the masked model distribution."""
    return constrained_sampler(spec, prompt, target).sample(rng)


def masked_path_log_prob(spec: ModelSpec, prompt: str, target: str, seq: TokenSeq):
    """(log prob of seq under the masked sampler, sum of step log normalizers).

    Recomputed from scratch, independently of any sampler state, so tests
    can cross-check ConstrainedSample.log_weight against both
    sequence_log_prob(seq) - masked log prob and the normalizer sum.
    """
    vocab = spec.vocab
    strings = vocab.strings
    min_left = min_tokens_to_complete(target, vocab)
    if min_left[0] > spec.max_len:
        raise DomainError(f"target {target!r} is not producible")
    consumed = 0
    log_prob = 0.0
    log_z_sum = 0.0
    for pos, t in enumerate(seq):
        probs = next_token_dist(spec, prompt, tuple(seq[:pos]))
        budget = spec.max_len - pos - 1
        allowed = [
            u
            for u in vocab.token_ids
            if target.startswith(strings[u], consumed)
            and min_left[consumed + len(strings[u])] <= budget
        ]
        if t not in allowed:
            raise DomainError(f"token {t} at position {pos} is not admissible")
        z = math.fsum(float(probs[u]) for u in allowed)
        log_prob += math.log(float(probs[t])) - math.log(z)
        log_z_sum += math.log(z)
        consumed += len(strings[t])
    if consumed != len(target):
        raise DomainError("sequence does not spell the target")
    probs = next_token_dist(spec, prompt, tuple(seq))
    # masked probability of the terminal EOS is one; its normalizer is P(EOS)
    log_z_sum += math.log(float(probs[vocab.eos_id]))
    return log_prob, log_z_sum
