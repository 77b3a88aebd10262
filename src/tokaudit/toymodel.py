"""Hash-seeded autoregressive toy token model with constrained generation.

The model stands in for a provider's LLM. Its next-token logits are a
deterministic hash of (seed, prompt, recent context), so every probability
is exactly reproducible and, at small scale, exactly enumerable. EOS gets a
logit bonus growing linearly with position, which keeps generated lengths
short and enumeration tractable. So one softmax per (prompt, context) gives
the next-token law at every prefix length: a read-only table with one row
per length. Each prompt keeps its contexts in one table, linked by the
token emitted, and generation, the sampler, the policies and the oracle
all walk those links from the prompt's root; the context-window rule is
applied in one place, _Context.next.

Constrained generation draws a tokenization of a fixed target string by
masking, at every step, the tokens that would break the prefix relation
(and EOS until the target is complete), then renormalizing. The sum of the
log normalizers along the path is exactly the log importance weight of the
draw: model probability over sampler probability.
"""

from __future__ import annotations

import hashlib
import math
from array import array
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
        # _Context hashes the seed as a signed 64-bit integer
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


class _Context:
    """The next-token law of one (spec, prompt, context), linked to its successors.

    probs and log_probs hold one row per prefix length 0..max_len, read-only;
    row max_len is the length cap's EOS point mass. The logits are
    hash-seeded, so one draw serves every prefix length, and only the EOS
    logit moves with it (eos_boost per token). Each row's softmax runs
    elementwise in the order a single row would, so every row is the same
    bit for bit. cdfs[n] is row n's CDF and succ[t] the context reached by
    emitting t, both filled on first use (a CDF is an array('d'), which
    bisect_right reads like a list); top_p holds the heuristic
    policy's top-p sets, created by the policy. One prompt's contexts share
    one table, so each is built once (README "Caches").
    """

    __slots__ = ("spec", "prompt", "table", "ctx", "probs", "log_probs", "cdfs", "succ", "top_p")

    def __init__(self, spec: ModelSpec, prompt: str, table: dict, ctx: tuple):
        h = hashlib.blake2b(digest_size=32)
        h.update(spec.seed.to_bytes(8, "little", signed=True))
        h.update(hashlib.blake2b(prompt.encode("utf-8"), digest_size=16).digest())
        for t in ctx:
            h.update(t.to_bytes(4, "little"))
        entropy = np.frombuffer(h.digest(), dtype=np.uint32)
        gen = np.random.default_rng(np.random.SeedSequence(entropy.tolist()))
        logits = gen.standard_normal(spec.vocab.size)
        L = spec.max_len
        eos = spec.vocab.eos_id
        x = np.empty((L + 1, logits.size))
        free = x[:L]  # a view: the rows before the length cap
        free[:] = logits
        # a huge eos_boost or a tiny temperature overflows to inf, then nan:
        # checked below, so numpy need not warn on the way
        with np.errstate(over="ignore", invalid="ignore"):
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
        if not np.isfinite(probs).all():
            raise DomainError(
                f"next-token probabilities are not finite (temperature {spec.temperature!r}, "
                f"eos_boost {spec.eos_boost!r})"
            )
        probs.setflags(write=False)
        x.setflags(write=False)
        self.spec = spec
        self.prompt = prompt
        self.table = table
        self.ctx = ctx
        table[ctx] = self
        self.probs = probs
        self.log_probs = x
        self.cdfs = [None] * (L + 1)
        self.succ = [None] * logits.size
        self.top_p = None

    def cdf(self, plen: int) -> array:
        """Row plen's CDF, kept in cdfs."""
        cum = array("d", np.cumsum(self.probs[plen]).tolist())  # filled from bytes, it overallocates
        cum[-1] = 1.0  # rng.random() < 1, so bisect_right stays in range
        self.cdfs[plen] = cum
        return cum

    def next(self, t) -> "_Context":
        """The context after emitting t, kept in succ."""
        t = int(t)
        cw = self.spec.context_window
        ctx = (self.ctx + (t,))[-cw:] if cw else ()
        nxt = self.table.get(ctx) or _Context(self.spec, self.prompt, self.table, ctx)
        self.succ[t] = nxt
        return nxt


# One table per prompt; evicting one only makes the next walks rebuild the
# same contexts (README "Caches").
@lru_cache(maxsize=64)
def _root_context(spec: ModelSpec, prompt: str) -> _Context:
    """The empty context of one (spec, prompt), the root of its table."""
    return _Context(spec, prompt, {}, ())


def _walk(spec: ModelSpec, prompt: str, prefix) -> _Context:
    """The context after prefix, walked from the prompt's root."""
    c = _root_context(spec, prompt)
    for t in prefix:
        c = c.succ[t] or c.next(t)
    return c


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
    return _walk(spec, prompt, prefix).probs[len(prefix)]


def next_token_log_probs(spec: ModelSpec, prompt: str, prefix: TokenSeq) -> np.ndarray:
    """Log form of next_token_dist."""
    _check_prefix(spec, prefix)
    return _walk(spec, prompt, prefix).log_probs[len(prefix)]


def sample_sequence(spec: ModelSpec, prompt: str, rng) -> TokenSeq:
    """Sample tokens until EOS; the returned sequence excludes EOS.

    One rng.random() per token, inverted through the step's CDF.
    """
    c = _root_context(spec, prompt)
    eos = spec.vocab.eos_id
    rand = rng.random
    ids: list = []
    plen = 0
    while True:
        j = bisect_right(c.cdfs[plen] or c.cdf(plen), rand())
        if j == eos:
            return tuple(ids)
        ids.append(j)
        plen += 1
        c = c.succ[j] or c.next(j)


def sequence_log_prob(spec: ModelSpec, prompt: str, seq: TokenSeq) -> float:
    """log P(seq then EOS | prompt), summed stepwise in log space."""
    _check_prefix(spec, seq)
    c = _root_context(spec, prompt)
    total = 0.0
    for plen, t in enumerate(seq):
        total += float(c.log_probs[plen, t])
        c = c.succ[t] or c.next(t)
    return total + float(c.log_probs[len(seq), spec.vocab.eos_id])


class _Node:
    """One sampler step: admissible ids and their masked CDF.

    succ[j] is the node reached by taking ids[j], linked on first use. A
    terminal node (the target complete) has ids None and log_z = log P(EOS).
    """

    __slots__ = ("key", "ids", "cum", "log_z", "succ")


class ConstrainedSampler:
    """Reusable masked sampler for one (model, prompt, target) triple.

    At each step the admissible tokens are those that extend the consumed
    prefix of the target AND still leave room to finish within max_len, so
    no path can dead-end at the length cap. Every character is a token, so
    the rest of the target fits in as many tokens as it has characters;
    only where that is more than the room left is a minimal-completion
    table built and read. EOS becomes admissible exactly at completion.
    Step nodes are built lazily, once per (chars consumed, prefix length,
    _Context), read their rows from that context, and are linked to their
    successors the first time a draw takes each edge, so a draw walks node
    to node with no per-step lookup. The first draw drops the lattice it
    walked, so a target estimated once leaves no nodes behind; the lattice
    is kept from the second draw on, and sample() always keeps it.
    """

    def __init__(self, spec: ModelSpec, prompt: str, target: str):
        self.spec = spec
        self.prompt = prompt
        self.target = target
        # one-character tokens spell a target over the vocabulary's
        # characters in len(target) tokens; only past that is the table built
        spelled = spec.vocab._id_of_string.keys() >= set(target)
        if (not spelled or len(target) > spec.max_len) and self._min_left[0] > spec.max_len:
            raise DomainError(
                f"target {target!r} is not producible within max_len={spec.max_len}"
            )
        self._nodes: dict = {}
        self._keep_lattice = False

    @cached_property
    def _min_left(self) -> tuple:
        return min_tokens_to_complete(self.target, self.spec.vocab)

    def _node(self, consumed: int, plen: int, ctx: _Context) -> _Node:
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
        nxt = self._node(
            consumed + len(self.spec.vocab.strings[t]), plen + 1, ctx.succ[t] or ctx.next(t)
        )
        node.succ[j] = nxt
        return nxt

    def _build(self, consumed: int, plen: int, ctx: _Context) -> _Node:
        spec = self.spec
        vocab = spec.vocab
        target = self.target
        probs, logp = ctx.probs, ctx.log_probs
        node = _Node()
        if consumed == len(target):
            # completion: the mask leaves EOS alone, so the normalizer is P(EOS)
            node.ids = None
            node.log_z = float(logp[plen, vocab.eos_id])
            return node
        budget = spec.max_len - plen - 1  # tokens left after taking one more
        rest = len(target) - consumed
        ids: list = []
        weights: list = []
        for t, size in vocab.matches_at(target, consumed):
            # min_left[consumed + size] <= rest - size, so the table is read
            # only where the cap can bite
            if rest - size <= budget or self._min_left[consumed + size] <= budget:
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

    @cached_property
    def _root(self) -> _Node:
        return self._node(0, 0, _root_context(self.spec, self.prompt))

    def draw(self, rng, k: int) -> list:
        """(length, log weight) of k paths: the walks of k sample() calls, tokens unrecorded."""
        root = self._root
        rand = rng.random
        out = []
        for _ in range(k):
            node = root
            log_w = 0.0
            while node.ids is not None:
                j = bisect_right(node.cum, rand())
                log_w += node.log_z
                node = node.succ[j] or self._successor(node, j)
            # a node's prefix length is the number of steps taken to reach it
            out.append((node.key[1], log_w + node.log_z))
        if not self._keep_lattice:
            # most targets are estimated once: free their nodes by reference
            # count now, before the cyclic GC scans them
            self._keep_lattice = True
            self._nodes = {}
            del self._root
        return out

    def sample(self, rng) -> ConstrainedSample:
        """One path with its tokens: one rng.random() per token."""
        node = self._root
        rand = rng.random
        ids: list = []
        log_w = 0.0
        while node.ids is not None:
            j = bisect_right(node.cum, rand())
            log_w += node.log_z
            ids.append(node.ids[j])
            node = node.succ[j] or self._successor(node, j)
        return ConstrainedSample(tuple(ids), log_w + node.log_z)


# Most targets are estimated once, so a larger cache holds samplers that are
# never reused (README "Caches"). An evicted sampler is rebuilt with the same
# nodes, so the bound moves speed and memory, never a value or a draw.
@lru_cache(maxsize=512)
def constrained_sampler(spec: ModelSpec, prompt: str, target: str) -> ConstrainedSampler:
    """Shared sampler instance; a dropped lattice is rebuilt with the same
    nodes, so reuse is safe."""
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
