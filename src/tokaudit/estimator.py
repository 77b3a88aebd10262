"""Unbiased estimation of the conditional expected tokenization length.

The estimator draws a random number K ~ Poisson(rate) of constrained
samples and sums the telescoping increments of the importance-weighted
running mean, each divided by the survival probability P(K >= k). The sum
is unbiased because P(K >= k) > 0 for every k; a K with bounded support
would drop every increment past its bound and bias the estimate towards
the short-run mean. The rate controls cost and variance. A draw of K = 0
contributes the empty sum, i.e. zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, InvariantViolation
from .toymodel import ModelSpec, constrained_sampler


@dataclass(frozen=True)
class TruncationDist:
    """Poisson law of the per-estimate sample count K.

    kind is always "poisson" and param its rate; the fields mirror the
    config's "truncation" section.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind != "poisson":
            raise DomainError(
                f"unknown truncation kind {self.kind!r} (only 'poisson' is supported)"
            )
        # _poisson_survival(rate, 1) sums upward from P(K = 1) = rate * exp(-rate);
        # a subnormal start makes it read low, then zero (rates past 714.9686572379665)
        rate = self.param
        if not (rate > 0 and math.exp(math.log(rate) - rate) >= sys.float_info.min):
            raise DomainError(
                f"poisson rate {rate!r} is out of range: the survival sum needs "
                f"P(K = 1) = rate * exp(-rate) >= {sys.float_info.min!r} (rates up to ~714.97)"
            )

    @classmethod
    def poisson(cls, rate: float) -> "TruncationDist":
        return cls("poisson", float(rate))

    def survivals(self, k: int) -> list:
        """[P(K >= 0), ..., P(K >= k)]: one list per law, grown on demand."""
        table = self._survivals
        while len(table) <= k:
            table.append(_poisson_survival(self.param, len(table)))
        return table

    @cached_property
    def _survivals(self) -> list:
        return [1.0]

    def sample(self, rng) -> int:
        return int(rng.poisson(self.param))


def _poisson_survival(rate: float, k: int) -> float:
    # upward tail sum started at the k-th pmf term; never 1 - cdf, which
    # cancels catastrophically out in the tail
    term = math.exp(-rate + k * math.log(rate) - math.lgamma(k + 1))
    total = term
    j = k
    while term > total * 1e-18 and j < k + 100_000:
        term *= rate / (j + 1)
        total += term
        j += 1
    return min(total, 1.0)


@dataclass(frozen=True)
class LengthEstimate:
    """Result of one randomized-truncation estimate.

    value can leave the [min, max] tokenization-length range and is zero
    whenever K = 0; only its expectation is pinned down.
    """

    value: float
    k_used: int
    samples: tuple


def weighted_running_mean(samples, k: int) -> float:
    """Importance-weighted mean length of the first k constrained samples.

    Weights are exponentiated relative to the largest log weight in the
    window so the ratios never overflow.
    """
    if not 1 <= k <= len(samples):
        raise DomainError(f"k={k} outside 1..{len(samples)}")
    head = samples[:k]
    shift = max(s.log_weight for s in head)
    num = 0.0
    den = 0.0
    for s in head:
        w = math.exp(s.log_weight - shift)
        num += w * len(s.seq)
        den += w
    if den <= 0.0:
        raise InvariantViolation("all importance weights vanished")
    return num / den


def estimate_length(
    spec: ModelSpec,
    prompt: str,
    target: str,
    trunc: TruncationDist,
    rng,
    keep_samples: bool = True,
) -> LengthEstimate:
    """Unbiased estimate of the mean tokenization length of target.

    Draws K ~ trunc, then K constrained samples, and returns
    sum_k (R_k - R_{k-1}) / P(K >= k) where R_k is the weighted running
    mean (R_0 = 0). The running mean is maintained incrementally with the
    same exponent-shifting scheme as weighted_running_mean. The samples
    come from sampler.sample; with keep_samples=False the sampler's draw
    walks the same paths for their lengths only, and samples is empty.
    """
    sampler = constrained_sampler(spec, prompt, target)
    k_total = trunc.sample(rng)
    if k_total == 0:
        return LengthEstimate(0.0, 0, ())
    if keep_samples:
        samples = tuple(sampler.sample(rng) for _ in range(k_total))
        drawn = [(len(s.seq), s.log_weight) for s in samples]
    else:
        samples = ()
        drawn = sampler.draw(rng, k_total)
    survival = trunc.survivals(k_total)
    value = 0.0
    prev = 0.0
    shift = -math.inf
    num = 0.0
    den = 0.0
    for k, (n, lw) in enumerate(drawn, 1):
        if lw > shift:
            if den > 0.0:
                rescale = math.exp(shift - lw)
                num *= rescale
                den *= rescale
            shift = lw
        w = math.exp(lw - shift)
        num += w * n
        den += w
        r = num / den
        value += (r - prev) / survival[k]
        prev = r
    # positional, in field order: keyword parsing is a measurable share of an estimate
    return LengthEstimate(value, k_total, samples)
