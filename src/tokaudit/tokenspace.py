"""Vocabulary and token-sequence algebra.

Token sequences are plain tuples of integer ids. The vocabulary owns the
id -> string table. The end-of-sequence marker is an ordinary vocabulary
member whose string is empty, so sequence probabilities (which multiply a
terminating EOS probability) and masked next-token distributions share one
id space.

A single string can admit several token sequences; that ambiguity is what
the rest of the package audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import DomainError, ResourceLimitError

# Token sequences never include the EOS id.
TokenSeq = tuple

# Most windows one vocabulary memoizes in Vocabulary.matches_at. The shipped
# vocabularies need a few dozen (5 characters and tokens of up to 2 give
# 5 + 25 = 30); the cap bounds what arbitrary targets can add.
_MATCH_TABLE_CAP = 4096
# Most tokenizations enumerate_tokenizations lists before giving up.
_TOKENIZATION_CAP = 100_000


@dataclass(frozen=True)
class Vocabulary:
    """Immutable id -> string table with a distinguished empty-string EOS."""

    strings: tuple[str, ...]
    eos_id: int

    def __post_init__(self):
        n = len(self.strings)
        if not 0 <= self.eos_id < n:
            raise DomainError(f"eos_id {self.eos_id} out of range for {n} entries")
        for t, s in enumerate(self.strings):
            if t == self.eos_id:
                if s != "":
                    raise DomainError("the EOS slot must hold the empty string")
            elif s == "":
                raise DomainError(f"token {t} has an empty string; only EOS may")
        non_eos = [s for t, s in enumerate(self.strings) if t != self.eos_id]
        if len(set(non_eos)) != len(non_eos):
            raise DomainError("duplicate token strings are not supported")
        # every character must itself be a token, otherwise constrained
        # generation could stall on a strict prefix of its target
        singles = {s for s in non_eos if len(s) == 1}
        missing = {ch for s in non_eos for ch in s} - singles
        if missing:
            raise DomainError(
                f"characters {sorted(missing)} never appear as single-character tokens"
            )

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build from non-EOS token strings; EOS gets the id after the last one."""
        toks = tuple(tokens)
        return cls(strings=toks + ("",), eos_id=len(toks))

    @property
    def size(self) -> int:
        return len(self.strings)

    @cached_property
    def token_ids(self) -> tuple:
        """Every non-EOS id, ascending."""
        return tuple(t for t in range(len(self.strings)) if t != self.eos_id)

    @cached_property
    def _longest(self) -> int:
        return max(map(len, self.strings))

    @cached_property
    def _match_table(self) -> dict:
        return {}

    def matches_at(self, target: str, i: int) -> tuple:
        """(id, length) of every token that target has at offset i, ascending id.

        The answer depends only on the next longest-token characters, so it
        is memoized per such window, up to _MATCH_TABLE_CAP windows; past
        the cap a window is scanned afresh.
        """
        window = target[i:i + self._longest]
        table = self._match_table
        found = table.get(window)
        if found is None:
            strings = self.strings
            found = tuple(
                (t, len(strings[t])) for t in self.token_ids if window.startswith(strings[t])
            )
            if len(table) < _MATCH_TABLE_CAP:
                table[window] = found
        return found

    @cached_property
    def _id_of_string(self) -> dict:
        return {s: t for t, s in enumerate(self.strings) if t != self.eos_id}

    @cached_property
    def _splits_of_id(self) -> dict:
        # non-EOS id -> all (left, right) id pairs concatenating to its
        # string, in ascending (left, right) order; the keys are the valid ids
        out = {}
        ids = self._id_of_string
        for s, t in ids.items():
            pairs = []
            for cut in range(1, len(s)):
                a = ids.get(s[:cut])
                b = ids.get(s[cut:])
                if a is not None and b is not None:
                    pairs.append((a, b))
            pairs.sort()
            out[t] = tuple(pairs)
        return out


def check_ids(seq: TokenSeq, vocab: Vocabulary) -> None:
    """Raise DomainError unless every id of seq is a non-EOS vocabulary id."""
    valid = vocab._splits_of_id
    for pos, t in enumerate(seq):
        if t not in valid:
            raise DomainError(f"invalid token id {t} at position {pos}")


def str_of(seq: TokenSeq, vocab: Vocabulary) -> str:
    """Concatenate the token strings of seq."""
    check_ids(seq, vocab)
    return "".join(map(vocab.strings.__getitem__, seq))


def pair_splits(token_id: int, vocab: Vocabulary) -> tuple:
    """All (left, right) id pairs whose strings concatenate to the token's string."""
    check_ids((token_id,), vocab)
    return vocab._splits_of_id[token_id]


def valid_splits(seq: TokenSeq, vocab: Vocabulary) -> tuple:
    """Every (position, left, right) replacement that preserves the string.

    Ordered ascending by position, then left id, then right id. The ids
    are the caller's to check (check_ids); an invalid one raises KeyError.
    """
    table = vocab._splits_of_id
    out = []
    for i, t in enumerate(seq):
        for a, b in table[t]:
            out.append((i, a, b))
    return tuple(out)


def enumerate_tokenizations(target: str, vocab: Vocabulary) -> list:
    """All token sequences whose concatenation equals target.

    Depth-first over token boundaries; results sorted by (length, ids).
    Raises ResourceLimitError if more than _TOKENIZATION_CAP exist.
    """
    cap = _TOKENIZATION_CAP
    n = len(target)
    matches = [vocab.matches_at(target, i) for i in range(n)]
    out: list = []
    stack = [(0, ())]
    while stack:
        i, acc = stack.pop()
        if i == n:
            out.append(acc)
            if len(out) > cap:
                raise ResourceLimitError(f"more than {cap} tokenizations of {target!r}")
            continue
        stack.extend((i + size, acc + (t,)) for t, size in matches[i])
    out.sort(key=lambda s: (len(s), s))
    return out


def count_tokenizations(target: str, vocab: Vocabulary) -> int:
    """Number of tokenizations of target, by prefix dynamic programming.

    Independent of enumerate_tokenizations; used to cross-check it.
    """
    n = len(target)
    ways = [0] * (n + 1)
    ways[0] = 1
    strings = vocab.strings
    for i in range(n):
        if ways[i]:
            for t in vocab.token_ids:
                if target.startswith(strings[t], i):
                    ways[i + len(strings[t])] += ways[i]
    return ways[n]


def min_tokens_to_complete(target: str, vocab: Vocabulary) -> tuple:
    """Minimal token count producing each suffix target[i:]; math.inf if none.

    Entry i answers: how many more tokens are needed from character offset i.
    Constrained generation consults this so it never wanders onto a path
    that cannot finish within the model's length cap.
    """
    n = len(target)
    best = [math.inf] * (n + 1)
    best[n] = 0
    for i in range(n - 1, -1, -1):
        for _, size in vocab.matches_at(target, i):
            if best[i + size] + 1 < best[i]:
                best[i] = best[i + size] + 1
    return tuple(best)
