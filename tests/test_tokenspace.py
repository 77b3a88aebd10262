"""Vocabulary and tokenization-lattice tests.

The enumeration walker is cross-checked against an independent prefix DP
(count_tokenizations) on randomized inputs, and frozen examples pin the
exact ordering contract.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokaudit import (
    DomainError,
    ResourceLimitError,
    Vocabulary,
    count_tokenizations,
    enumerate_tokenizations,
    min_tokens_to_complete,
    pair_splits,
    sample_constrained,
    str_of,
    valid_splits,
)
from tokaudit import tokenspace


class TestVocabularyConstruction:
    def test_from_tokens_places_eos_last(self):
        v = Vocabulary.from_tokens(["a", "b", "ab"])
        assert v.strings == ("a", "b", "ab", "")
        assert v.eos_id == 3
        assert v.size == 4
        assert v.token_ids == (0, 1, 2)

    def test_eos_slot_must_be_empty(self):
        with pytest.raises(DomainError):
            Vocabulary(strings=("a", "b"), eos_id=0)

    def test_empty_string_only_at_eos(self):
        with pytest.raises(DomainError):
            Vocabulary(strings=("a", "", ""), eos_id=2)

    def test_eos_id_out_of_range(self):
        with pytest.raises(DomainError):
            Vocabulary(strings=("a", ""), eos_id=5)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(DomainError):
            Vocabulary.from_tokens(["a", "b", "a"])

    def test_alphabet_coverage_required(self):
        # "ab" contributes chars a and b, but b has no single-char token
        with pytest.raises(DomainError) as exc:
            Vocabulary.from_tokens(["a", "ab"])
        assert "'b'" in str(exc.value)


class TestStrOf:
    def test_round_trip(self, vocab_tiny):
        assert str_of((0, 1, 2), vocab_tiny) == "abab"
        assert str_of((), vocab_tiny) == ""

    def test_rejects_eos(self, vocab_tiny):
        with pytest.raises(DomainError) as exc:
            str_of((0, vocab_tiny.eos_id), vocab_tiny)
        assert "position 1" in str(exc.value)

    def test_rejects_out_of_range(self, vocab_tiny):
        with pytest.raises(DomainError):
            str_of((99,), vocab_tiny)


class TestSplits:
    def test_pair_splits_frozen(self, vocab_abc):
        # vocab_abc ids: a=0 b=1 c=2 ab=3 bc=4 abc=5
        assert pair_splits(3, vocab_abc) == ((0, 1),)
        assert pair_splits(5, vocab_abc) == ((0, 4), (3, 2))
        assert pair_splits(0, vocab_abc) == ()

    def test_pair_splits_rejects_eos(self, vocab_abc):
        with pytest.raises(DomainError):
            pair_splits(vocab_abc.eos_id, vocab_abc)

    def test_valid_splits_frozen(self, vocab_abc):
        got = valid_splits((5, 0), vocab_abc)
        assert got == ((0, 0, 4), (0, 3, 2))

    def test_valid_splits_preserve_string(self, vocab_abc):
        seq = (5, 3, 4)
        s = str_of(seq, vocab_abc)
        for i, a, b in valid_splits(seq, vocab_abc):
            split = seq[:i] + (a, b) + seq[i + 1:]
            assert str_of(split, vocab_abc) == s
            assert len(split) == len(seq) + 1


class TestEnumerateTokenizations:
    def test_frozen_counts(self, vocab_abc):
        # "abc": (5), (0,4), (3,2), (0,1,2)
        got = enumerate_tokenizations("abc", vocab_abc)
        assert got == [(5,), (0, 4), (3, 2), (0, 1, 2)]

    def test_sorted_by_length_then_ids(self, vocab_abc):
        got = enumerate_tokenizations("abcbc", vocab_abc)
        assert len(got) == 8
        assert got == sorted(got, key=lambda s: (len(s), s))

    def test_empty_target(self, vocab_tiny):
        assert enumerate_tokenizations("", vocab_tiny) == [()]

    def test_unreachable_target(self, vocab_tiny):
        assert enumerate_tokenizations("xyz", vocab_tiny) == []

    def test_cap_enforced(self, vocab_tiny, monkeypatch):
        monkeypatch.setattr(tokenspace, "_TOKENIZATION_CAP", 4)
        with pytest.raises(ResourceLimitError, match="more than 4 tokenizations"):
            enumerate_tokenizations("ab" * 10, vocab_tiny)

    @given(st.text(alphabet="ab", min_size=0, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_independent_count(self, target):
        vocab = Vocabulary.from_tokens(["a", "b", "ab", "ba", "aba"])
        toks = enumerate_tokenizations(target, vocab)
        assert len(toks) == count_tokenizations(target, vocab)
        # soundness: each result really spells the target
        for seq in toks:
            assert str_of(seq, vocab) == target
        # uniqueness
        assert len(set(toks)) == len(toks)


class TestMinTokensToComplete:
    def test_frozen(self, vocab_abc):
        # "abc" suffixes: abc->1, bc->1, c->1, ""->0
        assert min_tokens_to_complete("abc", vocab_abc) == (1, 1, 1, 0)

    def test_impossible_suffix(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        best = min_tokens_to_complete("axb", vocab)
        assert best[0] == math.inf
        assert best[1] == math.inf
        assert best[2] == 1
        assert best[3] == 0

    @given(st.text(alphabet="ab", min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_enumeration(self, target):
        vocab = Vocabulary.from_tokens(["a", "b", "ab"])
        best = min_tokens_to_complete(target, vocab)
        toks = enumerate_tokenizations(target, vocab)
        assert best[0] == min(len(s) for s in toks)


def _scan_matches(target, i, vocab):
    return tuple(
        (t, len(vocab.strings[t])) for t in vocab.token_ids
        if target.startswith(vocab.strings[t], i)
    )


def _scan_min_tokens(target, vocab):
    """min_tokens_to_complete by a scan of every id at every offset."""
    n = len(target)
    best = [math.inf] * (n + 1)
    best[n] = 0
    for i in range(n - 1, -1, -1):
        for t in vocab.token_ids:
            s = vocab.strings[t]
            if target.startswith(s, i) and best[i + len(s)] + 1 < best[i]:
                best[i] = best[i + len(s)] + 1
    return tuple(best)


def _assert_matches_scan(target, vocab):
    assert min_tokens_to_complete(target, vocab) == _scan_min_tokens(target, vocab)
    for i in range(len(target) + 1):
        assert vocab.matches_at(target, i) == _scan_matches(target, i, vocab)


class TestMatchTable:
    def test_every_short_string(self, vocab_abc):
        for n in range(7):
            for chars in itertools.product("abc", repeat=n):
                _assert_matches_scan("".join(chars), vocab_abc)

    def test_character_outside_the_vocabulary(self, vocab_abc, spec_abc):
        for target in ("x", "abx", "xbc", "abcxabc", "ab c"):
            _assert_matches_scan(target, vocab_abc)
            assert min_tokens_to_complete(target, vocab_abc)[0] == math.inf
            with pytest.raises(DomainError):
                sample_constrained(spec_abc, "abc", target, np.random.default_rng(0))

    def test_ids_not_sorted_by_length(self):
        vocab = Vocabulary.from_tokens(["abc", "c", "ab", "a", "bc", "b"])
        for n in range(6):
            for chars in itertools.product("abc", repeat=n):
                _assert_matches_scan("".join(chars), vocab)
        assert vocab.matches_at("abc", 0) == ((0, 3), (2, 2), (3, 1))

    def test_memo_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(tokenspace, "_MATCH_TABLE_CAP", 5)
        vocab = Vocabulary.from_tokens(["a", "b", "c", "d", "ab", "cd"])
        target = "".join(itertools.chain.from_iterable(itertools.permutations("abcd")))
        _assert_matches_scan(target, vocab)
        assert len(vocab._match_table) == 5
