"""Tests of the benchmark's reference code.

    python3 -m pytest perfbench/tests -q
"""

import csv
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import reference as ref  # noqa: E402
from tokaudit import ModelSpec, Vocabulary, next_token_log_probs  # noqa: E402
from tokaudit.harness import load_config, run_replications  # noqa: E402
from tokaudit.oracle import exact_intensity  # noqa: E402


def _min_tokens(target, tokens):
    best = [0] + [math.inf] * len(target)
    for i in range(1, len(target) + 1):
        for t in tokens:
            if target.endswith(t, 0, i):
                best[i] = min(best[i], best[i - len(t)] + 1)
    return best[-1]


def brute_force_expected_length(spec, prompt, target):
    """E[number of tokens | the output spells target], listing every tokenization.

    Reads each step's probabilities with the full prefix, so unlike the
    lattice it assumes nothing about how much context the model uses.
    """
    strings = spec.vocab.strings
    eos = spec.vocab.eos_id
    ids = [t for t in range(len(strings)) if t != eos]
    seqs = []

    def walk(consumed, acc):
        if consumed == len(target):
            seqs.append(tuple(acc))
            return
        for t in ids:
            if target.startswith(strings[t], consumed):
                walk(consumed + len(strings[t]), acc + [t])

    walk(0, [])
    num = 0.0
    den = 0.0
    for seq in seqs:
        if len(seq) > spec.max_len:
            continue
        lp = sum(next_token_log_probs(spec, prompt, seq[:i])[t] for i, t in enumerate(seq))
        lp += next_token_log_probs(spec, prompt, seq)[eos]
        num += math.exp(lp) * len(seq)
        den += math.exp(lp)
    return num / den


def _strings(alphabet, max_chars):
    for n in range(1, max_chars + 1):
        for chars in itertools.product(alphabet, repeat=n):
            yield "".join(chars)


@pytest.mark.parametrize(
    "tokens, cw, max_len, max_chars",
    [
        (["a", "b", "c", "ab", "bc", "abc"], 2, 8, 5),
        (["a", "b", "ab"], 1, 4, 6),  # the length cap cuts long tokenizations
        (["a", "b", "ab"], 0, 5, 6),
    ],
)
def test_lattice_matches_brute_force(tokens, cw, max_len, max_chars):
    spec = ModelSpec(seed=11, vocab=Vocabulary.from_tokens(tokens), context_window=cw,
                     eos_boost=0.3, max_len=max_len)
    table = ref.StepTable(spec, "ab", next_token_log_probs)
    alphabet = sorted({ch for t in tokens for ch in t})
    compared = 0
    for target in _strings(alphabet, max_chars):
        if _min_tokens(target, tokens) > max_len:
            with pytest.raises(ValueError):
                ref.lattice_expected_length(table, target)
            continue
        got = ref.lattice_expected_length(table, target)
        want = brute_force_expected_length(spec, "ab", target)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), target
        compared += 1
    assert compared > 20


def test_random_policy_intensity_matches_program():
    cfg = load_config(ROOT / "configs" / "certified.json")
    tables = [ref.StepTable(cfg.model, q, next_token_log_probs) for q in cfg.corpus]
    want = exact_intensity(cfg.policy, cfg.model, cfg.corpus)
    assert ref.random_policy_intensity(tables, cfg.policy.m) == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def honest_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("honest")
    cfg = load_config(ROOT / "configs" / "certified.json", {
        "policy": "faithful", "schedule": "decreasing", "max_steps": 300,
        "replications": 1, "out_dir": str(out),
    })
    summary = run_replications(replace(cfg, master_seed=3))
    assert summary.outcomes[0].anomaly is None and not summary.outcomes[0].flagged
    return out / "trajectory_0.csv", cfg


def _lam_at(cfg):
    return lambda i: cfg.schedule.lambda0 / i


def _rewrite(src, dst, edit):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_trajectory_check_accepts_the_export(honest_csv):
    path, cfg = honest_csv
    problems, evidences = ref.check_trajectory_csv(path, _lam_at(cfg), cfg.alpha, cfg.max_steps)
    assert problems == []
    assert len(evidences) == cfg.max_steps


def test_trajectory_check_rejects_a_corrupted_factor(honest_csv, tmp_path):
    path, cfg = honest_csv

    def corrupt(rows):
        factor = float(rows[120][6])
        rows[120][6] = repr(math.nextafter(factor, 2.0) + 1e-9)
        return rows

    bad = tmp_path / "bad.csv"
    _rewrite(path, bad, corrupt)
    problems, _ = ref.check_trajectory_csv(bad, _lam_at(cfg), cfg.alpha, cfg.max_steps)
    assert any("step 120: factor" in p for p in problems)


@pytest.mark.parametrize("dropped", [1, 150, 300])
def test_trajectory_check_rejects_a_dropped_row(honest_csv, tmp_path, dropped):
    path, cfg = honest_csv
    bad = tmp_path / "dropped.csv"
    _rewrite(path, bad, lambda rows: rows[:dropped] + rows[dropped + 1:])
    problems, _ = ref.check_trajectory_csv(bad, _lam_at(cfg), cfg.alpha, cfg.max_steps)
    assert problems


def test_binomial_upper():
    c = ref.binomial_upper(150, 0.05)
    tail = lambda k: sum(math.comb(150, j) * 0.05**j * 0.95 ** (150 - j) for j in range(k + 1, 151))  # noqa: E731
    assert tail(c) <= 1e-6 < tail(c - 1)
