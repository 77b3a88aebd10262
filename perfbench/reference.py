"""Reference computations the benchmark checks the program's outputs against.

Everything here is written apart from the program: it reads only the
model's next-token log probabilities and the vocabulary's token strings,
and recomputes the quantities the program reports by other routes.
"""

from __future__ import annotations

import csv
import math


class StepTable:
    """Next-token log probabilities of one (model, prompt), memoised by state.

    The toy model conditions on the prefix length and the last
    `context_window` ids only, so that pair is the memo key; the value is
    read through `next_token_log_probs` with the first prefix seen for it.
    """

    def __init__(self, spec, prompt, next_token_log_probs):
        self.spec = spec
        self.prompt = prompt
        self._logp = next_token_log_probs
        self._memo = {}

    def __call__(self, prefix):
        cw = self.spec.context_window
        k = len(prefix), (tuple(prefix[-cw:]) if cw else ())
        row = self._memo.get(k)
        if row is None:
            row = [float(x) for x in self._logp(self.spec, self.prompt, tuple(prefix))]
            self._memo[k] = row
        return row


def _logaddexp(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def lattice_expected_length(table: StepTable, target: str) -> float:
    """Exact E[number of tokens | the output spells target] by a forward pass.

    Nodes are (characters consumed, tokens emitted, context ids); every path
    into a node has the same length, so the forward log mass of the nodes
    that have consumed the whole target, times P(EOS) there, gives both the
    normaliser and the length-weighted sum.
    """
    spec = table.spec
    strings = spec.vocab.strings
    eos = spec.vocab.eos_id
    cw = spec.context_window
    ids = [t for t in range(len(strings)) if t != eos]
    n = len(target)
    # layer by tokens emitted: node key -> [log mass, representative prefix]
    layer = {(0, ()): [0.0, ()]}
    log_z = -math.inf
    log_num = -math.inf
    for plen in range(spec.max_len + 1):
        nxt: dict = {}
        for (consumed, ctx), (mass, prefix) in layer.items():
            logp = table(prefix)
            if consumed == n:
                end = mass + logp[eos]
                log_z = _logaddexp(log_z, end)
                if plen > 0:
                    log_num = _logaddexp(log_num, end + math.log(plen))
                continue
            for t in ids:
                s = strings[t]
                if logp[t] == -math.inf or not target.startswith(s, consumed):
                    continue
                child_prefix = prefix + (t,)
                key = (consumed + len(s), child_prefix[-cw:] if cw else ())
                slot = nxt.get(key)
                if slot is None:
                    nxt[key] = [mass + logp[t], child_prefix]
                else:
                    slot[0] = _logaddexp(slot[0], mass + logp[t])
        layer = nxt
    if log_z == -math.inf:
        raise ValueError(f"target {target!r} has no tokenization within max_len")
    return math.exp(log_num - log_z) if log_num > -math.inf else 0.0


def output_law(table: StepTable):
    """Every sequence the model can emit for the prompt, with its probability."""
    spec = table.spec
    eos = spec.vocab.eos_id
    ids = [t for t in range(spec.vocab.size) if t != eos]
    out = []
    stack = [((), 0.0)]
    while stack:
        prefix, lp = stack.pop()
        logp = table(prefix)
        out.append((prefix, math.exp(lp + logp[eos])))
        if len(prefix) < spec.max_len:
            stack.extend((prefix + (t,), lp + logp[t]) for t in ids)
    return out


def random_split_extra(seq, m: int, strings) -> float:
    """Expected number of splits the random policy applies to seq.

    Each round picks uniformly among every (position, left, right) split
    whose two token strings concatenate to the token at that position, and
    stops early when there is none.
    """
    by_string = {s: t for t, s in enumerate(strings) if s}
    pairs = {}
    for t, s in enumerate(strings):
        pairs[t] = [
            (by_string[s[:c]], by_string[s[c:]])
            for c in range(1, len(s))
            if s[:c] in by_string and s[c:] in by_string
        ]
    memo = {}

    def rec(cur, left):
        if left == 0:
            return 0.0
        if (cur, left) in memo:
            return memo[cur, left]
        moves = [(i, a, b) for i, t in enumerate(cur) for a, b in pairs[t]]
        if not moves:
            val = 0.0
        else:
            val = 1.0 + sum(
                rec(cur[:i] + (a, b) + cur[i + 1 :], left - 1) for i, a, b in moves
            ) / len(moves)
        memo[cur, left] = val
        return val

    return rec(tuple(seq), m)


def random_policy_intensity(tables, m: int) -> float:
    """Mean expected extra tokens per output of random(m) over the prompts."""
    per_prompt = []
    for table in tables:
        strings = table.spec.vocab.strings
        law = output_law(table)
        mass = math.fsum(p for _, p in law)
        per_prompt.append(
            math.fsum(p * random_split_extra(seq, m, strings) for seq, p in law) / mass
        )
    return sum(per_prompt) / len(per_prompt)


def binomial_upper(n: int, p: float, tail: float = 1e-6) -> int:
    """Smallest c with P(Binomial(n, p) > c) <= tail."""
    acc = 0.0
    for c in range(n + 1):
        acc += math.comb(n, c) * p**c * (1 - p) ** (n - c)
        if 1.0 - acc <= tail:
            return c
    return n


def mean_z(values, centre: float) -> float:
    """(mean - centre) / standard error of the mean."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return (mean - centre) / math.sqrt(var / n) if var > 0 else 0.0


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def check_outcome(outcome, lam_at, alpha: float, max_steps: int):
    """Problems with one in-memory audit outcome, as a list of strings.

    Recomputes every factor 1 + lambda_i * (reported - estimate) and the
    cumulative log wealth, and checks that the verdict follows from them.
    """
    problems = []
    threshold = math.log(1.0 / alpha)
    log_w = 0.0
    crossed_at = None
    for i, rec in enumerate(outcome.trajectory, start=1):
        e = rec.reported_len - rec.estimate
        lam = lam_at(i)
        if rec.step != i:
            problems.append(f"step {rec.step} where {i} was due")
            break
        if not (close(rec.lam, lam) and close(rec.evidence, e)):
            problems.append(f"step {i}: lambda or evidence does not match")
            break
        if not (close(rec.factor, 1.0 + lam * e) and rec.factor > 0):
            problems.append(f"step {i}: factor {rec.factor!r} != 1 + lambda * evidence")
            break
        log_w += math.log(rec.factor)
        if crossed_at is None and log_w > threshold:
            crossed_at = i
    n = len(outcome.trajectory)
    if not math.isclose(outcome.final_log_wealth, log_w, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"final log wealth {outcome.final_log_wealth!r} != {log_w!r}")
    if outcome.flagged != (crossed_at is not None) or (outcome.flagged and outcome.tau != n):
        problems.append(f"verdict flagged={outcome.flagged} tau={outcome.tau} "
                        f"but the wealth first crossed at {crossed_at}")
    a = outcome.anomaly
    if a is not None:
        if a.step != n + 1 or not (a.factor <= 0 and close(a.factor, 1.0 + lam_at(a.step) * a.evidence)):
            problems.append(f"anomaly at step {a.step} is not a nonpositive factor after step {n}")
    elif not outcome.flagged and n != max_steps:
        problems.append(f"censored after {n} of {max_steps} steps")
    return problems


TRAJECTORY_HEADER = [
    "step", "prompt_id", "reported_len", "estimate", "evidence",
    "lambda", "factor", "log_wealth", "wealth", "flagged",
]


def check_trajectory_csv(path, lam_at, alpha: float, rows_due: int):
    """(problems, evidence values) for one exported trajectory CSV.

    Reads the file back and checks, row by row, that the steps count up
    from 1, that lambda follows the schedule, that the factor is
    1 + lambda * (reported - estimate), and that log wealth and wealth
    follow the running product.
    """
    problems = []
    evidences = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRAJECTORY_HEADER:
        return [f"{path}: unexpected header"], evidences
    body = rows[1:]
    if len(body) != rows_due:
        problems.append(f"{path}: {len(body)} rows, {rows_due} due")
    log_w = 0.0
    threshold = math.log(1.0 / alpha)
    for i, row in enumerate(body, start=1):
        step, _, reported, est, e, lam, factor, lw, w, flagged = row
        e, lam, factor, lw, w = map(float, (e, lam, factor, lw, w))
        if int(step) != i:
            problems.append(f"{path}: row {i} holds step {step}")
            break
        if not (close(lam, lam_at(i)) and close(e, int(reported) - float(est))):
            problems.append(f"{path}: step {i}: lambda or evidence does not match")
            break
        if not (factor > 0 and close(factor, 1.0 + lam * e)):
            problems.append(f"{path}: step {i}: factor {factor!r} != 1 + lambda * evidence")
            break
        log_w += math.log(factor)
        if not (math.isclose(lw, log_w, rel_tol=1e-9, abs_tol=1e-9) and close(w, math.exp(lw), 1e-9)):
            problems.append(f"{path}: step {i}: log wealth {lw!r} != {log_w!r}")
            break
        if (flagged == "true") != (i == len(body) and log_w > threshold):
            problems.append(f"{path}: step {i}: flagged column is {flagged}")
            break
        evidences.append(e)
    return problems, evidences


def evidence_count(outcomes) -> int:
    """Audit steps, counting the anomaly step of an aborted audit."""
    return sum(len(o.trajectory) + (o.anomaly is not None) for o in outcomes)


def verdicts(outcomes) -> dict:
    out = {"flagged": 0, "censored": 0, "aborted": 0}
    for o in outcomes:
        out["flagged" if o.flagged else "aborted" if o.anomaly is not None else "censored"] += 1
    return out
