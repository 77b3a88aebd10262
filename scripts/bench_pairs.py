#!/usr/bin/env python3
"""Interleaved benchmark pairs of two checkouts, written to BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --label L --pairs N
        [--workload NAME[:PAIRS[:SEED]] ...] [--traced NAME] [--append]

For each workload (default: every workload in the parent's BENCHMARK.json)
it runs `python3 perfbench/run.py --workload NAME --seconds S --trace 0` from
the root of each checkout, with S the benchmark's run_seconds (from the
parent's BENCHMARK.json), PAIRS times each (default N), alternating which
side runs first: the parent in odd pairs, the change in even pairs. A run's
metrics are the JSON object on its last printed line; its fingerprint is
read from the last round's .perfbench/NAME/round/result.json. --traced adds
one pair with --trace 1 on that workload, and --append adds the new pairs
to the runs already in BENCH_<label>.json, which is written in the change
checkout. The benchmark itself is only run, never imported, so both sides
measure with their own copy of it.

The output has, per workload and end-to-end metric, each side's median and
quartiles, the change/parent ratio of the medians and the number of pairs
the change won; every run is listed under "runs". If any run exited nonzero,
read correct: false or had failed operations, the script names each such
run on stderr and exits 1, after writing the file; it does the same for each
workload on which the runs' fingerprints, or oracle.json sha256s, differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

RUN_TIMEOUT_S = 900


def _run(checkout: Path, workload: str, seed, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    out = {"exit": proc.returncode}
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return out
    last = json.loads(lines[-1])
    out.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    out.update({name: round(m["value"], 4) for name, m in last["metrics"].items()})
    for line in lines:
        if line.strip().startswith("study_s by round:"):
            out["study_s_by_round"] = [float(v) for v in line.split(":", 1)[1].split()]
    round_dir = checkout / ".perfbench" / workload / "round"
    out["fingerprint"] = json.loads((round_dir / "result.json").read_text(encoding="utf-8"))["fingerprint"][:8]
    oracle_json = round_dir / "export" / "oracle.json"
    if oracle_json.is_file():
        out["oracle_json_sha256"] = hashlib.sha256(oracle_json.read_bytes()).hexdigest()
    return out


def _pairs(checkouts: dict, workload: str, seed, pairs: int, seconds: float, trace: int, done: list):
    """Run the pairs, numbered after those in done; the parent runs first in odd pairs."""
    seed_key = "shipped" if seed is None else seed
    first = 1 + max((r["pair"] for r in done
                     if (r["workload"], r["seed"], r["trace"]) == (workload, seed_key, trace)), default=0)
    runs = []
    for pair in range(first, first + pairs):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for i, side in enumerate(order):
            result = _run(checkouts[side], workload, seed, seconds, trace)
            run = {"workload": workload, "seed": seed_key, "trace": trace,
                   "pair": pair, "side": side, "ran_first": i == 0, **result}
            sys.stderr.write(f"{workload} seed {run['seed']} trace {trace} pair {pair} {side}: "
                             f"{ {k: v for k, v in result.items() if k != 'study_s_by_round'} }\n")
            runs.append(run)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def _label(run) -> str:
    return run["workload"] if run["seed"] == "shipped" else f"{run['workload']} --seed {run['seed']}"


def summarize(runs, metrics) -> dict:
    """Per workload and metric: each side's median and quartiles, ratio and pairs won."""
    out = {}
    for label in dict.fromkeys(_label(r) for r in runs if r["trace"] == 0):
        mine = [r for r in runs if _label(r) == label and r["trace"] == 0]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        rows = {}
        for m in metrics:
            name = m["name"]
            both = [p for p in by_pair.values()
                    if all(name in p.get(side, {}) for side in ("parent", "change"))]
            if not both:
                continue
            parent = [p["parent"][name] for p in both]
            change = [p["change"][name] for p in both]
            sign = 1 if m["better"] == "higher" else -1
            won = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in both)
            pm, cm = statistics.median(parent), statistics.median(change)
            rows[name] = {
                "parent_median": round(pm, 4),
                "change_median": round(cm, 4),
                "change_over_parent": round(cm / pm, 3) if pm else None,
                "parent_quartiles": _quartiles(parent),
                "change_quartiles": _quartiles(change),
                "change_better_pairs": f"{won} of {len(both)}",
            }
        out[label] = rows
    return out


def _agreed(runs, key):
    """Per workload and seed, the one value every run gave, else each side's values."""
    out = {}
    for label in dict.fromkeys(map(_label, runs)):
        seen = {(r["side"], r[key]) for r in runs if _label(r) == label and key in r}
        values = {v for _, v in seen}
        if len(values) == 1:
            out[label] = values.pop()
        elif values:
            out[label] = {side: sorted(v for s, v in seen if s == side) for side in ("parent", "change")}
    return out


def bad_runs(runs) -> list:
    """The runs that exited nonzero, read correct: false or had failed operations."""
    return [r for r in runs if r["exit"] != 0 or r.get("correct") is not True or r.get("failed")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, required=True, help="pairs per workload, unless given there")
    ap.add_argument("--workload", action="append", default=[],
                    help="NAME, NAME:PAIRS or NAME:PAIRS:SEED; repeatable; default every workload")
    ap.add_argument("--traced", action="append", default=[], help="one traced pair on this workload")
    ap.add_argument("--what", default="", help="what the two sides are")
    ap.add_argument("--append", action="store_true",
                    help="keep the runs already in BENCH_<label>.json and number the new pairs after them")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    plan = []
    for item in args.workload or [w["name"] for w in spec["workloads"]]:
        name, *rest = item.split(":")
        pairs = int(rest[0]) if rest else args.pairs
        seed = int(rest[1]) if len(rest) > 1 else None
        plan.append((name, seed, pairs))

    out = checkouts["change"] / f"BENCH_{args.label}.json"
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"] if args.append else []
    for name, seed, pairs in plan:
        runs += _pairs(checkouts, name, seed, pairs, seconds, 0, runs)
    for name in args.traced:
        runs += _pairs(checkouts, name, None, 1, seconds, 1, runs)
    wanted = [m["name"] for m in spec["per_layer"]]
    traced = {}  # the last traced pair of each workload
    for r in runs:
        if r["trace"] == 1:
            traced.setdefault(f"traced_pair_{r['workload'].replace('-', '_')}", {})[r["side"]] = {
                k: r[k] for k in wanted if k in r
            }

    outputs = {key: _agreed(runs, key) for key in ("fingerprint", "oracle_json_sha256")}
    report = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seconds {seconds:g} --trace 0 "
                   "(traced pairs: --trace 1), run from the root of each checkout "
                   f"by scripts/bench_pairs.py",
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "order": "pairs alternate which side runs first: the parent runs first in odd pairs "
                 "and the change in even pairs, on every workload and seed",
        "fingerprints": outputs["fingerprint"],
        "oracle_json_sha256": outputs["oracle_json_sha256"].get("oracle-exact"),
        "end_to_end_medians": summarize(runs, spec["end_to_end"]),
        **traced,
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report["end_to_end_medians"], indent=1))
    bad = bad_runs(runs)
    for r in bad:
        sys.stderr.write(f"bad run: {_label(r)} trace {r['trace']} pair {r['pair']} {r['side']}: "
                         f"exit {r['exit']}, correct {r.get('correct')}, failed {r.get('failed')}\n")
    split = [(label, key, values) for key, agreed in outputs.items()
             for label, values in agreed.items() if isinstance(values, dict)]
    for label, key, values in split:
        sys.stderr.write(f"outputs differ: {label} {key}: {values}\n")
    return 1 if bad or split else 0


if __name__ == "__main__":
    sys.exit(main())
