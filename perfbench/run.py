"""tokaudit benchmark: one workload, rounds of fresh processes, one JSON line.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S --trace 0|1

Runs from the root of a checkout. Each round is a fresh single-threaded
process (perfbench/workload.py), so the model's process-wide caches start
cold in every round and no round warms another. Rounds repeat, one at a
time, until S seconds are measured to within half a round (round 1's
checks are not counted); every round uses the same seed, so they do the
same work and must give the same outputs. study_s is the mean over the rounds and evidence_per_s the
evidence of all rounds over their summed study time; every other metric is
the median over the rounds. The last line printed is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics (from spans) with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
ROUND_TIMEOUT_S = 150


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _round(workload: str, seed, trace: int, check: int, out: Path) -> dict:
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--trace", str(trace), "--check", str(check), "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {workload} round exited {proc.returncode} without a result")
    return json.loads(result_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="master seed; default: the shipped config's")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tokaudit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tokaudit sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # one untimed import first, so every timed round finds compiled bytecode
    subprocess.run([sys.executable, "-c", "import tokaudit"], cwd=ROOT, env=_child_env(),
                   check=True, timeout=ROUND_TIMEOUT_S)
    out = WORK / args.workload
    rounds = []
    spent = 0.0  # seconds measured so far; round 1's checks are not measurement
    while True:
        began = time.monotonic()
        rounds.append(_round(args.workload, args.seed, args.trace, int(not rounds), out / "round"))
        spent += time.monotonic() - began - rounds[-1].get("check_s", 0.0)
        # another round only while at least half a round of average length is left
        if spent + spent / len(rounds) / 2 > args.seconds:
            break

    # The first round's outputs are checked in full. Every later round does
    # the same work from the same seed, so its outputs must be the same bytes:
    # a round whose fingerprint differs counts all its operations as failed.
    first = rounds[0]
    attempted = first["attempted"] * len(rounds)
    failed = first["failed"]
    problems = list(first["problems"])
    for i, r in enumerate(rounds[1:], start=2):
        if r["fingerprint"] != first["fingerprint"]:
            failed += first["attempted"]
            problems.append(f"round {i}: outputs differ from round 1's with the same seed")
    if args.trace:
        values = {m["name"]: statistics.median(r["per_layer"][m["name"]] for r in rounds) for m in wanted}
    else:
        # The machine's speed drifts over tens of seconds, by about as much
        # as rounds differ from each other, so the mean over the whole run
        # varies less from run to run than the median of its few rounds.
        study_s = statistics.fmean(r["study_s"] for r in rounds)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "study_s": study_s,
            "evidence_per_s": first["evidence"] / study_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {first['seed']}  trace {args.trace}  rounds {len(rounds)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print(f"  {'(traced study_s)':40s} {statistics.median(r['study_s'] for r in rounds):>14.6g} s")
    verdicts = ", ".join(f"{k} {v}" for k, v in first["verdicts"].items()) or "none (no audits)"
    by_round = " ".join(f"{r['study_s']:.3f}" for r in rounds)
    print(f"  study_s by round: {by_round}")
    print(f"  check_s of round 1: {first['check_s']:.3f}")
    print(f"  evidence values per round: {first['evidence']}")
    print(f"  verdicts per round: {verdicts}")
    print(f"  operations: attempted {attempted}, failed {failed}")
    for p in problems:
        print(f"  FAILED: {p}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
