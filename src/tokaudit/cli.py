"""Command-line interface.

Subcommands: audit (one trajectory), replicate (a replication study),
calibrate (bet-size calibration report), oracle (exact references as JSON),
fpr (faithful-provider replicate preset), bound (detection-time bound from
oracle inputs). Exit status: 0 success, 1 config or input problem, 2
internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .audit import detection_time_bound, evidence_moments, run_audit
from .errors import (
    ConditionsViolated,
    InputError,
    InvariantViolation,
    TokenAuditError,
)
from .harness import (
    CALIBRATION_STREAM,
    OVERRIDES,
    RunConfig,
    calibrate,
    load_config,
    replication_rng,
    resolve_schedule,
    run_replications,
    write_trajectory_csv,
)
# conditional_expected_length is unused here, but perfbench/spans.py wraps
# cli.conditional_expected_length by attribute, so traced runs need it
from .oracle import (
    conditional_expected_length,
    conditional_expected_lengths,
    enumerate_output_distribution,
    exact_intensity,
    law_intensity,
)
from .policies import PolicySpec


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for internal
    # invariant violations, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a JSON run config")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--policy", choices=["faithful", "random", "heuristic"])
    sub.add_argument("--m", type=int, help="split budget for random/heuristic policies")
    sub.add_argument("--p", type=float, help="top-p level for the heuristic policy")
    sub.add_argument("--lambda", dest="lambda0", type=float, help="fixed bet size")
    sub.add_argument("--schedule", choices=["constant", "decreasing", "calibrate"])
    sub.add_argument("--max-steps", type=int)
    sub.add_argument("--replications", type=int)
    sub.add_argument(
        "--seed", dest="master_seed", type=int, help="master seed (beats TOKEN_AUDIT_SEED)"
    )
    sub.add_argument("--out", dest="out_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tokaudit",
        description="Audit a token-billed text provider for over-reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("audit", "run a single audit and print its trajectory"),
        ("replicate", "run independent audit replications and export results"),
        ("calibrate", "calibrate the bet size on the holdout corpus"),
        ("oracle", "emit exact per-prompt references as JSON"),
        ("fpr", "replicate preset with the policy forced to faithful"),
        ("bound", "detection-time bound from oracle-computed inputs"),
    ]:
        sp = sub.add_parser(name, help=doc)
        _add_common(sp)
        if name in ("oracle", "bound"):
            sp.add_argument(
                "--moments-n",
                type=int,
                default=2000,
                help="Monte Carlo draws for evidence moments",
            )
    return parser


def _overrides(args) -> dict:
    out = {}
    env_seed = os.environ.get("TOKEN_AUDIT_SEED")
    if env_seed is not None:
        try:
            out["master_seed"] = int(env_seed)
        except ValueError:
            raise InputError(f"TOKEN_AUDIT_SEED is not an integer: {env_seed!r}")
    # argparse dests are the override keys, so a flag given beats the env seed
    for key in OVERRIDES:
        val = getattr(args, key)
        if val is not None:
            out[key] = val
    return out


def _moments(config: RunConfig, n: int):
    """Evidence moments at the resolved bet size, on the stream below calibration's."""
    schedule, _ = resolve_schedule(config)
    rng = replication_rng(config.master_seed, CALIBRATION_STREAM - 1)
    return evidence_moments(
        config.policy, config.model, config.corpus, config.trunc, n, rng, schedule.lambda0
    )


def _cmd_audit(config: RunConfig) -> int:
    schedule, _ = resolve_schedule(config)
    rng = replication_rng(config.master_seed, 0)
    outcome = run_audit(
        config.model,
        config.policy,
        config.corpus,
        schedule,
        config.alpha,
        config.trunc,
        config.max_steps,
        rng,
    )
    write_trajectory_csv(sys.stdout, outcome)
    tau = outcome.tau if outcome.tau is not None else "censored"
    print(f"# flagged={str(outcome.flagged).lower()} tau={tau} "
          f"final_wealth={outcome.final_wealth!r}")
    if outcome.anomaly is not None:
        print(f"# anomaly at step {outcome.anomaly.step}: factor={outcome.anomaly.factor!r}")
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "trajectory_0.csv", "w", encoding="utf-8", newline="") as fh:
            write_trajectory_csv(fh, outcome)
    return 0


def _cmd_replicate(config: RunConfig) -> int:
    summary = run_replications(config)
    print(json.dumps(summary.aggregates(), indent=2, sort_keys=True))
    if summary.errors:
        for r, msg in summary.errors:
            print(f"replication {r} failed: {msg}", file=sys.stderr)
    return 0


def _cmd_calibrate(config: RunConfig) -> int:
    calib = calibrate(config)
    es = calib.evidences
    print(f"lambda_max = {calib.lam_max!r}")
    print(f"lambda = {calib.lam!r}")
    print(
        f"holdout evidence: n={len(es)} min={min(es)!r} "
        f"mean={calib.mean_evidence!r} max={max(es)!r}"
    )
    return 0


def _cmd_oracle(config: RunConfig, moments_n: int) -> int:
    report: dict = {"prompts": {}}
    intensity = 0.0
    for pid, prompt in enumerate(config.corpus):
        dist = enumerate_output_distribution(config.model, prompt)
        report["prompts"][str(pid)] = {
            "prompt": prompt,
            "support_size": len(dist.entries),
            "total_mass": dist.total_mass,
            "conditional_expected_length": conditional_expected_lengths(
                dist, config.model.vocab
            ),
        }
        # the same sum as exact_intensity, from the law walked above
        intensity += law_intensity(config.policy, config.model, prompt, dist)
    moments = _moments(config, moments_n)
    report["intensity"] = intensity / len(config.corpus)
    report["policy"] = asdict(config.policy)
    report["moments"] = asdict(moments)
    payload = json.dumps(report, indent=2, sort_keys=True)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "oracle.json").write_text(payload + "\n", encoding="utf-8")
        print(str(out / "oracle.json"))
    else:
        print(payload)
    return 0


def _cmd_fpr(config: RunConfig) -> int:
    return _cmd_replicate(replace(config, policy=PolicySpec.faithful()))


def _cmd_bound(config: RunConfig, moments_n: int) -> int:
    intensity = exact_intensity(config.policy, config.model, config.corpus)
    moments = _moments(config, moments_n)
    lam = moments.lambda0
    print(f"lambda0 = {lam!r}")
    print(f"intensity = {intensity!r}")
    print(f"var_e = {moments.variance!r}")
    print(f"b_minus = {moments.empirical_b_minus!r}")
    print(f"b_plus = {moments.empirical_b_plus!r}")
    if moments.empirical_b_minus <= 0:
        print("conditions violated: a sampled factor 1 + lambda0 * E is nonpositive")
        return 0
    try:
        value = detection_time_bound(
            lam,
            config.alpha,
            intensity,
            moments.variance,
            moments.empirical_b_minus,
            moments.empirical_b_plus,
        )
    except ConditionsViolated as err:
        print(f"conditions violated: {err}")
        return 0
    print(f"bound = {value!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args))
        if args.command == "audit":
            return _cmd_audit(config)
        if args.command == "replicate":
            return _cmd_replicate(config)
        if args.command == "calibrate":
            return _cmd_calibrate(config)
        if args.command == "oracle":
            return _cmd_oracle(config, args.moments_n)
        if args.command == "fpr":
            return _cmd_fpr(config)
        if args.command == "bound":
            return _cmd_bound(config, args.moments_n)
        raise InputError(f"unknown command {args.command!r}")
    except InvariantViolation as err:
        print(f"tokaudit: internal invariant violation: {err}", file=sys.stderr)
        return 2
    except (TokenAuditError, OSError) as err:
        print(f"tokaudit: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
