"""Configuration, prompt corpora, replication orchestration, and file export.

Everything is deterministic: a config plus a master seed fully determines
every output byte. Replication r draws from the stream spawned at key r;
the calibration draw, when configured, uses a reserved stream so adding or
removing replications never shifts it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .audit import (
    AuditOutcome,
    CalibrationResult,
    LambdaSchedule,
    calibration_report,
    run_audit,
)
from .errors import DomainError, InputError
from .estimator import TruncationDist
from .policies import PolicySpec
from .tokenspace import Vocabulary
from .toymodel import ModelSpec

# spawn key reserved for the calibration stream; replication indexes stay
# far below this
CALIBRATION_STREAM = 2**32 - 1


@dataclass(frozen=True)
class PromptCorpus:
    prompts: tuple
    digest: str

    def __post_init__(self):
        if not self.prompts:
            raise DomainError("a corpus must contain at least one prompt")

    @classmethod
    def from_lines(cls, lines) -> "PromptCorpus":
        prompts = tuple(ln for ln in lines if ln.strip())
        digest = hashlib.sha256("\n".join(prompts).encode("utf-8")).hexdigest()
        return cls(prompts=prompts, digest=digest)

    def __len__(self) -> int:
        return len(self.prompts)

    def __getitem__(self, i):
        return self.prompts[i]

    def __iter__(self):
        return iter(self.prompts)


def load_corpus(path) -> PromptCorpus:
    """One prompt per line, UTF-8; blank lines skipped, ids follow order."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise InputError(f"cannot read corpus {path}: {err}") from err
    prompts = []
    for lineno, bline in enumerate(raw.split(b"\n"), start=1):
        try:
            line = bline.decode("utf-8").strip()
        except UnicodeDecodeError as err:
            raise InputError(f"{path}:{lineno}: not valid UTF-8 ({err})") from err
        if line:
            prompts.append(line)
    if not prompts:
        raise InputError(f"{path}: corpus has no prompts")
    return PromptCorpus.from_lines(prompts)


def load_vocabulary(path) -> Vocabulary:
    """JSON file with a "tokens" list; ids follow list order, EOS appended."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise InputError(f"cannot read vocabulary {path}: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise InputError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(data, dict) or "tokens" not in data:
        raise InputError(f'{path}: expected an object with a "tokens" list')
    tokens = data["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise InputError(f'{path}: "tokens" must be a list of strings')
    try:
        return Vocabulary.from_tokens(tokens)
    except DomainError as err:
        raise InputError(f"{path}: {err}") from err


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    policy: PolicySpec
    alpha: float
    trunc: TruncationDist
    max_steps: int
    replications: int
    master_seed: int
    corpus: PromptCorpus
    schedule: Optional[LambdaSchedule]  # None means: calibrate first
    holdout: Optional[PromptCorpus] = None
    n_holdout: int = 400
    safety: float = 0.9
    lambda_cap: float = 1.0
    out_dir: Optional[str] = None

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise DomainError("alpha must lie in (0, 1)")
        if self.max_steps < 1:
            raise DomainError("max_steps must be at least 1")
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        if self.schedule is None and self.holdout is None:
            raise DomainError("calibration requested but no holdout corpus configured")
        if self.holdout is not None:
            overlap = set(self.corpus.prompts) & set(self.holdout.prompts)
            if overlap:
                raise DomainError(
                    f"audit and holdout corpora overlap: {sorted(overlap)[:3]}..."
                )


# config file schema, version 1: a JSON object with these keys and no
# others. Paths are resolved relative to the config file's directory.
CONFIG_SCHEMA = {
    "model": {
        "seed": "int, required",
        "vocab": "path to a vocabulary JSON, required",
        "context_window": "int >= 0, default 2",
        "temperature": "float > 0, default 1.0",
        "eos_boost": "float >= 0, default 0.35",
        "max_len": "int >= 1, default 16",
    },
    "policy": {"kind": "faithful | random | heuristic", "m": "int >= 0", "p": "(0, 1)"},
    "schedule": 'either {"kind": "constant" | "decreasing", "lambda0": float} or "calibrate"',
    "calibration": {
        "corpus": "path to the holdout prompts",
        "n_holdout": "int >= 1, default 400",
        "safety": "(0, 1], default 0.9",
        "cap": "float > 0, default 1.0",
    },
    "alpha": "float in (0, 1), default 0.05",
    "truncation": {"kind": "poisson | geometric | deterministic", "param": "float, default poisson 7.0"},
    "max_steps": "int >= 1, default 100",
    "replications": "int >= 1, default 150",
    "master_seed": "int, required (env TOKEN_AUDIT_SEED and --seed override)",
    "corpus": "path to the audit prompts, required",
    "out_dir": "directory for trajectory CSVs and summary JSON, optional",
}


def _require(cfg: dict, key: str, path):
    if key not in cfg:
        raise InputError(f"{path}: missing required config key {key!r}")
    return cfg[key]


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Parse a config file and apply flat override keys on top of it."""
    path = Path(path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise InputError(f"cannot read config {path}: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise InputError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(cfg, dict):
        raise InputError(f"{path}: config must be a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_SCHEMA))
    if unknown:
        raise InputError(f"{path}: unknown config keys {unknown}")
    overrides = dict(overrides or {})
    base = path.parent

    def respath(p):
        p = Path(p)
        return p if p.is_absolute() else base / p

    try:
        mraw = _require(cfg, "model", path)
        model = ModelSpec(
            seed=int(_require(mraw, "seed", path)),
            vocab=load_vocabulary(respath(_require(mraw, "vocab", path))),
            context_window=int(mraw.get("context_window", 2)),
            temperature=float(mraw.get("temperature", 1.0)),
            eos_boost=float(mraw.get("eos_boost", 0.35)),
            max_len=int(mraw.get("max_len", 16)),
        )

        praw = dict(cfg.get("policy", {"kind": "faithful"}))
        if "policy" in overrides:
            praw["kind"] = overrides["policy"]
        if "m" in overrides:
            praw["m"] = overrides["m"]
        if "p" in overrides:
            praw["p"] = overrides["p"]
        policy = PolicySpec(
            kind=praw.get("kind", "faithful"),
            m=int(praw.get("m", 0)),
            p=float(praw["p"]) if praw.get("p") is not None else None,
        )

        sraw = cfg.get("schedule", "calibrate")
        if "schedule" in overrides:
            kind = overrides["schedule"]
            sraw = "calibrate" if kind == "calibrate" else {
                "kind": kind,
                "lambda0": (sraw or {}).get("lambda0") if isinstance(sraw, dict) else None,
            }
        if "lambda0" in overrides:
            if sraw == "calibrate" or not isinstance(sraw, dict):
                sraw = {"kind": "constant"}
            sraw = {**sraw, "lambda0": overrides["lambda0"]}
        if sraw == "calibrate":
            schedule = None
        elif isinstance(sraw, dict):
            if sraw.get("lambda0") is None:
                raise InputError(f"{path}: schedule needs a lambda0")
            schedule = LambdaSchedule(
                kind=sraw.get("kind", "constant"), lambda0=float(sraw["lambda0"])
            )
        else:
            raise InputError(f"{path}: schedule must be an object or \"calibrate\"")

        craw = cfg.get("calibration", {})
        holdout = None
        if craw.get("corpus"):
            holdout = load_corpus(respath(craw["corpus"]))

        traw = cfg.get("truncation", {"kind": "poisson", "param": 7.0})
        trunc = TruncationDist(kind=traw.get("kind", "poisson"), param=float(traw.get("param", 7.0)))

        seed = int(cfg.get("master_seed", _require(cfg, "master_seed", path)))
        if "master_seed" in overrides:
            seed = int(overrides["master_seed"])

        out_dir = overrides.get("out_dir", cfg.get("out_dir"))
        return RunConfig(
            model=model,
            policy=policy,
            alpha=float(overrides.get("alpha", cfg.get("alpha", 0.05))),
            trunc=trunc,
            max_steps=int(overrides.get("max_steps", cfg.get("max_steps", 100))),
            replications=int(overrides.get("replications", cfg.get("replications", 150))),
            master_seed=seed,
            corpus=load_corpus(respath(_require(cfg, "corpus", path))),
            schedule=schedule,
            holdout=holdout,
            n_holdout=int(craw.get("n_holdout", 400)),
            safety=float(craw.get("safety", 0.9)),
            lambda_cap=float(craw.get("cap", 1.0)),
            out_dir=str(out_dir) if out_dir is not None else None,
        )
    except (TypeError, ValueError) as err:
        if isinstance(err, InputError) or isinstance(err, DomainError):
            raise
        raise InputError(f"{path}: bad config value ({err})") from err


def replication_rng(master_seed: int, r: int):
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(r,)))


@dataclass(frozen=True)
class ReplicationSummary:
    """Outcomes by replication index plus the bet size actually used."""

    outcomes: tuple  # Optional[AuditOutcome] per replication
    errors: tuple  # (replication index, message) pairs
    lam: float
    schedule_kind: str
    alpha: float
    max_steps: int
    calibration: Optional[CalibrationResult] = None

    def completed(self):
        return [o for o in self.outcomes if o is not None]

    def flag_count(self) -> int:
        return sum(1 for o in self.completed() if o.flagged)

    def taus(self):
        return [o.tau for o in self.completed() if o.flagged]

    def aggregates(self) -> dict:
        done = self.completed()
        n = len(done)
        flags = self.flag_count()
        lo, hi = wilson_interval(flags, n) if n else (0.0, 1.0)
        taus = sorted(self.taus())
        if taus:
            qs = np.quantile(taus, [0.25, 0.5, 0.75]).tolist()
            tau_quantiles = {"q25": qs[0], "q50": qs[1], "q75": qs[2]}
        else:
            tau_quantiles = None
        return {
            "replications": len(self.outcomes),
            "completed": n,
            "flag_count": flags,
            "flag_rate": flags / n if n else None,
            "flag_rate_ci95": [lo, hi],
            "tau_quantiles": tau_quantiles,
            "censored": sum(1 for o in done if not o.flagged and o.anomaly is None),
            "anomalies": sum(1 for o in done if o.anomaly is not None),
            "lambda": self.lam,
            "alpha": self.alpha,
            "max_steps": self.max_steps,
        }


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise DomainError("n must be positive")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def calibrate(config: RunConfig) -> CalibrationResult:
    """Holdout calibration on the reserved calibration stream."""
    if config.holdout is None:
        raise InputError("calibrate needs a calibration corpus in the config")
    return calibration_report(
        config.model,
        config.holdout,
        config.trunc,
        config.n_holdout,
        config.safety,
        config.lambda_cap,
        replication_rng(config.master_seed, CALIBRATION_STREAM),
    )


def resolve_schedule(config: RunConfig):
    """Return (schedule, calibration or None), calibrating when configured."""
    if config.schedule is not None:
        return config.schedule, None
    calibration = calibrate(config)
    return LambdaSchedule.constant(calibration.lam), calibration


def run_replications(config: RunConfig) -> ReplicationSummary:
    """Run the configured number of independent audits and export results."""
    schedule, calibration = resolve_schedule(config)
    outcomes: list = []
    errors: list = []
    for r in range(config.replications):
        rng = replication_rng(config.master_seed, r)
        try:
            outcomes.append(
                run_audit(
                    config.model,
                    config.policy,
                    config.corpus,
                    schedule,
                    config.alpha,
                    config.trunc,
                    config.max_steps,
                    rng,
                )
            )
        except Exception as err:  # recorded, surfaced in the summary
            outcomes.append(None)
            errors.append((r, f"{type(err).__name__}: {err}"))
    summary = ReplicationSummary(
        outcomes=tuple(outcomes),
        errors=tuple(errors),
        lam=schedule.lambda0,
        schedule_kind=schedule.kind,
        alpha=config.alpha,
        max_steps=config.max_steps,
        calibration=calibration,
    )
    if config.out_dir is not None:
        write_outputs(config, summary)
    return summary


TRAJECTORY_COLUMNS = [
    "step",
    "prompt_id",
    "reported_len",
    "estimate",
    "evidence",
    "lambda",
    "factor",
    "log_wealth",
    "wealth",
    "flagged",
]


def write_trajectory_csv(fh, outcome: AuditOutcome):
    """Write the header and one row per step to the text stream fh."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS)
    log_w = 0.0
    for rec in outcome.trajectory:
        log_w += math.log(rec.factor)
        writer.writerow(
            [
                rec.step,
                rec.prompt_id,
                rec.reported_len,
                repr(rec.estimate),
                repr(rec.evidence),
                repr(rec.lam),
                repr(rec.factor),
                repr(log_w),
                repr(math.exp(log_w)),
                "true" if outcome.flagged and rec.step == outcome.tau else "false",
            ]
        )


def _outcome_row(outcome: Optional[AuditOutcome]) -> Optional[dict]:
    if outcome is None:
        return None
    anomaly = None
    if outcome.anomaly is not None:
        anomaly = {
            "step": outcome.anomaly.step,
            "evidence": outcome.anomaly.evidence,
            "lambda": outcome.anomaly.lam,
            "factor": outcome.anomaly.factor,
        }
    return {
        "flagged": outcome.flagged,
        "tau": outcome.tau,
        "final_log_wealth": outcome.final_log_wealth,
        "final_wealth": outcome.final_wealth,
        "anomaly": anomaly,
    }


def summary_dict(config: RunConfig, summary: ReplicationSummary) -> dict:
    calib = None
    if summary.calibration is not None:
        c = summary.calibration
        calib = {
            "lambda": c.lam,
            "lambda_max": c.lam_max,
            "safety": c.safety,
            "cap": c.cap,
            "n_holdout": len(c.evidences),
            "min_evidence": c.min_evidence,
            "mean_evidence": c.mean_evidence,
        }
    return {
        "config": {
            "model": {
                "seed": config.model.seed,
                "tokens": list(
                    s for t, s in enumerate(config.model.vocab.strings)
                    if t != config.model.vocab.eos_id
                ),
                "context_window": config.model.context_window,
                "temperature": config.model.temperature,
                "eos_boost": config.model.eos_boost,
                "max_len": config.model.max_len,
            },
            "policy": {"kind": config.policy.kind, "m": config.policy.m, "p": config.policy.p},
            "schedule": {"kind": summary.schedule_kind, "lambda0": summary.lam},
            "alpha": config.alpha,
            "truncation": {"kind": config.trunc.kind, "param": config.trunc.param},
            "max_steps": config.max_steps,
            "replications": config.replications,
            "master_seed": config.master_seed,
            "corpus_digest": config.corpus.digest,
            "holdout_digest": config.holdout.digest if config.holdout else None,
        },
        "calibration": calib,
        "replications": [_outcome_row(o) for o in summary.outcomes],
        "errors": [{"replication": r, "message": msg} for r, msg in summary.errors],
        "aggregates": summary.aggregates(),
    }


def write_outputs(config: RunConfig, summary: ReplicationSummary):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for r, outcome in enumerate(summary.outcomes):
        if outcome is not None:
            with open(out / f"trajectory_{r}.csv", "w", encoding="utf-8", newline="") as fh:
                write_trajectory_csv(fh, outcome)
    payload = json.dumps(summary_dict(config, summary), indent=2, sort_keys=True)
    (out / "summary.json").write_text(payload + "\n", encoding="utf-8")
