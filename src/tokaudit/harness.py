"""Configuration, prompt corpora, replication orchestration, and file export.

Everything is deterministic: a config plus a master seed fully determines
every output byte. Replication r draws from the stream spawned at key r;
the calibration draw, when configured, uses a reserved stream so adding or
removing replications never shifts it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from itertools import accumulate, islice, repeat
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


def _read_json(path, what: str):
    """Decode a UTF-8 JSON file; what names the file in the read error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise InputError(f"cannot read {what} {path}: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise InputError(f"{path}: not valid JSON ({err})") from err


def load_vocabulary(path) -> Vocabulary:
    """JSON file with a "tokens" list; ids follow list order, EOS appended."""
    data = _read_json(path, "vocabulary")
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
        # np.random.SeedSequence takes nonnegative entropy only
        if self.master_seed < 0:
            raise DomainError(f"master_seed must be nonnegative, not {self.master_seed}")
        if self.schedule is None and self.holdout is None:
            raise DomainError("calibration requested but no holdout corpus configured")
        if self.holdout is not None:
            overlap = set(self.corpus.prompts) & set(self.holdout.prompts)
            if overlap:
                raise DomainError(
                    f"audit and holdout corpora overlap: {sorted(overlap)[:3]}..."
                )


# config file schema, version 1: section -> key -> (type, default). The
# "config" section holds the top-level keys; the others are the JSON objects
# of the same name. A key not listed here is an error at every level. Values
# are checked, never coerced (see _JSON_TYPES). Path values resolve relative
# to the config file's directory; value ranges are checked by the objects the
# sections build, and load_config names the file in their errors.
REQUIRED = object()
CONFIG_SCHEMA = {
    "config": {
        "alpha": (float, 0.05),
        "max_steps": (int, 100),
        "replications": (int, 150),
        "master_seed": (int, REQUIRED),
        "corpus": (Path, REQUIRED),
        "out_dir": (str, None),
    },
    "model": {
        "seed": (int, REQUIRED),
        "vocab": (Path, REQUIRED),
        "context_window": (int, 2),
        "temperature": (float, 1.0),
        "eos_boost": (float, 0.35),
        "max_len": (int, 16),
    },
    "policy": {"kind": (str, "faithful"), "m": (int, 0), "p": (float, None)},
    # the whole section may instead be the string "calibrate", the default
    "schedule": {"kind": (str, "constant"), "lambda0": (float, REQUIRED)},
    "calibration": {
        "corpus": (Path, None),
        "n_holdout": (int, 400),
        "safety": (float, 0.9),
        "cap": (float, 1.0),
    },
    "truncation": {"kind": (str, "poisson"), "param": (float, 7.0)},
}

# schema type -> (JSON value types it accepts, their name); a bool is never
# a number, and an int key takes no float, however round
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    Path: ((str,), "a string"),
}

# flat override key -> (section, key), applied in this order: a schedule
# override lands before a lambda0 override
OVERRIDES = {
    "policy": ("policy", "kind"),
    "m": ("policy", "m"),
    "p": ("policy", "p"),
    "schedule": ("schedule", "kind"),
    "lambda0": ("schedule", "lambda0"),
    **{
        key: ("config", key)
        for key in ("alpha", "max_steps", "replications", "master_seed", "out_dir")
    },
}


def _section(raw, name: str, path: Path, base: Path) -> dict:
    """Check one section against CONFIG_SCHEMA and return its typed values."""
    if not isinstance(raw, dict):
        raise InputError(f"{path}: {name} must be a JSON object")
    schema = CONFIG_SCHEMA[name]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise InputError(f"{path}: unknown keys {unknown} in {name}")
    out = {}
    for key, (typ, default) in schema.items():
        value = raw.get(key, default)
        if value is REQUIRED:
            raise InputError(f"{path}: missing required key {key!r} in {name}")
        # null passes through only where null is the default
        if value is not None or default is not None:
            accepted, what = _JSON_TYPES[typ]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise InputError(f"{path}: {key!r} in {name} must be {what}, not {value!r}")
            value = base / value if typ is Path else typ(value)
            if typ is float and not math.isfinite(value):
                raise InputError(f"{path}: {key!r} in {name} must be finite, not {value!r}")
        out[key] = value
    return out


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Parse a config file and apply flat override keys (see OVERRIDES) on top of it."""
    path = Path(path)
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise InputError(f"{path}: config must be a JSON object")
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(OVERRIDES))
    if unknown:
        raise InputError(f"unknown overrides {unknown}")
    raw = {name: cfg.get(name, {}) for name in CONFIG_SCHEMA}
    # the top-level keys, and a literal "config" key, which is unknown there
    raw["config"] = {k: v for k, v in cfg.items() if k == "config" or k not in CONFIG_SCHEMA}
    raw["schedule"] = cfg.get("schedule", "calibrate")
    base = path.parent

    def section(name):
        return _section(raw[name], name, path, base)

    try:
        for flat, (name, key) in OVERRIDES.items():
            if flat == "schedule" and overrides.get(flat) == "calibrate":
                raw[name] = "calibrate"
            elif flat in overrides:
                old = {} if raw[name] == "calibrate" else raw[name]
                raw[name] = {**old, key: overrides[flat]}
        model = section("model")
        policy = PolicySpec(**section("policy"))
        schedule = None
        if raw["schedule"] != "calibrate":
            schedule = LambdaSchedule(**section("schedule"))
        calib = section("calibration")
        top = section("config")
        return RunConfig(
            model=ModelSpec(**{**model, "vocab": load_vocabulary(model["vocab"])}),
            policy=policy,
            schedule=schedule,
            holdout=None if calib["corpus"] is None else load_corpus(calib["corpus"]),
            trunc=TruncationDist(**section("truncation")),
            n_holdout=calib["n_holdout"],
            safety=calib["safety"],
            lambda_cap=calib["cap"],
            **{**top, "corpus": load_corpus(top["corpus"])},
        )
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
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


_WILSON_Z = 1.959963984540054  # the standard normal's 97.5% quantile: 95% intervals


def wilson_interval(successes: int, n: int):
    """Wilson score interval at level 95% for a binomial proportion."""
    if n <= 0:
        raise DomainError("n must be positive")
    z = _WILSON_Z
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
# str for the integer columns and repr for the float ones, as csv.writer would
_TRAJECTORY_ROW = "%s,%s,%s,%r,%r,%r,%r,%r,%r,%s\n"


def write_trajectory_csv(fh, outcome: AuditOutcome):
    """Write the header and one row per step to the text stream fh.

    The rows zip the trajectory's typed columns with C-level maps over them,
    and are streamed, never joined into one string. The bytes are
    csv.writer's: no field holds a comma, a quote or a newline.
    """
    fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
    traj = outcome.trajectory

    def log_wealth():
        # left to right from 0.0, as a running sum; the leading 0.0 is dropped
        return islice(accumulate(map(math.log, traj.factor), initial=0.0), 1, None)

    flag_step = outcome.tau if outcome.flagged else None
    flagged = map({flag_step: "true"}.get, traj.step, repeat("false"))
    fh.writelines(map(_TRAJECTORY_ROW.__mod__, zip(
        traj.step, traj.prompt_id, traj.reported_len,
        traj.estimate, traj.evidence, traj.lam, traj.factor,
        log_wealth(), map(math.exp, log_wealth()), flagged,
    )))


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
            "policy": asdict(config.policy),
            "schedule": {"kind": summary.schedule_kind, "lambda0": summary.lam},
            "alpha": config.alpha,
            "truncation": asdict(config.trunc),
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
