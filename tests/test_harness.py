"""Config loading, replication bookkeeping, and output determinism."""
import csv
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from tokaudit import (
    DomainError,
    InputError,
    LambdaSchedule,
    run_audit,
    ModelSpec,
    PolicySpec,
    PromptCorpus,
    RunConfig,
    TruncationDist,
    load_config,
    load_corpus,
    load_vocabulary,
    run_replications,
)
from tokaudit.harness import (
    CALIBRATION_STREAM,
    CONFIG_SCHEMA,
    TRAJECTORY_COLUMNS,
    replication_rng,
    summary_dict,
    wilson_interval,
    write_json,
    write_outputs,
    write_trajectory_csv,
)
from tokaudit.audit import AuditOutcome, EvidenceRecord


class TestPromptCorpus:
    def test_from_lines_skips_blanks(self):
        c = PromptCorpus.from_lines(["ab", "", "  ", "ba"])
        assert c.prompts == ("ab", "ba")
        assert len(c) == 2
        assert c[1] == "ba"
        assert list(c) == ["ab", "ba"]

    def test_digest_tracks_contents(self):
        a = PromptCorpus.from_lines(["ab", "ba"])
        b = PromptCorpus.from_lines(["ab", "ba"])
        c = PromptCorpus.from_lines(["ba", "ab"])
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            PromptCorpus.from_lines(["", "  "])


class TestLoaders:
    def test_load_corpus(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("ab\n\nba\n", encoding="utf-8")
        c = load_corpus(p)
        assert c.prompts == ("ab", "ba")

    def test_load_corpus_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_corpus(tmp_path / "nope.txt")

    def test_load_corpus_bad_utf8_reports_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"ab\n\xff\xfe\n")
        with pytest.raises(InputError) as exc:
            load_corpus(p)
        assert ":2:" in str(exc.value)

    def test_load_corpus_empty(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("\n\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_corpus(p)

    def test_load_vocabulary(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"tokens": ["a", "b", "ab"]}), encoding="utf-8")
        v = load_vocabulary(p)
        assert v.strings == ("a", "b", "ab", "")

    def test_load_vocabulary_bad_json(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputError):
            load_vocabulary(p)

    def test_load_vocabulary_wrong_shape(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps(["a", "b"]), encoding="utf-8")
        with pytest.raises(InputError):
            load_vocabulary(p)
        p.write_text(json.dumps({"tokens": [1, 2]}), encoding="utf-8")
        with pytest.raises(InputError):
            load_vocabulary(p)

    def test_load_vocabulary_domain_error_becomes_input_error(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"tokens": ["a", "a"]}), encoding="utf-8")
        with pytest.raises(InputError):
            load_vocabulary(p)


class TestRunConfigValidation:
    def _base(self, vocab_tiny, **kw):
        spec = ModelSpec(seed=1, vocab=vocab_tiny, max_len=6)
        defaults = dict(
            model=spec,
            policy=PolicySpec.faithful(),
            alpha=0.05,
            trunc=TruncationDist.poisson(4.0),
            max_steps=10,
            replications=2,
            master_seed=1,
            corpus=PromptCorpus.from_lines(["ab"]),
            schedule=LambdaSchedule.constant(0.1),
        )
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_ok(self, vocab_tiny):
        self._base(vocab_tiny)

    def test_alpha_range(self, vocab_tiny):
        with pytest.raises(DomainError):
            self._base(vocab_tiny, alpha=0.0)

    def test_calibration_needs_holdout(self, vocab_tiny):
        with pytest.raises(DomainError):
            self._base(vocab_tiny, schedule=None)

    def test_corpora_must_not_overlap(self, vocab_tiny):
        with pytest.raises(DomainError) as exc:
            self._base(
                vocab_tiny,
                holdout=PromptCorpus.from_lines(["ab", "ba"]),
            )
        assert "overlap" in str(exc.value)


def _certified_copy(configs_dir) -> dict:
    """certified.json as a dict, with its paths made absolute."""
    cfg = json.loads((configs_dir / "certified.json").read_text(encoding="utf-8"))
    cfg["model"]["vocab"] = str(configs_dir / cfg["model"]["vocab"])
    cfg["corpus"] = str(configs_dir / cfg["corpus"])
    return cfg


class TestLoadConfig:
    def test_parses_shipped_default(self, configs_dir):
        cfg = load_config(configs_dir / "default.json")
        assert cfg.policy.kind == "faithful"
        assert cfg.schedule is None  # calibrate
        assert cfg.holdout is not None
        assert cfg.alpha == 0.05
        assert cfg.trunc.kind == "poisson"
        assert cfg.replications == 150
        assert cfg.model.vocab.size == 10  # nine tokens plus EOS

    def test_parses_all_shipped_configs(self, configs_dir):
        for name in ("default", "detection", "heuristic", "certified", "oracle_tiny"):
            cfg = load_config(configs_dir / f"{name}.json")
            assert cfg.max_steps >= 1

    def test_overrides(self, configs_dir):
        cfg = load_config(
            configs_dir / "default.json",
            overrides={
                "policy": "random",
                "m": 2,
                "alpha": 0.01,
                "max_steps": 7,
                "replications": 3,
                "master_seed": 99,
                "lambda0": 0.25,
            },
        )
        assert cfg.policy.kind == "random"
        assert cfg.policy.m == 2
        assert cfg.alpha == 0.01
        assert cfg.max_steps == 7
        assert cfg.replications == 3
        assert cfg.master_seed == 99
        assert cfg.schedule == LambdaSchedule.constant(0.25)

    def test_schedule_override_to_calibrate(self, configs_dir):
        # default.json ships a holdout corpus, so calibrate mode is legal
        cfg = load_config(
            configs_dir / "default.json",
            overrides={"schedule": "calibrate"},
        )
        assert cfg.schedule is None
        # heuristic.json has no calibration corpus to fall back on
        with pytest.raises(DomainError):
            load_config(
                configs_dir / "heuristic.json", overrides={"schedule": "calibrate"}
            )

    def test_missing_key(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text(json.dumps({"model": {"seed": 1}}), encoding="utf-8")
        with pytest.raises(InputError):
            load_config(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(InputError):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "nope.json")

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, data_dir):
        # write a config in a scratch dir pointing at the shipped data with
        # absolute paths, then one with paths relative to that dir
        vocab = data_dir / "vocab_tiny.json"
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.txt").write_text("ab\n", encoding="utf-8")
        cfg_file = sub / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "model": {"seed": 1, "vocab": str(vocab), "max_len": 6},
                    "schedule": {"kind": "constant", "lambda0": 0.1},
                    "master_seed": 1,
                    "corpus": "c.txt",
                }
            ),
            encoding="utf-8",
        )
        cfg = load_config(cfg_file)
        assert cfg.corpus.prompts == ("ab",)

    def test_defaults_of_a_config_with_only_required_keys(self, tmp_path, data_dir):
        (tmp_path / "c.txt").write_text("ab\n", encoding="utf-8")
        (tmp_path / "h.txt").write_text("ba\n", encoding="utf-8")
        cfg_file = tmp_path / "cfg.json"
        # the calibration corpus is optional, but the default schedule needs it
        cfg_file.write_text(
            json.dumps(
                {
                    "model": {"seed": 1, "vocab": str(data_dir / "vocab_tiny.json")},
                    "calibration": {"corpus": "h.txt"},
                    "master_seed": 1,
                    "corpus": "c.txt",
                }
            ),
            encoding="utf-8",
        )
        cfg = load_config(cfg_file)
        m = cfg.model
        assert (m.eos_boost, m.max_len, m.context_window, m.temperature) == (0.35, 16, 2, 1.0)
        assert cfg.policy == PolicySpec("faithful", m=0)
        assert cfg.trunc == TruncationDist.poisson(7.0)
        assert (cfg.alpha, cfg.max_steps, cfg.replications) == (0.05, 100, 150)
        assert (cfg.n_holdout, cfg.safety, cfg.lambda_cap) == (400, 0.9, 1.0)
        assert cfg.schedule is None  # calibrate
        assert cfg.holdout.prompts == ("ba",)
        assert cfg.out_dir is None

    @pytest.mark.parametrize(
        "section, key",
        [
            ("schedule", "lamda0"),
            ("model", "max_length"),
            ("policy", "q"),
            ("calibration", "holdout"),
            ("truncation", "rate"),
        ],
    )
    def test_unknown_nested_key_rejected(self, configs_dir, tmp_path, section, key):
        # a copy of certified.json with one misspelled key inside a section
        cfg = _certified_copy(configs_dir)
        cfg.setdefault(section, {})[key] = 0.5
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(InputError) as exc:
            load_config(p)
        assert str(exc.value).endswith(f"unknown keys {[key]} in {section}")

    @pytest.mark.parametrize(
        "section, key, value, what",
        [
            ("config", "max_steps", 2.5, "an integer"),
            ("model", "max_len", 4.9, "an integer"),
            ("config", "replications", True, "an integer"),
            ("config", "master_seed", "7", "an integer"),
            ("schedule", "lambda0", True, "a number"),
            ("schedule", "lambda0", "0.03", "a number"),
            ("truncation", "param", None, "a number"),
            ("policy", "kind", 1, "a string"),
            ("config", "corpus", 3, "a string"),
        ],
    )
    def test_values_are_checked_not_coerced(
        self, configs_dir, tmp_path, section, key, value, what
    ):
        # a copy of certified.json with one value of the wrong JSON type
        cfg = _certified_copy(configs_dir)
        if section == "config":
            cfg[key] = value
        else:
            cfg.setdefault(section, {})[key] = value
        p = tmp_path / "typed.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(InputError) as exc:
            load_config(p)
        assert str(exc.value).endswith(f"{key!r} in {section} must be {what}, not {value!r}")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("truncation", "param", math.inf),
            ("model", "eos_boost", math.inf),
            ("model", "temperature", math.nan),
            ("calibration", "cap", math.inf),
            ("config", "alpha", -math.inf),
        ],
    )
    def test_non_finite_numbers_rejected(self, configs_dir, tmp_path, section, key, value):
        # JSON's Infinity and NaN literals parse to floats; no float key takes one
        cfg = _certified_copy(configs_dir)
        if section == "config":
            cfg[key] = value
        else:
            cfg.setdefault(section, {})[key] = value
        p = tmp_path / "nonfinite.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(InputError) as exc:
            load_config(p)
        assert str(exc.value).endswith(f"{key!r} in {section} must be finite, not {value!r}")

    def test_non_finite_override_rejected(self, configs_dir):
        with pytest.raises(InputError, match="'lambda0' in schedule must be finite, not inf"):
            load_config(configs_dir / "certified.json", overrides={"lambda0": math.inf})

    def test_number_too_large_for_a_float(self, configs_dir, tmp_path):
        cfg = _certified_copy(configs_dir)
        cfg["model"]["temperature"] = 10**400
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(InputError, match="bad config value"):
            load_config(p)

    def test_overrides_are_checked_not_coerced(self, configs_dir):
        with pytest.raises(InputError, match="'max_steps' in config must be an integer"):
            load_config(configs_dir / "certified.json", overrides={"max_steps": 2.5})

    def test_negative_master_seed_rejected(self, configs_dir):
        # a negative seed is no SeedSequence entropy; zero is. RunConfig checks
        # it, as it checks alpha, and load_config names the file
        path = configs_dir / "certified.json"
        with pytest.raises(DomainError) as exc:
            load_config(path, overrides={"master_seed": -1})
        assert str(exc.value) == f"{path}: master_seed must be nonnegative, not -1"
        assert load_config(path, {"master_seed": 0}).master_seed == 0

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("model", "temperature", -1.0, "temperature must be positive"),
            ("truncation", "param", 751.0, "poisson rate 751.0 is out of range"),
            ("config", "alpha", 2.0, "alpha must lie in (0, 1)"),
            ("policy", "m", -1, "split budget m must be nonnegative"),
        ],
    )
    def test_range_errors_name_the_file(self, configs_dir, tmp_path, section, key, value,
                                        message):
        cfg = _certified_copy(configs_dir)
        if section == "config":
            cfg[key] = value
        else:
            cfg.setdefault(section, {})[key] = value
        p = tmp_path / "range.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(DomainError) as exc:
            load_config(p)
        assert str(exc.value).startswith(f"{p}: {message}")
        assert type(exc.value.__cause__) is DomainError
        assert str(exc.value.__cause__).startswith(message)

    def test_number_keys_take_json_integers(self, configs_dir, tmp_path):
        cfg = _certified_copy(configs_dir)
        cfg["truncation"]["param"] = 4
        cfg["model"]["temperature"] = 1
        p = tmp_path / "ints.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        got = load_config(p)
        assert got == load_config(configs_dir / "certified.json")
        assert type(got.trunc.param) is float and type(got.model.temperature) is float

    def test_readme_config_shape_lists_the_schema_keys(self, configs_dir):
        readme = (configs_dir.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config files", 1)[1].split("```json\n", 1)[1]
        shape = json.loads(block.split("```", 1)[0])
        sections = set(CONFIG_SCHEMA) - {"config"}
        assert set(shape) == set(CONFIG_SCHEMA["config"]) | sections
        for name in sections:
            assert set(shape[name]) == set(CONFIG_SCHEMA[name]), name


class TestReplicationPlumbing:
    def test_replication_rng_deterministic_and_distinct(self):
        a = replication_rng(42, 0).integers(0, 1 << 30, 8)
        b = replication_rng(42, 0).integers(0, 1 << 30, 8)
        c = replication_rng(42, 1).integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_calibration_stream_reserved(self):
        # replication indices must stay clear of the calibration stream
        assert CALIBRATION_STREAM == 2**32 - 1

    def test_wilson_interval_frozen(self):
        # high-precision reference for 8 successes of 10 at 95%
        lo, hi = wilson_interval(8, 10)
        assert math.isclose(lo, 0.49016247153664174, rel_tol=1e-12)
        assert math.isclose(hi, 0.94331784854562474, rel_tol=1e-12)
        assert wilson_interval(0, 5)[0] == 0.0
        assert wilson_interval(5, 5)[1] == 1.0
        with pytest.raises(DomainError):
            wilson_interval(1, 0)

    def _tiny_config(self, vocab_tiny, **kw):
        spec = ModelSpec(seed=7, vocab=vocab_tiny, max_len=6)
        defaults = dict(
            model=spec,
            policy=PolicySpec.random(2),
            alpha=0.05,
            trunc=TruncationDist.poisson(4.0),
            max_steps=30,
            replications=4,
            master_seed=11,
            corpus=PromptCorpus.from_lines(["ab", "ba"]),
            schedule=LambdaSchedule.constant(0.2),
        )
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_run_replications_deterministic(self, vocab_tiny):
        cfg = self._tiny_config(vocab_tiny)
        s1 = run_replications(cfg)
        s2 = run_replications(cfg)
        assert s1.flag_count() == s2.flag_count()
        assert [o.final_log_wealth for o in s1.completed()] == [
            o.final_log_wealth for o in s2.completed()
        ]

    def test_calibration_path_sets_lambda(self, vocab_tiny):
        cfg = self._tiny_config(
            vocab_tiny,
            schedule=None,
            holdout=PromptCorpus.from_lines(["aab", "bba"]),
            n_holdout=60,
        )
        summary = run_replications(cfg)
        assert summary.calibration is not None
        assert summary.lam == summary.calibration.lam
        assert summary.schedule_kind == "constant"
        assert len(summary.calibration.evidences) == 60

    def test_aggregates_shape(self, vocab_tiny):
        summary = run_replications(self._tiny_config(vocab_tiny))
        agg = summary.aggregates()
        assert agg["replications"] == 4
        assert agg["completed"] == 4
        assert agg["flag_count"] == summary.flag_count()
        assert 0.0 <= agg["flag_rate_ci95"][0] <= agg["flag_rate_ci95"][1] <= 1.0
        if agg["flag_count"]:
            q = agg["tau_quantiles"]
            assert q["q25"] <= q["q50"] <= q["q75"]
        else:
            assert agg["tau_quantiles"] is None
        # every audit ends one way: flagged, out of steps, or aborted on a
        # nonpositive factor; a bet this large aborts faithful audits
        aborting = run_replications(
            self._tiny_config(
                vocab_tiny,
                policy=PolicySpec.faithful(),
                schedule=LambdaSchedule.constant(0.9),
                alpha=1e-6,
                max_steps=300,
                replications=6,
            )
        ).aggregates()
        assert aborting["anomalies"] > 0
        assert (
            aborting["flag_count"] + aborting["censored"] + aborting["anomalies"]
            == aborting["completed"]
        )

    def test_write_outputs_byte_identical(self, vocab_tiny, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cfg = self._tiny_config(vocab_tiny, out_dir=str(out))
            run_replications(cfg)
        sa = (out_a / "summary.json").read_bytes()
        sb = (out_b / "summary.json").read_bytes()
        assert sa == sb
        for r in range(4):
            ta = (out_a / f"trajectory_{r}.csv").read_bytes()
            tb = (out_b / f"trajectory_{r}.csv").read_bytes()
            assert ta == tb

    def test_trajectory_csv_shape(self, vocab_tiny, tmp_path):
        cfg = self._tiny_config(vocab_tiny, out_dir=str(tmp_path / "o"))
        summary = run_replications(cfg)
        lines = (tmp_path / "o" / "trajectory_0.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        outcome = summary.outcomes[0]
        assert len(lines) == 1 + len(outcome.trajectory)
        first = lines[1].split(",")
        assert first[0] == "1"
        # floats are serialized via repr and parse back exactly
        assert float(first[4]) == outcome.trajectory[0].evidence

    def test_summary_dict_round_trips_through_json(self, vocab_tiny):
        cfg = self._tiny_config(vocab_tiny)
        summary = run_replications(cfg)
        payload = summary_dict(cfg, summary)
        again = json.loads(json.dumps(payload, sort_keys=True))
        assert again["aggregates"]["flag_count"] == summary.flag_count()
        assert again["config"]["corpus_digest"] == cfg.corpus.digest

    def test_flagged_column_marks_only_tau(self, vocab_tiny, tmp_path):
        cfg = self._tiny_config(
            vocab_tiny,
            policy=PolicySpec.random(3),
            schedule=LambdaSchedule.constant(0.3),
            max_steps=200,
            replications=2,
            out_dir=str(tmp_path / "o"),
        )
        summary = run_replications(cfg)
        for r, outcome in enumerate(summary.outcomes):
            rows = (tmp_path / "o" / f"trajectory_{r}.csv").read_text().splitlines()[1:]
            trues = [row.split(",")[0] for row in rows if row.endswith(",true")]
            if outcome.flagged:
                assert trues == [str(outcome.tau)]
            else:
                assert trues == []


def _csv_writer_trajectory(fh, outcome):
    """write_trajectory_csv as csv.writer wrote it: the byte reference."""
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


class TestTrajectoryCsvBytes:
    """The streamed writer writes csv.writer's bytes, to files and text streams."""

    def _audited(self, vocab_tiny):
        spec = ModelSpec(seed=7, vocab=vocab_tiny, max_len=6)
        trunc = TruncationDist.poisson(4.0)
        runs = {
            "flagged": (PolicySpec.random(3), 0.3, 200),
            "censored": (PolicySpec.faithful(), 0.05, 30),
            "aborted at step 1": (PolicySpec.faithful(), 20.0, 50),
            "aborted at step 4": (PolicySpec.faithful(), 5.0, 50),
        }
        out = {}
        for name, (policy, lam, max_steps) in runs.items():
            out[name] = run_audit(spec, policy, ("ab", "ba"), LambdaSchedule.constant(lam),
                                  0.05, trunc, max_steps, np.random.default_rng(0))
        assert out["flagged"].flagged and len(out["flagged"].trajectory) > 1
        assert not out["censored"].flagged and out["censored"].anomaly is None
        assert out["aborted at step 1"].trajectory == ()
        assert out["aborted at step 1"].anomaly.step == 1
        assert out["aborted at step 4"].anomaly.step == 4
        return out

    def _hand_built(self):
        nan = float("nan")
        recs = (
            EvidenceRecord(1, 0, 3, nan, -0.0, 1e-05, 1.0),
            EvidenceRecord(2, 1, 0, 1e16, 1e-05, 0.25, 1e16),
            EvidenceRecord(3, 2, 7, -0.0, -1e16, 1e-05, 1e-05),
            EvidenceRecord(4, 0, 2, 2.5, nan, 0.1, 1.0000000000000002),
        )
        return {
            "tau mid-trajectory": AuditOutcome(True, 2, recs, 0.0),
            "tau on the last row": AuditOutcome(True, 4, recs, 0.0),
            "flagged without tau": AuditOutcome(True, None, recs, 0.0),
            "tau set but unflagged": AuditOutcome(False, 3, recs, 0.0),
        }

    def test_matches_csv_writer(self, vocab_tiny, tmp_path):
        outcomes = {**self._audited(vocab_tiny), **self._hand_built()}
        for name, outcome in outcomes.items():
            want, got = io.StringIO(), io.StringIO()
            _csv_writer_trajectory(want, outcome)
            write_trajectory_csv(got, outcome)
            assert got.getvalue() == want.getvalue(), name
            # a file opened as write_outputs opens it
            for fn, path in ((_csv_writer_trajectory, tmp_path / "want.csv"),
                             (write_trajectory_csv, tmp_path / "got.csv")):
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fn(fh, outcome)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        text = io.StringIO()
        write_trajectory_csv(text, outcomes["tau mid-trajectory"])
        rows = text.getvalue().splitlines()[1:]
        assert rows[0] == "1,0,3,nan,-0.0,1e-05,1.0,0.0,1.0,false"
        assert [row.rsplit(",", 1)[1] for row in rows] == ["false", "true", "false", "false"]

    def test_outcome_from_a_tuple_writes_the_reference_bytes(self):
        # the reference reads the tuple itself, never the columns it is copied into
        nan = float("nan")
        records = (
            EvidenceRecord(1, 0, 3, nan, -0.0, 1e-05, 1.0),
            EvidenceRecord(2, 1, 0, 1e16, 1e-05, 0.25, 1e16),
            EvidenceRecord(3, 2, 7, -0.0, -1e16, 1e-05, 1e-05),
        )
        as_tuple = SimpleNamespace(flagged=True, tau=2, trajectory=records)
        want, got = io.StringIO(), io.StringIO()
        _csv_writer_trajectory(want, as_tuple)
        write_trajectory_csv(got, AuditOutcome(True, 2, records, 0.0))
        assert got.getvalue() == want.getvalue()


class TestWriteJson:
    def test_bytes_equal_json_dumps(self, tmp_path):
        report = {
            "z": [1.0, -0.0, 1e-05, 1e16, 0.1 + 0.2, float("inf"), None, True, False],
            "a": {"naïve": "Grüße, 東京", "nested": {"empty": {}, "list": [], "n": 3}},
            "m": [{"b": None, "a": [True, {"x": 2.5}]}],
        }
        want = json.dumps(report, indent=2, sort_keys=True) + "\n"
        path = tmp_path / "report.json"
        # a file opened as write_outputs and the oracle command open it
        with open(path, "w", encoding="utf-8") as fh:
            write_json(fh, report)
        assert path.read_bytes() == want.encode("utf-8")
        text = io.StringIO()
        write_json(text, report)
        assert text.getvalue() == want
