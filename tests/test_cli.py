"""End-to-end command-line tests driven through cli.main()."""
import json
import math

import pytest

from tokaudit import (
    cli,
    conditional_expected_length,
    enumerate_output_distribution,
    load_config,
    str_of,
)
from tokaudit.harness import TRAJECTORY_COLUMNS


@pytest.fixture()
def tiny_config(tmp_path, data_dir):
    (tmp_path / "c.txt").write_text("ab\nba\n", encoding="utf-8")
    (tmp_path / "h.txt").write_text("aab\nbba\n", encoding="utf-8")
    cfg = {
        "model": {
            "seed": 7,
            "vocab": str(data_dir / "vocab_tiny.json"),
            "context_window": 2,
            "temperature": 1.0,
            "eos_boost": 0.0,
            "max_len": 6,
        },
        "policy": {"kind": "random", "m": 2},
        "schedule": {"kind": "constant", "lambda0": 0.2},
        "calibration": {"corpus": "h.txt", "n_holdout": 50},
        "alpha": 0.05,
        "truncation": {"kind": "poisson", "param": 4.0},
        "max_steps": 25,
        "replications": 3,
        "master_seed": 11,
        "corpus": "c.txt",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestParser:
    def test_no_arguments_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_config_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["audit"])
        assert exc.value.code == 1


class TestAuditCommand:
    def test_prints_trajectory_and_trailer(self, tiny_config, capsys):
        rc = cli.main(["audit", "--config", str(tiny_config)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(TRAJECTORY_COLUMNS)
        trailer = [ln for ln in out if ln.startswith("# flagged=")]
        assert len(trailer) == 1
        assert "tau=" in trailer[0] and "final_wealth=" in trailer[0]
        # each data row has the full column complement
        data = [ln for ln in out[1:] if not ln.startswith("#")]
        assert data
        assert all(len(ln.split(",")) == len(TRAJECTORY_COLUMNS) for ln in data)

    def test_out_writes_csv(self, tiny_config, tmp_path, capsys):
        outdir = tmp_path / "audit_out"
        rc = cli.main(
            ["audit", "--config", str(tiny_config), "--out", str(outdir)]
        )
        assert rc == 0
        body = (outdir / "trajectory_0.csv").read_bytes()
        assert body.startswith(",".join(TRAJECTORY_COLUMNS).encode())
        # the rows printed to stdout are the CSV file, byte for byte
        printed = capsys.readouterr().out.splitlines(keepends=True)
        rows = "".join(ln for ln in printed if not ln.startswith("#"))
        assert rows.encode("utf-8") == body

    def test_deterministic_output(self, tiny_config, capsys):
        cli.main(["audit", "--config", str(tiny_config)])
        first = capsys.readouterr().out
        cli.main(["audit", "--config", str(tiny_config)])
        second = capsys.readouterr().out
        assert first == second


class TestReplicateCommand:
    def test_prints_aggregates(self, tiny_config, capsys):
        rc = cli.main(["replicate", "--config", str(tiny_config)])
        assert rc == 0
        agg = json.loads(capsys.readouterr().out)
        assert agg["replications"] == 3
        assert agg["completed"] == 3
        assert agg["lambda"] == 0.2

    def test_replications_override(self, tiny_config, capsys):
        cli.main(["replicate", "--config", str(tiny_config), "--replications", "2"])
        agg = json.loads(capsys.readouterr().out)
        assert agg["replications"] == 2

    def test_out_writes_summary_and_trajectories(self, tiny_config, tmp_path, capsys):
        outdir = tmp_path / "rep_out"
        rc = cli.main(
            ["replicate", "--config", str(tiny_config), "--out", str(outdir)]
        )
        assert rc == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["aggregates"]["replications"] == 3
        assert (outdir / "trajectory_0.csv").exists()
        assert (outdir / "trajectory_2.csv").exists()

    @pytest.mark.parametrize("command", ["replicate", "fpr"])
    def test_failed_replication_exits_one(self, tiny_config, tmp_path, capsys, command):
        # every step's next-token row overflows, so each replication fails
        cfg = json.loads(tiny_config.read_text())
        cfg["model"]["eos_boost"] = 1e308
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        outdir = tmp_path / "failed_out"
        rc = cli.main([command, "--config", str(bad), "--replications", "2",
                       "--max-steps", "5", "--out", str(outdir)])
        captured = capsys.readouterr()
        assert rc == 1
        agg = json.loads(captured.out)
        assert (agg["replications"], agg["completed"]) == (2, 0)
        lines = captured.err.splitlines()
        assert [ln.split(":")[0] for ln in lines] == [
            "replication 0 failed", "replication 1 failed"
        ]
        assert all("probabilities are not finite" in ln for ln in lines)
        summary = json.loads((outdir / "summary.json").read_text())
        assert [e["replication"] for e in summary["errors"]] == [0, 1]
        assert not list(outdir.glob("trajectory_*.csv"))


class TestSeedPrecedence:
    def _trajectory(self, tiny_config, capsys, argv_extra=()):
        cli.main(["audit", "--config", str(tiny_config), *argv_extra])
        return capsys.readouterr().out

    def test_env_seed_changes_run(self, tiny_config, capsys, monkeypatch):
        base = self._trajectory(tiny_config, capsys)
        monkeypatch.setenv("TOKEN_AUDIT_SEED", "12345")
        enved = self._trajectory(tiny_config, capsys)
        seeded = self._trajectory(tiny_config, capsys, argv_extra=["--seed", "12345"])
        # env must act exactly like --seed 12345
        assert enved == seeded
        # and differ from the config seed (per-step floats are seed-sensitive)
        assert base != enved

    def test_flag_beats_env(self, tiny_config, capsys, monkeypatch):
        base = self._trajectory(tiny_config, capsys)
        monkeypatch.setenv("TOKEN_AUDIT_SEED", "999")
        overridden = self._trajectory(tiny_config, capsys, argv_extra=["--seed", "11"])
        # --seed 11 restores the config's master seed despite the env var
        assert overridden == base

    def test_env_seed_must_be_integer(self, tiny_config, capsys, monkeypatch):
        monkeypatch.setenv("TOKEN_AUDIT_SEED", "not-a-number")
        rc = cli.main(["replicate", "--config", str(tiny_config)])
        assert rc == 1
        assert "TOKEN_AUDIT_SEED" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_prints_report(self, tiny_config, capsys):
        rc = cli.main(["calibrate", "--config", str(tiny_config)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lambda_max = " in out
        assert "lambda = " in out
        assert "holdout evidence: n=50" in out

    def test_requires_holdout(self, tiny_config, tmp_path, capsys):
        cfg = json.loads(tiny_config.read_text())
        del cfg["calibration"]
        stripped = tmp_path / "nohold.json"
        stripped.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(["calibrate", "--config", str(stripped)])
        assert rc == 1
        assert "calibration corpus" in capsys.readouterr().err


class TestOracleCommand:
    def test_emits_reference_json(self, tiny_config, capsys):
        rc = cli.main(
            ["oracle", "--config", str(tiny_config), "--moments-n", "200"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"prompts", "intensity", "policy", "moments"}
        assert report["intensity"] > 0  # random(2) inflates
        assert report["moments"]["n"] == 200
        p0 = report["prompts"]["0"]
        assert p0["prompt"] == "ab"
        assert abs(p0["total_mass"] - 1.0) < 1e-9
        assert p0["conditional_expected_length"]
        # every reference value is a finite float
        for val in p0["conditional_expected_length"].values():
            assert isinstance(val, float)

    def test_lengths_equal_the_per_string_reference(self, configs_dir, capsys):
        path = configs_dir / "oracle_tiny.json"
        rc = cli.main(["oracle", "--config", str(path), "--moments-n", "50"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        config = load_config(path)
        spec = config.model
        for pid, prompt in enumerate(config.corpus.prompts):
            lengths = report["prompts"][str(pid)]["conditional_expected_length"]
            law = enumerate_output_distribution(spec, prompt)
            assert set(lengths) == {str_of(seq, spec.vocab) for seq, _ in law.entries}
            for s, value in lengths.items():
                assert value == conditional_expected_length(spec, prompt, s), s

    def test_out_writes_file(self, tiny_config, tmp_path, capsys):
        outdir = tmp_path / "oracle_out"
        rc = cli.main(
            [
                "oracle",
                "--config",
                str(tiny_config),
                "--moments-n",
                "100",
                "--out",
                str(outdir),
            ]
        )
        assert rc == 0
        path = outdir / "oracle.json"
        assert path.exists()
        assert capsys.readouterr().out.strip() == str(path)
        report = json.loads(path.read_text())
        assert report["moments"]["n"] == 100


class TestFprCommand:
    def test_forces_faithful_policy(self, tiny_config, capsys):
        rc = cli.main(["fpr", "--config", str(tiny_config)])
        assert rc == 0
        agg_fpr = json.loads(capsys.readouterr().out)
        cli.main(["replicate", "--config", str(tiny_config), "--policy", "faithful"])
        agg_faithful = json.loads(capsys.readouterr().out)
        assert agg_fpr == agg_faithful


class TestBoundCommand:
    def test_prints_bound_inputs_and_value(self, tiny_config, capsys):
        rc = cli.main(
            ["bound", "--config", str(tiny_config), "--moments-n", "400"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for label in ("lambda0 = ", "intensity = ", "var_e = ", "b_minus = ", "b_plus = "):
            assert label in out
        assert ("bound = " in out) or ("conditions violated:" in out)

    def test_conditions_violated_path(self, tiny_config, capsys):
        # faithful has zero intensity, so the growth gap cannot be positive
        rc = cli.main(
            [
                "bound",
                "--config",
                str(tiny_config),
                "--policy",
                "faithful",
                "--moments-n",
                "200",
            ]
        )
        assert rc == 0
        assert "conditions violated:" in capsys.readouterr().out

    def test_nonpositive_factor_reports_conditions_violated(self, tiny_config, capsys):
        # a bet this large turns some sampled factor 1 + lambda0 * E
        # nonpositive, so no support bound b_minus > 0 exists
        rc = cli.main(
            ["bound", "--config", str(tiny_config), "--lambda", "5", "--moments-n", "400"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        b_minus = float(out.split("b_minus = ")[1].split()[0])
        assert b_minus <= 0
        assert "conditions violated:" in out


class TestErrorMapping:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        rc = cli.main(["replicate", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_value_exits_one(self, tiny_config, tmp_path, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["alpha"] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(["replicate", "--config", str(bad)])
        assert rc == 1

    def test_unknown_config_key_exits_one(self, tiny_config, tmp_path, capsys):
        # a key the schema does not list fails loudly instead of being ignored
        cfg = json.loads(tiny_config.read_text())
        cfg["anomaly_mode"] = "clamp"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(["replicate", "--config", str(old)])
        assert rc == 1
        assert "anomaly_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("schedule", "lamda0"), ("model", "max_length")])
    def test_unknown_nested_key_exits_one(self, tiny_config, tmp_path, capsys, section, key):
        # a misspelled key inside a section fails loudly instead of taking the default
        cfg = json.loads(tiny_config.read_text())
        cfg[section][key] = 0.5
        typo = tmp_path / "typo.json"
        typo.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(["audit", "--config", str(typo)])
        assert rc == 1
        assert f"unknown keys {[key]} in {section}" in capsys.readouterr().err

    def test_coerced_value_exits_one(self, tiny_config, tmp_path, capsys):
        # 2.5 steps is an error, not 2 steps
        cfg = json.loads(tiny_config.read_text())
        cfg["max_steps"] = 2.5
        bad = tmp_path / "float_steps.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(["audit", "--config", str(bad)])
        assert rc == 1
        assert "'max_steps' in config must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, param", [("deterministic", 3.0), ("geometric", 0.15)])
    def test_removed_truncation_kind_exits_one(
        self, tiny_config, tmp_path, capsys, kind, param
    ):
        # only a Poisson K keeps the length estimate unbiased
        cfg = json.loads(tiny_config.read_text())
        cfg["truncation"] = {"kind": kind, "param": param}
        bad = tmp_path / "kind.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(["audit", "--config", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"unknown truncation kind {kind!r}" in captured.err

    @pytest.mark.parametrize(
        "where, value, argv, env",
        [
            ("model", 2**70, (), None),  # the model seed packs into 8 signed bytes
            ("config", -1, (), None),  # SeedSequence takes nonnegative seeds only
            (None, None, ("--seed", "-1"), None),
            (None, None, (), "-3"),
        ],
        ids=["model-seed-2**70", "master-seed-file", "master-seed-flag", "master-seed-env"],
    )
    def test_out_of_range_seed_exits_one(
        self, tiny_config, tmp_path, capsys, monkeypatch, where, value, argv, env
    ):
        cfg = json.loads(tiny_config.read_text())
        if where == "model":
            cfg["model"]["seed"] = value
        elif where == "config":
            cfg["master_seed"] = value
        bad = tmp_path / "seed.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        if env is not None:
            monkeypatch.setenv("TOKEN_AUDIT_SEED", env)
        rc = cli.main(["audit", "--config", str(bad), *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"tokaudit: error: {bad}: ")
        assert "seed" in lines[0]

    @pytest.mark.parametrize(
        "section, key, value, argv, message",
        [
            ("truncation", "param", math.inf, (), "'param' in truncation must be finite"),
            ("truncation", "param", 1e19, (), "poisson rate 1e+19 is out of range"),
            ("truncation", "param", 751.0, (), "poisson rate 751.0 is out of range"),
            ("model", "eos_boost", math.inf, (), "'eos_boost' in model must be finite"),
            ("model", "eos_boost", 1e308, (), "audit step 1, next-token probabilities are not"),
            ("model", "temperature", 1e-320, (), "audit step 1, next-token probabilities are not"),
            ("model", "temperature", -1.0, (), "temperature must be positive"),
            (None, None, None, ("--lambda", "inf"), "'lambda0' in schedule must be finite"),
        ],
        ids=["param-Infinity", "param-1e19", "param-751", "eos_boost-Infinity",
             "eos_boost-1e308", "temperature-1e-320", "temperature-negative", "lambda-inf"],
    )
    def test_non_finite_or_out_of_range_number_exits_one(
        self, tiny_config, tmp_path, capsys, section, key, value, argv, message
    ):
        cfg = json.loads(tiny_config.read_text())
        if section is not None:
            cfg[section][key] = value  # json writes inf as the literal Infinity
        bad = tmp_path / "number.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(["audit", "--config", str(bad), *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        # errors found while loading name the config file; overflow shows at a step
        head = "" if message.startswith("audit step") else f"{bad}: "
        assert len(lines) == 1 and lines[0].startswith(f"tokaudit: error: {head}")
        assert message in lines[0]

    def test_anomaly_mode_flag_is_gone(self, tiny_config):
        with pytest.raises(SystemExit) as exc:
            cli.main(["replicate", "--config", str(tiny_config), "--anomaly-mode", "clamp"])
        assert exc.value.code == 1
