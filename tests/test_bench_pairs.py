"""scripts/bench_pairs.py's summary of interleaved benchmark pairs."""
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(values):
    """Untraced runs of one workload at the shipped seed, from (parent, change) pairs."""
    return [{"workload": "w", "seed": "shipped", "trace": 0, "pair": pair, "side": side,
             "rate": rate, "rss": rss}
            for pair, sides in enumerate(values, start=1)
            for side, (rate, rss) in zip(("parent", "change"), sides)]


def test_summarize_counts_won_pairs_for_both_signs():
    metrics = [{"name": "rate", "better": "higher"}, {"name": "rss", "better": "lower"}]
    # (parent, change) per pair, as (rate, rss): the change raises the rate in
    # pairs 1, 2 and 4, ties in pair 3, and lowers rss in pairs 1 and 3 only
    runs = _runs([((10.0, 50.0), (12.0, 40.0)),
                  ((11.0, 50.0), (13.0, 60.0)),
                  ((12.0, 50.0), (12.0, 45.0)),
                  ((13.0, 50.0), (14.0, 50.0))])
    # a traced run is left out of the summary
    runs.append({"workload": "w", "seed": "shipped", "trace": 1, "pair": 1, "side": "change",
                 "rate": 0.0, "rss": 0.0})
    rows = _bench_pairs().summarize(runs, metrics)["w"]
    assert rows["rate"]["change_better_pairs"] == "3 of 4"
    assert rows["rss"]["change_better_pairs"] == "2 of 4"
    assert rows["rate"]["parent_median"] == 11.5
    assert rows["rate"]["change_median"] == 12.5
    assert rows["rate"]["parent_quartiles"] == [10.75, 12.25]
    assert rows["rate"]["change_quartiles"] == [12.0, 13.25]
    assert rows["rss"]["change_over_parent"] == round(47.5 / 50.0, 3)


def test_summarize_skips_unpaired_runs_and_labels_seeds():
    runs = _runs([((10.0, 50.0), (12.0, 40.0))])
    runs += [dict(r, seed=101) for r in runs]
    runs.append({"workload": "w", "seed": "shipped", "trace": 0, "pair": 2, "side": "parent",
                 "rate": 99.0, "rss": 99.0})
    out = _bench_pairs().summarize(runs, [{"name": "rate", "better": "higher"}])
    assert set(out) == {"w", "w --seed 101"}
    assert out["w"]["rate"]["change_better_pairs"] == "1 of 1"
    assert out["w"]["rate"]["parent_median"] == 10.0


def test_bad_runs_names_each_failed_run(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            '{"run_seconds": 1, "workloads": [{"name": "w"}], '
            '"end_to_end": [{"name": "rate", "better": "higher"}], "per_layer": []}')
    # hand-made runs of four pairs: a clean one, a nonzero exit, an incorrect
    # round and failed operations
    results = iter([
        {"exit": 0, "correct": True, "attempted": 5, "failed": 0, "rate": 1.0},
        {"exit": 0, "correct": True, "attempted": 5, "failed": 0, "rate": 1.0},
        {"exit": 2},
        {"exit": 0, "correct": True, "attempted": 5, "failed": 0, "rate": 1.0},
        {"exit": 0, "correct": False, "attempted": 5, "failed": 0, "rate": 1.0},
        {"exit": 0, "correct": True, "attempted": 5, "failed": 0, "rate": 1.0},
        {"exit": 0, "correct": True, "attempted": 5, "failed": 0, "rate": 1.0},
        {"exit": 0, "correct": True, "attempted": 5, "failed": 1, "rate": 1.0},
    ])
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: next(results))
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--label", "t", "--pairs", "4"])
    assert code == 1
    assert (tmp_path / "change" / "BENCH_t.json").is_file()
    named = [line for line in capsys.readouterr().err.splitlines() if line.startswith("bad run:")]
    # the parent runs first in odd pairs and the change in even pairs
    assert named == [
        "bad run: w trace 0 pair 2 change: exit 2, correct None, failed None",
        "bad run: w trace 0 pair 3 parent: exit 0, correct False, failed 0",
        "bad run: w trace 0 pair 4 parent: exit 0, correct True, failed 1",
    ]
    report = json.loads((tmp_path / "change" / "BENCH_t.json").read_text())
    assert len(bench_pairs.bad_runs(report["runs"])) == 3


def test_differing_outputs_name_the_workload(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            '{"run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}, {"name": "oracle-exact"}], '
            '"end_to_end": [{"name": "rate", "better": "higher"}], "per_layer": []}')
    clean = {"exit": 0, "correct": True, "attempted": 5, "failed": 0, "rate": 1.0}
    # two pairs per workload, the parent first in pair 1: workload a agrees,
    # the change's fingerprint differs on b, and its oracle.json on oracle-exact
    results = iter([
        dict(clean, fingerprint="aaaa"), dict(clean, fingerprint="aaaa"),
        dict(clean, fingerprint="aaaa"), dict(clean, fingerprint="aaaa"),
        dict(clean, fingerprint="bbbb"), dict(clean, fingerprint="cccc"),
        dict(clean, fingerprint="cccc"), dict(clean, fingerprint="bbbb"),
        dict(clean, fingerprint="dddd", oracle_json_sha256="01"),
        dict(clean, fingerprint="dddd", oracle_json_sha256="02"),
        dict(clean, fingerprint="dddd", oracle_json_sha256="02"),
        dict(clean, fingerprint="dddd", oracle_json_sha256="01"),
    ])
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: next(results))
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--label", "t", "--pairs", "2"])
    assert code == 1
    report = json.loads((tmp_path / "change" / "BENCH_t.json").read_text())
    assert report["fingerprints"] == {"a": "aaaa", "b": {"parent": ["bbbb"], "change": ["cccc"]},
                                      "oracle-exact": "dddd"}
    assert report["oracle_json_sha256"] == {"parent": ["01"], "change": ["02"]}
    err = capsys.readouterr().err.splitlines()
    named = [line for line in err if line.startswith("outputs differ:")]
    assert named == [
        "outputs differ: b fingerprint: {'parent': ['bbbb'], 'change': ['cccc']}",
        "outputs differ: oracle-exact oracle_json_sha256: {'parent': ['01'], 'change': ['02']}",
    ]
    assert not [line for line in err if line.startswith("bad run:")]
