"""scripts/bench_pairs.py's summary of interleaved benchmark pairs."""
import importlib.util
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
