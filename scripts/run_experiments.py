#!/usr/bin/env python3
"""Reproduce the three headline experiments at toy scale.

Runs, in order:
  1. false-positive control: faithful provider, calibrated bet size
  2. detection power: random split policy, m in {1, 2, 3}
  3. certified detection: constant bet size on the enumerable config,
     comparing realized mean detection time against the certified bound

Writes nothing unless --out is given; prints one summary block per
experiment. Total runtime is well under a minute.
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tokaudit import (
    PolicySpec,
    detection_time_bound,
    evidence_moments,
    exact_intensity,
)
from tokaudit.harness import load_config, run_replications

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fpr_experiment(out_dir):
    cfg = load_config(CONFIGS / "default.json")
    if out_dir:
        cfg = replace(cfg, out_dir=str(Path(out_dir) / "fpr"))
    t0 = time.time()
    summary = run_replications(cfg)
    agg = summary.aggregates()
    print("== false-positive control (faithful provider) ==")
    print(f"   lambda={summary.lam:.4f}  replications={agg['replications']}")
    print(f"   flags={agg['flag_count']}  anomalies={agg['anomalies']}  "
          f"rate={agg['flag_rate']:.4f}  ci95={agg['flag_rate_ci95']}")
    print(f"   ({time.time() - t0:.1f}s)")


def detection_experiment(out_dir):
    print("== detection power (random split policy) ==")
    for m in (1, 2, 3):
        cfg = load_config(CONFIGS / "detection.json", overrides={"m": m})
        if out_dir:
            cfg = replace(cfg, out_dir=str(Path(out_dir) / f"random_m{m}"))
        t0 = time.time()
        agg = run_replications(cfg).aggregates()
        print(f"   m={m}: flags={agg['flag_count']}/{agg['replications']}  "
              f"median tau={agg['tau_quantiles']['q50']}  ({time.time() - t0:.1f}s)")


def certified_experiment():
    cfg = load_config(CONFIGS / "certified.json")
    lam0 = cfg.schedule.lambda0
    intensity = exact_intensity(cfg.policy, cfg.model, cfg.corpus)
    mom = evidence_moments(cfg.policy, cfg.model, cfg.corpus, cfg.trunc,
                           50_000, np.random.default_rng(1234), lambda0=lam0)
    bound = detection_time_bound(lam0, cfg.alpha, intensity, mom.variance,
                                 mom.empirical_b_minus, mom.empirical_b_plus)
    t0 = time.time()
    summary = run_replications(cfg)
    taus = summary.taus()
    print("== certified detection time ==")
    print(f"   intensity={intensity:.4f}  var={mom.variance:.4f}  "
          f"b-={mom.empirical_b_minus:.4f}  b+={mom.empirical_b_plus:.4f}")
    print(f"   certified bound={bound:.1f}  realized mean tau={np.mean(taus):.1f}  "
          f"flagged={len(taus)}/{summary.aggregates()['replications']}  ({time.time() - t0:.1f}s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="directory for per-run CSV/JSON exports")
    args = ap.parse_args()
    fpr_experiment(args.out)
    detection_experiment(args.out)
    certified_experiment()


if __name__ == "__main__":
    main()
