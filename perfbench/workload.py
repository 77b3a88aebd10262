"""One round of one benchmark workload, run in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 --out DIR

Imports tokaudit and loads the workload's inputs (set-up), runs the study
(timed), then checks every output against perfbench/reference.py and
writes DIR/result.json. perfbench/run.py starts one such process per round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import spans  # noqa: E402

# z bound for mean-evidence checks: evidence is heavy-tailed and skewed, and
# across 60 seeds the mean of 2,000 oracle-exact draws already reached
# z = -3.6, so a normal-theory 3 or 4 would fail honest seeds
Z_MAX = 8.0
MOMENTS_N_CERTIFIED = 50_000
MOMENTS_N_ORACLE = 2_000
# the certified experiment's moment stream, as in scripts/run_experiments.py
CERTIFIED_MOMENTS_SEED = 1234


class Workload:
    """set-up loads inputs; study is timed; check returns (op, problems) pairs."""

    def __init__(self, out: Path, seed: int, tracer):
        self.out = out
        self.seed = seed
        self.tracer = tracer
        self.export = out / "export"

    def verdicts(self):
        return ref.verdicts(self.outcomes)

    def fingerprint_parts(self):
        return [repr(self.summary.outcomes), repr(self.summary.errors)]

    def audit_ops(self, summary, lam_at, extra=lambda o: []):
        errors = dict(summary.errors)
        ops = []
        for r, o in enumerate(summary.outcomes):
            if o is None:
                ops.append((f"audit {r}", [errors[r]]))
            else:
                problems = ref.check_outcome(o, lam_at, summary.alpha, summary.max_steps)
                ops.append((f"audit {r}", problems + extra(o)))
        return ops


class FprDefault(Workload):
    """configs/default.json: calibrated lambda, 150 faithful audits."""

    DEFAULT_SEED = 44

    def setup(self, tk):
        self.tk = tk
        self.cfg = tk.load_config(ROOT / "configs" / "default.json")

    def study(self):
        import numpy as np

        tk, cfg = self.tk, self.cfg
        # the calibration stream stays that of the shipped master seed, so
        # lambda (and with it the abort rate) is the same on every --seed
        crng = np.random.default_rng(
            np.random.SeedSequence(cfg.master_seed, spawn_key=(tk.harness.CALIBRATION_STREAM,))
        )
        with self.tracer.span("audit.calibration_report"):
            self.calib = tk.calibration_report(
                cfg.model, cfg.holdout, cfg.trunc, cfg.n_holdout, cfg.safety, cfg.lambda_cap, crng
            )
        run = replace(cfg, master_seed=self.seed, schedule=tk.LambdaSchedule.constant(self.calib.lam))
        self.summary = tk.run_replications(run)
        self.outcomes = self.summary.completed()

    def evidence(self):
        return len(self.calib.evidences) + ref.evidence_count(self.outcomes)

    def fingerprint_parts(self):
        return [repr(self.calib.lam)] + super().fingerprint_parts()

    def check(self):
        cfg, calib = self.cfg, self.calib
        worst = min(calib.evidences)
        calib_problems = []
        if len(calib.evidences) != cfg.n_holdout:
            calib_problems.append(f"{len(calib.evidences)} holdout draws, {cfg.n_holdout} due")
        if not (worst < 0 and ref.close(calib.lam, cfg.safety / -worst)):
            calib_problems.append(f"lambda {calib.lam!r} != safety / -min evidence {worst!r}")
        ops = [("calibration", calib_problems)]
        ops += self.audit_ops(self.summary, lambda i: calib.lam)
        es = list(calib.evidences)
        for o in self.outcomes:
            es += [rec.evidence for rec in o.trajectory]
            if o.anomaly is not None:
                es.append(o.anomaly.evidence)
        flags = sum(o.flagged for o in self.outcomes)
        limit = ref.binomial_upper(cfg.replications, cfg.alpha)
        z = ref.mean_z(es, 0.0)
        fpr_problems = []
        if flags > limit:
            fpr_problems.append(f"{flags} false flags, above {limit} for Binomial({cfg.replications}, {cfg.alpha})")
        if abs(z) > Z_MAX:
            fpr_problems.append(f"mean faithful evidence is {z:.2f} standard errors from 0")
        ops.append(("false-positive control", fpr_problems))
        return ops


class CertifyTiny(Workload):
    """configs/certified.json: exact intensity, moments, bound, 100 random(2) audits."""

    DEFAULT_SEED = 7

    def setup(self, tk):
        self.tk = tk
        self.cfg = tk.load_config(ROOT / "configs" / "certified.json")

    def study(self):
        import numpy as np

        tk, cfg, span = self.tk, self.cfg, self.tracer.span
        lam0 = cfg.schedule.lambda0
        with span("oracle.exact_intensity"):
            self.intensity = tk.exact_intensity(cfg.policy, cfg.model, cfg.corpus)
        with span("oracle.evidence_moments"):
            self.moments = tk.evidence_moments(
                cfg.policy, cfg.model, cfg.corpus, cfg.trunc, MOMENTS_N_CERTIFIED,
                np.random.default_rng(CERTIFIED_MOMENTS_SEED), lambda0=lam0,
            )
        m = self.moments
        with span("audit.detection_time_bound"):
            self.bound = tk.detection_time_bound(
                lam0, cfg.alpha, self.intensity, m.variance, m.empirical_b_minus, m.empirical_b_plus
            )
        self.summary = tk.run_replications(replace(cfg, master_seed=self.seed))
        self.outcomes = self.summary.completed()

    def evidence(self):
        return self.moments.n + ref.evidence_count(self.outcomes)

    def fingerprint_parts(self):
        return [repr(self.intensity), repr(self.moments), repr(self.bound)] + super().fingerprint_parts()

    def check(self):
        cfg, m = self.cfg, self.moments
        lam0 = cfg.schedule.lambda0
        tables = [ref.StepTable(cfg.model, q, self.tk.next_token_log_probs) for q in cfg.corpus]
        exact = ref.random_policy_intensity(tables, cfg.policy.m)
        ops = [("exact intensity", [] if ref.close(self.intensity, exact, 1e-9)
                else [f"intensity {self.intensity!r} != reference {exact!r}"])]
        mp = []
        if m.n != MOMENTS_N_CERTIFIED:
            mp.append(f"{m.n} moment draws")
        if not (ref.close(m.empirical_b_minus, 1 + lam0 * m.min_evidence)
                and ref.close(m.empirical_b_plus, 1 + lam0 * m.max_evidence)):
            mp.append("factor support bounds do not match the evidence range")
        if abs((m.mean - exact) / m.se) > Z_MAX:
            mp.append(f"mean evidence {m.mean!r} is more than {Z_MAX} se from intensity {exact!r}")
        ops.append(("evidence moments", mp))
        gap = math.log1p(lam0 * exact) - m.variance * lam0**2 / (2 * m.empirical_b_minus**2)
        due = (math.log(1 / cfg.alpha) + math.log(m.empirical_b_plus)) / gap
        taus = [o.tau for o in self.outcomes if o.flagged]
        bp = [] if ref.close(self.bound, due, 1e-9) else [f"bound {self.bound!r} != {due!r}"]
        if not taus or sum(taus) / len(taus) > self.bound:
            bp.append(f"mean tau over {len(taus)} flagged audits exceeds the bound {self.bound!r}")
        ops.append(("certified bound", bp))
        # an audit may abort on a nonpositive factor at the constant lambda;
        # that is a verdict, but none may run out of steps without a flag
        censored = lambda o: [] if o.flagged or o.anomaly else ["censored: the m=2 provider was not flagged"]  # noqa: E731
        return ops + self.audit_ops(self.summary, lambda i: lam0, censored)


class HonestLong(Workload):
    """Faithful provider on the certified tiny model, lambda0/i, 3 x 15,000 steps."""

    DEFAULT_SEED = 7
    LAMBDA0 = 0.03

    def setup(self, tk):
        self.tk = tk
        self.cfg = tk.load_config(ROOT / "configs" / "certified.json", {
            "policy": "faithful", "schedule": "decreasing", "lambda0": self.LAMBDA0,
            "max_steps": 15_000, "replications": 3, "out_dir": str(self.export),
        })

    def study(self):
        self.summary = self.tk.run_replications(replace(self.cfg, master_seed=self.seed))
        self.outcomes = self.summary.completed()

    def evidence(self):
        return ref.evidence_count(self.outcomes)

    def fingerprint_parts(self):
        digest = hashlib.sha256()
        for path in sorted(self.export.iterdir()):
            digest.update(path.read_bytes())
        return [digest.hexdigest()] + super().fingerprint_parts()

    def check(self):
        cfg = self.cfg
        lam_at = lambda i: self.LAMBDA0 / i  # noqa: E731
        errors = dict(self.summary.errors)
        ops = []
        es = []
        for r, o in enumerate(self.summary.outcomes):
            if o is None:
                ops.append((f"audit {r}", [errors[r]]))
                continue
            rows_due = o.anomaly.step - 1 if o.anomaly else o.tau if o.flagged else cfg.max_steps
            problems, evidences = ref.check_trajectory_csv(
                self.export / f"trajectory_{r}.csv", lam_at, cfg.alpha, rows_due
            )
            ops.append((f"audit {r}", problems))
            es += evidences + ([o.anomaly.evidence] if o.anomaly else [])
        z = ref.mean_z(es, 0.0)
        ops.append(("mean faithful evidence", [] if abs(z) <= Z_MAX else [f"z = {z:.2f}"]))
        return ops


class OracleExact(Workload):
    """`tokaudit oracle` on the tiny vocabulary, max_len 8, the 4 tiny audit prompts."""

    DEFAULT_SEED = 5
    MAX_LEN = 8

    def setup(self, tk):
        self.tk = tk
        base = json.loads((ROOT / "configs" / "heuristic.json").read_text(encoding="utf-8"))
        base["model"]["max_len"] = self.MAX_LEN
        base["model"]["vocab"] = str(ROOT / "data" / "vocab_tiny.json")
        base["corpus"] = str(ROOT / "data" / "prompts_tiny_audit.txt")
        self.config_path = self.out / "oracle_exact.json"
        self.config_path.write_text(json.dumps(base), encoding="utf-8")
        self.cfg = tk.load_config(self.config_path)

    def study(self):
        argv = ["oracle", "--config", str(self.config_path), "--seed", str(self.seed),
                "--moments-n", str(MOMENTS_N_ORACLE), "--out", str(self.export)]
        rc = self.tk.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"tokaudit oracle exited {rc}")
        self.report_bytes = (self.export / "oracle.json").read_bytes()
        self.outcomes = []

    def evidence(self):
        return MOMENTS_N_ORACLE

    def verdicts(self):
        return {}

    def fingerprint_parts(self):
        return [hashlib.sha256(self.report_bytes).hexdigest()]

    def check(self):
        spec = self.cfg.model
        report = json.loads(self.report_bytes)
        strings = spec.vocab.strings
        ids = [t for t in range(spec.vocab.size) if t != spec.vocab.eos_id]
        support = sum(len(ids) ** k for k in range(spec.max_len + 1))
        reachable = {""}
        frontier = {""}
        for _ in range(spec.max_len):
            frontier = {s + strings[t] for s in frontier for t in ids}
            reachable |= frontier
        ops = []
        for pid, prompt in enumerate(self.cfg.corpus):
            entry = report["prompts"][str(pid)]
            law = []
            if entry["support_size"] != support:
                law.append(f"support {entry['support_size']}, {support} due")
            if abs(entry["total_mass"] - 1.0) > 1e-9:
                law.append(f"total mass {entry['total_mass']!r}")
            cond = entry["conditional_expected_length"]
            if set(cond) != reachable:
                law.append(f"{len(cond)} strings, {len(reachable)} reachable")
            ops.append((f"output law {pid}", law))
            table = ref.StepTable(spec, prompt, self.tk.next_token_log_probs)
            for s, value in cond.items():
                exact = ref.lattice_expected_length(table, s)
                ok = abs(value - exact) <= 1e-9 * max(1.0, abs(exact))
                ops.append((f"length {pid}:{s}", [] if ok else [f"{value!r} != lattice {exact!r}"]))
        m = report["moments"]
        mp = [] if m["n"] == MOMENTS_N_ORACLE else [f"{m['n']} moment draws"]
        if abs((m["mean"] - report["intensity"]) / m["se"]) > Z_MAX:
            mp.append(f"mean evidence {m['mean']!r} is more than {Z_MAX} se from intensity")
        ops.append(("intensity and moments", mp))
        return ops


WORKLOADS = {
    "fpr-default": FprDefault,
    "certify-tiny": CertifyTiny,
    "honest-long": HonestLong,
    "oracle-exact": OracleExact,
}


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="default: the shipped config's master_seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="0 skips the checks; run.py then compares the outputs with a checked round's")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    import tokaudit
    import tokaudit.cli

    if not Path(tokaudit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tokaudit imported from {tokaudit.__file__}, not from {ROOT / 'src'}")
    tracer = spans.Tracer() if args.trace else spans.NoTracer()
    if args.trace:
        spans.install(tracer)
    tk = tokaudit
    kind = WORKLOADS[args.workload]
    work = kind(args.out, kind.DEFAULT_SEED if args.seed is None else args.seed, tracer)
    t_load = time.perf_counter()
    work.setup(tk)
    t1 = time.perf_counter()
    work.study()
    t2 = time.perf_counter()
    rss = peak_rss_mb()

    result = {
        "workload": args.workload,
        "seed": work.seed,
        "setup_s": t1 - t0,
        "study_s": t2 - t1,
        "evidence": work.evidence(),
        "peak_rss_mb": rss,
        "verdicts": work.verdicts(),
    }
    result["evidence_per_s"] = result["evidence"] / result["study_s"]
    if args.trace:
        result["per_layer"] = spans.per_layer(
            tracer, tk.toymodel.constrained_sampler.cache_info(),
            aborted=result["verdicts"].get("aborted", 0),
            load_config_s=t1 - t_load,
            export_bytes=_dir_bytes(work.export),
        )
        tracer.write(args.out / "spans.npz")
    if args.check:
        t3 = time.perf_counter()
        try:
            ops = work.check()
        except Exception:  # a check that cannot run fails the round, with its traceback
            ops = [("checks", [traceback.format_exc()])]
        failed = [(name, problems) for name, problems in ops if problems]
        result["check_s"] = time.perf_counter() - t3
        result["attempted"] = len(ops)
        result["failed"] = len(failed)
        result["problems"] = [f"{name}: {'; '.join(problems)}" for name, problems in failed[:10]]
    result["fingerprint"] = hashlib.sha256(repr(work.fingerprint_parts()).encode()).hexdigest()
    (args.out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
