"""Spans around the calls between tokaudit's layers, and the per-layer metrics.

The wrappers replace a function in the namespace of the module that calls
it, so each span is the call as that module sees it. Spans are kept in
memory (name, start, end, parent) and written out once the study ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list = []
        # name -> list of (span index, value) recorded by the hooks below
        self.notes: dict = {}

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def note(self, name, idx, value):
        self.notes.setdefault(name, []).append((idx, value))

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a spanned call.

        before(args, kwargs) runs outside the span and its result is handed
        to after(idx, args, kwargs, result, token), which also runs outside.
        """
        orig = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                after(idx, args, kwargs, result, token)
            return result

        spanned.__wrapped__ = orig
        setattr(owner, attr, spanned)

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def write(self, path):
        name, start, end, parent = self.arrays()
        np.savez(path, name=name, start=start, end=end, parent=parent,
                 names=np.array(json.dumps(self.names)))


class NoTracer:
    """Stand-in with the same span() call, for untraced runs."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


def install(tracer: Tracer):
    """Wrap every call between tokaudit's layers that a per-layer metric uses."""
    from tokaudit import audit, cli, harness, oracle, toymodel

    sampler_cache = toymodel.constrained_sampler

    def misses(args, kwargs):
        return sampler_cache.cache_info().misses

    def estimate_done(idx, args, kwargs, result, before):
        tracer.note("cold", idx, sampler_cache.cache_info().misses > before)
        tracer.note("k_used", idx, result.k_used)

    def wealth_done(idx, args, kwargs, result, token):
        tracer.note("wealth_step", idx, args[0].step + 1)

    def tokenizations_done(idx, args, kwargs, result, token):
        tracer.note("tokenizations", idx, len(result))

    for module in (audit, oracle):
        tracer.wrap(module, "sample_sequence", "toymodel.sample_sequence")
        tracer.wrap(module, "apply_policy", "policies.apply_policy")
        tracer.wrap(module, "estimate_length", "estimator.estimate_length",
                    before=misses, after=estimate_done)
    tracer.wrap(audit, "update_wealth", "audit.update_wealth", after=wealth_done)
    tracer.wrap(harness, "run_audit", "audit.run_audit")
    tracer.wrap(harness, "write_outputs", "harness.write_outputs")
    tracer.wrap(oracle, "enumerate_tokenizations", "tokenspace.enumerate_tokenizations",
                after=tokenizations_done)
    for module in (oracle, cli):
        tracer.wrap(module, "enumerate_output_distribution", "oracle.enumerate_output_distribution")
    for name in ("conditional_expected_length", "evidence_moments", "exact_intensity"):
        tracer.wrap(cli, name, f"oracle.{name}")
    tracer.wrap(toymodel.ConstrainedSampler, "sample", "toymodel.ConstrainedSampler.sample")


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def per_layer(tracer: Tracer, sampler_info, aborted: int, load_config_s: float, export_bytes: int):
    """Per-layer metrics from the spans; a layer that never ran reads 0."""
    name, start, end, parent = tracer.arrays()
    dur = (end - start) / 1e3  # microseconds
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_us = dur - child
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(span_name):
        nid = ids.get(span_name)
        return np.flatnonzero(name == nid) if nid is not None else np.empty(0, dtype=np.int64)

    def noted(key):
        pairs = tracer.notes.get(key, [])
        return (np.array([i for i, _ in pairs], dtype=np.int64),
                np.array([v for _, v in pairs], dtype=np.float64))

    est_idx, cold = noted("cold")
    _, k_used = noted("k_used")
    cold = cold.astype(bool)
    wealth_idx, wealth_step = noted("wealth_step")
    wealth_us = dur[wealth_idx]
    last_tenth = wealth_step > 0.9 * wealth_step.max() if len(wealth_step) else wealth_step > 0
    audits = sel("audit.run_audit")
    _, tokenizations = noted("tokenizations")
    hits, misses = sampler_info.hits, sampler_info.misses
    cond = sel("oracle.conditional_expected_length")

    def total_s(span_name):
        return float(dur[sel(span_name)].sum()) / 1e6

    return {
        "toymodel.generate_us_p50": _pct(dur[sel("toymodel.sample_sequence")], 50),
        "toymodel.draw_us_p50": _pct(dur[sel("toymodel.ConstrainedSampler.sample")], 50),
        "toymodel.sampler_builds": misses,
        "toymodel.sampler_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "estimator.cold_us_p50": _pct(dur[est_idx[cold]], 50),
        "estimator.cold_us_p99": _pct(dur[est_idx[cold]], 99),
        "estimator.warm_us_p50": _pct(dur[est_idx[~cold]], 50),
        "estimator.warm_us_p99": _pct(dur[est_idx[~cold]], 99),
        "estimator.samples_per_estimate": _mean(k_used),
        "estimator.self_us_per_estimate": _mean(self_us[est_idx]),
        "policies.report_us_p50": _pct(dur[sel("policies.apply_policy")], 50),
        "audit.wealth_us_mean": _mean(wealth_us),
        "audit.wealth_us_last_tenth": _mean(wealth_us[last_tenth]),
        "audit.loop_self_us_per_step": float(self_us[audits].sum()) / len(wealth_idx) if len(wealth_idx) else 0.0,
        "audit.calibrate_s": total_s("audit.calibration_report"),
        "audit.aborted": aborted,
        "oracle.enumerate_s": total_s("oracle.enumerate_output_distribution"),
        "oracle.cond_len_s": total_s("oracle.conditional_expected_length"),
        "oracle.cond_len_us_p50": _pct(dur[cond], 50),
        "oracle.intensity_s": total_s("oracle.exact_intensity"),
        "oracle.moments_s": total_s("oracle.evidence_moments"),
        "tokenspace.enumerate_s": total_s("tokenspace.enumerate_tokenizations"),
        "tokenspace.tokenizations_enumerated": int(tokenizations.sum()),
        "harness.load_config_ms": load_config_s * 1e3,
        "harness.export_s": total_s("harness.write_outputs"),
        "harness.export_mb": export_bytes / 1e6,
    }
