"""Metric names, units and the statistics computed from one run.

``LAYER_MOVES`` records, before any optimisation is measured, which
end-to-end metric on which workload each per-layer metric is expected to
move.  A later change cites these names when it claims a gain.
"""

import math
import statistics

from tracer import ROOT_LAYER, self_times

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "util.coerce.calls": "count",
    "util.coerce.self_s": "s",
    "spectra.enumerate.calls": "count",
    "spectra.enumerate.self_s": "s",
    "spectra.pairing_checks": "count",
    "spectra.orderings": "count",
    "spectra.keep_ratio": "ratio",
    "realize.check.calls": "count",
    "realize.check.self_s": "s",
    "realize.head_bound.self_s": "s",
    "realize.brauer.self_s": "s",
    "realize.construct.self_s": "s",
    "realize.pair_space": "count",
    "realize.enumerations_per_check": "count",
    "realize.witness_rate": "ratio",
    "dft.recover.calls": "count",
    "dft.recover.self_s": "s",
    "dft.forward.calls": "count",
    "dft.forward.self_s": "s",
    "structured.dense.calls": "count",
    "structured.dense.self_s": "s",
    "blocks.build.calls": "count",
    "blocks.build.self_s": "s",
    "oracle.spectrum.calls": "count",
    "oracle.spectrum.self_s": "s",
    "oracle.match.calls": "count",
    "oracle.match.self_s": "s",
    "oracle.false_rejects": "count",
    "oracle.residual_over_tol_max": "ratio",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

LAYER_MOVES = {
    "util.coerce": "ops_per_s on search",
    "spectra.enumerate": "latency_p50_ms and ops_per_s on search",
    "realize.check": "ops_per_s and latency_tail_ms on search (the miss scans)",
    "realize.head_bound": "ops_per_s on search",
    "realize.brauer": "ops_per_s on search",
    "realize.construct": "latency_p50_ms on verify_dense",
    "dft.recover": "ops_per_s on search",
    "dft.forward": "latency_p50_ms on verify_dense",
    "structured.dense": "verify_dense; bordered misses on search",
    "blocks.build": "latency_p50_ms on verify_dense",
    "oracle.spectrum": "latency_p50_ms on verify_dense",
    "oracle.match": "latency_p50_ms on verify_dense",
    "oracle.false_rejects": "defective_probe.false_reject_share on verify_dense (report line)",
    "cli": "latency_p50_ms on verify_dense (in-process CLI calls); setup_s on every workload",
}

#: Tail percentile per workload.  It is fixed, not recomputed per run, so
#: that a faster program, which completes more operations, is not judged on
#: a higher percentile than its parent.  ``search`` uses the highest of 50,
#: 75, 90, 95, 99 and 99.9 with at least ten samples beyond it in a run.
#: ``verify_dense`` uses p99, not p99.9: its top 0.1% are the rare slow CLI
#: calls (up to ten times their median), set by the host's scheduling, and
#: p99.9 spread across runs by up to 0.59 of its median.
TAIL_PERCENTILE = {
    "search": 95.0,
    "verify_dense": 99.0,
}


def samples_for_tail(pct):
    """Fewest samples that leave ten beyond the ``pct`` percentile."""
    n = 10
    while n - math.ceil(pct / 100.0 * n) < 10:
        n += 1
    return n


def latency_summary(latencies, pct):
    """Median and ``pct`` percentile latency in ms (nearest rank), with the
    number of samples beyond the percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return {
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[rank - 1] * 1e3,
        "tail_percentile": pct,
        "tail_samples_beyond": n - rank,
        "samples": n,
    }


def layer_metrics(tracer, ops):
    """Per-operation counts and self times from the spans of ``ops`` operations."""
    dur, own = self_times(tracer)
    layer_of = [layer for layer, _ in tracer.fids]
    qual_of = [qual for _, qual in tracer.fids]
    calls, self_s = {}, {}
    for fid, d in zip(tracer.fid, own):
        layer = layer_of[fid]
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + d

    checks = {}
    orderings = 0
    nested = 0
    for idx, fid in enumerate(tracer.fid):
        if layer_of[fid] == "realize.check":
            checks.setdefault(idx, {})
        elif layer_of[fid] == "spectra.enumerate":
            orderings += tracer.note[idx]
            anc = tracer.parent[idx]
            while anc >= 0 and layer_of[tracer.fid[anc]] != "realize.check":
                anc = tracer.parent[anc]
            if anc >= 0:
                nested += 1
                side = "skew" if "skew" in qual_of[fid] else "circulant"
                seen = checks.setdefault(anc, {})
                seen[side] = max(seen.get(side, 0), tracer.note[idx])
    n_checks = len(checks)
    pair_space = sum(c.get("skew", 0) * c.get("circulant", 0) for c in checks.values())
    satisfied = sum(tracer.note[idx] for idx in checks)

    def per_op(value):
        return value / ops

    out = {}
    for layer in (
        "util.coerce", "spectra.enumerate", "realize.check", "dft.recover",
        "dft.forward", "structured.dense", "blocks.build", "oracle.spectrum",
        "oracle.match", "cli.main",
    ):
        out[f"{layer}.calls"] = per_op(calls.get(layer, 0))
        out[f"{layer}.self_s"] = per_op(self_s.get(layer, 0.0))
    for layer in ("realize.head_bound", "realize.brauer", "realize.construct"):
        out[f"{layer}.self_s"] = per_op(self_s.get(layer, 0.0))
    out["spectra.pairing_checks"] = per_op(tracer.pairing_checks)
    out["spectra.orderings"] = per_op(orderings)
    out["spectra.keep_ratio"] = orderings / tracer.pairing_checks if tracer.pairing_checks else 0.0
    out["realize.pair_space"] = pair_space / n_checks if n_checks else 0.0
    out["realize.enumerations_per_check"] = nested / n_checks if n_checks else 0.0
    out["realize.witness_rate"] = satisfied / n_checks if n_checks else 0.0

    roots = sum(d for d, p in zip(dur, tracer.parent) if p < 0)
    accounting = {
        "spans": len(dur),
        "root_span_s": roots,
        "self_sum_s": sum(own),
        "self_s_by_layer": {k: v for k, v in sorted(self_s.items())},
        "harness_self_s": self_s.get(ROOT_LAYER, 0.0),
    }
    return out, accounting
