"""Per-layer metrics of a traced run, reported per job.

Self times are given as a share (%) of the traced job time, so that the
shares of one workload add up to 100 % together with
``trace.unaccounted.share`` (the benchmark's own code between wrapped calls);
a layer a workload does not reach reads 0 %.  Counts are per job.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import workloads as w
from tracing import TRACED, Tracer


def calls_name(span: str) -> str:
    # evolve_expectations' self time is the oracle's propagation work
    return "oracle.evolve_expectations.calls" if span == "oracle.propagate" else f"{span}.calls"


# (name, unit, better): the per_layer list of BENCHMARK.json, in order
METRICS = (
    [(calls_name(span), "count", "lower") for _, _, span in TRACED]
    + [(f"{span}.share", "%", "lower") for _, _, span in TRACED]
    + [
        ("packet.n_max", "count", "lower"),
        ("dynamics.terms", "count", "lower"),
        ("dynamics.axial_probe.share", "%", "lower"),
        ("oracle.dim", "count", "lower"),
        ("oracle.propagate.gflop", "GFLOP", "lower"),
        ("oracle.propagate.gflops", "GFLOP/s", "higher"),
        ("oracle.max_rel_dev", "ratio", "lower"),
        ("oracle.short_window.rel_dev", "ratio", "lower"),
        ("cli.write_record.bytes", "bytes", "lower"),
        ("trace.job_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unaccounted.share", "%", "lower"),
    ]
)


def traced_run(loop, seconds: float) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        loop.run(seconds, keep=True)
    finally:
        tracer.remove()
    return tracer


def short_window_deviation(pairs) -> float:
    """Series vs oracle for the critical-field packet over 100 t_c.

    Not gated: at 100 t_c the oracle picks a 512-node Gauss-Hermite axial
    rule that it never verifies, and misses the 1e-6 target.
    """
    pair = next(p for p in pairs if p.packet.dimensionality == "3+1")
    short = w.Pair(pair.label, pair.packet, pair.field, np.linspace(0.0, 100.0, 201), pair.guard)
    _, traj, evolved = w.run_pair(short)
    return w.pair_deviation(traj, evolved)[0]


def axial_probe_seconds(signals) -> float:
    """trajectory_3p1 on each signal's nine probe samples: the axial-rule search."""
    total = 0.0
    for sig in signals:
        coeffs = w.packet_mod.coefficient_matrix(sig.packet, sig.field)
        probe = sig.times[np.unique(np.linspace(0, sig.times.size - 1, 9).astype(int))]
        start = time.perf_counter()
        w.dynamics.trajectory_3p1(sig.packet, coeffs, sig.field, probe,
                                  parts=sig.parts, kz_rtol=sig.kz_rtol)
        total += time.perf_counter() - start
    return total


def metrics(name: str, workload, plain, traced, tracer: Tracer) -> dict:
    jobs = len(traced.times)
    busy = sum(traced.times)
    values = {}
    for _, _, span in TRACED:
        values[calls_name(span)] = tracer.calls[span] / jobs
        values[f"{span}.share"] = 100.0 * tracer.self_s[span] / busy
    for key in ("packet.n_max", "dynamics.terms", "oracle.propagate.gflop",
                "cli.write_record.bytes"):
        values[key] = tracer.counts[key] / jobs
    values["oracle.dim"] = tracer.counts["oracle.dim"]
    prop_s = tracer.self_s["oracle.propagate"]
    values["oracle.propagate.gflops"] = tracer.counts["oracle.propagate.gflop"] / prop_s if prop_s else 0.0

    deviations = [0.0]
    probe_share = short_dev = 0.0
    if name == "certify":
        deviations += [w.pair_deviation(t, e)[0] for r in traced.results for _, t, e in r]
        short_dev = short_window_deviation(workload.inputs)
    elif name == "envelope":
        probe_share = 100.0 * axial_probe_seconds(workload.inputs) / statistics.median(traced.times)
    else:
        deviations += [d for r in traced.results for d in w.oracle_deviations(r)]
    values["oracle.max_rel_dev"] = max(deviations)
    values["oracle.short_window.rel_dev"] = short_dev
    values["dynamics.axial_probe.share"] = probe_share

    values["trace.job_s"] = traced.median
    values["trace.overhead_s"] = traced.median - plain.median
    values["trace.unaccounted.share"] = 100.0 - sum(
        values[f"{span}.share"] for _, _, span in TRACED
    )
    units = {n: u for n, u, _ in METRICS}
    return {n: {"value": values[n], "unit": units[n]} for n, _, _ in METRICS}
