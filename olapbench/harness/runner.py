"""Measurement loop, metrics and the command line.

A run is one process with one closed-loop client: the next operation
is sent only after the previous one returned.  Untraced runs
(``--trace 0``) set up ``workload.setup_repeats`` times and report the
median set-up time, then measure the last set-up for ``--seconds`` of
operation time.  Traced runs (``--trace 1``) measure an untraced pass,
set up afresh, and replay the same operations under the layer
wrappers of :mod:`harness.tracing`; every replayed answer must equal
the untraced pass's, so a wrapper that breaks an entry point fails the
run.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.obs import metrics

from harness.answers import load_expected, rows_digest, stream_digest
from harness.tracing import CLIENT, LAYER_METRICS, Tracer
from harness.workloads import WORKLOADS, Adhoc, Workload

#: the answer digest covers this many leading operations of the stream
#: (the loop runs at least this many, so every commit digests the same)
DIGEST_OPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "primary_p50_ms": "ms",
    "primary_p90_ms": "ms",
    "secondary_p50_ms": "ms",
}

#: per-layer metric -> unit (the ``*_ms`` ones are self time per op)
COUNT_METRICS = {
    "analyze.calls": "1/op",
    "engine.result_cache.hit_ratio": "ratio",
    "engine.result_cache.evictions": "1/op",
    "engine.result_cache.stale_evictions": "1/op",
    "engine.result_cache.admit_refused": "1/op",
    "engine.backends.fallbacks": "1/op",
    "algebra.aggregate.groups": "count",
    "engine.rollup_index.builds": "1/op",
    "engine.rollup_index.deltas": "1/op",
    "engine.columnar.layout_reuse_ratio": "ratio",
    "engine.sharded.payload_hit_ratio": "ratio",
    "relational.backend.fallbacks": "1/op",
    "workloads.generate_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "trace.uncovered_ms": "ms",
}
PER_LAYER_UNITS = dict(
    {name: "ms" for name in LAYER_METRICS.values()}, **COUNT_METRICS)


class Pass:
    """What one measured pass over the stream observed."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.regimes: Dict[str, List[float]] = defaultdict(list)
        #: one answer digest per operation, in stream order
        self.digests: List[str] = []
        self.errors: List[str] = []
        self.failed_ops = 0
        self.ops = 0
        self.elapsed = 0.0


def measure(workload: Workload, state, seconds: float,
            limit: Optional[int] = None,
            tracer: Optional[Tracer] = None,
            reference: Optional[List[str]] = None) -> Pass:
    """Run the closed loop until ``seconds`` of operation time (and at
    least ``DIGEST_OPS`` operations), or exactly ``limit`` operations.
    Only the operation itself is timed; answer checks run between
    operations.  A traced pass replays its untraced twin's operations:
    instead of the workload's checks, each answer must equal the
    twin's, whose digests are ``reference``."""
    result = Pass()
    clock = time.perf_counter
    for op in workload.stream(state):
        if limit is not None:
            if result.ops >= limit:
                break
        elif result.elapsed >= seconds and result.ops >= DIGEST_OPS:
            break
        before = workload.before(state, op)
        error = None
        rows = None
        t0 = clock()
        try:
            if tracer is None:
                rows = workload.execute(state, op)
            else:
                with tracer.op(result.ops):
                    rows = workload.execute(state, op)
        except Exception as exc:  # a refused or crashed op is counted
            error = f"{op.key}: {type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        result.ops += 1
        result.elapsed += elapsed
        result.samples[workload.roles[op.kind]].append(elapsed)
        digest = "error"
        if error is None:
            digest = "-" if rows is None else rows_digest(rows)
            if reference is not None:
                want = reference[len(result.digests)]
                if digest != want:
                    error = (f"{op.key}: traced answer {digest} != "
                             f"untraced answer {want}")
            else:
                error, regime = workload.check(state, op, rows, digest,
                                               before)
                result.regimes[regime].append(elapsed)
        if error is not None:
            result.failed_ops += 1
            result.errors.append(error)
        result.digests.append(digest)
    if reference is None:
        errors = workload.finish(state)
        result.failed_ops += len(errors)
        result.errors.extend(errors)
    return result


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload: Workload):
    gc.unfreeze()  # let an earlier set-up's objects be collected
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup()
    elapsed = time.perf_counter() - t0
    # The set-up's objects (the MOs and their indexes) live for the
    # whole run, as in a long-running server.  Freezing them keeps full
    # collections from rescanning them: unfrozen, a ~0.3 s collection
    # lands in about every other dice and the percentiles swing with
    # where the collections fall.
    gc.collect()
    gc.freeze()
    return state, elapsed


def _kinds(workload: Workload) -> Dict[str, str]:
    """End-to-end role -> the workload's operation kind filling it."""
    return {role: kind for kind, role in workload.roles.items()}


def _provenance(workload: Workload, seconds: int, trace: int,
                measured: Pass) -> Dict:
    kinds = _kinds(workload)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "answer_digest": stream_digest(measured.digests[:DIGEST_OPS]),
        "samples": {kinds[role]: len(values)
                    for role, values in sorted(measured.samples.items())},
        "regimes": {
            regime: {"count": len(values),
                     "p50_ms": round(statistics.median(values) * 1e3, 4)}
            for regime, values in sorted(measured.regimes.items())
        },
        "threads": threading.active_count(),
        "child_processes": len(multiprocessing.active_children()),
    }


def untraced_run(workload: Workload, seconds: int):
    setups = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.close(state)
            state = None
        state, elapsed = _setup(workload)
        setups.append(elapsed)
    measured = measure(workload, state, seconds)
    info = _provenance(workload, seconds, 0, measured)
    workload.close(state)
    primary = measured.samples["primary"]
    secondary = measured.samples["secondary"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": measured.ops / measured.elapsed,
        "peak_rss_mb": _peak_rss_mb(),
        "primary_p50_ms": statistics.median(primary) * 1e3,
        "primary_p90_ms": percentile(primary, 90) * 1e3,
        "secondary_p50_ms": statistics.median(secondary) * 1e3,
    }
    kinds = _kinds(workload)
    by_kind = {
        "setup_s": values["setup_s"],
        "ops_per_s": values["ops_per_s"],
        "failed_ratio": measured.failed_ops / measured.ops,
        "peak_rss_mb": values["peak_rss_mb"],
        f"{kinds['primary']}_p50_ms": values["primary_p50_ms"],
        f"{kinds['primary']}_p90_ms": values["primary_p90_ms"],
        f"{kinds['secondary']}_p50_ms": values["secondary_p50_ms"],
    }
    if workload.name == "offload":
        by_kind["sql_p90_ms"] = percentile(secondary, 90) * 1e3
    info["setup_s_each"] = setups
    info["metrics_by_workload_name"] = by_kind
    metrics_out = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    return [measured], metrics_out, info


def _counter_deltas(before: Dict, after: Dict) -> Dict[str, float]:
    names = set(before["counters"]) | set(after["counters"])
    return {name: after["counters"].get(name, 0.0)
            - before["counters"].get(name, 0.0) for name in names}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_run(workload: Workload, seconds: int):
    state, _ = _setup(workload)
    untraced = measure(workload, state, seconds)
    info = _provenance(workload, seconds, 1, untraced)
    workload.close(state)
    state, _ = _setup(workload)
    before = metrics.snapshot()
    with Tracer() as tracer:
        traced = measure(workload, state, seconds, limit=untraced.ops,
                         tracer=tracer, reference=untraced.digests)
    after = metrics.snapshot()
    workload.close(state)

    ops = traced.ops
    selfs = tracer.self_times()
    values: Dict[str, float] = {
        metric: selfs.get(layer, 0.0) / ops * 1e3
        for layer, metric in LAYER_METRICS.items()
    }
    covered = sum(seconds_ for layer, seconds_ in selfs.items()
                  if layer != CLIENT)
    client = tracer.client_seconds()
    counts = _counter_deltas(before, after)
    calls = sum(1 for span in tracer.spans if span[0] == "analyze.check")
    groups_before = before["histograms"].get(
        "aggregate.groups", {"count": 0, "total": 0.0})
    groups_after = after["histograms"].get(
        "aggregate.groups", {"count": 0, "total": 0.0})
    values.update({
        "analyze.calls": calls / ops,
        "engine.result_cache.hit_ratio": _ratio(
            counts.get("query.cache.hit", 0.0),
            counts.get("query.cache.hit", 0.0)
            + counts.get("query.cache.miss", 0.0)),
        "engine.result_cache.evictions":
            counts.get("query.cache.evicted", 0.0) / ops,
        "engine.result_cache.stale_evictions":
            counts.get("query.cache.stale_evicted", 0.0) / ops,
        "engine.result_cache.admit_refused":
            counts.get("query.cache.admit_refused", 0.0) / ops,
        "engine.backends.fallbacks": (
            counts.get("query.backend.fallback", 0.0)
            + counts.get("sql.pushdown.fallback", 0.0)) / ops,
        "algebra.aggregate.groups": _ratio(
            groups_after["total"] - groups_before["total"],
            groups_after["count"] - groups_before["count"]),
        "engine.rollup_index.builds":
            counts.get("rollup_index.builds", 0.0) / ops,
        "engine.rollup_index.deltas":
            counts.get("rollup_index.delta_applied", 0.0) / ops,
        "engine.columnar.layout_reuse_ratio": _ratio(
            counts.get("columnar.hit", 0.0),
            counts.get("columnar.hit", 0.0)
            + counts.get("columnar.build", 0.0)),
        "engine.sharded.payload_hit_ratio": _ratio(
            counts.get("sharded.payload.cache_hit", 0.0),
            counts.get("sharded.payload.cache_hit", 0.0)
            + counts.get("sharded.payload.build", 0.0)),
        "relational.backend.fallbacks":
            counts.get("sql.pushdown.fallback", 0.0) / ops,
        "workloads.generate_ms": state.generate_seconds * 1e3,
        "trace.overhead_ratio": traced.elapsed / untraced.elapsed,
        "trace.coverage_ratio": _ratio(covered, client),
        "trace.uncovered_ms": selfs.get(CLIENT, 0.0) / ops * 1e3,
    })
    info["uncovered"] = (
        "client-side time outside every layer span: Query construction "
        "and dice()/rollup() builders, function construction, and the "
        "benchmark loop between the op's clock reads")
    metrics_out = {name: {"value": values[name],
                          "unit": PER_LAYER_UNITS[name]}
                   for name in PER_LAYER_UNITS}
    return [untraced, traced], metrics_out, info


def make_workload(name: str, seed: int) -> Workload:
    if name == "adhoc":
        return Adhoc(seed, expected=load_expected())
    return WORKLOADS[name](seed)


def run(workload: Workload, seconds: int, trace: int):
    """``(result line dict, provenance dict, errors)`` for one run."""
    if trace:
        passes, metrics_out, info = traced_run(workload, seconds)
    else:
        passes, metrics_out, info = untraced_run(workload, seconds)
    failed = sum(p.failed_ops for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "metrics": metrics_out,
    }
    return result, info, [e for p in passes for e in p.errors]


def _table(result: Dict, info: Dict) -> str:
    lines = [f"workload={info['workload']} seed={info['seed']} "
             f"trace={info['trace']} nproc={info['nproc']} "
             f"python={info['python']} digest={info['answer_digest']}"]
    for name, value in info.get("metrics_by_workload_name", {}).items():
        lines.append(f"  {name:<24} {value:12.4f}")
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<40} {metric['value']:14.4f} "
                     f"{metric['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end OLAP benchmark (one workload per run).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = make_workload(args.workload, args.seed)
    result, info, errors = run(workload, args.seconds, args.trace)
    for error in errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    print(_table(result, info))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
