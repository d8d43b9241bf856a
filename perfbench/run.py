#!/usr/bin/env python3
"""Round benchmark for the peer-data-exchange repro.

Run from the root of a checkout::

    python3 perfbench/run.py --workload delta-journaled --seed 1 --seconds 20 --trace 0

Workloads: ``delta-journaled``, ``snapshot-netd``, ``cold-figure3`` (see
``perfbench/workloads.py`` for why each was chosen).  The program is
imported from ``./src``; a directory without it is refused (exit 2).  The
process runs on one CPU.

``--trace 0`` measures the untraced round loop and prints the end-to-end
metrics.  ``--trace 1`` alternates traced and untraced rounds and prints
the per-layer metrics, the tracing overhead and the part of the round's
wall time no layer accounts for.  Human-readable lines come first; the
last line of standard output is one JSON object.  The exit status is 0
when every correctness check passed, 1 when one failed, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median


def _import_program() -> None:
    """Put ``./src`` first on the path and check ``repro`` comes from it."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro; run from a checkout root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _pin_to_one_cpu() -> int | None:
    """Run this process, and every thread it starts, on one CPU.

    The ``snapshot-netd`` daemon solves in a worker thread while the event
    loop wakes every 10 ms to poll for the ACK, so the two threads hand the
    GIL back and forth many times a round.  Across two CPUs each hand-off
    waits for the other CPU to wake, and how long that takes depends on the
    rest of the host's load; on one CPU it is a plain context switch.
    Returns the CPU, or ``None`` where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it.

    Nearest-rank percentiles: percentile ``p`` of ``n`` sorted samples is
    the sample at rank ``ceil(p * n / 100)``.  Returns ``(p, value)``; a
    run too short for any percentile from p50 up reports its maximum as
    p100.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    for percentile in range(99, 49, -1):
        rank = math.ceil(percentile * count / 100)
        if count - rank >= 10:
            return percentile, ordered[rank - 1]
    return 100, ordered[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run) -> tuple[dict, list[str], dict]:
    """The ``BENCHMARK.json`` end-to-end metrics, notes, and report-only extras."""
    latencies = run.latencies_ms
    percentile, tail_ms = tail(latencies)
    metrics = {
        "round_p50_ms": (median(latencies), "ms"),
        "round_tail_ms": (tail_ms, "ms"),
        # One caller in a closed loop: rounds per second of time spent
        # waiting on the system (the benchmark's own input generation and
        # checks are not counted).
        "rounds_per_s": (len(latencies) / (sum(latencies) / 1000.0), "1/s"),
        "setup_s": (median(run.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"round_tail_ms is p{percentile} of n={len(latencies)} rounds",
        f"setup_s is the median of {len(run.setup_s)} set-ups: "
        + ", ".join(f"{value:.3f}" for value in run.setup_s),
    ]
    extra = {"failed_ratio": (len(run.failures) / run.attempted, "ratio")}
    if run.resume_s is not None:
        extra["resume_s"] = (run.resume_s, "s")
        extra["journal_bytes_per_round"] = (run.journal_bytes_per_round, "bytes")
    return metrics, notes, extra


def per_layer(run, tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced round, and the time-accounting notes."""
    traced = [lat for lat, flag in zip(run.latencies_ms, run.traced) if flag]
    untraced = [lat for lat, flag in zip(run.latencies_ms, run.traced) if not flag]
    rounds = len(traced)
    wall = sum(traced)
    layer = tracer.layers  # a defaultdict: a layer that never ran reads as zeros

    def ms(name: str) -> tuple[float, str]:
        return layer[name].total_ms / rounds, "ms"

    def count(name: str, counter: str) -> tuple[float, str]:
        return layer[name].counters[counter] / rounds, "count"

    def solver_ratio(counter: str) -> tuple[float, str]:
        calls = layer["solver.incremental"].calls
        return (layer["solver.incremental"].counters[counter] / calls if calls else 0.0), "ratio"

    sync_ms = layer["sync.session"].outer_ms
    residual = wall - tracer.root_ms
    values = {
        "sync.session.round_ms": (sync_ms / rounds, "ms"),
        "sync.session.self_ms": (layer["sync.session"].self_ms / rounds, "ms"),
        "sync.session.retracted_facts": count("sync.session", "retracted_facts"),
        "sync.session.added_facts": count("sync.session", "added_facts"),
        "core.instance.copy_ms": ms("core.instance.copy"),
        "core.instance.union_ms": ms("core.instance.union"),
        "core.instance.diff_ms": ms("core.instance.diff"),
        "core.instance.restrict_ms": ms("core.instance.restrict"),
        "core.instance.facts_copied": (
            (layer["core.instance.copy"].counters["facts_copied"]
             + layer["core.instance.union"].counters["facts_copied"]) / rounds,
            "count",
        ),
        "solver.incremental.solve_ms": ms("solver.incremental"),
        "solver.incremental.warm_ratio": solver_ratio("warm"),
        "solver.incremental.fallback_ratio": solver_ratio("fallback"),
        "core.chase.incremental_ms": ms("core.chase.incremental"),
        "core.chase.refired": count("core.chase.incremental", "refired"),
        "core.chase.retracted": count("core.chase.incremental", "retracted"),
        "core.chase.chase_ms": ms("core.chase.chase"),
        "core.chase.steps": count("core.chase.chase", "steps"),
        "core.blocks.decompose_ms": ms("core.blocks.decompose"),
        "core.blocks.blocks": count("core.blocks.decompose", "blocks"),
        "core.homomorphism.embed_ms": ms("core.homomorphism.embed"),
        "core.homomorphism.embed_calls": (layer["core.homomorphism.embed"].calls / rounds, "count"),
        "tractability.classify_ms": ms("tractability.classify"),
        "solver.solve.self_ms": (layer["solver.solve"].self_ms / rounds, "ms"),
        "runtime.journal.record_ms": ms("runtime.journal.record"),
        "runtime.journal.header_ms": ms("runtime.journal.header"),
        "runtime.journal.append_ms": ms("runtime.journal.append"),
        "io.serialization.encode_ms": ms("io.serialization.encode"),
        "runtime.journal.load_ms": (run.counts.get("runtime.journal.load_ms", 0.0), "ms"),
        "runtime.journal.bytes_per_round": (run.journal_bytes_per_round or 0.0, "bytes"),
        "netd.frames.encode_ms": ms("netd.frames.encode"),
        "netd.frames.decode_ms": ms("netd.frames.decode"),
        "netd.frames.bytes_per_round": (layer["netd.frames.encode"].counters["bytes"] / rounds, "bytes"),
        # publish -> ACK minus the hosted session's round.
        "netd.client.overhead_ms": (
            (wall - sync_ms) / rounds if layer["netd.frames.encode"].calls else 0.0, "ms"
        ),
        "netd.daemon.frames_received": (
            run.counts.get("netd.daemon.frames_received", 0) / rounds, "count"
        ),
        "trace.overhead_ms": (median(traced) - median(untraced), "ms"),
        "trace.residual_ms": (residual / rounds, "ms"),
    }

    # The self times of all spans sum to the root spans' time; what the
    # round's wall clock saw beyond that is the unaccounted residual.
    notes = [
        f"traced rounds: {rounds}, traced p50 {median(traced):.2f} ms, "
        f"untraced p50 {median(untraced):.2f} ms (n={len(untraced)})",
        "self time per round, by layer (probes in brackets are inclusive and "
        "already inside their caller's self time):",
    ]
    spans = [(name, stats) for name, stats in layer.items() if stats.calls]
    for name, stats in sorted(spans, key=lambda item: -item[1].self_ms):
        if not name.startswith("core.instance."):
            notes.append(
                f"  {name:<28} {stats.self_ms / rounds:10.3f} ms  "
                f"{100.0 * stats.self_ms / wall:5.1f}%  calls/round={stats.calls / rounds:.2f}"
            )
    notes.append(
        f"  {'(unaccounted residual)':<28} {residual / rounds:10.3f} ms  "
        f"{100.0 * residual / wall:5.1f}%"
    )
    for name, stats in sorted(spans):
        if name.startswith("core.instance."):
            notes.append(
                f"  [{name}] {stats.total_ms / rounds:.3f} ms/round, "
                f"calls/round={stats.calls / rounds:.2f}"
            )
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cpu = _pin_to_one_cpu()
    _import_program()
    from layers import layer_tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    tracer = layer_tracer() if args.trace else None
    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, tmp, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"workload {args.workload}, seed {args.seed}: {run.size}; "
          "closed loop, one caller, one process"
          + (f" on CPU {cpu}" if cpu is not None else ""))
    if args.trace:
        metrics, notes = per_layer(run, tracer)
    else:
        metrics, notes, extra = end_to_end(run)
        for name, (value, unit) in extra.items():
            print(f"  {name:<26} {value:14.4f} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:14.4f} {unit}")
    for note in notes:
        print(f"  {note}")
    for finding in run.findings:
        print(f"  known defect (not counted as failed): {finding}")
    for failure in run.failures[:20]:
        print(f"  FAILED: {failure}")
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
