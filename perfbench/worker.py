"""Runs one workload in a fresh interpreter and writes its raw results as JSON.

run.py starts this script with BLAS threads pinned to 1 and passes the
monotonic time at which it spawned the process, so that set-up time
covers interpreter start-up, ``import nqkd`` and input generation.  The
script is a single closed-loop client: each op starts when the previous
one has finished.  After one untimed cycle, ops run in cycles
until ``--seconds`` have passed, each cycle on one of the usable CPUs in
turn; every op is timed alone, with every nqkd cache cleared first,
because each CLI call is a fresh process for its users.

With ``--trace 1`` each cycle runs twice on the same inputs, untraced
and then traced, and the outputs of the two must be byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from spans import Tracer


@dataclass
class CycleRun:
    seconds: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, dict] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def package_caches() -> list:
    """Every functools cache in the nqkd modules."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "nqkd" or name.startswith("nqkd."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def run_cycle(ops: list, tables: dict, caches: list, tracer: Tracer | None = None) -> CycleRun:
    run = CycleRun()
    gc.collect()  # once a cycle: before every op it would cost a fifth of the run
    for op in ops:
        for cache in caches:
            cache.cache_clear()
        try:
            start = time.perf_counter()
            try:
                result = workloads.execute(op)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    run.spans[op.name] = tracer.take()
            output = workloads.collect(op, result)
            workloads.check(op, output, tables)
        except (Exception, SystemExit) as exc:  # a failed op is counted and the run goes on
            run.failures.append(f"{op.name}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            continue
        run.seconds[op.name] = elapsed
        run.outputs[op.name] = output
    return run


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def place(cycle: int, cpus: list[int]) -> None:
    """Run this cycle on one CPU, taking the usable CPUs in turn.

    A single busy process stays on the CPU it started on, and on a shared
    virtual machine one CPU can run 25% slower than the other for minutes
    while a neighbour is busy.  Taking the CPUs in turn lets every run see
    each of them instead of whichever one it started on.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[cycle % len(cpus)]})


def warm_up(args, tables: dict, caches: list) -> None:
    """One untimed cycle, so that first-call costs land in no sample.

    It is a whole cycle of the workload because the first cycle in a fresh
    process runs some ops (N=20 sampling, the N=7-8 router oracles) 20-40%
    faster than any later one, and only in some runs: its heap has not been
    reused yet.  Timed, it would decide the best time of those ops.
    """
    ops = workloads.build_cycle(args.workload, args.seed, -1, Path(args.workdir) / "warmup")
    run_cycle(ops, tables, caches)


def add_samples(samples: dict[str, list[float]], values: dict[str, list[float]]) -> None:
    for name, seen in values.items():
        samples.setdefault(name, []).extend(seen)


def plain_cycles(args, first: list, tables: dict, caches: list) -> dict:
    times: dict[str, list[float]] = {}
    failures, attempted = [], 0
    cpus = usable_cpus()
    warm_up(args, tables, caches)
    start = time.monotonic()
    ops, cycle = first, 0
    while True:
        place(cycle, cpus)
        run = run_cycle(ops, tables, caches)
        attempted += len(ops)
        failures += run.failures
        for name, seconds in run.seconds.items():
            times.setdefault(name, []).append(seconds)
        cycle += 1
        if time.monotonic() - start >= args.seconds:
            break
        ops = workloads.build_cycle(args.workload, args.seed, cycle, Path(args.workdir))
    best = workloads.metric_values(first, {name: min(seen) for name, seen in times.items()})
    typical = workloads.metric_values(first, {name: statistics.median(seen) for name, seen in times.items()})
    samples: dict[str, dict] = {}
    for op in first:
        entry = samples.setdefault(op.metric, {"ops": 0, "fewest_runs": cycle, "best": best.get(op.metric),
                                               "from_medians": typical.get(op.metric)})
        entry["ops"] += 1
        entry["fewest_runs"] = min(entry["fewest_runs"], len(times.get(op.name, ())))
    return {
        "cycles": cycle,
        "best": best,
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
    }


def traced_cycles(args, first: list, tables: dict, caches: list) -> dict:
    tracer = Tracer()
    samples: dict[str, list[float]] = {}
    failures, mismatches, attempted = [], [], 0
    span_calls: dict[str, int] = {}
    cpus = usable_cpus()
    warm_up(args, tables, caches)
    start = time.monotonic()
    ops, cycle = first, 0
    while True:
        place(cycle, cpus)  # both halves of a pair on the same CPU
        plain = run_cycle(ops, tables, caches)
        tracer.install()
        try:
            traced = run_cycle(ops, tables, caches, tracer)
        finally:
            tracer.uninstall()
        attempted += 2 * len(ops)
        failures += plain.failures + traced.failures
        both = [op for op in ops if op.name in plain.outputs and op.name in traced.outputs]
        mismatches += [
            op.name for op in both
            if workloads.digest(op, plain.outputs[op.name]) != workloads.digest(op, traced.outputs[op.name])
        ]
        layer = workloads.layer_metrics(ops, traced.spans, traced.outputs)
        plain_s = sum(plain.seconds[op.name] for op in both)
        traced_s = sum(traced.seconds[op.name] for op in both)
        if plain_s > 0.0:
            layer["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
        add_samples(samples, {name: [value] for name, value in layer.items()})
        for totals in traced.spans.values():
            for target, entry in totals.items():
                span_calls[target] = span_calls.get(target, 0) + entry["calls"]
        cycle += 1
        if time.monotonic() - start >= args.seconds:
            break
        ops = workloads.build_cycle(args.workload, args.seed, cycle, Path(args.workdir))
    return {
        "cycles": cycle,
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "mismatches": mismatches,
        "absent": tracer.absent,
        "span_calls": span_calls,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/nqkd and tests/")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import numpy
    import nqkd
    import nqkd.cli  # noqa: F401  (the CLI module is not imported by the package)

    if root.resolve() / "src" not in Path(nqkd.__file__).resolve().parents:
        raise SystemExit(f"nqkd was imported from {nqkd.__file__}, not from {root / 'src'}")

    tables = checks.read_pinned_tables(root / "tests" / "test_acceptance.py")
    first = workloads.build_cycle(args.workload, args.seed, 0, Path(args.workdir))
    result: dict = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        usable_cpus_at_start = usable_cpus()
        caches = package_caches()
        loop = traced_cycles if args.trace else plain_cycles
        result.update(loop(args, first, tables, caches))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["cpus_alternated"] = usable_cpus_at_start
        result["python"] = platform.python_version()
        result["numpy"] = numpy.__version__
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
