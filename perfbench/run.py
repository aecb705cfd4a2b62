"""Benchmark of nqkd: runs one workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are listed in BENCHMARK.json.  Each run starts
fresh interpreters (perfbench/worker.py) with BLAS threads pinned to 1:
a few that only set up, so that setup_s is a median, and one that runs
the workload.  With --trace 0 the metrics are the end-to-end ones: each
timing is built from the best time, over the run, of each of its pieces
(one command or oracle check), and set-up time is a median.  With
--trace 1 they are the per-layer ones from a traced run, medians over its
cycles.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The lines before it record
the environment, the known cliffs that are never run, and how many times
each piece ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, SKIPPED, WORKLOADS  # noqa: E402

SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
PINNED_THREADS = "1"
NUMPY_MADVISE_HUGEPAGE = "0"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return None


def worker_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = PINNED_THREADS
    env.pop("NQKD_DENSE_CAP", None)  # the default cap decides which sampler runs
    # numpy asks for transparent huge pages on large arrays; whether the
    # machine has any free decides, run by run, whether the 160 MB temporary
    # of the N=20 sampler costs 0.3 s or 0.5 s, so the benchmark never asks
    env["NUMPY_MADVISE_HUGEPAGE"] = NUMPY_MADVISE_HUGEPAGE
    return env


def spawn_worker(args, root: Path, workdir: Path, name: str, deadline: float, setup_only: bool) -> dict:
    """Run worker.py to completion in a fresh interpreter and return its result."""
    result = workdir / f"{name}.result.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(root),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir / name),
        "--result", str(result),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    # stdout stays free for the result line; the worker has nothing to say there
    subprocess.run(command, env=worker_env(), stdout=sys.stderr, check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(result.read_text(encoding="utf-8"))


def distribution(seen: list[float]) -> dict:
    if not seen:
        return {"n": 0}
    return {"n": len(seen), "min": min(seen), "median": statistics.median(seen), "max": max(seen)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one nqkd benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # on SIGTERM, unwind as on an error: subprocess.run kills and waits for
    # the running worker, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    root = HERE.parent
    needed = [root / "src" / "nqkd" / "__init__.py", root / "tests" / "test_acceptance.py"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of nqkd, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = {
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": PINNED_THREADS,
        "numpy_madvise_hugepage": NUMPY_MADVISE_HUGEPAGE,
        "loadavg_start": loadavg(),
    }
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        setups = [
            spawn_worker(args, root, workdir, f"setup{i}", deadline, setup_only=True)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        run = spawn_worker(args, root, workdir, "main", deadline, setup_only=False)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(run["setup_s"])
    env.update(numpy=run["numpy"], worker_python=run["python"], cpus_alternated=run["cpus_alternated"],
               loadavg_end=loadavg())

    table = [entry[:3] for entry in PER_LAYER] if args.trace else list(END_TO_END)
    if args.trace:
        # per-layer values are medians over the traced cycles
        values = {name: statistics.median(run["samples"][name]) if run["samples"].get(name) else 0.0
                  for name, _, _ in table}
        samples = {name: distribution(run["samples"].get(name, [])) for name, _, _ in table}
    else:
        values = dict(run["best"], setup_s=statistics.median(setups), peak_rss_mb=run["peak_rss_mb"])
        samples = dict(run["samples"], setup_s=distribution(setups))
    failures = run["failures"] + [f"{name}: traced output differs" for name in run.get("mismatches", [])]
    failures += [f"{name}: no op of this metric succeeded" for name, _, _ in table if name not in values]

    print("perfbench env " + json.dumps(env))
    print("perfbench skipped " + json.dumps(SKIPPED))
    print("perfbench samples " + json.dumps({"cycles": run["cycles"], **samples}))
    if args.trace:
        print("perfbench spans " + json.dumps({"absent": run["absent"], "calls": run["span_calls"]}))
    for failure in failures:
        print(f"perfbench failed op: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
