#!/usr/bin/env python3
"""TQSim benchmark: one workload per invocation, last stdout line is JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reuse-tree --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload traced and reports the per-layer metrics, writing the
spans to ``.perfbench/trace-<workload>-<seed>.json`` (Chrome trace format).
Metric names, units and workloads are those of ``BENCHMARK.json``; what each
metric means and which end-to-end metric it should move is in
``perfbench/layers.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads: with two cores, BLAS threads
# and the pool's two workers would otherwise oversubscribe them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

#: Per-layer metrics a workload legitimately reports as 0 because it never
#: enters that layer (or, on serve-mixed, because the server does not hand
#: the engine's cost counters back).
BYPASSED = {
    "reuse-tree": ("circuits.", "dispatch.", "serve."),
    "kraus-flat": ("circuits.", "dispatch.", "serve."),
    "pool-sharded": ("circuits.", "serve."),
    "serve-mixed": (
        "dispatch.", "engine.gate_applications", "engine.noise_applications",
        "engine.state_copies", "engine.leaf_samples", "engine.reuse_ratio",
        "backends.computed_gb",
    ),
}


def build(workload: str, seed: int, scale_name: str):
    """Inputs and server for one workload: everything ``setup_s`` covers."""
    import workloads

    scale = workloads.SCALES[scale_name]
    if workload == "serve-mixed":
        return workloads.build_serve(seed, scale)
    return workloads.build_tree_workload(workload, scale)


def setup_once(workload: str, seed: int, scale_name: str) -> float:
    """Imports plus :func:`build`, timed in this (fresh) process."""
    start = time.perf_counter()
    work = build(workload, seed, scale_name)
    elapsed = time.perf_counter() - start
    if workload == "serve-mixed":
        work.close()
    return elapsed


def setup_seconds(workload: str, seed: int, scale_name: str) -> float:
    """Median set-up time over fresh interpreter processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
             "--seed", str(seed), "--scale", scale_name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest child, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def fingerprint() -> dict[str, object]:
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_benchmark(config: dict, workload: str, seed: int, seconds: float, trace: bool,
                  scale_name: str = "full") -> tuple[dict, object]:
    """Run one workload; returns the result object and the tracer (or None)."""
    import workloads

    setup = None if trace else setup_seconds(workload, seed, scale_name)
    work = build(workload, seed, scale_name)
    tracer = None
    if workload == "serve-mixed":
        if trace:
            metrics, ops, tracer = workloads.trace_serve(work, seconds)
        else:
            metrics, ops = workloads.measure_serve(work, seconds)
    elif trace:
        metrics, ops, tracer = workloads.trace_tree(work, seed, seconds)
    else:
        metrics, ops = workloads.measure_tree(work, seed, seconds)
    failed = sum(1 for op in ops if op.failures)
    if trace:
        metrics["error_rate"] = failed / len(ops)
    else:
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["setup_s"] = setup
    declared = config["per_layer" if trace else "end_to_end"]
    for spec in declared:
        name = spec["name"]
        if name not in metrics and name.startswith(BYPASSED[workload]):
            metrics[name] = 0.0
    names = {spec["name"] for spec in declared}
    if set(metrics) != names:
        raise RuntimeError(
            f"{workload} produced {sorted(set(metrics) - names)} "
            f"but not {sorted(names - set(metrics))}"
        )
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": float(metrics[spec["name"]]), "unit": spec["unit"]}
            for spec in declared
        },
    }
    for op in ops:
        for failure in op.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    legs: dict[str, list[float]] = {}
    for op in ops:
        legs.setdefault(op.leg, []).append(op.seconds)
    for leg, seconds in legs.items():
        print(f"{workload:>13} {leg} operations {len(seconds)}, seconds: "
              + " ".join(f"{value:.4f}" for value in seconds))
    return result, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and input set-up once, then exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program is missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_once(args.workload, args.seed, args.scale)}))
        return 0
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in config["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print(json.dumps({"fingerprint": fingerprint()}))
    result, tracer = run_benchmark(
        config, args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    if tracer is not None:
        from repro.obs import write_chrome_trace

        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.json"
        with path.open("w") as stream:
            write_chrome_trace(tracer, stream)
        print(f"trace written to {path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>13} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:>13} operations {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
