#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny problem sizes (under a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload in both modes and checks that each metric named in
``BENCHMARK.json`` is emitted with its unit, that ``perfbench/layers.json``
maps exactly the per-layer metrics, and that the correctness checks reject
deliberately corrupted results.  It is a script, not a pytest module, so
the repository's test run does not collect it.
"""

from __future__ import annotations

import asyncio
import copy
import json
import sys

import run

sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]

import checks  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SECONDS = 0.2


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def test_metrics_emitted(config: dict) -> None:
    for spec in config["workloads"]:
        for trace in (False, True):
            result, tracer = run.run_benchmark(
                config, spec["name"], SEED, SECONDS, trace, scale_name="tiny")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{spec['name']} trace={trace} failed its checks")
            expect(result["attempted"] >= 1, "no operation attempted")
            declared = config["per_layer" if trace else "end_to_end"]
            expect(list(result["metrics"]) == [m["name"] for m in declared],
                   f"{spec['name']} metric names")
            for metric in declared:
                emitted = result["metrics"][metric["name"]]
                expect(emitted["unit"] == metric["unit"], f"unit of {metric['name']}")
                expect(isinstance(emitted["value"], float), f"value of {metric['name']}")
            expect((tracer is not None) == trace, "tracer only in traced runs")
            print(f"ok  {spec['name']:<13} trace={int(trace)} "
                  f"{len(declared)} metrics, {result['attempted']} operations")


def test_layer_map(config: dict) -> None:
    layers = json.loads((run.HERE / "layers.json").read_text())
    names = {m["name"] for m in config["per_layer"]}
    expect(set(layers["metrics"]) == names, "layers.json covers every per-layer metric")
    end_to_end = {m["name"] for m in config["end_to_end"]}
    workload_names = {w["name"] for w in config["workloads"]}
    for name, entry in layers["metrics"].items():
        expect(set(entry["moves"]) <= end_to_end, f"{name} moves unknown metrics")
        expect(set(entry["on"]) <= workload_names, f"{name} names unknown workloads")
    print("ok  layers.json")


def corrupt_tree_checks() -> None:
    work = workloads.build_tree_workload("reuse-tree", workloads.SCALES["tiny"])
    workloads.prepare_tree(work)
    seed = workloads.op_seed(SEED, 0)
    good = [workloads.timed(lambda: work.reuse(seed), seed, "reuse") for _ in range(2)]
    workloads.check_tree_ops(work, good, work.plan)
    expect(not any(op.failures for op in good), "clean tree results pass")

    def failures_after(corrupt) -> list[str]:
        ops = [copy.deepcopy(op) for op in good]
        for op in ops:
            op.failures = []
        # A consistent wrong answer on both runs of the seed leaves only the
        # distribution check to catch it.
        for op in ops if corrupt is collapse else ops[1:]:
            corrupt(op.result)
        workloads.check_tree_ops(work, ops, work.plan)
        return [failure for op in ops for failure in op.failures]

    def drop_one_shot(result):
        key = next(iter(result.counts))
        result.counts[key] -= 1

    def move_one_count(result):
        first, *rest = sorted(result.counts)
        other = rest[0] if rest else "1" * len(first)
        result.counts[first] -= 1
        result.counts[other] = result.counts.get(other, 0) + 1

    def skip_a_gate(result):
        result.cost.gate_applications -= 1

    def collapse(result):
        key = "1" * work.circuit.num_qubits
        result.counts.clear()
        result.counts[key] = result.shots

    for corrupt, expected in ((drop_one_shot, "counts sum"), (move_one_count, "counts differ"),
                              (skip_a_gate, "gate_applications"), (collapse, "TVD")):
        found = failures_after(corrupt)
        expect(any(expected in failure for failure in found),
               f"{corrupt.__name__} not caught: {found}")
        print(f"ok  corrupted tree result caught: {corrupt.__name__}")


def corrupt_serve_checks() -> None:
    work = workloads.build_serve(SEED, workloads.SCALES["tiny"])
    workloads.warm_serve(work, work.server)
    served, _ = asyncio.run(workloads.closed_loop(
        work.server, work.requests, 0.0, work.min_requests))
    work.close()
    references = workloads.serve_references(work)
    workloads.check_served(work, served, references)
    expect(not any(entry.failures for entry in served), "clean serve results pass")
    warm = next(entry for entry in served if entry.item.kind == "warm")
    warm.response = copy.deepcopy(warm.response)
    first, *rest = sorted(warm.response.counts)
    other = rest[0] if rest else "1" * len(first)
    warm.response.counts[first] -= 1
    warm.response.counts[other] = warm.response.counts.get(other, 0) + 1
    for entry in served:
        entry.failures = []
    workloads.check_served(work, served, references)
    expect(any("cold twin" in failure for failure in warm.failures),
           f"corrupted cache read not caught: {warm.failures}")
    print("ok  corrupted cache read caught")


def test_tvd_bound() -> None:
    p = np.full(4, 0.25)
    expect(checks.tvd_within({"00": 25, "01": 25, "10": 25, "11": 25}, p, 2, 100, "x") == [],
           "exact counts pass the TVD bound")
    expect(checks.tvd_within({"00": 100}, p, 2, 100, "x") != [],
           "a collapsed distribution fails the TVD bound")
    print("ok  TVD bound")


def main() -> int:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    test_layer_map(config)
    test_tvd_bound()
    corrupt_tree_checks()
    corrupt_serve_checks()
    test_metrics_emitted(config)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
