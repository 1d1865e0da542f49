"""The benchmark's four workloads: inputs, timed loops and checks.

Every workload is built from ``--seed`` alone (:func:`build_tree_workload`,
:func:`build_serve`), then either measured with tracing off
(:func:`measure_tree`, :func:`measure_serve`: the end-to-end metrics) or run
traced (:func:`trace_tree`, :func:`trace_serve`: the per-layer metrics).  The program is only ever
called through its public API; the per-layer numbers come from spans the
benchmark opens around those calls plus the spans the program already
records when handed a :class:`repro.obs.Tracer`.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis.memory import XEON_NODE_MEMORY_BYTES, admit_plan
from repro.circuits.library import (
    bv_circuit,
    ghz_circuit,
    qaoa_maxcut_circuit,
    qft_circuit,
    qpe_circuit,
    random_maxcut_graph,
)
from repro.circuits.qasm import from_qasm, to_qasm
from repro.circuits.transpile import fuse_single_qubit_runs
from repro.core.engine import TQSimEngine
from repro.core.partitioners import DynamicCircuitPartitioner, SingleShotPartitioner
from repro.density.simulator import DensityMatrixSimulator
from repro.dispatch.dispatchers import PoolDispatcher
from repro.dispatch.planner import ShardPlanner
from repro.noise.sycamore import noise_model_by_code, sycamore_noise_model
from repro.noise.trajectory import sample_channel_on_state
from repro.obs import NULL_SPAN, Tracer, summarize
from repro.serve.server import SimulationRequest, SimulationServer
from repro.statevector.simulator import StatevectorSimulator

import checks

WORKLOADS = ("reuse-tree", "kraus-flat", "pool-sharded", "serve-mixed")

#: Problem sizes.  ``full`` is what the benchmark measures; ``tiny`` only
#: exercises every code path for the self-test.
SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "reuse_qubits": 8, "reuse_shots": 1000,
        "kraus_qubits": 8, "kraus_shots": 128,
        "pool_qubits": 9, "pool_shots": 1000,
        "serve_widths": (7, 8), "serve_shots": 1024,
        "serve_requests": 200, "serve_trace_requests": 60, "serve_pregenerated": 1500,
        "serve_noreuse_requests": 40,
    },
    "tiny": {
        "reuse_qubits": 4, "reuse_shots": 48,
        "kraus_qubits": 3, "kraus_shots": 16,
        "pool_qubits": 4, "pool_shots": 48,
        "serve_widths": (3, 4), "serve_shots": 64,
        "serve_requests": 20, "serve_trace_requests": 10, "serve_pregenerated": 60,
        "serve_noreuse_requests": 10,
    },
}

#: At most two worker processes, threads or clients: the reference machine
#: has two cores.
WORKERS = 2
#: Every KERNEL_INTERVAL-th gate kernel call is recorded as a span.
KERNEL_INTERVAL = 64
#: Shots of the untimed warm-up run that fills per-gate caches.
WARMUP_SHOTS = 16
#: Repeats of each single-call layer probe (plan, admit, shard planning).
PROBE_REPEATS = 5
#: Serve mix per block of ten requests: cache reads, cache writes, noisy.
SERVE_MIX = ("warm",) * 6 + ("miss",) * 2 + ("noisy",) * 2
SERVE_NOISE = "DC"
#: Share of a serve-mixed run's seconds given to the closed loop; the
#: no-reuse leg after it takes roughly the rest.
SERVE_WINDOW_SHARE = 0.8

now = time.perf_counter


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------
@dataclass
class Op:
    """One timed call into the program and what the checks made of it."""

    seconds: float
    seed: int = 0
    leg: str = ""
    result: Any = None
    failures: list[str] = field(default_factory=list)

    @property
    def shots(self) -> int:
        return self.result.shots if self.result is not None else 0

    @property
    def counts(self) -> dict[str, int]:
        return self.result.counts if self.result is not None else {}


def timed(call: Callable[[], Any], seed: int, leg: str) -> Op:
    """Run one operation; an exception marks it failed instead of aborting."""
    start = now()
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - counted in error_rate
        return Op(now() - start, seed, leg, None, [f"{type(error).__name__}: {error}"])
    return Op(now() - start, seed, leg, result)


def op_seed(seed: int, index: int) -> int:
    """Operations run in pairs that share a seed, so every pair doubles as a
    check that one seed gives bitwise identical counts."""
    return seed * 1_000_003 + index // 2


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Engine and pool workloads
# ---------------------------------------------------------------------------
@dataclass
class TreeWorkload:
    """A noisy simulation problem run with reuse and without it.

    ``pool`` selects :class:`PoolDispatcher` (two workers, its defaults)
    instead of an in-process :class:`TQSimEngine` with library defaults.
    The no-reuse leg is the best execution without reuse the library
    has: the same entry point on the ``batched`` backend with
    :class:`SingleShotPartitioner`.
    """

    name: str
    circuit: Any
    noise: Any
    shots: int
    pool: bool
    plan: Any = None
    noreuse_plan: Any = None
    reference: np.ndarray | None = None

    def reuse(self, seed: int, tracer: Tracer | None = None):
        if self.pool:
            return PoolDispatcher(
                noise_model=self.noise, seed=seed, num_workers=WORKERS, tracer=tracer
            ).run(self.circuit, self.shots)
        return TQSimEngine(noise_model=self.noise, seed=seed, tracer=tracer).run(
            self.circuit, self.shots
        )

    def noreuse(self, seed: int):
        if self.pool:
            return PoolDispatcher(
                noise_model=self.noise, seed=seed, num_workers=WORKERS
            ).run(self.circuit, self.shots, partitioner=SingleShotPartitioner())
        return TQSimEngine(noise_model=self.noise, seed=seed, backend="batched").run(
            self.circuit, self.shots, partitioner=SingleShotPartitioner()
        )

    def warm_up(self) -> None:
        """Fill lazy per-gate caches outside the timed region."""
        shots, self.shots = self.shots, WARMUP_SHOTS
        try:
            self.reuse(0)
            self.noreuse(0)
        finally:
            self.shots = shots


def build_tree_workload(name: str, scale: dict[str, Any]) -> TreeWorkload:
    if name == "reuse-tree":
        return TreeWorkload(name, qft_circuit(scale["reuse_qubits"]),
                            sycamore_noise_model(), scale["reuse_shots"], pool=False)
    if name == "kraus-flat":
        return TreeWorkload(name, qft_circuit(scale["kraus_qubits"]),
                            noise_model_by_code("ADR"), scale["kraus_shots"], pool=False)
    return TreeWorkload(name, qft_circuit(scale["pool_qubits"]),
                        sycamore_noise_model(), scale["pool_shots"], pool=True)


def prepare_tree(work: TreeWorkload) -> None:
    """Plans and the exact reference distribution; outside every timing."""
    work.plan = DynamicCircuitPartitioner().plan(work.circuit, work.shots, work.noise)
    work.noreuse_plan = SingleShotPartitioner().plan(work.circuit, work.shots, work.noise)
    work.reference = DensityMatrixSimulator(work.noise).probabilities(work.circuit)


def check_tree_ops(work: TreeWorkload, ops: list[Op], plan) -> None:
    """Attach every failed check to the operations it involves."""
    predicted = checks.predicted_counters(plan, work.noise)
    for op in ops:
        if op.result is None:
            continue
        op.failures += checks.counts_sum(op.counts, op.shots)
        op.failures += checks.counters_match(op.result.cost, predicted)
        if op.result.metadata.get("tree") != str(plan.tree):
            op.failures.append(
                f"ran tree {op.result.metadata.get('tree')}, planned {plan.tree}"
            )
    by_seed: dict[int, list[Op]] = {}
    for op in ops:
        if op.result is not None:
            by_seed.setdefault(op.seed, []).append(op)
    for group in by_seed.values():
        for other in group[1:]:
            failure = checks.identical(group[0].counts, other.counts,
                                       f"seed {other.seed} repeated")
            for op in (group[0], other):
                op.failures += failure
    distinct = [group[0] for group in by_seed.values()]
    if distinct:
        samples = checks.independent_samples(plan, noisy=True) * len(distinct)
        failure = checks.tvd_within(
            checks.merge_counts([op.counts for op in distinct]),
            work.reference, work.circuit.num_qubits, samples,
            f"{work.name} vs density matrix",
        )
        for op in distinct:
            op.failures += failure


def measure_tree(work: TreeWorkload, seed: int, seconds: float) -> tuple[dict, list[Op]]:
    prepare_tree(work)
    work.warm_up()
    reuse_ops: list[Op] = []
    noreuse_ops: list[Op] = []
    deadline = now() + seconds
    index = 0
    while index < 2 or now() < deadline:
        s = op_seed(seed, index)
        reuse_ops.append(timed(lambda: work.reuse(s), s, "reuse"))
        noreuse_ops.append(timed(lambda: work.noreuse(s), s, "noreuse"))
        index += 1
    check_tree_ops(work, reuse_ops, work.plan)
    check_tree_ops(work, noreuse_ops, work.noreuse_plan)
    latencies = [op.seconds for op in reuse_ops]
    metrics = {
        "shots_per_s": sum(op.shots for op in reuse_ops) / sum(latencies),
        "noreuse_shots_per_s": sum(op.shots for op in noreuse_ops)
        / sum(op.seconds for op in noreuse_ops),
        "requests_per_s": len(reuse_ops) / sum(latencies),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p95_ms": percentile_ms(latencies, 95),
    }
    return metrics, reuse_ops + noreuse_ops


def trace_tree(work: TreeWorkload, seed: int, seconds: float) -> tuple[dict, list[Op], Tracer]:
    """Alternate untraced and traced reuse runs of the same seed.

    The untraced twin gives the tracing overhead and, by comparing counts,
    checks that tracing is inert.
    """
    prepare_tree(work)
    work.warm_up()
    main = Tracer(track="bench")
    untraced: list[Op] = []
    traced: list[Op] = []
    deadline = now() + seconds
    index = 0
    while index < 1 or now() < deadline:
        s = op_seed(seed, 2 * index)
        untraced.append(timed(lambda: work.reuse(s), s, "untraced"))
        tracer = Tracer(track=f"op-{index}", kernel_interval=KERNEL_INTERVAL)

        def traced_run(s=s, tracer=tracer):
            with tracer.span("bench.pool_run" if work.pool else "bench.engine_run"):
                return work.reuse(s, tracer=tracer)

        traced.append(timed(traced_run, s, "traced"))
        main.absorb(tracer.buffer())
        index += 1
    check_tree_ops(work, untraced + traced, work.plan)
    probes = Tracer(track="probes")
    metrics = tree_layer_metrics(work, main, traced)
    metrics.update(plan_probes(probes, [(work.circuit, work.shots, work.noise)]))
    metrics.update(kraus_probe(probes))
    if work.pool:
        metrics.update(dispatch_metrics(work, probes, untraced, seed))
    main.absorb(probes.buffer())
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        median([op.seconds for op in traced]) / median([op.seconds for op in untraced]) - 1.0
    )
    return metrics, untraced + traced, main


def tree_layer_metrics(work: TreeWorkload, tracer: Tracer,
                       traced: list[Op]) -> dict[str, float]:
    ok = [op for op in traced if op.result is not None]
    if not ok:
        raise RuntimeError(f"every traced {work.name} run failed: {traced[0].failures}")
    cost = ok[0].result.cost
    shots = ok[0].shots
    metrics = engine_span_metrics(tracer, len(traced), kernel_sampled=not work.pool)
    metrics.update({
        "engine.gate_applications": cost.gate_applications,
        "engine.noise_applications": cost.noise_applications,
        "engine.state_copies": cost.state_copies,
        "engine.leaf_samples": cost.leaf_samples,
        "engine.reuse_ratio": cost.gate_applications / (shots * work.circuit.num_gates),
        # Each gate application reads and writes the whole complex128 state.
        "backends.computed_gb": cost.gate_applications * 2 * 16
        * 2 ** work.circuit.num_qubits / 1e9,
    })
    return metrics


def engine_span_metrics(tracer: Tracer, operations: int,
                        kernel_sampled: bool) -> dict[str, float]:
    """Per-operation engine and kernel figures from the recorded spans."""
    rows = {row.name: row for row in summarize(tracer)}

    def total(name: str) -> float:
        return rows[name].total_seconds if name in rows else 0.0

    def own(name: str) -> float:
        return rows[name].self_seconds if name in rows else 0.0

    calls = rows["engine.subcircuit"].calls if "engine.subcircuit" in rows else 0
    advanced = sum(
        span.attributes.get("rows", 1)
        for span in tracer.spans
        if span.name == "engine.subcircuit"
    )
    # Pool workers and the server's request tracers record no kernel spans,
    # so kernel time (and noise time, which is derived from it) is unknown.
    kernel = total("backend.kernel") * KERNEL_INTERVAL if kernel_sampled else 0.0
    noise = 0.0 if not kernel_sampled else max(
        total("engine.subcircuit") - total("engine.noise_predraw") - kernel, 0.0
    )
    return {
        "engine.subcircuit_calls": calls / operations,
        "engine.rows_per_call": advanced / calls if calls else 0.0,
        "engine.subcircuit_self_s": own("engine.subcircuit") / operations,
        "engine.copy_s": total("engine.copy") / operations,
        "engine.noise_predraw_s": total("engine.noise_predraw") / operations,
        "engine.leaf_sample_s": total("engine.leaf_sample") / operations,
        "engine.prefix_replay_s": own("engine.prefix_replay") / operations,
        "engine.unattributed_s": own("engine.run") / operations,
        "backends.kernel_s": kernel / operations,
        "noise.apply_s": noise / operations,
    }


def probe(tracer: Tracer, name: str, call: Callable[[], Any]) -> tuple[float, Any]:
    """Time one public call inside a benchmark-owned span."""
    with tracer.span(name):
        start = now()
        value = call()
        return now() - start, value


def plan_probes(tracer: Tracer, problems: list[tuple[Any, int, Any]]) -> dict[str, float]:
    """Time DCP planning and memory admission on the workload's problems;
    report the deepest plan's layers and the smallest first-layer arity."""
    plan_s: list[float] = []
    admit_s: list[float] = []
    peak = 0.0
    layers = 0
    a0 = math.inf
    for circuit, shots, noise in problems:
        for _ in range(PROBE_REPEATS):
            seconds, plan = probe(
                tracer, "bench.plan",
                lambda: DynamicCircuitPartitioner().plan(circuit, shots, noise),
            )
            plan_s.append(seconds)
            seconds, decision = probe(tracer, "bench.admit", lambda: admit_plan(
                circuit.num_qubits, plan.tree.arities, plan.subcircuit_lengths,
                memory_bytes=XEON_NODE_MEMORY_BYTES,
            ))
            admit_s.append(seconds)
            peak = max(peak, decision.peak_bytes)
        layers = max(layers, len(plan.tree.arities))
        a0 = min(a0, plan.tree.arities[0])
    return {
        "partitioners.tree_layers": layers,
        "partitioners.a0": a0,
        "partitioners.plan_ms": median(plan_s) * 1e3,
        "memory.admit_us": median(admit_s) * 1e6,
        "memory.peak_bytes": peak,
    }


def kraus_probe(tracer: Tracer, calls: int = 200) -> dict[str, float]:
    """Median cost of one general-Kraus (amplitude damping) sample on 8 qubits."""
    model = noise_model_by_code("AD")
    gate = qft_circuit(8).gates[0]
    channel = next(e.channel for e in model.events_for_gate(gate)
                   if not e.channel.is_mixed_unitary)
    rng = np.random.default_rng(0)
    state = rng.normal(size=256) + 1j * rng.normal(size=256)
    state /= np.linalg.norm(state)
    seconds = []
    for call in range(calls):
        seconds.append(probe(tracer, "bench.kraus_sample", lambda: sample_channel_on_state(
            state, channel, (call % 8,), rng))[0])
    return {"noise.kraus_sample_us": median(seconds) * 1e6}


def dispatch_metrics(work: TreeWorkload, tracer: Tracer, ops: list[Op],
                     seed: int) -> dict[str, float]:
    """Shard balance and overhead of the untraced pool runs."""
    plan_s = [
        probe(tracer, "bench.plan_shards", lambda: ShardPlanner(
            noise_model=work.noise).plan_shards(work.circuit, work.shots, WORKERS, seed=seed))[0]
        for _ in range(PROBE_REPEATS)
    ]
    per_op: dict[str, list[float]] = {}
    for op in ops:
        if op.result is None:
            continue
        info = op.result.metadata["dispatch"]
        shard = info["shard_wall_times"]
        wall = info["wall_time_seconds"]
        for name, value in {
            "dispatch.shards": info["num_shards"],
            "dispatch.replayed_prefix_gates": info["replayed_prefix_gates"],
            "dispatch.shard_busy_s": sum(shard),
            "dispatch.shard_max_s": max(shard),
            "dispatch.imbalance": max(shard) / (sum(shard) / len(shard)),
            "dispatch.overhead_s": wall - max(shard),
            "dispatch.parallel_efficiency": sum(shard) / (info["num_workers"] * wall),
        }.items():
            per_op.setdefault(name, []).append(value)
    metrics = {name: median(values) for name, values in per_op.items()}
    metrics["dispatch.plan_shards_ms"] = median(plan_s) * 1e3
    return metrics


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------
@dataclass
class Request:
    kind: str  # "warm" | "miss" | "noisy"
    zoo: int  # zoo index; -1 for a fresh-angle QAOA circuit
    request: SimulationRequest


@dataclass
class Served:
    """One request as the client saw it."""

    item: Request
    seconds: float
    response: Any = None
    wire: str = ""
    failures: list[str] = field(default_factory=list)
    leg: str = "request"


@dataclass
class ServeWorkload:
    zoo: list[Any]
    zoo_qasm: list[str]
    zoo_seeds: list[int]
    requests: list[Request]
    shots: int
    min_requests: int
    trace_requests: int
    noreuse_requests: int
    server: SimulationServer | None = None
    references: dict[tuple[str, int], Any] = field(default_factory=dict)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def serve_zoo(widths: tuple[int, ...]) -> list[Any]:
    zoo = []
    for width in widths:
        zoo += [qft_circuit(width), ghz_circuit(width), bv_circuit(width),
                qpe_circuit(width), qaoa_maxcut_circuit(random_maxcut_graph(width))]
    return zoo


def build_serve(seed: int, scale: dict[str, Any]) -> ServeWorkload:
    """The request stream: a seeded shuffle of fixed-proportion blocks.

    Cache reads and noisy requests cycle through the zoo with one seed per
    zoo circuit, so every cache read has a cold twin (its warm-up request)
    and every noisy repeat must reproduce the first.  Cache writes are
    QAOA circuits on a fixed graph with fresh angles, so their plan shape
    does not depend on the seed.
    """
    rng = np.random.default_rng(seed)
    widths = scale["serve_widths"]
    zoo = serve_zoo(widths)
    zoo_qasm = [to_qasm(circuit) for circuit in zoo]
    zoo_seeds = [int(s) for s in rng.integers(0, 2**31, len(zoo))]
    graphs = [random_maxcut_graph(w) for w in widths]
    shots = scale["serve_shots"]
    requests: list[Request] = []
    cursor = {"warm": 0, "noisy": 0, "miss": 0}
    while len(requests) < scale["serve_pregenerated"]:
        kinds = list(SERVE_MIX)
        rng.shuffle(kinds)
        for kind in kinds:
            turn = cursor[kind]
            cursor[kind] += 1
            if kind == "miss":
                beta, gamma = rng.uniform(0.0, math.pi, 2)
                circuit = qaoa_maxcut_circuit(graphs[turn % len(graphs)],
                                              betas=[beta], gammas=[gamma])
                requests.append(Request(kind, -1, SimulationRequest(
                    qasm=to_qasm(circuit), shots=shots,
                    seed=int(rng.integers(0, 2**31)))))
                continue
            # Round-robin over the zoo from a seeded starting point.
            index = (turn + zoo_seeds[0]) % len(zoo)
            requests.append(Request(kind, index, SimulationRequest(
                qasm=zoo_qasm[index], shots=shots, seed=zoo_seeds[index],
                noise=SERVE_NOISE if kind == "noisy" else None)))
    return ServeWorkload(zoo, zoo_qasm, zoo_seeds, requests, shots,
                         scale["serve_requests"], scale["serve_trace_requests"],
                         scale["serve_noreuse_requests"], SimulationServer(executor_threads=WORKERS))


def zoo_request(work: ServeWorkload, index: int, noise: str | None) -> SimulationRequest:
    return SimulationRequest(qasm=work.zoo_qasm[index], shots=work.shots,
                             seed=work.zoo_seeds[index], noise=noise)


def warm_serve(work: ServeWorkload, server: SimulationServer) -> None:
    """First sight of every zoo circuit, noiseless, outside the timed window.

    These are cold runs that populate the caches, and the references later
    cache reads must equal bitwise.
    """
    for index in range(len(work.zoo)):
        response = server.handle(zoo_request(work, index, None))
        work.references.setdefault(("ideal", index), response)


async def closed_loop(server: SimulationServer, requests: list[Request],
                      seconds: float, min_requests: int,
                      tracers: list[Tracer] | None = None) -> tuple[list[Served], float]:
    """``WORKERS`` clients, each sending its next request only after the
    previous response arrived and was serialised to wire JSON."""
    served: list[Served] = []
    start = now()
    deadline = start + seconds
    cursor = 0

    async def client(number: int) -> None:
        nonlocal cursor
        while cursor < len(requests) and (now() < deadline or cursor < min_requests):
            item = requests[cursor]
            cursor += 1
            begin = now()
            try:
                with (tracers[number].span("bench.submit", kind=item.kind)
                      if tracers else NULL_SPAN):
                    response = await server.submit(item.request)
                    wire = json.dumps(response.to_json())
            except Exception as error:  # noqa: BLE001 - counted in error_rate
                served.append(Served(item, now() - begin,
                                     failures=[f"{type(error).__name__}: {error}"]))
                continue
            served.append(Served(item, now() - begin, response, wire))

    tasks = [asyncio.ensure_future(client(number)) for number in range(WORKERS)]
    for task in tasks:
        await task
    return served, now() - start


def serve_references(work: ServeWorkload) -> dict[str, Any]:
    """Exact distributions for the zoo (ideal and noisy); untimed."""
    noise = noise_model_by_code(SERVE_NOISE)
    ideal = {}
    noisy = {}
    for index, circuit in enumerate(work.zoo):
        ideal[index] = StatevectorSimulator().probabilities(circuit)
        fused = fuse_single_qubit_runs(circuit)
        noisy[index] = (DensityMatrixSimulator(noise).probabilities(fused),
                        DynamicCircuitPartitioner().plan(fused, work.shots, noise))
    return {"ideal": ideal, "noisy": noisy}


def check_served(work: ServeWorkload, served: list[Served], refs: dict[str, Any]) -> None:
    checked_refs: set[tuple[str, int]] = set()
    for entry in served:
        response = entry.response
        if response is None:
            continue
        if not response.ok:
            entry.failures.append(f"{response.status}: {response.error}")
            continue
        entry.failures += checks.counts_sum(response.counts, response.shots)
        if json.loads(entry.wire)["counts"] != response.counts:
            entry.failures.append("wire JSON counts differ from the response")
        item = entry.item
        if item.kind == "miss":
            circuit = from_qasm(item.request.qasm)
            entry.failures += checks.tvd_within(
                response.counts, StatevectorSimulator().probabilities(circuit),
                circuit.num_qubits, response.shots, "fresh-angle QAOA vs statevector")
            continue
        key = ("ideal" if item.kind == "warm" else SERVE_NOISE, item.zoo)
        # Noisy requests are never cached: the first one of each zoo circuit
        # is the reference its repeats (same seed) must reproduce.
        reference = work.references.setdefault(key, response)
        if reference is None or not reference.ok:
            entry.failures.append(f"no cold reference for {key}")
            continue
        what = ("cache read vs its cold twin" if item.kind == "warm"
                else "noisy repeat of one seed")
        entry.failures += checks.identical(reference.counts, response.counts, what)
        if key in checked_refs:
            continue
        checked_refs.add(key)
        circuit = work.zoo[item.zoo]
        if item.kind == "warm":
            probabilities, samples = refs["ideal"][item.zoo], reference.shots
        else:
            probabilities, plan = refs["noisy"][item.zoo]
            samples = checks.independent_samples(plan, noisy=True)
            if reference.shots != plan.total_outcomes:
                entry.failures.append("noisy reference ran a different plan")
        entry.failures += checks.tvd_within(
            reference.counts, probabilities, circuit.num_qubits, samples,
            f"{key} reference vs exact distribution")


def serve_noreuse(work: ServeWorkload) -> list[Op]:
    """The first requests of the stream with every form of reuse off: parse
    and fuse each one, then run it on ``batched`` with a single-shot plan
    and no caches.  A fixed count of whole mix blocks keeps the request
    composition the same on every seed."""
    ops: list[Op] = []
    for item in work.requests[: work.noreuse_requests]:
        request = item.request

        def run(request=request):
            circuit = fuse_single_qubit_runs(from_qasm(request.qasm))
            return TQSimEngine(noise_model=request.resolve_noise(), seed=request.seed,
                               backend="batched").run(
                circuit, request.shots, partitioner=SingleShotPartitioner())

        op = timed(run, request.seed, "noreuse")
        if op.result is not None:
            op.failures += checks.counts_sum(op.counts, op.shots)
        ops.append(op)
    return ops


def measure_serve(work: ServeWorkload, seconds: float) -> tuple[dict, list]:
    warm_serve(work, work.server)
    served, wall = asyncio.run(closed_loop(
        work.server, work.requests, seconds * SERVE_WINDOW_SHARE, work.min_requests))
    noreuse = serve_noreuse(work)
    work.close()
    check_served(work, served, serve_references(work))
    done = [entry for entry in served if entry.response is not None and entry.response.ok]
    latencies = [entry.seconds for entry in served]
    metrics = {
        "shots_per_s": sum(entry.response.shots for entry in done) / wall,
        "noreuse_shots_per_s": sum(op.shots for op in noreuse)
        / sum(op.seconds for op in noreuse),
        "requests_per_s": len(done) / wall,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p95_ms": percentile_ms(latencies, 95),
    }
    return metrics, served + noreuse


def trace_serve(work: ServeWorkload, seconds: float) -> tuple[dict, list, Tracer]:
    """An untraced window, then a traced one on a fresh server; then probes
    of the pipeline's public stages on the requests the traced window sent."""
    work.close()
    half = seconds / 2
    plain = SimulationServer(executor_threads=WORKERS)
    warm_serve(work, plain)
    served_plain, wall_plain = asyncio.run(closed_loop(
        plain, work.requests, half, work.trace_requests))
    plain.close()

    server = SimulationServer(executor_threads=WORKERS)
    warm_serve(work, server)
    # Trace only the window: the warm-up's cold runs are not steady state.
    main = server.tracer = Tracer(track="bench")
    clients = [Tracer(track=f"client-{n}") for n in range(WORKERS)]
    served, wall = asyncio.run(closed_loop(
        server, work.requests, half, work.trace_requests, clients))
    counters = server.counters()
    server.close()
    for client in clients:
        main.absorb(client.buffer())
    check_served(work, served_plain + served, serve_references(work))

    requests = len(served)
    metrics = serve_layer_metrics(served, counters)
    metrics.update(engine_span_metrics(main, requests, kernel_sampled=False))
    metrics.update(serve_self_times(main, requests))
    probes = Tracer(track="probes")
    metrics.update(pipeline_probes(probes, served))
    metrics.update(kraus_probe(probes))
    main.absorb(probes.buffer())
    rps_plain = len(served_plain) / wall_plain
    metrics["obs.trace_overhead_pct"] = 100.0 * (rps_plain / (requests / wall) - 1.0)
    return metrics, served_plain + served, main


def serve_layer_metrics(served: list[Served], counters: dict[str, float]) -> dict[str, float]:
    def elapsed_ms(kind: str) -> float:
        return median([entry.response.elapsed_seconds * 1e3 for entry in served
                       if entry.item.kind == kind and entry.response is not None])

    ok = [entry for entry in served if entry.response is not None]

    def hit_ratio(cache: str) -> float:
        hits = counters.get(f"serve.cache.{cache}.hits", 0)
        misses = counters.get(f"serve.cache.{cache}.misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "serve.warm_ms": elapsed_ms("warm"),
        "serve.noisy_ms": elapsed_ms("noisy"),
        "serve.miss_ms": elapsed_ms("miss"),
        "serve.queue_ms": median([
            (entry.seconds - entry.response.elapsed_seconds) * 1e3 for entry in ok]),
        "serve.warm_share": sum(1 for e in ok if e.response.cached) / len(ok),
        "serve.cache.transpile.hit_ratio": hit_ratio("transpile"),
        "serve.cache.plan.hit_ratio": hit_ratio("plan"),
        "serve.cache.prefix.hit_ratio": hit_ratio("prefix"),
        "serve.cache.prefix.evictions": counters.get("serve.cache.prefix.evictions", 0),
    }


def pipeline_probes(tracer: Tracer, served: list[Served]) -> dict[str, float]:
    """Time parse, fusion, planning and admission on the traced window's
    distinct request texts (each a public call the server makes)."""
    parse: list[float] = []
    fuse: list[float] = []
    seen: set[tuple[str | None, Any]] = set()
    problems = []
    for entry in served:
        request = entry.item.request
        if (request.qasm, request.noise) in seen:
            continue
        seen.add((request.qasm, request.noise))
        seconds, circuit = probe(tracer, "bench.from_qasm", lambda: from_qasm(request.qasm))
        parse.append(seconds)
        seconds, fused = probe(tracer, "bench.fuse", lambda: fuse_single_qubit_runs(circuit))
        fuse.append(seconds)
        problems.append((fused, request.shots, request.resolve_noise()))
    metrics = plan_probes(tracer, problems)
    metrics["circuits.from_qasm_ms"] = median(parse) * 1e3
    metrics["circuits.fuse_ms"] = median(fuse) * 1e3
    return metrics


def serve_self_times(tracer: Tracer, requests: int) -> dict[str, float]:
    rows = {row.name: row for row in summarize(tracer)}
    return {
        f"{name}_self_s": (rows[name].self_seconds if name in rows else 0.0) / requests
        for name in ("serve.transpile", "serve.plan", "serve.execute", "serve.warm_sample")
    }
