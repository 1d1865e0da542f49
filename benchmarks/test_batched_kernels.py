"""Batched kernel microbenchmark: B trajectories per call vs one at a time.

Runs the same noisy per-shot workload through the per-shot baseline on the
optimized backend and through the engine on a no-reuse single-shot plan on
the ``batched`` backend (B trajectories as a ``(B, 2**n)`` array, one kernel
call per gate) and asserts the batch amortisation wins.  This is the
acceptance microbenchmark for the batched-trajectory backend (Figure 8 on
the NumPy substrate).
"""

import os
import time

import numpy as np
import pytest
from conftest import print_table

from repro.backends import get_backend
from repro.circuits.library import qft_circuit
from repro.core import BaselineNoisySimulator, SingleShotPartitioner, TQSimEngine
from repro.noise.sycamore import depolarizing_noise_model

WIDTH = 10
SHOTS = 32
BATCH = 16
ROUNDS = 3


def _run_sequential() -> float:
    circuit = qft_circuit(WIDTH)
    simulator = BaselineNoisySimulator(
        depolarizing_noise_model(), seed=9, backend="optimized"
    )
    timings = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        simulator.run(circuit, SHOTS)
        timings.append(time.perf_counter() - start)
    return min(timings)


def _run_batched() -> float:
    circuit = qft_circuit(WIDTH)
    noise_model = depolarizing_noise_model()
    plan = SingleShotPartitioner().plan(circuit, SHOTS, noise_model)
    engine = TQSimEngine(noise_model, seed=9, backend="batched", max_batch=BATCH)
    timings = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        engine.run(circuit, SHOTS, plan=plan)
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_batched_backend_beats_per_shot(benchmark):
    sequential_seconds = _run_sequential()
    batched_seconds = benchmark.pedantic(_run_batched, rounds=1, iterations=1)
    print_table(
        f"Batched kernels — {WIDTH}-qubit noisy QFT, {SHOTS} shots, B={BATCH}",
        [
            {"execution": "per-shot (optimized)", "seconds": sequential_seconds},
            {"execution": f"batched (B={BATCH})", "seconds": batched_seconds},
            {"execution": "speedup", "seconds": sequential_seconds / batched_seconds},
        ],
    )
    if os.environ.get("CI"):
        pytest.skip(
            "timing assertion skipped on CI "
            f"(measured speedup {sequential_seconds / batched_seconds:.2f}x)"
        )
    assert batched_seconds < sequential_seconds


def test_batched_kernels_match_sequential_statevectors():
    """Sanity companion to the timing claim: same physics, batched or not."""
    circuit = qft_circuit(8)
    batched = get_backend("batched")
    optimized = get_backend("optimized")
    block = batched.reset_state(batched.allocate_batch(8, 4))
    row = optimized.initial_state(8)
    for gate in circuit:
        block = batched.apply_gate(block, gate)
        row = optimized.apply_gate(row, gate)
    assert np.allclose(block, row[None, :], atol=1e-10)
