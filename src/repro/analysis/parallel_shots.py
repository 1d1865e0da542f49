"""Parallel-shot saturation model (paper Figure 8).

The paper shows that batching several noisy shots on one GPU only helps while
the per-gate kernels underutilise the device: a 20-qubit statevector update
does not saturate an A100, so running 2–16 shots concurrently amortises the
kernel-launch overhead, but beyond ~24 qubits each update already fills the
device and parallel shots bring nothing (even though the extra memory is
negligible).  The model below reproduces that behaviour from a device
profile's overhead/bandwidth parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.devices import A100, DeviceProfile

__all__ = ["ParallelShotPoint", "parallel_shot_speedup", "parallel_shot_sweep"]


@dataclass(frozen=True)
class ParallelShotPoint:
    """One (qubits, parallel shots) sample of the Figure-8 sweep."""

    num_qubits: int
    parallel_shots: int
    speedup: float
    memory_bytes: float
    memory_fraction: float


def parallel_shot_speedup(num_qubits: int, parallel_shots: int,
                          device: DeviceProfile = A100) -> float:
    """Speedup of running ``parallel_shots`` trajectories as one batch.

    Per gate, serial execution costs ``p * max(overhead, transfer)`` while a
    batched kernel costs ``overhead + p * transfer``; their ratio is the
    speedup, which saturates at ``1 + overhead/transfer`` and approaches 1
    once a single statevector update saturates the device.
    """
    if parallel_shots < 1:
        raise ValueError("parallel_shots must be >= 1")
    transfer = 2.0 * DeviceProfile.statevector_bytes(num_qubits) / device.bytes_per_second
    overhead = device.gate_overhead_seconds
    serial = parallel_shots * (overhead + transfer)
    batched = overhead + parallel_shots * transfer
    return serial / batched


def parallel_shot_sweep(
    qubit_range=(20, 21, 22, 23, 24, 25),
    shot_counts=(1, 2, 4, 8, 16),
    device: DeviceProfile = A100,
) -> list[ParallelShotPoint]:
    """The full Figure-8 sweep: speedup and memory use per configuration."""
    points: list[ParallelShotPoint] = []
    for num_qubits in qubit_range:
        for parallel_shots in shot_counts:
            memory = parallel_shots * DeviceProfile.statevector_bytes(num_qubits)
            points.append(
                ParallelShotPoint(
                    num_qubits=num_qubits,
                    parallel_shots=parallel_shots,
                    speedup=parallel_shot_speedup(num_qubits, parallel_shots, device),
                    memory_bytes=memory,
                    memory_fraction=memory / device.memory_bytes,
                )
            )
    return points
