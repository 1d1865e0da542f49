"""Figure 8: parallel-shot (batched-trajectory) execution.

Paper result: batching shots on an A100 gives up to ~3x speedup for 20–21
qubit circuits but the benefit vanishes beyond 24 qubits, even though each
statevector only uses 0.625% of GPU memory.  The modeled sweep reproduces the
saturation behaviour from the device's overhead/bandwidth balance.

Alongside the analytic model, this experiment now *measures* the effect on
the NumPy substrate two ways:

* **batch-parallel** — the ``batched`` backend stacks B trajectories as a
  ``(B, 2**n)`` array so one kernel call advances all of them, and the sweep
  times the engine on a no-reuse
  :class:`~repro.core.partitioners.SingleShotPartitioner` plan with
  ``max_batch=B`` against the per-shot
  :class:`~repro.core.baseline.BaselineNoisySimulator` over a
  (num_qubits, B) grid on a benchmark circuit;
* **process-parallel** — the :mod:`repro.dispatch` subsystem shards a
  single-layer (no-reuse) plan across worker processes, the literal
  "parallel shots" of the figure, with bitwise-identical merged counts at
  every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.devices import A100
from repro.analysis.parallel_shots import ParallelShotPoint, parallel_shot_sweep
from repro.circuits.library import qft_circuit
from repro.core.baseline import BaselineNoisySimulator
from repro.core.engine import TQSimEngine
from repro.core.partitioners import SingleShotPartitioner
from repro.experiments.common import (
    DEFAULT_CONFIG,
    DispatchScalingMeasurement,
    ExperimentConfig,
    measure_dispatch_scaling,
)
from repro.noise.sycamore import depolarizing_noise_model

__all__ = [
    "MeasuredBatchPoint",
    "ParallelShotResult",
    "measured_batch_sweep",
    "measured_process_sweep",
    "run",
]

PAPER_SMALL_CIRCUIT_SPEEDUP = 3.0
PAPER_SATURATION_QUBITS = 24

#: Circuit widths / batch sizes of the measured sweep (capped by the
#: config's ``max_qubits``); the shot count is capped so the sweep stays a
#: few seconds even at the default harness scale.
MEASURED_WIDTHS = (6, 8, 10)
MEASURED_BATCH_SIZES = (1, 4, 16)
MEASURED_MAX_SHOTS = 64
MEASURED_REPEATS = 2


@dataclass(frozen=True)
class MeasuredBatchPoint:
    """One measured (num_qubits, batch size) sample of the Figure-8 sweep."""

    circuit_name: str
    num_qubits: int
    batch_size: int
    shots: int
    per_shot_seconds: float
    batched_seconds: float

    @property
    def speedup(self) -> float:
        """Measured speedup of batched over per-shot execution."""
        return self.per_shot_seconds / self.batched_seconds


@dataclass(frozen=True)
class ParallelShotResult:
    """The Figure-8 sweep: analytic A100 model plus the measured NumPy sweeps."""

    points: list[ParallelShotPoint]
    measured_points: list[MeasuredBatchPoint]
    max_speedup_at_20_qubits: float
    max_speedup_at_25_qubits: float
    memory_fraction_per_shot_at_24_qubits: float
    process_sweep: DispatchScalingMeasurement | None = None

    @property
    def max_measured_speedup(self) -> float:
        """Best measured batched-over-per-shot speedup across the sweep."""
        return max(point.speedup for point in self.measured_points)


def measured_process_sweep(
    config: ExperimentConfig = DEFAULT_CONFIG,
    worker_counts: tuple[int, ...] | None = None,
) -> DispatchScalingMeasurement:
    """Time process-parallel shots on a single-layer (no-reuse) plan.

    A :class:`~repro.core.partitioners.SingleShotPartitioner` plan has one
    first-layer subtree per shot, so sharding it across worker processes is
    exactly the figure's "parallel shots" axis — just with processes instead
    of device streams.  Worker counts follow the shared
    :func:`~repro.experiments.common.dispatch_worker_counts` policy.
    """
    noise_model = depolarizing_noise_model()
    eligible = [w for w in MEASURED_WIDTHS if w <= config.max_qubits]
    width = max(eligible) if eligible else max(1, config.max_qubits)
    circuit = qft_circuit(width)
    shots = max(1, min(config.shots, MEASURED_MAX_SHOTS))
    scoped = config.scaled(shots=shots)
    plan = SingleShotPartitioner().plan(circuit, shots, noise_model)
    return measure_dispatch_scaling(
        circuit, noise_model, scoped, plan, worker_counts=worker_counts
    )


def measured_batch_sweep(
    config: ExperimentConfig = DEFAULT_CONFIG,
    widths: tuple[int, ...] = MEASURED_WIDTHS,
    batch_sizes: tuple[int, ...] = MEASURED_BATCH_SIZES,
    repeats: int = MEASURED_REPEATS,
) -> list[MeasuredBatchPoint]:
    """Time batched vs per-shot trajectory execution over a (width, B) grid.

    The batched side is the engine on a single-layer (no-reuse) plan with
    ``max_batch=B``: B first-layer trajectories per kernel call.  Each
    timing is the best of ``repeats`` runs (the simulators record their own
    wall time), which keeps the sweep robust to scheduling noise without
    inflating its cost.
    """
    noise_model = depolarizing_noise_model()
    shots = max(1, min(config.shots, MEASURED_MAX_SHOTS))
    # When every sweep width exceeds the cap, fall back to the cap itself so
    # the config's max_qubits contract ("wider than this is skipped") holds.
    sweep_widths = [w for w in widths if w <= config.max_qubits] or [
        max(1, config.max_qubits)
    ]
    points: list[MeasuredBatchPoint] = []
    for width in sweep_widths:
        circuit = qft_circuit(width)
        plan = SingleShotPartitioner().plan(circuit, shots, noise_model)
        # The per-shot side runs on the optimized backend — the same kernel
        # family the batched backend vectorises — so the measured ratio
        # isolates the batching effect rather than kernel differences
        # (config.backend would make e.g. "numpy" inflate the "speedup").
        per_shot_seconds = min(
            BaselineNoisySimulator(
                noise_model, seed=config.seed, backend="optimized"
            ).run(circuit, shots).cost.wall_time_seconds
            for _ in range(repeats)
        )
        for batch_size in batch_sizes:
            batched_seconds = min(
                TQSimEngine(
                    noise_model, seed=config.seed, backend="batched",
                    max_batch=batch_size,
                ).run(circuit, shots, plan=plan).cost.wall_time_seconds
                for _ in range(repeats)
            )
            points.append(
                MeasuredBatchPoint(
                    circuit_name=circuit.name or "qft",
                    num_qubits=width,
                    batch_size=batch_size,
                    shots=shots,
                    per_shot_seconds=per_shot_seconds,
                    batched_seconds=batched_seconds,
                )
            )
    return points


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ParallelShotResult:
    """Run the modeled A100 sweep and the measured batched-backend sweep."""
    points = parallel_shot_sweep(device=A100)
    at_20 = max(p.speedup for p in points if p.num_qubits == 20)
    at_25 = max(p.speedup for p in points if p.num_qubits == 25)
    per_shot_24 = next(
        p.memory_fraction for p in points
        if p.num_qubits == 24 and p.parallel_shots == 1
    )
    return ParallelShotResult(
        points=points,
        measured_points=measured_batch_sweep(config),
        max_speedup_at_20_qubits=at_20,
        max_speedup_at_25_qubits=at_25,
        memory_fraction_per_shot_at_24_qubits=per_shot_24,
        process_sweep=measured_process_sweep(config),
    )
