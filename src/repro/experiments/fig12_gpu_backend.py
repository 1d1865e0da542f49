"""Figure 12: TQSim speedup on a GPU (CuStateVec) backend.

Paper result: TQSim achieves a 2.3x average (up to 3.98x) speedup when the
simulation backend is CuStateVec instead of Qulacs, demonstrating that the
gains come from computation reduction rather than backend-specific tricks.
No GPU exists in this environment, so the backend-independent cost counters
of real (NumPy) runs are converted into modeled wall-clock on an A100 and a
V100 device profile; the speedup is then the ratio of modeled times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.devices import A100, V100, DeviceProfile
from repro.circuits.library.suite import benchmark_suite
from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig, compare_simulators
from repro.metrics.statistics import geometric_mean
from repro.noise.sycamore import depolarizing_noise_model

__all__ = ["GpuBackendRow", "GpuBackendResult", "run"]

PAPER_AVERAGE_SPEEDUP = 2.3
PAPER_MAX_SPEEDUP = 3.98


@dataclass(frozen=True)
class GpuBackendRow:
    """Modeled GPU-backend speedup for one benchmark class representative."""

    benchmark_class: str
    circuit_name: str
    num_qubits: int
    num_gates: int
    modeled_speedup_a100: float
    modeled_speedup_v100: float
    cpu_cost_speedup: float


@dataclass(frozen=True)
class GpuBackendResult:
    """Per-class modeled GPU speedups."""

    rows: list[GpuBackendRow]

    @property
    def average_speedup_a100(self) -> float:
        """Geometric-mean modeled speedup on the A100 profile."""
        return geometric_mean([row.modeled_speedup_a100 for row in self.rows])


def _modeled_speedup(row, profile: DeviceProfile) -> float:
    baseline_seconds = profile.estimate_seconds(row.baseline.cost, row.num_qubits)
    tqsim_seconds = profile.estimate_seconds(row.tqsim.cost, row.num_qubits)
    return baseline_seconds / tqsim_seconds


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> GpuBackendResult:
    """Run one representative circuit per class and model GPU-backend times."""
    noise_model = depolarizing_noise_model()
    seen_classes: set[str] = set()
    rows: list[GpuBackendRow] = []
    for spec, circuit in benchmark_suite(max_qubits=config.max_qubits,
                                         seed=config.seed):
        if spec.benchmark_class in seen_classes:
            continue
        seen_classes.add(spec.benchmark_class)
        comparison = compare_simulators(circuit, noise_model, config)
        rows.append(
            GpuBackendRow(
                benchmark_class=spec.benchmark_class,
                circuit_name=spec.name,
                num_qubits=comparison.num_qubits,
                num_gates=comparison.num_gates,
                modeled_speedup_a100=_modeled_speedup(comparison, A100),
                modeled_speedup_v100=_modeled_speedup(comparison, V100),
                cpu_cost_speedup=comparison.cost_speedup,
            )
        )
    return GpuBackendResult(rows=rows)
