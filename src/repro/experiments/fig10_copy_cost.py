"""Figure 10: state-copy cost normalised to one gate execution.

Paper result: copying a statevector costs ~10 gate executions on a desktop
GPU, ~40–45 on the Xeon server CPUs, and the least on the HBM2-equipped V100;
the value is roughly width-independent, so an averaged copy cost is used by
the partitioner.  The local NumPy substrate is measured directly and shown
next to the modeled values of the paper's six systems, and — since the
calibrated :class:`~repro.core.costmodel.CostModel` grounds the same ratio in
microbenchmarks of the batched backend — the calibrated copy costs are
tabulated side by side with the analytic profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.devices import DEVICE_PROFILES
from repro.core.copycost import (
    CopyCostProfile,
    MODELED_SYSTEM_COPY_COSTS,
    measure_copy_cost,
)
from repro.core.costmodel import CostModel, get_cost_model
from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig

__all__ = ["CopyCostResult", "run"]


@dataclass(frozen=True)
class CopyCostResult:
    """Measured local copy cost plus modeled values for the paper's systems.

    ``cost_models`` holds the calibrated per-width models of the batched
    backend; ``calibrated_copy_costs`` extracts their measured
    copy-cost-in-gates ratios for the side-by-side with ``local_profile``'s
    analytic estimate.
    """

    local_profile: CopyCostProfile
    local_average: float
    paper_systems: dict[str, float]
    modeled_profiles: dict[str, float]
    cost_models: dict[int, CostModel] = field(default_factory=dict)

    @property
    def calibrated_copy_costs(self) -> dict[int, float]:
        """Measured copy cost in gate executions, keyed by width."""
        return {
            width: model.copy_cost_in_gates
            for width, model in self.cost_models.items()
        }


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> CopyCostResult:
    """Profile the local machine and tabulate the modeled systems."""
    widths = sorted(
        {w for w in (8, 10, 12, config.max_qubits) if w >= 6}
    )
    profile = measure_copy_cost(widths=tuple(widths))
    modeled = {
        name: profile_obj.copy_cost_in_gates(20)
        for name, profile_obj in DEVICE_PROFILES.items()
    }
    # Calibrate at the profile's extremes: the ratio is roughly
    # width-independent, so two widths suffice to show it.
    calibration_widths = sorted({widths[0], widths[-1]})
    cost_models = {
        width: get_cost_model("batched", width)
        for width in calibration_widths
    }
    return CopyCostResult(
        local_profile=profile,
        local_average=profile.average,
        paper_systems=dict(MODELED_SYSTEM_COPY_COSTS),
        modeled_profiles=modeled,
        cost_models=cost_models,
    )
