"""Vectorised vs row-looping backends under the TQSim engine's traversal.

The ``batched`` backend's vectorised kernels must be a pure *execution*
change against the ``optimized`` backend's row loop: same plan, same seed,
same accounted work — identical counts and identical cost counters at every
chunk cap.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import (
    DynamicCircuitPartitioner,
    ManualPartitioner,
    TQSimEngine,
    UniformCircuitPartitioner,
)
from repro.metrics import total_variation_distance
from repro.noise import NoiseModel, ReadoutError, depolarizing_noise_model
from repro.statevector import StatevectorSimulator


def _counter_tuple(result):
    cost = result.cost
    return (
        cost.gate_applications,
        cost.noise_applications,
        cost.state_copies,
        cost.leaf_samples,
    )


def _run(circuit, shots, plan, noise_model=None, seed=7, **engine_kwargs):
    engine = TQSimEngine(noise_model, seed=seed, **engine_kwargs)
    return engine.run(circuit, shots, plan=plan)


# ---------------------------------------------------------------------------
# Noiseless equivalence: bitwise-identical counts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("max_batch", [1, 4, None])
def test_noiseless_counts_identical_to_sequential(qft5, max_batch):
    shots = 96
    plan = UniformCircuitPartitioner(3).plan(qft5, shots, None)
    sequential = _run(qft5, shots, plan, backend="optimized")
    caps = {} if max_batch is None else {"max_batch": max_batch}
    batched = _run(qft5, shots, plan, backend="batched", **caps)
    assert batched.counts == sequential.counts
    assert batched.metadata["execution"] == "tree-batched"
    assert sequential.metadata["execution"] == "tree-batched"


def test_noiseless_counts_identical_with_full_arity_chunks(qft5):
    shots = 64
    plan = ManualPartitioner((16, 4)).plan(qft5, shots, None)
    sequential = _run(qft5, shots, plan, backend="optimized")
    # Full-arity chunks: max_batch set to the largest layer arity.
    batched = _run(qft5, shots, plan, backend="batched", max_batch=16)
    assert batched.counts == sequential.counts


# ---------------------------------------------------------------------------
# Noisy equivalence: TVD-consistent counts
# ---------------------------------------------------------------------------
def test_noisy_counts_tvd_consistent(bv6):
    noise_model = depolarizing_noise_model()
    noise_model.readout_error = ReadoutError(0.02)
    shots = 1200
    plan = ManualPartitioner((300, 4)).plan(bv6, shots, noise_model)
    ideal = StatevectorSimulator().probabilities(bv6)
    sequential = _run(bv6, shots, plan, noise_model, backend="optimized")
    batched = _run(bv6, shots, plan, noise_model, backend="batched")
    # Same physics, different RNG consumption order: both trajectory
    # ensembles must sit close to the same distribution.
    tvd_between = total_variation_distance(
        sequential.probabilities(), batched.probabilities()
    )
    assert tvd_between < 0.1
    assert total_variation_distance(ideal, batched.probabilities()) < \
        total_variation_distance(ideal, sequential.probabilities()) + 0.05


def test_noisy_counts_mixed_kraus_channels(ghz3):
    from repro.noise.channels import AmplitudeDampingChannel

    noise_model = NoiseModel(
        single_qubit_channels=[AmplitudeDampingChannel(0.05)],
        two_qubit_channels=[AmplitudeDampingChannel(0.03)],
    )
    shots = 200
    plan = UniformCircuitPartitioner(2).plan(ghz3, shots, noise_model)
    sequential = _run(ghz3, shots, plan, noise_model, backend="optimized")
    batched = _run(ghz3, shots, plan, noise_model, backend="batched")
    # General Kraus channels take the per-trajectory fallback; the ensembles
    # still agree and the accounted work is identical.
    assert _counter_tuple(batched) == _counter_tuple(sequential)
    assert total_variation_distance(
        sequential.probabilities(), batched.probabilities()
    ) < 0.15


# ---------------------------------------------------------------------------
# Cost counters: identical across chunk sizes and vs sequential
# ---------------------------------------------------------------------------
def test_cost_counters_identical_across_batch_sizes(qft5, depolarizing_model):
    shots = 128
    plan = DynamicCircuitPartitioner(margin_of_error=0.1).plan(
        qft5, shots, depolarizing_model
    )
    full_arity = max(plan.tree.arities)
    sequential = _run(qft5, shots, plan, depolarizing_model, backend="optimized")
    counters = {
        max_batch: _counter_tuple(
            _run(qft5, shots, plan, depolarizing_model,
                 backend="batched", max_batch=max_batch)
        )
        for max_batch in (1, 4, full_arity)
    }
    assert counters[1] == counters[4] == counters[full_arity]
    assert counters[1] == _counter_tuple(sequential)
    assert sequential.cost.state_copies == plan.tree.state_copies
    assert sequential.cost.leaf_samples == plan.total_outcomes


# ---------------------------------------------------------------------------
# Shots accounting
# ---------------------------------------------------------------------------
def test_shots_records_actual_leaves_and_requested_in_metadata(qft5):
    shots = 50
    plan = ManualPartitioner((9, 7)).plan(qft5, shots, None)  # 63 leaves
    for backend in ("optimized", "batched"):
        result = _run(qft5, shots, plan, backend=backend)
        assert result.shots == plan.total_outcomes == 63
        assert result.total_outcomes == 63
        assert result.metadata["requested_shots"] == shots


# ---------------------------------------------------------------------------
# Engine configuration and backend plumbing
# ---------------------------------------------------------------------------
def test_broadcast_into_copies_state_to_every_row():
    backend = get_backend("batched")
    state = backend.initial_state(3)
    state = backend.apply_unitary(state, np.array([[0, 1], [1, 0]]), (1,))
    batch = backend.broadcast_into(backend.allocate_batch(3, 5), state)
    assert batch.shape == (5, 8)
    assert np.array_equal(batch, np.broadcast_to(state, (5, 8)))


def test_batched_traversal_honours_out_of_place_backends(qft5):
    """An out-of-place batch backend must still land results in the pool."""
    from repro.backends import BatchedNumpyBackend

    class OutOfPlaceBatched(BatchedNumpyBackend):
        def apply_unitary(self, state, matrix, targets):
            fresh = state.copy()
            super().apply_unitary(fresh, matrix, targets)
            return fresh

    shots = 48
    plan = UniformCircuitPartitioner(2).plan(qft5, shots, None)
    in_place = _run(qft5, shots, plan, backend="batched")
    out_of_place = _run(qft5, shots, plan, backend=OutOfPlaceBatched())
    assert out_of_place.counts == in_place.counts


def test_single_layer_plan_runs_batched(ghz3):
    """A one-subcircuit plan degenerates to batched per-shot execution."""
    from repro.core import SingleShotPartitioner

    plan = SingleShotPartitioner().plan(ghz3, 40, None)
    sequential = _run(ghz3, 40, plan, backend="optimized")
    batched = _run(ghz3, 40, plan, backend="batched")
    assert batched.counts == sequential.counts
    assert batched.cost.state_copies == 0
    assert batched.cost.gate_applications == 40 * ghz3.num_gates
