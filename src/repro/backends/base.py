"""The :class:`Backend` abstraction every simulator executes on.

A backend owns the numerics of statevector simulation: allocating and copying
state buffers, applying unitaries and sampled noise, and drawing measurement
outcomes.  The TQSim engine, the per-shot baseline and the ideal statevector
simulator are all written against this interface, which is what makes the
paper's central claim — that tree-based trajectory reuse is backend
independent — testable: any registered backend can be swapped in via
:func:`repro.backends.get_backend`.

Batches
-------
The engine's tree traversal advances sibling trajectories as the rows of a
``(B, 2**n)`` array (:meth:`Backend.allocate_batch`).  The ABC supplies a
generic batch surface that loops the rows through the single-state kernels
(``apply_gate``, ``apply_noise_events_multi``, ``sample_outcomes_multi``);
:class:`~repro.backends.batched.BatchedNumpyBackend` overrides it with
vectorised kernels that advance every row in one call.

Mutation contract
-----------------
``apply_unitary`` / ``apply_gate`` / ``apply_noise`` *may* transform the state
in place and always return the array holding the result; callers must use the
returned array and must not assume the input was left intact.  The reference
:class:`~repro.backends.numpy_backend.NumpyBackend` is purely functional while
:class:`~repro.backends.optimized.OptimizedNumpyBackend` works in place, and
both honour this contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuits.gate import Gate
from repro.noise.channels import ReadoutError
from repro.noise.model import NoiseEvent, NoiseModel
from repro.statevector.sampling import index_to_bitstring, inverse_cdf_index

if TYPE_CHECKING:
    from repro.core.pathrng import UniformStream

    #: Anything a backend may draw uniforms from: a numpy ``Generator`` (the
    #: baseline simulators) or a path-keyed counter stream (the engine's
    #: seeding contract).  Runtime code never imports this — annotations are
    #: strings under ``from __future__ import annotations`` — so the
    #: backends package stays import-cycle free.
    RandomStream = np.random.Generator | UniformStream

__all__ = ["Backend"]


class Backend(ABC):
    """Abstract execution backend for statevector simulation."""

    #: Registry key of the backend (subclasses override).
    name: str = "abstract"

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def allocate_state(self, num_qubits: int) -> np.ndarray:
        """Allocate an *uninitialised* state buffer (for buffer pools)."""
        return np.empty(2**num_qubits, dtype=complex)

    def allocate_batch(self, num_qubits: int, rows: int) -> np.ndarray:
        """Allocate an *uninitialised* ``(rows, 2**n)`` batch of states."""
        if rows < 1:
            raise ValueError("rows must be >= 1")
        return np.empty((rows, 2**num_qubits), dtype=complex)

    def initial_state(self, num_qubits: int) -> np.ndarray:
        """Allocate |0...0>."""
        return self.reset_state(self.allocate_state(num_qubits))

    def reset_state(self, state: np.ndarray) -> np.ndarray:
        """Overwrite ``state`` (or every row of a batch) with |0...0> in place."""
        state.fill(0.0)
        state[..., 0] = 1.0
        return state

    def copy_state(self, state: np.ndarray) -> np.ndarray:
        """Deep copy of a statevector (the operation TQSim pays for reuse)."""
        return state.copy()

    def broadcast_into(self, batch: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Copy one statevector into every row of a ``(B, 2**n)`` batch.

        This is the reuse copy of the tree traversal: a parent's pooled
        state fans out to ``B`` sibling trajectories in one write.
        Each row is a full copy, so callers account ``B`` state copies.
        """
        np.copyto(batch, state.reshape(1, -1) if state.ndim == 1 else state)
        return batch

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    @abstractmethod
    def apply_unitary(
        self, state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]
    ) -> np.ndarray:
        """Apply a ``2**k x 2**k`` matrix to the target qubits of ``state``.

        Returns the array holding the result (see the mutation contract in
        the module docstring).  The matrix is not required to be unitary —
        Kraus operators are applied through the same kernels.
        """

    def apply_gate(self, state: np.ndarray, gate: Gate) -> np.ndarray:
        """Apply one ideal gate to a statevector or to every batch row.

        The generic batch form loops the rows of a ``(B, 2**n)`` state
        through :meth:`apply_unitary`, writing out-of-place results back
        into the row, and returns the batch itself.
        """
        matrix = gate.to_matrix()
        if state.ndim == 1:
            return self.apply_unitary(state, matrix, gate.qubits)
        for row in state:
            out = self.apply_unitary(row, matrix, gate.qubits)
            if out is not row:
                np.copyto(row, out)
        return state

    def apply_noise(
        self,
        state: np.ndarray,
        gate: Gate,
        noise_model: NoiseModel,
        rng: RandomStream,
    ) -> np.ndarray:
        """Sample and apply the noise events attached to ``gate``."""
        return self.apply_noise_events(
            state, noise_model.events_for_gate(gate), rng
        )

    def apply_noise_events(
        self,
        state: np.ndarray,
        events: Sequence[NoiseEvent],
        rng: RandomStream,
    ) -> np.ndarray:
        """Sample and apply already-matched noise events.

        Engines that need the event list anyway (for cost accounting) call
        this directly so ``events_for_gate`` matching runs once per gate.
        """
        from repro.noise.trajectory import apply_noise_events

        return apply_noise_events(state, events, rng, backend=self)

    def apply_noise_events_multi(
        self,
        state: np.ndarray,
        events: Sequence[NoiseEvent],
        rngs: Sequence[RandomStream],
    ) -> np.ndarray:
        """Apply noise events to a batch where row ``i`` draws from ``rngs[i]``.

        Per-row independent streams are what make sharded execution bitwise
        reproducible: a trajectory's noise depends only on its own stream —
        a :class:`numpy.random.Generator` or a path-keyed
        :class:`~repro.core.pathrng.PathStream` — never on how trajectories
        were grouped into batches.  Row ``i`` consumes ``rngs[i]`` exactly
        as :meth:`apply_noise_events` would on a single state.  The generic
        implementation loops rows; batch backends override it to keep both
        the operator application and the draws vectorised.
        """
        batched = state if state.ndim == 2 else state.reshape(1, -1)
        if batched.shape[0] != len(rngs):
            raise ValueError("need exactly one generator per batch row")
        for i, row_rng in enumerate(rngs):
            row = batched[i]
            out = self.apply_noise_events(row, events, row_rng)
            if out is not row:
                np.copyto(row, out)
        return state

    def sample_outcomes_multi(
        self,
        state: np.ndarray,
        rngs: Sequence[RandomStream],
        readout_error: ReadoutError | None = None,
    ) -> list[str]:
        """Sample one outcome per batch row, row ``i`` drawing from ``rngs[i]``.

        Row ``i`` consumes ``rngs[i]`` exactly as :meth:`sample_outcome` would
        on a single state (one uniform for the outcome, then the readout
        flips), so results are independent of batch grouping.
        """
        batched = state if state.ndim == 2 else state.reshape(1, -1)
        if batched.shape[0] != len(rngs):
            raise ValueError("need exactly one generator per batch row")
        return [
            self.sample_outcome(batched[i], row_rng, readout_error)
            for i, row_rng in enumerate(rngs)
        ]

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def probabilities(self, state: np.ndarray) -> np.ndarray:
        """Born-rule probabilities of ``state`` (not normalised)."""
        return np.square(state.real) + np.square(state.imag)

    def sample_outcome(
        self,
        state: np.ndarray,
        rng: RandomStream,
        readout_error: ReadoutError | None = None,
    ) -> str:
        """Sample one measurement outcome, including optional readout error.

        Uses an inverse-CDF draw (``cumsum`` + ``searchsorted``) instead of
        ``rng.choice(p=...)``, and vectorised per-bit readout flips.  This is
        the single shared implementation behind every trajectory simulator.
        """
        if state.ndim != 1:
            raise ValueError(
                "sample_outcome takes one statevector; use "
                "sample_outcomes_multi for a batch"
            )
        cumulative = np.cumsum(self.probabilities(state))
        outcome = inverse_cdf_index(cumulative, rng)
        num_qubits = int(cumulative.size).bit_length() - 1
        if readout_error is not None:
            outcome = int(
                self._apply_readout_flips(
                    np.array([outcome]), num_qubits, readout_error, rng
                )[0]
            )
        return index_to_bitstring(outcome, num_qubits)

    @staticmethod
    def _readout_flips_from_uniforms(
        outcomes: np.ndarray,
        num_qubits: int,
        readout_error: ReadoutError,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Flip each measured bit of each outcome given pre-drawn uniforms.

        ``uniforms`` is ``(outcomes.size, num_qubits)``, row ``i`` holding
        outcome ``i``'s per-bit draws in bit order.  Splitting the draw from
        the flip lets batched callers supply one vectorised block of
        uniforms for many per-row streams while remaining bitwise identical
        to the per-outcome path.
        """
        positions = np.arange(num_qubits)
        bits = (outcomes[:, None] >> positions[None, :]) & 1
        flip_probability = np.where(
            bits == 1, readout_error.p0_given_1, readout_error.p1_given_0
        )
        bits ^= uniforms < flip_probability
        return bits @ (1 << positions)

    @staticmethod
    def _apply_readout_flips(
        outcomes: np.ndarray,
        num_qubits: int,
        readout_error: ReadoutError,
        rng: RandomStream,
    ) -> np.ndarray:
        """Flip each measured bit of each outcome index with its error rate.

        Vectorised over a batch of outcome indices — the single readout
        implementation behind both per-shot and batched sampling, consuming
        ``num_qubits`` uniforms per outcome in outcome order.
        """
        return Backend._readout_flips_from_uniforms(
            outcomes,
            num_qubits,
            readout_error,
            rng.random((outcomes.size, num_qubits)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
