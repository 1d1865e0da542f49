"""Vectorised batch backend: B noisy trajectories as one ``(B, 2**n)`` array.

The paper's Figure 8 observes that one statevector update of a small circuit
does not saturate the device, so executing B trajectories *batched* — one
kernel launch advancing all B states — amortises the per-gate overhead and
wins up to ~3x before the updates themselves fill the machine.  The same
argument holds on the NumPy substrate, where the per-gate overhead is Python
dispatch: this backend stores B trajectories as the rows of a ``(B, 2**n)``
array and advances all of them with one NumPy call per gate.

The gate numerics are inherited from
:class:`~repro.backends.optimized.OptimizedNumpyBackend` unchanged: its
slice-view kernels address qubit ``t`` through a trailing ``(..., 2, 2**t)``
reshape whose leading axis absorbs any batch dimension, so applying them to
the flattened batch advances each row bit-for-bit like a single state on the
optimized backend.  What this subclass adds is the vectorised form of the
:class:`~repro.backends.base.Backend` ABC's row-looping batch surface: one
kernel call per gate for every row; mixed-unitary noise samples one branch
*per trajectory*, then applies each sampled branch's unitary to the
sub-batch of rows that drew it (general Kraus channels keep a
per-trajectory loop because their branch probabilities depend on the
state); measurement is one inverse-CDF pass over row-wise cumulative
probabilities with readout flips vectorised across the batch.

When the rows' streams are path-keyed counter streams
(:class:`~repro.core.pathrng.PathStream`), the next uniform of every row is
a pure function of ``(key, counter)``, so one
:func:`~repro.core.pathrng.draw_block` call produces the whole batch's draws
— bitwise identical to the per-row scalar draws of the row-looping backends
— and no per-row Python loop survives on the hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.backends.optimized import OptimizedNumpyBackend
from repro.circuits.gate import Gate
from repro.noise.channels import ReadoutError
from repro.noise.model import NoiseEvent
from repro.statevector.apply import apply_unitary
from repro.statevector.sampling import index_to_bitstring

if TYPE_CHECKING:
    from repro.backends.base import RandomStream

__all__ = ["BatchedNumpyBackend"]


class BatchedNumpyBackend(OptimizedNumpyBackend):
    """The optimized in-place backend, vectorised over a batch of trajectories."""

    name = "batched"

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_unitary(
        self, state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]
    ) -> np.ndarray:
        """Apply a matrix to the target qubits of every trajectory in place.

        ``state`` may be a ``(B, 2**n)`` batch or a single ``(2**n,)``
        statevector (treated as a batch of one).  The 1q/2q kernels run on
        the flattened batch — their leading view axis absorbs the batch
        dimension, so one call advances every row.
        """
        dim = int(state.shape[-1])
        num_qubits = dim.bit_length() - 1
        k = len(targets)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2**k, 2**k):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {k} target qubits"
            )
        for target in targets:
            if not 0 <= target < num_qubits:
                raise ValueError(f"target qubit {target} out of range")
        if k == 1:
            self._apply_1q(state.reshape(-1), matrix, targets[0])
        elif k == 2:
            if targets[0] == targets[1]:
                raise ValueError("target qubits must be distinct")
            self._apply_2q(state.reshape(-1), matrix, targets[0], targets[1])
        else:
            # Rare wide gates reuse the reference contraction row by row.
            for row in state.reshape(-1, dim):
                row[...] = apply_unitary(row, matrix, targets)
        return state

    def apply_gate(self, state: np.ndarray, gate: Gate) -> np.ndarray:
        """Apply one ideal gate to every row in a single kernel call."""
        return self.apply_unitary(state, gate.to_matrix(), gate.qubits)

    # ------------------------------------------------------------------
    # Noise (per-trajectory sampling, group-wise application)
    # ------------------------------------------------------------------
    def _apply_sampled_branches(
        self, batched: np.ndarray, event: NoiseEvent, indices: np.ndarray
    ) -> None:
        """Apply each sampled mixture branch to the rows that drew it."""
        channel = event.channel
        batch = batched.shape[0]
        # sorted(set(...)) beats np.unique at the tiny batch sizes the tree
        # traversal produces (<= max_batch rows) and keeps branch order
        # deterministic.
        for branch in sorted(set(indices.tolist())):
            if branch == 0 and channel.mixture_identity_first:
                continue
            unitary = channel.mixture_unitary(int(branch))
            rows = np.flatnonzero(indices == branch)
            if rows.size == batch:
                self.apply_unitary(batched, unitary, event.qubits)
            else:
                sub = batched[rows]  # fancy index: a contiguous copy
                self.apply_unitary(sub, unitary, event.qubits)
                batched[rows] = sub

    def apply_noise_events_multi(
        self,
        state: np.ndarray,
        events: Sequence[NoiseEvent],
        rngs: Sequence[RandomStream],
    ) -> np.ndarray:
        """Apply noise events with row ``i`` sampling from ``rngs[i]``.

        With path-keyed counter streams (the engine's traversal), each
        mixed-unitary event takes *one* vectorised draw for the whole batch
        — every row's next uniform is a pure function of its ``(key,
        counter)`` pair, bitwise identical to the scalar draw of the ABC's
        row loop — and the branch *application* stays group-wise
        vectorised.  Generic per-row generators fall back to scalar draws.
        General Kraus channels keep the per-row loop either way (their
        branch probabilities depend on the state), each row consuming one
        uniform from its own stream.  Per-row streams make the result
        independent of how trajectories were chunked into batches, which is
        what sharded dispatch relies on.
        """
        batched = state if state.ndim == 2 else state.reshape(1, -1)
        if batched.shape[0] != len(rngs):
            raise ValueError("need exactly one generator per batch row")
        from repro.core.pathrng import all_path_streams, draw_block
        from repro.noise.trajectory import sample_channel_on_state

        block_draws = all_path_streams(rngs)
        for event in events:
            channel = event.channel
            if channel.is_mixed_unitary:
                if block_draws:
                    uniforms = draw_block(rngs, 1)[:, 0]
                    indices = channel.mixture_indices_from_uniforms(uniforms)
                else:
                    indices = np.fromiter(
                        (channel.sample_mixture_index(rng) for rng in rngs),
                        dtype=np.int64,
                        count=len(rngs),
                    )
                self._apply_sampled_branches(batched, event, indices)
            else:
                for i, row_rng in enumerate(rngs):
                    batched[i], _ = sample_channel_on_state(
                        batched[i], channel, event.qubits, row_rng
                    )
        return state

    def apply_noise_events_uniforms(
        self,
        state: np.ndarray,
        events: Sequence[NoiseEvent],
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Apply mixed-unitary events from pre-drawn per-row uniforms.

        ``uniforms`` is a ``(B, len(events))`` block whose column ``j``
        holds each row's branch-selection uniform for ``events[j]`` — the
        engine pre-draws a whole subcircuit's noise uniforms in one
        :func:`~repro.core.pathrng.draw_block` call (valid because every
        mixed-unitary event consumes exactly one uniform per row, keeping
        the row counters in lockstep).  Branch application is identical to
        :meth:`apply_noise_events_multi`; callers must only pass events
        whose channels are mixed-unitary.
        """
        batched = state if state.ndim == 2 else state.reshape(1, -1)
        if uniforms.shape != (batched.shape[0], len(events)):
            raise ValueError("uniforms must be one column per event, "
                             "one row per trajectory")
        for j, event in enumerate(events):
            indices = event.channel.mixture_indices_from_uniforms(
                uniforms[:, j]
            )
            self._apply_sampled_branches(batched, event, indices)
        return state

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def sample_outcomes_multi(
        self,
        state: np.ndarray,
        rngs: Sequence[RandomStream],
        readout_error: ReadoutError | None = None,
    ) -> list[str]:
        """Sample one outcome per row, row ``i`` drawing from ``rngs[i]``.

        Each row consumes its own stream exactly like :meth:`sample_outcome`
        on a single state — one outcome uniform, then that row's
        ``num_qubits`` readout-flip uniforms.  With path-keyed counter
        streams both draws are single vectorised blocks across the batch
        (bitwise identical to the per-row scalar draws); generic generators
        fall back to the scalar per-row path.  The row-wise cumulative
        probabilities and the inverse-CDF comparison stay vectorised either
        way.
        """
        batched = state if state.ndim == 2 else state.reshape(1, -1)
        if batched.shape[0] != len(rngs):
            raise ValueError("need exactly one generator per batch row")
        from repro.core.pathrng import all_path_streams, draw_block

        block_draws = all_path_streams(rngs)
        if block_draws:
            draws = draw_block(rngs, 1)[:, 0]
        else:
            draws = np.fromiter(
                (rng.random() for rng in rngs), dtype=float, count=len(rngs)
            )
        # sum(cumulative <= draw) is exactly searchsorted(cumulative, draw,
        # side="right"), so outcomes are bitwise the per-row draw's.
        probabilities = self.probabilities(batched)
        cumulative = np.cumsum(probabilities, axis=1)
        totals = cumulative[:, -1]
        if np.any(totals <= 0):
            raise ValueError("cumulative probabilities sum to zero")
        batch, dim = cumulative.shape
        num_qubits = int(dim).bit_length() - 1
        scaled = draws * totals
        positions = np.sum(cumulative <= scaled[:, None], axis=1)
        outcomes = np.minimum(positions, dim - 1).astype(np.int64)
        if readout_error is not None:
            if block_draws:
                # One block draw yields every row's flip uniforms at once,
                # row i consuming counters exactly like its scalar path.
                outcomes = self._readout_flips_from_uniforms(
                    outcomes, num_qubits, readout_error,
                    draw_block(rngs, num_qubits),
                )
            else:
                for i, row_rng in enumerate(rngs):
                    outcomes[i : i + 1] = self._apply_readout_flips(
                        outcomes[i : i + 1], num_qubits, readout_error, row_rng
                    )
        return [index_to_bitstring(int(o), num_qubits) for o in outcomes]
