"""Correctness checks applied to every result the benchmark produces.

Each check returns a list of failure messages; an empty list means the
result passed.  The benchmark counts an operation as failed when any check
involving it fails, so ``error_rate`` covers wrong answers as well as
exceptions and rejected requests.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from repro.statevector.sampling import counts_to_probability_vector

#: Per-check false-alarm rate of the TVD bound.  A run makes a handful of
#: TVD checks, so a correct program fails one with probability ~1e-5.
FALSE_ALARM_RATE = 1e-6


def counts_sum(counts: dict[str, int], shots: int) -> list[str]:
    """The counts must add up to the number of outcomes reported."""
    total = sum(counts.values())
    if total != shots:
        return [f"counts sum to {total}, result reports {shots} shots"]
    return []


def predicted_counters(plan, noise_model) -> dict[str, int]:
    """Cost counters a full run of ``plan`` must report.

    Layer ``i`` of the tree has ``prod(A_0..A_i)`` nodes, each applying
    subcircuit ``i`` once; every node below the first layer starts from a
    copy of its parent's state, and every leaf samples one outcome.
    """
    nodes = list(accumulate(plan.tree.arities, lambda a, b: a * b))
    gates = sum(n * len(sub) for n, sub in zip(nodes, plan.subcircuits))
    noise = 0
    if noise_model is not None:
        noise = sum(
            n * sum(len(noise_model.events_for_gate(g)) for g in sub)
            for n, sub in zip(nodes, plan.subcircuits)
        )
    return {
        "gate_applications": gates,
        "noise_applications": noise,
        "state_copies": sum(nodes[1:]),
        "leaf_samples": nodes[-1],
    }


def counters_match(cost, predicted: dict[str, int]) -> list[str]:
    """The engine's exact counters must equal the plan's prediction."""
    return [
        f"{name} = {getattr(cost, name)}, plan predicts {value}"
        for name, value in predicted.items()
        if getattr(cost, name) != value
    ]


def identical(first: dict[str, int], second: dict[str, int], what: str) -> list[str]:
    """Two results that must agree bitwise (same seed, or warm vs cold)."""
    if first != second:
        return [f"{what}: counts differ"]
    return []


def tvd(counts: dict[str, int], probabilities: np.ndarray, num_qubits: int) -> float:
    """Total-variation distance between sampled counts and a distribution."""
    empirical = counts_to_probability_vector(counts, num_qubits)
    return 0.5 * float(np.abs(empirical - probabilities).sum())


def tvd_bound(probabilities: np.ndarray, samples: int) -> float:
    """Largest TVD a correct sampler exceeds with probability ``FALSE_ALARM_RATE``.

    ``samples`` is the number of independent blocks behind the estimate:
    the shot count for independent shots, the first-layer arity of a reuse
    tree (leaves under one first-layer node share a noise trajectory, while
    distinct first-layer subtrees are independent).  With ``B`` independent
    equal blocks each outcome frequency has variance at most
    ``p(1-p)/B``, so ``E[TVD] <= 1/2 sum sqrt(p(1-p)/B)``; swapping one block
    moves the TVD by at most ``1/B``, so McDiarmid's inequality adds
    ``sqrt(ln(1/alpha) / 2B)`` at false-alarm rate ``alpha``.
    """
    p = np.clip(probabilities, 0.0, 1.0)
    expected = 0.5 * float(np.sqrt(p * (1.0 - p) / samples).sum())
    return expected + math.sqrt(math.log(1.0 / FALSE_ALARM_RATE) / (2.0 * samples))


def tvd_within(
    counts: dict[str, int],
    probabilities: np.ndarray,
    num_qubits: int,
    samples: int,
    what: str,
) -> list[str]:
    """Sampled counts must sit within :func:`tvd_bound` of the reference."""
    distance = tvd(counts, probabilities, num_qubits)
    bound = tvd_bound(probabilities, samples)
    if distance > bound:
        return [f"{what}: TVD {distance:.4f} exceeds bound {bound:.4f} "
                f"at {samples} independent samples"]
    return []


def merge_counts(results: list[dict[str, int]]) -> dict[str, int]:
    merged: dict[str, int] = {}
    for counts in results:
        for key, value in counts.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def independent_samples(plan, noisy: bool) -> int:
    """Independent blocks behind one run of ``plan`` (see :func:`tvd_bound`).

    Without noise every leaf samples the same final state from its own
    stream, so all leaves are independent; with noise only distinct
    first-layer subtrees are.
    """
    if not noisy:
        return plan.total_outcomes
    return plan.tree.arities[0]
