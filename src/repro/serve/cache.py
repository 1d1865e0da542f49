"""The serving layer's cross-request caches.

Three memoisations turn a repeated-circuit request mix from "simulate
everything again" into "look the hard parts up", all keyed by the stable
:meth:`~repro.circuits.circuit.Circuit.content_hash` fingerprint so that
cosmetically different but semantically equal submissions share entries:

* **transpile** — :func:`~repro.circuits.transpile.fuse_single_qubit_runs`
  output keyed by the *raw* circuit hash.  Fusion is pure, so the fused
  circuit is shared by every request that submits the same gates.
* **plan** — DCP partition plans keyed by ``(fused-hash, shots,
  noise, backend)``.  The plan search is pure and (in calibrated mode)
  the most expensive non-simulation work a request triggers.
* **prefix states** — noiseless intermediate statevectors keyed by
  ``(fused-hash, subcircuit-lengths, depth)``.  Under a trivial noise
  model the state after ``d`` subcircuits is *path-independent* (every
  tree node of one layer holds the same amplitudes), so one entry per
  depth serves every path — and the depth-``L`` entry lets a warm request
  skip the tree entirely and go straight to leaf sampling
  (:meth:`~repro.serve.server.SimulationServer`).

All three are :class:`~repro.core.statecache.LRUCache` instances: the plan
and transpile caches bound their entry count (small pure-Python objects),
the statevector cache its resident bytes, because its entries are the
actual memory hazard.  Every cache keeps hit/miss/eviction stats
(:class:`~repro.core.statecache.CacheStats`); the server flushes deltas
onto ``serve.cache.*`` obs counters per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.statecache import (
    LRUCache,
    NamespacedStateCache,
    one_per_entry,
)

__all__ = ["ServeCaches", "DEFAULT_STATE_CACHE_BYTES"]

#: Default budget of the shared cross-request statevector cache.
DEFAULT_STATE_CACHE_BYTES = 512 * 1024 * 1024


@dataclass
class ServeCaches:
    """The server's three cross-request caches plus stat-flush bookkeeping."""

    plan: LRUCache = field(
        default_factory=lambda: LRUCache(256, size=one_per_entry)
    )
    transpile: LRUCache = field(
        default_factory=lambda: LRUCache(256, size=one_per_entry)
    )
    prefix: LRUCache = field(
        default_factory=lambda: LRUCache(DEFAULT_STATE_CACHE_BYTES)
    )
    #: Stats already flushed onto obs counters, per cache name.
    _flushed: dict[str, dict[str, int]] = field(default_factory=dict)

    def state_view(
        self, fused_hash: str, lengths: tuple[int, ...]
    ) -> NamespacedStateCache:
        """Depth-keyed view of the prefix cache for one (circuit, plan).

        ``view.get(d)`` / ``view.put(d, state)`` address the noiseless
        state after the first ``d`` subcircuits.  The engine-facing
        path-keyed view (:meth:`path_view`) maps onto the same entries.
        """
        return self.prefix.namespaced(fused_hash, lengths)

    def path_view(
        self, fused_hash: str, lengths: tuple[int, ...]
    ) -> NamespacedStateCache:
        """Path-keyed view over the same entries as :meth:`state_view`.

        Suitable for ``TQSimEngine.run(prefix_cache=...)``: a node path of
        length ``d`` collapses (``key_fn=len``) onto the shared depth-``d``
        entry — sound only for trivial noise, where the prefix state is
        path-independent.
        """
        return self.prefix.namespaced(fused_hash, lengths, key_fn=len)

    def stat_deltas(self) -> dict[str, dict[str, int]]:
        """Per-cache stat increments since the previous call.

        The server turns these into ``serve.cache.<name>.<stat>`` counter
        bumps; callers must serialise calls (the server holds its lock).
        """
        deltas: dict[str, dict[str, int]] = {}
        for name, cache in (
            ("plan", self.plan),
            ("transpile", self.transpile),
            ("prefix", self.prefix),
        ):
            current = cache.stats.as_dict()
            previous = self._flushed.get(name, {})
            delta = {
                stat: value - previous.get(stat, 0)
                for stat, value in current.items()
                if value != previous.get(stat, 0)
            }
            if delta:
                deltas[name] = delta
            self._flushed[name] = current
        return deltas
