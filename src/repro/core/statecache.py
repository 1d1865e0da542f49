"""Size-bounded LRU caches: replayed statevectors, plans, fused circuits.

The engine's prefix replay (:meth:`~repro.core.engine.TQSimEngine.
_replay_prefix`) memoises rebuilt intermediate states so assignments sharing
an ancestor replay it once, and the serving layer (:mod:`repro.serve.cache`)
memoises plans, fused circuits and noiseless prefix states across requests.
:class:`LRUCache` serves all of them: a least-recently-used cache bounded by
the summed *size* of its entries, where a size function says what an entry
weighs — statevector bytes (``nbytes``, the default) or one per entry for
small pure-Python objects.  It

* **caps resident size** — inserts evict least-recently-used entries until
  the configured budget holds (an entry larger than the whole budget is
  rejected outright rather than evicting everything for nothing);
* **counts hits / misses / evictions** (:class:`CacheStats`) so callers can
  surface cache behaviour as obs counters;
* **is shareable** — a lock makes ``get``/``put`` safe from the serving
  layer's worker threads, and :meth:`LRUCache.namespaced` returns a
  keyspace view (key prefix + optional key transform) that lets one
  cross-request cache hold entries for many circuits, keyed by
  ``(circuit-hash, ..., path)``.

Entries are immutable by convention: the engine never evolves a cached
state in place (it copies first), so sharing references across runs,
requests and threads is sound.  Eviction can never change simulation
results — prefix accounting follows assignment *ownership*, not cache
behaviour, and a missing entry is simply replayed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

__all__ = [
    "CacheStats",
    "DEFAULT_PREFIX_CACHE_BYTES",
    "LRUCache",
    "NamespacedStateCache",
    "one_per_entry",
    "state_nbytes",
]

#: Default byte budget of a per-run prefix cache: generous for the widths
#: this package simulates (a 24-qubit statevector is 256 MiB) while keeping
#: deep-sharded runs from pinning one state per replayed path indefinitely.
DEFAULT_PREFIX_CACHE_BYTES = 256 * 1024 * 1024


@dataclass
class CacheStats:
    """Monotonic counters describing one cache's behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form (obs counter material)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "rejected": self.rejected,
        }


def state_nbytes(value: Any) -> int:
    """Size of an array entry: its resident bytes."""
    return int(value.nbytes)


def one_per_entry(value: Any) -> int:
    """Size of an entry in a count-bounded cache."""
    return 1


class LRUCache:
    """A size-bounded, thread-safe LRU cache.

    Parameters
    ----------
    max_size:
        Budget on the summed size of resident entries, in the units of
        ``size``.  ``None`` disables the bound.
    size:
        Weight of one entry: :func:`state_nbytes` (default) bounds resident
        bytes; :func:`one_per_entry` bounds the entry count.
    """

    def __init__(
        self,
        max_size: int | None = DEFAULT_PREFIX_CACHE_BYTES,
        size: Callable[[Any], int] = state_nbytes,
    ) -> None:
        if max_size is not None and max_size < 0:
            raise ValueError("max_size must be >= 0 (or None for unbounded)")
        self.max_size = max_size
        self.size = size
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._current_size = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def current_size(self) -> int:
        """Summed size of the resident entries."""
        return self._current_size

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Any | None:
        """The cached value for ``key`` (marked most-recently-used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any) -> bool:
        """Insert ``value`` under ``key``, evicting LRU entries to fit.

        Returns False (and counts a rejection) when the entry alone exceeds
        the budget — caching it would evict everything else for a
        single-use resident.  Re-putting an existing key replaces the entry.
        """
        weight = self.size(value)
        with self._lock:
            if self.max_size is not None and weight > self.max_size:
                self.stats.rejected += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._current_size -= previous[1]
            self._entries[key] = (value, weight)
            self._current_size += weight
            self.stats.puts += 1
            if self.max_size is not None:
                while self._current_size > self.max_size and self._entries:
                    _, (_, evicted) = self._entries.popitem(last=False)
                    self._current_size -= evicted
                    self.stats.evictions += 1
            return True

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        with self._lock:
            self._entries.clear()
            self._current_size = 0

    # ------------------------------------------------------------------
    def namespaced(
        self,
        *prefix: Hashable,
        key_fn: Callable[[Any], Hashable] | None = None,
    ) -> "NamespacedStateCache":
        """A view of this cache under a key prefix (plus optional transform).

        The view exposes the same ``get``/``put`` surface the engine's
        prefix replay consumes, mapping each key ``k`` to
        ``(*prefix, key_fn(k))`` in the shared cache.  ``key_fn`` is the
        normalisation hook: a noiseless circuit's prefix state is
        path-independent (identical for every sibling), so the serving
        layer passes ``key_fn=len`` to collapse all paths of one depth onto
        a single shared entry.
        """
        return NamespacedStateCache(self, prefix, key_fn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = "unbounded" if self.max_size is None else str(self.max_size)
        return (
            f"<LRUCache {len(self._entries)} entries, "
            f"size {self._current_size} of {bound}>"
        )


class NamespacedStateCache:
    """A keyspace view over a shared :class:`LRUCache`."""

    __slots__ = ("parent", "prefix", "key_fn")

    def __init__(
        self,
        parent: LRUCache,
        prefix: tuple[Hashable, ...],
        key_fn: Callable[[Any], Hashable] | None = None,
    ) -> None:
        self.parent = parent
        self.prefix = tuple(prefix)
        self.key_fn = key_fn

    def _map(self, key: Any) -> Hashable:
        mapped = self.key_fn(key) if self.key_fn is not None else key
        return (*self.prefix, mapped)

    def get(self, key: Any) -> np.ndarray | None:
        return self.parent.get(self._map(key))

    def put(self, key: Any, state: np.ndarray) -> bool:
        return self.parent.put(self._map(key), state)

    @property
    def stats(self) -> CacheStats:
        """The shared parent's stats (views do not keep their own)."""
        return self.parent.stats
