"""The server-owned cross-session kernel cache.

:class:`SharedQueryCache` is a :class:`~repro.engine.querycache.QueryCache`
promoted to server scope: one instance is handed to every tenant session
(via ``HAPEEngine(query_cache=...)``), so a kernel result computed for one
tenant's query is served warm to every other tenant submitting a
structurally identical subplan against the same catalog state.  The entire
invalidation contract is inherited unchanged — keys are catalog-versioned
and the *server's* shared catalog pushes ``register(replace=True)`` /
``drop`` invalidations through exactly one subscription, wired by
:class:`~repro.server.server.QueryServer`.

What the shared cache adds is **tenant-tagged accounting**.  The server
opens a :class:`CacheBracket` per execution attempt (:meth:`tenant`) and
executes attempts one at a time, in admission pick order, on the thread
that drains the epoch.  Every lookup inside the bracket is counted as it
happens — a hit if the entry is live, a miss otherwise — on the global
counters and the bracket alike, and the bracket's totals fold into its
tenant's counters when it closes.  Attribution is therefore exactly what
the lookups saw: two tenants submitting the same kernel charge one miss
(the earlier pick) and one hit (the later), unless the entry was evicted
or never admitted in between, in which case the later lookup is a miss
too.  Global hit/miss totals equal the sum over tenants whenever every
lookup runs inside a bracket.

Attribution never affects retention — budget, LRU eviction and
invalidation treat all tenants as one workload, and retention itself is
inherited unchanged from :class:`QueryCache`.  With caching disabled
(budget 0) every lookup is a miss.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Hashable, Iterator

from ..engine.querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    QueryCache,
)


@dataclass
class CacheBracket:
    """The cache traffic of one execution attempt, counted at lookup."""

    tenant: str
    hits: int = 0
    misses: int = 0

    @property
    def counters(self) -> CacheCounters:
        return CacheCounters(hits=self.hits, misses=self.misses)


class SharedQueryCache(QueryCache):
    """A :class:`QueryCache` shared across tenant sessions, with
    per-tenant hit/miss attribution (counted inside tenant brackets)."""

    def __init__(self,
                 budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES) -> None:
        super().__init__(budget_bytes)
        self._tenant_counters: dict[str, CacheCounters] = {}
        #: The open bracket: attempts execute one at a time on the
        #: draining thread, so there is at most one.
        self._bracket: CacheBracket | None = None

    # ------------------------------------------------------------------
    @contextmanager
    def tenant(self, name: str) -> Iterator[CacheBracket]:
        """Attribute cache traffic inside the block to tenant ``name``.

        The yielded bracket counts the block's hits and misses; they are
        added to the tenant's counters when the block exits.
        """
        previous = self._bracket
        bracket = CacheBracket(tenant=name)
        self._bracket = bracket
        try:
            yield bracket
        finally:
            self._bracket = previous
            with self._lock:
                current = self._tenant_counters.get(name, CacheCounters())
                self._tenant_counters[name] = CacheCounters(
                    hits=current.hits + bracket.hits,
                    misses=current.misses + bracket.misses)

    def get(self, key: Hashable) -> object | None:
        """Look up a kernel result; counts a hit or a miss, and inside a
        bracket also counts it on the bracket."""
        value = super().get(key)
        bracket = self._bracket
        if bracket is not None:
            if value is None:
                bracket.misses += 1
            else:
                bracket.hits += 1
        return value

    def tenant_counters(self) -> dict[str, CacheCounters]:
        """Per-tenant hit/miss attribution (a snapshot copy)."""
        with self._lock:
            return dict(self._tenant_counters)
