"""Per-device memory pools with capacity enforcement.

The paper's evaluation repeatedly relies on capacity limits: the in-GPU join
only works up to 128 M tuples per table (Figure 6), DBMS G "is not designed
for out-of-GPU datasets" (Figure 7) and neither GPU-only system can run Q9
(Figure 8).  The :class:`MemoryPool` makes those limits explicit — an
allocation that does not fit raises :class:`OutOfDeviceMemoryError` instead
of silently succeeding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import OutOfDeviceMemoryError

_allocation_ids = itertools.count()


@dataclass
class Allocation:
    """A live allocation inside a :class:`MemoryPool`."""

    pool: "MemoryPool"
    nbytes: int
    label: str
    allocation_id: int = field(default_factory=lambda: next(_allocation_ids))
    freed: bool = False

    def free(self) -> None:
        """Release the allocation back to its pool (idempotent)."""
        if not self.freed:
            self.pool._release(self)
            self.freed = True

    def __enter__(self) -> "Allocation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.free()


class MemoryPool:
    """Tracks used/free bytes of one memory node (DRAM socket or GPU).

    Only the thread running a query allocates (worker-pool tasks
    never charge hardware), and the engine's transient capacity-check
    allocations free before the query ends, so a query sees the device
    memory as if it ran alone — which keeps its OOM behavior and peak
    accounting identical to a solo run.
    """

    def __init__(self, owner: str, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("memory pool needs a positive capacity")
        self.owner = owner
        self.capacity_bytes = int(capacity_bytes)
        self.used_bytes = 0
        #: High-water mark of concurrent usage.
        self.peak_bytes = 0
        self._live: dict[int, Allocation] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MemoryPool({self.owner!r}, used={self.used_bytes}, "
            f"capacity={self.capacity_bytes})"
        )

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    @property
    def live_allocations(self) -> tuple[Allocation, ...]:
        return tuple(self._live.values())

    def can_fit(self, nbytes: int) -> bool:
        """Whether ``nbytes`` could currently be allocated."""
        return int(nbytes) <= self.free_bytes

    def allocate(self, nbytes: int, label: str = "buffer") -> Allocation:
        """Reserve ``nbytes``; raises when the pool would overflow."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        if nbytes > self.capacity_bytes - self.used_bytes:
            raise OutOfDeviceMemoryError(
                self.owner, nbytes, self.capacity_bytes - self.used_bytes)
        allocation = Allocation(pool=self, nbytes=nbytes, label=label)
        self._live[allocation.allocation_id] = allocation
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        return allocation

    def _release(self, allocation: Allocation) -> None:
        if self._live.pop(allocation.allocation_id, None) is not None:
            self.used_bytes -= allocation.nbytes

    def resize(self, capacity_bytes: int) -> None:
        """Change the pool capacity in place (fault injection: memory loss).

        Live allocations are kept even if they now exceed the capacity —
        subsequent allocations simply see a negative ``free_bytes`` and
        fail, which is how a real allocator behaves when memory is taken
        away underneath it.
        """
        capacity_bytes = int(capacity_bytes)
        if capacity_bytes <= 0:
            raise ValueError("memory pool needs a positive capacity")
        self.capacity_bytes = capacity_bytes

    def release_all(self) -> None:
        """Free every live allocation (used between benchmark repetitions)."""
        for allocation in list(self._live.values()):
            allocation.free()

    def utilization(self) -> float:
        """Fraction of the capacity currently in use."""
        return self.used_bytes / self.capacity_bytes
