"""Worker pools: true multicore execution with a determinism contract.

The engine's data-parallel work — morsels streamed through a fused chain
and radix partition passes — is pure NumPy kernels that release the GIL,
so plain threads scale it across cores.  What must NOT scale with it is
any *observable* quantity: tables, simulated seconds, ``device_busy``,
``link_bytes`` and cache counters have to stay bit-identical at every
worker count.

The contract that guarantees this (see ``docs/ARCHITECTURE.md``):

* Worker threads run **only pure functional work** (``transform`` a batch,
  partition a chunk).  Each unit returns its output *plus* an integer
  contribution record instead of mutating shared stage state.
* The driving thread submits units in canonical plan/morsel order and
  :meth:`WorkerPool.map_ordered` returns results in **submission order**,
  never completion order.  All merging — concatenating batches, absorbing
  stat contributions, charging simulated-time ledgers — happens on the
  driving thread in that canonical order.

``workers=1`` (the default) does not create any threads: every unit runs
inline on the calling thread, byte-for-byte the old single-threaded code
path.  ``workers="auto"`` resolves to the machine's CPU count, and the
``REPRO_WORKERS`` environment variable supplies the default when no knob
is set (how CI sweeps worker counts without touching call sites).

Pools are shared process-wide, one executor per thread count, so a test
suite creating hundreds of engines reuses a bounded set of threads.  Pool
work is leaf work: a task never submits further pool work, so a task can
never wait on the pool it runs in.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted when no explicit ``workers`` knob is set.
WORKERS_ENV = "REPRO_WORKERS"


def available_cpus() -> int:
    """CPU count this process may use (never less than 1)."""
    return max(int(os.cpu_count() or 1), 1)


def default_workers() -> int:
    """Worker count when no knob is set: ``REPRO_WORKERS`` or 1."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return 1
    return resolve_workers(raw.strip())


def resolve_workers(workers: int | str | None) -> int:
    """Validate a ``workers`` knob value and resolve it to a concrete count.

    ``None`` defers to :func:`default_workers` (the ``REPRO_WORKERS``
    environment variable, else 1); ``"auto"`` means the machine's CPU
    count; integers must be >= 1.  Anything else raises ``ValueError``.
    """
    if workers is None:
        return default_workers()
    if isinstance(workers, str):
        if workers == "auto":
            return available_cpus()
        try:
            workers = int(workers)
        except ValueError:
            raise ValueError(
                f"workers must be a positive int or 'auto', got {workers!r}"
            ) from None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be a positive int or 'auto', got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


# ----------------------------------------------------------------------
# Shared executors
# ----------------------------------------------------------------------
_REGISTRY_LOCK = threading.Lock()
_EXECUTORS: dict[int, ThreadPoolExecutor] = {}


def _shared_executor(threads: int) -> ThreadPoolExecutor:
    """Process-wide executor with ``threads`` threads, created on demand."""
    with _REGISTRY_LOCK:
        executor = _EXECUTORS.get(threads)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=threads,
                thread_name_prefix=f"repro-kernel-{threads}")
            _EXECUTORS[threads] = executor
        return executor


class WorkerPool:
    """A fixed-width thread pool with an ordered-merge contract.

    ``map_ordered`` is the only way work enters the pool: results come
    back in submission order, so callers absorb them deterministically no
    matter which thread finished first.  With ``workers == 1`` (or a
    single item) everything runs inline on the calling thread — no
    threads, no futures, the exact pre-pool code path.
    """

    __slots__ = ("workers",)

    def __init__(self, workers: int | str | None = 1) -> None:
        self.workers = resolve_workers(workers)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WorkerPool(workers={self.workers})"

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def map_ordered(self, fn: Callable[[_T], _R],
                    items: Sequence[_T]) -> list[_R]:
        """Apply ``fn`` to every item; results in *item* order.

        ``fn`` must be pure with respect to shared state — it runs on an
        arbitrary pool thread.  Exceptions propagate to the caller (the
        first failing item's exception, in item order).
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        executor = _shared_executor(self.workers)
        futures = [executor.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def chunks(self, count: int) -> list[range]:
        """Split ``range(count)`` into at most ``workers`` contiguous runs.

        Used to bound per-item submission overhead: a morsel stream of
        thousands of tiny batches becomes ``workers`` contiguous chunks,
        each processed serially inside one pool task.  Chunk order is
        item order, so concatenating chunk results preserves it.
        """
        if count <= 0:
            return []
        width = max(-(-count // self.workers), 1)
        return [range(start, min(start + width, count))
                for start in range(0, count, width)]
