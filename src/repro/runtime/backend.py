"""Execution backends: how shard work actually runs.

The workload decides *what* to simulate; the backend decides *how
many* worker processes execute it and whether the run is observed by
a profiler.  :meth:`ExecutionBackend.map_shards` is the one shard
fan-out: it owns result ordering and the process-boundary transport,
and every workload merges what it yields in payload (shard) order --
so ``jobs=8`` is byte-identical to ``jobs=1``.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, List, TypeVar

P = TypeVar("P")
R = TypeVar("R")


def _mp_context():
    """Fork where the platform has it (workers inherit the imported
    modules and the memoized site plans), spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ExecutionBackend:
    """Plain serial-or-sharded execution with ``jobs`` workers."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = jobs

    def map_shards(
        self, fn: Callable[[P], R], payloads: Iterable[P]
    ) -> Iterator[R]:
        """Yield ``fn(payload)`` for every payload, in payload order.

        At ``jobs == 1`` (or with a single payload) ``fn`` runs in this
        process, lazily, and its results are never serialized.
        Otherwise the payloads fan out over a pool of ``jobs`` worker
        processes; shards may finish out of order there, but ``imap``
        hands results back in payload order, each crossing the
        process boundary by plain pickling.  ``fn`` and the payloads
        must therefore be picklable, and results must not drag
        worker-local state (a whole world) along.  An exception raised
        by ``fn`` reaches the caller with its type; the pool is torn
        down on the way out.
        """
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        payloads = list(payloads)
        if self.jobs == 1 or len(payloads) <= 1:
            return map(fn, payloads)
        return self._pooled(fn, payloads)

    def _pooled(self, fn: Callable[[P], R], payloads: List[P]) -> Iterator[R]:
        workers = min(self.jobs, len(payloads))
        with _mp_context().Pool(processes=workers) as pool:
            yield from pool.imap(fn, payloads)

    @contextmanager
    def wrap(self):
        """Context the workload's simulation runs inside (profiling
        hooks live here; the base backend observes nothing)."""
        yield None


class ProfiledBackend(ExecutionBackend):
    """In-process execution under ``cProfile``.

    Always ``jobs=1``: cProfile only observes the calling process, so
    worker fan-out would hide exactly the code a profile run exists
    to expose.
    """

    def __init__(self) -> None:
        super().__init__(jobs=1)
        import cProfile

        self.profiler = cProfile.Profile()

    @contextmanager
    def wrap(self):
        self.profiler.enable()
        try:
            yield self.profiler
        finally:
            self.profiler.disable()

    def stats(self):
        """The collected ``pstats.Stats`` (after :meth:`wrap` exits)."""
        import pstats

        return pstats.Stats(self.profiler)
