"""Deterministic reductions over particle clouds, and a retired worker pool.

Floating-point sums are not associative, so every particle reduction fixes
its grouping once and for all:

* arrays are cut into blocks of ``BLOCK`` consecutive particles,
* each block is summed by numpy on its own,
* block partials are folded pairwise in block-index order.

Changing the grouping changes rounding, and with it every emitted byte.

The particle engine is serial and uses no pool. ``WorkerPool``,
``resolve_threads`` and ``THREADS_ENV`` remain only for the benchmark's
tracer (see ``WorkerPool``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Particles per reduction block. Fixed: changing it changes rounding.
BLOCK = 1024

#: Environment variable consulted when a thread count is not given explicitly.
THREADS_ENV = "MKVLAB_THREADS"


def resolve_threads(requested: int | None = None) -> int:
    """Turn a requested worker count into a concrete positive integer.

    ``None`` or 0 falls back to the MKVLAB_THREADS environment variable and
    then to 1. The value only affects scheduling, never results.
    """
    if requested is None or requested == 0:
        env = os.environ.get(THREADS_ENV, "").strip()
        if env:
            try:
                requested = int(env)
            except ValueError:
                raise ValueError(
                    f"{THREADS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            requested = 1
    if requested < 1:
        raise ValueError(f"thread count must be >= 1, got {requested}")
    return int(requested)


def block_slices(n: int) -> list[slice]:
    """The fixed block decomposition of ``range(n)``."""
    return [slice(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]


def _pairwise_fold(parts: list[np.ndarray | float]):
    while len(parts) > 1:
        folded = [parts[j] + parts[j + 1] for j in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            folded.append(parts[-1])
        parts = folded
    return parts[0]


def tree_sum(values: np.ndarray):
    """Sum ``values`` over axis 0 with the fixed-shape pairwise tree."""
    values = np.asarray(values)
    n = values.shape[0]
    if n == 0:
        return np.zeros(values.shape[1:], dtype=values.dtype)
    flat = values.ndim == 1 and values.flags.c_contiguous
    if flat and values.dtype == np.float64:
        # The full blocks as the rows of one array: numpy sums each row
        # exactly as it sums that block alone, in one call instead of one
        # per block. Python floats add as float64 scalars do.
        full = n - n % BLOCK
        parts = values[:full].reshape(-1, BLOCK).sum(axis=1).tolist()
        if full < n:
            parts.append(float(values[full:].sum()))
        return np.float64(_pairwise_fold(parts))
    return _pairwise_fold([values[s].sum(axis=0) for s in block_slices(n)])


def tree_mean(values: np.ndarray):
    values = np.asarray(values)
    if values.shape[0] == 0:
        raise ValueError("mean of an empty particle set")
    return tree_sum(values) / values.shape[0]


class WorkerPool:
    """A thread pool that maps work over the fixed particle blocks.

    Nothing in mkvlab uses it: on one CPU a step through the pool took
    about twice as long as the serial step. It is kept unchanged because
    the benchmark's tracer (``bench/spans.py``) wraps
    ``WorkerPool.run_blocks`` by name and fails to install without it. It
    goes, with ``resolve_threads`` and ``THREADS_ENV``, once the benchmark
    drops that site.
    """

    def __init__(self, threads: int | None = None):
        self.threads = resolve_threads(threads)
        self._pool = (
            ThreadPoolExecutor(max_workers=self.threads)
            if self.threads > 1
            else None
        )

    def map_ordered(self, fn, items):
        """Apply ``fn`` to each item, returning results in item order."""
        if self._pool is None:
            return [fn(it) for it in items]
        return list(self._pool.map(fn, items))

    def run_blocks(self, fn, n: int) -> None:
        """Call ``fn(slice)`` for every fixed block of ``range(n)``.

        ``fn`` must only write to the rows of its own slice.
        """
        slices = block_slices(n)
        if self._pool is None or len(slices) == 1:
            for s in slices:
                fn(s)
            return
        list(self._pool.map(fn, slices))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
