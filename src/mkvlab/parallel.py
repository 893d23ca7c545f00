"""Deterministic reductions and the worker pool used by the particle engine.

Floating-point sums are not associative, so a reduction whose grouping
depends on how many workers happen to be available is not reproducible.
Everything here fixes the grouping once and for all:

* arrays are cut into blocks of ``BLOCK`` consecutive particles (a constant,
  never derived from the worker count),
* each block is summed by numpy on its own,
* block partials are folded pairwise in block-index order.

Worker counts then only decide *who* computes a block, never what is
computed, so results are bit-identical for any ``--threads`` value.
Elementwise work (coefficient evaluation, position updates) is safe to chunk
arbitrarily — no value depends on another particle — and is dispatched over
the same fixed blocks purely for parallelism.
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


def tree_sum(values: np.ndarray, pool: "WorkerPool | None" = None):
    """Sum ``values`` over axis 0 with the fixed-shape pairwise tree.

    Deterministic for a given input regardless of worker count; the optional
    pool parallelizes the per-block partial sums only.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n == 0:
        return np.zeros(values.shape[1:], dtype=values.dtype)
    parallel = pool is not None and pool.threads > 1 and n > BLOCK
    flat = values.ndim == 1 and values.flags.c_contiguous
    if not parallel and flat and values.dtype == np.float64:
        # The full blocks as the rows of one array: numpy sums each row
        # exactly as it sums that block alone, in one call instead of one
        # per block. Python floats add as float64 scalars do.
        full = n - n % BLOCK
        parts = values[:full].reshape(-1, BLOCK).sum(axis=1).tolist()
        if full < n:
            parts.append(float(values[full:].sum()))
        return np.float64(_pairwise_fold(parts))
    slices = block_slices(n)
    if parallel:
        parts = pool.map_ordered(lambda s: values[s].sum(axis=0), slices)
    else:
        parts = [values[s].sum(axis=0) for s in slices]
    return _pairwise_fold(parts)


def tree_mean(values: np.ndarray, pool: "WorkerPool | None" = None):
    values = np.asarray(values)
    if values.shape[0] == 0:
        raise ValueError("mean of an empty particle set")
    return tree_sum(values, pool) / values.shape[0]


class WorkerPool:
    """A thread pool that maps work over the fixed particle blocks.

    numpy releases the GIL inside large array operations, so threads give
    genuine overlap for the elementwise stage of a step. A pool with one
    thread short-circuits to plain calls.
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
