"""Deterministic reductions over particle clouds.

Floating-point sums are not associative, so every particle reduction fixes
its grouping once and for all:

* arrays are cut into blocks of ``BLOCK`` consecutive particles,
* each block is summed by numpy on its own (a lone block in one call),
* block partials are folded pairwise in block-index order.

Changing the grouping changes rounding, and with it every emitted byte.

The particle engine is serial. ``WorkerPool`` is a serial shell kept only
for the benchmark's tracer (see ``WorkerPool``).
"""

from __future__ import annotations

import numpy as np

#: Particles per reduction block. Fixed: changing it changes rounding.
BLOCK = 1024


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
    if n <= BLOCK:
        return values.sum(axis=0)
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
    """Serial block loop, kept only for the benchmark's tracer.

    Nothing in mkvlab constructs it. ``bench/spans.py`` wraps
    ``WorkerPool.run_blocks`` by name and fails to install without it; the
    class goes once the benchmark drops that site.
    """

    def run_blocks(self, fn, n: int) -> None:
        """Call ``fn(slice)`` for every fixed block of ``range(n)``, in order."""
        for s in block_slices(n):
            fn(s)
