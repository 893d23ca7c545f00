"""Spans around mkvlab's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every site it is looked
up from (module globals a caller resolves at call time, or a class
attribute) by a wrapper that records a span; ``Tracer.uninstall`` puts the
originals back. Nothing under ``src/`` is edited.

Each thread keeps its own span stack, so a call made on a pool worker never
becomes the child of whatever span the main thread has open. A span's self
time is its duration minus the durations of its children on the same
thread; minor page faults are split the same way, read per thread with
``RUSAGE_THREAD``. Totals are kept per thread and merged on read.
"""

from __future__ import annotations

import resource
import sys
import threading
import time

import numpy as np

# Table row of one key: calls, self ns, inclusive ns, self faults,
# inclusive faults, items (particles, draws, elements ... see SITES).
CALLS, SELF_NS, INCL_NS, SELF_FLT, INCL_FLT, ITEMS = range(6)

ROOT = "bench.op"


def _rows(arg):
    return int(np.shape(arg)[0])


def _blocks(n):
    from mkvlab.parallel import BLOCK

    return -(-int(n) // BLOCK)


#: key -> (sites, items). A site is (module, owner, attribute): the owner is
#: the module itself, or a class looked up in it. ``items(args, result)``
#: gives the work count one call did.
SITES = {
    "cli.command": (
        [("mkvlab.cli", None, a) for a in ("cmd_simulate", "cmd_stability", "cmd_stationary")],
        None,
    ),
    "simulate.loop": (
        [
            ("mkvlab.cli", None, "simulate"),
            ("mkvlab.analysis", None, "simulate"),
            ("mkvlab.analysis", None, "coupled_simulate"),
        ],
        # checkpoints recorded; coupled_simulate returns (series1, series2, dist)
        lambda a, r: len((r[2] if isinstance(r, tuple) else r).rows),
    ),
    "simulate.step": (
        [("mkvlab.simulate", None, "euler_step"), ("mkvlab.lions", None, "euler_step")],
        lambda a, r: a[0].n,
    ),
    "simulate.noise": (
        [("mkvlab.simulate", "NoiseStream", "increments")],
        lambda a, r: r.size,
    ),
    "simulate.exits": (
        [("mkvlab.simulate", "ParticleCloud", "update_exits")],
        lambda a, r: a[0].n,
    ),
    "measure.functionals": (
        [
            ("mkvlab.simulate", None, "evaluate_functionals"),
            ("mkvlab.lions", None, "evaluate_functionals"),
            ("mkvlab.analysis", None, "evaluate_functionals"),
        ],
        lambda a, r: _rows(a[1]),
    ),
    "measure.wasserstein": ([("mkvlab.analysis", None, "wasserstein_p_1d")], None),
    "model.coefficients": (
        [
            ("mkvlab.simulate", None, "evaluate_coefficients"),
            ("mkvlab.lions", None, "evaluate_coefficients"),
        ],
        lambda a, r: _rows(a[2]),
    ),
    "parallel.tree_sum": (
        [("mkvlab.parallel", None, "tree_sum"), ("mkvlab.measure", None, "tree_sum")],
        lambda a, r: _rows(a[0]),
    ),
    "parallel.run_blocks": (
        [("mkvlab.parallel", "WorkerPool", "run_blocks")],
        lambda a, r: _blocks(a[2]),
    ),
    "lions.generator": ([("mkvlab.lions", None, "ito_residual_measure")], None),
    "lions.u": ([("mkvlab.lions", "MeasureFunction", "__call__")], None),
    "analysis.coupled": ([("mkvlab.cli", None, "stability_experiment")], None),
    "analysis.occupation": ([("mkvlab.cli", None, "stationary_estimate")], None),
    "lyapunov.envelope": (
        [("mkvlab.lyapunov", None, "envelope_M"), ("mkvlab.lyapunov", None, "envelope_Mplus")],
        None,
    ),
}


class Tracer:
    """Per-thread span stacks and per-key totals for one traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []  # (is_main_thread, {key: row}) per thread seen
        self._saved = []  # (owner, attribute, original) while installed

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            main = threading.current_thread() is threading.main_thread()
            with self._lock:
                self._tables.append((main, state[1]))
        return state

    def span(self, key, fn, items=None):
        """Return ``fn`` wrapped in a span recorded under ``key``."""
        state, clock = self._state, time.perf_counter_ns
        rusage, thread = resource.getrusage, resource.RUSAGE_THREAD

        def wrapper(*args, **kwargs):
            stack, table = state()
            frame = [0, 0]  # children's ns and faults on this thread
            stack.append(frame)
            f0 = rusage(thread).ru_minflt
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                f1 = rusage(thread).ru_minflt
                stack.pop()
                incl, faults = t1 - t0, f1 - f0
                if stack:
                    stack[-1][0] += incl
                    stack[-1][1] += faults
                row = table.get(key)
                if row is None:
                    row = table[key] = [0] * 6
                row[CALLS] += 1
                row[SELF_NS] += incl - frame[0]
                row[INCL_NS] += incl
                row[SELF_FLT] += faults - frame[1]
                row[INCL_FLT] += faults
            if items is not None:
                row[ITEMS] += items(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in SITES at each of its sites."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        # The package's ``simulate`` function shadows the ``mkvlab.simulate``
        # attribute, so modules are taken from sys.modules.
        wrappers = {}
        for key, (sites, items) in SITES.items():
            for module, cls, attr in sites:
                owner = sys.modules[module]
                if cls is not None:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                if original not in wrappers:
                    wrappers[original] = self.span(key, original, items)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[original])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def totals(self, main_only=False) -> dict:
        """Per-key rows summed over threads (or over the main thread only)."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for main, table in tables:
            if main_only and not main:
                continue
            for key, row in table.items():
                acc = out.setdefault(key, [0] * 6)
                for j, v in enumerate(row):
                    acc[j] += v
        return out

    def worker_faults(self) -> int:
        """Self faults recorded on threads other than the main one."""
        with self._lock:
            tables = [t for main, t in self._tables if not main]
        return sum(row[SELF_FLT] for table in tables for row in table.values())
