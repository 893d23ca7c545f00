"""mkvlab benchmark: one workload per run, closed loop, checked outputs.

Usage (from any directory; mkvlab is imported from the checkout's ``src``):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-spec     # regenerate BENCHMARK.json

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer split (see spans.py) plus the tracing overhead. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up cost is measured in fresh interpreters (probe.py) before the loop.
Each run starts with one untimed warm-up operation at threads=1, whose
output every timed operation must reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads
from spans import CALLS, INCL_FLT, INCL_NS, ITEMS, SELF_NS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters per run for the set-up metrics.
SETUP_PROBES = 3

# name -> (unit, better, bound)
END_TO_END = {
    "ns_per_particle_step": ("ns", "lower", 0.25),
    "cpu_ns_per_particle_step": ("ns", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better)
PER_LAYER = {
    "simulate.noise.ns_per_draw": ("ns", "lower"),
    "simulate.noise.us_per_call": ("us", "lower"),
    "simulate.step.ns_per_particle_step": ("ns", "lower"),
    "simulate.step.us_per_call": ("us", "lower"),
    "simulate.step_total.ns_per_particle_step": ("ns", "lower"),
    "simulate.exits.ns_per_particle_step": ("ns", "lower"),
    "simulate.minflt_per_step": ("count", "lower"),
    "simulate.loop.us_per_checkpoint": ("us", "lower"),
    "measure.functionals.ns_per_particle": ("ns", "lower"),
    "measure.functionals.calls_per_step": ("count", "lower"),
    "measure.wasserstein.ms_per_call": ("ms", "lower"),
    "model.coefficients.ns_per_particle": ("ns", "lower"),
    "model.coefficients.us_per_call": ("us", "lower"),
    "model.coefficients.calls_per_step": ("count", "lower"),
    "parallel.tree_sum.ns_per_element": ("ns", "lower"),
    "parallel.tree_sum.calls_per_step": ("count", "lower"),
    "parallel.run_blocks.us_per_call": ("us", "lower"),
    "parallel.blocks_per_step": ("count", "lower"),
    "lions.generator.ns_per_particle_step": ("ns", "lower"),
    "lions.u.ms_per_call": ("ms", "lower"),
    "analysis.occupation.ms": ("ms", "lower"),
    "analysis.coupled.us_per_step": ("us", "lower"),
    "lyapunov.envelope.us_per_call": ("us", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.scenario_ms": ("ms", "lower"),
    "setup.init_ms": ("ms", "lower"),
    "trace.op_ms": ("ms", "lower"),
    "trace.self_sum_ms": ("ms", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

RUN_SECONDS = 25


def write_spec() -> None:
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in workloads.WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2, ensure_ascii=False) + "\n")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------


def setup_probes(cfg_path: Path, count: int) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    records = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(cfg_path)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"probe imported mkvlab from {rec['module']}, not {SRC}")
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# the operation loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs operations of one workload and keeps their timings and verdicts."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.wall = {False: [], True: []}  # traced? -> successful op seconds
        self.cpu = []

    def op(self, traced=False) -> None:
        w = self.workload
        run = w.run
        if traced:
            self.tracer.install()
            run = self.tracer.span(spans.ROOT, w.run)
        self.attempted += 1
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            result = run()
            t1, c1 = time.perf_counter(), time.process_time()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            digest, problems = w.inspect(result)
        except Exception as exc:  # unreadable output is a failed operation
            digest, problems = None, [f"cannot inspect output: {exc!r}"]
        if digest is not None:
            self.digests.add(digest)
        if problems:
            print(f"{w.name}: operation failed its check: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return
        self.wall[traced].append(t1 - t0)
        if not traced:
            self.cpu.append(c1 - c0)


def run_loop(loop: Loop, seconds: float, alternate: bool) -> None:
    start = time.perf_counter()
    i = 0
    while True:
        loop.op(traced=alternate and i % 2 == 1)
        i += 1
        if time.perf_counter() - start >= seconds and (not alternate or i >= 2):
            break


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def setup_metrics(records) -> dict:
    total = [r["import_s"] + r["scenario_s"] + r["init_s"] for r in records]
    return {
        "setup_s": statistics.median(total),
        "setup.import_s": statistics.median(r["import_s"] for r in records),
        "setup.scenario_ms": 1e3 * statistics.median(r["scenario_s"] for r in records),
        "setup.init_ms": 1e3 * statistics.median(r["init_s"] for r in records),
    }


def layer_metrics(tracer, loop: Loop) -> dict:
    every = tracer.totals()
    main = tracer.totals(main_only=True)

    def row(key, table=every):
        return table.get(key, [0] * 6)

    def ratio(a, b):
        return a / b if b else 0.0

    step = row("simulate.step")
    steps, pst = step[CALLS], step[ITEMS]
    noise, exits, loop_row = row("simulate.noise"), row("simulate.exits"), row("simulate.loop")
    fun, coef, tsum = row("measure.functionals"), row("model.coefficients"), row("parallel.tree_sum")
    blocks, gen, u = row("parallel.run_blocks"), row("lions.generator"), row("lions.u")
    traced_ops = len(loop.wall[True])
    op_ms = 1e3 * statistics.median(loop.wall[False])
    traced_ms = 1e3 * statistics.median(loop.wall[True])
    self_sum_ms = sum(r[SELF_NS] for r in main.values()) / 1e6 / traced_ops
    step_faults = row("simulate.step", main)[INCL_FLT] + tracer.worker_faults()
    return {
        "simulate.noise.ns_per_draw": ratio(noise[SELF_NS], noise[ITEMS]),
        "simulate.noise.us_per_call": ratio(noise[SELF_NS], noise[CALLS]) / 1e3,
        "simulate.step.ns_per_particle_step": ratio(step[SELF_NS], pst),
        "simulate.step.us_per_call": ratio(step[SELF_NS], steps) / 1e3,
        "simulate.step_total.ns_per_particle_step": ratio(row("simulate.step", main)[INCL_NS], pst),
        "simulate.exits.ns_per_particle_step": ratio(exits[SELF_NS], exits[ITEMS]),
        "simulate.minflt_per_step": ratio(step_faults, steps),
        "simulate.loop.us_per_checkpoint": ratio(loop_row[SELF_NS], loop_row[ITEMS]) / 1e3,
        "measure.functionals.ns_per_particle": ratio(fun[SELF_NS], fun[ITEMS]),
        "measure.functionals.calls_per_step": ratio(fun[CALLS], steps),
        "measure.wasserstein.ms_per_call": ratio(row("measure.wasserstein")[SELF_NS], row("measure.wasserstein")[CALLS]) / 1e6,
        "model.coefficients.ns_per_particle": ratio(coef[SELF_NS], coef[ITEMS]),
        "model.coefficients.us_per_call": ratio(coef[SELF_NS], coef[CALLS]) / 1e3,
        "model.coefficients.calls_per_step": ratio(coef[CALLS], steps),
        "parallel.tree_sum.ns_per_element": ratio(tsum[SELF_NS], tsum[ITEMS]),
        "parallel.tree_sum.calls_per_step": ratio(tsum[CALLS], steps),
        "parallel.run_blocks.us_per_call": ratio(blocks[SELF_NS], blocks[CALLS]) / 1e3,
        "parallel.blocks_per_step": ratio(blocks[ITEMS], steps),
        "lions.generator.ns_per_particle_step": ratio(gen[SELF_NS], pst),
        "lions.u.ms_per_call": ratio(u[SELF_NS], u[CALLS]) / 1e6,
        "analysis.occupation.ms": ratio(row("analysis.occupation")[SELF_NS], row("analysis.occupation")[CALLS]) / 1e6,
        "analysis.coupled.us_per_step": ratio(row("analysis.coupled")[SELF_NS], steps) / 1e3,
        "lyapunov.envelope.us_per_call": ratio(row("lyapunov.envelope")[SELF_NS], row("lyapunov.envelope")[CALLS]) / 1e3,
        "trace.op_ms": op_ms,
        "trace.self_sum_ms": self_sum_ms,
        "trace.unattributed_pct": 100.0 * row(spans.ROOT, main)[SELF_NS] / 1e6 / traced_ops / self_sum_ms,
        "trace.overhead_pct": 100.0 * (traced_ms - op_ms) / op_ms,
    }


def step_table(m: dict) -> list:
    """The per-layer split of one Euler step, in ns per particle-step."""
    return [
        ("noise", m["simulate.noise.ns_per_draw"]),
        ("functionals", m["measure.functionals.ns_per_particle"]),
        ("coefficients + update",
         m["model.coefficients.ns_per_particle"] + m["simulate.step.ns_per_particle_step"]),
        ("exits", m["simulate.exits.ns_per_particle_step"]),
        ("full step", m["simulate.step_total.ns_per_particle_step"]),
    ]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "mkvlab" / "__init__.py").is_file():
        print(f"bench: no mkvlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, tmp: Path) -> int:
    # The whole run, probes included, stays on one CPU. On a shared
    # two-CPU machine, stationary-t2's pool threads woken on the other CPU
    # made an operation take 2.7 s or 8 s depending on the neighbours' load;
    # on one CPU the pool still runs both workers and the spread is ~5%.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cfg_path = tmp / "setup.cfg"
    cfg_path.write_text(workloads.config_text(args.workload, args.seed))
    probes = setup_probes(cfg_path, SETUP_PROBES)

    sys.path.insert(0, str(SRC))
    import mkvlab

    if not Path(mkvlab.__file__).resolve().is_relative_to(SRC):
        print(f"bench: mkvlab imported from {mkvlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, tmp)
    workload.warm_up()
    tracer = spans.Tracer() if args.trace else None
    loop = Loop(workload, tracer)
    run_loop(loop, args.seconds, alternate=bool(args.trace))

    untraced, traced = loop.wall[False], loop.wall[True]
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{workload.particle_steps} particle-steps per operation")
    print(f"operations: {loop.attempted} attempted, {loop.failed} failed "
          f"(fail_frac = {loop.failed / loop.attempted:g}); timed {len(untraced)} untraced, "
          f"{len(traced)} traced")
    if not untraced or (args.trace and not traced):
        print(f"bench: no operation of {args.workload} succeeded", file=sys.stderr)
        return 1
    if len(loop.digests) > 1:
        print(f"{args.workload}: {len(loop.digests)} different outputs for one seed", file=sys.stderr)
    q1, q3 = _quartiles(untraced)
    print(f"operation wall time: median {1e3 * statistics.median(untraced):.1f} ms, "
          f"quartiles {1e3 * q1:.1f}..{1e3 * q3:.1f} ms; operations: "
          + " ".join(f"{1e3 * t:.0f}" for t in untraced))

    values = setup_metrics(probes)
    if args.trace:
        values.update(layer_metrics(tracer, loop))
        names = PER_LAYER
        print("one Euler step, ns per particle-step: " + ", ".join(
            f"{k} {v:.1f}" for k, v in step_table(values)))
        print(f"self-time closure: {values['trace.self_sum_ms']:.1f} ms of spans per traced "
              f"operation against {values['trace.op_ms']:.1f} ms untraced; "
              f"overhead {values['trace.overhead_pct']:.2f}%")
    else:
        values["ns_per_particle_step"] = 1e9 * statistics.median(untraced) / workload.particle_steps
        values["cpu_ns_per_particle_step"] = 1e9 * statistics.median(loop.cpu) / workload.particle_steps
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        names = END_TO_END
    metrics = {}
    for name, spec in names.items():
        print(f"{name} = {values[name]:.6g} {spec[0]}")
        metrics[name] = {"value": values[name], "unit": spec[0]}
    print(json.dumps({
        "correct": loop.failed == 0 and len(loop.digests) == 1,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
