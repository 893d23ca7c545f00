"""What the benchmark under ``bench/`` needs from mkvlab, checked without a run.

The benchmark builds its workloads through the config parser and the CLI,
passes ``--threads`` on every CLI operation, and its tracer wraps mkvlab
functions by module and attribute name. Renaming or deleting any of these
fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

import mkvlab.scenarios
from mkvlab.cli import _resolve, build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return spans, workloads


def test_every_workload_builds_and_its_argv_parses(bench, tmp_path):
    _, workloads = bench
    for name in sorted(workloads.WHY):
        tmp = tmp_path / name
        tmp.mkdir()
        w = workloads.build(name, 0, tmp)
        if hasattr(w, "argv"):
            rc = _resolve(build_parser().parse_args(w.argv + ["--threads", "2"]))
            assert rc.threads == 2
            rc.sim_config()


def test_tracer_installs_on_every_site_and_uninstalls(bench):
    spans, _ = bench
    import mkvlab.analysis  # noqa: F401
    import mkvlab.cli  # noqa: F401
    import mkvlab.lions  # noqa: F401
    import mkvlab.lyapunov  # noqa: F401

    engine = sys.modules["mkvlab.simulate"]
    step = engine.euler_step
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert engine.euler_step is not step
    finally:
        tracer.uninstall()
    assert engine.euler_step is step


def test_tracer_reaches_the_engine_loop(bench):
    # the per-layer metrics read 0, and nothing fails, if the loop stops
    # calling the traced functions by their traced names
    spans, _ = bench
    import mkvlab.analysis  # noqa: F401
    import mkvlab.cli  # noqa: F401
    import mkvlab.lions  # noqa: F401
    import mkvlab.lyapunov  # noqa: F401

    engine = sys.modules["mkvlab.simulate"]
    lions = sys.modules["mkvlab.lions"]
    sc = mkvlab.scenarios.builtin_scenario("linear-meanfield")
    cfg = engine.SimConfig(
        n_particles=8, horizon=0.5, steps_per_unit=10, cut_level=1, seed=0
    )
    engine_keys = (
        "simulate.step",
        "simulate.noise",
        "measure.functionals",
        "model.coefficients",
        "simulate.exits",
    )
    # each run looks the traced names up only once the tracer is installed
    runs = {
        "coupled": (
            lambda: engine.coupled_simulate(
                sc.model, cfg, engine.PointMass(0.0), engine.PointMass(0.9),
                vbar=lambda z: z**2,
            ),
            engine_keys,
        ),
        "ito-measure": (
            lambda: lions.ito_residual_measure(
                lions.moment_function(2), sc.model, cfg, engine.PointMass(0.5)
            ),
            engine_keys + ("lions.generator",),
        ),
        "ito-full": (
            lambda: lions.ito_residual_full(
                sc.lyap, sc.model, cfg, engine.PointMass(0.5)
            ),
            engine_keys,
        ),
    }
    for name, (run, keys) in runs.items():
        tracer = spans.Tracer()
        try:
            tracer.install()
            run()
        finally:
            tracer.uninstall()
        totals = tracer.totals()
        for key in keys:
            assert totals.get(key, [0])[spans.CALLS] >= 1, (name, key)
