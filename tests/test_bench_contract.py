"""What the benchmark under ``bench/`` needs from mkvlab, checked without a run.

The benchmark builds its workloads through the config parser and the CLI,
passes ``--threads`` on every CLI operation, and its tracer wraps mkvlab
functions by module and attribute name. Renaming or deleting any of these
fails here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mkvlab.scenarios
from mkvlab.cli import _resolve, build_parser, parse_config

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
        # one cloud: the loop's block is the lone step-0 cloud
        "simulate": (
            lambda: engine.simulate(sc.model, sc.lyap, cfg, engine.PointMass(0.5)),
            engine_keys,
        ),
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


def test_cir_output_check_reads_the_emitted_files(bench, tmp_path):
    # check_cir reads diagnostics.csv by column name, so a column added to
    # the series must not break it; N = 2000 keeps the run short
    _, workloads = bench
    from mkvlab.cli import main, parse_config

    text = workloads.config_text("cir-large", 0).replace(
        "sim.n_particles = 100000", "sim.n_particles = 2000"
    )
    rc = parse_config(text)
    assert rc.n_particles == 2000
    cfg = tmp_path / "cir.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    files = {a: (out / a).read_bytes() for a in ("diagnostics.csv", "summary.txt")}
    assert b"v_band" in files["diagnostics.csv"].splitlines()[0]
    assert workloads.check_cir(files, rc) == []


@pytest.mark.parametrize("name", ["coupled-small", "stationary-t2"])
def test_workload_output_check_passes_on_its_emitted_files(bench, tmp_path, name):
    # the check the benchmark runs on every operation, at the bench config,
    # so a layout slip in the CLI's writers fails here first
    _, workloads = bench
    w = workloads.build(name, 0, tmp_path)
    w.warm_up()
    digest, problems = w.inspect(0)
    assert digest is not None and problems == []


def test_setup_probe_reports_its_three_timings_for_every_workload(bench, tmp_path):
    # the benchmark's setup_s is what bench/probe.py prints, run in a fresh
    # interpreter on each workload's config text with src on PYTHONPATH
    _, workloads = bench
    src = BENCH.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    for name in sorted(workloads.WHY):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(workloads.config_text(name, 0))
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(cfg)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert done.returncode == 0, (name, done.stderr)
        report = json.loads(done.stdout)
        for key in ("import_s", "scenario_s", "init_s"):
            assert report[key] >= 0.0, (name, key)
        assert Path(report["module"]).resolve().is_relative_to(src), name


def _traced(spans, run):
    """``run()`` under a fresh tracer, installed as the benchmark's traced
    operations install it; returns (result, tracer)."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        return tracer.span(spans.ROOT, run)(), tracer
    finally:
        tracer.uninstall()


def _cut_config(workloads, name, n):
    """The workload's config text at seed 0, cut to ``n`` particles."""
    text = workloads.config_text(name, 0)
    line = f"sim.n_particles = {parse_config(text).n_particles}\n"
    assert line in text
    return text.replace(line, f"sim.n_particles = {n}\n")


#: workload -> (particles it is cut to, the spans beyond the CLI's and the
#: loop's that its operation reaches)
TRACED_CLI_RUNS = {
    "cir-large": (2000, ()),
    "coupled-small": (1000, ("analysis.coupled",)),
    "stationary-t2": (2000, ("analysis.occupation", "measure.wasserstein")),
}


@pytest.mark.parametrize("name", sorted(TRACED_CLI_RUNS))
def test_a_traced_cli_operation_emits_the_untraced_bytes(bench, tmp_path, name):
    # a whole operation through every span's item count: those read fixed
    # positional arguments, so a call made another way fails here, not as a
    # failed traced operation of the benchmark
    spans, workloads = bench
    from mkvlab.cli import main

    n, keys = TRACED_CLI_RUNS[name]
    text = _cut_config(workloads, name, n)
    rc = parse_config(text)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)

    def run(out):
        return main([rc.experiment, "--config", str(cfg), "--out", str(out),
                     "--threads", str(rc.threads)])

    def emitted(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    code = run(tmp_path / "plain")
    traced_code, tracer = _traced(spans, lambda: run(tmp_path / "traced"))
    assert traced_code == code
    assert emitted(tmp_path / "plain")
    assert emitted(tmp_path / "traced") == emitted(tmp_path / "plain")
    totals = tracer.totals()
    for key in ("cli.command", "simulate.loop") + keys:
        assert totals.get(key, [0])[spans.CALLS] >= 1, key


def test_a_traced_ensemble_operation_returns_the_untraced_series(bench):
    spans, workloads = bench
    text = _cut_config(workloads, "ito-ensemble", 1000)
    w = workloads.EnsembleWorkload("ito-ensemble", parse_config(text))
    plain = w.run()
    traced, tracer = _traced(spans, w.run)
    assert [s.rows for s in traced] == [s.rows for s in plain]
    assert tracer.totals().get("lions.generator", [0])[spans.CALLS] >= 1
