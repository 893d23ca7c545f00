"""What the benchmark under ``bench/`` needs from mkvlab, checked without a run.

The benchmark builds its workloads through the config parser and the CLI,
passes ``--threads`` on every CLI operation, and its tracer wraps mkvlab
functions by module and attribute name. Renaming or deleting any of these
fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

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
