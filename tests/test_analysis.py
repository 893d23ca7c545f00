"""Stability envelopes, replica agreement, and long-run time averages."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mkvlab.analysis as analysis
from mkvlab.analysis import (
    OccupationMeasure,
    StabilityReport,
    scheutzow_probe,
    stability_experiment,
    stationary_estimate,
)
from mkvlab.cli import main
from mkvlab.lyapunov import Rate
from mkvlab.measure import wasserstein_p_1d
from mkvlab.model import DomainLadder, ModelSpec
from mkvlab.scenarios import builtin_scenario
from mkvlab.simulate import PointMass, SimConfig, UniformBox, simulate
from oracles import moment_ode_oracle


#: A two-dimensional model that stands still, for the 1-d-only checks.
PLANAR = ModelSpec(
    name="planar",
    dim=2,
    noise_dim=1,
    drift=lambda t, x, fv: np.zeros_like(x),
    diffusion=lambda t, x, fv: np.zeros((x.shape[0], 2, 1)),
    functionals=(),
    ladder=DomainLadder.full_space(2),
    local_bound=lambda k: 0.0,
)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# stability reports
# ---------------------------------------------------------------------------


def report_of(measured, bound, tolerance=0.0):
    n = len(measured)
    return StabilityReport(
        times=np.linspace(0.0, 1.0, n),
        measured=np.asarray(measured, dtype=float),
        bound=np.asarray(bound, dtype=float),
        band=np.zeros(n),
        mode="pointwise",
        g=Rate.constant(-1.0),
        h=Rate.constant(0.0),
        tolerance=tolerance,
    )


def test_report_margins_and_verdict():
    r = report_of([1.0, 0.5], [1.0, 0.6])
    assert r.margins.tolist() == [0.0, pytest.approx(0.1)]
    assert r.margin == 0.0
    assert r.passed()
    assert not report_of([1.0, 0.7], [1.0, 0.6]).passed()
    # tolerance widens the bound multiplicatively
    assert report_of([1.0, 0.7], [1.0, 0.6], tolerance=0.2).passed()


def test_report_rejects_negative_bounds():
    with pytest.raises(ValueError):
        report_of([0.0, 0.0], [1.0, -0.1])


def test_report_csv_layout(tmp_path):
    # the stability subcommand writes one row per checkpoint
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario.name = linear-meanfield\n"
        "sim.n_particles = 16\n"
        "sim.horizon = 0.5\n"
        "sim.steps_per_unit = 20\n"
        "sim.cut_level = 8\n"
        "sim.checkpoints = 0.0 0.25 0.5\n"
    )
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[0] == "t,measured,bound,band,margin"
    assert len(lines) == 1 + 3


# ---------------------------------------------------------------------------
# coupled stability runs
# ---------------------------------------------------------------------------


def test_contracting_pair_touches_its_envelope_at_zero():
    # a = −1, b = 0: exponent ∫g = −2t with h ≡ 0, and the measured gap
    # (1−Δt)^{2k} stays under e^{−2t} because ln(1−Δt) ≤ −Δt
    sc = builtin_scenario("linear-meanfield", a=-1.0, b=0.0, sigma=1.0)
    cfg = SimConfig(n_particles=64, horizon=1.0, steps_per_unit=50, cut_level=64.0, seed=0)
    report = stability_experiment(
        sc.model,
        lambda z: z**2,
        sc.stability["g"],
        sc.stability["h"],
        cfg,
        PointMass(0.0),
        PointMass(1.0),
        mode="pointwise",
    )
    assert report.passed()
    assert report.margin == 0.0  # the t = 0 checkpoint is exactly tight
    k = np.rint(report.times * cfg.steps_per_unit).astype(int)
    assert report.measured == pytest.approx((1.0 - cfg.dt) ** (2 * k), rel=1e-9)
    assert report.bound == pytest.approx(np.exp(-2.0 * report.times), rel=1e-12)


def test_mean_reverting_interaction_stays_under_its_envelope():
    # a = 0, b = −1: certified exponent ∫(g + h + 2|h|) = 4t, while the
    # measured gap actually contracts like e^{−2t}
    sc = builtin_scenario("linear-meanfield", a=0.0, b=-1.0, sigma=0.5)
    cfg = SimConfig(n_particles=32, horizon=1.0, steps_per_unit=40, cut_level=64.0, seed=1)
    report = stability_experiment(
        sc.model,
        lambda z: z**2,
        sc.stability["g"],
        sc.stability["h"],
        cfg,
        PointMass(0.0),
        PointMass(1.0),
        mode="pointwise",
    )
    assert report.passed()
    assert report.bound[-1] == pytest.approx(math.exp(4.0), rel=1e-12)
    assert report.measured[-1] < 0.2  # ≈ e⁻²


def test_integrated_mode_uses_only_h():
    sc = builtin_scenario("linear-meanfield", a=0.0, b=-1.0, sigma=0.5)
    cfg = SimConfig(n_particles=32, horizon=1.0, steps_per_unit=40, cut_level=64.0, seed=1)
    report = stability_experiment(
        sc.model,
        lambda z: z**2,
        None,
        sc.stability["h_int"],
        cfg,
        PointMass(0.0),
        PointMass(1.0),
        mode="integrated",
    )
    assert report.mode == "integrated"
    assert report.bound[-1] == pytest.approx(math.exp(sc.stability["h_int"]), rel=1e-12)
    assert report.passed()


def test_identical_initial_laws_stay_welded():
    sc = builtin_scenario("scheutzow-clip")
    cfg = SimConfig(n_particles=50, horizon=0.5, steps_per_unit=20, cut_level=8.0, seed=5)
    report = stability_experiment(
        sc.model,
        lambda z: z**2,
        sc.stability["g"],
        sc.stability["h"],
        cfg,
        PointMass(0.5),
        PointMass(0.5),
    )
    assert (report.measured == 0.0).all()
    assert (report.bound == 0.0).all()
    assert report.passed()


def test_stability_mode_and_rate_validation():
    sc = builtin_scenario("linear-meanfield")
    cfg = SimConfig(n_particles=8, horizon=0.1, steps_per_unit=10, cut_level=8.0, seed=0)
    with pytest.raises(ValueError, match="mode"):
        stability_experiment(
            sc.model, lambda z: z**2, -1.0, 0.0, cfg,
            PointMass(0.0), PointMass(1.0), mode="sideways",
        )
    with pytest.raises(ValueError, match="needs the rate g"):
        stability_experiment(
            sc.model, lambda z: z**2, None, 0.0, cfg,
            PointMass(0.0), PointMass(1.0), mode="pointwise",
        )


# ---------------------------------------------------------------------------
# replica probe
# ---------------------------------------------------------------------------


def test_replicas_agree_at_monte_carlo_scale():
    sc = builtin_scenario("scheutzow-clip")
    cfg = SimConfig(n_particles=400, horizon=0.5, steps_per_unit=20, cut_level=8.0, seed=0)
    report = scheutzow_probe(sc.model, cfg, seeds=(0, 1, 2), init=UniformBox(-1.0, 1.0))
    assert report.passed(), report.worst()
    # 3 unordered pairs, one row per checkpoint each
    per_pair = len(report.rows) // 3
    assert len(report.rows) == 3 * per_pair


def test_identical_seeds_give_identical_replicas():
    sc = builtin_scenario("scheutzow-clip")
    cfg = SimConfig(n_particles=100, horizon=0.2, steps_per_unit=10, cut_level=8.0, seed=0)
    report = scheutzow_probe(sc.model, cfg, seeds=(7, 7), init=PointMass(0.5))
    assert all(row.lhs == 0.0 for row in report.rows)


def test_replica_probe_validation():
    sc = builtin_scenario("scheutzow-clip")
    cfg = SimConfig(n_particles=10, horizon=0.1, steps_per_unit=10, cut_level=8.0, seed=0)
    with pytest.raises(ValueError):
        scheutzow_probe(sc.model, cfg, seeds=(1,), init=PointMass(0.5))
    with pytest.raises(ValueError, match="1-d"):
        scheutzow_probe(PLANAR, cfg, seeds=(0, 1), init=PointMass((0.0, 0.0)))


def test_replica_rows_are_lone_runs_compared():
    # the probe steps its replicas as one block; each must get exactly the
    # numbers of its lone run, and the rows keep their per-pair order
    sc = builtin_scenario("scheutzow-clip")
    cfg = SimConfig(n_particles=300, horizon=0.5, steps_per_unit=40, cut_level=4, seed=0)
    seeds, init = (0, 1, 2), UniformBox(-1.0, 1.5)
    runs = []
    for s in seeds:
        runs.append([])
        simulate(
            sc.model, None, replace(cfg, seed=s), init,
            _on_checkpoint=lambda t, x, kept=runs[-1]: kept.append((t, x.copy())),
        )
    want = [
        (f"t={t:g}:rep({seeds[a]},{seeds[b]})", wasserstein_p_1d(xa, xb, 1.0), 5.0 / math.sqrt(300))
        for a, b in ((0, 1), (0, 2), (1, 2))
        for (t, xa), (_, xb) in zip(runs[a], runs[b])
    ]
    report = scheutzow_probe(sc.model, cfg, seeds, init)
    assert [(r.probe, r.lhs, r.rhs) for r in report.rows] == want


def test_replica_probe_memory_does_not_grow_with_the_checkpoint_count():
    # the probe compares the replicas at each checkpoint and keeps no
    # snapshot (1.3 MiB and 0.6 MiB here); keeping every snapshot of each
    # replica read 1.8 MiB and 8.1 MiB
    sc = builtin_scenario("scheutzow-clip")
    peaks = [
        traced_peak(
            lambda: scheutzow_probe(
                sc.model,
                SimConfig(
                    n_particles=5000, horizon=1.0, steps_per_unit=100, cut_level=4,
                    seed=0, checkpoints=tuple(np.linspace(0.0, 1.0, k)),
                ),
                (0, 1),
                PointMass(0.5),
            )
        )
        for k in (11, 101)
    ]
    assert peaks[1] <= peaks[0] + 2**20, [p / 2**20 for p in peaks]


# ---------------------------------------------------------------------------
# stationary estimation
# ---------------------------------------------------------------------------


def test_occupation_measure_checks_its_factorization():
    with pytest.raises(ValueError):
        OccupationMeasure(
            samples=np.zeros((7, 1)), horizon=1.0, checkpoints_kept=2, particles_kept=3
        )


def test_stationary_estimate_pools_and_compares_horizons():
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=500, horizon=1.0, steps_per_unit=50, cut_level=2.0, seed=0)
    occupations, diag = stationary_estimate(
        sc.model, cfg, horizons=(2.0, 4.0), init=PointMass(1.0)
    )
    assert [occ.horizon for occ in occupations] == [2.0, 4.0]
    assert occupations[0].checkpoints_kept == 50
    assert occupations[1].checkpoints_kept == 100
    assert all(occ.n == occ.checkpoints_kept * occ.particles_kept for occ in occupations)
    assert diag.columns == ["horizon", "m4", "w1_prev"]
    assert math.isnan(diag.rows[0][-1])
    assert math.isfinite(diag.rows[1][-1])
    assert diag.meta["horizons"] == "2/4"


def test_longer_runs_restrict_to_shorter_ones():
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=200, horizon=1.0, steps_per_unit=50, cut_level=2.0, seed=3)
    short, _ = stationary_estimate(sc.model, cfg, horizons=(2.0,), init=PointMass(1.0))
    both, _ = stationary_estimate(sc.model, cfg, horizons=(2.0, 4.0), init=PointMass(1.0))
    assert np.array_equal(short[0].samples, both[0].samples)


def test_growing_envelopes_trigger_a_warning():
    sc = builtin_scenario("example3-cir")
    cfg = SimConfig(n_particles=200, horizon=1.0, steps_per_unit=50, cut_level=20.0, seed=0)
    with pytest.warns(RuntimeWarning, match="diverge"):
        stationary_estimate(
            sc.model, cfg, horizons=(1.0, 2.0), init=PointMass(1.0), lyap=sc.lyap
        )


def keep_the_run_snapshots(monkeypatch):
    """Make ``stationary_estimate``'s run also keep its snapshots; returns
    the list they are appended to."""
    snapshots = []
    run = analysis.simulate

    def run_keeping_snapshots(*args, _on_checkpoint, **kwargs):
        def keep_and_fill(t, x):
            snapshots.append((t, x.copy()))
            _on_checkpoint(t, x)

        return run(*args, _on_checkpoint=keep_and_fill, **kwargs)

    monkeypatch.setattr(analysis, "simulate", run_keeping_snapshots)
    return snapshots


POOL_CASES = {
    # (POOL_CAP, n_particles, horizons, checkpoints)
    "stride-1": (None, 300, (0.5, 1.0), None),
    # 50, 60 and 150 checkpoints: strides 1, 1 and 3
    "strided": (20_000, 333, (0.5, 0.6, 1.5), None),
    # 2, 5 and 7 checkpoints: strides 1, 3 and 3
    "given-checkpoints": (
        600, 250, (0.1, 0.3, 0.5), (0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5)
    ),
}


@pytest.mark.parametrize("case", list(POOL_CASES))
def test_pooling_writes_the_strided_rows_of_every_kept_snapshot(monkeypatch, case):
    cap, n, horizons, checkpoints = POOL_CASES[case]
    if cap is not None:
        monkeypatch.setattr(analysis, "POOL_CAP", cap)
    snapshots = keep_the_run_snapshots(monkeypatch)
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(
        n_particles=n, horizon=1.0, steps_per_unit=100, cut_level=2,
        seed=4, checkpoints=checkpoints,
    )
    occupations, _ = stationary_estimate(sc.model, cfg, horizons, UniformBox(-1.0, 1.0))
    strides = set()
    for occ, h in zip(occupations, horizons):
        kept = [x for t, x in snapshots if 0.0 < t <= h + 1e-12]
        per = max(1, min(n, analysis.POOL_CAP // len(kept)))
        idx = np.arange(0, n, -(-n // per))
        strides.add(-(-n // per))
        want = np.concatenate([x[idx] for x in kept], axis=0)
        assert occ.samples.shape == want.shape
        assert occ.samples.tobytes() == want.tobytes()
        assert (occ.checkpoints_kept, occ.particles_kept) == (len(kept), len(idx))
    assert (strides == {1}) == (cap is None)


def test_horizons_with_one_stride_share_one_buffer(monkeypatch):
    monkeypatch.setattr(analysis, "POOL_CAP", 20_000)
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=333, horizon=1.0, steps_per_unit=100, cut_level=2, seed=0)
    short, mid, long = stationary_estimate(
        sc.model, cfg, (0.5, 0.6, 1.5), sc.default_init
    )[0]
    assert short.particles_kept == mid.particles_kept == 333
    assert long.particles_kept < 333
    assert np.shares_memory(short.samples, mid.samples)
    assert not np.shares_memory(mid.samples, long.samples)
    # so no caller can edit one horizon's pool through another's
    assert not any(o.samples.flags.writeable for o in (short, mid, long))


def test_pools_are_planned_before_the_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(analysis, "simulate", no_run)
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(
        n_particles=10, horizon=1.0, steps_per_unit=10, cut_level=2, seed=0,
        checkpoints=(0.0, 1.0),
    )
    with pytest.raises(ValueError, match=r"no snapshots in \(0, 0.5\]"):
        stationary_estimate(sc.model, cfg, (0.5, 1.0), PointMass(1.0))
    with pytest.raises(ValueError, match="1-d"):
        stationary_estimate(PLANAR, cfg, (1.0,), PointMass((0.0, 0.0)))


def test_stationary_memory_does_not_grow_with_the_checkpoint_count(monkeypatch):
    # Every pool is capped at 2e4 rows, so 100 checkpoints and 400 must
    # cost the same: the run keeps no snapshot (2.4 MiB and 1.9 MiB here;
    # keeping every snapshot read 17.4 MiB and 62.6 MiB).
    monkeypatch.setattr(analysis, "POOL_CAP", 20_000)
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=20_000, horizon=1.0, steps_per_unit=100, cut_level=2, seed=0)
    peaks = [
        traced_peak(
            lambda: stationary_estimate(sc.model, cfg, horizons, sc.default_init)
        )
        for horizons in ((1.0, 2.0), (1.0, 8.0))
    ]
    assert peaks[1] <= peaks[0] + 2**20, [p / 2**20 for p in peaks]


def test_stationary_post_processing_copies_no_snapshot():
    # The pools are the only large arrays the call keeps; after the run W₁
    # holds the sorted pair of two pools and forms the difference in one of
    # them. So the traced peak of the whole call is at most
    #   pool bytes + 2 × largest pool bytes + 1 MB
    # (pools that share a buffer are counted once each). This reads
    # 24.5 MiB against the 28.5 MiB bound; keeping every snapshot until the
    # run ended read 33.7 MiB.
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=8000, horizon=1.0, steps_per_unit=100, cut_level=2, seed=0)
    occupations = []
    peak = traced_peak(
        lambda: occupations.extend(
            stationary_estimate(
                sc.model, cfg, (0.5, 1.0, 2.0), sc.default_init, lyap=sc.lyap
            )[0]
        )
    )
    pools = [occ.samples.nbytes for occ in occupations]
    # the last horizon pools strided rows: 200 snapshots × 4000 particles
    assert occupations[-1].particles_kept < cfg.n_particles
    bound = sum(pools) + 2 * max(pools) + 2**20
    assert peak <= bound, (peak / 2**20, bound / 2**20)


def test_stationary_estimate_validation():
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=10, horizon=1.0, steps_per_unit=10, cut_level=2.0, seed=0)
    with pytest.raises(ValueError):
        stationary_estimate(sc.model, cfg, horizons=(), init=PointMass(1.0))
    with pytest.raises(ValueError):
        stationary_estimate(sc.model, cfg, horizons=(0.0, 1.0), init=PointMass(1.0))
    # 50 snapshots in the shortest horizon 1 are 0.02 apart, a fifth of a
    # step of 1/10: the spacing is refused rather than snapped to the grid
    with pytest.raises(ValueError, match="not a whole number"):
        stationary_estimate(sc.model, cfg, horizons=(1.0, 2.0), init=PointMass(1.0))


class _RunConfigSeen(Exception):
    pass


@settings(deadline=None, max_examples=60)
@given(
    steps_per_unit=st.integers(1, 10**4),
    spacing_steps=st.integers(1, 10**4),
    multiple=st.integers(1, 200),
)
def test_stationary_default_marks_are_grid_times(steps_per_unit, spacing_steps, multiple):
    # the default marks are np.arange floats k·spacing up to T; each must
    # pass SimConfig's refusal of off-grid checkpoints and name step
    # k·spacing_steps, up to T·n = 50·spacing_steps·multiple ≈ 1e6
    spacing_steps = min(spacing_steps, 10**6 // (50 * multiple))
    shortest = 50 * spacing_steps / steps_per_unit
    seen = []

    def keep_the_run_config(model, lyap, cfg, init, **kw):
        seen.append(cfg)
        raise _RunConfigSeen

    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(
        n_particles=1, horizon=1.0, steps_per_unit=steps_per_unit, cut_level=2, seed=0
    )
    original = analysis.simulate
    analysis.simulate = keep_the_run_config
    try:
        with pytest.raises(_RunConfigSeen):
            stationary_estimate(
                sc.model, cfg, (shortest, multiple * shortest), PointMass(0.5)
            )
    finally:
        analysis.simulate = original
    total = 50 * spacing_steps * multiple
    assert seen[0].total_steps == total
    assert seen[0].checkpoint_steps() == tuple(range(0, total + 1, spacing_steps))


# ---------------------------------------------------------------------------
# the moment flow oracle
# ---------------------------------------------------------------------------


def test_moment_flow_closed_form():
    assert moment_ode_oracle("example1-quartic", 1.0, 0.0) == 1.0
    assert moment_ode_oracle("example1-quartic", 0.0, 3.0) == 0.0
    t = 1.0
    want = 3.0 / (4.0 - math.exp(-3.0 * t))
    assert moment_ode_oracle("example1-quartic", 1.0, t) == pytest.approx(want, rel=1e-14)
    # the fixed point is 3/4, reached from any positive start
    assert moment_ode_oracle("example1-quartic", 0.75, 2.0) == pytest.approx(0.75, rel=1e-14)
    assert moment_ode_oracle("example1-quartic", 0.2, 50.0) == pytest.approx(0.75, rel=1e-12)
    # vectorized evaluation and scenario objects are accepted
    ts = np.array([0.0, 0.5, 1.0])
    arr = moment_ode_oracle(builtin_scenario("example1-quartic"), 1.0, ts)
    assert arr.shape == (3,) and arr[0] == 1.0


def test_moment_flow_matches_an_independent_integrator():
    # classic fourth-order Runge–Kutta on ṁ = 3m − 4m², fine fixed step
    def f(m):
        return 3.0 * m - 4.0 * m * m

    m, dt = 0.3, 1e-4
    for _ in range(20_000):
        k1 = f(m)
        k2 = f(m + 0.5 * dt * k1)
        k3 = f(m + 0.5 * dt * k2)
        k4 = f(m + dt * k3)
        m += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    assert moment_ode_oracle("example1-quartic", 0.3, 2.0) == pytest.approx(m, abs=1e-9)


def test_moment_flow_validation():
    with pytest.raises(ValueError):
        moment_ode_oracle("linear-meanfield", 1.0, 0.0)
    with pytest.raises(ValueError):
        moment_ode_oracle("example1-quartic", -0.5, 0.0)
