"""Acceptance suite: ten numbered criteria, one verdict line each.

Every test funnels through ``verdict``, which records a single
``criterion NN: PASS/FAIL`` line (echoed in the terminal summary) and then
asserts. The heavy ensemble behind criteria 1 and 2 runs once per session.
Expected wall time for the whole file is about a minute.
"""

import math

import numpy as np
import pytest
from conftest import VERDICTS
from oracles import centered_quartic, moment_ode_oracle

from mkvlab.analysis import stability_experiment, stationary_estimate
from mkvlab.cli import main
from mkvlab.lions import check_structure, ito_residual_measure, moment_function
from mkvlab.lyapunov import check_floor, check_lyapunov_condition, exit_probability_bound
from mkvlab.measure import semi_wasserstein_vbar, vbar_power, wasserstein_exact, wasserstein_p_1d
from mkvlab.scenarios import builtin_scenario
from mkvlab.simulate import PointMass, SimConfig, simulate


def verdict(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared ensemble for criteria 1 and 2
# ---------------------------------------------------------------------------

ENSEMBLE_SEEDS = tuple(range(10))
ENSEMBLE_DT = 1e-3


@pytest.fixture(scope="session")
def quartic_ensemble():
    """Ten seeds of the quartic scenario: (t, m̂4, 3σ band) per seed."""
    sc = builtin_scenario("example1-quartic")
    checkpoints = tuple(np.linspace(0.0, 5.0, 51))
    runs = []
    for seed in ENSEMBLE_SEEDS:
        cfg = SimConfig(
            n_particles=10_000,
            horizon=5.0,
            steps_per_unit=1000,
            cut_level=2.0,
            seed=seed,
            checkpoints=checkpoints,
        )
        series = simulate(sc.model, sc.lyap, cfg, sc.default_init)
        # v = x⁴ here, so the series' 3σ band of v_mean is m̂4's
        runs.append((series.column("t"), series.column("m4"), series.column("v_band")))
    return runs


def test_criterion_01_envelope_domination(quartic_ensemble):
    passes = 0
    worst = -np.inf  # largest (m4 - allowance) over all seeds and times
    for t, m4, band in quartic_ensemble:
        envelope = np.exp(-t) + 4.0 * (1.0 - np.exp(-t))
        excess = m4 - (envelope + band + 0.1 * envelope)
        worst = max(worst, float(excess.max()))
        passes += bool((excess <= 0.0).all())
    verdict(
        1,
        passes == len(ENSEMBLE_SEEDS),
        f"{passes}/{len(ENSEMBLE_SEEDS)} seeds under M(t) + 3σ + 10% "
        f"(worst excess {worst:+.4f})",
    )


def test_criterion_02_moment_ode_agreement(quartic_ensemble):
    fitted = []
    terminals = []
    for t, m4, band in quartic_ensemble:
        oracle = moment_ode_oracle("example1-quartic", 1.0, t)
        gap = np.abs(m4 - oracle) - band
        fitted.append(max(0.0, float(gap.max()) / ENSEMBLE_DT))
        terminals.append(float(m4[-1]))
    mean_terminal = float(np.mean(terminals))
    ok = max(fitted) <= 0.5 and abs(mean_terminal - 0.75) <= 0.05
    verdict(
        2,
        ok,
        f"fitted C = {max(fitted):g}; terminal m̂4 mean {mean_terminal:.4f} "
        f"(seed range {min(terminals):.4f}..{max(terminals):.4f})",
    )


def test_criterion_03_exit_probability_bound():
    sc = builtin_scenario("example3-cir", alpha=0.05)
    levels = (5, 10, 20)
    cfg = SimConfig(
        n_particles=10_000,
        horizon=5.0,
        steps_per_unit=1000,
        cut_level=20.0,
        seed=0,
        exit_levels=levels,
        checkpoints=tuple(np.linspace(0.0, 5.0, 51)),
    )
    series = simulate(sc.model, sc.lyap, cfg, sc.default_init)
    t = series.column("t")
    ev0 = 2.0  # v(1) = 1 + 1 at the point-mass start
    ok = True
    worst = -np.inf
    for m in levels:
        frac = series.column(f"exit_frac_{m}")
        for tk, fk in zip(t, frac):
            bound = exit_probability_bound(sc.lyap, ev0, float(tk), m)
            mc = 3.0 * math.sqrt(fk * (1.0 - fk) / cfg.n_particles)
            worst = max(worst, fk - (bound + mc))
            ok = ok and fk <= bound + mc + 1e-12
    verdict(
        3,
        ok,
        f"exit fractions under P0 + M(t)/V_m + 3σ at all 51 checkpoints, "
        f"m ∈ {levels} (worst excess {worst:+.4f})",
    )


def test_criterion_04_integrated_drift_margins():
    rng = np.random.Generator(np.random.Philox(11))
    t_samples = (0.0, 0.5, 1.0)
    ok = True
    worst = np.inf
    for name in ("example1-quartic", "example2-nonlinear", "example3-cir"):
        sc = builtin_scenario(name)
        probes = []
        for _ in range(50):
            z = rng.standard_normal((64, 1))
            probes.append(np.exp(0.5 * z) if name == "example3-cir" else 2.0 * z)
        report = check_lyapunov_condition(
            sc.model, sc.lyap, t_samples, probes, tolerance=1e-9
        )
        ok = ok and report.passed()
        worst = min(worst, float(report.worst().margin))
        if name == "example2-nonlinear":
            floor = check_floor(sc.model, sc.lyap, t_samples, probes, tolerance=1e-9)
            ok = ok and floor.passed()
    verdict(
        4,
        ok,
        f"50 probe clouds × 3 scenarios, all margins ≥ -1e-9 "
        f"(tightest margin {worst:.3e})",
    )


def test_criterion_05_contraction_equality_case():
    sc = builtin_scenario("linear-meanfield", a=-1.0, b=0.0, sigma=1.0)
    spu = 1000
    cfg = SimConfig(
        n_particles=256,
        horizon=2.0,
        steps_per_unit=spu,
        cut_level=64.0,
        seed=0,
        checkpoints=tuple(np.linspace(0.0, 2.0, 21)),
    )
    report = stability_experiment(
        sc.model,
        vbar_power(2.0),
        sc.stability["g"],
        sc.stability["h"],
        cfg,
        PointMass(0.0),
        PointMass(1.0),
        mode="pointwise",
    )
    t = report.times
    steps = np.rint(t * spu).astype(int)
    discrete = (1.0 - 1.0 / spu) ** (2 * steps)
    exact = float(np.max(np.abs(report.measured - discrete) / discrete))
    dominated = bool((report.measured <= report.bound + 1e-12).all())
    bound_is_exp = float(np.max(np.abs(report.bound - np.exp(-2.0 * t))))
    gap = float(1.0 - report.measured[-1] / report.bound[-1])
    ok = exact <= 1e-9 and dominated and bound_is_exp <= 1e-12 and gap < 0.01
    verdict(
        5,
        ok,
        f"shared noise cancels pathwise: measured ≡ (1-Δt)^2k (rel "
        f"{exact:.1e}), under e^-2t with terminal time-discretization gap "
        f"{gap:.2e}",
    )


def test_criterion_06_lift_gradient_structure():
    rng = np.random.Generator(np.random.Philox(5))
    atoms = rng.standard_normal((64, 1))
    ok = True
    details = []
    for u in (moment_function(4), centered_quartic(0.7, -0.5)):
        report = check_structure(u, atoms)
        ok = ok and report.passed()
        fd = max(row.lhs for row in report.rows)
        details.append(f"{u.uid}: max deviation {fd:.2e}")
    verdict(6, ok, "; ".join(details) + " (all within 10h²·scale)")


def test_criterion_07_ito_residual_convergence():
    levels = ((4e-3, 2_500), (2e-3, 10_000), (1e-3, 40_000))
    sc = builtin_scenario("example1-quartic")
    u = moment_function(4)
    means = []
    for dt, n in levels:
        terminal = []
        for seed in range(20):
            cfg = SimConfig(
                n_particles=n,
                horizon=0.2,
                steps_per_unit=round(1.0 / dt),
                cut_level=2.0,
                seed=seed,
                checkpoints=(0.0, 0.2),
            )
            series = ito_residual_measure(u, sc.model, cfg, sc.default_init)
            terminal.append(abs(float(series.column("R")[-1])))
        means.append(float(np.mean(terminal)))
    decreasing = means[0] > means[1] > means[2]
    scaled = all(
        m <= 5.0 * (dt + 1.0 / math.sqrt(n)) for (dt, n), m in zip(levels, means)
    )
    verdict(
        7,
        decreasing and scaled,
        "mean |R(T)| = " + " > ".join(f"{m:.2e}" for m in means)
        + " across Δt = 4e-3, 2e-3, 1e-3; all within 5(Δt + N^-1/2)",
    )


def test_criterion_08_wasserstein_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(21))
    powers = (1.0, 1.5, 2.0, 2.5, 3.0)
    worst_sorted = 0.0
    worst_vbar = 0.0
    for trial in range(100):
        a = rng.standard_normal(8) * 1.5
        b = rng.standard_normal(8) * 1.5 + rng.uniform(-1.0, 1.0)
        p = powers[trial % len(powers)]
        sorted_pp = wasserstein_p_1d(a, b, p) ** p
        worst_sorted = max(worst_sorted, abs(sorted_pp - wasserstein_exact(a, b, p)))
        w2sq = wasserstein_p_1d(a, b, 2.0) ** 2
        vbar = float(semi_wasserstein_vbar(a, b, vbar_power(2.0)))
        worst_vbar = max(worst_vbar, abs(vbar - w2sq))
    ok = worst_sorted <= 1e-9 and worst_vbar <= 1e-9
    verdict(
        8,
        ok,
        f"100 pairs: |sorted^p - assignment| ≤ {worst_sorted:.1e}, "
        f"|W_v̄ - W₂²| ≤ {worst_vbar:.1e}",
    )


def test_criterion_09_stationarity():
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(
        n_particles=10_000,
        horizon=40.0,
        steps_per_unit=1000,
        cut_level=2.0,
        seed=0,
    )
    occupations, diag = stationary_estimate(
        sc.model, cfg, (10.0, 20.0, 40.0), sc.default_init, lyap=sc.lyap
    )
    w1 = diag.column("w1_prev")
    occ_m4 = diag.column("m4")
    cauchy = w1[2] < w1[1]
    near_three_quarters = abs(float(occ_m4[-1]) - 0.75) <= 0.05
    verdict(
        9,
        bool(cauchy and near_three_quarters),
        f"W₁(occ20, occ40) = {w1[2]:.4f} < W₁(occ10, occ20) = {w1[1]:.4f}; "
        f"occupation m̂4 = {occ_m4[-1]:.4f}",
    )


def test_criterion_10_thread_determinism(tmp_path):
    cfg_text = (
        "scenario.name = example1-quartic\n"
        "sim.n_particles = 2000\n"
        "sim.horizon = 1.0\n"
        "sim.steps_per_unit = 200\n"
        "sim.cut_level = 4.0\n"
        "sim.exit_levels = 2 3\n"
    )
    stab_text = (
        "scenario.name = scheutzow-clip\n"
        "sim.n_particles = 2000\n"
        "sim.horizon = 1.0\n"
        "sim.steps_per_unit = 200\n"
        "sim.cut_level = 8.0\n"
        "init = point 0.0\n"
        "stability.init_b = point 1.0\n"
    )
    emitted = {}
    for command, text, artifact in (
        ("simulate", cfg_text, "diagnostics.csv"),
        ("stability", stab_text, "stability.csv"),
    ):
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text)
        blobs = []
        for threads in ("1", "8"):
            out = tmp_path / f"{command}-t{threads}"
            code = main(
                [command, "--config", str(cfg_path), "--out", str(out),
                 "--threads", threads]
            )
            assert code == 0
            blobs.append((out / artifact).read_bytes())
        emitted[command] = blobs[0] == blobs[1]
    verdict(
        10,
        all(emitted.values()),
        "byte-identical CSVs for --threads 1 vs 8 "
        f"(simulate: {emitted['simulate']}, stability: {emitted['stability']})",
    )
