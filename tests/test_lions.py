"""Lifted measure derivatives and the Itô-expansion residual tests."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import quartic_lyap
from mkvlab.lions import (
    REGISTRY,
    MeasureFunction,
    centered_quartic,
    check_structure,
    ito_residual_full,
    ito_residual_measure,
    lift_gradient,
    mean_square_function,
    moment_function,
    registry_function,
)
from mkvlab.lyapunov import LyapunovSpec, Rate
from mkvlab.measure import evaluate_functionals
from mkvlab.model import evaluate_coefficients
from mkvlab.parallel import tree_mean
from mkvlab.scenarios import builtin_scenario
from mkvlab.simulate import (
    NoiseStream,
    ParticleCloud,
    PointMass,
    Samples,
    SimConfig,
    UniformBox,
    euler_step,
)


def rng_cloud(n=20, scale=1.5, seed=7):
    rng = np.random.Generator(np.random.Philox(seed))
    return scale * rng.normal(size=(n, 1))


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def test_registry_contents():
    assert set(REGISTRY) == {"mean", "moment2", "moment4", "mean-square"}
    assert registry_function("moment4") is REGISTRY["moment4"]
    with pytest.raises(ValueError, match="available"):
        registry_function("entropy")
    with pytest.raises(ValueError):
        moment_function(0)
    assert moment_function(1).uid == "mean"


def test_measure_functions_guard_against_nonfinite_values():
    bad = MeasureFunction("bad", fn=lambda x: float("inf"))
    with pytest.raises(FloatingPointError):
        bad(np.ones((3, 1)))


# ---------------------------------------------------------------------------
# lifted gradients
# ---------------------------------------------------------------------------


def test_lift_gradient_matches_moment_derivatives():
    x = rng_cloud()
    u = moment_function(4)
    for i in (0, 7, 19):
        got = lift_gradient(u, x, i)
        assert got[0] == pytest.approx(4.0 * x[i, 0] ** 3, rel=1e-7, abs=1e-7)


def test_lift_gradient_is_exact_for_quadratic_lifts():
    # u(μ) = mean(μ)² has a lifted slice that is itself quadratic, so the
    # central difference carries no truncation error at all
    x = rng_cloud(seed=8)
    u = mean_square_function()
    m = float(np.mean(x))
    for i in (0, 5):
        assert lift_gradient(u, x, i)[0] == pytest.approx(2.0 * m, rel=1e-9)
    flat = moment_function(1)
    assert lift_gradient(flat, x, 3)[0] == pytest.approx(1.0, rel=1e-10)


def test_lift_gradient_of_the_centered_slice():
    x = rng_cloud(seed=9)
    u = centered_quartic(xbar=0.7, alpha=-0.5)
    m = float(np.mean(x))
    want = -4.0 * (-0.5) * (0.7 + 0.5 * m) ** 3
    assert lift_gradient(u, x, 2)[0] == pytest.approx(want, rel=1e-7)


def test_lift_gradient_argument_validation():
    x = rng_cloud()
    u = moment_function(2)
    with pytest.raises(IndexError):
        lift_gradient(u, x, 20)
    with pytest.raises(ValueError):
        lift_gradient(u, x, 0, h=0.0)
    # caller-chosen steps work too
    assert lift_gradient(u, x, 0, h=1e-4)[0] == pytest.approx(
        2.0 * x[0, 0], rel=1e-6
    )


def test_duplicated_atoms_get_bit_identical_gradients():
    x = rng_cloud(seed=11)
    x[7] = x[3]
    for uid in ("mean", "moment2", "moment4", "mean-square"):
        u = registry_function(uid)
        g3 = lift_gradient(u, x, 3)
        g7 = lift_gradient(u, x, 7)
        assert np.array_equal(g3, g7), uid


def test_structure_check_finds_and_injects_duplicates():
    x = rng_cloud(seed=12)
    x[4] = x[1]
    report = check_structure(registry_function("moment4"), x)
    assert report.passed()
    assert "(injected duplicate)" not in report.title
    assert all(row.lhs == 0.0 for row in report.rows)

    fresh = rng_cloud(seed=13)
    injected = check_structure(registry_function("moment2"), fresh)
    assert injected.passed()
    assert "(injected duplicate)" in injected.title
    assert injected.rows[0].probe == f"dup(0,{fresh.shape[0] - 1})"

    with pytest.raises(ValueError):
        check_structure(registry_function("mean"), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# measure-only residuals
# ---------------------------------------------------------------------------


def test_measure_residual_vanishes_without_motion(zero_model):
    cfg = SimConfig(n_particles=30, horizon=1.0, steps_per_unit=20, cut_level=4.0, seed=0)
    series = ito_residual_measure(
        registry_function("moment2"), zero_model, cfg, Samples(rng_cloud(30, 0.5, 3))
    )
    assert series.columns == ["t", "R", "band"]
    assert all(row[1] == 0.0 and row[2] == 0.0 for row in series.rows)
    assert series.meta["residual"] == "measure"


def test_measure_residual_telescopes_for_linear_functions(contraction_model):
    # u = mean is linear in μ, and dx = −x dt has no noise: the generator
    # accumulator reproduces each Euler update exactly, step by step
    cfg = SimConfig(n_particles=40, horizon=1.0, steps_per_unit=50, cut_level=8.0, seed=0)
    series = ito_residual_measure(
        registry_function("mean"), contraction_model, cfg, Samples(rng_cloud(40, 2.0, 4))
    )
    assert max(abs(row[1]) for row in series.rows) < 1e-12


def test_measure_residual_sits_inside_its_band():
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(
        n_particles=2000, horizon=0.5, steps_per_unit=100, cut_level=4.0, seed=0
    )
    series = ito_residual_measure(
        registry_function("moment4"), sc.model, cfg, PointMass(1.0)
    )
    final = series.rows[-1]
    assert abs(final[1]) <= final[2], (final[1], final[2])
    assert final[2] < 0.5  # the band itself is tight at this N


def residual_rows_by_recomputing(u, model, cfg, init):
    """ito_residual_measure's loop with euler_step left to evaluate the
    functionals and coefficients a second time on its own."""
    noise = NoiseStream(cfg.seed, cfg.stream)
    cloud = ParticleCloud.create(
        init.sample(cfg.n_particles, model.dim, noise), model, cfg.tracked_levels()
    )
    checkpoints = set(cfg.checkpoint_steps())
    u0, acc, mart_var = u(cloud.x), 0.0, 0.0
    rows = [[0.0, 0.0, 0.0]]
    for _ in range(cfg.total_steps):
        fv = evaluate_functionals(model.functionals, cloud.x)
        b, s = evaluate_coefficients(model, cloud.t, cloud.x, fv, cfg.cut_level)
        g = u.d_mu(cloud.x, cloud.x)
        hess = u.dy_d_mu(cloud.x, cloud.x)
        drift = np.einsum("nd,nd->n", b, g)
        trace = np.einsum("nik,njk,nij->n", s, s, hess)
        acc += cfg.dt * float(tree_mean(drift + 0.5 * trace))
        sg = np.einsum("nd,ndk->nk", g, s)
        mart_var += cfg.dt * float(tree_mean(np.einsum("nk,nk->n", sg, sg))) / cloud.n
        cloud = euler_step(cloud, model, cfg, noise)
        if cloud.step in checkpoints:
            rows.append([cloud.t, u(cloud.x) - u0 - acc, 3.0 * math.sqrt(mart_var)])
    return rows


@pytest.mark.parametrize(
    "name, init",
    [("example1-quartic", UniformBox(-2.5, 2.5)), ("example3-cir", UniformBox(0.2, 3.0))],
)
def test_measure_residual_equals_the_recomputing_loop(name, init):
    # the cut at level 2 freezes part of the cloud, so zeroed rows count too
    sc = builtin_scenario(name)
    cfg = SimConfig(n_particles=500, horizon=0.2, steps_per_unit=100, cut_level=2, seed=4)
    u = registry_function("moment2")
    series = ito_residual_measure(u, sc.model, cfg, init)
    assert repr(series.rows) == repr(residual_rows_by_recomputing(u, sc.model, cfg, init))


def test_measure_residual_requires_derivatives():
    plain = MeasureFunction("opaque", fn=lambda x: float(np.mean(x)))
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=10, horizon=0.1, steps_per_unit=10, cut_level=4.0, seed=0)
    with pytest.raises(ValueError, match="derivatives"):
        ito_residual_measure(plain, sc.model, cfg, PointMass(1.0))


# ---------------------------------------------------------------------------
# full residuals
# ---------------------------------------------------------------------------


def linear_v() -> LyapunovSpec:
    return LyapunovSpec(
        name="linear",
        mode="pointwise",
        v=lambda t, x, fv: x[:, 0],
        dv_dt=lambda t, x, fv: np.zeros(x.shape[0]),
        dv_dx=lambda t, x, fv: np.ones_like(x),
        d2v_dx2=lambda t, x, fv: np.zeros((x.shape[0], 1, 1)),
        m1=Rate.constant(0.0),
        m2=Rate.constant(0.0),
        floor_V=lambda t, x: np.zeros(x.shape[0]),
        boundary_infimum=lambda k: float(k),
    )


def test_full_residual_vanishes_for_linear_observables():
    # v = x: the Euler update *is* b·Δt + σ·Δw, so acc + mart telescopes
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=50, horizon=0.2, steps_per_unit=20, cut_level=4.0, seed=1)
    series = ito_residual_full(linear_v(), sc.model, cfg, UniformBox(-1.0, 1.0))
    assert max(abs(row[1]) for row in series.rows) < 1e-12
    assert series.meta["residual"] == "full"


def test_full_residual_vanishes_without_motion(zero_model, quartic_lyap_zero_rates):
    cfg = SimConfig(n_particles=25, horizon=0.5, steps_per_unit=10, cut_level=4.0, seed=0)
    series = ito_residual_full(
        quartic_lyap_zero_rates, zero_model, cfg, Samples(rng_cloud(25, 0.5, 6))
    )
    assert all(row[1] == 0.0 for row in series.rows)


@pytest.mark.parametrize("seed", [0, 3])
def test_full_residual_with_measure_terms_is_centered(seed):
    # the centered-quartic v has a genuine measure derivative; its residual
    # mean must sit inside the cross-particle 3-sigma band
    sc = builtin_scenario("example2-nonlinear")
    cfg = SimConfig(
        n_particles=10_000,
        horizon=0.5,
        steps_per_unit=1000,
        cut_level=4.0,
        seed=seed,
    )
    series = ito_residual_full(
        sc.lyap, sc.model, cfg, UniformBox(-0.5, 0.5)
    )
    final = series.rows[-1]
    assert abs(final[1]) <= final[2], (final[1], final[2])


def test_full_residual_runs_on_the_last_stream():
    # the companion cloud draws on its own purposes, not on stream + 1
    sc = builtin_scenario("example2-nonlinear")
    cfg = SimConfig(
        n_particles=40, horizon=0.1, steps_per_unit=20, cut_level=4, seed=2, stream=255
    )
    series = ito_residual_full(sc.lyap, sc.model, cfg, UniformBox(-0.5, 0.5))
    assert len(series.rows) == len(cfg.checkpoint_steps())
    assert all(math.isfinite(v) for row in series.rows for v in row)
