"""Lifted measure derivatives and the Itô-expansion residual tests."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import quartic_lyap
from oracles import centered_quartic
from mkvlab.lions import (
    REGISTRY,
    MeasureFunction,
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


def full_residual_rows_by_hand(lyap, model, cfg, init, init2=None):
    """ito_residual_full as two clouds stepped one after the other by public
    ``euler_step``, allocating every array, with the functionals and the
    coefficients evaluated here and again by each step."""
    noise = NoiseStream(cfg.seed, cfg.stream)
    cloud1 = ParticleCloud.create(
        init.sample(cfg.n_particles, model.dim, noise), model, cfg.tracked_levels()
    )
    cloud2 = ParticleCloud.create(
        (init2 or init).sample(
            cfg.n_particles, model.dim, noise, NoiseStream.PURPOSE_INIT2
        ),
        model,
        cfg.tracked_levels(),
    )
    checkpoints = set(cfg.checkpoint_steps())
    n = cloud1.n
    fv1 = evaluate_functionals(model.functionals, cloud1.x)
    v0 = np.asarray(lyap.v(0.0, cloud1.x, fv1), dtype=float)
    acc, mart = np.zeros(n), np.zeros(n)
    rows = [[0.0, 0.0, 0.0]]
    for step in range(cfg.total_steps):
        fv1 = evaluate_functionals(model.functionals, cloud1.x)
        fv2 = evaluate_functionals(model.functionals, cloud2.x)
        t = cloud1.t
        b1, s1 = evaluate_coefficients(model, t, cloud1.x, fv1, cfg.cut_level)
        b2, s2 = evaluate_coefficients(model, t, cloud2.x, fv2, cfg.cut_level)
        dvdx = np.asarray(lyap.dv_dx(t, cloud1.x, fv1), dtype=float)
        d2vdx2 = np.asarray(lyap.d2v_dx2(t, cloud1.x, fv1), dtype=float)
        local = (
            np.asarray(lyap.dv_dt(t, cloud1.x, fv1), dtype=float)
            + np.einsum("nd,nd->n", b1, dvdx)
            + 0.5 * np.einsum("nik,njk,nij->n", s1, s1, d2vdx2)
        )
        measure = np.zeros(n)
        for factor in lyap.measure_factors:
            grad = np.asarray(factor.y_grad(t, cloud2.x, fv1), dtype=float)
            inner = float(tree_mean(np.einsum("md,md->m", b2, grad)))
            if factor.y_hess is not None:
                hess = np.asarray(factor.y_hess(t, cloud2.x, fv1), dtype=float)
                inner += 0.5 * float(
                    tree_mean(np.einsum("mik,mjk,mij->m", s2, s2, hess))
                )
            x_part = np.asarray(factor.x_part(t, cloud1.x, fv1), dtype=float)
            measure = measure + x_part * inner
        acc += cfg.dt * (local + measure)
        dw1 = noise.increments(step, n, model.noise_dim, cfg.dt)
        dw2 = noise.increments(
            step, n, model.noise_dim, cfg.dt, NoiseStream.PURPOSE_STEP2
        )
        mart += np.einsum("nd,ndk,nk->n", dvdx, s1, dw1)
        cloud1 = euler_step(cloud1, model, cfg, noise, shared_dw=dw1)
        cloud2 = euler_step(cloud2, model, cfg, noise, shared_dw=dw2)
        if cloud1.step in checkpoints:
            fv1 = evaluate_functionals(model.functionals, cloud1.x)
            v = np.asarray(lyap.v(cloud1.t, cloud1.x, fv1), dtype=float)
            resid = v - v0 - acc - mart
            band = 3.0 * float(np.std(resid, ddof=1)) / math.sqrt(n)
            rows.append([cloud1.t, float(tree_mean(resid)), band])
    return rows


@pytest.mark.parametrize("init2", [None, UniformBox(-1.0, 1.5)], ids=["init", "init2"])
@pytest.mark.parametrize("name", ["example1-quartic", "example2-nonlinear"])
def test_full_residual_equals_a_hand_loop(name, init2):
    # example2's v has a measure factor, so the companion's half of the
    # block counts; the cut at level 2 freezes part of both clouds
    sc = builtin_scenario(name)
    assert bool(sc.lyap.measure_factors) == (name == "example2-nonlinear")
    cfg = SimConfig(n_particles=400, horizon=0.2, steps_per_unit=100, cut_level=2, seed=4)
    init = UniformBox(-2.5, 2.5)
    series = ito_residual_full(sc.lyap, sc.model, cfg, init, init2)
    want = full_residual_rows_by_hand(sc.lyap, sc.model, cfg, init, init2)
    assert repr(series.rows) == repr(want)


@pytest.mark.parametrize("full", [False, True], ids=["measure", "full"])
def test_no_steps_positions_outlive_their_step(monkeypatch, full):
    # the engine's loop makes the residuals' steps, and a run's step-0 block
    # is its only particle state: every step advances that one object in
    # place and returns it; the full residual's pair steps as one block
    engine = sys.modules["mkvlab.simulate"]
    step, seen = engine.euler_step, []

    def watched(cloud, *args, **kwargs):
        seen.append(cloud)
        stepped = step(cloud, *args, **kwargs)
        assert stepped is cloud
        return stepped

    monkeypatch.setattr(engine, "euler_step", watched)
    sc = builtin_scenario("example2-nonlinear")
    cfg = SimConfig(n_particles=30, horizon=0.25, steps_per_unit=20, cut_level=4, seed=1)
    if full:
        ito_residual_full(sc.lyap, sc.model, cfg, UniformBox(-0.5, 0.5))
    else:
        ito_residual_measure(moment_function(2), sc.model, cfg, UniformBox(-0.5, 0.5))
    assert len(seen) == cfg.total_steps
    assert all(cloud is seen[0] for cloud in seen)
    assert seen[0].n == (2 if full else 1) * cfg.n_particles
