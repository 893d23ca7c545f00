"""The localized Euler engine: stepping, freezing, exits, noise, coupling."""

import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mkvlab.measure import evaluate_functionals
from mkvlab.model import DomainLadder, ModelSpec, evaluate_coefficients
from mkvlab.scenarios import builtin_scenario
from mkvlab.simulate import (
    BlowUpError,
    NoiseStream,
    ParticleCloud,
    PointMass,
    Samples,
    SimConfig,
    UniformBox,
    _displace,
    _run_clouds,
    coupled_simulate,
    euler_step,
    load_initial_samples,
    simulate,
)


def small_cfg(**kw):
    base = dict(
        n_particles=50,
        horizon=0.5,
        steps_per_unit=20,
        cut_level=4.0,
        seed=3,
    )
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(n_particles=0)
    with pytest.raises(ValueError):
        small_cfg(steps_per_unit=0)
    with pytest.raises(ValueError):
        small_cfg(horizon=0.0)
    with pytest.raises(ValueError):
        small_cfg(cut_level=0.5)
    with pytest.raises(ValueError):
        small_cfg(exit_levels=(3, 1))
    with pytest.raises(ValueError):
        small_cfg(exit_levels=(2, 2))
    with pytest.raises(ValueError):
        small_cfg(exit_levels=(5,), cut_level=4.0)


def test_ladder_levels_are_integers():
    cfg = small_cfg(cut_level=4.0, exit_levels=(2.0,))
    assert cfg.cut_level == 4 and isinstance(cfg.cut_level, int)
    assert cfg.tracked_levels() == (2, 4)
    assert all(isinstance(m, int) for m in cfg.tracked_levels())
    for bad in ({"cut_level": 2.5}, {"exit_levels": (1.5,)}, {"cut_level": math.inf}):
        with pytest.raises(ValueError, match="integer"):
            small_cfg(**bad)
    ladder = DomainLadder.full_space(1)
    with pytest.raises(ValueError, match="integer"):
        ladder.box(2.5)
    with pytest.raises(ValueError, match="integer"):
        ladder.contains(np.array([[2.2]]), 2.5)
    assert ladder.contains(np.array([[2.2]]), 3.0).tolist() == [True]
    assert ladder.contains(np.array([[2.2]]), 2).tolist() == [False]
    # each level's box is built once and cannot be edited through a caller
    lo, _ = ladder.box(3)
    assert ladder.box(3.0)[0] is lo
    with pytest.raises(ValueError):
        lo[0] = 0.0


def test_config_grid_arithmetic():
    cfg = small_cfg(horizon=1.0, steps_per_unit=200)
    assert cfg.dt == 0.005
    assert cfg.total_steps == 200
    cfg2 = small_cfg(exit_levels=(2.0, 3.0))
    assert cfg2.exit_levels == (2, 3)
    assert cfg2.tracked_levels() == (2, 3, 4.0)


def test_checkpoint_steps_snap_to_the_grid():
    cfg = small_cfg(horizon=1.0, steps_per_unit=10, checkpoints=(0.0, 0.55, 1.0))
    assert cfg.checkpoint_steps() == (0, 6, 10)
    # endpoints are always present
    cfg2 = small_cfg(horizon=1.0, steps_per_unit=10, checkpoints=(0.5,))
    assert cfg2.checkpoint_steps() == (0, 5, 10)
    with pytest.raises(ValueError):
        small_cfg(horizon=1.0, checkpoints=(2.0,)).checkpoint_steps()


def test_horizons_off_the_grid_are_rejected():
    # round(h·n) would run these to t = 0.002, 0.002, 0.001 and 0.5
    for horizon in (0.0015, 0.0025, 0.0004, 0.5 + 1e-6):
        with pytest.raises(ValueError, match="off the grid"):
            small_cfg(horizon=horizon, steps_per_unit=1000)
    with pytest.raises(ValueError, match="off the grid"):
        small_cfg(horizon=math.inf)
    # rounding in h·n is not an offset: 0.1·30 = 3.0000000000000004
    assert small_cfg(horizon=0.1, steps_per_unit=30).total_steps == 3
    assert small_cfg(horizon=0.002, steps_per_unit=1000).total_steps == 2


# ---------------------------------------------------------------------------
# initial laws
# ---------------------------------------------------------------------------


def test_point_mass_sampling():
    x = PointMass(0.5).sample(3, 1, NoiseStream(0))
    assert x.shape == (3, 1) and (x == 0.5).all()
    with pytest.raises(ValueError):
        PointMass((1.0, 2.0)).sample(3, 1, NoiseStream(0))


def test_uniform_box_sampling_is_deterministic():
    law = UniformBox(-2.0, 3.0)
    a = law.sample(100, 1, NoiseStream(7))
    b = law.sample(100, 1, NoiseStream(7))
    assert np.array_equal(a, b)
    assert (a > -2.0).all() and (a < 3.0).all()
    assert not np.array_equal(a, law.sample(100, 1, NoiseStream(8)))
    with pytest.raises(ValueError):
        UniformBox(1.0, 0.0)


def test_explicit_samples_are_validated():
    with pytest.raises(ValueError):
        Samples(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        Samples(np.empty((0, 1)))
    law = Samples([[0.1], [0.2]])
    assert law.sample(2, 1, NoiseStream(0)).tolist() == [[0.1], [0.2]]
    with pytest.raises(ValueError):
        law.sample(3, 1, NoiseStream(0))


def test_samples_load_from_disk(tmp_path):
    path = tmp_path / "init.txt"
    path.write_text("0.1\n-0.25\n3.0\n")
    law = load_initial_samples(path)
    assert law.samples.shape == (3, 1)
    assert law.samples[:, 0].tolist() == [0.1, -0.25, 3.0]


# ---------------------------------------------------------------------------
# counter-based noise
# ---------------------------------------------------------------------------


def test_noise_is_a_pure_function_of_its_coordinates():
    a = NoiseStream(42, 3).uniforms(0, 5, 0, 10, 2)
    b = NoiseStream(42, 3).uniforms(0, 5, 0, 10, 2)
    assert np.array_equal(a, b)


def test_noise_blocks_are_position_independent():
    ns = NoiseStream(11)
    whole = ns.uniforms(0, 7, 0, 10, 3)
    parts = np.vstack([ns.uniforms(0, 7, 0, 4, 3), ns.uniforms(0, 7, 4, 6, 3)])
    assert np.array_equal(whole, parts)
    # normals are prefix-stable: a later block equals the tail of a longer draw
    whole = ns.normals(0, 7, 0, 10, 3)
    parts = np.vstack([ns.normals(0, 7, 0, 4, 3), ns.normals(0, 7, 4, 6, 3)])
    assert np.array_equal(whole, parts)
    assert np.array_equal(whole[4:], ns.normals(0, 7, 4, 6, 3))
    assert np.array_equal(whole[:4], ns.normals(0, 7, 0, 4, 3))


def test_normals_are_standard_gaussian():
    # 1e5 draws at a fixed key; bounds: five standard errors for the mean
    # and the variance, and the 1% critical value of the KS statistic
    n = 100_000
    z = NoiseStream(2024).normals(NoiseStream.PURPOSE_STEP, 0, 0, n, 1)[:, 0]
    assert abs(float(np.mean(z))) < 5.0 / math.sqrt(n)
    assert abs(float(np.var(z)) - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert stats.kstest(z, "norm").statistic < 1.63 / math.sqrt(n)


def test_noise_coordinates_separate_draws():
    ns = NoiseStream(5)
    by_purpose = [ns.uniforms(p, 0, 0, 8, 1) for p in (0, 1)]
    assert not np.array_equal(*by_purpose)
    by_step = [ns.uniforms(0, s, 0, 8, 1) for s in (0, 1)]
    assert not np.array_equal(*by_step)
    by_seed = [NoiseStream(s).uniforms(0, 0, 0, 8, 1) for s in (1, 2)]
    assert not np.array_equal(*by_seed)
    by_stream = [NoiseStream(1, st).uniforms(0, 0, 0, 8, 1) for st in (0, 1)]
    assert not np.array_equal(*by_stream)


def test_uniforms_stay_strictly_interior():
    u = NoiseStream(0).uniforms(0, 0, 0, 4096, 1)
    assert (u > 0.0).all() and (u < 1.0).all()


def test_noise_draws_never_depend_on_earlier_calls():
    # a stream reuses one generator, so each call must start from its key
    def fresh():
        return NoiseStream(21, 4)

    used = fresh()
    used.normals(0, 9, 0, 1001, 1)
    assert np.array_equal(used.normals(0, 7, 0, 50, 2), fresh().normals(0, 7, 0, 50, 2))
    used.uniforms(1, 2, 3, 7, 1)
    assert np.array_equal(used.normals(0, 7, 13, 20, 2), fresh().normals(0, 7, 13, 20, 2))
    used.increments(5, 0, 3, 1, 0.1)
    assert np.array_equal(used.uniforms(1, 7, 0, 9, 3), fresh().uniforms(1, 7, 0, 9, 3))
    used.normals(2, 1, 0, 3, 1)
    assert np.array_equal(used.uniforms(1, 7, 5, 9, 3), fresh().uniforms(1, 7, 5, 9, 3))
    # the key is (seed, stream|purpose|step), as on a freshly built Philox
    key = np.array([21, (4 << 56) | (0 << 48) | 7], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key)).standard_normal((50, 2))
    assert np.array_equal(used.normals(0, 7, 0, 50, 2), ref)


def test_brownian_increments_scale_with_the_step():
    ns = NoiseStream(9)
    z = ns.normals(NoiseStream.PURPOSE_STEP, 4, 0, 5, 1)
    dw = ns.increments(4, 0, 5, 1, 0.25)
    assert np.array_equal(dw, 0.5 * z)


noise_keys = dict(
    seed=st.integers(0, (1 << 64) - 1),
    stream=st.integers(0, 255),
    purpose=st.integers(0, 255),
    step=st.integers(0, (1 << 48) - 1),
)


@settings(max_examples=80, deadline=None)
@given(
    **noise_keys,
    n=st.integers(1, 400),
    width=st.integers(1, 4),
    dt=st.floats(1e-6, 10.0),
)
def test_increments_into_a_buffer_equal_the_allocating_draw(
    seed, stream, purpose, step, n, width, dt
):
    ns = NoiseStream(seed, stream)
    want = ns.increments(step, 0, n, width, dt, purpose)
    buf = np.full((n, width), np.nan)
    got = ns.increments(step, 0, n, width, dt, purpose, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    for start, shape in ((0, (n + 1, width)), (1, (n, width))):
        with pytest.raises(ValueError, match="particle 0"):
            ns.increments(step, start, n, width, dt, purpose, out=np.empty(shape))


@settings(max_examples=60, deadline=None)
@given(**noise_keys, n=st.integers(1, 400), width=st.integers(1, 4), data=st.data())
def test_normals_are_prefix_stable(seed, stream, purpose, step, n, width, data):
    ns = NoiseStream(seed, stream)
    whole = ns.normals(purpose, step, 0, n, width)
    k = data.draw(st.integers(0, n), label="k")
    assert ns.normals(purpose, step, 0, k, width).tobytes() == whole[:k].tobytes()
    assert ns.normals(purpose, step, k, n - k, width).tobytes() == whole[k:].tobytes()


@settings(max_examples=60, deadline=None)
@given(**noise_keys, n=st.integers(1, 400), width=st.integers(1, 4), data=st.data())
def test_uniforms_are_random_access_over_any_split(
    seed, stream, purpose, step, n, width, data
):
    ns = NoiseStream(seed, stream)
    whole = ns.uniforms(purpose, step, 0, n, width)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6), label="cuts"))
    edges = [0, *cuts, n]
    # every block is drawn on its own, in reverse order, from its offset
    blocks = [
        ns.uniforms(purpose, step, lo, hi - lo, width)
        for lo, hi in reversed(list(zip(edges, edges[1:])))
    ]
    assert np.vstack(blocks[::-1]).tobytes() == whole.tobytes()


def test_noise_key_ranges_are_enforced():
    with pytest.raises(ValueError):
        NoiseStream(0, 256)
    with pytest.raises(ValueError):
        NoiseStream(0)._raw(256, 0, 0, 1)
    with pytest.raises(ValueError):
        NoiseStream(0)._raw(0, -1, 0, 1)
    with pytest.raises(ValueError):
        NoiseStream(0).normals(256, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        NoiseStream(0).increments(1 << 48, 0, 1, 1, 0.1)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_one_euler_step_arithmetic():
    sc = builtin_scenario("example1-quartic")
    cfg = SimConfig(n_particles=1, horizon=1.0, steps_per_unit=10, cut_level=4.0, seed=0)
    cloud = ParticleCloud.create(np.array([[1.0]]), sc.model, cfg.tracked_levels())
    # drift −x·m̂4 with m̂4 = 1 from the cloud itself, no noise:
    stepped = euler_step(cloud, sc.model, cfg, NoiseStream(0), shared_dw=np.zeros((1, 1)))
    assert stepped.x[0, 0] == 0.9
    assert stepped.step == 1 and stepped.t == 0.1
    # same step with an explicit increment adds σ·Δw = (x/√2)·Δw
    pushed = euler_step(cloud, sc.model, cfg, NoiseStream(0), shared_dw=np.array([[0.2]]))
    assert pushed.x[0, 0] == pytest.approx(0.9 + 0.2 / math.sqrt(2.0), rel=1e-15)


def test_scalar_update_matches_the_general_einsum_path():
    # every sign of zero and a spread of magnitudes, in all combinations
    vals = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -2.5e-3, 7.0, -1e10])
    grid = np.array(np.meshgrid(vals, vals, vals, vals)).reshape(4, -1).T
    x, b, s, dw = (grid[:, j][:, None] for j in range(4))
    dt = 1e-3
    want = x + b * dt + np.einsum("ndk,nk->nd", s[:, :, None], dw)
    assert _displace(x, b, s[:, :, None], dw, dt).tobytes() == want.tobytes()
    # d = 2, d' = 3 goes through the einsum itself
    rng = np.random.default_rng(0)
    x2, b2 = rng.standard_normal((2, 5, 2))
    s2, dw2 = rng.standard_normal((5, 2, 3)), rng.standard_normal((5, 3))
    want2 = x2 + b2 * dt + np.einsum("ndk,nk->nd", s2, dw2)
    assert _displace(x2, b2, s2, dw2, dt).tobytes() == want2.tobytes()
    # both paths again, writing into the loop's result and scratch buffers
    for args, w in (((x, b, s[:, :, None], dw), want), ((x2, b2, s2, dw2), want2)):
        out, kick = np.full(w.shape, np.nan), np.full(w.shape, np.nan)
        got = _displace(*args, dt, out=out, kick=kick)
        assert got is out and got.tobytes() == w.tobytes()


def test_euler_step_leaves_its_input_cloud_alone():
    sc = builtin_scenario("example1-quartic")
    cfg = small_cfg(n_particles=200, exit_levels=(1, 2))
    x0 = UniformBox(-1.5, 1.5).sample(200, 1, NoiseStream(0))
    cloud = ParticleCloud.create(x0, sc.model, cfg.tracked_levels())
    before = {m: rec.copy() for m, rec in cloud.exit_step.items()}
    kick = np.full((200, 1), 0.6)  # pushes particles across the D_1 edge
    first = euler_step(cloud, sc.model, cfg, NoiseStream(0), shared_dw=kick)
    again = euler_step(cloud, sc.model, cfg, NoiseStream(0), shared_dw=kick)
    assert first.exit_fraction(1) > cloud.exit_fraction(1)
    assert cloud.step == 0 and np.array_equal(cloud.x, x0)
    for m, rec in cloud.exit_step.items():
        assert np.array_equal(rec, before[m])
        assert np.array_equal(first.exit_step[m], again.exit_step[m])
    assert np.array_equal(first.x, again.x)


def test_passed_in_functionals_and_coefficients_change_nothing():
    sc = builtin_scenario("example3-cir", alpha=0.1)
    cfg = small_cfg(n_particles=300, cut_level=3, seed=5)
    x0 = UniformBox(0.2, 2.5).sample(300, 1, NoiseStream(1))
    cloud = ParticleCloud.create(x0, sc.model, cfg.tracked_levels())
    noise = NoiseStream(cfg.seed)
    fv = evaluate_functionals(sc.model.functionals, cloud.x)
    coeffs = evaluate_coefficients(sc.model, cloud.t, cloud.x, fv, cfg.cut_level)
    plain = euler_step(cloud, sc.model, cfg, noise)
    for kw in ({"fv": fv}, {"coefficients": coeffs}):
        given = euler_step(cloud, sc.model, cfg, noise, **kw)
        assert given.x.tobytes() == plain.x.tobytes()


def test_particles_outside_the_cut_box_freeze_forever(contraction_model):
    cfg = SimConfig(n_particles=2, horizon=1.0, steps_per_unit=100, cut_level=1.0, seed=0)
    series = simulate(
        contraction_model, None, cfg, Samples([[2.5], [0.5]]), keep_snapshots=True
    )
    final = series.snapshots[-1][1]
    assert final[0, 0] == 2.5  # started outside D_1, never moved
    assert final[1, 0] == pytest.approx(0.5 * (1.0 - 0.01) ** 100, rel=1e-12)
    assert series.meta["p0_out_1"] == 0.5


def test_exit_records_set_once_and_nested(zero_model):
    sc = builtin_scenario("example1-quartic")
    cfg = small_cfg(
        n_particles=400,
        horizon=0.5,
        steps_per_unit=50,
        cut_level=4.0,
        exit_levels=(1, 2),
        seed=1,
    )
    series = simulate(sc.model, None, cfg, UniformBox(-6.0, 6.0), keep_snapshots=True)
    x0 = series.snapshots[0][1][:, 0]
    for m in (1, 2, 4):
        frac0 = float(np.mean(~((x0 >= -m) & (x0 <= m))))
        assert series.meta[f"p0_out_{m}"] == frac0
        col = series.column(f"exit_frac_{m}")
        assert col[0] == frac0
        assert all(a <= b for a, b in zip(col, col[1:]))  # monotone in time
    # smaller boxes are left no later than larger ones
    e1 = series.column("exit_frac_1")
    e2 = series.column("exit_frac_2")
    e4 = series.column("exit_frac_4")
    assert (e1 >= e2).all() and (e2 >= e4).all()


def test_zero_model_is_inert(zero_model):
    cfg = SimConfig(n_particles=20, horizon=1.0, steps_per_unit=10, cut_level=2.0, seed=0)
    series = simulate(zero_model, None, cfg, PointMass(0.0), keep_snapshots=True)
    assert series.columns == ["t", "exit_frac_2"]
    assert all(row[1] == 0.0 for row in series.rows)
    for _, snap in series.snapshots:
        assert (snap == 0.0).all()


def test_blow_up_reports_step_and_time():
    runaway = ModelSpec(
        name="runaway",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: x.copy(),
        diffusion=lambda t, x, fv: np.zeros((x.shape[0], 1, 1)),
        functionals=(),
        ladder=DomainLadder.full_space(1),
        local_bound=lambda k: float(k),
    )
    cfg = SimConfig(
        n_particles=1, horizon=1.0, steps_per_unit=1, cut_level=1.7e308, seed=0
    )
    with pytest.raises(BlowUpError) as ei:
        simulate(runaway, None, cfg, PointMass(1e308))
    assert ei.value.step == 1
    assert ei.value.time == 1.0


# ---------------------------------------------------------------------------
# whole-run invariants
# ---------------------------------------------------------------------------


def test_runs_are_bit_reproducible():
    sc = builtin_scenario("example1-quartic")
    cfg = small_cfg(n_particles=300, seed=17)
    a = simulate(sc.model, sc.lyap, cfg, UniformBox(-1.0, 1.0))
    b = simulate(sc.model, sc.lyap, cfg, UniformBox(-1.0, 1.0))
    assert a.rows == b.rows
    assert a.meta == b.meta


def test_series_columns_track_snapshots():
    sc = builtin_scenario("example1-quartic")
    cfg = small_cfg(n_particles=100)
    series = simulate(sc.model, sc.lyap, cfg, UniformBox(-1.0, 1.0), keep_snapshots=True)
    assert series.columns[:2] == ["t", "m4"]
    assert series.columns[-1] == "v_sup"
    m4 = series.column("m4")
    v_mean = series.column("v_mean")
    v_sup = series.column("v_sup")
    for i, (_, snap) in enumerate(series.snapshots):
        assert m4[i] == pytest.approx(float(np.mean(snap[:, 0] ** 4)), rel=1e-12)
    # v = x⁴ here, so v_mean is m4 and v_sup is its running maximum
    assert v_mean == pytest.approx(m4, rel=1e-12)
    assert v_sup == pytest.approx(np.maximum.accumulate(v_mean), rel=1e-12)


def test_csv_round_trip(tmp_path):
    sc = builtin_scenario("example1-quartic")
    series = simulate(sc.model, sc.lyap, small_cfg(), sc.default_init)
    path = tmp_path / "diag.csv"
    series.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == series.columns
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, np.array([[float(v) for v in row] for row in series.rows]))


# ---------------------------------------------------------------------------
# grid refinement
# ---------------------------------------------------------------------------


def test_deterministic_error_shrinks_with_the_grid(contraction_model):
    # dx = −x dt from x₀ = 1 has x(1) = 1/e; the Euler endpoint is (1−1/n)^n
    errors = []
    for n in (4, 8, 16, 32):
        cfg = SimConfig(
            n_particles=1, horizon=1.0, steps_per_unit=n, cut_level=4.0, seed=0
        )
        series = simulate(contraction_model, None, cfg, PointMass(1.0), keep_snapshots=True)
        endpoint = series.snapshots[-1][1][0, 0]
        assert endpoint == pytest.approx((1.0 - 1.0 / n) ** n, rel=1e-12)
        errors.append(abs(endpoint - math.exp(-1.0)))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[0] / errors[-1] > 4.0  # first order: ~2x per halving


def test_second_moment_matches_the_discrete_recursion():
    # dx = −x dt + dw: E x_k² obeys E_{k+1} = (1−Δt)²E_k + Δt exactly
    sc = builtin_scenario("linear-meanfield", a=-1.0, b=0.0, sigma=1.0)
    cfg = SimConfig(
        n_particles=4000, horizon=1.0, steps_per_unit=50, cut_level=64.0, seed=0
    )
    series = simulate(sc.model, None, cfg, PointMass(1.0), keep_snapshots=True)
    final = series.snapshots[-1][1][:, 0]
    expected = 1.0
    for _ in range(cfg.total_steps):
        expected = (1.0 - cfg.dt) ** 2 * expected + cfg.dt
    sq = final**2
    band = 3.0 * float(np.std(sq, ddof=1)) / math.sqrt(sq.size)
    assert abs(float(np.mean(sq)) - expected) <= band


# ---------------------------------------------------------------------------
# coupled clouds
# ---------------------------------------------------------------------------


def test_coupled_identical_inits_never_separate():
    sc = builtin_scenario("linear-meanfield", a=-1.0, b=0.0, sigma=1.0)
    cfg = SimConfig(
        n_particles=100, horizon=0.5, steps_per_unit=20, cut_level=16.0, seed=2
    )
    _, _, dist = coupled_simulate(
        sc.model, cfg, PointMass(1.0), PointMass(1.0), vbar=lambda z: z**2
    )
    assert all(row[1] == 0.0 for row in dist.rows)


def test_coupled_additive_noise_cancels_pathwise():
    # with shared increments and linear drift the gap contracts by (1−Δt)
    # per step, so E(x¹−x²)² is (1−Δt)^{2k} to rounding
    sc = builtin_scenario("linear-meanfield", a=-1.0, b=0.0, sigma=1.0)
    cfg = SimConfig(
        n_particles=64, horizon=1.0, steps_per_unit=25, cut_level=64.0, seed=4
    )
    _, _, dist = coupled_simulate(
        sc.model, cfg, PointMass(0.0), PointMass(1.0), vbar=lambda z: z**2
    )
    for row in dist.rows:
        t, value = row[0], row[1]
        k = round(t * cfg.steps_per_unit)
        assert value == pytest.approx((1.0 - cfg.dt) ** (2 * k), rel=1e-9)


@pytest.mark.parametrize("name", ["example1-quartic", "linear-meanfield", "example3-cir"])
def test_first_coupled_cloud_is_the_single_cloud_run(name):
    # both drivers run one loop: the first cloud of a pair draws its initial
    # law and every increment exactly as a lone cloud does, and the loop's
    # shared draw is the one euler_step makes for itself
    sc = builtin_scenario(name)
    cfg = small_cfg(n_particles=500)
    first, _, _ = coupled_simulate(
        sc.model, cfg, sc.default_init, PointMass(1.0), vbar=lambda z: z**2
    )
    alone = simulate(sc.model, None, cfg, sc.default_init, keep_snapshots=True)
    assert first.rows == alone.rows
    noise = NoiseStream(cfg.seed)
    x0 = sc.default_init.sample(cfg.n_particles, sc.model.dim, noise)
    cloud = ParticleCloud.create(x0, sc.model, cfg.tracked_levels())
    for _ in range(cfg.total_steps):
        cloud = euler_step(cloud, sc.model, cfg, noise)
    assert np.array_equal(cloud.x, alone.snapshots[-1][1])


def test_no_steps_cloud_outlives_its_step(monkeypatch):
    # the drivers keep no reference to an earlier state, so memory holds one
    # cloud per member however long the run
    engine = sys.modules["mkvlab.simulate"]
    step, seen = engine.euler_step, []

    def watched(cloud, *args, **kwargs):
        seen.append(weakref.ref(cloud))
        assert all(r() is None for r in seen[:-2])
        return step(cloud, *args, **kwargs)

    monkeypatch.setattr(engine, "euler_step", watched)
    sc = builtin_scenario("linear-meanfield")
    simulate(sc.model, sc.lyap, small_cfg(), sc.default_init)
    coupled_simulate(
        sc.model, small_cfg(), PointMass(0.0), PointMass(1.0), vbar=lambda z: z**2
    )
    assert len(seen) == 3 * small_cfg().total_steps


# ---------------------------------------------------------------------------
# the engine's own loop
# ---------------------------------------------------------------------------


def cloud_state(c):
    return (c.step, c.x.tobytes(), {m: r.tobytes() for m, r in c.exit_step.items()})


def loop_states(model, cfg, clouds):
    """What ``_run_clouds`` hands ``observe``: step, positions, exit records.

    A cloud seen at one step must still read the same at the next one.
    """
    states, last = [], []

    def observe(clouds, fvs):
        for c, state in last:
            if c.step + 1 == clouds[0].step:
                assert cloud_state(c) == state
        states.append([cloud_state(c) for c in clouds])
        last[:] = [(c, s) for c, s in zip(clouds, states[-1])]

    fvs = [evaluate_functionals(model.functionals, c.x) for c in clouds]
    _run_clouds(model, cfg, NoiseStream(cfg.seed), clouds, fvs, observe)
    return states


def hand_states(model, cfg, clouds):
    """The same states from public ``euler_step``, allocating every array.

    The first cloud draws its own increments; the others get the same draw.
    """
    noise = NoiseStream(cfg.seed)
    marks = set(cfg.checkpoint_steps())
    states = []
    for i in range(cfg.total_steps):
        if i in marks:
            states.append([cloud_state(c) for c in clouds])
        dw = noise.increments(i, 0, clouds[0].n, model.noise_dim, cfg.dt)
        clouds = [euler_step(clouds[0], model, cfg, noise)] + [
            euler_step(c, model, cfg, noise, shared_dw=dw) for c in clouds[1:]
        ]
    states.append([cloud_state(c) for c in clouds])  # the last step is a mark
    return states


LOOP_CASES = {
    # (init law, cut level, exit levels): wide laws, so that particles start
    # outside the cut box or cross it, and freeze there
    "example1-quartic": (UniformBox(-2.5, 2.5), 2, (1,)),
    "example2-nonlinear": (UniformBox(-2.5, 2.5), 2, (1,)),
    "example3-cir": (UniformBox(0.15, 6.0), 5, (2, 3, 5)),
    "linear-meanfield": (UniformBox(-3.0, 3.0), 2, (1,)),
    "scheutzow-clip": (UniformBox(-3.0, 3.0), 2, (1,)),
}


def assert_loop_equals_hand_loop(model, init, cut, levels):
    # the workspace loop reuses its buffers; that may not change a bit of
    # the positions or of any exit record
    cfg = SimConfig(
        n_particles=400,
        horizon=2.0,
        steps_per_unit=20,
        cut_level=cut,
        exit_levels=levels,
        seed=9,
        checkpoints=(0.5, 0.55, 1.0, 1.05, 1.1, 2.0),
    )

    def clouds():
        noise = NoiseStream(cfg.seed)
        return [
            ParticleCloud.create(
                init.sample(cfg.n_particles, model.dim, noise, purpose),
                model,
                cfg.tracked_levels(),
            )
            for purpose in (NoiseStream.PURPOSE_INIT, NoiseStream.PURPOSE_INIT2)
        ]

    got = loop_states(model, cfg, clouds())
    want = hand_states(model, cfg, clouds())
    assert len(got) == len(cfg.checkpoint_steps())
    assert got == want
    # the case is not trivial: particles froze at the cut during the run,
    # and others never left it
    first_exits = np.frombuffer(got[-1][0][2][cut], dtype=np.int64)
    assert (first_exits > 0).any() and (first_exits < 0).any()


@pytest.mark.parametrize("name", sorted(LOOP_CASES))
def test_engine_loop_equals_a_hand_loop_of_euler_step(name):
    assert_loop_equals_hand_loop(builtin_scenario(name).model, *LOOP_CASES[name])


def test_engine_loop_equals_a_hand_loop_in_two_dimensions():
    # d = 2, d' = 3: the update goes through the einsum, into the workspace
    plane = ModelSpec(
        name="plane",
        dim=2,
        noise_dim=3,
        drift=lambda t, x, fv: 0.3 * x[:, ::-1] - x,
        diffusion=lambda t, x, fv: 0.4 * np.stack([np.sin(x), np.cos(x), x], 2),
        functionals=(),
        ladder=DomainLadder.full_space(2),
        local_bound=lambda k: 2.0 * k,
    )
    box = UniformBox((-2.5, -2.5), (2.5, 2.5))
    assert_loop_equals_hand_loop(plane, box, 2, (1, 2))


def test_engine_loop_blows_up_at_the_hand_loop_step():
    runaway = ModelSpec(
        name="runaway",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: x * 1.0,
        diffusion=lambda t, x, fv: np.zeros((1, 1, 1)),
        functionals=(),
        ladder=DomainLadder.full_space(1),
        local_bound=lambda k: float(k),
    )
    # x doubles every step until the position, not the drift, overflows
    cfg = SimConfig(
        n_particles=3, horizon=40.0, steps_per_unit=1, cut_level=1.7e308, seed=0
    )
    x0 = np.array([[1e300], [1.0], [-1e299]])
    steps = []
    for run in (loop_states, hand_states):
        with pytest.raises(BlowUpError) as ei:
            run(runaway, cfg, [ParticleCloud.create(x0, runaway, cfg.tracked_levels())])
        steps.append(ei.value.step)
    assert steps[0] == steps[1] > 1
