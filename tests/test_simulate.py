"""The localized Euler engine: stepping, freezing, exits, noise, coupling."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mkvlab.measure import evaluate_functionals
from mkvlab.model import (
    DomainLadder,
    MeasureFunctionalTag,
    ModelSpec,
    evaluate_coefficients,
)
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
    # normals are prefix-stable: a shorter draw is the head of a longer one
    whole = ns.normals(0, 7, 10, 3)
    for k in (0, 4, 9):
        assert np.array_equal(whole[:k], ns.normals(0, 7, k, 3))


def test_normals_are_standard_gaussian():
    # 1e5 draws at a fixed key; bounds: five standard errors for the mean
    # and the variance, and the 1% critical value of the KS statistic
    n = 100_000
    z = NoiseStream(2024).normals(NoiseStream.PURPOSE_STEP, 0, n, 1)[:, 0]
    assert abs(float(np.mean(z))) < 5.0 / math.sqrt(n)
    assert abs(float(np.var(z)) - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert stats.kstest(z, "norm").statistic < 1.63 / math.sqrt(n)


def test_noise_coordinates_separate_draws():
    for kind in ("uniforms", "normals"):

        def draw(seed, stream, purpose, step):
            ns = NoiseStream(seed, stream)
            if kind == "uniforms":
                return ns.uniforms(purpose, step, 0, 8, 1)
            return ns.normals(purpose, step, 8, 1)

        by_purpose = [draw(5, 0, p, 0) for p in (0, 1)]
        assert not np.array_equal(*by_purpose), kind
        by_step = [draw(5, 0, 0, s) for s in (0, 1)]
        assert not np.array_equal(*by_step), kind
        by_seed = [draw(s, 0, 0, 0) for s in (1, 2)]
        assert not np.array_equal(*by_seed), kind
        by_stream = [draw(1, st, 0, 0) for st in (0, 1)]
        assert not np.array_equal(*by_stream), kind


def test_uniforms_stay_strictly_interior():
    u = NoiseStream(0).uniforms(0, 0, 0, 4096, 1)
    assert (u > 0.0).all() and (u < 1.0).all()


def mix64(z):
    """splitmix64's finalizer, written out independently of the engine."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return z ^ (z >> 31)


class SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands numpy's own SFC64 seeding three given words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.words, dtype=np.uint64)


def sfc64_at_key(seed, word):
    """The generator the key (seed, word) seeds: words a = mix64(seed),
    b = mix64(word ^ φ), c = mix64(a ^ b), then numpy's SFC64 seeding
    (counter 1, 12 outputs discarded)."""
    a, b = mix64(seed), mix64(word ^ 0x9E3779B97F4A7C15)
    return np.random.Generator(np.random.SFC64(SeedWords([a, b, mix64(a ^ b)])))


def test_noise_draws_never_depend_on_earlier_calls():
    # a stream reuses one generator, so each call must start from its key
    def fresh():
        return NoiseStream(21, 4)

    used = fresh()
    used.normals(0, 9, 1001, 1)
    assert np.array_equal(used.normals(0, 7, 50, 2), fresh().normals(0, 7, 50, 2))
    used.uniforms(1, 2, 3, 7, 1)
    assert np.array_equal(used.normals(0, 7, 33, 2), fresh().normals(0, 7, 33, 2))
    used.increments(5, 3, 1, 0.1)
    assert np.array_equal(used.uniforms(1, 7, 0, 9, 3), fresh().uniforms(1, 7, 0, 9, 3))
    used.normals(2, 1, 3, 1)
    assert np.array_equal(used.uniforms(1, 7, 5, 9, 3), fresh().uniforms(1, 7, 5, 9, 3))
    # normals draw on SFC64 seeded from the key (seed, stream|purpose|step);
    # the reference mix64 is splitmix64's, whose first output from seed 0 is
    # mix64(φ)
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    ref = sfc64_at_key(21, (4 << 56) | (0 << 48) | 7).standard_normal((50, 2))
    assert used.normals(0, 7, 50, 2).tobytes() == ref.tobytes()


def test_brownian_increments_scale_with_the_step():
    ns = NoiseStream(9)
    z = ns.normals(NoiseStream.PURPOSE_STEP, 4, 5, 1)
    dw = ns.increments(4, 5, 1, 0.25)
    assert np.array_equal(dw, 0.5 * z)


noise_keys = dict(
    seed=st.integers(0, (1 << 64) - 1),
    stream=st.integers(0, 255),
    purpose=st.integers(0, 255),
    step=st.integers(0, (1 << 48) - 1),
)


def key_state(seed, stream, purpose, step):
    bits = NoiseStream(seed, stream)._sfc64_at(purpose, step).bit_generator
    return bits.state["state"]["state"].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    key=st.fixed_dictionaries(noise_keys),
    other=st.fixed_dictionaries(noise_keys),
    coordinate=st.sampled_from(sorted(noise_keys)),
)
def test_distinct_keys_seed_distinct_sfc64_states(key, other, coordinate):
    # a key differing in one coordinate, then in all of them
    for near in ({**key, coordinate: other[coordinate]}, other):
        if near != key:
            assert key_state(**near) != key_state(**key)
    seed, stream, purpose, step = (key[k] for k in ("seed", "stream", "purpose", "step"))
    word = (stream << 56) | (purpose << 48) | step
    want = sfc64_at_key(seed, word).bit_generator.state["state"]["state"]
    assert key_state(**key) == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(**noise_keys, start=st.integers(0, 20), n=st.integers(1, 50), width=st.integers(1, 3))
def test_uniforms_are_philox_raw_words_at_the_key(
    seed, stream, purpose, step, start, n, width
):
    key = np.array([seed, (stream << 56) | (purpose << 48) | step], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw((start + n) * width)[start * width :]
    want = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    got = NoiseStream(seed, stream).uniforms(purpose, step, start, n, width)
    assert got.tobytes() == want.reshape(n, width).tobytes()


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
    want = ns.increments(step, n, width, dt, purpose)
    buf = np.full((n, width), np.nan)
    got = ns.increments(step, n, width, dt, purpose, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    for shape in ((n + 1, width), (n, width + 1)):
        with pytest.raises(ValueError, match="shape"):
            ns.increments(step, n, width, dt, purpose, out=np.empty(shape))


@settings(max_examples=60, deadline=None)
@given(**noise_keys, n=st.integers(1, 400), width=st.integers(1, 4), data=st.data())
def test_normals_are_prefix_stable(seed, stream, purpose, step, n, width, data):
    ns = NoiseStream(seed, stream)
    whole = ns.normals(purpose, step, n, width)
    k = data.draw(st.integers(0, n), label="k")
    assert ns.normals(purpose, step, k, width).tobytes() == whole[:k].tobytes()


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
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            NoiseStream(seed)
    with pytest.raises(ValueError):
        NoiseStream(0, 256)
    with pytest.raises(ValueError):
        NoiseStream(0)._raw(256, 0, 0, 1)
    with pytest.raises(ValueError):
        NoiseStream(0)._raw(0, -1, 0, 1)
    with pytest.raises(ValueError):
        NoiseStream(0).normals(256, 0, 1, 1)
    with pytest.raises(ValueError):
        NoiseStream(0).increments(1 << 48, 1, 1, 0.1)


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
    # d = 2, d' = 3 goes through the einsum itself
    rng = np.random.default_rng(0)
    x2, b2 = rng.standard_normal((2, 5, 2))
    s2, dw2 = rng.standard_normal((5, 2, 3)), rng.standard_normal((5, 3))
    want2 = x2 + b2 * dt + np.einsum("ndk,nk->nd", s2, dw2)
    # the update moves its positions in place, through a scratch buffer
    for args, w in (((x, b, s[:, :, None], dw), want), ((x2, b2, s2, dw2), want2)):
        moved, kick = args[0].copy(), np.full(w.shape, np.nan)
        _displace(moved, *args[1:], dt, kick)
        assert moved.tobytes() == w.tobytes()


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
    # the result owns its arrays: nothing of it is the input's memory
    assert not np.shares_memory(first.x, cloud.x)
    for m, rec in cloud.exit_step.items():
        assert not np.shares_memory(first.exit_step[m], rec)


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
    # a run's step-0 block is its only particle state: every step of the run
    # advances that one object in place and returns it; a coupled pair steps
    # as one block
    engine = sys.modules["mkvlab.simulate"]
    step, seen = engine.euler_step, []

    def watched(cloud, *args, **kwargs):
        seen.append(cloud)
        stepped = step(cloud, *args, **kwargs)
        assert stepped is cloud
        return stepped

    monkeypatch.setattr(engine, "euler_step", watched)
    sc = builtin_scenario("linear-meanfield")
    simulate(sc.model, sc.lyap, small_cfg(), sc.default_init)
    coupled_simulate(
        sc.model, small_cfg(), PointMass(0.0), PointMass(1.0), vbar=lambda z: z**2
    )
    steps = small_cfg().total_steps
    assert len(seen) == 2 * steps
    for run in (seen[:steps], seen[steps:]):
        assert all(cloud is run[0] for cloud in run)
    assert seen[0].n == small_cfg().n_particles
    assert seen[steps].n == 2 * small_cfg().n_particles


# ---------------------------------------------------------------------------
# the engine's own loop
# ---------------------------------------------------------------------------


def cloud_state(c):
    return (c.step, c.x.tobytes(), {m: r.tobytes() for m, r in c.exit_step.items()})


# step-noise purposes: one that every cloud shares, or one per cloud of a pair
SHARED = (NoiseStream.PURPOSE_STEP,)
INDEPENDENT = (NoiseStream.PURPOSE_STEP, NoiseStream.PURPOSE_STEP2)


def loop_states(model, cfg, clouds, purposes=SHARED):
    """What ``_run_clouds`` hands ``observe``: step, positions, exit records."""
    states = []

    def observe(clouds, fvs):
        states.append([cloud_state(c) for c in clouds])

    block = ParticleCloud.create(
        np.concatenate([c.x for c in clouds]), model, cfg.tracked_levels()
    )
    fvs = [evaluate_functionals(model.functionals, c.x) for c in clouds]
    _run_clouds(
        model, cfg, NoiseStream(cfg.seed), block, fvs, observe, purposes=purposes
    )
    return states


def hand_states(model, cfg, clouds, purposes=SHARED):
    """The same states from public ``euler_step``, allocating every array.

    The first cloud draws its own increments on purpose 0. The others get
    that draw, or with one purpose per cloud, the draw on their own purpose.
    """
    noise = NoiseStream(cfg.seed)
    marks = set(cfg.checkpoint_steps())
    own = purposes if len(purposes) > 1 else purposes * len(clouds)
    states = []
    for i in range(cfg.total_steps):
        if i in marks:
            states.append([cloud_state(c) for c in clouds])
        dws = [
            noise.increments(i, clouds[0].n, model.noise_dim, cfg.dt, p)
            for p in own[1:]
        ]
        clouds = [euler_step(clouds[0], model, cfg, noise)] + [
            euler_step(c, model, cfg, noise, shared_dw=dw)
            for c, dw in zip(clouds[1:], dws)
        ]
    states.append([cloud_state(c) for c in clouds])  # the last step is a mark
    return states


def rows(*groups):
    """Initial positions: ``count`` rows at ``point`` for each (count, point)."""
    return np.vstack([np.tile(np.atleast_1d(p), (n, 1)) for n, p in groups]).astype(float)


# The guard of assert_loop_equals_hand_loop asks for a particle that froze at
# the cut during the run and one that never left it. Each case's initial rows
# are fixed, so no noise stream changes them, and they are laid out so that
# the guard fails with probability at most 1e-6 whatever stream is drawn
# (i.i.d. standard normal increments; Δt = 1/20, 40 steps), split in halves:
#
# * No freeze at step 1: at most 5e-7. The step-0 coefficients are fixed and
#   the rows' first increments independent, so this has probability
#   Π(1 − p_i) over the rows inside D_cut; ``step_one_miss`` computes it from
#   the model and the test asserts the bound. The rows on the box's edge
#   carry it: 50 rows of example1 (p = 0.254 at m₄ = 2.09), 80 of
#   example2 and linear-meanfield (0.186), 100 of example3-cir (0.144), 120
#   of scheutzow-clip (0.132) and 50 of the plane (0.309).
# * Every "stayer" leaves: at most 5e-7.
#   - example1 sits stayers at x = 0, where b = σ = 0 whatever the law:
#     they never move.
#   - The others use Doob's inequality on Y = V(x) + C·(40 − n): a
#     nonnegative supermartingale while the particle is inside D_cut when
#     E[V(x')] ≤ V(x) + C there, and constant once it froze. Leaving makes
#     V(x_40) > V*, so P(leave) ≤ Y₀/V*. The stayers' next increments are
#     independent given the past, so the product of their Y is a
#     supermartingale too, and P(all S leave) ≤ (Y₀/V*)^S.
#   - example3-cir: 40 rows frozen at 0.1 < 1/5 keep ES₀.₁ ≤ 0.1 < θ, so
#     b = (1.25/x − x)/2 for good; x ↦ x + bΔt fixes c = √1.25 and is
#     0.975-Lipschitz on [1/5, 5]. V = (x − c)², C = σ²Δt = 0.0125,
#     V* = (c − 1/5)² = 0.843, Y₀ = 0.500: 258 stayers, 0.593^258.
#   - linear-meanfield: the 310 frozen rows sum to 0. If all of the 3600
#     increments of the 90 live rows have |z| ≤ 7 (all but 9.2e-9), then
#     while |mean| ≤ 1 a landing point is within 2.91 of 0, so the next
#     |mean| ≤ 90·2.91/400 = 0.66: by induction |mean| ≤ 1 throughout.
#     With V = x² and |mean| ≤ 1, C = 0.0189, Y₀ = 0.756, V* = 4: 10
#     stayers, 0.189^10 = 5.8e-8 (stopping the product where |mean| > 1).
#   - example2-nonlinear (α = −0.5, σ = 0.5): u = x − α·mean. The 710
#     frozen rows sum to 0. If all 3600 increments of the 90 live rows have
#     |z| ≤ 7 (all but 9.2e-9), then while |mean| ≤ 1 a row in D_cut has
#     |u| ≤ 2.5, where u − u³Δt is increasing, so it lands within
#     1.72 + 0.5 + 4.89 = 7.11 of 0, and the next |mean| ≤ 90·7.11/800 =
#     0.80: by induction |mean| ≤ 1 throughout. There E[x'²] − x² =
#     Δt(−2xu³ + u⁶Δt + σ²u⁴) ≤ Δt(−1.4375u⁴ + |u|³) ≤ C = 1.78e-3, so with
#     V = x², Y₀ = 0.071 and V* = 4: 10 stayers, 0.0178^10 (stopping the
#     product where |mean| > 1). ``example2_stayers_leave`` computes this
#     from the model's α and σ and the test asserts it.
#   - scheutzow-clip: the clipped mean lies in [−1, 1]; V = x², C = 0.0336,
#     Y₀ = 1.35, V* = 4: 16 stayers, 0.336^16 = 2.7e-8.
#   - the plane has no functionals; x ↦ x + bΔt is 0.965-Lipschitz and
#     E|σ dw|² = 0.008(2 + |x|²), so V = |x|², C = 0.016, Y₀ = 0.64, V* = 4:
#     346 stayers, 0.16^346.
LOOP_CASES = {
    # initial rows, cut level, exit levels
    "example1-quartic": (
        rows((1, -2.0625), (25, -2.0), (348, 0.0), (25, 2.0), (1, 2.0625)),
        2,
        (1,),
    ),
    "example2-nonlinear": (
        rows((355, -2.5), (40, -2.0), (10, 0.0), (40, 2.0), (355, 2.5)),
        2,
        (1,),
    ),
    "example3-cir": (
        rows((40, 0.1), (258, 1.125), (100, 5.0), (2, 6.0)),
        5,
        (2, 3, 5),
    ),
    "linear-meanfield": (
        rows((155, -3.0), (40, -2.0), (10, 0.0), (40, 2.0), (155, 3.0)),
        2,
        (1,),
    ),
    "scheutzow-clip": (
        rows((132, -3.0), (60, -2.0), (16, 0.0), (60, 2.0), (132, 3.0)),
        2,
        (1,),
    ),
}


def step_one_miss(model, x0, cut, dt):
    """P(no row of ``x0`` leaves D_cut at step 1) under Gaussian increments.

    Each row inside the box leaves through coordinate a with probability
    P(x_a + b_aΔt + √Δt·|σ_a|·z ∉ [lo_a, hi_a]); the largest over a is a
    lower bound on the row's chance to leave, and rows are independent.
    """
    fv = evaluate_functionals(model.functionals, x0)
    b, s = evaluate_coefficients(model, 0.0, x0, fv, cut)
    lo, hi = model.ladder.box(cut)
    mean = x0 + b * dt
    sd = np.sqrt(dt * (s**2).sum(axis=2))
    with np.errstate(divide="ignore"):
        p = stats.norm.sf((hi - mean) / sd) + stats.norm.cdf((lo - mean) / sd)
    inside = model.ladder.contains(x0, cut)
    return float(np.prod(1.0 - p.max(axis=1)[inside]))


def example2_stayers_leave(model, x0, cut, dt, steps, mean_max=1.0, z_max=7.0):
    """Bound on P(every row of ``x0`` at 0 leaves D_cut) for example2.

    Outside the event that some increment of a row starting in D_cut has
    |z| > ``z_max``, |mean| ≤ ``mean_max`` at every step (by induction on
    the farthest landing point), and there each stayer's x² + C·(steps − n)
    is a supermartingale; Doob's inequality bounds its chance to reach
    cut².
    """
    alpha, sigma = model.params["alpha"], model.params["sigma"]
    x = x0[:, 0]
    inside = np.abs(x) <= cut
    live, stay = int(inside.sum()), int((x == 0).sum())
    assert x[~inside].sum() == 0  # the frozen rows do not move the mean
    u_max = cut + abs(alpha) * mean_max
    assert 3 * u_max**2 * dt <= 1  # u − u³Δt increases on [0, u_max]
    reach = (
        u_max - u_max**3 * dt + abs(alpha) * mean_max
        + sigma * u_max**2 * math.sqrt(dt) * z_max
    )
    assert live * max(reach, cut) / len(x) <= mean_max
    # x = u + α·mean: E[x'²] − x² ≤ Δt(−a·u⁴ + c·|u|³) for |u| ≤ u_max,
    # whose supremum over u is 27c⁴/(256a³)
    a = 2 - sigma**2 - u_max**2 * dt
    c = 2 * abs(alpha) * mean_max
    assert a > 0
    drift = dt * 27 * c**4 / (256 * a**3)
    tail = live * steps * 2 * stats.norm.sf(z_max)
    return (steps * drift / cut**2) ** stay + tail


def assert_loop_equals_hand_loop(model, x0, cut, levels):
    # the workspace loop reuses its buffers; that may not change a bit of
    # the positions or of any exit record
    cfg = SimConfig(
        n_particles=len(x0),
        horizon=2.0,
        steps_per_unit=20,
        cut_level=cut,
        exit_levels=levels,
        seed=9,
        checkpoints=(0.5, 0.55, 1.0, 1.05, 1.1, 2.0),
    )
    assert cfg.total_steps == 40
    assert step_one_miss(model, x0, cut, cfg.dt) <= 5e-7

    def clouds(r):
        # cloud j holds the rows of x0 rolled by 37·j, so the clouds of a
        # block differ while each meets the guard's design
        return [
            ParticleCloud.create(np.roll(x0, 37 * j, axis=0), model, cfg.tracked_levels())
            for j in range(r)
        ]

    # a pair, three clouds, so the block is not checked with two only, and
    # a pair on independent noise
    for r, purposes in ((2, SHARED), (3, SHARED), (2, INDEPENDENT)):
        got = loop_states(model, cfg, clouds(r), purposes)
        want = hand_states(model, cfg, clouds(r), purposes)
        assert len(got) == len(cfg.checkpoint_steps())
        assert len(got[0]) == r
        assert got == want
        # the case is not trivial: particles froze at the cut during the
        # run, and others never left it
        first_exits = np.frombuffer(got[-1][0][2][cut], dtype=np.int64)
        assert (first_exits > 0).any() and (first_exits < 0).any()


@pytest.mark.parametrize("name", sorted(LOOP_CASES))
def test_engine_loop_equals_a_hand_loop_of_euler_step(name):
    x0, cut, levels = LOOP_CASES[name]
    model = builtin_scenario(name).model
    if name == "example2-nonlinear":
        assert example2_stayers_leave(model, x0, cut, dt=1 / 20, steps=40) <= 5e-7
    assert_loop_equals_hand_loop(model, x0, cut, levels)


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
    x0 = rows(
        (2, (-2.5, -2.5)), (25, (-2.0, 0.0)), (346, (0.0, 0.0)),
        (25, (2.0, 0.0)), (2, (2.5, 2.5)),
    )
    assert_loop_equals_hand_loop(plane, x0, 2, (1, 2))


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
        cloud = ParticleCloud.create(x0, runaway, cfg.tracked_levels())
        # steps advance a cloud in place, so it owns a copy of its x0
        assert not np.shares_memory(cloud.x, x0)
        with pytest.raises(BlowUpError) as ei:
            run(runaway, cfg, [cloud])
        steps.append(ei.value.step)
        assert x0.tobytes() == np.array([[1e300], [1.0], [-1e299]]).tobytes()
    assert steps[0] == steps[1] > 1


def loop_and_hand_faults(model, cfg, x0s):
    """The exception the loop raises for these clouds, and the one the
    per-cloud hand loop raises, as (type, step, message) each: one such
    pair with the clouds sharing their noise, one on independent noise."""
    faults = []
    for purposes in (SHARED, INDEPENDENT):
        pair = []
        for run in (loop_states, hand_states):
            levels = cfg.tracked_levels()
            clouds = [ParticleCloud.create(x0, model, levels) for x0 in x0s]
            with pytest.raises((BlowUpError, FloatingPointError)) as ei:
                run(model, cfg, clouds, purposes)
            error = ei.value
            pair.append((type(error), getattr(error, "step", None), str(error)))
        faults.append(pair)
    return faults


def test_second_cloud_blow_up_is_the_per_cloud_loop_error():
    doubling = ModelSpec(
        name="doubling",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: x * 1.0,
        diffusion=lambda t, x, fv: np.zeros((1, 1, 1)),
        functionals=(),
        ladder=DomainLadder.full_space(1),
        local_bound=lambda k: float(k),
    )
    cfg = SimConfig(
        n_particles=3, horizon=40.0, steps_per_unit=1, cut_level=1.7e308, seed=0
    )
    calm = np.array([[1.0], [0.0], [-1.0]])
    wild = np.array([[1.0], [1e300], [-1.0]])
    for got, want in loop_and_hand_faults(doubling, cfg, [calm, wild]):
        assert got == want
        # the index within the second cloud, not the block row 4
        assert got[0] is BlowUpError and got[1] > 1 and "particle 1 " in got[2]


def test_second_cloud_coefficient_fault_is_the_per_cloud_loop_error():
    # finite drift below x = 5, infinite above it, inside the cut box D_8
    cliff = ModelSpec(
        name="cliff",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: np.where(x > 5.0, np.inf, 1.0),
        diffusion=lambda t, x, fv: np.zeros((1, 1, 1)),
        functionals=(MeasureFunctionalTag("mean"),),
        ladder=DomainLadder.full_space(1),
        local_bound=lambda k: 1.0,
    )
    cfg = SimConfig(
        n_particles=3, horizon=4.0, steps_per_unit=4, cut_level=8, seed=0
    )
    low = np.array([[-3.0], [-2.0], [-1.0]])
    high = np.array([[2.0], [3.0], [4.0]])
    for got, want in loop_and_hand_faults(cliff, cfg, [low, high]):
        assert got == want
        # the third particle of the second cloud passes 5 at its fifth step
        assert got[0] is FloatingPointError and "x=[5.25] (t=1.25)" in got[2]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_point_mass_is_rejected_at_step_zero(bad):
    sc = builtin_scenario("linear-meanfield")
    with pytest.raises(ValueError, match="finite"):
        simulate(sc.model, None, small_cfg(), PointMass(bad))
    with pytest.raises(ValueError, match="finite"):
        coupled_simulate(
            sc.model, small_cfg(), PointMass(0.0), PointMass(bad), vbar=lambda z: z**2
        )
