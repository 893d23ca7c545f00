"""Model declarations: ladders, functional tags, coefficient evaluation."""

import math

import numpy as np
import pytest

from mkvlab.measure import evaluate_functionals
from mkvlab.model import DomainLadder, MeasureFunctionalTag, ModelSpec, evaluate_coefficients
from mkvlab.scenarios import builtin_scenario, scenario_names


# ---------------------------------------------------------------------------
# domain ladders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ladder", [
    DomainLadder.full_space(1),
    DomainLadder.full_space(3),
    DomainLadder.positive_axis(),
])
def test_ladder_nesting_over_64_levels(ladder):
    for k in range(1, 64):
        lo_k, hi_k = ladder.rule(k)
        lo_next, hi_next = ladder.rule(k + 1)
        assert np.all(lo_next <= lo_k) and np.all(hi_k <= hi_next)


def test_ladder_boxes_exhaust_the_domain():
    full = DomainLadder.full_space(1)
    pos = DomainLadder.positive_axis()
    lo64, hi64 = full.rule(64)
    assert lo64[0] == -64 and hi64[0] == 64
    lo, hi = pos.rule(10 ** 9)
    assert lo[0] == pytest.approx(0.0, abs=1e-8) and hi[0] == 10 ** 9
    # closure(D_k) stays inside D
    assert pos.contains(np.array([[1e-9 + 1.0]]), None).all()
    assert not pos.contains(np.array([[0.0]]), None).any()


def test_contains_distinguishes_cut_boxes_from_domain():
    ladder = DomainLadder.full_space(1)
    x = np.array([[0.5], [1.5], [-3.0]])
    inside_1 = ladder.contains(x, 1)
    assert inside_1.tolist() == [True, False, False]
    assert ladder.contains(x).all()  # D = ℝ


# ---------------------------------------------------------------------------
# functional tags
# ---------------------------------------------------------------------------


def test_tag_validation():
    with pytest.raises(ValueError):
        MeasureFunctionalTag("raw-moment", p=0.5)
    with pytest.raises(ValueError):
        MeasureFunctionalTag("quantile", alpha=0.0)
    with pytest.raises(ValueError):
        MeasureFunctionalTag("expected-shortfall", alpha=1.5)
    with pytest.raises(ValueError):
        MeasureFunctionalTag("clipped-mean", lo=1.0, hi=-1.0)
    with pytest.raises(ValueError):
        MeasureFunctionalTag("median")


def test_tag_keys_are_stable_column_names():
    assert MeasureFunctionalTag("raw-moment", p=4).key == "m4"
    assert MeasureFunctionalTag("mean").key == "mean"
    assert MeasureFunctionalTag("linear-combination", alpha=-0.5).key == "mean"
    assert MeasureFunctionalTag("quantile", alpha=0.5).key == "q05"
    assert MeasureFunctionalTag("expected-shortfall", alpha=0.1).key == "es01"
    assert MeasureFunctionalTag("clipped-mean").key == "cmean"


def test_model_rejects_duplicate_functional_keys():
    tags = (MeasureFunctionalTag("mean"), MeasureFunctionalTag("linear-combination", alpha=0.3))
    with pytest.raises(ValueError, match="duplicate"):
        ModelSpec(
            name="dup",
            dim=1,
            noise_dim=1,
            drift=lambda t, x, fv: x,
            diffusion=lambda t, x, fv: x[:, :, None],
            functionals=tags,
            ladder=DomainLadder.full_space(1),
            local_bound=lambda k: 1.0,
        )


# ---------------------------------------------------------------------------
# coefficient evaluation
# ---------------------------------------------------------------------------


def test_quartic_scenario_coefficients_at_unit_point():
    sc = builtin_scenario("example1-quartic")
    b, s = evaluate_coefficients(sc.model, 0.0, np.array([[1.0]]), {"m4": 1.0})
    assert b[0, 0] == pytest.approx(-1.0, abs=0.0)
    assert s[0, 0, 0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_cut_zeroes_coefficients_outside_level_box():
    sc = builtin_scenario("example3-cir")
    k = 7
    x = np.array([[float(k + 1)]])
    fv = {key: 1.0 for key in sc.model.functional_keys()}
    b, s = evaluate_coefficients(sc.model, 0.0, x, fv, cut_level=k)
    assert b[0, 0] == 0.0 and s[0, 0, 0] == 0.0
    # the same point is live without the cut
    b2, _ = evaluate_coefficients(sc.model, 0.0, x, fv)
    assert b2[0, 0] != 0.0


def test_points_outside_domain_get_zero_regardless_of_cut():
    sc = builtin_scenario("example3-cir")
    x = np.array([[-0.5]])  # outside (0, ∞)
    fv = {key: 1.0 for key in sc.model.functional_keys()}
    b, s = evaluate_coefficients(sc.model, 0.0, x, fv)
    assert b[0, 0] == 0.0 and s[0, 0, 0] == 0.0


def test_cut_agrees_with_uncut_inside_the_box():
    sc = builtin_scenario("example1-quartic")
    rng = np.random.Generator(np.random.Philox(5))
    x = rng.uniform(-3.0, 3.0, size=(64, 1))
    fv = {"m4": 0.7}
    b_free, s_free = evaluate_coefficients(sc.model, 0.0, x, fv)
    b_cut, s_cut = evaluate_coefficients(sc.model, 0.0, x, fv, cut_level=3)
    inside = sc.model.ladder.contains(x, 3)
    assert np.array_equal(b_cut[inside], b_free[inside])
    assert np.array_equal(s_cut[inside], s_free[inside])
    assert np.all(b_cut[~inside] == 0.0) and np.all(s_cut[~inside] == 0.0)


def test_coefficient_buffers_change_nothing():
    sc = builtin_scenario("example3-cir")
    x = np.linspace(-0.5, 6.0, 41)[:, None]  # outside D, outside D_5, inside
    fv = {key: 1.2 for key in sc.model.functional_keys()}
    want = evaluate_coefficients(sc.model, 0.0, x, fv, cut_level=5)
    out = (np.full((41, 1), np.nan), np.full((41, 1, 1), np.nan))
    got = evaluate_coefficients(sc.model, 0.0, x, fv, 5, out=out)
    assert got[0] is out[0] and got[1] is out[1]
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    # a short constant diffusion comes back as one σ per particle
    assert (want[1][sc.model.ladder.contains(x, 5)] == 0.5).all()


def test_non_finite_coefficients_raise_only_inside_the_cut_domain():
    model = ModelSpec(
        name="pole",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: 1.0 / (x - 2.0),
        diffusion=lambda t, x, fv: np.ones((1, 1, 1)),
        functionals=(),
        ladder=DomainLadder.full_space(1),
        local_bound=lambda k: float(k),
    )
    x = np.array([[0.0], [2.0], [1.0]])
    with pytest.raises(FloatingPointError, match=r"x=\[2\.\]"):
        evaluate_coefficients(model, 0.0, x, {}, cut_level=3)
    # outside D_1 the pole is cut away and its row is zero
    b, s = evaluate_coefficients(model, 0.0, x, {}, cut_level=1)
    assert b.tolist() == [[-0.5], [0.0], [-1.0]]
    assert s[:, 0, 0].tolist() == [1.0, 0.0, 1.0]


def test_missing_functional_value_is_an_error():
    sc = builtin_scenario("example1-quartic")
    with pytest.raises(ValueError, match="missing functional"):
        evaluate_coefficients(sc.model, 0.0, np.array([[1.0]]), {})


@pytest.mark.parametrize("name", scenario_names())
def test_local_bound_controls_coefficients_on_cloud_probes(name):
    # |b| + |σ| ≤ c_k (1 + Σ|fv|) for clouds supported inside D_k.
    sc = builtin_scenario(name)
    rng = np.random.Generator(np.random.Philox(11))
    for k in (2, 5):
        lo, hi = sc.model.ladder.rule(k)
        for _ in range(20):
            cloud = rng.uniform(lo + 1e-9, hi, size=(50, sc.model.dim))
            fv = evaluate_functionals(sc.model.functionals, cloud)
            b, s = evaluate_coefficients(sc.model, 0.0, cloud, fv, cut_level=k)
            lhs = np.abs(b).sum(axis=1) + np.abs(s).sum(axis=(1, 2))
            rhs = sc.model.local_bound(k) * (1.0 + sum(abs(v) for v in fv.values()))
            assert lhs.max() <= rhs * (1.0 + 1e-12)


def test_scenario_names_are_sorted_and_complete():
    names = scenario_names()
    assert list(names) == sorted(names)
    assert set(names) == {
        "example1-quartic",
        "example2-nonlinear",
        "example3-cir",
        "linear-meanfield",
        "scheutzow-clip",
    }
