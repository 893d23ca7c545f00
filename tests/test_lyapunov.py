"""Rates, the measure-dependent generator, envelopes, and exit bounds."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import quartic_lyap
from mkvlab.cli import main
from mkvlab.lyapunov import (
    Rate,
    check_floor,
    check_local_bound,
    check_lyapunov_condition,
    envelope_M,
    envelope_Mplus,
    exit_probability_bound,
    generator_values,
)
from oracles import integrated_generator
from mkvlab.parallel import tree_mean
from mkvlab.scenarios import builtin_scenario


def probe_clouds(count, size=40, scale=1.5, seed=2):
    rng = np.random.Generator(np.random.Philox(seed))
    return [scale * rng.normal(size=(size, 1)) for _ in range(count)]


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_rate_integrals_are_exact_for_polynomial_cores():
    assert Rate.constant(-1.0).integral(0.0, 2.0) == -2.0


def test_rectified_rates_clip_at_zero():
    r = Rate.of(lambda s: s - 1.0).pos()  # max(s − 1, 0)
    assert r(0.5) == 0.0 and r(3.0) == 2.0
    assert r.integral(0.0, 2.0) == pytest.approx(0.5, abs=0.0)
    assert Rate.constant(-3.0).pos().integral(0.0, 5.0) == 0.0
    # vectorized evaluation agrees with scalar calls
    ts = np.linspace(0.0, 3.0, 13)
    assert np.array_equal(r.values(ts), np.array([r(t) for t in ts]))


def test_callable_rates_integrate_by_quadrature():
    r = Rate.of(math.sin)
    assert r.integral(0.0, math.pi) == pytest.approx(2.0, abs=1e-6)
    assert r.pos().integral(0.0, 2.0 * math.pi) == pytest.approx(2.0, abs=1e-6)


def test_rate_coercion_and_validation():
    r = Rate.constant(3.0)
    assert Rate.of(r) is r
    assert Rate.of(3.0)(17.2) == 3.0
    assert Rate.of(lambda t: t * t)(3.0) == 9.0
    with pytest.raises(ValueError):
        Rate("weird")
    with pytest.raises(ValueError):
        Rate("callable")


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


def test_generator_on_the_quartic_scenario():
    # at x = 1 with μ = δ₁: b·v' = −4 and ½σ²v'' = ½·½·12 = 3
    sc = builtin_scenario("example1-quartic")
    mu = np.full((5, 1), 1.0)
    got = generator_values(sc.model, sc.lyap, 0.0, 1.0, mu)[0]
    assert got == pytest.approx(-1.0, rel=1e-14)


def test_generator_of_a_constant_is_zero(zero_model, quartic_lyap_zero_rates):
    flat = dataclasses.replace(
        quartic_lyap_zero_rates,
        v=lambda t, x, fv: np.ones(x.shape[0]),
        dv_dt=lambda t, x, fv: np.zeros(x.shape[0]),
        dv_dx=lambda t, x, fv: np.zeros_like(x),
        d2v_dx2=lambda t, x, fv: np.zeros((x.shape[0], 1, 1)),
    )
    sc = builtin_scenario("example1-quartic")
    cloud = np.linspace(-2.0, 2.0, 9)[:, None]
    vals = generator_values(sc.model, flat, 0.0, cloud, cloud)
    assert (vals == 0.0).all()


def test_generator_on_the_centered_scenario():
    # with α = 0 the drift is −u³ and σu² diffusion, u = x, giving
    # L v = (−4 + 6σ²)·u⁶ = −m·u⁶ at a point mass
    sc = builtin_scenario("example2-nonlinear", alpha=0.0, sigma=0.5)
    m = sc.model.params["m"]
    assert m == pytest.approx(2.5)
    x = 1.3
    mu = np.full((4, 1), x)
    got = generator_values(sc.model, sc.lyap, 0.0, x, mu)[0]
    assert got == pytest.approx(-m * x**6, rel=1e-12)


def test_integrated_generator_closed_form():
    # Σ over the cloud of (3 − 4·m̂4)·x⁴/N = (3 − 4·m̂4)·m̂4
    sc = builtin_scenario("example1-quartic")
    cloud = np.array([[1.0], [2.0]])
    m4 = (1.0 + 16.0) / 2.0
    got = integrated_generator(sc.model, sc.lyap, 0.0, cloud)
    assert got == pytest.approx((3.0 - 4.0 * m4) * m4, rel=1e-12)


def test_fast_and_reference_reductions_agree():
    sc = builtin_scenario("example2-nonlinear")  # has a real measure factor
    for cloud in probe_clouds(5, size=200, seed=6):
        fast = float(tree_mean(generator_values(sc.model, sc.lyap, 0.0, cloud, cloud)))
        slow = integrated_generator(sc.model, sc.lyap, 0.0, cloud)
        assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)


def test_reference_reduction_is_capped():
    sc = builtin_scenario("example1-quartic")
    big = np.ones((2001, 1))
    with pytest.raises(ValueError, match="capped"):
        integrated_generator(sc.model, sc.lyap, 0.0, big)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def with_rates(m1, m2):
    """A Lyapunov package whose rates are m1, m2 (constants or functions of t)."""
    return dataclasses.replace(quartic_lyap(), m1=Rate.of(m1), m2=Rate.of(m2))


def test_envelopes_in_closed_form():
    rates = with_rates(Rate.constant(-1.0), Rate.constant(4.0))
    for t in (0.0, 0.5, 2.0):
        m = envelope_M(rates, 1.0, t)
        m_plus = envelope_Mplus(rates, 1.0, t)
        assert m == pytest.approx(math.exp(-t) + 4.0 * (1.0 - math.exp(-t)), rel=1e-14)
        assert m_plus == pytest.approx(1.0 + 4.0 * (math.exp(t) - 1.0), rel=1e-14)
        assert m <= m_plus + 1e-15


def test_quadrature_path_matches_the_closed_form():
    exact = with_rates(Rate.constant(-1.0), Rate.constant(4.0))
    numeric = with_rates(lambda t: -1.0, lambda t: 4.0)
    for t in (0.7, 2.0):
        assert envelope_M(numeric, 1.0, t) == pytest.approx(
            envelope_M(exact, 1.0, t), rel=1e-6
        )
        assert envelope_Mplus(numeric, 1.0, t) == pytest.approx(
            envelope_Mplus(exact, 1.0, t), rel=1e-6
        )


def test_envelope_with_affine_decay_rate():
    # m1(s) = −1 + s/2 exercises the cumulative-quadrature branch
    ev0, t = 1.0, 2.0
    rates = with_rates(lambda s: -1.0 + 0.5 * s, Rate.constant(1.0))

    def m1_int(s):
        return -s + 0.25 * s * s

    integral, _ = quad(lambda s: math.exp(m1_int(t) - m1_int(s)), 0.0, t)
    want = ev0 * math.exp(m1_int(t)) + integral
    assert envelope_M(rates, ev0, t) == pytest.approx(want, rel=1e-6)


def test_zero_rates_freeze_the_envelopes():
    rates = with_rates(Rate.constant(0.0), Rate.constant(0.0))
    for t in (0.0, 1.0, 10.0):
        assert envelope_M(rates, 2.5, t) == 2.5
        assert envelope_Mplus(rates, 2.5, t) == 2.5


def test_envelope_Mplus_reads_a_clipped_constant_rate_as_clipped():
    # m1⁺ = max(−1, 0) = 0, so M⁺(2) = ev0 + 2·m2 = 3, not e²·ev0 + ...
    rates = with_rates(Rate.constant(-1.0).pos(), Rate.constant(1.0))
    assert envelope_Mplus(rates, 1.0, 2.0) == 3.0


@pytest.mark.parametrize("quadrature", [False, True])
def test_envelopes_saturate_at_infinity(quadrature):
    # ∫₀¹ ±800 ds puts e^{±∫m1} past the float range (about e^709.8)
    grow, decay = (lambda s: 800.0, lambda s: -800.0) if quadrature else (800.0, -800.0)
    assert envelope_M(with_rates(grow, 1.0), 1.0, 1.0) == math.inf
    assert envelope_Mplus(with_rates(grow, 1.0), 1.0, 1.0) == math.inf
    assert envelope_Mplus(with_rates(decay, 1.0), 1.0, 1.0) == math.inf  # γ grows
    # a zero coefficient keeps its term at 0 however far the exponential grows
    assert envelope_M(with_rates(grow, 0.0), 0.0, 1.0) == 0.0
    assert envelope_Mplus(with_rates(decay, 0.0), 2.0, 1.0) == 2.0
    # with m2 < 0, M = e^{∫m1}·(Ev₀ + ∫₀ᵗ e^{−∫₀ˢm1} m2 ds) (− m2/m1 for
    # constants) has terms +inf and −inf: the bracket's sign decides
    forcing = (lambda s: -1.0) if quadrature else -1.0
    assert envelope_M(with_rates(grow, forcing), 1.0, 1.0) == math.inf
    if not quadrature:
        assert envelope_M(with_rates(800.0, -1600.0), 1.0, 1.0) == -math.inf
        assert envelope_M(with_rates(800.0, -800.0), 1.0, 1.0) == 1.0  # zero bracket: −m2/m1


def test_envelopes_reject_negative_initial_values():
    rates = with_rates(Rate.constant(-1.0), Rate.constant(4.0))
    with pytest.raises(ValueError):
        envelope_M(rates, -0.1, 1.0)
    with pytest.raises(ValueError):
        envelope_Mplus(rates, -0.1, 1.0)


# ---------------------------------------------------------------------------
# exit bounds
# ---------------------------------------------------------------------------


def test_exit_bound_on_the_square_root_scenario():
    # rates (1, 2) from the defaults give M(t) = (ev0 + 2)e^t − 2
    sc = builtin_scenario("example3-cir")
    ev0, t, m = 2.0, 5.0, 5
    v_m = 25.0 + 1.0 / 25.0
    got = exit_probability_bound(sc.lyap, ev0, t, m)
    assert got == pytest.approx((4.0 * math.exp(5.0) - 2.0) / v_m, rel=1e-12)
    assert exit_probability_bound(sc.lyap, ev0, t, m, p0_out=0.1) == pytest.approx(
        0.1 + got, rel=1e-12
    )
    # deeper boxes are harder to leave
    assert got > exit_probability_bound(sc.lyap, ev0, t, 10)


def test_sublevel_bound_needs_the_pointwise_mode():
    integrated = builtin_scenario("example3-cir").lyap
    with pytest.raises(ValueError, match="pointwise"):
        exit_probability_bound(integrated, 1.0, 1.0, 3, kind="sublevel")
    pointwise = builtin_scenario("scheutzow-clip").lyap
    cut = exit_probability_bound(pointwise, 1.0, 1.0, 3, kind="cut")
    sub = exit_probability_bound(pointwise, 1.0, 1.0, 3, kind="sublevel")
    assert sub >= cut  # M⁺ dominates M
    marginal = exit_probability_bound(pointwise, 1.0, 1.0, 3, p0_out=0.2, kind="marginal")
    # cut has p0_out = 0, and the marginal bound has no p0 term
    assert marginal == pytest.approx(cut, rel=1e-12)


def test_exit_bound_argument_validation():
    lyap = builtin_scenario("example1-quartic").lyap
    with pytest.raises(ValueError):
        exit_probability_bound(lyap, 1.0, 1.0, 3, p0_out=1.5)
    with pytest.raises(ValueError, match="kind"):
        exit_probability_bound(lyap, 1.0, 1.0, 3, kind="sideways")


def test_degenerate_floor_makes_the_bound_vacuous():
    # |α| ≥ 8^{−1/4} kills the centered floor entirely
    sc = builtin_scenario("example2-nonlinear", alpha=-0.7, sigma=0.3)
    assert sc.lyap.boundary_infimum(3) == 0.0
    with pytest.raises(ValueError, match="not positive"):
        exit_probability_bound(sc.lyap, 1.0, 1.0, 3)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


def test_quartic_drift_inequality_has_uniform_margin():
    # margin = 4(m̂4² − m̂4 + 1) = 4(m̂4 − ½)² + 3 ≥ 3 on every cloud
    sc = builtin_scenario("example1-quartic")
    report = check_lyapunov_condition(sc.model, sc.lyap, (0.0, 1.0), probe_clouds(20))
    assert report.passed()
    for row in report.rows:
        assert row.margin >= 3.0 - 1e-9


def test_centered_drift_inequality_holds_on_random_clouds():
    sc = builtin_scenario("example2-nonlinear")
    report = check_lyapunov_condition(
        sc.model, sc.lyap, (0.0, 0.5, 1.0), probe_clouds(50, seed=8)
    )
    assert report.passed(), report.worst()


def test_pointwise_check_reports_the_worst_particle(zero_model, quartic_lyap_zero_rates):
    report = check_lyapunov_condition(
        zero_model, quartic_lyap_zero_rates, (0.0,), probe_clouds(3)
    )
    assert report.passed()
    assert all(row.lhs == 0.0 and row.rhs == 0.0 for row in report.rows)
    assert all("#p" in row.probe for row in report.rows)
    assert report.worst().margin == 0.0


def test_saturated_scenario_passes_pointwise():
    sc = builtin_scenario("scheutzow-clip")
    report = check_lyapunov_condition(
        sc.model, sc.lyap, (0.0, 1.0), probe_clouds(25, scale=3.0, seed=13)
    )
    assert report.passed(), report.worst()


def test_probe_labels_are_preserved(contraction_model, quartic_lyap_zero_rates):
    # every check labels alike: probes outermost, time samples inside, a
    # probe called after its position; the pointwise check names its worst
    # particle (L v = −4x⁴ against the bound 0: the one nearest 0)
    model, lyap = contraction_model, quartic_lyap_zero_rates
    probes = [np.array([[1.0], [-3.0], [0.1]]), np.array([2.0, 0.5, 1.0])]
    ts = (0.0, 0.5)
    sweep = ["cloud00@t=0", "cloud00@t=0.5", "cloud01@t=0", "cloud01@t=0.5"]
    drift = check_lyapunov_condition(model, lyap, ts, probes)
    assert [r.probe for r in drift.rows] == [
        "cloud00@t=0#p2", "cloud00@t=0.5#p2", "cloud01@t=0#p1", "cloud01@t=0.5#p1",
    ]
    assert [r.probe for r in check_floor(model, lyap, ts, probes).rows] == sweep
    local = check_local_bound(model, lyap, ts, probes, levels=(1, 3))
    assert [r.probe for r in local.rows] == [
        f"{label}/k={k}" for label in sweep for k in (1, 3)
    ]


def test_floor_check_passes_and_fails_honestly():
    sc = builtin_scenario("example2-nonlinear")
    good = check_floor(sc.model, sc.lyap, (0.0,), probe_clouds(25, seed=5))
    assert good.passed()
    inflated = dataclasses.replace(
        sc.lyap, floor_V=lambda t, x: 2.0 * x[:, 0] ** 4 + 1.0
    )
    bad = check_floor(sc.model, inflated, (0.0,), probe_clouds(5, seed=5))
    assert not bad.passed()
    assert bad.worst().margin < -bad.tolerance


def test_local_bound_check_on_builtin_scenarios():
    sc = builtin_scenario("example1-quartic")
    report = check_local_bound(
        sc.model, sc.lyap, (0.0,), probe_clouds(10, seed=3), levels=(1, 2, 5)
    )
    assert report.passed(), report.worst()
    assert any("/k=5" in row.probe for row in report.rows)

    sc3 = builtin_scenario("example3-cir")
    rng = np.random.Generator(np.random.Philox(14))
    positive = [np.exp(0.5 * rng.normal(size=(30, 1))) for _ in range(10)]
    report3 = check_local_bound(
        sc3.model, sc3.lyap, (0.0,), positive, levels=(2, 3)
    )
    assert report3.passed(), report3.worst()


def test_report_csv_layout(tmp_path):
    # lyapunov-check writes one row per (probe cloud, time sample) to each CSV
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario.name = example1-quartic\n"
        "lyapunov.probes = 2\n"
        "lyapunov.probe_atoms = 16\n"
        "lyapunov.t_samples = 0.0 0.5\n"
    )
    out = tmp_path / "out"
    assert main(["lyapunov-check", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("lyapunov_drift.csv", "lyapunov_floor.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "probe,lhs,rhs,margin"
        assert len(lines) == 1 + 2 * 2
