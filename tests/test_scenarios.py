"""Shipped-scenario contracts: parameter validation and certified rates.

The drift-rate and contraction constants asserted here are frozen from the
hand derivations in the scenario builders; the dynamical tests elsewhere
check that the simulations actually respect them.
"""

import numpy as np
import pytest

from mkvlab.scenarios import builtin_scenario, scenario_names
from mkvlab.simulate import PointMass


def rate_const(rate):
    """Recover a constant rate via its unit-interval integral (exact)."""
    return rate.integral(0.0, 1.0)


def point_of(law):
    assert isinstance(law, PointMass)
    return float(np.asarray(law.point).ravel()[0])


# ---------------------------------------------------------------------------
# example1-quartic
# ---------------------------------------------------------------------------


def test_example1_certified_rates_and_defaults():
    sc = builtin_scenario("example1-quartic")
    assert rate_const(sc.lyap.m1) == -1.0
    assert rate_const(sc.lyap.m2) == 4.0
    assert sc.lyap.mode == "integrated"
    assert sc.model.functional_keys() == ("m4",)
    assert point_of(sc.default_init) == 1.0
    assert sc.stability is None
    assert sc.lyap.boundary_infimum(2) == 16.0
    assert sc.model.local_bound(3) == 3.0


# ---------------------------------------------------------------------------
# example2-nonlinear
# ---------------------------------------------------------------------------


def test_example2_default_parameters_give_m_4_5():
    sc = builtin_scenario("example2-nonlinear")
    assert sc.model.params["alpha"] == -0.5
    assert sc.model.params["sigma"] == 0.5
    # m = -(6·0.25 - 4 - 2)
    assert sc.model.params["m"] == 4.5
    assert rate_const(sc.lyap.m1) == -4.5
    assert rate_const(sc.lyap.m2) == 4.5
    assert sc.model.functional_keys() == ("mean",)
    assert len(sc.lyap.measure_factors) == 1


def test_example2_rejects_parameters_with_nonpositive_m():
    with pytest.raises(ValueError, match="m = -6"):
        builtin_scenario("example2-nonlinear", alpha=1.0, sigma=1.0)
    # boundary case m == 0 is rejected too
    with pytest.raises(ValueError, match="> 0"):
        builtin_scenario("example2-nonlinear", alpha=1.0, sigma=0.0)


def test_example2_floor_coefficient_and_degeneracy():
    sc = builtin_scenario("example2-nonlinear")  # alpha = -0.5
    # floor coefficient 1/8 - alpha^4 = 0.0625 at the default
    assert sc.lyap.boundary_infimum(2) == pytest.approx(0.0625 * 16.0, rel=1e-15)
    # |alpha| >= 8^(-1/4) kills the floor; m = 1.2 - 6·0.09 = 0.66 stays valid
    degen = builtin_scenario("example2-nonlinear", alpha=0.7, sigma=0.3)
    assert degen.lyap.boundary_infimum(5) == 0.0


def test_example2_functional_records_alpha():
    sc = builtin_scenario("example2-nonlinear", alpha=-0.25, sigma=0.5)
    (tag,) = sc.model.functionals
    assert tag.kind == "mean"
    assert sc.model.params["alpha"] == -0.25


# ---------------------------------------------------------------------------
# example3-cir
# ---------------------------------------------------------------------------


def test_example3_certified_rates_and_domain():
    sc = builtin_scenario("example3-cir")
    assert rate_const(sc.lyap.m1) == 1.0  # max(kappa, 1/2) at kappa = 1
    assert rate_const(sc.lyap.m2) == 2.0  # kappa^2/2 + kappa·theta
    assert not sc.model.ladder.whole_space
    assert sc.model.ladder.lower == (0.0,)
    assert sc.model.functional_keys() == ("es01",)
    assert sc.model.params == {
        "kappa": 1.0, "theta": 1.5, "sigma": 1.0, "alpha": 0.1,
    }


def test_example3_small_kappa_hits_the_rate_floor():
    sc = builtin_scenario("example3-cir", kappa=0.3, theta=1.5, sigma=0.5)
    assert rate_const(sc.lyap.m1) == 0.5
    assert rate_const(sc.lyap.m2) == pytest.approx(0.5 * 0.09 + 0.45, rel=1e-15)


def test_example3_rejects_inadmissible_parameters():
    with pytest.raises(ValueError, match="needs"):
        builtin_scenario("example3-cir", kappa=1.0, theta=0.5, sigma=1.0)
    with pytest.raises(ValueError):
        builtin_scenario("example3-cir", kappa=0.0)
    with pytest.raises(ValueError):
        builtin_scenario("example3-cir", sigma=-1.0)


# ---------------------------------------------------------------------------
# linear-meanfield and scheutzow-clip
# ---------------------------------------------------------------------------


def test_linear_meanfield_contraction_certificate():
    sc = builtin_scenario("linear-meanfield")  # a = -1, b = 0.5, sigma = 0.5
    assert sc.stability == {"g": -1.5, "h": 0.5, "h_int": -1.0}
    assert rate_const(sc.lyap.m1) == -1.0  # 2a + 2|b|
    assert rate_const(sc.lyap.m2) == 0.25
    # the pointwise global condition only holds without mean-field coupling
    assert sc.lyap.mode == "integrated"
    pure = builtin_scenario("linear-meanfield", b=0.0)
    assert pure.lyap.mode == "pointwise"
    assert pure.stability == {"g": -2.0, "h": 0.0, "h_int": -2.0}


def test_scheutzow_clip_certificate_and_defaults():
    sc = builtin_scenario("scheutzow-clip")
    assert sc.stability == {"g": -1.0, "h": 1.0, "h_int": 0.0}
    assert rate_const(sc.lyap.m1) == -1.0
    assert rate_const(sc.lyap.m2) == pytest.approx(1.16, rel=1e-15)
    assert sc.lyap.mode == "pointwise"
    assert sc.model.functional_keys() == ("cmean",)
    assert point_of(sc.default_init) == 0.5


def test_scheutzow_clip_rejects_negative_noise():
    with pytest.raises(ValueError, match="needs"):
        builtin_scenario("scheutzow-clip", sigma0=-0.1)


@pytest.mark.parametrize(
    "name, sigma",
    [("example3-cir", lambda p: 0.5 * p["sigma"]),
     ("linear-meanfield", lambda p: p["sigma"]),
     ("scheutzow-clip", lambda p: p["sigma0"])],
)
def test_constant_diffusions_are_one_read_only_array(name, sigma):
    model = builtin_scenario(name).model
    s = model.diffusion(0.0, np.ones((5, 1)), {})
    assert s.shape == (1, 1, 1) and s[0, 0, 0] == sigma(model.params)
    assert not s.flags.writeable
    assert model.diffusion(1.0, np.zeros((3, 1)), {}) is s


# ---------------------------------------------------------------------------
# lookup errors
# ---------------------------------------------------------------------------


def test_unknown_scenario_lists_the_available_names():
    with pytest.raises(ValueError, match="available:") as exc:
        builtin_scenario("example9-mystery")
    for name in scenario_names():
        assert name in str(exc.value)


def test_unknown_parameter_names_the_offender_and_the_signature():
    with pytest.raises(ValueError, match="does not take parameter") as exc:
        builtin_scenario("example1-quartic", kappa=1.0)
    assert "kappa" in str(exc.value)
    with pytest.raises(ValueError, match="accepts: a, b, sigma"):
        builtin_scenario("linear-meanfield", rho=0.1)
