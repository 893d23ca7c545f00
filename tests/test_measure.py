"""Empirical-measure functionals and the transport distances between clouds."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mkvlab.measure import (
    VBarKernel,
    evaluate_functionals,
    expected_shortfall,
    moment,
    quantile,
    semi_wasserstein_vbar,
    vbar_power,
    wasserstein_exact,
    wasserstein_p_1d,
)
from mkvlab.model import MeasureFunctionalTag
from mkvlab.parallel import tree_mean, tree_sum


def cloud(*values):
    return np.asarray(values, dtype=float)[:, None]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moment_of_small_cloud():
    # (1 + 4 + 9) / 3
    assert moment(cloud(1, 2, 3), 2) == pytest.approx(14.0 / 3.0, rel=1e-15)


def test_moment_of_point_mass_is_a_power():
    for c in (0.3, -1.7, 2.0):
        assert moment(cloud(*([c] * 8)), 3) == pytest.approx(c**3, rel=1e-14)


def test_odd_moment_uses_signed_powers():
    assert moment(cloud(-1, 1), 4) == pytest.approx(1.0, abs=0.0)
    assert moment(cloud(-1, 1), 3) == pytest.approx(0.0, abs=0.0)


def test_moment_order_below_one_rejected():
    with pytest.raises(ValueError):
        moment(cloud(1.0, 2.0), 0.5)


def test_measure_rejects_bad_samples():
    # no functional declared: the samples alone are checked
    with pytest.raises(ValueError):
        evaluate_functionals((), np.array([[np.nan]]))
    with pytest.raises(ValueError):
        evaluate_functionals((), np.empty((0, 1)))
    # the public functional reduction checks finiteness too
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            evaluate_functionals((MeasureFunctionalTag("mean"),), cloud(0.0, bad))


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------


def test_quantile_left_continuous_inverse():
    x = cloud(1, 2, 3, 4)
    assert quantile(x, 0.5) == 2.0
    assert quantile(x, 0.51) == 3.0
    assert quantile(x, 0.25) == 1.0
    assert quantile(x, 1.0) == 4.0


def test_quantile_of_point_mass():
    for s in (0.01, 0.5, 1.0):
        assert quantile(cloud(2.5, 2.5, 2.5), s) == 2.5


def test_quantile_is_monotone_in_the_level():
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.normal(size=(37, 1))
    values = [quantile(x, s) for s in np.linspace(0.01, 1.0, 25)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_quantile_level_must_be_in_unit_interval():
    with pytest.raises(ValueError):
        quantile(cloud(1.0), 0.0)
    with pytest.raises(ValueError):
        quantile(cloud(1.0), 1.2)


# ---------------------------------------------------------------------------
# expected shortfall
# ---------------------------------------------------------------------------


def test_shortfall_of_small_cloud():
    # lowest half of {1,2,3,4}: (1 + 2) / 2
    assert expected_shortfall(cloud(1, 2, 3, 4), 0.5) == pytest.approx(1.5, rel=1e-15)


def test_shortfall_interpolates_partial_atoms():
    # α = 0.375, N = 4: m = 1, ES = (1/α)(1/4·1 + (0.375 − 0.25)·2) = 4/3
    assert expected_shortfall(cloud(1, 2, 3, 4), 0.375) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_shortfall_of_point_mass():
    assert expected_shortfall(cloud(3.3, 3.3), 0.25) == pytest.approx(3.3, rel=1e-15)


def test_shortfall_at_level_one_is_the_mean():
    rng = np.random.Generator(np.random.Philox(9))
    x = rng.normal(size=(41, 1))
    assert expected_shortfall(x, 1.0) == pytest.approx(float(x.mean()), rel=1e-13)


def test_shortfall_never_exceeds_the_mean():
    rng = np.random.Generator(np.random.Philox(10))
    for _ in range(50):
        x = rng.normal(size=(23, 1))
        for alpha in (0.1, 0.3, 0.8):
            assert expected_shortfall(x, alpha) <= x.mean() + 1e-12


def shortfall_by_full_sort(x, alpha):
    """The module docstring's ES formula over a full sort of the samples."""
    xs = np.sort(x)
    n = xs.size
    an = alpha * n
    m = min(int(math.floor(an + 1e-9 * n)), n)
    total = float(tree_sum(xs[:m])) / n if m else 0.0
    frac = an - m
    if frac > 1e-9 * n and m < n:
        total += frac / n * float(xs[m])
    return total / alpha


def assert_shortfall_matches_full_sort(x, alpha):
    want = shortfall_by_full_sort(x, alpha)
    fresh = expected_shortfall(x[:, None], alpha)  # partition path
    tag = MeasureFunctionalTag("expected-shortfall", alpha=alpha)
    scratch = np.full(x.size, np.nan)
    in_scratch = evaluate_functionals((tag,), x[:, None], scratch)[tag.key]
    assert repr(fresh) == repr(want) and repr(in_scratch) == repr(want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_partition_shortfall_equals_the_full_sort(data):
    n = data.draw(st.integers(1, 3000), label="n")
    atoms = data.draw(hnp.arrays(np.int64, n, elements=st.integers(-6, 6)))
    jitter = data.draw(st.sampled_from([0.0, 1e-3]), label="jitter")
    wiggle = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    # many ties; + 0.0 turns −0.0 into 0.0 (equal values, but sorts may
    # order the two zeros either way, which would change a zero sum's sign)
    x = atoms * 0.37 + jitter * wiggle + 0.0
    case = data.draw(
        st.sampled_from(["any", "alpha_n_integer", "m_is_0", "m_is_n_minus_1"]),
        label="case",
    )
    if case == "alpha_n_integer":
        alpha = data.draw(st.integers(1, n)) / n
    elif case == "m_is_0":
        alpha = data.draw(st.floats(1e-3, 0.999)) / n
    elif case == "m_is_n_minus_1":
        alpha = (n - 1 + data.draw(st.floats(1e-3, 0.999))) / n
    else:
        alpha = data.draw(st.floats(1e-4, 1.0))
    assert_shortfall_matches_full_sort(x, alpha)


@pytest.mark.parametrize("n", [1, 2, 7, 1025, 3001])
def test_partition_shortfall_edge_levels(n):
    x = np.random.Generator(np.random.Philox(n)).integers(-4, 5, n) * 0.5 + 0.0
    for alpha in (0.5 / n, 1.0 / n, (n - 1) / n, (n - 0.5) / n, 1.0):
        if alpha > 0:
            assert_shortfall_matches_full_sort(x, alpha)


def inverse_cdf_pieces(x):
    """The empirical inverse CDF as (value, (lo, hi]) pieces: F⁻¹ = x_(k)
    on ((k − 1)/N, k/N], with exact rational ends."""
    xs = sorted(x)
    n = len(xs)
    return [(v, (Fraction(k - 1, n), Fraction(k, n))) for k, v in enumerate(xs, 1)]


samples_1d = hnp.arrays(
    np.float64, st.integers(1, 40), elements=st.floats(-1e3, 1e3, allow_nan=False)
)
levels = st.tuples(st.integers(1, 1000), st.integers(1, 1000)).map(
    lambda jd: Fraction(min(jd), max(jd))
)


@settings(max_examples=200, deadline=None)
@given(x=samples_1d, level=levels)
def test_quantile_is_the_empirical_inverse_cdf(x, level):
    want = next(v for v, (lo, hi) in inverse_cdf_pieces(x) if lo < level <= hi)
    assert quantile(x[:, None], float(level)) == want


@settings(max_examples=200, deadline=None)
@given(x=samples_1d, level=levels)
def test_shortfall_is_the_integral_of_the_inverse_cdf(x, level):
    # (1/α) ∫₀^α F⁻¹(s) ds, piece by piece with exact piece lengths
    area = math.fsum(
        v * float(max(Fraction(0), min(hi, level) - lo))
        for v, (lo, hi) in inverse_cdf_pieces(x)
    )
    alpha = float(level)
    slack = 1e-12 * (1.0 + float(np.max(np.abs(x)))) / alpha
    assert expected_shortfall(x[:, None], alpha) == pytest.approx(
        area / alpha, rel=1e-12, abs=slack
    )


def test_shortfall_is_transport_lipschitz():
    # |ES_α(μ) − ES_α(ν)| ≤ W₁(μ, ν) / α on equal-size clouds
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(50):
        a = rng.normal(size=(16, 1))
        b = rng.normal(size=(16, 1))
        for alpha in (0.25, 0.5, 1.0):
            gap = abs(expected_shortfall(a, alpha) - expected_shortfall(b, alpha))
            assert gap <= wasserstein_p_1d(a, b, 1.0) / alpha + 1e-12


# ---------------------------------------------------------------------------
# transport distances, one dimension
# ---------------------------------------------------------------------------


def test_w1_of_shifted_pair():
    assert wasserstein_p_1d(cloud(0, 1), cloud(1, 2), 1.0) == pytest.approx(1.0, abs=0.0)


def test_w_between_point_masses_is_the_distance():
    for a, b in [(0.0, 1.0), (-2.0, 3.5)]:
        for p in (1.0, 2.0):
            got = wasserstein_p_1d(cloud(a, a, a), cloud(b, b, b), p)
            assert got == pytest.approx(abs(a - b), rel=1e-14)


def test_w2_of_split_pair():
    # {0,2} vs {1,1}: sorted coupling costs (1 + 1)/2, so W₂ = 1
    assert wasserstein_p_1d(cloud(0, 2), cloud(1, 1), 2.0) == pytest.approx(1.0, rel=1e-15)


def test_w_requires_equal_cloud_sizes():
    with pytest.raises(ValueError):
        wasserstein_p_1d(cloud(0, 1), cloud(0, 1, 2), 1.0)


def test_w_order_below_one_rejected():
    with pytest.raises(ValueError):
        wasserstein_p_1d(cloud(0, 1), cloud(1, 2), 0.5)


@pytest.mark.parametrize("p", [1, 1.0, 1.5, 2, 2.0, 3, 3.0])
def test_w_p_equals_the_allocating_formula_bit_for_bit(p):
    # |sorted a − sorted b|**p is formed in place in one buffer
    rng = np.random.Generator(np.random.Philox(24))
    a = rng.normal(size=(3000, 1))
    b = rng.normal(1.0, 2.0, size=(3000, 1))
    sa, sb = np.sort(a[:, 0]), np.sort(b[:, 0])
    want = float(tree_mean(np.abs(sa - sb) ** p)) ** (1 / p)
    assert wasserstein_p_1d(a, b, p).hex() == want.hex()


def test_w_leaves_its_inputs_untouched():
    # |a − b|^p is formed in place, in a sorted copy, never in an input;
    # a 1-d input is a view of the caller's array under the shape rule
    rng = np.random.Generator(np.random.Philox(25))
    a, b = rng.normal(size=(500, 1)), rng.normal(size=(500, 1))
    a0, b0 = a.copy(), b.copy()
    want = wasserstein_p_1d(a, b, 2.0)
    for pair in ((a, b), (a[:, 0], b), (a, b[:, 0]), (a[:, 0], b[:, 0])):
        assert wasserstein_p_1d(*pair, 2.0) == want
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def planar_pair():
    """Two (10, 2) clouds equal in coordinate 0 and 5 apart in coordinate 1."""
    x = np.zeros((10, 2))
    x[:, 1] = np.arange(10.0)
    y = x.copy()
    y[:, 1] += 5.0
    return x, y


@pytest.mark.parametrize(
    "call",
    [
        lambda x, y: wasserstein_p_1d(x, y, 1.0),
        lambda x, y: quantile(x, 0.5),
        lambda x, y: expected_shortfall(x, 0.5),
    ],
    ids=["w1", "quantile", "shortfall"],
)
def test_scalar_statistics_refuse_multidimensional_clouds(call):
    with pytest.raises(ValueError, match="d=1"):
        call(*planar_pair())


# ---------------------------------------------------------------------------
# transport distances, exact small-cloud solver
# ---------------------------------------------------------------------------


def test_exact_cost_to_self_is_zero():
    rng = np.random.Generator(np.random.Philox(21))
    x = rng.normal(size=(6, 2))
    assert wasserstein_exact(x, x.copy(), 2.0) == pytest.approx(0.0, abs=1e-12)


def test_exact_matches_sorted_coupling_in_one_dimension():
    # the assignment solve returns the unrooted mean cost, i.e. W_p^p
    rng = np.random.Generator(np.random.Philox(22))
    for trial in range(100):
        a = rng.normal(size=(8, 1))
        b = rng.normal(size=(8, 1))
        p = 1.0 if trial % 2 == 0 else 2.0
        fast = wasserstein_p_1d(a, b, p) ** p
        slow = wasserstein_exact(a, b, p)
        assert abs(fast - slow) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 8),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_sorted_coupling_cost_is_the_exact_optimum(data, n, p):
    values = hnp.arrays(np.float64, n, elements=st.floats(-100, 100, allow_nan=False))
    a, b = data.draw(values)[:, None], data.draw(values)[:, None]
    assert wasserstein_p_1d(a, b, p) ** p == pytest.approx(
        wasserstein_exact(a, b, p), rel=1e-9, abs=1e-12
    )


def test_exact_sees_through_permutations():
    rng = np.random.Generator(np.random.Philox(23))
    a = rng.normal(size=(7, 2))
    b = a[rng.permutation(7)]
    assert wasserstein_exact(a, b, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_scipy_loads_on_the_first_exact_assignment_only():
    code = (
        "import sys, mkvlab, mkvlab.cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
        "from mkvlab.measure import wasserstein_exact\n"
        "print(wasserstein_exact([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.5], 1.0))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    # the optimal assignment moves only 0 ↔ 0.5
    assert float(run.stdout) == 0.125


def test_exact_solver_refuses_large_clouds():
    x = np.zeros((5000, 1))
    with pytest.raises(ValueError, match="capped"):
        wasserstein_exact(x, x, 1.0)


# ---------------------------------------------------------------------------
# cost-function transport
# ---------------------------------------------------------------------------


def test_vbar_distance_between_identical_clouds_is_zero():
    rng = np.random.Generator(np.random.Philox(31))
    x = rng.normal(size=(12, 1))
    res = semi_wasserstein_vbar(x, x.copy(), vbar_power(2.0))
    assert res.value == 0.0 and res.exact


def test_quadratic_kernel_recovers_squared_w2():
    rng = np.random.Generator(np.random.Philox(32))
    for _ in range(25):
        a = rng.normal(size=(9, 1))
        b = rng.normal(size=(9, 1))
        got = float(semi_wasserstein_vbar(a, b, vbar_power(2.0)))
        want = wasserstein_p_1d(a, b, 2.0) ** 2
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_vbar_distance_between_point_masses_applies_the_kernel():
    a, b = cloud(1.0, 1.0), cloud(-0.5, -0.5)
    got = float(semi_wasserstein_vbar(a, b, vbar_power(3.0)))
    assert got == pytest.approx(1.5**3, rel=1e-14)


def test_vbar_distance_is_symmetric_for_even_kernels():
    rng = np.random.Generator(np.random.Philox(33))
    a = rng.normal(size=(8, 1))
    b = rng.normal(size=(8, 1))
    ab = float(semi_wasserstein_vbar(a, b, vbar_power(2.0)))
    ba = float(semi_wasserstein_vbar(b, a, vbar_power(2.0)))
    assert ab == pytest.approx(ba, rel=1e-13)


def test_nonconvex_kernel_solves_the_exhaustive_assignment():
    # saturating kernel min(z², 1): even, ≥ 0, vanishes at 0, not convex —
    # the sorted coupling can lose, so the solver must do real assignment
    saturate = VBarKernel(fn=lambda z: np.minimum(z**2, 1.0), convex=False)
    rng = np.random.Generator(np.random.Philox(34))
    for _ in range(10):
        a = rng.normal(size=(6, 1)) * 2.0
        b = rng.normal(size=(6, 1)) * 2.0
        res = semi_wasserstein_vbar(a, b, saturate)
        assert res.exact and res.method == "exact-assignment"
        best = min(
            np.mean([min((a[i, 0] - b[j, 0]) ** 2, 1.0) for i, j in enumerate(perm)])
            for perm in itertools.permutations(range(6))
        )
        assert float(res) == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_vbar_kernel_contract_is_enforced():
    a, b = cloud(0.0, 1.0), cloud(2.0, 5.0)
    offset = VBarKernel(fn=lambda z: np.abs(z) + 1.0, convex=True)
    with pytest.raises(ValueError, match="v̄\\(0\\)"):
        semi_wasserstein_vbar(a, b, offset)
    negative = VBarKernel(fn=lambda z: -np.abs(z), convex=True)
    with pytest.raises(ValueError, match="≥ 0"):
        semi_wasserstein_vbar(a, b, negative)
    lopsided = VBarKernel(fn=lambda z: np.maximum(z, 0.0), convex=True)
    with pytest.raises(ValueError, match="even"):
        semi_wasserstein_vbar(a, b, lopsided)


def test_vbar_power_rejects_nonpositive_exponents():
    with pytest.raises(ValueError):
        vbar_power(0.0)


# ---------------------------------------------------------------------------
# tag dispatch
# ---------------------------------------------------------------------------


def test_evaluate_functionals_matches_direct_calls():
    rng = np.random.Generator(np.random.Philox(41))
    x = rng.normal(size=(30, 1))
    tags = (
        MeasureFunctionalTag("raw-moment", p=4),
        MeasureFunctionalTag("mean"),
        MeasureFunctionalTag("quantile", alpha=0.5),
        MeasureFunctionalTag("expected-shortfall", alpha=0.05),
        MeasureFunctionalTag("clipped-mean"),
    )
    fv = evaluate_functionals(tags, x)
    assert fv["m4"] == moment(x, 4)
    assert fv["mean"] == pytest.approx(float(x.mean()), rel=1e-13)
    assert fv["q05"] == quantile(x, 0.5)
    assert fv["es005"] == expected_shortfall(x, 0.05)
    assert fv["cmean"] == pytest.approx(float(np.clip(x[:, 0], -1.0, 1.0).mean()), rel=1e-13)
