"""Built-in scenarios: models paired with certified Lyapunov packages.

Each builder hands back the coefficients, the declared measure functionals,
the domain ladder, a local coefficient bound c_k, a Lyapunov function with
every derivative in closed form, the drift rates (m1, m2), the floor V with
its boundary infima V_k, and — where a contraction certificate exists — the
global rates (g, h) for coupled-path stability bounds. All derivations are
hand-checked; the test suite freezes the resulting identities numerically.

Shipped scenarios (all one-dimensional):

* ``example1-quartic``     dx = −x·(∫y⁴μ(dy)) dt + x/√2 dw, v = x⁴,
                           integrated rates (−1, 4);
* ``example2-nonlinear``   dx = −u³ dt + σu² dw with u = x − α·mean(μ),
                           v = u⁴, rates (−m, m), m = −(6σ² − 4 + 4α) > 0;
* ``example3-cir``         dx = κ/2·[(max(ES_α, θ) − σ²/(4κ))/x − x] dt
                           + σ/2 dw on D = (0, ∞), v = x² + x⁻²;
* ``linear-meanfield``     dx = (a·x + b·mean) dt + σ dw, v = x² —
                           plumbing for stability and stationarity tests;
* ``scheutzow-clip``       dx = (−x + ∫clip(y,−1,1)μ(dy)) dt + σ₀ dw —
                           saturated interaction of the form B(x, E b̄(x))
                           with a local-monotone certificate.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .lyapunov import LyapunovSpec, MeasureKernelFactor, Rate
from .model import DomainLadder, MeasureFunctionalTag, ModelSpec
from .simulate import InitialLaw, PointMass

__all__ = ["Scenario", "builtin_scenario", "scenario_names"]


@dataclass(frozen=True)
class Scenario:
    """A model, its Lyapunov package, a default initial law, and (when
    derived) the global contraction rates for stability experiments:
    ``stability["g"]``/``["h"]`` for the pointwise global condition and
    ``stability["h_int"]`` for the integrated one, all w.r.t. v̄(z) = z²."""

    model: ModelSpec
    lyap: LyapunovSpec
    default_init: InitialLaw
    stability: dict | None = None


def _constant_diffusion(sigma: float):
    """σ(t, x, μ) = σ as one read-only (1, 1, 1) array, built once; the
    engine broadcasts it over the particles."""
    s = np.full((1, 1, 1), sigma)
    s.flags.writeable = False
    return lambda t, x, fv: s


def _quadratic(mode: str, m1: float, m2: float) -> LyapunovSpec:
    """v = x² with floor V = x², V_k = k², and constant rates (m1, m2)."""
    return LyapunovSpec(
        name="quadratic",
        mode=mode,
        v=lambda t, x, fv: x[:, 0] ** 2,
        dv_dt=lambda t, x, fv: np.zeros(x.shape[0]),
        dv_dx=lambda t, x, fv: 2.0 * x,
        d2v_dx2=lambda t, x, fv: np.full((x.shape[0], 1, 1), 2.0),
        m1=Rate.constant(m1),
        m2=Rate.constant(m2),
        floor_V=lambda t, x: x[:, 0] ** 2,
        boundary_infimum=lambda k: float(k) ** 2,
    )


def _example1() -> Scenario:
    m4 = MeasureFunctionalTag("raw-moment", p=4)
    model = ModelSpec(
        name="example1-quartic",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: -x * fv["m4"],
        diffusion=lambda t, x, fv: (x / math.sqrt(2.0))[:, :, None],
        functionals=(m4,),
        ladder=DomainLadder.full_space(1),
        local_bound=lambda k: float(k),
    )
    lyap = LyapunovSpec(
        name="quartic-moment",
        mode="integrated",
        v=lambda t, x, fv: x[:, 0] ** 4,
        dv_dt=lambda t, x, fv: np.zeros(x.shape[0]),
        dv_dx=lambda t, x, fv: 4.0 * x**3,
        d2v_dx2=lambda t, x, fv: (12.0 * x[:, 0] ** 2)[:, None, None],
        m1=Rate.constant(-1.0),
        m2=Rate.constant(4.0),
        floor_V=lambda t, x: x[:, 0] ** 4,
        boundary_infimum=lambda k: float(k) ** 4,
    )
    return Scenario(model, lyap, PointMass(1.0))


def _example2(alpha: float = -0.5, sigma: float = 0.5) -> Scenario:
    m = -(6.0 * sigma**2 - 4.0 + 4.0 * alpha)
    if m <= 0:
        raise ValueError(
            f"example2-nonlinear needs m = -(6σ²-4+4α) > 0; "
            f"got m = {m:g} for (α, σ) = ({alpha:g}, {sigma:g})"
        )

    def u(x, fv):
        return x[:, 0] - alpha * fv["mean"]

    model = ModelSpec(
        name="example2-nonlinear",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: (-u(x, fv) ** 3)[:, None],
        diffusion=lambda t, x, fv: (sigma * u(x, fv) ** 2)[:, None, None],
        functionals=(MeasureFunctionalTag("mean"),),
        ladder=DomainLadder.full_space(1),
        # |mean| ≤ (∫v dμ)^{1/4}/(1−α) since ∫u⁴dμ ≥ (∫u dμ)⁴ = ((1−α)·mean)⁴,
        # and α < 1 − 1.5σ² < 1 whenever m > 0; then |u| ≤ k + q(∫v)^{1/4}
        # with q = |α|/(1−α), and (a+b)³ ≤ 4(a³+b³), t^{3/4} ≤ 1+t, √t ≤ 1+t.
        local_bound=lambda k, _q=abs(alpha) / (1.0 - alpha): 4.0
        * (k**3 + _q**3)
        + 2.0 * sigma * (k**2 + _q**2),
        params={"alpha": alpha, "sigma": sigma, "m": m},
    )
    floor_coef = max(0.125 - alpha**4, 0.0)
    lyap = LyapunovSpec(
        name="centered-quartic",
        mode="integrated",
        v=lambda t, x, fv: u(x, fv) ** 4,
        dv_dt=lambda t, x, fv: np.zeros(x.shape[0]),
        dv_dx=lambda t, x, fv: (4.0 * u(x, fv) ** 3)[:, None],
        d2v_dx2=lambda t, x, fv: (12.0 * u(x, fv) ** 2)[:, None, None],
        m1=Rate.constant(-m),
        m2=Rate.constant(m),
        # (x − α·mean)⁴ ≥ x⁴/8 − (α·mean)⁴ and mean⁴ ≤ ∫x⁴dμ give the
        # integrated floor (1/8 − α⁴)·x⁴, degenerate once |α| ≥ 8^{-1/4}.
        floor_V=lambda t, x: floor_coef * x[:, 0] ** 4,
        boundary_infimum=lambda k: floor_coef * float(k) ** 4,
        measure_factors=(
            MeasureKernelFactor(
                x_part=lambda t, x, fv: -4.0 * alpha * u(x, fv) ** 3,
                y_grad=lambda t, y, fv: np.ones((y.shape[0], 1)),
                y_hess=None,
            ),
        ),
    )
    return Scenario(model, lyap, PointMass(1.0))


def _example3(
    kappa: float = 1.0,
    theta: float = 1.5,
    sigma: float = 1.0,
    alpha: float = 0.1,
) -> Scenario:
    if kappa <= 0 or sigma <= 0:
        raise ValueError("example3-cir needs κ > 0 and σ > 0")
    if kappa * theta < sigma**2:
        raise ValueError(
            f"example3-cir needs κθ ≥ σ²; got κθ = {kappa * theta:g} "
            f"< σ² = {sigma**2:g}"
        )
    es = MeasureFunctionalTag("expected-shortfall", alpha=alpha)
    es_key = es.key
    shift = sigma**2 / (4.0 * kappa)

    def drift(t, x, fv):
        level = max(fv[es_key], theta) - shift
        with np.errstate(divide="ignore"):
            return 0.5 * kappa * (level / x - x)

    model = ModelSpec(
        name="example3-cir",
        dim=1,
        noise_dim=1,
        drift=drift,
        diffusion=_constant_diffusion(0.5 * sigma),
        functionals=(es,),
        ladder=DomainLadder.positive_axis(),
        # On [1/k, k] with positive support: max(ES, θ) ≤ θ + ES and
        # 0 ≤ ES ≤ mean ≤ 1 + ∫v dμ, so |b| ≤ (κ/2)k(θ+2)(1 + ∫v dμ).
        local_bound=lambda k: 0.5 * kappa * k * (theta + 2.0) + 0.5 * sigma,
        params={"kappa": kappa, "theta": theta, "sigma": sigma, "alpha": alpha},
    )

    def v(t, x, fv=None):
        with np.errstate(divide="ignore"):
            x0 = x[:, 0]
            return x0**2 + x0**-2.0

    lyap = LyapunovSpec(
        name="cir-barrier",
        mode="integrated",
        v=lambda t, x, fv: v(t, x),
        dv_dt=lambda t, x, fv: np.zeros(x.shape[0]),
        dv_dx=lambda t, x, fv: 2.0 * x - 2.0 * x**-3.0,
        d2v_dx2=lambda t, x, fv: (2.0 + 6.0 * x[:, 0] ** -4.0)[:, None, None],
        m1=Rate.constant(max(kappa, 0.5)),
        m2=Rate.constant(0.5 * kappa**2 + kappa * theta),
        floor_V=lambda t, x: v(t, x),
        boundary_infimum=lambda k: float(k) ** 2 + float(k) ** -2.0,
    )
    return Scenario(model, lyap, PointMass(1.0))


def _linear_meanfield(
    a: float = -1.0, b: float = 0.5, sigma: float = 0.5
) -> Scenario:
    model = ModelSpec(
        name="linear-meanfield",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: a * x + b * fv["mean"],
        diffusion=_constant_diffusion(sigma),
        functionals=(MeasureFunctionalTag("mean"),),
        ladder=DomainLadder.full_space(1),
        local_bound=lambda k: abs(a) * k + abs(b) + sigma,
        params={"a": a, "b": b, "sigma": sigma},
    )
    mode = "pointwise" if b == 0 else "integrated"
    lyap = _quadratic(mode, 2.0 * a + 2.0 * abs(b), sigma**2)
    # Coupled generator on v̄ = z²: 2Δ(aΔ + b·δmean) ≤ (2a+|b|)v̄ + |b|·W_v̄
    # (pointwise, since δmean² ≤ ∫Δ²dπ for every coupling); averaging the
    # cross term against a coupling instead gives h_int = 2a + 2|b|.
    stability = {"g": 2.0 * a + abs(b), "h": abs(b), "h_int": 2.0 * a + 2.0 * abs(b)}
    return Scenario(model, lyap, PointMass(1.0), stability)


def _scheutzow_clip(sigma0: float = 0.4) -> Scenario:
    if sigma0 < 0:
        raise ValueError("scheutzow-clip needs σ₀ ≥ 0")
    tag = MeasureFunctionalTag("clipped-mean")
    model = ModelSpec(
        name="scheutzow-clip",
        dim=1,
        noise_dim=1,
        drift=lambda t, x, fv: -x + fv["cmean"],
        diffusion=_constant_diffusion(sigma0),
        functionals=(tag,),
        ladder=DomainLadder.full_space(1),
        local_bound=lambda k: float(k) + 1.0 + sigma0,
        params={"sigma0": sigma0},
    )
    # 2x(−x + c̄) + σ₀² ≤ −x² + c̄² + σ₀² with |c̄| ≤ 1.
    lyap = _quadratic("pointwise", -1.0, 1.0 + sigma0**2)
    # 2Δ(−Δ + δc̄) ≤ −v̄ + δc̄² and δc̄² ≤ W_v̄ because clip is 1-Lipschitz;
    # under a coupling, Cauchy–Schwarz gives zero net growth instead.
    stability = {"g": -1.0, "h": 1.0, "h_int": 0.0}
    return Scenario(model, lyap, PointMass(0.5), stability)


_BUILDERS = {
    "example1-quartic": _example1,
    "example2-nonlinear": _example2,
    "example3-cir": _example3,
    "linear-meanfield": _linear_meanfield,
    "scheutzow-clip": _scheutzow_clip,
}


def scenario_names() -> tuple:
    return tuple(sorted(_BUILDERS))


def builtin_scenario(name: str, **params) -> Scenario:
    """Construct a built-in scenario, validating its parameters.

    Parameter constraints mirror the analytic requirements (example2 needs
    m = −(6σ²−4+4α) > 0, example3 needs κθ ≥ σ²); violations raise
    ValueError, which the command line reports as a configuration error.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
    allowed = set(inspect.signature(builder).parameters)
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"scenario {name!r} does not take parameter(s) "
            f"{', '.join(sorted(unknown))}; accepts: "
            f"{', '.join(sorted(allowed)) or '(none)'}"
        )
    return builder(**params)
