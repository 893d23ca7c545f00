"""Measure-dependent generator, drift inequalities, and moment envelopes.

The central object is the generator of a measure-dependent diffusion acting
on a function v(t, x, μ):

    L^μ v = ∂_t v + b·∂_x v + ½ tr(σσ* ∂²_x v)
            + ∫ [ b(t,y,μ)·∂_μ v(t,x,μ)(y)
                  + ½ tr(σσ*(t,y,μ) ∂_y ∂_μ v(t,x,μ)(y)) ] μ(dy)

with μ an empirical measure, so the integral is an average over the cloud.
A Lyapunov package asserts L^μ v ≤ m1(t)·v + m2(t), either at every point
(pointwise mode) or after averaging in x against μ (integrated mode, which
is weaker). From the rates one gets explicit envelopes

    γ(t)  = exp(−∫₀ᵗ m1),
    M(t)  = Ev₀/γ(t) + ∫₀ᵗ (γ(s)/γ(t)) m2(s) ds,
    M⁺(t) = exp(∫₀ᵗ m1⁺) · (Ev₀ + ∫₀ᵗ γ(s) m2⁺(s) ds),

with M(t) ≤ M⁺(t), and exit-probability bounds P0 + M(t)/V_m (cut level)
or P0 + M⁺(t)/V_m (sub-level, pointwise mode) or M(t)/V_m (marginal,
integrated mode), where V_m is the boundary infimum of the floor function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import evaluate_functionals
from .model import ModelSpec, as_cloud, evaluate_coefficients
from .parallel import tree_mean

__all__ = [
    "Rate",
    "MeasureKernelFactor",
    "LyapunovSpec",
    "CheckRow",
    "CheckReport",
    "generator_values",
    "check_lyapunov_condition",
    "check_floor",
    "check_local_bound",
    "envelope_M",
    "envelope_Mplus",
    "exit_probability_bound",
]

#: Quadrature step for envelope integrals when no closed form applies.
DEFAULT_QUAD_STEP = 2.5e-4


# ---------------------------------------------------------------------------
# time-dependent rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rate:
    """Scalar rate t ↦ m(t): a ``constant`` c0, integrated exactly, or a
    ``callable`` fn(t), integrated by the trapezoid rule at
    ``DEFAULT_QUAD_STEP``.
    """

    kind: str
    c0: float = 0.0
    fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "callable"):
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if self.kind == "callable" and self.fn is None:
            raise ValueError("callable rate requires fn")

    @staticmethod
    def constant(value: float) -> "Rate":
        return Rate("constant", c0=float(value))

    @staticmethod
    def of(obj) -> "Rate":
        if isinstance(obj, Rate):
            return obj
        if callable(obj):
            return Rate("callable", fn=obj)
        return Rate.constant(float(obj))

    def pos(self) -> "Rate":
        """The rate t ↦ max(m(t), 0), of the same kind."""
        if self.kind == "constant":
            return Rate.constant(max(self.c0, 0.0))
        return Rate("callable", fn=lambda t: max(self(t), 0.0))

    def __call__(self, t: float) -> float:
        return self.c0 if self.kind == "constant" else float(self.fn(t))

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.kind == "constant":
            return np.full(ts.shape, self.c0)
        return np.array([self(s) for s in ts.ravel()]).reshape(ts.shape)

    def integral(self, t0: float, t1: float) -> float:
        """∫_{t0}^{t1} m(s) ds, exact for a constant."""
        if t1 < t0:
            return -self.integral(t1, t0)
        if t1 == t0:
            return 0.0
        if self.kind == "constant":
            return self.c0 * (t1 - t0)
        n = max(1, int(math.ceil((t1 - t0) / DEFAULT_QUAD_STEP)))
        ts = np.linspace(t0, t1, n + 1)
        return float(np.trapezoid(self.values(ts), ts))


# ---------------------------------------------------------------------------
# Lyapunov packages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureKernelFactor:
    """One separable term of the measure derivative of v.

    Encodes ∂_μ v(t,x,μ)(y) = x_part(t,x,fv) · y_grad(t,y,fv) and
    ∂_y ∂_μ v(t,x,μ)(y) = x_part(t,x,fv) · y_hess(t,y,fv). The separation is
    what lets the generator's measure integral collapse to a per-factor
    average over the cloud, computed once for all evaluation points.
    """

    x_part: Callable[[float, np.ndarray, dict], np.ndarray]  # (N,)
    y_grad: Callable[[float, np.ndarray, dict], np.ndarray]  # (M, d)
    y_hess: Callable[[float, np.ndarray, dict], np.ndarray] | None = None


@dataclass(frozen=True)
class LyapunovSpec:
    """A candidate v with its derivatives, floor, rates, and boundary infima.

    All spatial evaluables are vectorized over an (N, d) batch and receive
    the cloud's functional values ``fv`` so that measure-dependent v's can be
    evaluated without re-reducing the cloud. ``floor_V(t, x)`` must satisfy
    ∫V dμ̂ ≤ ∫v dμ̂ on every cloud; ``boundary_infimum(k)`` is the infimum of
    V on the boundary of the k-th ladder box, in closed form.
    """

    name: str
    mode: str  # "pointwise" | "integrated"
    v: Callable[[float, np.ndarray, dict], np.ndarray]
    dv_dt: Callable[[float, np.ndarray, dict], np.ndarray]
    dv_dx: Callable[[float, np.ndarray, dict], np.ndarray]
    d2v_dx2: Callable[[float, np.ndarray, dict], np.ndarray]
    m1: Rate
    m2: Rate
    floor_V: Callable[[float, np.ndarray], np.ndarray]
    boundary_infimum: Callable[[int], float]
    measure_factors: tuple[MeasureKernelFactor, ...] = ()

    def __post_init__(self):
        if self.mode not in ("pointwise", "integrated"):
            raise ValueError(f"unknown Lyapunov mode {self.mode!r}")

    def mean_v(self, t: float, x: np.ndarray, fv: dict) -> float:
        """∫v dμ̂: the mean of v(t, ·) over the cloud ``x``."""
        return float(tree_mean(np.asarray(self.v(t, x, fv), dtype=float)))


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _trace_quadratic(s: np.ndarray, H: np.ndarray) -> np.ndarray:
    """tr(σσ* H) per row, for σ (N,d,d') and H (N,d,d)."""
    return np.einsum("nik,njk,nij->n", s, s, H)


def _generator(lyap, t, x, fv, coefficients, y, y_coefficients):
    """(L^μ v, ∂_x v) at each row of ``x``, with μ the empirical measure of
    ``y``: ``coefficients`` = (b, σ) at ``x``, ``y_coefficients`` those at
    ``y`` (read only when v has measure factors), and ``fv`` the functional
    values every part of v is evaluated under.

    The measure integral is averaged over ``y`` once per separable factor
    and shared across all evaluation points, so it costs O(N) rather than
    O(N²).
    """
    (b, s), dvdx = coefficients, _floats(lyap.dv_dx(t, x, fv))
    out = _floats(lyap.dv_dt(t, x, fv)) + np.einsum("nd,nd->n", b, dvdx)
    out = out + 0.5 * _trace_quadratic(s, _floats(lyap.d2v_dx2(t, x, fv)))
    for fac in lyap.measure_factors:
        b_y, s_y = y_coefficients
        contrib = np.einsum("md,md->m", b_y, _floats(fac.y_grad(t, y, fv)))
        if fac.y_hess is not None:
            contrib = contrib + 0.5 * _trace_quadratic(s_y, _floats(fac.y_hess(t, y, fv)))
        out = out + _floats(fac.x_part(t, x, fv)) * float(tree_mean(contrib))
    return out, dvdx


def generator_values(
    model: ModelSpec,
    lyap: LyapunovSpec,
    t: float,
    x: np.ndarray,
    mu: np.ndarray,
    fv: dict | None = None,
) -> np.ndarray:
    """L^μ v at each row of ``x``, with μ the empirical measure of ``mu``.

    The coefficients are evaluated uncut, and at ``mu`` only when v has a
    measure factor; evaluating on x = mu costs O(N) rather than O(N²).
    """
    x, mu = as_cloud(x), as_cloud(mu)
    if fv is None:
        fv = evaluate_functionals(model.functionals, mu)
    at_x = evaluate_coefficients(model, t, x, fv)
    at_mu = evaluate_coefficients(model, t, mu, fv) if lyap.measure_factors else None
    return _generator(lyap, t, x, fv, at_x, mu, at_mu)[0]


# ---------------------------------------------------------------------------
# condition checks and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    probe: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass
class CheckReport:
    """Rows of (probe, lhs, rhs, margin) for an inequality lhs ≤ rhs."""

    title: str
    rows: list
    tolerance: float = 1e-9

    def worst(self) -> CheckRow | None:
        return min(self.rows, key=lambda r: r.margin) if self.rows else None

    def passed(self) -> bool:
        return all(r.margin >= -self.tolerance for r in self.rows)

def _sweep(model, t_samples, probes):
    """(label, cloud, fv, t) per probe cloud and time sample, labelled
    ``cloud<j>@t=<t>`` after the cloud's position."""
    for j, p in enumerate(probes):
        cloud = as_cloud(p)
        fv = evaluate_functionals(model.functionals, cloud)
        for t in np.atleast_1d(np.asarray(t_samples, dtype=float)).tolist():
            yield f"cloud{j:02d}@t={t:g}", cloud, fv, t


def check_lyapunov_condition(
    model, lyap, t_samples, probes, tolerance: float = 1e-9
) -> CheckReport:
    """Check L^μ v ≤ m1·v + m2 on every (t, probe cloud) pair.

    Integrated mode compares cloud averages; pointwise mode reports, per
    pair, the particle with the smallest margin. Negative margins beyond the
    tolerance are findings recorded in the report, never exceptions.
    """
    rows = []
    for label, cloud, fv, t in _sweep(model, t_samples, probes):
        gvals = generator_values(model, lyap, t, cloud, cloud, fv)
        if lyap.mode == "integrated":
            rhs = lyap.m1(t) * lyap.mean_v(t, cloud, fv) + lyap.m2(t)
            rows.append(CheckRow(label, float(tree_mean(gvals)), rhs))
        else:
            vvals = np.asarray(lyap.v(t, cloud, fv), dtype=float)
            bound = lyap.m1(t) * vvals + lyap.m2(t)
            i = int(np.argmin(bound - gvals))
            rows.append(CheckRow(f"{label}#p{i}", float(gvals[i]), float(bound[i])))
    return CheckReport(f"{lyap.mode} drift inequality [{lyap.name}]", rows, tolerance)


def check_floor(model, lyap, t_samples, probes, tolerance: float = 1e-9) -> CheckReport:
    """Check the floor inequality ∫V dμ̂ ≤ ∫v dμ̂ on probe clouds."""
    rows = []
    for label, cloud, fv, t in _sweep(model, t_samples, probes):
        lhs = float(tree_mean(np.asarray(lyap.floor_V(t, cloud), dtype=float)))
        rows.append(CheckRow(label, lhs, lyap.mean_v(t, cloud, fv)))
    return CheckReport(f"floor inequality [{lyap.name}]", rows, tolerance)


def check_local_bound(
    model,
    lyap,
    t_samples,
    probes,
    levels,
    tolerance: float = 1e-9,
) -> CheckReport:
    """Check sup_{x∈D_k} |b|, |σ| ≤ c_k(1 + ∫v dμ̂) for each level k.

    The sup is probed on the cloud's own points inside the box plus (in one
    dimension) a uniform grid across the box, against the functional values
    of the probe cloud.
    """
    rows = []
    for label, cloud, fv, t in _sweep(model, t_samples, probes):
        v_int = lyap.mean_v(t, cloud, fv)
        for k in levels:
            lo, hi = model.ladder.box(k)
            pts = [cloud[model.ladder.contains(cloud, k)]]
            if model.dim == 1:  # boxes are bounded: they lie inside the open D
                pts.append(np.linspace(lo[0], hi[0], 257)[:, None])
            xs = np.concatenate([p for p in pts if p.size], axis=0)
            if not xs.size:
                continue
            b, s = evaluate_coefficients(model, t, xs, fv)
            lhs = max(
                float(np.linalg.norm(b, axis=1).max()),
                float(np.sqrt((s**2).sum(axis=(1, 2))).max()),
            )
            rhs = model.local_bound(k) * (1.0 + v_int)
            rows.append(CheckRow(f"{label}/k={k}", lhs, rhs))
    return CheckReport(f"local coefficient bound [{model.name}]", rows, tolerance)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def _exp(x: float) -> float:
    """math.exp, saturating at +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _times(c: float, e: float) -> float:
    """c·e where e may have saturated at +inf: a zero coefficient keeps its
    term at 0 instead of the nan of 0·inf."""
    return c * e if c else 0.0


def _grid(t: float) -> np.ndarray:
    n = max(2, int(math.ceil(t / DEFAULT_QUAD_STEP)))
    return np.linspace(0.0, t, n + 1)


def _cum_integral(rate: Rate, ts: np.ndarray) -> np.ndarray:
    """Cumulative ∫₀^{ts} of the rate on the grid (trapezoid; exact for a
    constant)."""
    vals = rate.values(ts)
    seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(ts)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _weighted_quadrature(log_weight: np.ndarray, rate: Rate, ts: np.ndarray) -> float:
    """∫ e^{log_weight(s)} rate(s) ds over the grid, by the trapezoid rule;
    the integrand is 0 wherever the rate is, however large the weight."""
    vals = rate.values(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = np.where(vals == 0.0, 0.0, vals * np.exp(log_weight))
        return float(np.trapezoid(integrand, ts))


def envelope_M(lyap: LyapunovSpec, ev0: float, t: float) -> float:
    """M(t) = Ev₀/γ(t) + ∫₀ᵗ (γ(s)/γ(t)) m2(s) ds.

    Closed form when both rates are constant (all built-ins); otherwise
    cumulative-trapezoid quadrature at ``DEFAULT_QUAD_STEP``. Past the float
    range an exponential saturates at +inf, and a zero Ev₀ or m2 keeps its
    term at 0. Where a negative m2 makes the two terms inf − inf, M =
    (Ev₀ + ∫₀ᵗ γ m2)/γ(t) reads as its limit, ±inf by the bracket's sign;
    constant rates give the bracket Ev₀ + m2/m1, and −m2/m1 when it is 0.
    """
    if ev0 < 0:
        raise ValueError("initial expected Lyapunov value must be >= 0")
    m1, m2 = lyap.m1, lyap.m2
    if t == 0.0:
        return float(ev0)
    if m1.kind == m2.kind == "constant":
        a, c = m1.c0, m2.c0
        if a == 0.0:
            return ev0 + c * t
        e = _exp(a * t)
        out = _times(ev0, e) + _times(c, (e - 1.0) / a)
        return _times(ev0 + c / a, e) - c / a if math.isnan(out) else out
    ts = _grid(t)
    c1 = _cum_integral(m1, ts)  # ∫₀^s m1, so c1[-1] − c1 = ∫_s^t m1
    e = _exp(c1[-1])
    out = _times(ev0, e) + _weighted_quadrature(c1[-1] - c1, m2, ts)
    if math.isnan(out):
        return _times(ev0 + _weighted_quadrature(-c1, m2, ts), e)
    return out


def envelope_Mplus(lyap: LyapunovSpec, ev0: float, t: float) -> float:
    """M⁺(t) = exp(∫₀ᵗ m1⁺) · (Ev₀ + ∫₀ᵗ γ(s) m2⁺(s) ds) ≥ M(t), saturating
    at +inf as ``envelope_M`` does."""
    if ev0 < 0:
        raise ValueError("initial expected Lyapunov value must be >= 0")
    m1, m2 = lyap.m1, lyap.m2
    if t == 0.0:
        return float(ev0)
    lead = _exp(m1.pos().integral(0.0, t))
    if m1.kind == m2.kind == "constant":
        a, cp = m1.c0, max(m2.c0, 0.0)
        inner = cp * t if a == 0.0 else _times(cp, 1.0 - _exp(-a * t)) / a
    else:
        ts = _grid(t)
        inner = _weighted_quadrature(-_cum_integral(m1, ts), m2.pos(), ts)
    return _times(ev0 + inner, lead)


def exit_probability_bound(
    lyap: LyapunovSpec,
    ev0: float,
    t: float,
    m: int,
    p0_out: float = 0.0,
    kind: str = "cut",
) -> float:
    """Upper bound for domain-exit probabilities at ladder level m.

    kinds (all require the boundary infimum V_m > 0):
      * ``cut``      — P(exit of the level-m cut system before t)
                       ≤ P0_out + M(t)/V_m;
      * ``sublevel`` — P(any cut system leaves D_m before t)
                       ≤ P0_out + M⁺(t)/V_m, pointwise mode only;
      * ``marginal`` — P(position at time t outside D_m) ≤ M(t)/V_m,
                       no initial-mass term (integrated-mode estimate).

    ``p0_out`` is the initial mass outside D_m, P(x₀ ∉ D_m).
    """
    if not (0.0 <= p0_out <= 1.0):
        raise ValueError(f"initial outside-mass must be a probability, got {p0_out}")
    v_m = float(lyap.boundary_infimum(m))
    if v_m <= 0.0:
        raise ValueError(
            f"boundary infimum V_{m} = {v_m:g} is not positive; the exit "
            "bound is vacuous (degenerate floor)"
        )
    if kind == "cut":
        return p0_out + envelope_M(lyap, ev0, t) / v_m
    if kind == "sublevel":
        if lyap.mode != "pointwise":
            raise ValueError("sub-level bound requires the pointwise mode")
        return p0_out + envelope_Mplus(lyap, ev0, t) / v_m
    if kind == "marginal":
        return envelope_M(lyap, ev0, t) / v_m
    raise ValueError(f"unknown bound kind {kind!r}")
