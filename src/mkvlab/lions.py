"""Measure derivatives through the empirical lift, and Itô residual tests.

A function of a probability measure is differentiated here by perturbing one
atom of an N-point empirical measure and rescaling by N: the lifted gradient

    N · (u(μ̂ with x_i ← x_i + h·e_a) − u(μ̂ with x_i ← x_i − h·e_a)) / (2h)

converges to the measure derivative evaluated at x_i, and is *exact up to
central-difference truncation* for the symmetric functions kept in the
registry. Registry functions sum with ``math.fsum`` so that evaluation is
correctly rounded and therefore independent of atom order — duplicated
particles then receive bit-identical lifted gradients, which is what
``check_structure`` verifies (the gradient at a particle depends on its
value only, not its index).

Two residual tests back the calculus against the particle dynamics:

* ``ito_residual_measure`` — for u(μ̂_t) along a simulated cloud, accumulate
  the generator term (1/N)Σ_i [b·g(x_i) + ½tr(σσ*H(x_i))]Δt with the
  analytic derivatives g = ∂_μu, H = ∂_y∂_μu at the left endpoint of each
  step, and report R(t) = u(μ̂_t) − u(μ̂_0) − accumulator. The residual is
  O(Δt) + a martingale fluctuation of size O(N^{−1/2}); the reported band is
  three standard deviations of the accumulated martingale variance.
* ``ito_residual_full`` — per-particle version for v(t, x_t, μ_t): the
  measure terms of the generator are averaged over an *independent* second
  cloud (same stream, its own noise purposes), mirroring the
  product-space construction behind the formula, and the stochastic
  integral ∂_x v·σ dw is subtracted using the realized increments, so the
  mean residual is centered; the band is a 3-sigma CLT width across
  particles.

Both residuals run on the engine's own time loop (``simulate._run_clouds``:
cut coefficients, frozen exits, the noise layout, the reused workspace) and
accumulate their generator terms in its per-step hook, which sees the
coefficients that move the particles, evaluated once per step. The full
residual's two clouds step as one block, each on its own noise purposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lyapunov import CheckReport, CheckRow, LyapunovSpec
from .measure import EmpiricalMeasure, evaluate_functionals
from .model import ModelSpec
from .parallel import tree_mean
from .simulate import (
    DiagnosticsSeries,
    InitialLaw,
    NoiseStream,
    SimConfig,
    _base_meta,
    _run_clouds,
    _start,
)

# unused here; bench/spans.py traces them by their names in this module
from .model import evaluate_coefficients  # noqa: F401
from .simulate import euler_step  # noqa: F401

__all__ = [
    "FD_STEP_SCALE",
    "MeasureFunction",
    "moment_function",
    "mean_square_function",
    "centered_quartic",
    "registry_function",
    "REGISTRY",
    "lift_gradient",
    "check_structure",
    "ito_residual_measure",
    "ito_residual_full",
]

# optimum scale for central differences: cube root of machine epsilon
FD_STEP_SCALE = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _atoms(mu) -> np.ndarray:
    if isinstance(mu, EmpiricalMeasure):
        return mu.samples
    x = np.asarray(mu, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("expected an (N, d) sample cloud")
    return x


def _scalar(x: np.ndarray) -> np.ndarray:
    if x.shape[1] != 1:
        raise ValueError("registry measure functions are one-dimensional")
    return x[:, 0]


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _fsum_mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / len(values)


@dataclass(frozen=True)
class MeasureFunction:
    """A scalar function of a probability measure with optional analytic
    derivatives.

    ``fn(samples) -> float`` evaluates on an (N, d) atom array (or an
    EmpiricalMeasure). ``d_mu(samples, y) -> (M, d)`` is the measure
    derivative evaluated at the points y given the measure; ``dy_d_mu`` its
    y-Jacobian, shape (M, d, d). ``fd_scale(samples) -> float`` bounds the
    third-derivative constant in the central-difference error h²·fd_scale,
    used to size tolerances.
    """

    uid: str
    fn: Callable
    d_mu: Callable | None = None
    dy_d_mu: Callable | None = None
    fd_scale: Callable | None = None

    def __call__(self, mu) -> float:
        value = float(self.fn(_atoms(mu)))
        if not math.isfinite(value):
            raise FloatingPointError(f"measure function {self.uid!r} returned {value}")
        return value


def moment_function(p: int) -> MeasureFunction:
    """u(μ) = ∫x^p μ(dx) with its exact derivatives p·y^{p−1}, p(p−1)·y^{p−2}."""
    p = int(p)
    if p < 1:
        raise ValueError("moment order must be a positive integer")

    def fn(samples):
        return _fsum_mean(_scalar(samples) ** p)

    def d_mu(samples, y):
        return p * _atoms(y) ** (p - 1)

    def dy_d_mu(samples, y):
        y = _atoms(y)
        if p < 2:
            return np.zeros((y.shape[0], 1, 1))
        return (p * (p - 1) * _scalar(y) ** (p - 2))[:, None, None]

    def fd_scale(samples):
        if p < 3:
            return 0.0
        amax = float(np.max(np.abs(_scalar(samples))))
        return p * (p - 1) * (p - 2) * amax ** (p - 3) / 6.0

    uid = "mean" if p == 1 else f"moment{p}"
    return MeasureFunction(uid, fn, d_mu, dy_d_mu, fd_scale)


def mean_square_function() -> MeasureFunction:
    """u(μ) = (∫x μ(dx))²; derivative 2·mean at every y (constant in y)."""

    def fn(samples):
        return _fsum_mean(_scalar(samples)) ** 2

    def d_mu(samples, y):
        m = _fsum_mean(_scalar(_atoms(samples)))
        return np.full((_atoms(y).shape[0], 1), 2.0 * m)

    def dy_d_mu(samples, y):
        return np.zeros((_atoms(y).shape[0], 1, 1))

    return MeasureFunction("mean-square", fn, d_mu, dy_d_mu, lambda s: 0.0)


def centered_quartic(xbar: float, alpha: float) -> MeasureFunction:
    """u(μ) = (x̄ − α·∫y μ(dy))⁴ at a frozen point x̄ — the measure slice of
    the centered-quartic Lyapunov function; derivative −4α(x̄ − α·mean)³."""

    def fn(samples):
        return (xbar - alpha * _fsum_mean(_scalar(samples))) ** 4

    def d_mu(samples, y):
        m = _fsum_mean(_scalar(_atoms(samples)))
        g = -4.0 * alpha * (xbar - alpha * m) ** 3
        return np.full((_atoms(y).shape[0], 1), g)

    def dy_d_mu(samples, y):
        return np.zeros((_atoms(y).shape[0], 1, 1))

    return MeasureFunction(
        f"centered-quartic(x={xbar:g},alpha={alpha:g})", fn, d_mu, dy_d_mu, lambda s: 0.0
    )


REGISTRY = {
    f.uid: f
    for f in (
        moment_function(1),
        moment_function(2),
        moment_function(4),
        mean_square_function(),
    )
}


def registry_function(uid: str) -> MeasureFunction:
    try:
        return REGISTRY[uid]
    except KeyError:
        raise ValueError(
            f"unknown measure function {uid!r}; available: "
            f"{', '.join(sorted(REGISTRY))}"
        ) from None


# ---------------------------------------------------------------------------
# empirical lift
# ---------------------------------------------------------------------------


def _fd_step(xi: np.ndarray, h: float | None) -> float:
    if h is None:
        return FD_STEP_SCALE * (1.0 + float(np.linalg.norm(xi)))
    if not h > 0:
        raise ValueError("finite-difference step h must be positive")
    return float(h)


def lift_gradient(u, mu, i: int, h: float | None = None) -> np.ndarray:
    """Measure derivative of u at atom i of the empirical measure.

    Central difference of the lifted function across the single perturbed
    atom, scaled by N. For registry functions this equals the analytic
    derivative up to the h² truncation error bounded by ``u.fd_scale``.
    """
    x = _atoms(mu).copy()
    n, d = x.shape
    if not 0 <= i < n:
        raise IndexError(f"particle index {i} out of range for cloud of {n}")
    xi = x[i].copy()
    step = _fd_step(xi, h)
    grad = np.empty(d)
    for a in range(d):
        x[i, a] = xi[a] + step
        up = u(x)
        x[i, a] = xi[a] - step
        dn = u(x)
        x[i, a] = xi[a]
        grad[a] = n * (up - dn) / (2.0 * step)
    if not np.isfinite(grad).all():
        raise FloatingPointError(
            f"non-finite lifted gradient for {getattr(u, 'uid', u)!r} at atom {i}"
        )
    return grad


def check_structure(u, mu, h: float | None = None) -> CheckReport:
    """Verify the lifted gradient depends on an atom's value, not its index.

    Every pair of exactly duplicated atoms must receive gradients that agree
    within the finite-difference tolerance 10·h²·scale; when the cloud has
    no duplicates, the last atom is replaced by a copy of the first so the
    property is always exercised. Rows report (deviation, tolerance) per
    pair, so the margin is the headroom under the tolerance.
    """
    x = _atoms(mu).copy()
    n = x.shape[0]
    seen: dict = {}
    pairs = []
    for i in range(n):
        key = x[i].tobytes()
        if key in seen:
            pairs.append((seen[key], i))
        else:
            seen[key] = i
    title = f"lift-gradient structure [{getattr(u, 'uid', 'callable')}]"
    if not pairs:
        if n < 2:
            raise ValueError("structure check needs at least two atoms")
        x[n - 1] = x[0]
        pairs = [(0, n - 1)]
        title += " (injected duplicate)"
    rows = []
    for i, j in pairs:
        gi = lift_gradient(u, x, i, h)
        gj = lift_gradient(u, x, j, h)
        step = _fd_step(x[i], h)
        scale = 1.0 + max(float(np.max(np.abs(gi))), float(np.max(np.abs(gj))))
        if getattr(u, "fd_scale", None) is not None:
            scale += float(u.fd_scale(x))
        rows.append(
            CheckRow(
                probe=f"dup({i},{j})",
                lhs=float(np.max(np.abs(gi - gj))),
                rhs=10.0 * step * step * scale,
            )
        )
    return CheckReport(title, rows)


# ---------------------------------------------------------------------------
# Itô residual tests
# ---------------------------------------------------------------------------


def _residual_meta(model, cfg, kind: str, label: str) -> dict:
    meta = _base_meta(model, cfg)
    meta["residual"] = kind
    meta["function"] = label
    return meta


def ito_residual_measure(
    u: MeasureFunction,
    model: ModelSpec,
    cfg: SimConfig,
    init: InitialLaw,
) -> DiagnosticsSeries:
    """Residual of the measure-only Itô expansion along a simulated cloud.

    R(t) = u(μ̂_t) − u(μ̂_0) − Σ_steps (1/N)Σ_i [b·∂_μu(x_i)
           + ½tr(σσ*∂_y∂_μu(x_i))]·Δt,

    accumulated at the left endpoint of each step with the same cut
    coefficients that advance the particles. Emitted per checkpoint with a
    3-sigma band for the accumulated martingale variance
    Σ (Δt/N²)Σ_i|σ*∂_μu(x_i)|².
    """
    if u.d_mu is None or u.dy_d_mu is None:
        raise ValueError(f"measure function {u.uid!r} lacks analytic derivatives")
    noise = NoiseStream(cfg.seed, cfg.stream)
    clouds = [_start(model, cfg, noise, init)]
    fvs = [evaluate_functionals(model.functionals, clouds[0].x)]
    u0, acc, mart_var = u(clouds[0].x), 0.0, 0.0
    rows = [[0.0, 0.0, 0.0]]

    def before_step(clouds, fvs, coefficients, dw):
        nonlocal acc, mart_var
        x, (b, s) = clouds[0].x, coefficients
        g = u.d_mu(x, x)
        hess = u.dy_d_mu(x, x)
        drift = np.einsum("nd,nd->n", b, g)
        trace = np.einsum("nik,njk,nij->n", s, s, hess)
        acc += cfg.dt * float(tree_mean(drift + 0.5 * trace))
        sg = np.einsum("nd,ndk->nk", g, s)
        mart_var += cfg.dt * float(tree_mean(np.einsum("nk,nk->n", sg, sg))) / len(x)

    def observe(clouds, fvs):
        cloud = clouds[0]
        if cloud.step:
            rows.append([cloud.t, u(cloud.x) - u0 - acc, 3.0 * math.sqrt(mart_var)])

    _run_clouds(model, cfg, noise, clouds, fvs, observe, hook=before_step)
    return DiagnosticsSeries(
        columns=["t", "R", "band"],
        rows=rows,
        meta=_residual_meta(model, cfg, "measure", u.uid),
    )


def ito_residual_full(
    lyap: LyapunovSpec,
    model: ModelSpec,
    cfg: SimConfig,
    init: InitialLaw,
    init2: InitialLaw | None = None,
) -> DiagnosticsSeries:
    """Per-particle residual of the full Itô expansion of v(t, x_t, μ_t).

    The local terms use each tagged particle's own path; the measure terms
    average the companion-cloud coefficients (evaluated under the companion
    cloud's own functional values — it is an independent copy of the same
    dynamics, drawing its initial law and increments on the pair's second
    noise purposes) against v's measure factors taken at the primary
    cloud's law. The stochastic integral
    ∂_x v·σ dw is subtracted with the realized increments, so the residual
    mean across particles is centered; rows report that mean with a 3-sigma
    cross-particle band.
    """
    noise = NoiseStream(cfg.seed, cfg.stream)
    clouds = [
        _start(model, cfg, noise, init),
        _start(model, cfg, noise, init2 or init, NoiseStream.PURPOSE_INIT2),
    ]
    fvs = [evaluate_functionals(model.functionals, c.x) for c in clouds]
    v0 = _floats(lyap.v(0.0, clouds[0].x, fvs[0]))
    n = cfg.n_particles
    acc, mart = np.zeros(n), np.zeros(n)
    rows = [[0.0, 0.0, 0.0]]

    def before_step(clouds, fvs, coefficients, dw):
        # the primary cloud's rows come first in the block, the companion's next
        nonlocal acc, mart
        x, y, fv, t = clouds[0].x, clouds[1].x, fvs[0], clouds[0].t
        (b, b2), (s, s2) = (np.split(c, 2) for c in coefficients)
        dvdx = _floats(lyap.dv_dx(t, x, fv))
        local = (
            _floats(lyap.dv_dt(t, x, fv))
            + np.einsum("nd,nd->n", b, dvdx)
            + 0.5 * np.einsum("nik,njk,nij->n", s, s, _floats(lyap.d2v_dx2(t, x, fv)))
        )
        measure = np.zeros(n)
        for factor in lyap.measure_factors:
            grad = _floats(factor.y_grad(t, y, fv))
            inner = float(tree_mean(np.einsum("md,md->m", b2, grad)))
            if factor.y_hess is not None:
                hess = _floats(factor.y_hess(t, y, fv))
                trace = np.einsum("mik,mjk,mij->m", s2, s2, hess)
                inner += 0.5 * float(tree_mean(trace))
            measure = measure + _floats(factor.x_part(t, x, fv)) * inner
        acc += cfg.dt * (local + measure)
        mart += np.einsum("nd,ndk,nk->n", dvdx, s, dw[:n])

    def observe(clouds, fvs):
        cloud = clouds[0]
        if cloud.step:
            resid = _floats(lyap.v(cloud.t, cloud.x, fvs[0])) - v0 - acc - mart
            band = 3.0 * float(np.std(resid, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
            rows.append([cloud.t, float(tree_mean(resid)), band])

    _run_clouds(
        model, cfg, noise, clouds, fvs, observe, hook=before_step,
        purposes=(NoiseStream.PURPOSE_STEP, NoiseStream.PURPOSE_STEP2),
    )
    return DiagnosticsSeries(
        columns=["t", "R", "band"],
        rows=rows,
        meta=_residual_meta(model, cfg, "full", lyap.name),
    )
