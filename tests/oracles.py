"""Exact answers that the tests compare mkvlab against.

Each oracle computes its quantity by a route independent of the library
code it checks: a closed form, or a direct O(N²) reduction where the
library collapses a sum to O(N). ``centered_quartic`` is a measure function
with closed-form derivatives that only the tests differentiate. None of
them is part of the package.
"""

import numpy as np

from mkvlab.lions import MeasureFunction, _atoms, _fsum_mean, _scalar
from mkvlab.measure import evaluate_functionals
from mkvlab.model import evaluate_coefficients

#: Cloud-size cap for the O(N²) reference generator.
REFERENCE_CAP = 2000


def moment_ode_oracle(scenario, m0: float, t):
    """Closed-form fourth moment for the quartic scenario.

    The generator identity closes the fourth moment into the logistic ODE
    ṁ = 3m − 4m², solved by m(t) = 3m₀ / (4m₀ + (3 − 4m₀)e^{−3t}); the
    stationary value is 3/4. Accepts the scenario name or object; only the
    quartic scenario has a closed moment flow.
    """
    name = getattr(getattr(scenario, "model", scenario), "name", scenario)
    if name != "example1-quartic":
        raise ValueError(f"no closed moment flow for scenario {name!r}")
    if m0 < 0:
        raise ValueError("fourth moment m0 must be nonnegative")
    t = np.asarray(t, dtype=float)
    out = 3.0 * m0 / (4.0 * m0 + (3.0 - 4.0 * m0) * np.exp(-3.0 * t))
    return float(out) if out.ndim == 0 else out


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


def _trace_quadratic(s: np.ndarray, H: np.ndarray) -> np.ndarray:
    """tr(σσ* H) per row, for σ (N,d,d') and H (N,d,d)."""
    return np.einsum("nik,njk,nij->n", s, s, H)


def integrated_generator(model, lyap, t, mu, fv: dict | None = None) -> float:
    """∫ L^μ v dμ̂ over the (N, d) cloud ``mu``, from the full pairwise kernel.

    Materializes ∂_μ v(x_i)(y_j) and reduces it directly (O(N²), capped at
    N=2000): an independent check of the separable collapse that
    ``mkvlab.lyapunov.generator_values`` makes in O(N).
    """
    mu = np.asarray(mu, dtype=float)
    if fv is None:
        fv = evaluate_functionals(model.functionals, mu)
    n = mu.shape[0]
    if n > REFERENCE_CAP:
        raise ValueError(f"reference path capped at N={REFERENCE_CAP}, got {n}")

    b, s = evaluate_coefficients(model, t, mu, fv)
    local = (
        np.asarray(lyap.dv_dt(t, mu, fv), dtype=float)
        + np.einsum("nd,nd->n", b, np.asarray(lyap.dv_dx(t, mu, fv), dtype=float))
        + 0.5 * _trace_quadratic(s, np.asarray(lyap.d2v_dx2(t, mu, fv), dtype=float))
    )
    total = float(np.mean(local))
    for fac in lyap.measure_factors:
        xp = np.asarray(fac.x_part(t, mu, fv), dtype=float)  # (N,)
        grad = np.asarray(fac.y_grad(t, mu, fv), dtype=float)  # (N,d)
        # pairwise b(y_j)·∂_μ v(x_i)(y_j), shape (N, N)
        pair = xp[:, None] * np.einsum("md,md->m", b, grad)[None, :]
        if fac.y_hess is not None:
            hess_term = _trace_quadratic(
                s, np.asarray(fac.y_hess(t, mu, fv), dtype=float)
            )
            pair = pair + 0.5 * xp[:, None] * hess_term[None, :]
        total += float(np.mean(pair))
    return total
