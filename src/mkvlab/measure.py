"""Empirical-measure functionals and distances.

A measure μ̂ is passed as its cloud: an (N, d) float array of N ≥ 1 finite
samples, each of weight 1/N. A scalar or a 1-d array is N points of ℝ, by
the one shape rule, ``mkvlab.model.as_cloud``. Scalar functionals require
d = 1.

Conventions, fixed once:

* quantile at level s is the left-continuous generalized inverse evaluated
  on atoms: with order statistics x_(1) ≤ … ≤ x_(N) it returns x_(⌈sN⌉);
* expected shortfall at level α integrates the piecewise-constant empirical
  inverse CDF exactly: with m = ⌊αN⌋,
  ES(α) = (1/α)·[ (1/N)·Σ_{i≤m} x_(i) + (α − m/N)·x_(m+1) ],
  the partial term absent when αN is an integer (so ES(1) is the mean);
* the 1-d p-Wasserstein distance uses the sorted (monotone) coupling, which
  is optimal for convex costs of the difference;
* ``wasserstein_exact`` solves the assignment problem over permutations and
  returns the *unrooted* mean transport cost (so it matches W_p^p, and the
  semi-Wasserstein W_v̄ directly);
* W_v̄ takes no p-th root and is not a metric (the triangle inequality can
  fail); only v̄ ≥ 0, v̄ even, v̄(0) = 0 are required.

Distances are restricted to equal sample counts: couplings of uniform
empirical measures with equal N are exactly the permutations, making the
assignment solve exact. Unequal-weight couplings are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import MeasureFunctionalTag, as_cloud
from .parallel import tree_mean, tree_sum

__all__ = [
    "moment",
    "quantile",
    "expected_shortfall",
    "wasserstein_p_1d",
    "wasserstein_exact",
    "semi_wasserstein_vbar",
    "SemiWassersteinResult",
    "vbar_power",
    "evaluate_functionals",
]

#: Largest N for which the exact assignment solve is attempted.
ASSIGNMENT_CAP = 256

#: Relative slack when deciding whether s·N or α·N hit an integer exactly.
_LEVEL_EPS = 1e-9


def _cloud(mu, finite: bool = True) -> np.ndarray:
    """``mu`` under ``as_cloud``'s rule, refused unless a nonempty (N, d)
    array of finite samples (``finite=False`` skips that pass)."""
    x = as_cloud(mu)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("samples must be a nonempty (N, d) array")
    if finite and not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    return x


def _column(x: np.ndarray) -> np.ndarray:
    """The one coordinate of a d = 1 cloud."""
    if x.shape[1] != 1:
        raise ValueError(f"operation requires d=1 samples, got d={x.shape[1]}")
    return x[:, 0]


# ---------------------------------------------------------------------------
# scalar functionals: each public function checks its input, then reduces
# the column through a kernel that evaluate_functionals shares
# ---------------------------------------------------------------------------


def _moment(x: np.ndarray, p: float) -> float:
    return float(tree_mean(x**p))


def _quantile(x: np.ndarray, s: float) -> float:
    n = x.size
    idx = int(math.ceil(s * n - _LEVEL_EPS * n))
    return float(np.sort(x)[min(max(idx, 1), n) - 1])


def _smallest(x: np.ndarray, k: int, scratch: np.ndarray | None) -> np.ndarray:
    """The k smallest values of ``x``, ascending: a partition at k, then a
    sort of those k values only. ``scratch``, an (N,) float64 buffer, is
    where the partition runs instead of in a fresh copy; it is overwritten,
    and what is returned is a view of it."""
    if k >= x.size:
        return np.sort(x)[:k]
    if k == 0:
        return x[:0]
    # np.partition and np.sort copy, then work in place; so does this
    if scratch is None:
        part = x.copy()
    else:
        part = scratch
        np.copyto(part, x)
    part.partition(k - 1)
    part[:k].sort()
    return part[:k]


def _shortfall(x: np.ndarray, alpha: float, scratch: np.ndarray | None = None) -> float:
    n = x.size
    an = alpha * n
    m = min(int(math.floor(an + _LEVEL_EPS * n)), n)
    frac = an - m
    partial = frac > _LEVEL_EPS * n and m < n
    xs = _smallest(x, m + 1 if partial else m, scratch)
    total = float(tree_sum(xs[:m])) / n if m else 0.0
    if partial:
        total += frac / n * float(xs[m])
    return total / alpha


def moment(mu, p: float) -> float:
    """Raw moment (1/N) Σ x_i^p of a scalar empirical measure."""
    x = _cloud(mu)
    if p < 1:
        raise ValueError("moment order must be >= 1")
    return _moment(_column(x), p)


def quantile(mu, s: float) -> float:
    """Generalized-inverse quantile x_(⌈sN⌉) at level s ∈ (0, 1]."""
    x = _column(_cloud(mu))
    if not (0.0 < s <= 1.0):
        raise ValueError(f"quantile level must lie in (0, 1], got {s}")
    return _quantile(x, s)


def expected_shortfall(mu, alpha: float) -> float:
    """ES(α) = (1/α) ∫₀^α F⁻¹(s) ds for the empirical inverse CDF."""
    x = _column(_cloud(mu))
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"shortfall level must lie in (0, 1], got {alpha}")
    return _shortfall(x, alpha)


_KERNELS = {
    "raw-moment": lambda x, tag, scratch: _moment(x, tag.p),
    "mean": lambda x, tag, scratch: float(tree_mean(x)),
    "clipped-mean": lambda x, tag, scratch: float(tree_mean(np.clip(x, -1.0, 1.0))),
    "quantile": lambda x, tag, scratch: _quantile(x, tag.alpha),
    "expected-shortfall": lambda x, tag, scratch: _shortfall(x, tag.alpha, scratch),
}


def evaluate_functionals(
    tags: tuple[MeasureFunctionalTag, ...],
    samples: np.ndarray,
    scratch: np.ndarray | None = None,
    *,
    _finite: bool = False,
) -> dict:
    """Evaluate declared functionals on a raw (N, d) sample array.

    Returns {tag.key: float}. All reductions go through the deterministic
    tree so the values never depend on worker scheduling. ``scratch``, an
    (N,) float64 buffer, is where expected shortfall partitions (see
    ``_smallest``); the values do not change. ``_finite`` is for the Euler
    engine only: it skips the finiteness pass on positions its step has
    just checked.
    """
    x = _cloud(samples, not _finite)
    if not tags:
        return {}
    x = _column(x)
    return {tag.key: _KERNELS[tag.kind](x, tag, scratch) for tag in tags}


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def wasserstein_p_1d(mu, nu, p: float) -> float:
    """p-Wasserstein distance between equal-N scalar empirical measures.

    Sorted coupling; includes the p-th root. |a − b|^p is formed in the
    sorted copy of ``mu`` that this call owns.
    """
    a, b = _column(_cloud(mu)), _column(_cloud(nu))
    if p < 1:
        raise ValueError("Wasserstein order must be >= 1")
    if a.size != b.size:
        raise ValueError(f"sample counts differ: {a.size} vs {b.size}")
    a, b = np.sort(a), np.sort(b)
    # in place, ** takes the same scalar-power path
    diff = np.subtract(a, b, out=a)
    np.abs(diff, out=diff)
    diff **= p
    return float(tree_mean(diff)) ** (1.0 / p)


def wasserstein_exact(mu, nu, cost: float | Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact minimum of (1/N) Σ cost(x_i − y_π(i)) over permutations π.

    ``cost`` is either an exponent p (cost = |·|^p on the Euclidean norm of
    the difference) or a kernel applied to scalar differences (d = 1).
    Solved as an assignment problem; the oracle for the sorted shortcuts.
    """
    # imported on first use: scipy costs every other process ~0.5 s and ~50 MB
    from scipy.optimize import linear_sum_assignment

    x, y = _cloud(mu), _cloud(nu)
    n = x.shape[0]
    if n != y.shape[0]:
        raise ValueError(f"sample counts differ: {n} vs {y.shape[0]}")
    if n > ASSIGNMENT_CAP:
        raise ValueError(f"exact assignment capped at N={ASSIGNMENT_CAP}, got {n}")
    delta = x[:, None, :] - y[None, :, :]
    if callable(cost):
        if x.shape[1] != 1:
            raise ValueError("kernel costs require d=1 samples")
        cmat = np.asarray(cost(delta[:, :, 0]), dtype=float)
    else:
        p = float(cost)
        if p < 1:
            raise ValueError("cost exponent must be >= 1")
        cmat = np.linalg.norm(delta, axis=2) ** p
    if not np.isfinite(cmat).all():
        raise ValueError("non-finite transport cost")
    rows, cols = linear_sum_assignment(cmat)
    return float(cmat[rows, cols].mean())


@dataclass(frozen=True)
class SemiWassersteinResult:
    """Value of W_v̄ plus how it was obtained.

    ``exact`` is False only on the large-N non-convex fallback, where the
    sorted-coupling value is an upper bound rather than the infimum.
    """

    value: float
    exact: bool
    method: str

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class VBarKernel:
    """A difference kernel v̄ for the semi-Wasserstein distance."""

    fn: Callable[[np.ndarray], np.ndarray]
    convex: bool

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.fn(z)


def vbar_power(p: float) -> VBarKernel:
    """v̄(z) = |z|^p; convex for p ≥ 1."""
    if p <= 0:
        raise ValueError("kernel exponent must be positive")
    return VBarKernel(fn=lambda z: np.abs(z) ** p, convex=p >= 1.0)


def _validate_kernel(vbar, probe: np.ndarray) -> None:
    z0 = float(np.asarray(vbar(np.zeros(1)))[0])
    if z0 != 0.0:
        raise ValueError(f"kernel violates v̄(0) = 0 (got {z0})")
    vals = np.asarray(vbar(probe), dtype=float)
    if (vals < 0).any() or not np.isfinite(vals).all():
        raise ValueError("kernel violates v̄ ≥ 0 on the sampled differences")
    flipped = np.asarray(vbar(-probe), dtype=float)
    if not np.allclose(vals, flipped, rtol=1e-12, atol=0.0):
        raise ValueError("kernel violates evenness v̄(z) = v̄(−z)")


def semi_wasserstein_vbar(mu, nu, vbar) -> SemiWassersteinResult:
    """Semi-Wasserstein W_v̄(μ̂, ν̂) = inf_π (1/N) Σ v̄(x_i − y_π(i)).

    No p-th root. For d=1 with a kernel declared convex the sorted coupling
    is optimal; otherwise the exact assignment is solved up to the N cap,
    beyond which the sorted value is reported flagged as an upper bound.
    """
    x, y = _cloud(mu), _cloud(nu)
    n = x.shape[0]
    if n != y.shape[0]:
        raise ValueError(f"sample counts differ: {n} vs {y.shape[0]}")
    if x.shape[1] != 1 or y.shape[1] != 1:
        raise ValueError("semi-Wasserstein is implemented for d=1 samples")
    convex = bool(getattr(vbar, "convex", False))
    diffs = np.sort(x[:, 0]) - np.sort(y[:, 0])
    _validate_kernel(vbar, diffs)
    sorted_value = float(tree_mean(np.asarray(vbar(diffs), dtype=float)))
    if convex:
        return SemiWassersteinResult(sorted_value, True, "sorted-coupling")
    if n <= ASSIGNMENT_CAP:
        exact = wasserstein_exact(x, y, vbar)
        return SemiWassersteinResult(exact, True, "exact-assignment")
    return SemiWassersteinResult(sorted_value, False, "sorted-upper-bound")
