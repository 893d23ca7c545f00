"""Empirical-measure functionals and distances.

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

from .model import MeasureFunctionalTag
from .parallel import tree_mean, tree_sum

__all__ = [
    "EmpiricalMeasure",
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


class EmpiricalMeasure:
    """Uniform probability measure on N sample points of shape (N, d).

    A thin view over a sample array with a cached sort of coordinate 0;
    scalar functionals require d = 1. ``scratch``, an (N,) float64 buffer,
    is where ``smallest`` partitions instead of in a fresh copy; it is
    overwritten, and what ``smallest`` returns is a view of it.

    Samples must be finite. ``_finite`` is for the Euler engine only: it
    skips that check on positions its step has just checked.
    """

    def __init__(
        self,
        samples: np.ndarray,
        scratch: np.ndarray | None = None,
        *,
        _finite: bool = False,
    ):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError("samples must be a nonempty (N, d) array")
        if not _finite and not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        self.samples = samples
        self._scratch = scratch
        self._sorted: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def sorted_axis(self) -> np.ndarray:
        """Sorted copy of coordinate 0, cached."""
        if self._sorted is None:
            self._sorted = np.sort(self.samples[:, 0])
        return self._sorted

    def smallest(self, k: int) -> np.ndarray:
        """The k smallest values of coordinate 0, ascending.

        Equals ``sorted_axis()[:k]``. A slice of the cached sort when there
        is one; otherwise a partition at k followed by a sort of those k
        values only (nothing is cached).
        """
        if self._sorted is not None or k >= self.n:
            return self.sorted_axis()[:k]
        x = self.samples[:, 0]
        if k == 0:
            return x[:0]
        # np.partition and np.sort copy, then work in place; so does this
        if self._scratch is None:
            part = x.copy()
        else:
            part = self._scratch
            np.copyto(part, x)
        part.partition(k - 1)
        part[:k].sort()
        return part[:k]

    def scalar(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError(f"operation requires d=1 samples, got d={self.dim}")
        return self.samples[:, 0]


def _as_measure(mu, scratch=None, _finite=False) -> EmpiricalMeasure:
    if isinstance(mu, EmpiricalMeasure):
        return mu
    return EmpiricalMeasure(mu, scratch, _finite=_finite)


# ---------------------------------------------------------------------------
# scalar functionals
# ---------------------------------------------------------------------------


def moment(mu, p: float) -> float:
    """Raw moment (1/N) Σ x_i^p of a scalar empirical measure."""
    mu = _as_measure(mu)
    if p < 1:
        raise ValueError("moment order must be >= 1")
    x = mu.scalar()
    return float(tree_mean(x**p))


def quantile(mu, s: float) -> float:
    """Generalized-inverse quantile x_(⌈sN⌉) at level s ∈ (0, 1]."""
    mu = _as_measure(mu)
    mu.scalar()  # d = 1 only
    if not (0.0 < s <= 1.0):
        raise ValueError(f"quantile level must lie in (0, 1], got {s}")
    xs = mu.sorted_axis()
    n = mu.n
    idx = int(math.ceil(s * n - _LEVEL_EPS * n))
    idx = min(max(idx, 1), n)
    return float(xs[idx - 1])


def expected_shortfall(mu, alpha: float) -> float:
    """ES(α) = (1/α) ∫₀^α F⁻¹(s) ds for the empirical inverse CDF."""
    mu = _as_measure(mu)
    mu.scalar()  # d = 1 only
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"shortfall level must lie in (0, 1], got {alpha}")
    n = mu.n
    an = alpha * n
    m = int(math.floor(an + _LEVEL_EPS * n))
    m = min(m, n)
    frac = an - m
    partial = frac > _LEVEL_EPS * n and m < n
    xs = mu.smallest(m + 1 if partial else m)
    total = float(tree_sum(xs[:m])) / n if m else 0.0
    if partial:
        total += frac / n * float(xs[m])
    return total / alpha


def evaluate_functionals(
    tags: tuple[MeasureFunctionalTag, ...],
    samples: np.ndarray,
    scratch: np.ndarray | None = None,
    *,
    _finite: bool = False,
) -> dict:
    """Evaluate declared functionals on a raw (N, d) sample array.

    Returns {tag.key: float}. All reductions go through the deterministic
    tree so the values never depend on worker scheduling. ``scratch`` and
    the engine-only ``_finite`` are handed to ``EmpiricalMeasure`` (see
    there); the values do not change.
    """
    mu = _as_measure(samples, scratch, _finite)
    fv: dict = {}
    for tag in tags:
        if tag.kind == "raw-moment":
            fv[tag.key] = moment(mu, tag.p)
        elif tag.kind == "mean":
            fv[tag.key] = float(tree_mean(mu.scalar()))
        elif tag.kind == "clipped-mean":
            fv[tag.key] = float(tree_mean(np.clip(mu.scalar(), -1.0, 1.0)))
        elif tag.kind == "quantile":
            fv[tag.key] = quantile(mu, tag.alpha)
        elif tag.kind == "expected-shortfall":
            fv[tag.key] = expected_shortfall(mu, tag.alpha)
        else:  # pragma: no cover - guarded by the tag constructor
            raise ValueError(f"unhandled functional kind {tag.kind!r}")
    return fv


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def wasserstein_p_1d(mu, nu, p: float) -> float:
    """p-Wasserstein distance between equal-N scalar empirical measures.

    Sorted coupling; includes the p-th root. |a − b|^p is formed in a
    sorted copy this call owns, that of an array argument; a caller's
    ``EmpiricalMeasure`` keeps its cached sort.
    """
    owned = [not isinstance(m, EmpiricalMeasure) for m in (mu, nu)]
    mu, nu = _as_measure(mu), _as_measure(nu)
    mu.scalar(), nu.scalar()  # d = 1 only
    if p < 1:
        raise ValueError("Wasserstein order must be >= 1")
    if mu.n != nu.n:
        raise ValueError(f"sample counts differ: {mu.n} vs {nu.n}")
    a, b = mu.sorted_axis(), nu.sorted_axis()
    # in place, ** takes the same scalar-power path
    diff = np.subtract(a, b, out=a if owned[0] else b if owned[1] else None)
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

    mu, nu = _as_measure(mu), _as_measure(nu)
    if mu.n != nu.n:
        raise ValueError(f"sample counts differ: {mu.n} vs {nu.n}")
    if mu.n > ASSIGNMENT_CAP:
        raise ValueError(
            f"exact assignment capped at N={ASSIGNMENT_CAP}, got {mu.n}"
        )
    delta = mu.samples[:, None, :] - nu.samples[None, :, :]
    if callable(cost):
        if mu.dim != 1:
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
    mu, nu = _as_measure(mu), _as_measure(nu)
    if mu.n != nu.n:
        raise ValueError(f"sample counts differ: {mu.n} vs {nu.n}")
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("semi-Wasserstein is implemented for d=1 samples")
    convex = bool(getattr(vbar, "convex", False))
    diffs = mu.sorted_axis() - nu.sorted_axis()
    _validate_kernel(vbar, diffs if diffs.size else np.zeros(1))
    sorted_value = float(tree_mean(np.asarray(vbar(diffs), dtype=float)))
    if convex:
        return SemiWassersteinResult(sorted_value, True, "sorted-coupling")
    if mu.n <= ASSIGNMENT_CAP:
        exact = wasserstein_exact(mu, nu, vbar)
        return SemiWassersteinResult(exact, True, "exact-assignment")
    return SemiWassersteinResult(sorted_value, False, "sorted-upper-bound")
