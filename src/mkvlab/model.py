"""Model declarations: coefficients, their measure dependence, domain ladders.

A model couples drift/diffusion coefficients to the *law* of the state, but
only through a declared finite list of functionals of that law (moments,
mean, quantile, expected shortfall). Restricting the measure dependence this
way keeps a simulation step at O(N) after one sort, and every built-in
scenario factors through such functionals.

State lives on an open domain D ⊆ ℝ^d exhausted by a nested ladder of closed
axis-aligned boxes D_1 ⊂ D_2 ⊂ … ("domain ladder"). Coefficients cut at
ladder level k vanish outside D_k; everything also vanishes outside D itself,
so a particle that leaves its box freezes where it lands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "as_cloud",
    "DomainLadder",
    "MeasureFunctionalTag",
    "ModelSpec",
    "evaluate_coefficients",
    "ladder_level",
]


def as_cloud(x) -> np.ndarray:
    """``x`` as a float cloud of shape (N, d), the one rule every entry point
    applies: a scalar or a 1-d array is N points of ℝ, shape (N, 1); a 2-d
    float array comes back as it is, not copied. Other shapes pass through
    for the caller to refuse.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return x[None, None]
    if x.ndim == 1:
        return x[:, None]
    return x


# ---------------------------------------------------------------------------
# domain ladders
# ---------------------------------------------------------------------------


def ladder_level(k) -> int:
    """``k`` as an integer ladder index; integral floats such as 4.0 pass.

    The ladder D_1 ⊂ D_2 ⊂ … is indexed by integers, so 2.5 is rejected
    rather than truncated to D_2.
    """
    if isinstance(k, (int, np.integer)):
        return int(k)
    if not float(k).is_integer():
        raise ValueError(f"ladder level must be an integer, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class DomainLadder:
    """An open box D with a nested ladder k ↦ D_k of closed boxes.

    ``lower``/``upper`` are the per-axis bounds of D (±inf allowed, bounds
    are open where finite). ``rule`` maps a ladder level k ≥ 1 to the closed
    box D_k as a pair of (d,) arrays; it must be pure, since each level's
    box is built once and kept.
    """

    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    rule: Callable[[int], tuple[np.ndarray, np.ndarray]]
    _boxes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.lower) != self.dim or len(self.upper) != self.dim:
            raise ValueError("bounds must have one entry per axis")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"empty domain axis [{lo}, {hi}]")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def full_space(dim: int = 1) -> "DomainLadder":
        """D = ℝ^d with D_k = [−k, k]^d."""

        def rule(k: int):
            return (np.full(dim, -float(k)), np.full(dim, float(k)))

        return DomainLadder(
            dim=dim,
            lower=(-np.inf,) * dim,
            upper=(np.inf,) * dim,
            rule=rule,
        )

    @staticmethod
    def positive_axis() -> "DomainLadder":
        """D = (0, ∞) with D_k = [1/k, k]."""

        def rule(k: int):
            return (np.array([1.0 / k]), np.array([float(k)]))

        return DomainLadder(
            dim=1,
            lower=(0.0,),
            upper=(np.inf,),
            rule=rule,
        )

    # -- membership --------------------------------------------------------

    def box(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The closed box D_k ⊂ D as read-only (lower, upper) arrays."""
        k = ladder_level(k)
        if k < 1:
            raise ValueError("ladder level must be >= 1")
        cached = self._boxes.get(k)
        if cached is None:
            cached = tuple(np.array(end, dtype=float) for end in self.rule(k))
            if not ((cached[0] > self.lower).all() and (cached[1] < self.upper).all()):
                raise ValueError(f"D_{k} = {cached} is not inside the open domain D")
            for end in cached:
                end.flags.writeable = False
            self._boxes[k] = cached
        return cached

    def contains(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        """Membership mask for positions ``x`` of shape (N, d).

        With ``k`` given, tests the closed box D_k; otherwise the open
        domain D (strict inequalities at finite bounds).
        """
        x = as_cloud(x)
        if k is not None:
            lo, hi = self.box(k)
            if self.dim == 1 and x.shape[1] == 1:
                col = x[:, 0]
                return (col >= lo[0]) & (col <= hi[0])
            return np.all((x >= lo) & (x <= hi), axis=1)
        ok = np.ones(x.shape[0], dtype=bool)
        for a, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if math.isfinite(lo):
                ok &= x[:, a] > lo
            if math.isfinite(hi):
                ok &= x[:, a] < hi
        return ok

    @cached_property
    def whole_space(self) -> bool:
        """True when D = ℝ^d: no bound is finite, so every position is in D."""
        return not any(math.isfinite(end) for end in (*self.lower, *self.upper))


# ---------------------------------------------------------------------------
# measure functionals
# ---------------------------------------------------------------------------

_FUNCTIONAL_KINDS = (
    "raw-moment",
    "mean",
    "clipped-mean",
    "quantile",
    "expected-shortfall",
)


@dataclass(frozen=True)
class MeasureFunctionalTag:
    """A declared functional of the empirical law.

    kinds: ``raw-moment`` (order p), ``mean``, ``clipped-mean``
    (∫ clip(y, −1, 1) μ(dy), the saturated interaction of the
    Scheutzow-style scenario), ``quantile`` (level α) and
    ``expected-shortfall`` (level α).
    """

    kind: str
    p: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _FUNCTIONAL_KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind == "raw-moment":
            if self.p is None or self.p < 1:
                raise ValueError("raw-moment order p must be >= 1")
        if self.kind in ("quantile", "expected-shortfall"):
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError(f"{self.kind} level must lie in (0, 1]")

    @property
    def key(self) -> str:
        """Name under which the value appears in fv dicts and CSV columns."""
        if self.kind == "raw-moment":
            return f"m{self.p:g}"
        if self.kind == "mean":
            return "mean"
        if self.kind == "clipped-mean":
            return "cmean"
        tag = "q" if self.kind == "quantile" else "es"
        return f"{tag}{self.alpha:g}".replace(".", "")


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Drift/diffusion coefficients with declared measure dependence.

    ``drift(t, x, fv) -> (N, d)`` and ``diffusion(t, x, fv) -> (N, d, d')``
    are pure vectorized callables; ``fv`` maps functional keys to scalars.
    A return that broadcasts to that shape is enough: a constant σ comes
    back as one (1, d, d') array instead of N copies of it.
    Coefficient factories are composed from a small vetted primitive set
    (polynomials, powers, max/min with constants, reciprocal on positive
    arguments); arbitrary user callbacks against μ are out of scope.

    ``local_bound(k)`` reports a constant c_k with
    |b| + |σ| ≤ c_k·(1 + Σ|fv|) on D_k for laws supported in D_k.
    """

    name: str
    dim: int
    noise_dim: int
    drift: Callable[[float, np.ndarray, dict], np.ndarray]
    diffusion: Callable[[float, np.ndarray, dict], np.ndarray]
    functionals: tuple[MeasureFunctionalTag, ...]
    ladder: DomainLadder
    local_bound: Callable[[int], float]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim != self.ladder.dim:
            raise ValueError("model dimension disagrees with its ladder")
        keys = tuple(f.key for f in self.functionals)
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate functional keys: {list(keys)}")
        # built once: evaluate_coefficients checks them on every call
        object.__setattr__(self, "_keys", keys)

    def functional_keys(self) -> tuple[str, ...]:
        return self._keys


def evaluate_coefficients(
    model: ModelSpec,
    t: float,
    x: np.ndarray,
    fv: dict | list,
    cut_level: int | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    *, _dead: np.ndarray | bool | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (b, σ) at (t, x, fv), zeroed outside D_k and outside D.

    ``x`` has shape (N, d); returns arrays of shape (N, d) and (N, d, d').
    Positions outside the open domain D get zero coefficients regardless of
    the cut; with ``cut_level=k`` so do positions outside the closed box D_k.
    A non-finite coefficient at a point that is *inside* the (cut) domain is
    a model bug and raises.

    ``fv`` may also be a list of R dicts when ``x`` stacks R clouds of equal
    size, one after the other: the model's callables then see each cloud's
    rows with that cloud's own dict, and the masking and the finiteness
    check run once over all rows.

    ``out`` = (b, σ) buffers of those shapes receive the result, which is
    then returned; otherwise fresh arrays are. The values are the same.

    ``_dead``, for the Euler engine only, is its mask of dead rows (or False
    for none): it stands in for ``cut_level``, both box tests and the key check.
    """
    x = as_cloud(x)
    fvs = [fv] if isinstance(fv, dict) else fv
    if x.shape[0] % len(fvs):
        raise ValueError(f"{x.shape[0]} rows do not split into {len(fvs)} clouds")
    if (dead := _dead) is None:
        for f in fvs:
            missing = [k for k in model.functional_keys() if k not in f]
            if missing:
                raise ValueError(f"missing functional values: {missing}")
        # D_k lies inside D; with no cut level, contains tests D itself
        dead = ~model.ladder.contains(x, cut_level)

    shape_b = (x.shape[0], model.dim)
    if out is None:
        out = (np.empty(shape_b), np.empty((*shape_b, model.noise_dim)))
    # np.where(alive, value, 0.0), written into the buffers: copy each
    # cloud's values (a short return broadcasts as it is copied), then zero
    # the dead rows
    n = x.shape[0] // len(fvs)
    with np.errstate(all="ignore"):
        for j, f in enumerate(fvs):
            rows = slice(j * n, (j + 1) * n)
            np.copyto(out[0][rows], np.asarray(model.drift(t, x[rows], f), float))
            np.copyto(out[1][rows], np.asarray(model.diffusion(t, x[rows], f), float))
    if dead is not False and dead.any():
        np.copyto(out[0], 0.0, where=dead[:, None])
        np.copyto(out[1], 0.0, where=dead[:, None, None])
    b, s = out
    # zeroed entries are finite, so a non-finite entry is an in-domain one
    if not (np.isfinite(b).all() and np.isfinite(s).all()):
        bad = ~(np.isfinite(b).all(axis=1) & np.isfinite(s).all(axis=(1, 2)))
        i = int(np.argmax(bad))
        raise FloatingPointError(
            f"model {model.name!r}: non-finite coefficient at in-domain "
            f"point x={x[i]} (t={t})"
        )
    return b, s
