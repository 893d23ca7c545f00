"""Composite experiments: coupled-path stability, replica law-agreement
probes, and stationary-measure estimation by long-run time averaging.

``stability_experiment`` drives two clouds with shared noise from different
initial laws and compares the measured contraction E v̄(x¹_t − x²_t) against
the certified envelope: exp(∫ g + h + 2|h|)·E v̄(Δ₀) when the rates bound the
coupled generator pointwise, or exp(∫ h)·E v̄(Δ₀) when they bound it only
after averaging against a coupling. The rates are analytic inputs — built-in
scenarios ship them — not fitted quantities.

``scheutzow_probe`` is a weak-uniqueness consistency check for saturated
interaction models: independent replicas started from one initial law must
agree *in law*, so the pairwise 1-Wasserstein distance between replica
empirical measures should sit at the N^{−1/2} Monte Carlo scale at every
checkpoint. Agreement is evidence, not proof; a violation is a finding.

``stationary_estimate`` realizes the time-averaging construction of
candidate invariant measures: the occupation measure pools cloud snapshots
uniformly over (0, T], and for a model whose envelope stays bounded
(m1 ≤ 0) the occupation measures should become Cauchy in W₁ as the horizon
doubles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .lyapunov import CheckReport, CheckRow, Rate
from .measure import evaluate_functionals, wasserstein_p_1d
from .model import ModelSpec
from .simulate import (
    DiagnosticsSeries,
    InitialLaw,
    NoiseStream,
    SimConfig,
    _run_clouds,
    coupled_simulate,
    grid_steps,
    simulate,
)

__all__ = [
    "POOL_CAP",
    "StabilityReport",
    "OccupationMeasure",
    "stability_experiment",
    "scheutzow_probe",
    "stationary_estimate",
]

POOL_CAP = 10**6


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def _abs_integral(rate: Rate, t: float) -> float:
    # |r| = 2r⁺ − r, exact for a constant rate
    return 2.0 * rate.pos().integral(0.0, t) - rate.integral(0.0, t)


@dataclass(frozen=True)
class StabilityReport:
    """Measured coupled-path distance against its certified envelope.

    ``mode`` records which drift condition the (g, h) pair certifies and
    hence which exponent the bound uses. The pass rule is
    measured ≤ bound·(1 + tolerance) at every checkpoint; ``band`` is the
    3-sigma cross-particle width of the measured mean, reported so callers
    can widen the comparison by Monte Carlo noise when appropriate.
    """

    times: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    band: np.ndarray
    mode: str
    g: Rate | None
    h: Rate
    tolerance: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.bound < 0):
            raise ValueError("stability bound series must be nonnegative")

    @property
    def margins(self) -> np.ndarray:
        return self.bound * (1.0 + self.tolerance) - self.measured

    @property
    def margin(self) -> float:
        return float(np.min(self.margins))

    def passed(self) -> bool:
        return bool(np.all(self.measured <= self.bound * (1.0 + self.tolerance)))


def stability_experiment(
    model: ModelSpec,
    vbar,
    g,
    h,
    cfg: SimConfig,
    init1: InitialLaw,
    init2: InitialLaw,
    mode: str = "pointwise",
    tolerance: float = 0.0,
) -> StabilityReport:
    """Coupled two-cloud run against the certified contraction envelope.

    ``g`` and ``h`` must certify the model's coupled generator for the
    kernel v̄ (built-ins ship them; see Scenario.stability): pointwise
    certificates use the exponent ∫ g + h + 2|h|, coupling-averaged
    ("integrated") certificates use ∫ h alone and ignore g.
    """
    if mode not in ("pointwise", "integrated"):
        raise ValueError(f"unknown stability mode {mode!r}")
    h = Rate.of(h)
    g_rate = None if g is None else Rate.of(g)
    if mode == "pointwise" and g_rate is None:
        raise ValueError("pointwise stability bound needs the rate g")
    dist = coupled_simulate(model, cfg, init1, init2, vbar)
    times = dist.column("t")
    measured = dist.column("dist")
    band = dist.column("band")
    ev0 = float(measured[0])
    if mode == "pointwise":
        exponents = np.array(
            [
                g_rate.integral(0.0, t)
                + h.integral(0.0, t)
                + 2.0 * _abs_integral(h, t)
                for t in times
            ]
        )
    else:
        exponents = np.array([h.integral(0.0, t) for t in times])
    bound = ev0 * np.exp(exponents)
    return StabilityReport(
        times=times,
        measured=measured,
        bound=bound,
        band=band,
        mode=mode,
        g=g_rate,
        h=h,
        tolerance=tolerance,
        meta={**dist.meta, "ev0": ev0},
    )


# ---------------------------------------------------------------------------
# replica probe
# ---------------------------------------------------------------------------


def scheutzow_probe(
    model: ModelSpec,
    cfg: SimConfig,
    seeds,
    init: InitialLaw,
) -> CheckReport:
    """Inter-replica law agreement for saturated-interaction models.

    Runs one replica per seed from the same initial law, as one block that
    gives each the numbers of its lone ``simulate`` run, and compares every
    replica pair's empirical measure by W₁ at each checkpoint, keeping no
    positions. Rows report (distance, 5·N^{−1/2}); margins below the
    tolerance are findings against weak uniqueness, not errors.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("replica probe needs at least two seeds")
    if model.dim != 1:
        raise ValueError("replica probe compares laws by 1-d W1")
    rhs = 5.0 / math.sqrt(cfg.n_particles)
    pairs = {(a, b): [] for a in range(len(seeds)) for b in range(a + 1, len(seeds))}

    def observe(clouds, fvs):
        for (a, b), rows in pairs.items():
            rows.append(
                CheckRow(
                    probe=f"t={clouds[a].t:g}:rep({seeds[a]},{seeds[b]})",
                    lhs=wasserstein_p_1d(clouds[a].x, clouds[b].x, 1.0),
                    rhs=rhs,
                )
            )

    clouds = [
        (init, int(s), NoiseStream.PURPOSE_INIT, NoiseStream.PURPOSE_STEP) for s in seeds
    ]
    _run_clouds(model, cfg, clouds, observe)
    rows = [row for pair in pairs.values() for row in pair]
    return CheckReport(f"inter-replica W1 agreement [{model.name}]", rows)


# ---------------------------------------------------------------------------
# stationary estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OccupationMeasure:
    """Time-averaged law estimate: the cloud at every checkpoint in
    (0, horizon], pooled uniformly and strided down to at most POOL_CAP
    points. The pooled count is exactly checkpoints_kept × particles_kept.
    ``samples`` keeps the checkpoints' time order and is read-only."""

    samples: np.ndarray
    horizon: float
    checkpoints_kept: int
    particles_kept: int

    def __post_init__(self):
        if self.samples.shape[0] != self.checkpoints_kept * self.particles_kept:
            raise ValueError("pooled sample count does not factor as kept×kept")

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def _plan_pools(cfg: SimConfig, horizons):
    """Every horizon's occupation measure, over buffers that
    ``fill(t, x)``, called at each checkpoint of the run, fills.

    Horizon h keeps the checkpoints in (0, h] and, from each, the rows
    0, stride, 2·stride, ... of the positions, with the stride that caps
    its pool at POOL_CAP rows. Horizons with the same stride share one
    buffer, sized for the longest of them: the checkpoints a shorter
    horizon keeps are the first ones a longer one keeps, so its pool is a
    prefix. Only ``fill`` writes the buffers: every pool is a read-only
    view. ``horizons`` must ascend. Returns (occupations, fill).
    """
    times = [k / cfg.steps_per_unit for k in cfg.checkpoint_steps()]
    n = cfg.n_particles
    kept, strides = [], []
    for h in horizons:
        kept.append(sum(1 for t in times if 0.0 < t <= h + 1e-12))
        if not kept[-1]:
            raise ValueError(f"no snapshots in (0, {h:g}]")
        per = max(1, min(n, POOL_CAP // kept[-1]))
        strides.append(-(-n // per))  # ceil
    # stride -> checkpoints its buffer holds: the last (longest) horizon's
    rows = dict(zip(strides, kept))
    m = {s: len(range(0, n, s)) for s in rows}
    buffers = {s: np.empty((k * m[s], 1)) for s, k in rows.items()}
    occupations = []
    for h, k, s in zip(horizons, kept, strides):
        samples = buffers[s][: k * m[s]]
        samples.flags.writeable = False
        occupations.append(
            OccupationMeasure(
                samples=samples, horizon=h, checkpoints_kept=k, particles_kept=m[s]
            )
        )
    filled = 0  # checkpoints in (0, T] written so far

    def fill(t, x):
        nonlocal filled
        if t > 0.0:
            for s, buf in buffers.items():
                if filled < rows[s]:
                    buf[filled * m[s] : (filled + 1) * m[s]] = x[::s]
            filled += 1

    return occupations, fill


def _common_subsample(a: np.ndarray, b: np.ndarray):
    m = min(a.shape[0], b.shape[0])

    def pick(x):
        if x.shape[0] == m:
            return x
        idx = (np.arange(m) * x.shape[0]) // m
        return x[idx]

    return pick(a), pick(b)


def stationary_estimate(
    model: ModelSpec,
    cfg: SimConfig,
    horizons,
    init: InitialLaw,
    lyap=None,
):
    """Occupation measures at increasing horizons with a Cauchy diagnostic.

    One run to the largest horizon fills every occupation measure at its
    checkpoints (the restriction of a longer run to an earlier window is
    bit-identical to the shorter run) and keeps no snapshot, so memory is
    the cloud plus the pools. One-dimensional models only. Checkpoints
    default to a uniform grid fine enough to give the shortest horizon 50
    in-window snapshots; that spacing must be a whole number of steps,
    else ValueError. Returns
    (occupations, diagnostics) where the diagnostics rows carry, per
    horizon, the declared functionals of the pooled samples and the W₁ gap
    to the previous horizon's occupation measure (nan for the first).

    When a Lyapunov package is supplied and its rate m1(t) is positive
    anywhere on [0, T] — so the envelope M(t) can grow without bound — a
    warning is emitted and the estimate proceeds.
    """
    horizons = sorted(float(t) for t in horizons)
    if not horizons or horizons[0] <= 0:
        raise ValueError("horizons must be positive")
    if model.dim != 1:
        raise ValueError("occupation measures are compared by 1-d W1")
    t_max = horizons[-1]
    if lyap is not None:
        grid = np.linspace(0.0, t_max, 201)
        if max(lyap.m1(t) for t in grid) > 0:
            warnings.warn(
                f"decay rate m1 is positive somewhere on [0, {t_max:g}]: the "
                "moment envelope may diverge and time averages may not "
                "stabilize",
                RuntimeWarning,
                stacklevel=2,
            )
    run_cfg = replace(cfg, horizon=t_max)
    if cfg.checkpoints is None:
        spacing = horizons[0] / 50.0
        steps = grid_steps(spacing, cfg.steps_per_unit)
        if steps is None or steps < 1:
            raise ValueError(
                f"the default checkpoint spacing {spacing!r} (shortest "
                f"horizon / 50) is not a whole number >= 1 of steps of "
                f"1/{cfg.steps_per_unit}"
            )
        marks = np.arange(0.0, t_max + spacing / 2, spacing)
        run_cfg = replace(run_cfg, checkpoints=marks)
    occupations, fill = _plan_pools(run_cfg, horizons)
    series = simulate(model, lyap, run_cfg, init, _on_checkpoint=fill)
    columns = ["horizon"] + list(model.functional_keys()) + ["w1_prev"]
    rows = []
    for j, occ in enumerate(occupations):
        fv = evaluate_functionals(model.functionals, occ.samples)
        gap = float("nan")
        if j > 0:
            a, b = _common_subsample(occupations[j - 1].samples, occ.samples)
            gap = wasserstein_p_1d(a, b, 1.0)
        rows.append(
            [occ.horizon]
            + [fv[key] for key in model.functional_keys()]
            + [gap]
        )
    meta = dict(series.meta)
    meta["horizons"] = "/".join(f"{t:g}" for t in horizons)
    meta["pool_cap"] = POOL_CAP
    diag = DiagnosticsSeries(columns=columns, rows=rows, meta=meta)
    return occupations, diag

