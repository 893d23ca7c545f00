"""Localized Euler–Maruyama engine over interacting particle clouds.

The scheme discretizes dx = b(t, x, 𝓛(x)) dt + σ(t, x, 𝓛(x)) dw on the grid
t_i = i/n, replacing the law 𝓛(x_t) by the N-particle empirical measure and
the coefficients by their localized versions: zero outside the open domain D
and — at cut level k — zero outside the closed box D_k. A particle whose
position leaves D_k therefore keeps zero coefficients forever: it freezes at
its landing point (extension by zero; no reflection, no rejection).

Two lag flags are accepted. ``kappa_n`` evaluates state and functionals at
the lag point κ_n(t) = ⌊tn⌋/n; ``none`` evaluates the state "currently" with
functionals from the step's left endpoint. On the integration grid these
coincide — the current state at the start of step i *is* the state at
κ_n(t_i) — so the flag is recorded but the arithmetic is shared, and tests
pin the two modes to bit-identical trajectories.

Every random number is a pure function of (seed, stream, purpose, step,
particle, axis), with no generator state carried across calls, so results
are bit-identical across worker counts and across restarts. Gaussian
increments are numpy's ziggurat on a Philox generator keyed by (seed,
stream|purpose|step): prefix-stable over particles, and byte-reproducible
for a given numpy version (see ``NoiseStream``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measure import evaluate_functionals
from .model import ModelSpec, evaluate_coefficients, ladder_level
from .parallel import WorkerPool, tree_mean

__all__ = [
    "BlowUpError",
    "SimConfig",
    "InitialLaw",
    "PointMass",
    "UniformBox",
    "Samples",
    "load_initial_samples",
    "NoiseStream",
    "ParticleCloud",
    "kappa_n",
    "euler_step",
    "simulate",
    "coupled_simulate",
    "DiagnosticsSeries",
]

LAG_MODES = ("none", "kappa_n")

_U64 = (1 << 64) - 1


class BlowUpError(RuntimeError):
    """A particle position became non-finite: the model blew up.

    Carries the step index and grid time at which the first bad position was
    produced; positions are never clamped or masked.
    """

    def __init__(self, message: str, step: int, time: float):
        super().__init__(message)
        self.step = step
        self.time = time


def kappa_n(t: float, n: int) -> float:
    """The lag point κ_n(t) = ⌊t·n⌋/n (left grid neighbour of t)."""
    if n < 1:
        raise ValueError("grid density n must be >= 1")
    return math.floor(t * n) / n


# ---------------------------------------------------------------------------
# counter-based noise
# ---------------------------------------------------------------------------


class NoiseStream:
    """Stateless Gaussian/uniform noise addressed by integer coordinates.

    Each scalar draw is a pure function of (seed, stream, purpose, step,
    particle, axis). Every (purpose, step) pair keys its own Philox counter
    generator with (seed, stream|purpose|step), so no generator state is
    carried between calls.

    * ``normals`` are numpy's ziggurat (``Generator.standard_normal``) on
      that key, laid out row-major over (particle, axis). The ziggurat
      consumes a variable number of raw words per draw, so normals are
      *prefix-stable* rather than random-access: the first k rows never
      depend on how many rows were asked for, and a nonzero
      ``start_particle`` draws the rows before it and slices them off.
      They are byte-reproducible for a given numpy version only
      (``standard_normal`` is outside numpy's raw-bit-stream guarantee).
    * ``uniforms`` stay random-access: the raw 64-bit word at flat offset
      particle·width + axis maps to (0, 1) via ((raw >> 11) + 0.5)·2⁻⁵³.

    Either way values never depend on which worker produced neighbouring
    blocks. Purposes 2 and 3 belong to the second cloud of a pair (coupled
    runs, the Itô companion), so two clouds never share a draw by accident.
    """

    PURPOSE_STEP = 0
    PURPOSE_INIT = 1
    PURPOSE_INIT2 = 2
    PURPOSE_STEP2 = 3

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _U64
        if not 0 <= stream < 256:
            raise ValueError("stream id must be in [0, 256)")
        self.stream = stream

    def _generator(self, purpose: int, step: int) -> np.random.Generator:
        if not 0 <= purpose < 256:
            raise ValueError("purpose id must be in [0, 256)")
        if step < 0 or step >= 1 << 48:
            raise ValueError("step index out of the 48-bit key range")
        word = (self.stream << 56) | (purpose << 48) | step
        key = np.array([self.seed, word], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def _raw(self, purpose: int, step: int, start: int, count: int) -> np.ndarray:
        gen = self._generator(purpose, step)
        # Philox yields 4 raw words per counter increment; position the
        # counter at the enclosing multiple of 4 and discard the remainder.
        gen.bit_generator.advance(start // 4)
        skip = start % 4
        raw = gen.integers(
            0, 1 << 64, size=skip + count, dtype=np.uint64, endpoint=False
        )
        return raw[skip:]

    def uniforms(self, purpose, step, start_particle, count, width) -> np.ndarray:
        """Strictly-interior (0,1) uniforms, shape (count, width)."""
        raw = self._raw(purpose, step, start_particle * width, count * width)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return u.reshape(count, width)

    def normals(self, purpose, step, start_particle, count, width) -> np.ndarray:
        """Standard normals, shape (count, width) (ziggurat, prefix-stable)."""
        z = self._generator(purpose, step).standard_normal(
            (start_particle + count, width)
        )
        return z[start_particle:]

    def increments(
        self, step, start_particle, count, width, dt, purpose=PURPOSE_STEP
    ) -> np.ndarray:
        """Brownian increments √Δt·z for one Euler step."""
        dw = self.normals(purpose, step, start_particle, count, width)
        dw *= math.sqrt(dt)
        return dw


# ---------------------------------------------------------------------------
# configuration and initial laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for one particle-cloud simulation.

    ``steps_per_unit`` is the grid density n (Δt = 1/n); ``cut_level`` is
    the localization level k; ``exit_levels`` lists the ladder levels m ≤ k
    whose first-exit steps are tracked (the cut level itself is always
    tracked). Levels are integers: integral floats are converted, anything
    else is rejected. ``threads`` is the resolved worker count — it influences
    scheduling only, never results.
    """

    n_particles: int
    horizon: float
    steps_per_unit: int
    cut_level: int
    seed: int
    exit_levels: tuple = ()
    lag: str = "none"
    threads: int = 1
    checkpoints: tuple | None = None
    stream: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.steps_per_unit < 1:
            raise ValueError("steps_per_unit must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        cut = ladder_level(self.cut_level)
        if cut < 1:
            raise ValueError("cut level must be >= 1")
        object.__setattr__(self, "cut_level", cut)
        if self.lag not in LAG_MODES:
            raise ValueError(f"lag must be one of {LAG_MODES}, got {self.lag!r}")
        levels = tuple(ladder_level(m) for m in self.exit_levels)
        if list(levels) != sorted(set(levels)):
            raise ValueError("exit levels must be sorted and unique")
        if any(m < 1 or m > self.cut_level for m in levels):
            raise ValueError("exit levels must satisfy 1 <= m <= cut level")
        object.__setattr__(self, "exit_levels", levels)
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @property
    def dt(self) -> float:
        return 1.0 / self.steps_per_unit

    @property
    def total_steps(self) -> int:
        steps = round(self.horizon * self.steps_per_unit)
        return max(int(steps), 1)

    def tracked_levels(self) -> tuple:
        return tuple(sorted(set(self.exit_levels) | {self.cut_level}))

    def checkpoint_steps(self) -> tuple:
        """Grid indices at which diagnostics are recorded (0 and T always)."""
        total = self.total_steps
        if self.checkpoints is None:
            want = np.linspace(0.0, self.horizon, 51)
        else:
            want = np.asarray(self.checkpoints, dtype=float)
            if (want < 0).any() or (want > self.horizon + 1e-12).any():
                raise ValueError("checkpoints must lie in [0, horizon]")
        idx = np.rint(want * self.steps_per_unit).astype(int)
        idx = np.clip(idx, 0, total)
        return tuple(sorted(set(idx.tolist()) | {0, total}))


class InitialLaw:
    """Base class of initial distributions for the particle cloud."""

    def sample(
        self,
        n: int,
        dim: int,
        noise: NoiseStream,
        purpose: int = NoiseStream.PURPOSE_INIT,
    ) -> np.ndarray:
        """Draw n initial positions; random laws use ``noise`` on ``purpose``."""
        raise NotImplementedError


@dataclass(frozen=True)
class PointMass(InitialLaw):
    point: tuple

    def __init__(self, point):
        if np.ndim(point) == 0:
            point = (float(point),)
        object.__setattr__(self, "point", tuple(float(c) for c in point))

    def sample(self, n, dim, noise, purpose=NoiseStream.PURPOSE_INIT):
        if len(self.point) != dim:
            raise ValueError(
                f"point mass has dim {len(self.point)}, model has dim {dim}"
            )
        return np.tile(np.array(self.point, dtype=float), (n, 1))


@dataclass(frozen=True)
class UniformBox(InitialLaw):
    lower: tuple
    upper: tuple

    def __init__(self, lower, upper):
        lower = (float(lower),) if np.ndim(lower) == 0 else tuple(map(float, lower))
        upper = (float(upper),) if np.ndim(upper) == 0 else tuple(map(float, upper))
        if len(lower) != len(upper) or any(
            not lo < hi for lo, hi in zip(lower, upper)
        ):
            raise ValueError("uniform box needs lower < upper per axis")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def sample(self, n, dim, noise, purpose=NoiseStream.PURPOSE_INIT):
        if len(self.lower) != dim:
            raise ValueError(
                f"box has dim {len(self.lower)}, model has dim {dim}"
            )
        u = noise.uniforms(purpose, 0, 0, n, dim)
        lo = np.array(self.lower)
        hi = np.array(self.upper)
        return lo + (hi - lo) * u


@dataclass(frozen=True)
class Samples(InitialLaw):
    """User-supplied initial particles (one row per particle)."""

    samples: np.ndarray

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("initial samples must form a nonempty (N, d) array")
        if not np.isfinite(arr).all():
            raise ValueError("initial samples must be finite")
        object.__setattr__(self, "samples", arr)

    def sample(self, n, dim, noise, purpose=NoiseStream.PURPOSE_INIT):
        if self.samples.shape != (n, dim):
            raise ValueError(
                f"initial sample file holds shape {self.samples.shape}, "
                f"run needs ({n}, {dim})"
            )
        return self.samples.copy()


def load_initial_samples(path) -> Samples:
    """Read an initial cloud: one particle per line, reals split on spaces."""
    arr = np.loadtxt(path, ndmin=2, dtype=float)
    if arr.size == 0:
        raise ValueError(f"no samples in {path}")
    return Samples(arr)


# ---------------------------------------------------------------------------
# particle cloud
# ---------------------------------------------------------------------------


@dataclass
class ParticleCloud:
    """Positions plus first-exit bookkeeping at the tracked ladder levels.

    ``exit_step[m][i]`` is the first grid index at which particle i was seen
    outside D_m (0 if it started there), or −1 while it has not exited. The
    record is monotone: set once, never unset.
    """

    x: np.ndarray
    t: float
    step: int
    exit_step: dict

    @staticmethod
    def create(x0: np.ndarray, model: ModelSpec, levels) -> "ParticleCloud":
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim == 1:
            x0 = x0[:, None]
        exit_step = {}
        for m in levels:
            rec = np.full(x0.shape[0], -1, dtype=np.int64)
            rec[~model.ladder.contains(x0, m)] = 0
            exit_step[ladder_level(m)] = rec
        return ParticleCloud(x=x0, t=0.0, step=0, exit_step=exit_step)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def exit_fraction(self, m: int) -> float:
        rec = self.exit_step[m]
        return float(np.count_nonzero(rec >= 0)) / rec.shape[0]

    def update_exits(self, model: ModelSpec, step: int) -> None:
        """Stamp ``step`` on particles seen outside D_m for the first time.

        Record arrays are never written in place: a level's array is
        replaced only when some particle exits, so clouds that share records
        (a step's input and output) never see each other's updates.
        """
        for m, rec in list(self.exit_step.items()):
            fresh = (rec < 0) & ~model.ladder.contains(self.x, m)
            if fresh.any():
                self.exit_step[m] = np.where(fresh, step, rec)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def _displace(x, b, s, dw, dt) -> np.ndarray:
    """One Euler displacement x + b·Δt + σ·Δw, row by row."""
    # overflow here *is* the blow-up; the caller turns the resulting
    # non-finite positions into a typed error, so the warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        out = x + b * dt
        if s.shape[1:] == (1, 1):
            # einsum sums its one product onto +0.0, which turns a −0.0
            # product into +0.0; adding 0.0 keeps this path bit-identical
            kick = s[:, :, 0] * dw
            kick += 0.0
            out += kick
        else:
            out += np.einsum("ndk,nk->nd", s, dw)
    return out


def _advance_positions(model, cfg, cloud, fv, dw, pool) -> np.ndarray:
    """Positions after one step, with localized coefficients at (t, x, fv)."""
    t = cloud.step / cfg.steps_per_unit
    if pool is None or pool.threads <= 1:
        b, s = evaluate_coefficients(model, t, cloud.x, fv, cfg.cut_level)
        return _displace(cloud.x, b, s, dw, cfg.dt)
    out = np.empty_like(cloud.x)

    def block(sl):
        b, s = evaluate_coefficients(model, t, cloud.x[sl], fv, cfg.cut_level)
        out[sl] = _displace(cloud.x[sl], b, s, dw[sl], cfg.dt)

    pool.run_blocks(block, cloud.n)
    return out


def euler_step(
    cloud: ParticleCloud,
    model: ModelSpec,
    cfg: SimConfig,
    noise: NoiseStream,
    pool: WorkerPool | None = None,
    shared_dw: np.ndarray | None = None,
    fv: dict | None = None,
    coefficients: tuple | None = None,
) -> ParticleCloud:
    """Advance the cloud one grid step (t_i → t_{i+1}); ``cloud`` is untouched.

    Functional values are reduced once from the pre-step cloud; both lag
    flags evaluate coefficients at the left-endpoint state (see module
    docstring). Exit records update after the move. ``shared_dw`` lets two
    coupled clouds consume identical increments.

    A caller that already holds the pre-step functional values ``fv``, or
    the cut coefficients ``coefficients`` = (b, σ) from
    ``evaluate_coefficients(model, cloud.t, cloud.x, fv, cfg.cut_level)``,
    passes them in instead of having them evaluated a second time.
    """
    dw = shared_dw
    if dw is None:
        dw = noise.increments(
            cloud.step, 0, cloud.n, model.noise_dim, cfg.dt
        )
    if coefficients is not None:
        x_new = _displace(cloud.x, *coefficients, dw, cfg.dt)
    else:
        if fv is None:
            fv = evaluate_functionals(model.functionals, cloud.x)
        x_new = _advance_positions(model, cfg, cloud, fv, dw, pool)
    if not np.isfinite(x_new).all():
        i = int(np.argmax(~np.isfinite(x_new).all(axis=1)))
        t_next = (cloud.step + 1) / cfg.steps_per_unit
        raise BlowUpError(
            f"model {model.name!r}: particle {i} became non-finite at "
            f"step {cloud.step + 1} (t={t_next:g})",
            step=cloud.step + 1,
            time=t_next,
        )
    nxt = ParticleCloud(
        x=x_new,
        t=(cloud.step + 1) / cfg.steps_per_unit,
        step=cloud.step + 1,
        exit_step=dict(cloud.exit_step),
    )
    nxt.update_exits(model, nxt.step)
    return nxt


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsSeries:
    """Checkpoint table with fixed column order plus run metadata.

    Columns: t, declared functionals, then (with a Lyapunov package)
    v_mean, M, M_plus, then exit_frac_<m> per tracked level, then v_sup
    (the running max of v_mean). ``meta`` records scenario/run facts that
    are part of reproducibility — never the worker count, which must not
    influence any output.
    """

    columns: list
    rows: list
    meta: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")

    def summary_lines(self) -> list:
        lines = [f"{k} = {v}" for k, v in sorted(self.meta.items())]
        last = self.rows[-1]
        lines += [
            f"final.{c} = {repr(float(x))}" for c, x in zip(self.columns, last)
        ]
        return lines


def _series_columns(model, lyap, levels) -> list:
    cols = ["t"] + list(model.functional_keys())
    if lyap is not None:
        cols += ["v_mean", "M", "M_plus"]
    cols += [f"exit_frac_{m:g}" for m in levels]
    if lyap is not None:
        cols += ["v_sup"]
    return cols


class _Recorder:
    """Accumulates checkpoint rows for one cloud."""

    def __init__(self, model, lyap, cfg, ev0):
        from .lyapunov import envelope_M, envelope_Mplus  # local to avoid cycle

        self._envelope_M = envelope_M
        self._envelope_Mplus = envelope_Mplus
        self.model = model
        self.lyap = lyap
        self.cfg = cfg
        self.ev0 = ev0
        self.levels = cfg.tracked_levels()
        self.columns = _series_columns(model, lyap, self.levels)
        self.rows = []
        self.v_sup = 0.0

    def record(self, cloud: ParticleCloud, fv: dict) -> None:
        row = [cloud.t] + [fv[k] for k in self.model.functional_keys()]
        if self.lyap is not None:
            v_mean = float(
                tree_mean(
                    np.asarray(self.lyap.v(cloud.t, cloud.x, fv), dtype=float)
                )
            )
            self.v_sup = max(self.v_sup, v_mean)
            row += [
                v_mean,
                self._envelope_M(self.lyap, self.ev0, cloud.t),
                self._envelope_Mplus(self.lyap, self.ev0, cloud.t),
            ]
        row += [cloud.exit_fraction(m) for m in self.levels]
        if self.lyap is not None:
            row += [self.v_sup]
        self.rows.append(row)


def _base_meta(model, cfg) -> dict:
    return {
        "scenario": model.name,
        "n_particles": cfg.n_particles,
        "steps_per_unit": cfg.steps_per_unit,
        "horizon": cfg.horizon,
        "cut_level": cfg.cut_level,
        "seed": cfg.seed,
        "lag": cfg.lag,
    }


def simulate(
    model: ModelSpec,
    lyap,
    cfg: SimConfig,
    init: InitialLaw,
    keep_snapshots: bool = False,
) -> DiagnosticsSeries:
    """Run the localized Euler scheme and collect checkpoint diagnostics.

    With a Lyapunov package the series carries the empirical ∫v dμ̂ against
    the envelopes M(t) and M⁺(t) seeded by the measured Ev₀; without one,
    only functionals and exit fractions. ``keep_snapshots`` retains position
    arrays at checkpoints (occupation-measure experiments need them).
    """
    noise = NoiseStream(cfg.seed, cfg.stream)
    x0 = init.sample(cfg.n_particles, model.dim, noise)
    cloud = ParticleCloud.create(x0, model, cfg.tracked_levels())

    fv0 = evaluate_functionals(model.functionals, cloud.x)
    ev0 = 0.0
    if lyap is not None:
        ev0 = float(
            tree_mean(np.asarray(lyap.v(0.0, cloud.x, fv0), dtype=float))
        )
    rec = _Recorder(model, lyap, cfg, ev0)
    meta = _base_meta(model, cfg)
    meta["ev0"] = ev0
    for m in cfg.tracked_levels():
        meta[f"p0_out_{m:g}"] = cloud.exit_fraction(m)

    marks = set(cfg.checkpoint_steps())
    snapshots = []
    pool = WorkerPool(cfg.threads) if cfg.threads > 1 else None
    try:
        fv = fv0
        if 0 in marks:
            rec.record(cloud, fv)
            if keep_snapshots:
                snapshots.append((cloud.t, cloud.x.copy()))
        for i in range(cfg.total_steps):
            # fv is reused when it was reduced from this very state
            cloud = euler_step(cloud, model, cfg, noise, pool, fv=fv)
            fv = None
            if cloud.step in marks:
                fv = evaluate_functionals(model.functionals, cloud.x)
                rec.record(cloud, fv)
                if keep_snapshots:
                    snapshots.append((cloud.t, cloud.x.copy()))
    finally:
        if pool is not None:
            pool.close()
    return DiagnosticsSeries(
        columns=rec.columns, rows=rec.rows, meta=meta, snapshots=snapshots
    )


def coupled_simulate(
    model: ModelSpec,
    cfg: SimConfig,
    init1: InitialLaw,
    init2: InitialLaw,
    vbar: Callable[[np.ndarray], np.ndarray],
    lyap=None,
):
    """Evolve two clouds under shared noise; track E v̄(x¹ − x²).

    Both clouds see identical Brownian increments, particle by particle, and
    each evolves under its own empirical law. Returns (series1, series2,
    distance), where ``distance`` has columns (t, dist, band): dist is the
    paired empirical mean of v̄ of the coordinate difference (Euclidean norm
    of the difference when d > 1, since the shipped kernels are radial), and
    band is its 3-sigma cross-particle Monte Carlo width.
    """
    noise = NoiseStream(cfg.seed, cfg.stream)
    x1 = init1.sample(cfg.n_particles, model.dim, noise)
    # A distinct purpose id keeps the second cloud's *initial* draw
    # independent while step noise stays shared.
    x2 = init2.sample(
        cfg.n_particles, model.dim, noise, purpose=NoiseStream.PURPOSE_INIT2
    )

    levels = cfg.tracked_levels()
    clouds = [
        ParticleCloud.create(x1, model, levels),
        ParticleCloud.create(x2, model, levels),
    ]
    fvs = [evaluate_functionals(model.functionals, c.x) for c in clouds]
    recs = []
    metas = []
    for j, (cloud, fv) in enumerate(zip(clouds, fvs)):
        ev0 = 0.0
        if lyap is not None:
            ev0 = float(
                tree_mean(np.asarray(lyap.v(0.0, cloud.x, fv), dtype=float))
            )
        recs.append(_Recorder(model, lyap, cfg, ev0))
        meta = _base_meta(model, cfg)
        meta["coupled_member"] = j + 1
        metas.append(meta)

    def distance(a: ParticleCloud, b: ParticleCloud) -> list:
        diff = a.x - b.x
        z = diff[:, 0] if model.dim == 1 else np.linalg.norm(diff, axis=1)
        values = np.asarray(vbar(z), dtype=float)
        band = 0.0
        if values.size > 1:
            band = 3.0 * float(np.std(values, ddof=1)) / math.sqrt(values.size)
        return [float(tree_mean(values)), band]

    marks = set(cfg.checkpoint_steps())
    dist_rows = []
    pool = WorkerPool(cfg.threads) if cfg.threads > 1 else None
    try:
        if 0 in marks:
            for cloud, r, fv in zip(clouds, recs, fvs):
                r.record(cloud, fv)
            dist_rows.append([0.0] + distance(*clouds))
        for i in range(cfg.total_steps):
            dw = noise.increments(i, 0, cfg.n_particles, model.noise_dim, cfg.dt)
            clouds = [
                euler_step(c, model, cfg, noise, pool, shared_dw=dw, fv=fv)
                for c, fv in zip(clouds, fvs)
            ]
            fvs = [None, None]
            if clouds[0].step in marks:
                fvs = [evaluate_functionals(model.functionals, c.x) for c in clouds]
                for cloud, r, fv in zip(clouds, recs, fvs):
                    r.record(cloud, fv)
                dist_rows.append([clouds[0].t] + distance(*clouds))
    finally:
        if pool is not None:
            pool.close()

    series = [
        DiagnosticsSeries(columns=r.columns, rows=r.rows, meta=m)
        for r, m in zip(recs, metas)
    ]
    dist = DiagnosticsSeries(
        columns=["t", "dist", "band"],
        rows=dist_rows,
        meta=_base_meta(model, cfg),
    )
    return series[0], series[1], dist
