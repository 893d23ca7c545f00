"""Localized Euler–Maruyama engine over interacting particle clouds.

The scheme discretizes dx = b(t, x, 𝓛(x)) dt + σ(t, x, 𝓛(x)) dw on the grid
t_i = i/n, replacing the law 𝓛(x_t) by the N-particle empirical measure and
the coefficients by their localized versions: zero outside the open domain D
and — at cut level k — zero outside the closed box D_k. A particle whose
position leaves D_k therefore keeps zero coefficients forever: it freezes at
its landing point (extension by zero; no reflection, no rejection).

Every random number is a pure function of (seed, stream, purpose, step,
particle, axis), with no generator state carried across calls, so results
are bit-identical across restarts. Gaussian increments are numpy's ziggurat
on an SFC64 generator whose state is derived from the key
(seed, stream|purpose|step) by splitmix64 mixing: prefix-stable over
particles, and byte-reproducible for a given numpy version. Uniforms (the
initial laws) are Philox raw words at the same key, random-access (see
``NoiseStream``).

The engine is serial: ``simulate``, ``coupled_simulate`` and the Itô
residuals share one time loop. A run draws its clouds (one, a coupled pair,
or an Itô pair on independent noise) into one block of rows at step 0, and
that block is the run's only particle state: each step draws the increments
into one buffer and advances the whole block in place with one
``euler_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measure import evaluate_functionals
from .model import ModelSpec, evaluate_coefficients, ladder_level
from .parallel import tree_mean

__all__ = [
    "BlowUpError",
    "SimConfig",
    "InitialLaw",
    "PointMass",
    "UniformBox",
    "Samples",
    "NoiseStream",
    "ParticleCloud",
    "euler_step",
    "simulate",
    "coupled_simulate",
    "DiagnosticsSeries",
]

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class BlowUpError(RuntimeError):
    """A particle position became non-finite: the model blew up.

    Carries the step index and grid time at which the first bad position was
    produced; positions are never clamped or masked.
    """

    def __init__(self, message: str, step: int, time: float):
        super().__init__(message)
        self.step = step
        self.time = time


# ---------------------------------------------------------------------------
# counter-based noise
# ---------------------------------------------------------------------------


def _mix64(z: int) -> int:
    """The splitmix64 finalizer, a bijection of 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


class NoiseStream:
    """Stateless Gaussian/uniform noise addressed by integer coordinates.

    Each scalar draw is a pure function of (seed, stream, purpose, step,
    particle, axis). Every (purpose, step) pair has the key (seed, word)
    with word = stream|purpose|step (8, 8 and 48 bits). The stream keeps
    one generator of each kind and resets it to the key on every call, so
    no generator state is carried between calls and no OS entropy is read.
    Those shared generators make a ``NoiseStream`` unfit for concurrent
    use: give each thread its own.

    * ``normals`` are numpy's ziggurat (``Generator.standard_normal``) on an
      SFC64 generator seeded from the key, laid out row-major over
      (particle, axis). The seed words are a = mix64(seed),
      b = mix64(word ^ 0x9E3779B97F4A7C15) and c = mix64(a ^ b), with mix64
      the splitmix64 finalizer; as numpy's own SFC64 seeding does, the
      counter starts at 1 and the first 12 outputs are discarded. mix64 is
      a bijection, so distinct keys give distinct states. The reset costs a
      few µs, as the Philox one does; a ``SeedSequence`` would cost 14–20
      µs per call. The ziggurat consumes a variable number of raw words per
      draw, so normals are *prefix-stable* rather than random-access: they
      are always drawn from particle 0, and the first k rows never depend
      on how many rows were asked for. They are byte-reproducible for a
      given numpy version only (``standard_normal`` is outside numpy's
      raw-bit-stream guarantee).
    * ``uniforms`` are random-access: Philox keyed by (seed, word), counter
      0; the raw 64-bit word at flat offset particle·width + axis maps to
      (0, 1) via ((raw >> 11) + 0.5)·2⁻⁵³.

    Purposes 2 and 3 belong to the second cloud of a pair (coupled
    runs, the Itô companion), so two clouds never share a draw by accident.
    """

    PURPOSE_STEP = 0
    PURPOSE_INIT = 1
    PURPOSE_INIT2 = 2
    PURPOSE_STEP2 = 3

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        if not 0 <= seed <= _U64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        if not 0 <= stream < 256:
            raise ValueError("stream id must be in [0, 256)")
        self.stream = stream
        # both are seeded with 0 only so that building them reads no OS
        # entropy: every draw first resets the state to a key
        self._philox = np.random.Generator(np.random.Philox(0))
        self._sfc64 = np.random.Generator(np.random.SFC64(0))
        self._sfc64_a = _mix64(self.seed)
        self._sfc64_state = {
            "bit_generator": "SFC64",
            "state": {"state": None},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _word(self, purpose: int, step: int) -> int:
        if not 0 <= purpose < 256:
            raise ValueError("purpose id must be in [0, 256)")
        if step < 0 or step >= 1 << 48:
            raise ValueError("step index out of the 48-bit key range")
        return (self.stream << 56) | (purpose << 48) | step

    def _philox_at(self, purpose: int, step: int) -> np.random.Generator:
        """The Philox generator, reset to the state a fresh ``Philox(key)`` has."""
        word = self._word(purpose, step)
        self._philox.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([self.seed, word], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._philox

    def _sfc64_at(self, purpose: int, step: int) -> np.random.Generator:
        """The SFC64 generator, seeded from the key (see the class notes)."""
        a = self._sfc64_a
        b = _mix64(self._word(purpose, step) ^ _GOLDEN)
        self._sfc64_state["state"]["state"] = [a, b, _mix64(a ^ b), 1]
        bits = self._sfc64.bit_generator
        bits.state = self._sfc64_state
        bits.random_raw(12)
        return self._sfc64

    def _raw(self, purpose: int, step: int, start: int, count: int) -> np.ndarray:
        gen = self._philox_at(purpose, step)
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

    def normals(self, purpose, step, count, width, out=None) -> np.ndarray:
        """Standard normals from particle 0, shape (count, width) (ziggurat).

        With ``out`` (a C-contiguous float64 array of that shape) the draw
        is written there and ``out`` is returned; the bytes are the same.
        """
        if out is None:
            out = np.empty((count, width))
        elif out.shape != (count, width):
            raise ValueError(f"out= must have shape {(count, width)}, got {out.shape}")
        return self._sfc64_at(purpose, step).standard_normal(out=out)

    def increments(
        self, step, count, width, dt, purpose=PURPOSE_STEP, out=None
    ) -> np.ndarray:
        """Brownian increments √Δt·z for one Euler step (into ``out`` if given)."""
        dw = self.normals(purpose, step, count, width, out)
        dw *= math.sqrt(dt)
        return dw


# ---------------------------------------------------------------------------
# configuration and initial laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for one particle-cloud simulation.

    ``steps_per_unit`` is the grid density n (Δt = 1/n), and ``horizon``
    must lie on that grid: h·n within 1e-9 relative of an integer ≥ 1, so a
    run ends at t = horizon exactly. ``cut_level`` is the localization level
    k; ``exit_levels`` lists the ladder levels m ≤ k whose first-exit steps
    are tracked (the cut level itself is always tracked). Levels are
    integers: integral floats are converted, anything else is rejected.
    There is no worker count: the engine is serial, and the CLI's
    ``--threads`` is accepted and has no effect.
    """

    n_particles: int
    horizon: float
    steps_per_unit: int
    cut_level: int
    seed: int
    exit_levels: tuple = ()
    checkpoints: tuple | None = None
    stream: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.steps_per_unit < 1:
            raise ValueError("steps_per_unit must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        steps = self.horizon * self.steps_per_unit
        k = round(steps) if math.isfinite(steps) else 0
        if k < 1 or abs(steps - k) > 1e-9 * k:
            raise ValueError(
                f"horizon {self.horizon!r} is off the grid of step "
                f"1/{self.steps_per_unit}: horizon·n = {steps!r} is not an "
                "integer >= 1"
            )
        cut = ladder_level(self.cut_level)
        if cut < 1:
            raise ValueError("cut level must be >= 1")
        object.__setattr__(self, "cut_level", cut)
        levels = tuple(ladder_level(m) for m in self.exit_levels)
        if list(levels) != sorted(set(levels)):
            raise ValueError("exit levels must be sorted and unique")
        if any(m < 1 or m > self.cut_level for m in levels):
            raise ValueError("exit levels must satisfy 1 <= m <= cut level")
        object.__setattr__(self, "exit_levels", levels)

    @property
    def dt(self) -> float:
        return 1.0 / self.steps_per_unit

    @property
    def total_steps(self) -> int:
        return round(self.horizon * self.steps_per_unit)

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
        """A step-0 cloud that owns a copy of ``x0``."""
        x0 = np.array(x0, dtype=float)
        if x0.ndim == 1:
            x0 = x0[:, None]
        exit_step = {}
        for m in levels:
            rec = np.full(x0.shape[0], -1, dtype=np.int64)
            rec[~model.ladder.contains(x0, m)] = 0
            exit_step[ladder_level(m)] = rec
        return ParticleCloud(x=x0, t=0.0, step=0, exit_step=exit_step)

    def copy(self) -> "ParticleCloud":
        """A cloud that owns copies of these positions and exit records."""
        return ParticleCloud(
            x=self.x.copy(),
            t=self.t,
            step=self.step,
            exit_step={m: rec.copy() for m, rec in self.exit_step.items()},
        )

    def split(self, r: int) -> list:
        """The ``r`` equal clouds stacked in this one, as views of its rows.

        A view's positions and records move with this cloud; its ``t`` and
        ``step`` are those of the moment it was made.
        """
        if r == 1:
            return [self]
        n = self.n // r
        return [
            ParticleCloud(
                x=self.x[j * n : (j + 1) * n],
                t=self.t,
                step=self.step,
                exit_step={
                    m: rec[j * n : (j + 1) * n] for m, rec in self.exit_step.items()
                },
            )
            for j in range(r)
        ]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def exit_fraction(self, m: int) -> float:
        rec = self.exit_step[m]
        return float(np.count_nonzero(rec >= 0)) / rec.shape[0]

    def update_exits(self, model: ModelSpec, step: int) -> None:
        """Stamp ``step``, in place, on particles seen outside D_m for the
        first time."""
        for m, rec in self.exit_step.items():
            fresh = (rec < 0) & ~model.ladder.contains(self.x, m)
            np.copyto(rec, step, where=fresh)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


class _Workspace:
    """The buffers a step of n rows (one cloud, or one block of clouds)
    writes into instead of fresh arrays: the cut coefficients (b, σ) that
    ``evaluate_coefficients(out=)`` fills, the update's scratch term
    ``kick`` and the finiteness mask ``finite``. Positions and exit records
    need none: the step advances them in place."""

    def __init__(self, n: int, model: ModelSpec):
        d = model.dim
        self.coefficients = (np.empty((n, d)), np.empty((n, d, model.noise_dim)))
        self.kick = np.empty((n, d))
        self.finite = np.empty((n, d), dtype=bool)


def _displace(x, b, s, dw, dt, kick) -> None:
    """Move ``x`` in place by one Euler displacement b·Δt + σ·Δw, row by row.

    ``x``, ``b`` and ``s`` may stack R clouds of the N rows of ``dw``: row i
    of every cloud moves with increment i, and ``dw`` is never copied.
    ``kick`` is a buffer of ``x``'s shape for the scratch term. The sum is
    (x + b·Δt) + σ·Δw, in that order.
    """
    n = dw.shape[0]
    r = x.shape[0] // n
    # overflow here *is* the blow-up; the caller turns the resulting
    # non-finite positions into a typed error, so the warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        x += np.multiply(b, dt, out=kick)
        if s.shape[1:] == (1, 1):
            # einsum sums its one product onto +0.0, which turns a −0.0
            # product into +0.0; adding 0.0 keeps this path bit-identical.
            # The R clouds multiply as (R, N, 1) against dw's (N, 1).
            np.multiply(s[:, :, 0].reshape(r, -1, 1), dw, out=kick.reshape(r, n, 1))
            kick += 0.0
        else:
            for j in range(0, x.shape[0], n):
                np.einsum("ndk,nk->nd", s[j : j + n], dw, out=kick[j : j + n])
        x += kick


def euler_step(
    cloud: ParticleCloud,
    model: ModelSpec,
    cfg: SimConfig,
    noise: NoiseStream,
    shared_dw: np.ndarray | None = None,
    fv: dict | list | None = None,
    coefficients: tuple | None = None,
    work: _Workspace | None = None,
) -> ParticleCloud:
    """Advance the cloud one grid step (t_i → t_{i+1}).

    Cut coefficients are evaluated at the pre-step state, with functional
    values reduced once from the pre-step cloud; exit records update after
    the move. ``shared_dw`` lets two coupled clouds consume identical
    increments.

    A caller that already holds the pre-step functional values ``fv``, or
    the cut coefficients ``coefficients`` = (b, σ) from
    ``evaluate_coefficients(model, cloud.t, cloud.x, fv, cfg.cut_level)``,
    passes them in instead of having them evaluated a second time.

    ``cloud`` may be a block of R clouds of N particles each, stacked in
    order: ``fv`` is then the list of the R clouds' functional values,
    ``shared_dw`` (or the draw) holds N rows that every cloud uses, or R·N
    rows, one per block row, for clouds on independent noise, and a blow-up
    names the particle by its index within its own cloud. Each cloud's
    numbers are those of its own step, and so is the error when one cloud
    faults. When a cloud blows up at a step where a later cloud's
    coefficients are non-finite, the block reports the coefficient fault,
    where R steps in order would report the blow-up.

    Without ``work``, ``cloud`` is untouched: the step advances a copy of
    it, with a workspace of its own, and returns that copy. ``work`` is the
    workspace of the engine's own loop (``_run_clouds``): the step then
    advances ``cloud`` itself in place, positions and exit records, and
    returns it. The numbers are the same either way.
    """
    if work is None:
        cloud = cloud.copy()
        work = _Workspace(cloud.n, model)
    n = cloud.n if fv is None or isinstance(fv, dict) else cloud.n // len(fv)
    dw = shared_dw
    if dw is None:
        dw = noise.increments(cloud.step, n, model.noise_dim, cfg.dt)
    if coefficients is None:
        if fv is None:
            fv = evaluate_functionals(model.functionals, cloud.x)
        t = cloud.step / cfg.steps_per_unit
        coefficients = evaluate_coefficients(
            model, t, cloud.x, fv, cfg.cut_level, out=work.coefficients
        )
    _displace(cloud.x, *coefficients, dw, cfg.dt, work.kick)
    finite = np.isfinite(cloud.x, out=work.finite)
    if not finite.all():
        i = int(np.argmax(~finite.all(axis=1))) % n
        t_next = (cloud.step + 1) / cfg.steps_per_unit
        raise BlowUpError(
            f"model {model.name!r}: particle {i} became non-finite at "
            f"step {cloud.step + 1} (t={t_next:g})",
            step=cloud.step + 1,
            time=t_next,
        )
    cloud.step += 1
    cloud.t = cloud.step / cfg.steps_per_unit
    cloud.update_exits(model, cloud.step)
    return cloud


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsSeries:
    """Checkpoint table with fixed column order plus run metadata.

    Columns: t, declared functionals, then (with a Lyapunov package)
    v_mean, M, M_plus, then exit_frac_<m> per tracked level, then v_sup:
    the running max of v_mean over the checkpoints recorded so far, not
    over every step (v_mean is only computed at checkpoints). ``meta``
    records scenario/run facts that are part of reproducibility — never the
    worker count, which must not influence any output.
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
        # imported here, not at module level, so that each recorder binds
        # what mkvlab.lyapunov holds when it is built: the benchmark's
        # tracer (bench/spans.py) replaces both there after import
        from .lyapunov import envelope_M, envelope_Mplus

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
    }


def _run_clouds(
    model, cfg, noise, block, fvs, observe, hook=None,
    purposes=(NoiseStream.PURPOSE_STEP,),
) -> None:
    """The time loop of ``simulate``, ``coupled_simulate`` and the Itô
    residuals of ``mkvlab.lions``.

    ``block`` is the run's step-0 block of R clouds of N rows each, in
    order, with R = ``len(fvs)`` and ``fvs`` each cloud's functional values
    at step 0. Each step is one ``euler_step`` that advances the block in
    place, so the step's fixed cost is paid once, not per cloud, and the
    block is the run's only particle state. ``purposes`` holds the step
    noise's purpose ids: with one, every cloud shares it, and particle i of
    every cloud moves with increment i, so a lone cloud gets the very draw
    ``euler_step`` would make for itself; with R, each cloud draws on its
    own purpose into its own rows of one (R·N, d') buffer. Before each step
    the loop evaluates the block's cut coefficients into the workspace and
    hands them to ``euler_step``; ``hook(clouds, fvs, (b, σ), dw)``, if
    given, sees them first, with the pre-step clouds, their functional
    values and the step's increments. After each step the loop reduces
    every cloud's functionals on its own rows, for the next step. At every
    checkpoint step (the checkpoints always include step 0)
    ``observe(clouds, fvs)`` is called. ``observe`` and ``hook`` see each
    cloud as a ``ParticleCloud`` view of its rows of the block.

    The loop owns its memory: one noise buffer, one ``_Workspace`` for the
    block that the coefficients and ``euler_step`` write into, and one
    buffer the expected shortfall partitions in, so a step allocates no
    N-sized array of its own beyond what the model's coefficient callables
    return and the masks its box tests make. ``observe`` and ``hook`` see
    arrays that later steps overwrite; they copy what they keep.
    """
    marks = set(cfg.checkpoint_steps())
    r = len(fvs)
    n = block.n // r
    rows = [slice(j * n, (j + 1) * n) for j in range(r)]
    dw, scratch = np.empty((len(purposes) * n, model.noise_dim)), np.empty(n)
    draws = [(purpose, dw[j]) for purpose, j in zip(purposes, rows)]
    work = _Workspace(block.n, model)
    observe(block.split(r), fvs)
    for i in range(cfg.total_steps):
        for purpose, out in draws:
            noise.increments(i, n, model.noise_dim, cfg.dt, purpose, out=out)
        coefficients = evaluate_coefficients(
            model, block.t, block.x, fvs, cfg.cut_level, out=work.coefficients
        )
        if hook is not None:
            hook(block.split(r), fvs, coefficients, dw)
        euler_step(
            block, model, cfg, noise, shared_dw=dw, fv=fvs,
            coefficients=coefficients, work=work,
        )
        # euler_step has checked these positions are finite
        fvs = [
            evaluate_functionals(
                model.functionals, block.x[j], scratch, _finite=True
            )
            for j in rows
        ]
        if i + 1 in marks:
            observe(block.split(r), fvs)


def _start(model, cfg, noise, laws) -> ParticleCloud:
    """The step-0 block of one cloud per law of ``laws`` (one or two): the
    first draws on noise purpose ``PURPOSE_INIT``, the second on
    ``PURPOSE_INIT2``."""
    purposes = (NoiseStream.PURPOSE_INIT, NoiseStream.PURPOSE_INIT2)
    x0 = np.concatenate(
        [
            law.sample(cfg.n_particles, model.dim, noise, purpose)
            for law, purpose in zip(laws, purposes)
        ]
    )
    return ParticleCloud.create(x0, model, cfg.tracked_levels())


def _ev0(lyap, cloud, fv) -> float:
    """The measured E v(0, x₀) that seeds the envelopes; 0 without ``lyap``."""
    if lyap is None:
        return 0.0
    return float(tree_mean(np.asarray(lyap.v(0.0, cloud.x, fv), dtype=float)))


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
    block = _start(model, cfg, noise, [init])
    fvs = [evaluate_functionals(model.functionals, block.x)]
    ev0 = _ev0(lyap, block, fvs[0])
    rec = _Recorder(model, lyap, cfg, ev0)
    meta = _base_meta(model, cfg)
    meta["ev0"] = ev0
    for m in cfg.tracked_levels():
        meta[f"p0_out_{m:g}"] = block.exit_fraction(m)

    snapshots = []

    def observe(clouds, fvs):
        rec.record(clouds[0], fvs[0])
        if keep_snapshots:
            snapshots.append((clouds[0].t, clouds[0].x.copy()))

    _run_clouds(model, cfg, noise, block, fvs, observe)
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
    # A distinct purpose id keeps the second cloud's *initial* draw
    # independent while step noise stays shared.
    block = _start(model, cfg, noise, [init1, init2])
    clouds = block.split(2)
    fvs = [evaluate_functionals(model.functionals, c.x) for c in clouds]
    recs = [
        _Recorder(model, lyap, cfg, _ev0(lyap, c, fv)) for c, fv in zip(clouds, fvs)
    ]
    metas = [{**_base_meta(model, cfg), "coupled_member": j} for j in (1, 2)]

    dist_rows = []

    def observe(clouds, fvs):
        for cloud, r, fv in zip(clouds, recs, fvs):
            r.record(cloud, fv)
        diff = clouds[0].x - clouds[1].x
        z = diff[:, 0] if model.dim == 1 else np.linalg.norm(diff, axis=1)
        values = np.asarray(vbar(z), dtype=float)
        band = 0.0
        if values.size > 1:
            band = 3.0 * float(np.std(values, ddof=1)) / math.sqrt(values.size)
        dist_rows.append([clouds[0].t, float(tree_mean(values)), band])

    _run_clouds(model, cfg, noise, block, fvs, observe)

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
