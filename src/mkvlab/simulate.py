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

The engine is serial: ``simulate``, ``coupled_simulate``, the replica probe
and the Itô residuals share one time loop, ``_run_clouds``. A run names its
clouds (one, a coupled pair, an Itô pair on independent noise, or replicas
on seeds of their own) by initial law and noise keys, and the engine draws
them into one block of rows at step 0. That block is the run's only
particle state: each step draws the increments into one buffer, once per
distinct step key, and advances the whole block in place with one
``euler_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import lyapunov
from .measure import evaluate_functionals
from .model import ModelSpec, as_cloud, evaluate_coefficients, ladder_level
from .parallel import tree_mean

__all__ = [
    "BlowUpError",
    "grid_steps",
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


def grid_steps(t: float, n: int) -> int | None:
    """The whole number of steps of size 1/n that the time ``t`` spans.

    t·n must lie within 1e-9 relative of an integer (t = 0 exactly);
    otherwise, or when t·n is not finite, the answer is None.
    """
    steps = t * n
    if not math.isfinite(steps):
        return None
    k = round(steps)
    return k if abs(steps - k) <= 1e-9 * abs(k) else None


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for one particle-cloud simulation.

    ``steps_per_unit`` is the grid density n (Δt = 1/n), and ``horizon``
    must lie on that grid: h·n within 1e-9 relative of an integer in
    [1, 2³¹ − 1] (the int32 exit records), so a run ends at t = horizon
    exactly. Given ``checkpoints`` (any sequence) must be grid times by that
    rule, in [0, horizon]; the default 51 even times round to the nearest
    step. ``cut_level`` is the localization level k; ``exit_levels`` lists
    the ladder levels m ≤ k whose first-exit steps are tracked (the cut
    level itself always is). Levels are integers: integral floats are
    converted, anything else is rejected. There is no worker count: the
    engine is serial, and the CLI's ``--threads`` has no effect.
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
        k = grid_steps(self.horizon, self.steps_per_unit)
        if k is None or k < 1:
            raise ValueError(
                f"horizon {self.horizon!r} is off the grid of step "
                f"1/{self.steps_per_unit}: horizon·n = "
                f"{self.horizon * self.steps_per_unit!r} is not an integer >= 1"
            )
        if k > 2**31 - 1:
            raise ValueError(f"{k} steps: an int32 exit record holds {2**31 - 1}")
        if self.checkpoints is not None:
            # checkpoint_steps checks the range: a stationary run's horizon
            # is set only when stationary_estimate replaces it
            marks = tuple(map(float, self.checkpoints))
            for t in marks:
                if grid_steps(t, self.steps_per_unit) is None:
                    raise ValueError(
                        f"checkpoint {t!r} is off the grid of step 1/{self.steps_per_unit}: "
                        f"t·n = {t * self.steps_per_unit!r} is not an integer"
                    )
            object.__setattr__(self, "checkpoints", marks)
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
            want = np.linspace(0.0, self.horizon, 51) * self.steps_per_unit
            steps = np.rint(want).astype(int).tolist()
        else:
            steps = [grid_steps(t, self.steps_per_unit) for t in self.checkpoints]
            if not all(0 <= k <= total for k in steps):
                raise ValueError("checkpoints must lie in [0, horizon]")
        return tuple(sorted(set(steps) | {0, total}))


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
        arr = as_cloud(samples)
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
    record is monotone: set once, never unset. Levels run inside out. The
    records are int32, which holds every step a ``SimConfig`` allows.
    """

    x: np.ndarray
    t: float
    step: int
    exit_step: dict

    @staticmethod
    def create(x0: np.ndarray, model: ModelSpec, levels) -> "ParticleCloud":
        """A step-0 cloud that owns a copy of ``x0``; ``levels`` run inside out."""
        x0 = as_cloud(x0).copy()
        for m, m2 in zip(levels, levels[1:]):
            (lo, hi), (lo2, hi2) = model.ladder.box(m), model.ladder.box(m2)
            if (lo < lo2).any() or (hi > hi2).any():
                raise ValueError(f"levels must nest: D_{m} is not inside D_{m2}")
        exit_step = {ladder_level(m): np.full(len(x0), -1, np.int32) for m in levels}
        cloud = ParticleCloud(x=x0, t=0.0, step=0, exit_step=exit_step)
        cloud.update_exits(model, 0)
        return cloud

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

    def update_exits(self, model: ModelSpec, step: int) -> int:
        """Stamp ``step``, in place, on particles seen outside D_m for the
        first time; return how many it stamped at the outermost level. The
        boxes nest: outer ones are tested only on rows outside the innermost."""
        stamped, rows = 0, None
        for m, rec in self.exit_step.items():
            if rows is None:  # the innermost box: a mask of the cloud
                inside = model.ladder.contains(self.x, m)
                if inside.all():
                    return 0  # every row is inside the outer boxes too
                rows = np.nonzero(~inside)[0]
            else:  # the rows outside the box within this one
                rows = rows[~model.ladder.contains(self.x[rows], m)]
            fresh = rows[rec[rows] < 0]
            rec[fresh] = step
            stamped = fresh.size
        return stamped


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


class _Workspace:
    """The buffers a step of n rows (one cloud, or one block of clouds)
    writes into instead of fresh arrays: the cut coefficients (b, σ) that
    ``evaluate_coefficients(out=)`` fills and the finiteness mask
    ``finite``. b doubles as the update's scratch term ``kick`` and, from
    the end of a step to the next coefficient evaluation, as the loop's
    expected-shortfall partition. Positions and exit records need none:
    the step advances them in place; ``cut_exits`` counts new cut exits."""

    def __init__(self, n: int, model: ModelSpec):
        d = model.dim
        self.coefficients = (np.empty((n, d)), np.empty((n, d, model.noise_dim)))
        self.kick = self.coefficients[0]
        self.finite = np.empty((n, d), dtype=bool)
        self.cut_exits = 0


def _displace(x, b, s, dw, dt, kick) -> None:
    """Move ``x`` in place by one Euler displacement b·Δt + σ·Δw, row by row.

    ``x``, ``b`` and ``s`` may stack R clouds of the N rows of ``dw``: row i
    of every cloud moves with increment i, and ``dw`` is never copied.
    ``kick`` is a buffer of ``x``'s shape for the scratch term; it may be
    ``b`` itself, which is then overwritten. The sum is (x + b·Δt) + σ·Δw,
    in that order.
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

    Without ``work``, ``cloud`` and ``coefficients`` are untouched: the
    step advances a copy of the cloud, with a workspace of its own, and
    returns that copy. ``work`` is the workspace of the engine's own loop
    (``_run_clouds``): the step then advances ``cloud`` itself in place,
    positions and exit records, returns it, and spends the workspace's b
    as its scratch. The numbers are the same either way.
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
    work.cut_exits = cloud.update_exits(model, cloud.step)
    return cloud


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsSeries:
    """Checkpoint table with fixed column order plus run metadata.

    Columns: t, declared functionals, then (with a Lyapunov package)
    v_mean, v_band (its 3σ Monte Carlo width), M, M_plus, then
    exit_frac_<m> per tracked level, then v_sup: the running max of v_mean
    over the checkpoints recorded so far, not over every step (v_mean is
    only computed at checkpoints). ``meta`` records scenario/run facts that
    are part of reproducibility — never the worker count, which must not
    influence any output.
    """

    columns: list
    rows: list
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)


def _mc_band(values: np.ndarray) -> float:
    """3·sd/√n (ddof = 1), the 3σ Monte Carlo width of ``values``' mean."""
    if values.size < 2:
        return 0.0
    return 3.0 * float(np.std(values, ddof=1)) / math.sqrt(values.size)


def _base_meta(model, cfg) -> dict:
    return {
        "scenario": model.name,
        "n_particles": cfg.n_particles,
        "steps_per_unit": cfg.steps_per_unit,
        "horizon": cfg.horizon,
        "cut_level": cfg.cut_level,
        "seed": cfg.seed,
    }


def _run_clouds(model, cfg, clouds, observe, hook=None) -> None:
    """The time loop and the engine's one entry: every driver (``simulate``,
    ``coupled_simulate``, ``analysis.scheutzow_probe``, the Itô residuals of
    ``mkvlab.lions``) names its clouds and observes them.

    ``clouds`` holds one (law, seed, init purpose, step purpose) per cloud,
    all on ``cfg.stream``. The laws draw their N rows each, in order, into
    one step-0 block, the run's only particle state; each step is one
    ``euler_step`` that advances it in place, so the step's fixed cost is
    paid once, not per cloud. A draw is a pure function of its key, so the
    step noise is drawn once per distinct (seed, step purpose): clouds that
    all have one key share an N-row draw (particle i of every cloud moves
    with increment i, the very draw a lone ``euler_step`` makes); otherwise
    each cloud has its rows of one (R·N, d') buffer, copied from the first
    cloud with its key. Each cloud gets the numbers of its lone run.

    ``observe(clouds, fvs)`` is called at every checkpoint step, step 0
    included, where a driver reads its step-0 values; ``hook(clouds, fvs,
    (b, σ), dw)``, if given, before each step, with the cut coefficients
    the step will use and its increments. Both see each cloud as a
    ``ParticleCloud`` view of its rows of the block and its functional
    values, reduced on those rows, in arrays that later steps overwrite:
    they copy what they keep. The loop owns its memory, one buffer per role
    (per row: x, Δw, b, σ, an int32 exit record per tracked level, the
    finiteness mask and the dead mask; b is also the update's scratch and
    the expected shortfall's partition), so a step allocates no N-sized
    array of its own beyond what the model's coefficient callables return
    and its exit test's masks. A row is dead from its first exit from D_cut:
    the dead mask, rebuilt from the cut's exit record when a step stamps
    it, replaces the coefficients' box tests.
    """
    n, r = cfg.n_particles, len(clouds)
    streams = {seed: NoiseStream(seed, cfg.stream) for _, seed, _, _ in clouds}
    block = ParticleCloud.create(
        np.concatenate(
            [law.sample(n, model.dim, streams[seed], init) for law, seed, init, _ in clouds]
        ),
        model, cfg.tracked_levels(),
    )
    rows = [slice(j * n, (j + 1) * n) for j in range(r)]
    keys = [(seed, step) for _, seed, _, step in clouds]
    if len(set(keys)) == 1:
        keys = keys[:1]
    dw = np.empty((len(keys) * n, model.noise_dim))
    first = {key: rows[keys.index(key)] for key in keys}
    draws = [(streams[seed], step, dw[j]) for (seed, step), j in first.items()]
    copies = [(dw[first[key]], dw[j]) for key, j in zip(keys, rows) if first[key] != j]
    work = _Workspace(block.n, model)
    scratch = work.kick[:n, 0]  # b's first column, spent until the next step
    fvs = [evaluate_functionals(model.functionals, block.x[j], scratch) for j in rows]
    marks = set(cfg.checkpoint_steps())
    dead = block.exit_step[cfg.cut_level] >= 0
    frozen = dead if dead.any() else False
    observe(block.split(r), fvs)
    for i in range(cfg.total_steps):
        for noise, purpose, out in draws:
            noise.increments(i, n, model.noise_dim, cfg.dt, purpose, out=out)
        for src, dst in copies:
            np.copyto(dst, src)
        coefficients = evaluate_coefficients(
            model, block.t, block.x, fvs, out=work.coefficients, _dead=frozen
        )
        if hook is not None:
            hook(block.split(r), fvs, coefficients, dw)
        euler_step(
            block, model, cfg, None, shared_dw=dw, fv=fvs,
            coefficients=coefficients, work=work,
        )
        if work.cut_exits:
            frozen = np.greater_equal(block.exit_step[cfg.cut_level], 0, out=dead)
        # euler_step has checked these positions are finite
        fvs = [
            evaluate_functionals(model.functionals, block.x[j], scratch, _finite=True)
            for j in rows
        ]
        if i + 1 in marks:
            observe(block.split(r), fvs)


def simulate(
    model: ModelSpec,
    lyap,
    cfg: SimConfig,
    init: InitialLaw,
    *,
    _on_checkpoint=None,
) -> DiagnosticsSeries:
    """Run the localized Euler scheme and collect checkpoint diagnostics.

    With a Lyapunov package the series carries the empirical ∫v dμ̂ with
    its 3σ Monte Carlo band, and the envelopes M(t) and M⁺(t) seeded by the
    measured Ev₀; without one, only functionals and exit fractions.
    ``_on_checkpoint`` is for the engine's own callers: it is called as
    ``_on_checkpoint(t, x)`` at every checkpoint with a view of the
    positions that later steps overwrite, and copies what it keeps.
    """
    keys = model.functional_keys()
    exits = [(f"exit_frac_{m:g}", m) for m in cfg.tracked_levels()]
    columns, rows = [], []
    meta = _base_meta(model, cfg)
    ev0 = v_sup = 0.0  # ev0, the measured E v(0, x₀), seeds the envelopes

    def observe(clouds, fvs):
        nonlocal ev0, v_sup
        cloud, fv = clouds[0], fvs[0]
        cells = [("t", cloud.t)] + [(k, fv[k]) for k in keys]
        if lyap is not None:
            v = np.asarray(lyap.v(cloud.t, cloud.x, fv), dtype=float)
            v_mean = float(tree_mean(v))
            if not cloud.step:
                ev0 = v_mean
            v_sup = max(v_sup, v_mean)
            # looked up at call time: the benchmark's tracer
            # (bench/spans.py) wraps both in mkvlab.lyapunov after import
            cells += [("v_mean", v_mean), ("v_band", _mc_band(v)),
                      ("M", lyapunov.envelope_M(lyap, ev0, cloud.t)),
                      ("M_plus", lyapunov.envelope_Mplus(lyap, ev0, cloud.t))]
        cells += [(name, cloud.exit_fraction(m)) for name, m in exits]
        if lyap is not None:
            cells.append(("v_sup", v_sup))
        if not cloud.step:
            columns.extend(name for name, _ in cells)
            meta["ev0"] = ev0
            meta.update((f"p0_out_{m:g}", cloud.exit_fraction(m)) for _, m in exits)
        rows.append([value for _, value in cells])
        if _on_checkpoint is not None:
            _on_checkpoint(cloud.t, cloud.x)

    lone = [(init, cfg.seed, NoiseStream.PURPOSE_INIT, NoiseStream.PURPOSE_STEP)]
    _run_clouds(model, cfg, lone, observe)
    return DiagnosticsSeries(columns=columns, rows=rows, meta=meta)


def coupled_simulate(
    model: ModelSpec,
    cfg: SimConfig,
    init1: InitialLaw,
    init2: InitialLaw,
    vbar: Callable[[np.ndarray], np.ndarray],
) -> DiagnosticsSeries:
    """Evolve two clouds under shared noise; track E v̄(x¹ − x²).

    Both clouds see identical Brownian increments, particle by particle, and
    each evolves under its own empirical law. Returns one series with
    columns (t, dist, band): dist is the paired empirical mean of v̄ of the
    coordinate difference (Euclidean norm of the difference when d > 1,
    since the shipped kernels are radial), and band is its 3-sigma
    cross-particle Monte Carlo width.
    """
    rows = []

    def observe(clouds, fvs):
        diff = clouds[0].x - clouds[1].x
        z = diff[:, 0] if model.dim == 1 else np.linalg.norm(diff, axis=1)
        values = np.asarray(vbar(z), dtype=float)
        rows.append([clouds[0].t, float(tree_mean(values)), _mc_band(values)])

    # the second cloud's own init purpose keeps its *initial* draw
    # independent; the equal step keys share one draw
    step = NoiseStream.PURPOSE_STEP
    clouds = [
        (init1, cfg.seed, NoiseStream.PURPOSE_INIT, step),
        (init2, cfg.seed, NoiseStream.PURPOSE_INIT2, step),
    ]
    _run_clouds(model, cfg, clouds, observe)
    return DiagnosticsSeries(
        columns=["t", "dist", "band"], rows=rows, meta=_base_meta(model, cfg)
    )
