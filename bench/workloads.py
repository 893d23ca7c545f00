"""The four workloads: scaled-down copies of acceptance-criterion configs.

Every workload is closed-loop: one client in one process runs one operation
after another. An operation is one full experiment, a CLI subcommand run
through ``mkvlab.cli.main`` or one library call. Each workload's config text
is also what the set-up probe parses, so the two cannot drift apart.

The output checks hold for any noise stream: they test exact identities,
orderings and statistical bounds, never particular draws.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import replace
from pathlib import Path

# Why each workload is here; BENCHMARK.json carries the same lines.
WHY = {
    "cir-large": "criterion 3 at N=1e5: per-particle kernels dominate (noise, ES sort, coefficients, three-level exits)",
    "coupled-small": "criterion 5 at N=1e3: fixed per-call cost dominates, the cost a replica-axis engine amortizes",
    "ito-ensemble": "criteria 1/7 at N=1e4 over 4 seeds: only user of mkvlab.lions, two functional/coefficient calls per step",
    "stationary-t2": "criterion 9 at threads=2: the only WorkerPool user, 201 snapshots, occupation pooling and W1",
}

CONFIGS = {
    "cir-large": """\
experiment = simulate
scenario.name = example3-cir
scenario.alpha = 0.05
sim.n_particles = 100000
sim.horizon = 0.2
sim.steps_per_unit = 1000
sim.cut_level = 5
sim.exit_levels = 2 3 5
sim.threads = 1
init = point 1.0
""",
    "coupled-small": """\
experiment = stability
scenario.name = linear-meanfield
scenario.a = -1.0
scenario.b = 0.5
scenario.sigma = 0.5
sim.n_particles = 1000
sim.horizon = 2.0
sim.steps_per_unit = 1000
sim.cut_level = 64
sim.threads = 1
init = point 0.0
stability.init_b = point 1.0
""",
    "ito-ensemble": """\
scenario.name = example1-quartic
sim.n_particles = 10000
sim.horizon = 0.2
sim.steps_per_unit = 1000
sim.cut_level = 2
sim.checkpoints = 0.0 0.2
sim.threads = 1
""",
    "stationary-t2": """\
experiment = stationary
scenario.name = example1-quartic
sim.n_particles = 10000
sim.steps_per_unit = 100
sim.cut_level = 2
sim.threads = 2
stationary.horizons = 2.5 5 10
""",
}

#: Seeds per ito-ensemble operation (program seeds s, s+1, ...).
ENSEMBLE_SEEDS = 4


def config_text(name: str, seed: int) -> str:
    return CONFIGS[name] + f"sim.seed = {seed}\n"


def _table(data: bytes) -> dict:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return {c: [float(r[j]) for r in rows[1:]] for j, c in enumerate(rows[0])}


def _summary(data: bytes) -> dict:
    pairs = (line.split(" = ", 1) for line in data.decode().splitlines())
    return {k: v for k, v in pairs}


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems (empty when the output holds)
# ---------------------------------------------------------------------------


def check_cir(files: dict, rc) -> list:
    """Exit fractions are monotone in t and in m, and under criterion 3's bound.

    The bound is P0 + M(t)/V_m + 3σ_MC. For example3-cir at its defaults
    (κ=1, θ=1.5, σ=1) the certificate has m1 = max(κ, 1/2) = 1 and
    m2 = κ²/2 + κθ = 2, so M(t) = Ev₀e^t + 2(e^t − 1) with Ev₀ = v(1) = 2;
    V_m = m² + m⁻², and P0 = 0 since the start point 1 lies in every D_m.
    """
    tab = _table(files["diagnostics.csv"])
    n = rc.n_particles
    problems = []
    levels = [int(m) for m in rc.exit_levels]
    fracs = [tab[f"exit_frac_{m}"] for m in levels]
    for m, f in zip(levels, fracs):
        if any(b < a for a, b in zip(f, f[1:])):
            problems.append(f"exit_frac_{m} decreases in t")
        for t, fk in zip(tab["t"], f):
            envelope = 2.0 * math.exp(t) + 2.0 * (math.exp(t) - 1.0)
            bound = envelope / (m**2 + m**-2.0)
            mc = 3.0 * math.sqrt(fk * (1.0 - fk) / n)
            if fk > bound + mc + 1e-12:
                problems.append(f"exit_frac_{m} = {fk} above bound {bound + mc} at t={t}")
                break
    for lo, hi in zip(fracs, fracs[1:]):
        if any(a < b for a, b in zip(lo, hi)):
            problems.append("exit fractions not ordered across levels")
    if abs(tab["t"][-1] - rc.horizon) > 1e-12:
        problems.append(f"last checkpoint t={tab['t'][-1]}, want {rc.horizon}")
    return problems


def check_coupled(files: dict, rc) -> list:
    """measured = (1 + (a+b)Δt)^{2k} to 1e-9 relative at every checkpoint.

    Both clouds start as point masses under shared noise, so every particle
    difference follows the same deterministic recursion.
    """
    tab = _table(files["stability.csv"])
    p = rc.scenario_params
    dt = 1.0 / rc.steps_per_unit
    worst = 0.0
    for t, measured in zip(tab["t"], tab["measured"]):
        k = round(t * rc.steps_per_unit)
        exact = (1.0 + (p["a"] + p["b"]) * dt) ** (2 * k)
        worst = max(worst, abs(measured - exact) / exact)
    problems = []
    if not worst <= 1e-9:
        problems.append(f"contraction identity off by {worst:.3e} relative")
    if len(tab["t"]) != 51:
        problems.append(f"{len(tab['t'])} checkpoints, want 51")
    return problems


#: Allowed |m̂4 − 3/4| of the occupation measure per horizon. Over seeds
#: 0–39 the pooled m̂4 had mean 0.791 / 0.780 / 0.783 and seed-to-seed
#: standard deviation 0.014 / 0.017 / 0.046 at T = 2.5 / 5 / 10. At T = 10 the
#: particles frozen outside D_2 make up a seed-dependent share of the pool,
#: so 0.1 would fail about one seed in fifteen; 0.25 is 4.7 deviations.
M4_TOLERANCE = {2.5: 0.1, 5.0: 0.1, 10.0: 0.25}


def check_stationary(files: dict, rc) -> list:
    """Occupation counts factor as checkpoints × particles kept; m̂4 ≈ 3/4.

    Checkpoints are spaced horizons[0]/50 apart, and pooling keeps at most
    10**6 points per horizon by striding over particles.
    """
    summary = _summary(files["summary.txt"])
    tab = _table(files["stationary.csv"])
    spacing = min(rc.horizons) / 50.0
    n = rc.n_particles
    problems = []
    for h in rc.horizons:
        kept = round(h / spacing)
        per = max(1, min(n, 10**6 // kept))
        particles = len(range(0, n, -(-n // per)))
        got = int(summary.get(f"occupation_count_T{h:g}", -1))
        if got != kept * particles:
            problems.append(f"occupation count at T={h:g} is {got}, want {kept}x{particles}")
    for h, m4 in zip(tab["horizon"], tab["m4"]):
        if not abs(m4 - 0.75) <= M4_TOLERANCE[h]:
            problems.append(f"occupation m4 at T={h:g} is {m4}, want 0.75 +- {M4_TOLERANCE[h]}")
    return problems


def check_ito(residuals: list, rc) -> list:
    """Mean |R(T)| over the seeds within 5(Δt + N^{-1/2}) (criterion 7's rate)."""
    dt = 1.0 / rc.steps_per_unit
    limit = 5.0 * (dt + rc.n_particles**-0.5)
    mean = sum(abs(r) for r in residuals) / len(residuals)
    return [] if mean <= limit else [f"mean |R(T)| = {mean:.4f} above {limit:.4f}"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """One CLI subcommand per operation, writing into a fixed output dir."""

    def __init__(self, name, rc, cfg_path: Path, out: Path, artifacts, check):
        self.name = name
        self.rc = rc
        self.argv = [rc.experiment, "--config", str(cfg_path), "--out", str(out)]
        self.out = out
        self.artifacts = artifacts
        self.check = check
        self.expected = None

    def run(self, threads=None):
        from mkvlab.cli import main

        return main(self.argv + ["--threads", str(threads or self.rc.threads)])

    def warm_up(self) -> None:
        """One untimed operation at threads=1, kept as the reference.

        Every timed operation must reproduce its CSV byte for byte, which
        for stationary-t2 is the check against a threads=1 run.
        """
        if self.run(threads=1) == 0:
            self.expected = (self.out / self.artifacts[0]).read_bytes()

    def inspect(self, code):
        """(digest of the emitted bytes, problems) for one finished run."""
        if code != 0:
            return None, [f"exit code {code}"]
        files = {a: (self.out / a).read_bytes() for a in self.artifacts}
        digest = hashlib.sha256(b"".join(files[a] for a in self.artifacts)).hexdigest()
        problems = self.check(files, self.rc)
        if files[self.artifacts[0]] != self.expected:
            problems.append(f"{self.artifacts[0]} differs from the threads=1 warm-up run")
        return digest, problems


class EnsembleWorkload:
    """ito_residual_measure(moment_function(4)) over consecutive seeds."""

    def __init__(self, name, rc):
        from mkvlab.lions import moment_function

        self.name = name
        self.rc = rc
        self.scenario = rc.scenario()
        self.u = moment_function(4)
        base = rc.sim_config()
        self.cfgs = [replace(base, seed=rc.seed + j) for j in range(ENSEMBLE_SEEDS)]

    def run(self):
        import mkvlab.lions

        sc = self.scenario
        return [
            mkvlab.lions.ito_residual_measure(self.u, sc.model, cfg, sc.default_init)
            for cfg in self.cfgs
        ]

    def warm_up(self) -> None:
        self.run()

    def inspect(self, series):
        blob = repr([s.rows for s in series]).encode()
        problems = []
        for s in series:
            if abs(s.rows[-1][0] - self.rc.horizon) > 1e-12:
                problems.append(f"residual series ends at t={s.rows[-1][0]}")
        residuals = [float(s.column("R")[-1]) for s in series]
        return hashlib.sha256(blob).hexdigest(), problems + check_ito(residuals, self.rc)


def build(name: str, seed: int, tmp: Path):
    """The workload ``name`` for ``seed``, with its parsed config as ``.rc``
    and the particles × steps × clouds × seeds of one operation as
    ``.particle_steps``."""
    from mkvlab.cli import parse_config

    text = config_text(name, seed)
    rc = parse_config(text)
    cfg_path = tmp / f"{name}.cfg"
    cfg_path.write_text(text)
    out = tmp / "out"
    horizon, clouds, seeds = rc.horizon, 1, 1
    if name == "cir-large":
        w = CliWorkload(name, rc, cfg_path, out, ["diagnostics.csv", "summary.txt"], check_cir)
    elif name == "coupled-small":
        w = CliWorkload(name, rc, cfg_path, out, ["stability.csv", "summary.txt"], check_coupled)
        clouds = 2
    elif name == "ito-ensemble":
        w = EnsembleWorkload(name, rc)
        seeds = ENSEMBLE_SEEDS
    else:
        w = CliWorkload(name, rc, cfg_path, out, ["stationary.csv", "summary.txt"], check_stationary)
        horizon = max(rc.horizons)
    w.particle_steps = rc.n_particles * round(horizon * rc.steps_per_unit) * clouds * seeds
    return w
