"""Command-line front end: run configs, experiment drivers, CSV emission.

Configs are flat text, one ``key = value`` per line with dotted section
prefixes (``scenario.alpha = -0.5``), ``#`` comments allowed. Flat text was
chosen over nested formats so configs diff line-by-line and round-trip
exactly: ``parse → serialize → parse`` yields an equal config. Every number
in emitted CSVs and summaries uses the shortest round-trip decimal form
(``repr``), which makes byte-comparison a meaningful reproducibility check.

Exit codes follow one convention across subcommands:

| 0 | run completed, no findings                         |
| 2 | config could not be parsed or a model was rejected |
| 3 | simulation blow-up / non-finite numbers            |
| 4 | a monitored bound or check reported findings       |

The engine is serial. A worker count is still accepted from ``--threads``,
then ``sim.threads``, and must be an integer >= 1 for every subcommand
(exit 2 otherwise), but it has no effect on the run or on any emitted byte.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import stability_experiment, stationary_estimate
from .lions import REGISTRY, check_structure, registry_function
from .lyapunov import check_floor, check_lyapunov_condition
from .measure import vbar_power, wasserstein_p_1d
from .model import ModelSpec, ladder_level
from .scenarios import Scenario, builtin_scenario
from .simulate import (
    BlowUpError,
    InitialLaw,
    PointMass,
    SimConfig,
    UniformBox,
    simulate,
)

EX_OK = 0
EX_CONFIG = 2
EX_BLOWUP = 3
EX_FINDINGS = 4

EXPERIMENTS = (
    "simulate",
    "stability",
    "stationary",
    "lions-check",
    "lyapunov-check",
    "wasserstein",
)


class ConfigError(ValueError):
    """A config line or field that cannot be used; message names both."""

    def __init__(self, message: str, lineno: int | None = None, key: str | None = None):
        where = []
        if lineno is not None:
            where.append(f"line {lineno}")
        if key is not None:
            where.append(key)
        prefix = ": ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """One experiment, fully specified.

    Initial laws are kept in their canonical text form (``point 1.0``,
    ``uniform -0.5 0.5`` or ``default`` for the scenario's own choice), so
    equality of two RunConfigs is plain field equality.
    """

    experiment: str = "simulate"
    out: str = "runs"
    tolerance: float = 0.0
    scenario_name: str = "example1-quartic"
    scenario_params: dict = field(default_factory=dict)
    n_particles: int = 1000
    horizon: float = 1.0
    steps_per_unit: int = 200
    cut_level: int = 4
    seed: int = 0
    exit_levels: tuple = ()
    threads: int = 1
    stream: int = 0
    checkpoints: tuple | None = None
    init: str = "default"
    init_b: str = "point 0.0"
    stability_mode: str = "auto"
    vbar_power: float = 2.0
    horizons: tuple = (10.0, 20.0, 40.0)
    lions_functions: tuple = ()
    lions_atoms: int = 64
    probes: int = 50
    probe_atoms: int = 64
    probe_scale: float = 2.0
    t_samples: tuple = (0.0, 0.5, 1.0)
    wasserstein_p: float = 1.0

    def sim_config(self) -> SimConfig:
        return SimConfig(
            n_particles=self.n_particles,
            horizon=self.horizon,
            steps_per_unit=self.steps_per_unit,
            cut_level=self.cut_level,
            seed=self.seed,
            exit_levels=self.exit_levels,
            checkpoints=self.checkpoints,
            stream=self.stream,
        )

    def scenario(self) -> Scenario:
        return builtin_scenario(self.scenario_name, **self.scenario_params)

    def initial_law(self, scenario: Scenario) -> InitialLaw:
        law = _parse_init(self.init)
        return scenario.default_init if law is None else law


def _parse_init(text: str) -> InitialLaw | None:
    """Parse an initial-law string; None means the scenario default."""
    tokens = text.split()
    if tokens == ["default"]:
        return None
    try:
        if tokens and tokens[0] == "point" and len(tokens) >= 2:
            return PointMass([float(c) for c in tokens[1:]])
        if tokens and tokens[0] == "uniform" and len(tokens) >= 3 and len(tokens) % 2 == 1:
            vals = [float(c) for c in tokens[1:]]
            half = len(vals) // 2
            return UniformBox(vals[:half], vals[half:])
    except ValueError as exc:
        raise ConfigError(f"bad initial law {text!r}: {exc}") from None
    raise ConfigError(
        f"bad initial law {text!r} (want 'default', 'point C ...'"
        " or 'uniform LO.. HI..')"
    )


def _init_text(text: str) -> str:
    """Canonical form of an initial-law string (floats repr'd)."""
    law = _parse_init(text)
    if law is None:
        return "default"
    if isinstance(law, PointMass):
        return "point " + " ".join(repr(c) for c in law.point)
    return "uniform " + " ".join(
        repr(c) for c in (*law.lower, *law.upper)
    )


def _int(val: str) -> int:
    return int(val, 0)


def _float(val: str) -> float:
    out = float(val)
    if math.isnan(out):
        raise ValueError("nan is not a usable value")
    return out


def _floats(val: str) -> tuple:
    if val == "none":
        return ()
    return tuple(_float(tok) for tok in val.split())


def _level(val: str) -> int:
    """A ladder level: integer text, or a real with no fractional part."""
    try:
        return _int(val)
    except ValueError:
        return ladder_level(_float(val))


def _levels(val: str) -> tuple:
    if val == "none":
        return ()
    return tuple(_level(tok) for tok in val.split())


def _level_text(val) -> str:
    return str(ladder_level(val))


def _strs(val: str) -> tuple:
    if val == "none":
        return ()
    return tuple(val.split())


def _tuple_text(show):
    """Serializer for tuple-valued keys; empty tuples read back via 'none'."""

    def fmt(vals):
        return " ".join(show(v) for v in vals) if vals else "none"

    return fmt


def _checkpoints(val: str) -> tuple | None:
    return None if val == "auto" else _floats(val)


def _experiment(val: str) -> str:
    if val not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {val!r}; have {', '.join(EXPERIMENTS)}")
    return val


#: key → (RunConfig attribute, parser, serializer). Scenario parameters are
#: handled separately since their key set is open.
_KEYS = {
    "experiment": ("experiment", _experiment, str),
    "out": ("out", str, str),
    "tolerance": ("tolerance", _float, repr),
    "scenario.name": ("scenario_name", str, str),
    "sim.n_particles": ("n_particles", _int, str),
    "sim.horizon": ("horizon", _float, repr),
    "sim.steps_per_unit": ("steps_per_unit", _int, str),
    "sim.cut_level": ("cut_level", _level, _level_text),
    "sim.seed": ("seed", _int, str),
    "sim.exit_levels": ("exit_levels", _levels, _tuple_text(_level_text)),
    "sim.threads": ("threads", _int, str),
    "sim.stream": ("stream", _int, str),
    "sim.checkpoints": (
        "checkpoints",
        _checkpoints,
        lambda v: "auto" if v is None else _tuple_text(repr)(v),
    ),
    "init": ("init", _init_text, str),
    "stability.init_b": ("init_b", _init_text, str),
    "stability.mode": ("stability_mode", str, str),
    "stability.vbar_power": ("vbar_power", _float, repr),
    "stationary.horizons": ("horizons", _floats, _tuple_text(repr)),
    "lions.functions": ("lions_functions", _strs, _tuple_text(str)),
    "lions.atoms": ("lions_atoms", _int, str),
    "lyapunov.probes": ("probes", _int, str),
    "lyapunov.probe_atoms": ("probe_atoms", _int, str),
    "lyapunov.probe_scale": ("probe_scale", _float, repr),
    "lyapunov.t_samples": ("t_samples", _floats, _tuple_text(repr)),
    "wasserstein.p": ("wasserstein_p", _float, repr),
}


def parse_config(text: str) -> RunConfig:
    """Parse flat ``key = value`` text into a RunConfig.

    Unknown keys, repeated keys and unparsable values raise ConfigError
    carrying the line number and key.
    """
    rc = RunConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key:
            raise ConfigError("expected 'key = value'", lineno)
        if not val:
            raise ConfigError("empty value", lineno, key)
        if key in seen:
            raise ConfigError("key given twice", lineno, key)
        seen.add(key)
        if key in _KEYS:
            attr, parse, _ = _KEYS[key]
            try:
                setattr(rc, attr, parse(val))
            except ValueError as exc:
                raise ConfigError(str(exc), lineno, key) from None
        elif key.startswith("scenario."):
            name = key[len("scenario."):]
            try:
                rc.scenario_params[name] = _float(val)
            except ValueError as exc:
                raise ConfigError(str(exc), lineno, key) from None
        else:
            raise ConfigError("unknown key", lineno, key)
    if rc.stability_mode not in ("auto", "pointwise", "integrated"):
        raise ConfigError(
            f"must be auto, pointwise or integrated, got {rc.stability_mode!r}",
            key="stability.mode",
        )
    return rc


def serialize_config(rc: RunConfig) -> str:
    """Emit a config that parses back equal to ``rc``, one key per line."""
    lines = []
    for key, (attr, _, show) in _KEYS.items():
        lines.append(f"{key} = {show(getattr(rc, attr))}")
        if key == "scenario.name":
            for name in sorted(rc.scenario_params):
                lines.append(f"scenario.{name} = {rc.scenario_params[name]!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _out_dir(rc: RunConfig) -> Path:
    path = Path(rc.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_summary(path: Path, pairs, raw_lines=()) -> None:
    """key = value lines; values are repr'd so they parse back losslessly."""
    with open(path, "w") as fh:
        for key, val in pairs:
            shown = repr(val) if isinstance(val, float) else str(val)
            fh.write(f"{key} = {shown}\n")
        for line in raw_lines:
            fh.write(line + "\n")


def _finite(series) -> bool:
    return all(
        math.isfinite(cell) for row in series.rows for cell in row
    )


def _probe_clouds(model: ModelSpec, count: int, atoms: int, scale: float, seed: int):
    """Random probe clouds inside the model's domain.

    Full-space models get centred normal clouds; the positive orthant gets
    lognormal ones so every probe is strictly inside the domain.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    clouds = []
    for _ in range(count):
        z = rng.standard_normal((atoms, model.dim))
        if model.ladder.kind == "positive-orthant":
            clouds.append(np.exp(0.5 * z))
        else:
            clouds.append(scale * z)
    return clouds


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(rc: RunConfig) -> int:
    scenario = rc.scenario()
    cfg = rc.sim_config()
    series = simulate(scenario.model, scenario.lyap, cfg, rc.initial_law(scenario))
    out = _out_dir(rc)
    series.to_csv(out / "diagnostics.csv")
    code = EX_OK
    violations = 0
    if not _finite(series):
        code = EX_BLOWUP
    elif scenario.lyap is not None:
        v_mean = series.column("v_mean")
        envelope = series.column("M")
        violations = int(np.sum(v_mean > envelope * (1.0 + rc.tolerance)))
        if violations:
            code = EX_FINDINGS
    pairs = [
        ("experiment", "simulate"),
        ("exit_code", code),
        ("envelope_violations", violations),
        ("tolerance", rc.tolerance),
    ]
    _write_summary(out / "summary.txt", pairs, series.summary_lines())
    return code


def cmd_stability(rc: RunConfig) -> int:
    scenario = rc.scenario()
    if scenario.stability is None:
        raise ConfigError(
            f"scenario {rc.scenario_name!r} ships no contraction certificates",
            key="scenario.name",
        )
    mode = rc.stability_mode
    if mode == "auto":
        mode = "pointwise" if scenario.stability.get("g") is not None else "integrated"
    g = scenario.stability.get("g")
    h = scenario.stability["h" if mode == "pointwise" else "h_int"]
    report = stability_experiment(
        scenario.model,
        vbar_power(rc.vbar_power),
        g,
        h,
        rc.sim_config(),
        rc.initial_law(scenario),
        _parse_init(rc.init_b) or scenario.default_init,
        mode=mode,
        tolerance=rc.tolerance,
    )
    out = _out_dir(rc)
    report.to_csv(out / "stability.csv")
    code = EX_OK if report.passed() else EX_FINDINGS
    if not all(math.isfinite(m) for m in report.measured):
        code = EX_BLOWUP
    pairs = [("experiment", "stability"), ("exit_code", code), ("mode", mode)]
    pairs += [(k, v) for k, v in report.meta.items()]
    pairs.append(("worst_margin", float(min(report.margins))))
    _write_summary(out / "summary.txt", pairs)
    return code


def cmd_stationary(rc: RunConfig) -> int:
    scenario = rc.scenario()
    occupations, diag = stationary_estimate(
        scenario.model,
        rc.sim_config(),
        rc.horizons,
        rc.initial_law(scenario),
        lyap=scenario.lyap,
    )
    out = _out_dir(rc)
    diag.to_csv(out / "stationary.csv")
    gaps = diag.column("w1_prev")[1:]  # first entry is nan: nothing precedes it
    cauchy = bool(np.all(np.diff(gaps) < 0)) if gaps.size >= 2 else True
    finite = all(
        np.isfinite(diag.column(name)[1:] if name == "w1_prev" else diag.column(name)).all()
        for name in diag.columns
    )
    code = EX_OK
    if not finite or not all(np.isfinite(o.samples).all() for o in occupations):
        code = EX_BLOWUP
    elif not cauchy:
        code = EX_FINDINGS
    pairs = [("experiment", "stationary"), ("exit_code", code)]
    pairs += [(k, v) for k, v in diag.meta.items()]
    pairs.append(("w1_gaps_decreasing", cauchy))
    for occ in occupations:
        pairs.append(
            (f"occupation_count_T{occ.horizon:g}", occ.samples.shape[0])
        )
    _write_summary(out / "summary.txt", pairs)
    return code


def cmd_lions_check(rc: RunConfig) -> int:
    uids = rc.lions_functions or tuple(sorted(REGISTRY))
    rng = np.random.Generator(np.random.Philox(rc.seed))
    atoms = rng.standard_normal((rc.lions_atoms, 1))
    out = _out_dir(rc)
    rows = []
    worst = []
    for uid in uids:
        u = registry_function(uid)  # ValueError for unknown uid → exit 2
        report = check_structure(u, atoms)
        for r in report.rows:
            rows.append((uid, r.probe, r.lhs, r.rhs, r.margin))
        w = report.worst()
        worst.append((uid, w.lhs if w else 0.0, report.passed()))
    with open(out / "lions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function", "probe", "lhs", "rhs", "margin"])
        for uid, probe, lhs, rhs, margin in rows:
            writer.writerow([uid, probe, repr(lhs), repr(rhs), repr(margin)])
    ok = all(passed for _, _, passed in worst)
    code = EX_OK if ok else EX_FINDINGS
    pairs = [("experiment", "lions-check"), ("exit_code", code),
             ("atoms", rc.lions_atoms), ("seed", rc.seed)]
    for uid, dev, passed in worst:
        pairs.append((f"max_fd_deviation[{uid}]", float(dev)))
        pairs.append((f"passed[{uid}]", passed))
    _write_summary(out / "summary.txt", pairs)
    return code


def cmd_lyapunov_check(rc: RunConfig) -> int:
    # with no probe cloud or no time sample there is nothing to check, and
    # an empty report would pass
    if rc.probes < 1:
        raise ConfigError(f"must be >= 1, got {rc.probes}", key="lyapunov.probes")
    if not rc.t_samples:
        raise ConfigError("need at least one time sample", key="lyapunov.t_samples")
    scenario = rc.scenario()
    if scenario.lyap is None:
        raise ConfigError(
            f"scenario {rc.scenario_name!r} ships no Lyapunov package",
            key="scenario.name",
        )
    probes = _probe_clouds(
        scenario.model, rc.probes, rc.probe_atoms, rc.probe_scale, rc.seed
    )
    tol = max(rc.tolerance, 1e-9)
    drift = check_lyapunov_condition(
        scenario.model, scenario.lyap, rc.t_samples, probes, tolerance=tol
    )
    floor = check_floor(scenario.model, scenario.lyap, rc.t_samples, probes, tolerance=tol)
    out = _out_dir(rc)
    drift.to_csv(out / "lyapunov_drift.csv")
    floor.to_csv(out / "lyapunov_floor.csv")
    code = EX_OK if drift.passed() and floor.passed() else EX_FINDINGS
    pairs = [("experiment", "lyapunov-check"), ("exit_code", code),
             ("scenario", rc.scenario_name), ("probes", rc.probes),
             ("probe_atoms", rc.probe_atoms), ("seed", rc.seed)]
    for rep in (drift, floor):
        w = rep.worst()
        pairs.append((f"worst_margin[{rep.title}]",
                      float(w.margin) if w else math.inf))
    _write_summary(out / "summary.txt", pairs)
    return code


def _load_samples(path: str) -> np.ndarray:
    """One numeric column per line; commas and a single header line tolerated."""
    attempts = (
        {},
        {"delimiter": ","},
        {"skiprows": 1},
        {"delimiter": ",", "skiprows": 1},
    )
    last = None
    for kwargs in attempts:
        try:
            arr = np.loadtxt(path, ndmin=2, **kwargs)
        except (ValueError, OSError) as exc:
            last = exc
            continue
        if arr.size and np.isfinite(arr).all():
            return arr
    raise ConfigError(f"cannot read samples from {path}: {last}")


def cmd_wasserstein(rc: RunConfig, path_a: str, path_b: str) -> int:
    a = _load_samples(path_a)
    b = _load_samples(path_b)
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise ConfigError("wasserstein expects one-dimensional sample files")
    dist = wasserstein_p_1d(a[:, 0], b[:, 0], rc.wasserstein_p)
    print(repr(dist))
    out = _out_dir(rc)
    with open(out / "wasserstein.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "n_a", "n_b", "distance"])
        writer.writerow(
            [repr(rc.wasserstein_p), a.shape[0], b.shape[0], repr(dist)]
        )
    return EX_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    parser.add_argument("--seed", type=int, metavar="U64", help="override sim.seed")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="accepted for compatibility, no effect; must be >= 1 "
                        "(default: config)")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--tolerance", type=float, metavar="REAL",
                        help="relative slack for bound checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkvlab",
        description="Interacting-particle experiments for measure-dependent SDEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "run one particle cloud and its moment envelopes",
        "stability": "coupled two-cloud contraction experiment",
        "stationary": "occupation measures over growing horizons",
        "lions-check": "measure-derivative finite-difference checks",
        "lyapunov-check": "drift inequality and floor checks on probe clouds",
        "wasserstein": "distance between two one-dimensional sample files",
    }
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=helps[name])
        _add_common(p)
        if name == "wasserstein":
            p.add_argument("samples", nargs=2, metavar="FILE",
                           help="two sample files (one value per line)")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        rc = parse_config(text)
    else:
        rc = RunConfig()
    rc.experiment = args.command
    if args.seed is not None:
        rc.seed = args.seed
    if args.threads is not None:
        rc.threads = args.threads
    if rc.threads < 1:
        raise ConfigError(f"must be >= 1, got {rc.threads}", key="sim.threads")
    if args.out is not None:
        rc.out = args.out
    if args.tolerance is not None:
        rc.tolerance = args.tolerance
    return rc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = _resolve(args)
        if args.command == "wasserstein":
            return cmd_wasserstein(rc, *args.samples)
        handler = {
            "simulate": cmd_simulate,
            "stability": cmd_stability,
            "stationary": cmd_stationary,
            "lions-check": cmd_lions_check,
            "lyapunov-check": cmd_lyapunov_check,
        }[args.command]
        return handler(rc)
    except ConfigError as exc:
        print(f"mkvlab: config error: {exc}", file=sys.stderr)
        return EX_CONFIG
    except ValueError as exc:
        # model/scenario construction rejected the parameters
        print(f"mkvlab: rejected: {exc}", file=sys.stderr)
        return EX_CONFIG
    except BlowUpError as exc:
        print(
            f"mkvlab: blow-up at step {exc.step} (t = {exc.time:g}): {exc}",
            file=sys.stderr,
        )
        return EX_BLOWUP
    except FloatingPointError as exc:
        print(f"mkvlab: numerical failure: {exc}", file=sys.stderr)
        return EX_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
