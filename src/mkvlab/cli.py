"""Command-line front end: run configs, experiment drivers, CSV emission.

Configs are flat text, one ``key = value`` per line with dotted section
prefixes (``scenario.alpha = -0.5``), ``#`` comments allowed. Flat text was
chosen over nested formats so configs diff line-by-line. A config that
states ``experiment`` must state the subcommand it is run with.

Only this module writes files: the library returns values, and each CSV
and summary cell is text as is, an integer (numpy and ``bool`` included)
through ``str``, or any other number as ``repr(float(x))``, the shortest
round-trip decimal, which makes byte-comparison a meaningful
reproducibility check. CSVs end lines with ``\\n`` and quote cells holding commas.

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
import warnings
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

    Initial laws are kept as their text (``point 1.0``, ``uniform -0.5 0.5``
    or ``default`` for the scenario's own choice), checked when parsed.
    """

    experiment: str | None = None  # None: the config does not state one
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


def _init(text: str) -> str:
    """An initial-law string, rejected here if it does not parse."""
    _parse_init(text)
    return text


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


def _strs(val: str) -> tuple:
    if val == "none":
        return ()
    return tuple(val.split())


def _checkpoints(val: str) -> tuple | None:
    return None if val == "auto" else _floats(val)


def _experiment(val: str) -> str:
    if val not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {val!r}; have {', '.join(EXPERIMENTS)}")
    return val


#: key → (RunConfig attribute, parser). Scenario parameters are handled
#: separately since their key set is open.
_KEYS = {
    "experiment": ("experiment", _experiment),
    "out": ("out", str),
    "tolerance": ("tolerance", _float),
    "scenario.name": ("scenario_name", str),
    "sim.n_particles": ("n_particles", _int),
    "sim.horizon": ("horizon", _float),
    "sim.steps_per_unit": ("steps_per_unit", _int),
    "sim.cut_level": ("cut_level", _level),
    "sim.seed": ("seed", _int),
    "sim.exit_levels": ("exit_levels", _levels),
    "sim.threads": ("threads", _int),
    "sim.stream": ("stream", _int),
    "sim.checkpoints": ("checkpoints", _checkpoints),
    "init": ("init", _init),
    "stability.init_b": ("init_b", _init),
    "stability.mode": ("stability_mode", str),
    "stationary.horizons": ("horizons", _floats),
    "lions.functions": ("lions_functions", _strs),
    "lions.atoms": ("lions_atoms", _int),
    "lyapunov.probes": ("probes", _int),
    "lyapunov.probe_atoms": ("probe_atoms", _int),
    "lyapunov.probe_scale": ("probe_scale", _float),
    "lyapunov.t_samples": ("t_samples", _floats),
    "wasserstein.p": ("wasserstein_p", _float),
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
            attr, parse = _KEYS[key]
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


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _out_dir(rc: RunConfig) -> Path:
    path = Path(rc.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cell(val) -> str:
    """The module docstring's cell rule."""
    if isinstance(val, str):
        return val
    if isinstance(val, (int, np.integer)):
        return str(val)
    return repr(float(val))


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _write_summary(path: Path, pairs) -> None:
    """``key = value`` lines, one per pair, in the order given."""
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {_cell(val)}\n" for key, val in pairs)


def _finite(series) -> bool:
    return all(
        math.isfinite(cell) for row in series.rows for cell in row
    )


def _probe_clouds(model: ModelSpec, count: int, atoms: int, scale: float, seed: int):
    """Random probe clouds inside the model's domain.

    Whole-space models get centred normal clouds; any other domain (of the
    built-ins, only the positive axis) gets lognormal ones, strictly inside
    (0, ∞).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    clouds = []
    for _ in range(count):
        z = rng.standard_normal((atoms, model.dim))
        if not model.ladder.whole_space:
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
    _write_csv(out / "diagnostics.csv", series.columns, series.rows)
    code = EX_OK
    violations = 0
    if not _finite(series):
        code = EX_BLOWUP
    elif scenario.lyap is not None:
        # M bounds the expectation; v_mean may exceed it by its 3σ band
        allowed = series.column("M") * (1.0 + rc.tolerance) + series.column("v_band")
        violations = int(np.sum(series.column("v_mean") > allowed))
        if violations:
            code = EX_FINDINGS
    pairs = [
        ("experiment", "simulate"),
        ("exit_code", code),
        ("envelope_violations", violations),
        ("tolerance", rc.tolerance),
    ]
    pairs += sorted(series.meta.items())
    pairs += [(f"final.{c}", x) for c, x in zip(series.columns, series.rows[-1])]
    _write_summary(out / "summary.txt", pairs)
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
    # every scenario's rates certify E|x¹ − x²|², so that is the kernel
    report = stability_experiment(
        scenario.model,
        vbar_power(2.0),
        g,
        h,
        rc.sim_config(),
        rc.initial_law(scenario),
        _parse_init(rc.init_b) or scenario.default_init,
        mode=mode,
        tolerance=rc.tolerance,
    )
    out = _out_dir(rc)
    rows = zip(report.times, report.measured, report.bound, report.band, report.margins)
    _write_csv(out / "stability.csv", ["t", "measured", "bound", "band", "margin"], rows)
    code = EX_OK if report.passed() else EX_FINDINGS
    if not all(math.isfinite(m) for m in report.measured):
        code = EX_BLOWUP
    pairs = [("experiment", "stability"), ("exit_code", code), ("mode", mode)]
    pairs += report.meta.items()
    pairs.append(("worst_margin", report.margin))
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
    _write_csv(out / "stationary.csv", diag.columns, diag.rows)
    gaps = diag.column("w1_prev")[1:]  # first entry is nan: nothing precedes it
    cauchy = bool(np.all(np.diff(gaps) < 0)) if gaps.size >= 2 else True
    finite = all(
        np.isfinite(diag.column(name)[1:] if name == "w1_prev" else diag.column(name)).all()
        for name in diag.columns
    )
    code = EX_OK
    if not finite:  # the pools hold engine positions, finite by construction
        code = EX_BLOWUP
    elif not cauchy:
        code = EX_FINDINGS
    pairs = [("experiment", "stationary"), ("exit_code", code)]
    pairs += diag.meta.items()
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
    _write_csv(out / "lions.csv", ["function", "probe", "lhs", "rhs", "margin"], rows)
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
    # an empty report would pass; a time outside [0, ∞) is no time of the run
    if rc.probes < 1:
        raise ConfigError(f"must be >= 1, got {rc.probes}", key="lyapunov.probes")
    if not rc.t_samples:
        raise ConfigError("need at least one time sample", key="lyapunov.t_samples")
    bad = [t for t in rc.t_samples if not 0.0 <= t < math.inf]
    if bad:
        raise ConfigError(
            f"time samples must lie in [0, inf), got {bad[0]!r}",
            key="lyapunov.t_samples",
        )
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
    for name, rep in (("lyapunov_drift.csv", drift), ("lyapunov_floor.csv", floor)):
        rows = [(r.probe, r.lhs, r.rhs, r.margin) for r in rep.rows]
        _write_csv(out / name, ["probe", "lhs", "rhs", "margin"], rows)
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
    """One numeric column per line; commas tolerated, and a first line that
    does not parse is a header. Every sample must be finite."""
    last = None
    for skiprows in (0, 1):
        for kwargs in ({}, {"delimiter": ","}):
            try:
                with warnings.catch_warnings():
                    # an empty file is refused below, in mkvlab's own words
                    warnings.simplefilter("ignore", UserWarning)
                    arr = np.loadtxt(path, ndmin=2, skiprows=skiprows, **kwargs)
            except (ValueError, OSError) as exc:
                last = exc
                continue
            if not arr.size:
                raise ConfigError(f"no samples in {path}")
            if not np.isfinite(arr).all():
                raise ConfigError(f"non-finite sample in {path}")
            return arr
    raise ConfigError(f"cannot read samples from {path}: {last}")


def cmd_wasserstein(rc: RunConfig, path_a: str, path_b: str) -> int:
    a = _load_samples(path_a)
    b = _load_samples(path_b)
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise ConfigError("wasserstein expects one-dimensional sample files")
    dist = wasserstein_p_1d(a[:, 0], b[:, 0], rc.wasserstein_p)
    print(_cell(dist))
    row = (rc.wasserstein_p, a.shape[0], b.shape[0], dist)
    _write_csv(_out_dir(rc) / "wasserstein.csv", ["p", "n_a", "n_b", "distance"], [row])
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
                        help="relative slack in simulate and stability; an absolute "
                        "margin floor (at least 1e-9) in lyapunov-check")


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
    if rc.experiment not in (None, args.command):
        raise ConfigError(
            f"the config states {rc.experiment!r}, run as {args.command!r}",
            key="experiment",
        )
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
