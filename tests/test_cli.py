"""Command-line behaviour: config parsing, exit codes, emitted files."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mkvlab.cli import (
    EXPERIMENTS,
    ConfigError,
    RunConfig,
    _resolve,
    _write_csv,
    _write_summary,
    build_parser,
    main,
    parse_config,
)

SIM_CFG = """\
experiment = simulate
scenario.name = example1-quartic
sim.n_particles = 200
sim.horizon = 0.5
sim.steps_per_unit = 50
sim.cut_level = 4.0
sim.seed = 1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_fully_populated_config_parses_exactly():
    text = """\
experiment = stability
out = runs/x
tolerance = 1e-09
scenario.name = example2-nonlinear
scenario.alpha = -0.3
scenario.sigma = 0.6
sim.n_particles = 2000
sim.horizon = 2.5
sim.steps_per_unit = 400
sim.cut_level = 6.0
sim.seed = 42
sim.exit_levels = 2 3
sim.threads = 4
sim.stream = 1
sim.checkpoints = 0.0 1.25 2.5
init = point 1.5
stability.init_b = uniform -0.5 0.5
stability.mode = integrated
stationary.horizons = 5.0
lions.functions = mean moment4
lions.atoms = 32
lyapunov.probes = 10
lyapunov.probe_atoms = 16
lyapunov.probe_scale = 1.5
lyapunov.t_samples = none
wasserstein.p = 2.0
"""
    assert parse_config(text) == RunConfig(
        experiment="stability",
        out="runs/x",
        tolerance=1e-09,
        scenario_name="example2-nonlinear",
        scenario_params={"alpha": -0.3, "sigma": 0.6},
        n_particles=2000,
        horizon=2.5,
        steps_per_unit=400,
        cut_level=6,
        seed=42,
        exit_levels=(2, 3),
        threads=4,
        stream=1,
        checkpoints=(0.0, 1.25, 2.5),
        init="point 1.5",
        init_b="uniform -0.5 0.5",
        stability_mode="integrated",
        horizons=(5.0,),
        lions_functions=("mean", "moment4"),
        lions_atoms=32,
        probes=10,
        probe_atoms=16,
        probe_scale=1.5,
        t_samples=(),
        wasserstein_p=2.0,
    )


def test_empty_tuples_survive_via_the_none_token():
    back = parse_config(
        "sim.exit_levels = none\nlions.functions = none\nlyapunov.t_samples = none\n"
    )
    assert back.exit_levels == ()
    assert back.lions_functions == ()
    assert back.t_samples == ()


def test_comments_and_blank_lines_are_ignored():
    rc = parse_config("# a comment\n\nsim.seed = 9  # trailing note\n")
    assert rc.seed == 9
    assert parse_config("# only a comment\n\n") == RunConfig()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("sim.seed = 1\nsim.n_particles 100\n", "line 2: expected"),
        ("bogus = 3\n", "line 1: bogus: unknown key"),
        ("sim.seed = 1\n# note\nsim.seed = 2\n", "line 3: sim.seed: key given twice"),
        ("sim.lag =\n", "line 1: sim.lag: empty value"),
        ("sim.lag = none\n", "line 1: sim.lag: unknown key"),
        ("sim.horizon = fast\n", "sim.horizon"),
        ("sim.horizon = nan\n", "nan is not a usable value"),
        ("stability.mode = sideways\n", "must be auto, pointwise or integrated"),
        ("experiment = frobnicate\n", "unknown experiment"),
        ("init = gaussian 0 1\n", "bad initial law"),
        ("scenario.alpha = wild\n", "scenario.alpha"),
    ],
)
def test_parse_errors_name_line_and_key(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


def test_ladder_levels_parse_as_integers():
    rc = parse_config("sim.cut_level = 4.0\nsim.exit_levels = 1 2.0\n")
    assert rc.cut_level == 4 and isinstance(rc.cut_level, int)
    assert rc.exit_levels == (1, 2) and all(isinstance(m, int) for m in rc.exit_levels)
    for text in ("sim.cut_level = 2.5\n", "sim.exit_levels = 1.5\n", "sim.cut_level = inf\n"):
        with pytest.raises(ConfigError, match="integer"):
            parse_config(text)


@pytest.mark.parametrize(
    "levels", ["sim.cut_level = 2.5", "sim.cut_level = 3\nsim.exit_levels = 1.5"]
)
def test_fractional_ladder_level_exits_with_code_2(tmp_path, capsys, levels):
    cfg = write_cfg(tmp_path, SIM_CFG.replace("sim.cut_level = 4.0", levels))
    out = tmp_path / "frac"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "ladder level must be an integer" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize(
    "command, text, flags, message",
    [
        ("simulate", SIM_CFG + "sim.threads = 0\n", [], "sim.threads: must be >= 1"),
        ("simulate", SIM_CFG, ["--threads", "0"], "sim.threads: must be >= 1"),
        (
            "simulate",
            SIM_CFG.replace("horizon = 0.5", "horizon = 0.51"),
            [],
            "off the grid",
        ),
        ("lions-check", SIM_CFG, ["--threads", "0"], "sim.threads: must be >= 1"),
        ("lyapunov-check", SIM_CFG + "sim.threads = 0\n", [], "sim.threads: must be >= 1"),
        ("wasserstein", SIM_CFG, ["--threads", "-1"], "sim.threads: must be >= 1"),
        ("simulate", SIM_CFG, ["--seed", "-1"], "seed must be in [0, 2**64)"),
        (
            "simulate",
            SIM_CFG.replace("sim.seed = 1", "sim.seed = 18446744073709551616"),
            [],
            "seed must be in [0, 2**64)",
        ),
        (
            "lyapunov-check",
            SIM_CFG + "lyapunov.probes = 0\n",
            [],
            "lyapunov.probes: must be >= 1",
        ),
        (
            "lyapunov-check",
            SIM_CFG + "lyapunov.t_samples = none\n",
            [],
            "lyapunov.t_samples: need at least one time sample",
        ),
        (
            "lyapunov-check",
            SIM_CFG + "lyapunov.t_samples = 0.0 -1\n",
            [],
            "lyapunov.t_samples: time samples must lie in [0, inf), got -1.0",
        ),
        (
            "lyapunov-check",
            SIM_CFG + "lyapunov.t_samples = inf\n",
            [],
            "lyapunov.t_samples: time samples must lie in [0, inf), got inf",
        ),
        (
            "lyapunov-check",
            SIM_CFG + "lyapunov.t_samples = nan\n",
            [],
            "lyapunov.t_samples: nan is not a usable value",
        ),
        (
            "simulate",
            SIM_CFG + "sim.checkpoints = 0.013\n",
            [],
            "checkpoint 0.013 is off the grid",
        ),
        (
            "stationary",
            SIM_CFG + "sim.checkpoints = 0.0 1e-12\n",
            [],
            "checkpoint 1e-12 is off the grid",
        ),
        (
            "stability",
            SIM_CFG.replace("example1-quartic", "linear-meanfield")
            + "stability.vbar_power = 1.0\n",
            [],
            "stability.vbar_power: unknown key",
        ),
        (
            "stationary",
            SIM_CFG + "stationary.horizons = 0.5 1\n",
            [],
            "checkpoint spacing 0.01 (shortest horizon / 50) is not a whole",
        ),
        (
            "simulate",
            SIM_CFG.replace("sim.horizon = 0.5", "sim.horizon = 3000000")
            .replace("sim.steps_per_unit = 50", "sim.steps_per_unit = 1000"),
            [],
            "3000000000 steps: an int32 exit record holds 2147483647",
        ),
    ],
    ids=[
        "sim.threads",
        "--threads",
        "off-grid-horizon",
        "lions-check",
        "lyapunov-check",
        "wasserstein",
        "--seed",
        "sim.seed",
        "lyapunov.probes",
        "lyapunov.t_samples",
        "t_samples=-1",
        "t_samples=inf",
        "t_samples=nan",
        "off-grid-checkpoint",
        "checkpoint-near-zero",
        "stability.vbar_power",
        "stationary-spacing-off-grid",
        "steps-beyond-int32",
    ],
)
def test_unusable_run_settings_exit_with_code_2(
    tmp_path, capsys, command, text, flags, message
):
    # the config states the subcommand it is run with
    text = text.replace("experiment = simulate\n", f"experiment = {command}\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "bad"
    argv = [command, "--config", cfg, "--out", str(out), *flags]
    if command == "wasserstein":
        sample = tmp_path / "a.txt"
        sample.write_text("0.0\n1.0\n")
        argv += [str(sample), str(sample)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_scenario_parameters_parse_as_floats():
    rc = parse_config("scenario.name = example2-nonlinear\nscenario.alpha = -0.25\n")
    assert rc.scenario_params == {"alpha": -0.25}


def test_threads_resolution_order(tmp_path):
    parser = build_parser()
    cfg = write_cfg(tmp_path, SIM_CFG + "sim.threads = 6\n")
    assert _resolve(parser.parse_args(["simulate", "--config", cfg])).threads == 6
    # an explicit flag beats the config
    args = parser.parse_args(["simulate", "--config", cfg, "--threads", "2"])
    assert _resolve(args).threads == 2


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_end_to_end(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "t", "m4", "v_mean", "v_band", "M", "M_plus", "exit_frac_4", "v_sup",
    ]
    summary = (out / "summary.txt").read_text()
    assert "exit_code = 0" in summary
    assert "envelope_violations = 0" in summary
    assert "seed = 1" in summary
    assert "final.v_band = " in summary


def test_seed_flag_overrides_the_config(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out7"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert "seed = 7" in (out / "summary.txt").read_text()


def test_a_config_experiment_other_than_the_subcommand_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG.replace("= simulate", "= stability"))
    out = tmp_path / "cmd"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "experiment: the config states 'stability', run as 'simulate'" in (
        capsys.readouterr().err
    )
    assert not out.exists()
    # a config that states the subcommand, or no experiment, runs
    for text in (SIM_CFG, SIM_CFG.replace("experiment = simulate\n", "")):
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "diagnostics.csv").exists()


def test_rejected_scenario_parameters_exit_config(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "scenario.name = example2-nonlinear\n"
        "scenario.alpha = 0.9\n"
        "scenario.sigma = 0.9\n",
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "rejected" in err
    assert "m = -4.46" in err


@pytest.mark.filterwarnings("ignore:overflow")
def test_blow_up_exits_with_step_and_time(tmp_path, capsys):
    # one particle keeps the mean functional finite right up to the step
    # whose position update overflows
    cfg = write_cfg(
        tmp_path,
        "scenario.name = linear-meanfield\n"
        "scenario.a = 1.0\n"
        "scenario.b = 0.0\n"
        "scenario.sigma = 0.0\n"
        "init = point 1e+308\n"
        "sim.n_particles = 1\n"
        "sim.horizon = 3.0\n"
        "sim.steps_per_unit = 1\n"
        "sim.cut_level = 1.7e+308\n",
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 3
    assert "blow-up at step" in capsys.readouterr().err


def test_an_infinite_envelope_exits_3_without_a_traceback(tmp_path, capsys):
    # m1 = +1, so M(720) = e^720·(ev0 + 2) − 2 is past the float range
    cfg = write_cfg(
        tmp_path,
        "scenario.name = example3-cir\n"
        "init = point 1.0\n"
        "sim.n_particles = 10\n"
        "sim.horizon = 720\n"
        "sim.steps_per_unit = 1\n",
    )
    out = tmp_path / "inf"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    summary = (out / "summary.txt").read_text()
    assert "final.M = inf\n" in summary
    assert "final.M_plus = inf\n" in summary


def test_negative_tolerance_turns_any_mass_into_findings(tmp_path):
    # tolerance -1 collapses the envelope to zero, so a healthy run reports
    # findings; this pins the findings exit path deterministically
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "strict"
    code = main(
        ["simulate", "--config", cfg, "--out", str(out), "--tolerance", "-1.0"]
    )
    assert code == 4
    summary = (out / "summary.txt").read_text()
    assert "exit_code = 4" in summary
    assert "envelope_violations = 0\n" not in summary


def test_envelope_violations_allow_the_monte_carlo_band(tmp_path):
    # linear-meanfield starts tight (a point mass makes M'(0) = E v'(0)),
    # so v_mean crosses M by Monte Carlo noise alone: here by up to about
    # 0.008 near t = 0.2, inside its 3σ band of about 0.07. Without the
    # band this run reports 5 violations and exits 4.
    cfg = write_cfg(
        tmp_path,
        "scenario.name = linear-meanfield\n"
        "sim.n_particles = 300\n"
        "sim.horizon = 1.0\n"
        "sim.steps_per_unit = 100\n"
        "sim.seed = 5\n"
        "tolerance = 0.0\n",
    )
    out = tmp_path / "band"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "envelope_violations = 0\n" in summary
    table = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)
    header = (out / "diagnostics.csv").read_text().splitlines()[0].split(",")
    v_mean, m = (table[:, header.index(c)] for c in ("v_mean", "M"))
    assert (v_mean > m).any()  # the band, not the envelope, absorbs them


def test_thread_count_never_changes_emitted_bytes(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}"
        code = main(
            ["simulate", "--config", cfg, "--out", str(out), "--threads", threads]
        )
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()
    assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()


# ---------------------------------------------------------------------------
# stability / stationary / check subcommands
# ---------------------------------------------------------------------------


def test_stability_welded_pair_has_zero_margin(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "scenario.name = linear-meanfield\n"
        "scenario.b = 0.0\n"
        "scenario.sigma = 0.3\n"
        "sim.n_particles = 64\n"
        "sim.horizon = 1.0\n"
        "sim.steps_per_unit = 100\n"
        "sim.cut_level = 8.0\n"
        "init = point 1.0\n"
        "stability.init_b = point 1.0\n",
    )
    out = tmp_path / "stab"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "mode = pointwise" in summary
    assert "worst_margin = 0.0" in summary
    assert (out / "stability.csv").exists()


def test_stability_without_certificates_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.name = example1-quartic\n")
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "no contraction certificates" in capsys.readouterr().err


def test_stability_negative_tolerance_reports_findings(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "scenario.name = scheutzow-clip\n"
        "sim.n_particles = 64\n"
        "sim.horizon = 0.5\n"
        "sim.steps_per_unit = 50\n"
        "sim.cut_level = 8.0\n"
        "init = point 0.0\n"
        "stability.init_b = point 1.0\n",
    )
    out = tmp_path / "sf"
    code = main(
        ["stability", "--config", cfg, "--out", str(out), "--tolerance", "-1.0"]
    )
    assert code == 4


def test_stationary_end_to_end(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "scenario.name = example1-quartic\n"
        "sim.n_particles = 300\n"
        "sim.steps_per_unit = 50\n"
        "sim.cut_level = 2.0\n"
        "stationary.horizons = 2.0 4.0\n",
    )
    out = tmp_path / "stat"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "stationary.csv").read_text().splitlines()[0]
    assert header == "horizon,m4,w1_prev"
    summary = (out / "summary.txt").read_text()
    assert "w1_gaps_decreasing = True" in summary
    assert "horizons = 2/4" in summary
    assert "occupation_count_T2 = " in summary
    assert "occupation_count_T4 = " in summary


def test_lions_check_passes_for_the_whole_registry(tmp_path):
    out = tmp_path / "lions"
    assert main(["lions-check", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    for uid in ("mean", "mean-square", "moment2", "moment4"):
        assert f"passed[{uid}] = True" in summary
    header = (out / "lions.csv").read_text().splitlines()[0]
    assert header == "function,probe,lhs,rhs,margin"


@pytest.mark.parametrize("name", ["example1-quartic", "example3-cir"])
def test_lyapunov_check_passes_on_shipped_scenarios(tmp_path, name):
    cfg = write_cfg(
        tmp_path,
        f"scenario.name = {name}\n"
        "lyapunov.probes = 8\n"
        "lyapunov.probe_atoms = 16\n",
    )
    out = tmp_path / "lyap"
    assert main(["lyapunov-check", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "lyapunov_drift.csv").exists()
    assert (out / "lyapunov_floor.csv").exists()
    assert "exit_code = 0" in (out / "summary.txt").read_text()


# ---------------------------------------------------------------------------
# wasserstein
# ---------------------------------------------------------------------------


def test_wasserstein_identical_files_print_zero(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("0.0\n1.0\n2.0\n3.0\n")
    out = tmp_path / "w0"
    assert main(["wasserstein", str(a), str(a), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_wasserstein_shift_distance_and_csv(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    vals = [0.0, 1.0, 2.0, 3.0]
    a.write_text("".join(f"{v}\n" for v in vals))
    # a single header line is tolerated
    b.write_text("value\n" + "".join(f"{v + 0.5}\n" for v in vals))
    out = tmp_path / "w"
    assert main(["wasserstein", str(a), str(b), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "0.5"
    lines = (out / "wasserstein.csv").read_text().splitlines()
    assert lines[0] == "p,n_a,n_b,distance"
    assert lines[1] == "1.0,4,4,0.5"


@pytest.mark.parametrize("first", ["nan", "inf", "-inf", "value"])
def test_wasserstein_reads_a_first_line_as_a_header_only_if_it_does_not_parse(
    tmp_path, capsys, first
):
    # a non-finite first value is a sample, and no sample may be non-finite
    a = tmp_path / "a.txt"
    a.write_text(f"{first}\n1.0\n2.0\n")
    b = tmp_path / "b.txt"
    b.write_text("0.0\n1.0\n")
    out = tmp_path / "w"
    code = main(["wasserstein", str(a), str(b), "--out", str(out)])
    captured = capsys.readouterr()
    if first == "value":
        assert code == 0 and captured.out.strip() == "1.0"
    else:
        assert code == 2 and "non-finite sample" in captured.err
        assert not out.exists()


@pytest.mark.parametrize("text", ["", "value\n"], ids=["empty", "header-only"])
def test_wasserstein_refuses_a_file_without_samples_in_one_line(tmp_path, text):
    # a fresh interpreter: pytest would catch a warning before stderr saw it
    a = tmp_path / "a.txt"
    a.write_text(text)
    b = tmp_path / "b.txt"
    b.write_text("0.0\n1.0\n")
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "mkvlab.cli", "wasserstein", str(a), str(b)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 2
    assert run.stderr == f"mkvlab: config error: no samples in {a}\n"


def test_wasserstein_rejects_matrix_input(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("0.0,1.0\n2.0,3.0\n")
    b = tmp_path / "b.txt"
    b.write_text("0.0\n1.0\n")
    assert main(["wasserstein", str(a), str(b), "--out", str(tmp_path / "w2")]) == 2
    assert "one-dimensional" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# emitted files
# ---------------------------------------------------------------------------


def test_every_csv_ends_its_lines_with_a_bare_newline(tmp_path):
    # csv.writer's default line end is CRLF; every CSV writes LF alone
    small = (
        "sim.n_particles = 64\n"
        "sim.steps_per_unit = 50\n"
        "sim.cut_level = 8.0\n"
        "lyapunov.probes = 4\n"
        "lyapunov.probe_atoms = 8\n"
        "lions.atoms = 8\n"
    )
    samples = tmp_path / "a.txt"
    samples.write_text("0.0\n1.0\n2.0\n3.0\n")
    runs = {
        "simulate": ("example1-quartic", []),
        "stability": ("linear-meanfield", []),
        "stationary": ("example1-quartic", []),
        "lions-check": ("example1-quartic", []),
        "lyapunov-check": ("example3-cir", []),
        "wasserstein": ("example1-quartic", [str(samples), str(samples)]),
    }
    assert set(runs) == set(EXPERIMENTS)
    for command, (scenario, args) in runs.items():
        cfg = write_cfg(
            tmp_path,
            f"scenario.name = {scenario}\nsim.horizon = 0.5\n"
            "stationary.horizons = 1.0 2.0\n" + small,
            name=f"{command}.cfg",
        )
        out = tmp_path / command
        assert main([command, *args, "--config", cfg, "--out", str(out)]) == 0
        csvs = sorted(out.glob("*.csv"))
        assert csvs, command
        for path in csvs:
            assert b"\r" not in path.read_bytes(), path.name


def test_numpy_scalars_are_written_as_plain_numbers(tmp_path):
    # a library value may be a numpy scalar; its repr is not a number
    summary = tmp_path / "summary.txt"
    _write_summary(summary, [("x", np.float64(0.1)), ("n", np.int64(3)), ("ok", True)])
    assert summary.read_bytes() == b"x = 0.1\nn = 3\nok = True\n"
    table = tmp_path / "table.csv"
    _write_csv(
        table,
        ["probe", "lhs", "count"],
        [("t=0.5:rep(1,2)", np.float64(14.25), np.int32(2)), ("cloud00@t=0", 1e-300, 7)],
    )
    assert table.read_bytes() == (
        b'probe,lhs,count\n"t=0.5:rep(1,2)",14.25,2\ncloud00@t=0,1e-300,7\n'
    )
