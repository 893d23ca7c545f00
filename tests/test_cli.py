"""Command-line behaviour: config round-trips, exit codes, emitted files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkvlab.cli import (
    EXPERIMENTS,
    ConfigError,
    RunConfig,
    _resolve,
    build_parser,
    main,
    parse_config,
    serialize_config,
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
# config parsing and serialization
# ---------------------------------------------------------------------------


def test_default_config_round_trips():
    rc = RunConfig()
    assert parse_config(serialize_config(rc)) == rc


def test_fully_populated_config_round_trips_exactly():
    rc = RunConfig(
        experiment="stability",
        out="runs/x",
        tolerance=1e-09,
        scenario_name="example2-nonlinear",
        scenario_params={"alpha": -0.3, "sigma": 0.6},
        n_particles=2000,
        horizon=2.5,
        steps_per_unit=400,
        cut_level=6.0,
        seed=42,
        exit_levels=(2, 3),
        threads=4,
        stream=1,
        checkpoints=(0.0, 1.25, 2.5),
        init="point 1.5",
        init_b="uniform -0.5 0.5",
        stability_mode="integrated",
        vbar_power=1.0,
        horizons=(5.0,),
        lions_functions=("mean", "moment4"),
        lions_atoms=32,
        probes=10,
        probe_atoms=16,
        probe_scale=1.5,
        t_samples=(),
        wasserstein_p=2.0,
    )
    text = serialize_config(rc)
    assert parse_config(text) == rc
    # serialization is a fixed point, so configs diff cleanly
    assert serialize_config(parse_config(text)) == text


# What the format can carry: values are stripped and split on whitespace,
# and '#' starts a comment, so a text value is a token free of both. NaN is
# rejected on input. Scenario parameter keys end at the first '=', and
# 'scenario.name' is the scenario itself. A tuple of tokens spells the empty
# tuple 'none', so the one-token tuple ('none',) has no text of its own.
FLOATS = st.floats(allow_nan=False)
TOKENS = st.text(min_size=1).filter(
    lambda t: "#" not in t and not any(c.isspace() for c in t)
)


@st.composite
def initial_laws(draw):
    kind = draw(st.sampled_from(("default", "point", "uniform")))
    if kind == "default":
        return "default"
    dim = draw(st.integers(1, 3))
    if kind == "point":
        coords = draw(st.lists(FLOATS, min_size=dim, max_size=dim))
    else:
        pairs = draw(
            st.lists(
                st.tuples(FLOATS, FLOATS).filter(lambda p: p[0] != p[1]),
                min_size=dim,
                max_size=dim,
            )
        )
        coords = [min(p) for p in pairs] + [max(p) for p in pairs]
    return " ".join([kind] + [repr(c) for c in coords])


RUN_CONFIGS = st.builds(
    RunConfig,
    experiment=st.sampled_from(EXPERIMENTS),
    out=TOKENS,
    tolerance=FLOATS,
    scenario_name=TOKENS,
    scenario_params=st.dictionaries(
        TOKENS.filter(lambda t: "=" not in t and t != "name"), FLOATS, max_size=3
    ),
    n_particles=st.integers(),
    horizon=FLOATS,
    steps_per_unit=st.integers(),
    cut_level=st.integers(),
    seed=st.integers(),
    exit_levels=st.lists(st.integers(), max_size=4).map(tuple),
    threads=st.integers(),
    stream=st.integers(),
    checkpoints=st.none() | st.lists(FLOATS, max_size=4).map(tuple),
    init=initial_laws(),
    init_b=initial_laws(),
    stability_mode=st.sampled_from(("auto", "pointwise", "integrated")),
    vbar_power=FLOATS,
    horizons=st.lists(FLOATS, max_size=4).map(tuple),
    lions_functions=st.lists(TOKENS, max_size=4)
    .map(tuple)
    .filter(lambda fs: fs != ("none",)),
    lions_atoms=st.integers(),
    probes=st.integers(),
    probe_atoms=st.integers(),
    probe_scale=FLOATS,
    t_samples=st.lists(FLOATS, max_size=4).map(tuple),
    wasserstein_p=FLOATS,
)


@settings(deadline=None)
@given(RUN_CONFIGS)
def test_random_configs_round_trip(rc):
    text = serialize_config(rc)
    assert parse_config(text) == rc
    assert serialize_config(parse_config(text)) == text


def test_empty_tuples_survive_via_the_none_token():
    rc = RunConfig(exit_levels=(), lions_functions=(), t_samples=())
    text = serialize_config(rc)
    assert "sim.exit_levels = none" in text
    assert "lions.functions = none" in text
    back = parse_config(text)
    assert back.exit_levels == ()
    assert back.t_samples == ()


def test_comments_and_blank_lines_are_ignored():
    rc = parse_config("# a comment\n\nsim.seed = 9  # trailing note\n")
    assert rc.seed == 9


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
    assert rc.exit_levels == (1, 2)
    assert "sim.cut_level = 4\n" in serialize_config(rc)
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
    ],
)
def test_unusable_run_settings_exit_with_code_2(
    tmp_path, capsys, command, text, flags, message
):
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
        "t", "m4", "v_mean", "M", "M_plus", "exit_frac_4", "v_sup",
    ]
    summary = (out / "summary.txt").read_text()
    assert "exit_code = 0" in summary
    assert "envelope_violations = 0" in summary
    assert "seed = 1" in summary


def test_seed_flag_overrides_the_config(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out7"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert "seed = 7" in (out / "summary.txt").read_text()


def test_subcommand_wins_over_config_experiment(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG.replace("= simulate", "= stability"))
    out = tmp_path / "cmd"
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


def test_wasserstein_rejects_matrix_input(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("0.0,1.0\n2.0,3.0\n")
    b = tmp_path / "b.txt"
    b.write_text("0.0\n1.0\n")
    assert main(["wasserstein", str(a), str(b), "--out", str(tmp_path / "w2")]) == 2
    assert "one-dimensional" in capsys.readouterr().err
