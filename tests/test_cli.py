from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from hfda import cli, harness
from hfda.cli import ConfigError, main, parse_config
from hfda.observe import DERIVATIVE_MODES
from hfda.optimize import SCHEDULE_KINDS
from hfda.stochastic import SAMPLER_KINDS

REPO_CONFIGS = Path(__file__).parent.parent / "configs"


def write_config(tmp_path, body):
    path = tmp_path / "exp.ini"
    path.write_text(body)
    return path


MINIMAL = """\
[experiment]
model = fitzhugh_nagumo
seed = 7
"""

SMALL_FN = """\
[experiment]
model = fitzhugh_nagumo
seed = 7
h = 0.25

[observation]
period = 0.05
"""


def test_parse_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.model == "fitzhugh_nagumo"
    assert cfg.h == 1.0
    assert cfg.obs_period == 0.01
    assert cfg.obs_sigma == 0.1
    assert cfg.race_budget == 1.0
    assert cfg.solver_kappa is None  # run_solver derives an unset stride
    assert cfg.table1_potps == (0.01, 0.1)


def test_parse_overrides_apply_last(tmp_path):
    path = write_config(tmp_path, MINIMAL + "\n[solver]\neta0 = 0.5\n")
    cfg = parse_config(path, overrides=["solver.eta0=0.01", "race.budget=2.5"])
    assert cfg.solver_eta0 == 0.01
    assert cfg.race_budget == 2.5


def test_parse_rejects_malformed_line(tmp_path):
    path = write_config(tmp_path, "[experiment]\nmodel = fitzhugh_nagumo\nfoo bar\n")
    with pytest.raises(ConfigError, match="line"):
        parse_config(path)


def test_parse_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, MINIMAL + "\n[solver]\nwarpdrive = 9\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(path)
    with pytest.raises(ConfigError, match="unknown override key"):
        parse_config(write_config(tmp_path, MINIMAL), overrides=["solver.warpdrive=9"])
    # estimating part of θ, reweighting averages, GN damping and the kSGD form are not settings
    removed = [
        ("experiment", "estimate_x0", "false"),
        ("modify", "reweight", "true"),
        ("solver", "damping", "0"),
        ("solver", "form", "covariance"),
    ]
    for section, key, value in removed:
        extra = f"{key} = {value}\n" if section == "experiment" else f"\n[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"unknown config key \[{section}\] {key}"):
            parse_config(write_config(tmp_path, MINIMAL + extra))


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config(tmp_path / "nope.ini")


def test_parse_requires_model(tmp_path):
    path = write_config(tmp_path, "[experiment]\nseed = 4\n")
    with pytest.raises(ConfigError, match="model"):
        parse_config(path)


@pytest.mark.parametrize("name", ["fitzhugh_nagumo", "lotka_volterra", "van_der_pol"])
def test_committed_configs_parse(name):
    # a shipped config spells out the defaults and picks a solver; a set eta0
    # or kappa would override the tuned step and the derived stride
    cfg = parse_config(REPO_CONFIGS / f"{name}.ini")
    defaults = harness.ExperimentConfig(model=name, seed=1234, output_dir=f"runs/{name}")
    fields = [f.name for f in dataclasses.fields(cfg)]
    assert [f for f in fields if getattr(cfg, f) != getattr(defaults, f)] == ["solver_name"]


def test_simulate_is_idempotent(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_FN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--output-dir", str(out_a)]) == 0
    assert main(["simulate", "--config", str(path), "--output-dir", str(out_b)]) == 0
    csv_a = (out_a / "fitzhugh_nagumo_observations.csv").read_bytes()
    csv_b = (out_b / "fitzhugh_nagumo_observations.csv").read_bytes()
    assert csv_a == csv_b
    assert b"t,y1,y2,weight" in csv_a.splitlines()[0]


def test_modify_subcommand_row_count(tmp_path):
    path = write_config(tmp_path, SMALL_FN)
    out = tmp_path / "mod"
    code = main(
        [
            "modify",
            "--config",
            str(path),
            "--output-dir",
            str(out),
            "--modify",
            "systematic_random",
            "--potp",
            "0.1",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    rows = (out / "fitzhugh_nagumo_systematic_random_observations.csv").read_text().splitlines()
    assert len(rows) == 1 + 100  # header + 10% of the 1000 observations


def test_modify_writes_the_weights_every_fit_applies(tmp_path):
    # averaged observations carry the unit weights the loss uses
    path = write_config(tmp_path, SMALL_FN)
    out = tmp_path / "mod"
    argv = ["modify", "--config", str(path), "--output-dir", str(out)]
    assert main(argv + ["--modify", "average_upper", "--potp", "0.1"]) == 0
    lines = (out / "fitzhugh_nagumo_average_upper_observations.csv").read_text().splitlines()
    assert lines[0].endswith(",weight") and len(lines) == 1 + 100
    assert {float(line.rsplit(",", 1)[1]) for line in lines[1:]} == {1.0}


def test_check_subcommand_reports_and_passes(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_FN)
    assert main(["check", "--config", str(path)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("PASS jacobian_fd discrepancy=")


def test_check_subcommand_fails_on_a_corrupted_jacobian(
    tmp_path, capsys, monkeypatch, fn_corrupted_jac_x
):
    path = write_config(tmp_path, SMALL_FN)
    monkeypatch.setattr(cli, "get_model", lambda name: fn_corrupted_jac_x)
    assert main(["check", "--config", str(path)]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL jacobian_fd discrepancy=")


def test_solve_subcommand_writes_trace(tmp_path):
    path = write_config(
        tmp_path,
        SMALL_FN
        + """
[solver]
name = gn
budget = 0
max_iter = 3
theta0 = reference

[reference]
max_iter = 10
gtol = 1e-2
""",
    )
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--output-dir", str(out)]) == 0
    trace = (out / "fitzhugh_nagumo_gn_none.csv").read_text().splitlines()
    assert trace[0] == "time,error"
    times = [float(line.split(",")[0]) for line in trace[1:]]
    assert times == sorted(times)
    meta = (out / "fitzhugh_nagumo_gn_none.meta").read_text()
    assert "terminated_by" in meta and "solver = gn" in meta


def test_solve_meta_records_the_modify_fraction(tmp_path):
    path = write_config(
        tmp_path,
        SMALL_FN
        + """
[modify]
scheme = systematic_random
potp = 0.1

[solver]
name = gd
budget = 0
max_iter = 2

[reference]
max_iter = 10
gtol = 1e-2
""",
    )
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--output-dir", str(out)]) == 0
    meta = (out / "fitzhugh_nagumo_gd_systematic_random.meta").read_text().splitlines()
    assert "potp = 0.1" in meta


def test_default_kappa_follows_the_observation_period(tmp_path):
    # FitzHugh-Nagumo's stride 50 is tuned at period 0.01; at period 0.05 the
    # same coarse step 0.5 is stride 10 (stride 50 would step 2.5 and diverge)
    body = (
        SMALL_FN
        + """
[solver]
name = sgd
budget = 0
max_iter = 20

[reference]
max_iter = 10
gtol = 1e-2
"""
    )
    path = write_config(tmp_path, body)
    assert parse_config(path).solver_kappa is None
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--output-dir", str(out)]) == 0
    meta = (out / "fitzhugh_nagumo_sgd_none.meta").read_text().splitlines()
    assert "kappa = 10" in meta
    iterations = next(int(line.split(" = ")[1]) for line in meta if line.startswith("iterations"))
    assert iterations > 0


def test_default_kappa_keeps_the_coarse_step_on_thinned_data(tmp_path):
    # stride 50 at period 0.01 is a coarse step of 0.5; average_upper at 10%
    # keeps every tenth time, so the same step is stride 5 (stride 50 would
    # step 5.0 and diverge at once)
    body = (
        MINIMAL
        + """
[modify]
scheme = average_upper
potp = 0.1

[solver]
name = ksgd
budget = 0
max_iter = 3

[reference]
max_iter = 10
gtol = 1e-2
"""
    )
    path, out = write_config(tmp_path, body), tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--output-dir", str(out)]) == 0
    meta = (out / "fitzhugh_nagumo_ksgd_average_upper.meta").read_text().splitlines()
    assert "kappa = 5" in meta
    assert "iterations = 3" in meta
    assert "terminated_by = divergence" not in meta


def test_unknown_solver_exits_nonzero(tmp_path):
    path = write_config(tmp_path, SMALL_FN + "\n[solver]\nname = bfgs\n")
    out = tmp_path / "x"
    assert main(["solve", "--config", str(path), "--output-dir", str(out)]) == 2
    assert not list(out.glob("reference_*.json"))  # rejected before any fit


def test_unknown_sampler_exits_before_fitting(tmp_path):
    path = write_config(tmp_path, SMALL_FN + "\n[solver]\nname = sgd\nsampler = bogus\n")
    out = tmp_path / "x"
    assert main(["solve", "--config", str(path), "--output-dir", str(out)]) == 2
    assert not list(out.glob("reference_*.json"))


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("experiment", "mode", "reverse"),
        ("solver", "name", "bfgs"),
        ("solver", "sampler", "bogus"),
        ("solver", "sampler", "full"),
        ("solver", "schedule", "cosine"),
        ("solver", "theta0", "random"),
        ("solver", "kappa", "0"),
        ("solver", "eta0", "0"),
        ("solver", "eta0", "-3e-7"),
        ("experiment", "model", "bogus"),
        ("experiment", "h", "0"),
        ("observation", "period", "-0.01"),
        ("observation", "sigma", "-1"),
        ("modify", "scheme", "bogus"),
        ("modify", "potp", "0"),
        ("modify", "potp", "1.5"),
        ("race", "potp", "0"),
        ("table1", "potps", "0.01, 0"),
        ("table1", "potps", ""),
        ("solver", "record_every", "0"),
        ("race", "record_every", "0"),
        ("table1", "max_iter", "0"),
        ("reference", "max_iter", "0"),
        ("solver", "k0", "0"),
        ("solver", "alpha", "2"),
        ("observation", "period", "60"),
        # a negative cap or tolerance would mean the same as 0
        ("solver", "max_iter", "-3"),
        ("race", "max_iter", "-1"),
        ("solver", "gtol", "-1"),
        ("table1", "gtol", "-1"),
        # a reference fit at gtol 0 cannot converge, so it is never cached
        ("reference", "gtol", "0"),
        ("table1", "potps", "0.5, 0.5"),
    ],
)
def test_parse_rejects_bad_enumerated_or_nonpositive_value(tmp_path, section, key, value):
    if key == "model":
        body = MINIMAL.replace("fitzhugh_nagumo", value)
    elif section == "experiment":
        body = MINIMAL + f"{key} = {value}\n"
    else:
        body = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        parse_config(write_config(tmp_path, body))


@pytest.mark.parametrize(
    "command, overrides, named",
    [
        ("solve", ["solver.record_every=0"], "override key solver.record_every"),
        ("solve", ["solver.budget=0"], "[solver] budget or [solver] max_iter"),
        ("race", ["race.budget=-1"], "[race] budget or [race] max_iter"),
        ("solve", ["solver.theta0=explicit"], "[solver] theta0_values with 6 components"),
        (
            "solve",
            ["solver.theta0=explicit", "solver.theta0_values=1,2"],
            "[solver] theta0_values with 6 components",
        ),
        # SMALL_FN has 1000 observations: neither keeps one at potp 0.0001
        ("modify", ["modify.scheme=simple_random", "modify.potp=0.0001"], "[modify] potp"),
        ("modify", ["modify.scheme=systematic_random", "modify.potp=0.0001"], "[modify] potp"),
        ("table1", ["table1.potps="], "[table1] potps"),
        # checked when the command starts: a simulate config may carry them unused
        ("table1", ["table1.potps=0.1,0.0001"], "[table1] potps 0.0001 leaves simple_random"),
        ("race", ["race.potp=0.0001"], "[race] potp 0.0001 leaves simple_random"),
        # numpy would reject the seed only after the reference fit, and a
        # NaN budget would never stop the run
        ("solve", ["solver.name=sgd", "solver.seed=-4"], "override key solver.seed"),
        ("solve", ["solver.name=sgd", "solver.budget=nan"], "override key solver.budget"),
        ("table1", ["reference.gtol=0", "reference.max_iter=3"], "override key reference.gtol"),
    ],
    ids=[
        "record_every", "budget", "race_budget", "theta0_missing", "theta0_count",
        "simple_potp", "systematic_potp", "empty_potps", "table1_potps", "race_potp",
        "negative_seed", "nan_budget", "reference_gtol",
    ],
)
def test_a_run_that_cannot_start_fails_before_fitting(command, overrides, named, tmp_path, capsys):
    path = write_config(tmp_path, SMALL_FN)
    out = tmp_path / "x"
    argv = [command, "--config", str(path), "--output-dir", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_a_simulate_config_may_carry_fractions_no_run_could_use(tmp_path):
    path = write_config(tmp_path, SMALL_FN + "\n[race]\npotp = 0.0001\n\n[table1]\npotps = 0.0001\n")
    assert main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "sim")]) == 0


def test_every_setting_declares_one_key_and_a_converter():
    fields = dataclasses.fields(harness.ExperimentConfig)
    keys = [f.metadata["key"] for f in fields]
    assert all(len(key) == 2 and all(key) for key in keys)
    assert all(callable(f.metadata["convert"]) for f in fields)
    assert len(set(keys)) == len(keys) == 36
    assert cli._SCHEMA == {f.metadata["key"]: (f.name, f.metadata["convert"]) for f in fields}


def _reads_as_numbers(value) -> bool:
    values = value if isinstance(value, tuple) else (value,)
    return bool(values) and all(isinstance(v, (int, float)) for v in values)


def test_every_numeric_key_rejects_non_finite_values_and_every_seed_a_negative_one(tmp_path):
    checked = set()
    for field in dataclasses.fields(harness.ExperimentConfig):
        section, key = field.metadata["key"]
        try:
            numeric = _reads_as_numbers(field.metadata["convert"]("1"))
        except ValueError:
            numeric = False
        bad = (["nan", "inf", "-inf"] if numeric else []) + (["-1"] if key.endswith("seed") else [])
        for value in bad:
            body = "[experiment]\nmodel = fitzhugh_nagumo\n"
            body += f"{key} = {value}\n" if section == "experiment" else f"[{section}]\n{key} = {value}\n"
            with pytest.raises(ConfigError, match=rf"config key \[{section}\] {key}:"):
                parse_config(write_config(tmp_path, body))
            checked.add((section, key, value))
    for section, key in [("solver", "budget"), ("race", "budget"), ("reference", "gtol"),
                         ("table1", "gtol"), ("solver", "theta0_values"), ("experiment", "h")]:
        assert (section, key, "nan") in checked and (section, key, "inf") in checked
    seeds = {(s, k) for s, k, v in checked if v == "-1"}
    assert seeds == {("experiment", "seed"), ("observation", "seed"), ("modify", "seed"),
                     ("solver", "seed"), ("solver", "theta0_seed")}


def test_readme_config_reference_lists_the_declared_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for row in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", table, flags=re.M):
        listed[row[0]] = re.findall(r"`(\w+)`", row[1])
    declared = {}
    for section, key in cli._SCHEMA:
        declared.setdefault(section, []).append(key)
    assert list(listed.items()) == list(declared.items())
    listed_choices = re.findall(r"`(\w+)` \(([\w/]+)\)", table)
    choices = {key: tuple(values.split("/")) for key, values in listed_choices}
    assert choices == {
        "mode": DERIVATIVE_MODES,
        "name": harness.SOLVER_NAMES,
        "schedule": SCHEDULE_KINDS,
        "sampler": SAMPLER_KINDS,
        "theta0": harness.THETA0_POLICIES,
    }


def test_modify_flags_are_checked_like_config_keys(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_FN)
    out = tmp_path / "mod"
    argv = ["modify", "--config", str(path), "--output-dir", str(out), "--modify", "simple_random"]
    assert main(argv + ["--potp", "0"]) == 2
    assert "modify.potp" in capsys.readouterr().err
    assert main(argv + ["--seed", "three"]) == 2
    assert not out.exists()  # rejected before any data is simulated


def test_parse_keeps_auto_kappa_and_eta0(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL + "\n[solver]\nkappa = auto\neta0 = auto\n"))
    assert cfg.solver_eta0 is None
    assert cfg.solver_kappa is None  # run_solver derives an unset stride


def _fake_study(status):
    rows = (
        harness.StudyRow("none", 1.0, 0.0, "ok"),
        harness.StudyRow("accumulate_upper", 0.01, 2.25, status),
    )
    return lambda config, write_csv=True: harness.RelativeErrorReport(rows, 1.0)


def test_table1_exit_code_follows_failed_rows(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, SMALL_FN)
    argv = ["table1", "--config", str(path), "--output-dir", str(tmp_path / "t")]
    monkeypatch.setattr(harness, "run_table1_study", _fake_study("ok(damping_rel=0.0001)"))
    assert main(argv) == 0  # a row rescued by larger damping is a success
    monkeypatch.setattr(harness, "run_table1_study", _fake_study("max_iter"))
    capsys.readouterr()
    assert main(argv) == 0  # a fit that ran out of iterations still produced an estimate
    assert capsys.readouterr().out.splitlines()[3].endswith(" max_iter")
    monkeypatch.setattr(harness, "run_table1_study", _fake_study("failed"))
    assert main(argv) == 1


def test_solve_and_race_share_the_solver_dispatch(tmp_path, monkeypatch):
    """solve with name=sgd/ksgd ends where the race's sampled runs end."""
    calls = []
    original = harness.run_solver

    def recording(config, solver, *args, **kwargs):
        trace, hyper = original(config, solver, *args, **kwargs)
        calls.append((solver, trace, hyper))
        return trace, hyper

    monkeypatch.setattr(harness, "run_solver", recording)
    path = write_config(
        tmp_path,
        SMALL_FN
        + """
[solver]
kappa = 5
budget = 0
max_iter = 3

[race]
budget = 0
max_iter = 3

[reference]
max_iter = 10
gtol = 1e-2
""",
    )
    out = str(tmp_path / "out")
    for name in ("sgd", "ksgd"):
        argv = ["solve", "--config", str(path), "--output-dir", out, "--set", f"solver.name={name}"]
        assert main(argv) == 0
    solved = {solver: (trace, hyper) for solver, trace, hyper in calls}
    calls.clear()
    assert main(["race", "--config", str(path), "--output-dir", out]) == 0
    raced = {solver: (trace, hyper) for solver, trace, hyper in calls if solver in solved}
    for name in ("sgd", "ksgd"):
        assert solved[name][0].n_iterations == 3  # a stride-5 coarse step is stable
        assert np.array_equal(solved[name][0].final_theta, raced[name][0].final_theta)
        assert solved[name][1] == raced[name][1]


def test_solve_ends_where_a_study_row_configured_alike_ends(tmp_path, monkeypatch):
    """gn from the reference state with the study's scheme, fraction, caps
    and tolerance reaches the study row's theta and error bits."""
    fits = []
    original = harness.run_solver

    def recording(*args, **kwargs):
        trace, hyper = original(*args, **kwargs)
        fits.append(trace)
        return trace, hyper

    monkeypatch.setattr(harness, "run_solver", recording)
    monkeypatch.setattr(harness, "SCHEME_KINDS", ("average_upper",))
    path = write_config(
        tmp_path,
        SMALL_FN
        + """
[modify]
scheme = average_upper
potp = 0.1

[solver]
name = gn
theta0 = reference
budget = 0
max_iter = 8
gtol = 1e-6

[table1]
potps = 0.1
max_iter = 8
gtol = 1e-6
""",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--output-dir", str(out)]) == 0
    meta = (out / "fitzhugh_nagumo_gn_average_upper.meta").read_text()
    final_error = float(re.search(r"^final_error = (.*)$", meta, flags=re.M).group(1))
    config = parse_config(path, [f"experiment.output_dir={out}"])
    none, row = harness.run_table1_study(config, write_csv=False).rows
    _, solved, studied = fits  # the first is the reference fit, which the study reads cached
    assert row.status in ("ok", "max_iter")  # no rung above the first
    assert np.array_equal(solved.final_theta, studied.final_theta)
    assert row.relative_error == final_error


def test_bad_config_exit_code(tmp_path):
    path = write_config(tmp_path, "[experiment]\nmodel = fitzhugh_nagumo\nfoo bar\n")
    assert main(["simulate", "--config", str(path)]) == 2


def test_divergence_exits_with_an_error_line(tmp_path, capsys):
    # one Ralston step per 1.5 time units leaves FitzHugh-Nagumo's stable region
    config = str(REPO_CONFIGS / "fitzhugh_nagumo.ini")
    argv = ["simulate", "--config", config]
    argv += ["--set", "observation.period=1.5", "--set", "experiment.h=1.5"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: non-finite state at node 10 (t = 15)\n"


def test_simulate_integrates_a_coarse_period_on_the_step_grid(tmp_path):
    config = str(REPO_CONFIGS / "fitzhugh_nagumo.ini")
    argv = ["simulate", "--config", config, "--set", "observation.period=1.5"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    meta = (tmp_path / "fitzhugh_nagumo_observations.meta").read_text().splitlines()
    assert "h = 1.0" in meta and "period = 1.5" in meta


def test_solve_writes_meta_when_replay_keeps_no_record(tmp_path, capsys):
    # tau = 0 divides by zero in the first step: the only record is dropped
    path = write_config(
        tmp_path,
        SMALL_FN
        + """
[solver]
name = gd
theta0 = explicit
theta0_values = -1,1,0.5,0.7,0.8,0.0
max_iter = 2

[reference]
max_iter = 10
gtol = 1e-2
""",
    )
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--output-dir", str(out)]) == 1
    assert "final error nan" in capsys.readouterr().out
    assert (out / "fitzhugh_nagumo_gd_none.csv").read_text() == "time,error\n"
    meta = (out / "fitzhugh_nagumo_gd_none.meta").read_text()
    assert "dropped_records = 1\n" in meta and "final_error = nan\n" in meta


def test_help_describes_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    lines = capsys.readouterr().out.splitlines()
    usage = lines[0]
    names = usage[usage.index("{") + 1 : usage.index("}")].split(",")
    assert names == ["simulate", "modify", "solve", "check", "table1", "race"]
    for name in names:
        line = next(line for line in lines if line.split()[:1] == [name])
        assert len(line.split()) > 1, name
