"""Command-line front end.

Subcommands (all take ``--config FILE`` plus repeatable ``--set
section.key=value`` overrides):

* ``simulate``  write the synthetic observation CSV and its metadata sidecar
* ``modify``    apply one data-modification scheme and write the result
* ``solve``     run one solver and write its error-versus-time trace
* ``check``     run the cross-module consistency suite (exit 1 on failure)
* ``table1``    relative-error study over all schemes and target fractions
* ``race``      budget race over all solver/scheme combinations

The config file is a sectioned ``key = value`` text file; unknown sections
or keys are rejected.  Every random draw is controlled by config-declared
seeds, so all subcommands are idempotent given the same configuration and
output directory.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from . import harness, observe
from .dynamics import MODEL_NAMES
from .harness import SOLVER_NAMES, THETA0_POLICIES, ExperimentConfig
from .modify import SCHEME_KINDS
from .observe import DERIVATIVE_MODES
from .optimize import KSGD_FORMS, SCHEDULE_KINDS
from .stochastic import SAMPLER_KINDS


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _to_optional_float(raw: str):
    return None if raw.strip().lower() in ("", "auto", "none") else float(raw)


def _to_optional_int(raw: str):
    return None if raw.strip().lower() in ("", "auto", "none") else int(raw)


def _to_floats(raw: str, convert=float) -> tuple[float, ...]:
    return tuple(convert(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())


def _fraction(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"must lie in (0, 1], got {raw.strip()!r}")
    return value


def _choice(options: tuple[str, ...]):
    """Converter accepting exactly one of ``options``."""

    def convert(raw: str) -> str:
        value = raw.strip()
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {value!r}")
        return value

    return convert


def _positive(convert):
    """``convert`` that also rejects values <= 0 (None passes through)."""

    def checked(raw: str):
        value = convert(raw)
        if value is not None and not value > 0:
            raise ValueError(f"must be positive, got {raw.strip()!r}")
        return value

    return checked


# (section, key) -> (ExperimentConfig attribute, converter)
_SCHEMA = {
    ("experiment", "model"): ("model", _choice(MODEL_NAMES)),
    ("experiment", "h"): ("h", _positive(float)),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "output_dir"): ("output_dir", str),
    ("experiment", "estimate_x0"): ("estimate_x0", _to_bool),
    ("experiment", "mode"): ("mode", _choice(DERIVATIVE_MODES)),
    ("observation", "period"): ("obs_period", _positive(float)),
    ("observation", "sigma"): ("obs_sigma", _positive(float)),
    ("observation", "seed"): ("obs_seed", int),
    ("modify", "scheme"): ("modify_scheme", _choice(("none",) + SCHEME_KINDS)),
    ("modify", "potp"): ("modify_potp", _fraction),
    ("modify", "seed"): ("modify_seed", int),
    ("modify", "reweight"): ("modify_reweight", _to_bool),
    ("solver", "name"): ("solver_name", _choice(SOLVER_NAMES)),
    ("solver", "schedule"): ("solver_schedule", _choice(SCHEDULE_KINDS)),
    ("solver", "eta0"): ("solver_eta0", _positive(_to_optional_float)),
    ("solver", "k0"): ("solver_k0", float),
    ("solver", "alpha"): ("solver_alpha", float),
    ("solver", "damping"): ("solver_damping", _to_optional_float),
    ("solver", "sampler"): ("solver_sampler", _choice(SAMPLER_KINDS)),
    ("solver", "kappa"): ("solver_kappa", _positive(_to_optional_int)),
    ("solver", "form"): ("solver_form", _choice(KSGD_FORMS)),
    ("solver", "budget"): ("solver_budget", float),
    ("solver", "max_iter"): ("solver_max_iter", int),
    ("solver", "gtol"): ("solver_gtol", float),
    ("solver", "seed"): ("solver_seed", int),
    ("solver", "record_every"): ("solver_record_every", int),
    ("solver", "theta0"): ("theta0_policy", _choice(THETA0_POLICIES)),
    ("solver", "theta0_scale"): ("theta0_scale", float),
    ("solver", "theta0_seed"): ("theta0_seed", int),
    ("solver", "theta0_values"): ("theta0_values", _to_floats),
    ("race", "budget"): ("race_budget", float),
    ("race", "potp"): ("race_potp", _fraction),
    ("race", "max_iter"): ("race_max_iter", int),
    ("race", "record_every"): ("race_record_every", int),
    ("table1", "potps"): ("table1_potps", lambda raw: _to_floats(raw, _fraction)),
    ("table1", "max_iter"): ("table1_max_iter", int),
    ("table1", "gtol"): ("table1_gtol", float),
    ("reference", "max_iter"): ("ref_max_iter", int),
    ("reference", "gtol"): ("ref_gtol", float),
}


class ConfigError(ValueError):
    pass


def parse_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read a sectioned key=value file, apply dotted-key overrides in order
    and build the configuration; a bad value fails here, naming its key."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    items = [
        (section, key, raw, f"config key [{section}] {key}")
        for section in parser.sections()
        for key, raw in parser.items(section)
    ]
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = (part.strip() for part in item.split("=", 1))
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} is not of the form section.key")
        section, key = (part.strip() for part in dotted.split(".", 1))
        items.append((section, key, raw, f"override key {dotted}"))

    kwargs = {}
    for section, key, raw, name in items:
        try:
            attr, conv = _SCHEMA[(section, key)]
        except KeyError:
            raise ConfigError(f"unknown {name}") from None
        try:
            kwargs[attr] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name}: {exc}") from None

    if "model" not in kwargs:
        raise ConfigError("config must set [experiment] model")
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_observation_metadata(config: ExperimentConfig, data, path: Path) -> None:
    obs = data.model
    lines = {
        "model": config.model,
        "period": config.obs_period,
        "sigma": config.obs_sigma,
        "seed": config.stream("observation", config.obs_seed),
        "n_observations": len(data),
        "h_matrix": ";".join(",".join(f"{v:.17g}" for v in row) for row in obs.h_matrix),
        "v_matrix": ";".join(",".join(f"{v:.17g}" for v in row) for row in obs.v_matrix),
    }
    with open(path, "w") as fh:
        for key, value in lines.items():
            fh.write(f"{key} = {value}\n")


def cmd_simulate(config: ExperimentConfig) -> int:
    model, data = harness.build_data(config)
    out = _out_dir(config)
    csv_path = out / f"{config.model}_observations.csv"
    observe.write_observations_csv(data, csv_path)
    _write_observation_metadata(config, data, out / f"{config.model}_observations.meta")
    print(f"simulate: {len(data)} observations of {model.name} -> {csv_path}")
    return 0


def cmd_modify(config: ExperimentConfig) -> int:
    if config.modify_scheme == "none":
        raise ConfigError("modify requires [modify] scheme (or --modify)")
    model, data = harness.build_data(config)
    modified = harness.modify_data(config, model, data, config.modify_scheme, config.modify_potp)
    out = _out_dir(config)
    csv_path = out / f"{config.model}_{config.modify_scheme}_observations.csv"
    observe.write_observations_csv(modified, csv_path)
    print(
        f"modify: {config.modify_scheme} potp={config.modify_potp:g} kept "
        f"{len(modified)} of {len(data)} rows -> {csv_path}"
    )
    return 0


def cmd_solve(config: ExperimentConfig) -> int:
    name, scheme = config.solver_name, config.modify_scheme
    run = harness.run_one(
        config, harness.prepare_baseline(config), f"{name}_{scheme}", name, scheme,
        config.modify_potp, budget=config.solver_budget, max_iter=config.solver_max_iter,
        record_every=config.solver_record_every,
    )
    csv_path = harness.write_run(config, run)
    print(
        f"solve: {name} on {config.model}/{scheme} finished by "
        f"{run.trace.terminated_by} after {run.trace.n_iterations} iterations, "
        f"final error {run.final_error:.3e} -> {csv_path}"
    )
    return 0


def cmd_check(config: ExperimentConfig) -> int:
    results = harness.run_checks(config)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_table1(config: ExperimentConfig) -> int:
    report = harness.run_table1_study(config)
    print(f"reference objective: {report.reference_objective:.6e}")
    print(f"{'scheme':<20} {'potp':>6} {'relative_error':>16}")
    for row in report.rows:
        print(f"{row.scheme:<20} {row.potp:>6g} {row.relative_error:>16.6e} {row.status}")
    out = Path(config.output_dir) / f"{config.model}_relative_error.csv"
    print(f"table1: wrote {out}")
    # rows rescued by a larger damping ("ok(damping_rel=...)") are successes
    return 1 if any(r.status == "failed" for r in report.rows) else 0


def cmd_race(config: ExperimentConfig) -> int:
    race = harness.run_budget_race(config)
    print(f"race: {config.model}, budget {config.race_budget:g}s per solver")
    for run in race.runs:
        print(
            f"  {run.label:<28} iterations={run.trace.n_iterations:<6} "
            f"terminated_by={run.trace.terminated_by:<9} final_error={run.final_error: .3e}"
        )
    print(f"race: wrote {len(race.runs)} trace CSVs under {config.output_dir}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "modify": cmd_modify,
    "solve": cmd_solve,
    "check": cmd_check,
    "table1": cmd_table1,
    "race": cmd_race,
}


def _config_key_epilog() -> str:
    by_section: dict[str, list[str]] = {}
    for section, key in _SCHEMA:
        by_section.setdefault(section, []).append(key)
    lines = ["config file keys:"]
    for section, keys in by_section.items():
        lines.append(f"  [{section}] {', '.join(keys)}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfda",
        description="ODE parameter estimation under high-frequency observations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(
            name,
            help=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else None,
            epilog=_config_key_epilog(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="sectioned key=value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config key (repeatable)",
        )
        # a flag whose dest is a config key overrides that key after every --set
        p.add_argument("--output-dir", dest="experiment.output_dir", help="output directory")
        if name == "modify":
            p.add_argument("--modify", dest="modify.scheme", choices=SCHEME_KINDS)
            p.add_argument("--potp", dest="modify.potp")
            p.add_argument("--seed", dest="modify.seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flags = [f"{key}={value}" for key, value in vars(args).items() if "." in key and value is not None]
    try:
        config = parse_config(args.config, args.overrides + flags)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
