"""Command-line front end.

Subcommands (all take ``--config FILE`` plus repeatable ``--set
section.key=value`` overrides):

* ``simulate``  write the synthetic observation CSV and its metadata sidecar
* ``modify``    apply one data-modification scheme and write the result
* ``solve``     run one solver and write its error-versus-time trace
* ``check``     check the model's Jacobians against central differences
  (exit 1 on failure)
* ``table1``    relative-error study over all schemes and target fractions
* ``race``      budget race over all solver/scheme combinations

The config file is a sectioned ``key = value`` text file whose keys and
converters are declared on the ``ExperimentConfig`` fields; unknown sections
or keys are rejected.  Every random draw is controlled by config-declared
seeds, so all subcommands are idempotent given the same configuration and
output directory.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

from . import harness, observe
from .dynamics import get_model
from .harness import ExperimentConfig
from .integrate import DivergenceError
from .modify import SCHEME_KINDS
from .optimize import SolverError


# (section, key) -> (ExperimentConfig attribute, converter), in field order
_SCHEMA = {
    f.metadata["key"]: (f.name, f.metadata["convert"]) for f in dataclasses.fields(ExperimentConfig)
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


def _write_observation_metadata(config: ExperimentConfig, data) -> None:
    obs = data.model
    lines = {
        "model": config.model,
        "h": config.h,
        "period": config.obs_period,
        "sigma": config.obs_sigma,
        "seed": config.stream("observation", config.obs_seed),
        "n_observations": len(data),
        "h_matrix": ";".join(",".join(f"{v:.17g}" for v in row) for row in obs.h_matrix),
        "v_matrix": ";".join(",".join(f"{v:.17g}" for v in row) for row in obs.v_matrix),
    }
    harness.write_lines(config, "observations.meta", [f"{key} = {value}" for key, value in lines.items()])


def cmd_simulate(config: ExperimentConfig) -> int:
    """Simulate the observation record and write it as CSV."""
    model, data = harness.build_data(config)
    out = _out_dir(config)
    csv_path = out / f"{config.model}_observations.csv"
    observe.write_observations_csv(data, csv_path)
    _write_observation_metadata(config, data)
    print(f"simulate: {len(data)} observations of {model.name} -> {csv_path}")
    return 0


def cmd_modify(config: ExperimentConfig) -> int:
    """Apply a data-modification scheme to the simulated observations and write them."""
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
    """Fit one solver on the (optionally modified) problem and write its trace.

    Exits 1 when replay kept no finite record."""
    name, scheme = config.solver_name, config.modify_scheme
    base = harness.prepare_baseline(config)
    row = harness.GridRow(
        f"{name}_{scheme}", name, scheme, config.modify_potp, base.theta0, config.solver_budget,
        config.solver_max_iter, config.solver_gtol, config.solver_record_every,
    )
    (run,) = harness.run_grid(config, base, [row])
    csv_path = harness.write_run(config, run)
    print(
        f"solve: {name} on {config.model}/{scheme} finished by "
        f"{run.trace.terminated_by} after {run.trace.n_iterations} iterations, "
        f"final error {run.final_error:.3e} -> {csv_path}"
    )
    return 0 if len(run.errors) else 1


def cmd_check(config: ExperimentConfig) -> int:
    """Check the model's analytic Jacobians against central differences on
    the first 5 time units of its span."""
    model = get_model(config.model)
    t0, t_end = model.t_span
    small = dataclasses.replace(model, t_span=(t0, min(t_end, t0 + 5.0)))
    tolerance = 1e-5
    discrepancy = harness.check_model_jacobians(small, config.stream("check"))
    status = "PASS" if discrepancy <= tolerance else "FAIL"
    print(f"{status} jacobian_fd discrepancy={discrepancy:.3e} tolerance={tolerance:.1e}")
    return 0 if status == "PASS" else 1


def cmd_table1(config: ExperimentConfig) -> int:
    """Run the relative-error study of every modification scheme (Table 1)."""
    report = harness.run_table1_study(config)
    print(f"reference objective: {report.reference_objective:.6e}")
    print(f"{'scheme':<20} {'potp':>6} {'relative_error':>16}")
    for row in report.rows:
        print(f"{row.scheme:<20} {row.potp:>6g} {row.relative_error:>16.6e} {row.status}")
    out = Path(config.output_dir) / f"{config.model}_relative_error.csv"
    print(f"table1: wrote {out}")
    # rows that stopped at max_iter or were rescued by a larger damping
    # ("ok(damping_rel=...)") still produced a fit; only "failed" did not
    return 1 if any(r.status == "failed" for r in report.rows) else 0


def cmd_race(config: ExperimentConfig) -> int:
    """Race every solver under the same time budget and write their traces."""
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
    except (ValueError, OSError, DivergenceError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
