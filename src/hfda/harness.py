"""Experiment orchestration: data generation, studies, and budgeted races.

Reproduces two experiment shapes on regenerated synthetic data:

* a relative-error study: fit every modification scheme at each target
  fraction with Gauss-Newton started from the true parameter, and compare
  each fit against the unmodified-data minimizer through
  (G(theta_mod) - G(theta_hat)) / G(theta_hat) where G is the
  unmodified-data objective;
* a budget race: run first-order (GD with/without modification, SGD) and
  second-order (GN with/without modification, kSGD) solvers under a shared
  wall-clock budget, then replay every recorded iterate through the full
  objective to obtain error-versus-time traces.

All randomness flows from the experiment seed through named substreams
(observation noise, scheme sampling, solver sampling, initial perturbation),
derived as SeedSequence((seed, crc32(label))).  The unmodified-problem
reference minimizer is computed once per configuration and, if it
converged, cached on disk keyed by a hash of the fields it depends on and a
cache-format version.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import MODEL_NAMES, ModelSpec, eval_jacobians, eval_rhs, get_model
from .integrate import grid_from_times, integrate_augmented
from .modify import SCHEME_KINDS, make_scheme, round_half_away
from .observe import (
    DERIVATIVE_MODES,
    ObservationSet,
    identity_observation,
    inverse_cdf_gaussian,
    observation_times,
    simulate_observations,
)
from .optimize import (
    SCHEDULE_KINDS,
    Problem,
    RunTrace,
    SolverError,
    StepSchedule,
    run_gauss_newton,
    run_gd,
    run_ksgd,
    run_sgd,
)
from .stochastic import SAMPLER_KINDS, Sampler

Array = np.ndarray

# Desk-scale defaults per model: preferred step, observation period/noise,
# hand-tuned constant step sizes for the first-order methods, the sampling
# stride for the stochastic solvers, and the committed initialization draw
# for the budget race.  The stride is tuned at the default period on the
# full data; an unset ``[solver] kappa`` scales it to the configured period
# and to the share of observations a modification kept, so the coarse
# sampled step stays put.  The FitzHugh-Nagumo stride is 50 rather
# than round(1/potp) = 100: at the perturbed race starts the kappa=100
# coarse step of 1.0 sits outside the stable region and inflates sampled
# gradients by orders of magnitude.
MODEL_DEFAULTS = {
    "fitzhugh_nagumo": {
        "h": 1.0,
        "period": 0.01,
        "sigma": 0.1,
        "gd_eta0": 3e-7,
        "sgd_eta0": 3e-7,
        "kappa": 50,
        "theta0_seed": 13,
    },
    "lotka_volterra": {
        "h": 0.5,
        "period": 0.005,
        "sigma": 0.1,
        "gd_eta0": 3e-7,
        "sgd_eta0": 3e-7,
        "kappa": 100,
        "theta0_seed": None,
    },
    "van_der_pol": {
        "h": 0.1,
        "period": 0.001,
        "sigma": 0.1,
        "gd_eta0": 3e-8,
        "sgd_eta0": 1e-8,
        "kappa": 100,
        "theta0_seed": 8,
    },
}


SOLVER_NAMES = ("gd", "gn", "sgd", "ksgd")
THETA0_POLICIES = ("perturbed", "reference", "explicit")


def derive_seed(base_seed: int, label: str) -> int:
    """A named 64-bit substream seed: SeedSequence((base, crc32(label)))."""
    ss = np.random.SeedSequence((int(base_seed), zlib.crc32(label.encode())))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _optional(convert):
    """``convert`` that reads an empty value, ``auto`` or ``none`` as None."""

    def checked(raw: str):
        return None if raw.strip().lower() in ("", "auto", "none") else convert(raw)

    return checked


def _tuple_of(convert):
    """Converter of a comma- or semicolon-separated list."""

    def convert_all(raw: str) -> tuple:
        return tuple(convert(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())

    return convert_all


def _interval(low: float, high: float):
    """Converter of a float in the half-open interval (low, high]."""

    def convert(raw: str) -> float:
        value = float(raw)
        if not low < value <= high:
            raise ValueError(f"must lie in ({low:g}, {high:g}], got {raw.strip()!r}")
        return value

    return convert


_fraction = _interval(0.0, 1.0)


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


def _setting(key: str, convert, default=dataclasses.MISSING):
    """A config field read from ``key`` ("section.key") through ``convert``,
    which turns the raw text into the value or raises ``ValueError``."""
    metadata = {"key": tuple(key.split(".")), "convert": convert}
    return dataclasses.field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a subcommand needs.  Each field declares its config key and
    the converter for its text value.  Unset h, period, sigma and race start
    seed take the model's defaults; ``run_solver`` derives an unset kappa."""

    model: str = _setting("experiment.model", _choice(MODEL_NAMES))
    h: float | None = _setting("experiment.h", _positive(float), None)
    seed: int = _setting("experiment.seed", int, 1234)
    output_dir: str = _setting("experiment.output_dir", str, "runs")
    mode: str = _setting("experiment.mode", _choice(DERIVATIVE_MODES), "forward")
    obs_period: float | None = _setting("observation.period", _positive(float), None)
    obs_sigma: float | None = _setting("observation.sigma", _positive(float), None)
    obs_seed: int | None = _setting("observation.seed", int, None)
    # single-scheme modification (modify / solve subcommands)
    modify_scheme: str = _setting("modify.scheme", _choice(("none",) + SCHEME_KINDS), "none")
    modify_potp: float = _setting("modify.potp", _fraction, 0.01)
    modify_seed: int | None = _setting("modify.seed", int, None)
    # solver settings (run_solver; name, budget, max_iter and record_every
    # apply to the solve subcommand only)
    solver_name: str = _setting("solver.name", _choice(SOLVER_NAMES), "gd")
    solver_schedule: str = _setting("solver.schedule", _choice(SCHEDULE_KINDS), "constant")
    solver_eta0: float | None = _setting("solver.eta0", _positive(_optional(float)), None)
    solver_k0: float = _setting("solver.k0", _positive(float), 100.0)
    solver_alpha: float = _setting("solver.alpha", _interval(0.5, 1.0), 1.0)
    solver_sampler: str = _setting("solver.sampler", _choice(SAMPLER_KINDS), "systematic")
    solver_kappa: int | None = _setting("solver.kappa", _positive(_optional(int)), None)
    solver_budget: float = _setting("solver.budget", float, 1.0)
    solver_max_iter: int = _setting("solver.max_iter", int, 0)
    solver_gtol: float = _setting("solver.gtol", float, 0.0)
    solver_seed: int | None = _setting("solver.seed", int, None)
    solver_record_every: int = _setting("solver.record_every", _positive(int), 1)
    theta0_policy: str = _setting("solver.theta0", _choice(THETA0_POLICIES), "perturbed")
    theta0_scale: float = _setting("solver.theta0_scale", float, 0.5)
    theta0_seed: int | None = _setting("solver.theta0_seed", int, None)
    theta0_values: tuple[float, ...] | None = _setting("solver.theta0_values", _tuple_of(float), None)
    race_budget: float = _setting("race.budget", float, 1.0)
    race_potp: float = _setting("race.potp", _fraction, 0.01)
    race_max_iter: int = _setting("race.max_iter", int, 0)
    race_record_every: int = _setting("race.record_every", _positive(int), 10)
    # relative-error study
    table1_potps: tuple[float, ...] = _setting("table1.potps", _tuple_of(_fraction), (0.01, 0.1))
    table1_max_iter: int = _setting("table1.max_iter", _positive(int), 40)
    table1_gtol: float = _setting("table1.gtol", float, 1e-6)
    # unmodified-problem reference fit
    ref_max_iter: int = _setting("reference.max_iter", _positive(int), 60)
    ref_gtol: float = _setting("reference.gtol", float, 1e-8)

    def __post_init__(self) -> None:
        if self.model not in MODEL_DEFAULTS:
            raise ValueError(f"unknown model {self.model!r}; available: {', '.join(MODEL_DEFAULTS)}")
        defaults = MODEL_DEFAULTS[self.model]
        fill = {"h": "h", "obs_period": "period", "obs_sigma": "sigma", "theta0_seed": "theta0_seed"}
        for attr, key in fill.items():
            if getattr(self, attr) is None:
                object.__setattr__(self, attr, defaults[key])
        model = get_model(self.model)
        # fail before the reference fit, naming the keys
        if observation_times(model.t_span, self.obs_period).size == 0:
            span = f"{model.t_span[0]:g} to {model.t_span[1]:g}"
            raise ValueError(f"[observation] period {self.obs_period:g} exceeds the span {span}")
        for section in ("solver", "race"):
            if getattr(self, f"{section}_budget") <= 0 and getattr(self, f"{section}_max_iter") <= 0:
                raise ValueError(f"[{section}] budget or [{section}] max_iter must be positive")
        if self.theta0_policy == "explicit":
            if self.theta0_values is None or len(self.theta0_values) != model.q:
                raise ValueError(
                    f"[solver] theta0 = explicit needs [solver] theta0_values with {model.q} components"
                )

    def stream(self, label: str, explicit: int | None = None) -> int:
        return int(explicit) if explicit is not None else derive_seed(self.seed, label)


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------


def build_data(config: ExperimentConfig) -> tuple[ModelSpec, ObservationSet]:
    model = get_model(config.model)
    obs_model = identity_observation(model.d, config.obs_sigma)
    data = simulate_observations(
        model,
        model.params_ref,
        obs_model,
        config.obs_period,
        seed=config.stream("observation", config.obs_seed),
        h=config.h,
    )
    return model, data


def modify_data(
    config: ExperimentConfig, model: ModelSpec, data: ObservationSet, scheme: str, potp: float
) -> ObservationSet:
    """Apply one modification scheme at target fraction ``potp``; the
    sampling schemes draw from the ``modify/<scheme>/<potp>`` stream."""
    seed = config.stream(f"modify/{scheme}/{potp}", config.modify_seed)
    return make_scheme(scheme, model.t_span, config.obs_period, potp, seed).apply(data)


def build_problem(
    config: ExperimentConfig,
    model: ModelSpec,
    data: ObservationSet,
    scheme: str = "none",
    potp: float = 1.0,
) -> Problem:
    """Optionally modify the data, then bind it into a Problem.

    Superobservation weights emitted by averaging schemes are reset to one,
    so the loss treats them as ordinary observations.
    """
    if scheme != "none":
        data = modify_data(config, model, data, scheme, potp).replace_weights(1.0)
    return Problem(model, data, config.h, mode=config.mode)


def resolve_theta0(config: ExperimentConfig, model: ModelSpec) -> Array:
    """The initial iterate: the reference augmented state, a seeded relative
    Gaussian perturbation of it, or an explicit vector."""
    theta_ref = model.theta_ref()
    if config.theta0_policy == "reference":
        return theta_ref
    if config.theta0_policy == "perturbed":
        rng = np.random.default_rng(
            np.random.SeedSequence(config.stream("theta0", config.theta0_seed))
        )
        z = inverse_cdf_gaussian(rng, theta_ref.shape)
        return theta_ref * (1.0 + config.theta0_scale * z)
    if config.theta0_policy == "explicit":
        theta0 = np.asarray(config.theta0_values, dtype=float)
        if theta0.shape != theta_ref.shape:
            raise ValueError(f"theta0 must have {len(theta_ref)} components")
        return theta0
    raise ValueError(
        f"unknown theta0 policy {config.theta0_policy!r}; available: {', '.join(THETA0_POLICIES)}"
    )


# ---------------------------------------------------------------------------
# Relative error and the reference minimizer
# ---------------------------------------------------------------------------


def relative_error(objective_fn, theta_mod: Array, theta_nomod: Array) -> float:
    """(G(theta_mod) - G(theta_nomod)) / G(theta_nomod) for a positive
    reference value."""
    g_ref = float(objective_fn(theta_nomod))
    if not g_ref > 0.0:
        raise ValueError("reference objective must be positive")
    return (float(objective_fn(theta_mod)) - g_ref) / g_ref


# Bumped whenever cached fits stop matching what a fresh fit would give
# (for example after an integrator change moves trajectories at roundoff)
# or the cached payload changes (3: converged fits only, with their
# termination cause and iteration count; 4: data at a period coarser than
# h simulated on the step-h grid; 5: Gauss-Newton solves through numpy's
# Cholesky factor).
REFERENCE_FORMAT = 5


def _reference_key(config: ExperimentConfig) -> str:
    fields = {
        "format": REFERENCE_FORMAT,
        "model": config.model,
        "h": config.h,
        "period": config.obs_period,
        "sigma": config.obs_sigma,
        "obs_seed": config.stream("observation", config.obs_seed),
        "mode": config.mode,
        "ref_max_iter": config.ref_max_iter,
        "ref_gtol": config.ref_gtol,
    }
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def reference_minimizer(
    config: ExperimentConfig, problem: Problem, cache_dir: Path | None = None
) -> tuple[Array, float]:
    """Fit the unmodified problem once (GN from the reference state) and
    cache (theta_hat, G(theta_hat)) under the configuration hash.  Only a
    fit that ended ``converged`` is cached; any other fit is returned and
    refit on the next call."""
    key = _reference_key(config)
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"reference_{key}.json"
        if cache_path.exists():
            payload = json.loads(cache_path.read_text())
            return np.asarray(payload["theta"]), float(payload["objective"])

    trace = run_gauss_newton(
        problem,
        problem.model.theta_ref(),
        damping=None,
        max_iter=config.ref_max_iter,
        gtol=config.ref_gtol,
    )
    theta_hat = trace.final_theta
    # evaluated through the batched path so replayed errors of theta_hat
    # itself are exactly zero
    g_ref = float(problem.objective_many(theta_hat[None])[0])
    if cache_path is not None and trace.terminated_by == "converged":
        payload = {
            "key": key,
            "theta": list(theta_hat),
            "objective": g_ref,
            "model": config.model,
            "terminated_by": trace.terminated_by,
            "iterations": trace.n_iterations,
        }
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(json.dumps(payload))
    return theta_hat, g_ref


# ---------------------------------------------------------------------------
# Relative-error study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyRow:
    scheme: str
    potp: float
    relative_error: float
    # "ok" (converged), "max_iter" (stopped at table1_max_iter) or "failed";
    # a fit rescued by a larger damping carries "(damping_rel=...)"
    status: str


@dataclass(frozen=True)
class RelativeErrorReport:
    rows: tuple[StudyRow, ...]
    reference_objective: float


def _fit_modified(config: ExperimentConfig, model: ModelSpec, prob_mod: Problem) -> tuple:
    """GN from the reference state, escalating the damping factor if a run
    diverges (a hand-tuned safeguard for badly displaced data).  The status
    says whether the fit converged ("ok") or ran out of iterations
    ("max_iter")."""
    for damping_rel in (1e-8, 1e-4, 1e-2, 1.0):
        try:
            trace = run_gauss_newton(
                prob_mod,
                model.theta_ref(),
                damping=None,
                max_iter=config.table1_max_iter,
                gtol=config.table1_gtol,
                damping_rel=damping_rel,
            )
        except SolverError:
            continue
        if trace.terminated_by != "divergence":
            status = "max_iter" if trace.terminated_by == "max_iter" else "ok"
            if damping_rel != 1e-8:
                status += f"(damping_rel={damping_rel:g})"
            return trace.final_theta, status
    return None, "failed"


def run_table1_study(config: ExperimentConfig, write_csv: bool = True) -> RelativeErrorReport:
    """Fit all six schemes at each target fraction and report relative errors.

    Every fit is Gauss-Newton initialized at the reference augmented state;
    the scheme "none" row is the reference fit itself (error exactly zero).
    Fits that never produce a finite estimate are reported as infinite
    relative error and flagged.
    """
    base = prepare_baseline(config)
    none_value = float(base.problem.objective_many(base.theta_hat[None])[0])
    rows = [StudyRow("none", 1.0, (none_value - base.g_ref) / base.g_ref, "ok")]

    def fit_one(kind, potp):
        prob_mod = build_problem(config, base.model, base.data, kind, potp)
        theta_fit, status = _fit_modified(config, base.model, prob_mod)
        if theta_fit is None:
            return StudyRow(kind, potp, np.inf, "failed")
        value = base.problem.objective_many(theta_fit[None])[0]
        err = np.inf if not np.isfinite(value) else (float(value) - base.g_ref) / base.g_ref
        return StudyRow(kind, potp, err, status)

    rows.extend(fit_one(kind, potp) for kind in SCHEME_KINDS for potp in config.table1_potps)

    report = RelativeErrorReport(rows=tuple(rows), reference_objective=base.g_ref)
    if write_csv:
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{config.model}_relative_error.csv"
        with open(path, "w") as fh:
            fh.write("scheme,potp,relative_error\n")
            for row in report.rows:
                fh.write(f"{row.scheme},{row.potp:.17g},{row.relative_error:.17g}\n")
    return report


# ---------------------------------------------------------------------------
# Budget race
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaceRun:
    label: str
    solver: str
    scheme: str
    potp: float  # the fraction the run's problem and sampling stride were built at
    trace: RunTrace
    times: Array
    errors: Array
    dropped_records: int
    hyper: dict = dataclasses.field(default_factory=dict)

    @property
    def final_error(self) -> float:
        """The last replayed relative error; NaN when replay kept no record."""
        return float(self.errors[-1]) if len(self.errors) else np.nan


@dataclass(frozen=True)
class RaceResult:
    model: str
    reference_objective: float
    theta_ref_hat: Array
    theta0: Array
    runs: tuple[RaceRun, ...]

    def run(self, label: str) -> RaceRun:
        for r in self.runs:
            if r.label == label:
                return r
        raise KeyError(label)


def replay_trace(trace: RunTrace, problem: Problem, theta_ref_hat: Array) -> tuple[Array, Array]:
    """Relative error of every recorded iterate against the reference
    minimizer.

    One batched integration evaluates the unmodified objective at the
    reference minimizer and at all recorded iterates together, so replaying
    the minimizer's own trace yields exactly zero.  Rows whose objective is
    not finite (an iterate whose trajectory blows up) are dropped.
    """
    stacked = np.vstack([np.asarray(theta_ref_hat, dtype=float)[None], trace.thetas])
    values = problem.objective_many(stacked)
    g_ref = values[0]
    errors = (values[1:] - g_ref) / g_ref
    keep = np.isfinite(errors)
    return trace.wall_clock[keep], errors[keep]


def run_solver(
    config: ExperimentConfig,
    solver: str,
    problem: Problem,
    theta0: Array,
    *,
    n_full: int,
    budget: float,
    max_iter: int,
    record_every: int,
) -> tuple[RunTrace, dict]:
    """Run one named solver on ``problem`` with the ``[solver]`` settings.

    Unset step sizes fall back to the per-model tuned constants; the GD
    step is rescaled by n_full / len(problem.data) because constant steps
    are tuned against the full-data gradient scale and thinned problems see
    proportionally smaller gradients.  The sampling stride is ``[solver]
    kappa``, else the model's tuned stride rescaled to keep the coarse step
    kappa * period and by len(problem.data) / n_full, so that a thinned
    problem keeps the full data's coarse step; either is clamped to the
    number of observations.  Returns the trace and its hyperparameters.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; available: {', '.join(SOLVER_NAMES)}")
    common = dict(budget=budget, max_iter=max_iter, record_every=record_every)
    if solver == "gn":
        return run_gauss_newton(problem, theta0, gtol=config.solver_gtol, **common), {}

    defaults = MODEL_DEFAULTS[config.model]
    eta0 = config.solver_eta0
    if eta0 is None and solver != "ksgd":
        eta0 = defaults[f"{solver}_eta0"]
    if solver == "gd":
        eta0 = eta0 * n_full / len(problem.data)
        schedule = StepSchedule(config.solver_schedule, eta0, config.solver_k0, config.solver_alpha)
        trace = run_gd(problem, theta0, schedule, gtol=config.solver_gtol, **common)
        return trace, {"eta0": eta0}

    kappa = config.solver_kappa
    if kappa is None:
        scaled = defaults["kappa"] * defaults["period"] / config.obs_period
        kappa = max(1, round_half_away(scaled * (len(problem.data) / n_full)))
    kappa = min(kappa, len(problem.data))
    if config.solver_sampler == "simple":
        sampler = Sampler("simple", m=max(1, round_half_away(len(problem.data) / kappa)))
    else:
        sampler = Sampler(config.solver_sampler, kappa=kappa)
    seed = config.stream(solver, config.solver_seed)
    if solver == "sgd":
        schedule = StepSchedule(config.solver_schedule, eta0, config.solver_k0, config.solver_alpha)
        trace = run_sgd(problem, theta0, schedule, sampler, seed=seed, **common)
        return trace, {"eta0": eta0, "kappa": kappa, "sampler": sampler.kind}
    trace = run_ksgd(problem, theta0, sampler, seed=seed, **common)
    return trace, {"kappa": kappa, "sampler": sampler.kind}


@dataclass(frozen=True)
class Baseline:
    """What every run of a configuration shares: the unmodified data and
    problem, the reference fit theta_hat with G(theta_hat), and the start."""

    model: ModelSpec
    data: ObservationSet
    problem: Problem
    theta_hat: Array
    g_ref: float
    theta0: Array


def prepare_baseline(config: ExperimentConfig) -> Baseline:
    """Simulate the data, fit (or read from the output directory's cache)
    the unmodified-problem reference minimizer and resolve the start."""
    model, data = build_data(config)
    problem = build_problem(config, model, data)
    theta_hat, g_ref = reference_minimizer(config, problem, cache_dir=Path(config.output_dir))
    return Baseline(model, data, problem, theta_hat, g_ref, resolve_theta0(config, model))


def run_one(
    config: ExperimentConfig,
    base: Baseline,
    label: str,
    solver: str,
    scheme: str,
    potp: float,
    *,
    budget: float,
    max_iter: int,
    record_every: int,
) -> RaceRun:
    """Run ``solver`` from the baseline start on the data modified by
    ``scheme`` at ``potp`` (the unmodified problem for ``"none"``), then
    replay its trace through the unmodified objective."""
    problem = base.problem
    if scheme != "none":
        problem = build_problem(config, base.model, base.data, scheme, potp)
    trace, hyper = run_solver(
        config,
        solver,
        problem,
        base.theta0,
        n_full=len(base.data),
        budget=budget,
        max_iter=max_iter,
        record_every=record_every,
    )
    times, errors = replay_trace(trace, base.problem, base.theta_hat)
    return RaceRun(label, solver, scheme, potp, trace, times, errors, len(trace) - len(times), hyper)


def _race_runs(config: ExperimentConfig) -> list[tuple[str, str, str]]:
    """(label, solver, scheme) triples: 8 first-order + 8 second-order."""
    sampled = config.solver_sampler
    runs = [("gd_none", "gd", "none")]
    runs += [(f"gd_{kind}", "gd", kind) for kind in SCHEME_KINDS]
    runs.append((f"sgd_{sampled}", "sgd", "none"))
    runs.append(("gn_none", "gn", "none"))
    runs += [(f"gn_{kind}", "gn", kind) for kind in SCHEME_KINDS]
    runs.append((f"ksgd_{sampled}", "ksgd", "none"))
    return runs


def run_budget_race(config: ExperimentConfig, write_csv: bool = True) -> RaceResult:
    """Race all solver/scheme combinations under the shared budget.

    Modified problems are built at the race's target fraction; SGD and kSGD
    draw with the ``[solver]`` sampler (systematic by default) at the stride
    ``run_solver`` picks.  Every run goes through ``run_one`` and so
    ``run_solver``, as ``solve`` does, so all ``[solver]`` settings other
    than name, budget, max_iter and record_every apply here too.
    """
    base = prepare_baseline(config)
    runs = tuple(
        run_one(
            config,
            base,
            label,
            solver,
            scheme,
            config.race_potp,
            budget=config.race_budget,
            max_iter=config.race_max_iter,
            record_every=1 if label in ("gd_none", "gn_none") else config.race_record_every,
        )
        for label, solver, scheme in _race_runs(config)
    )
    if write_csv:
        for run in runs:
            write_run(config, run)
    return RaceResult(config.model, base.g_ref, base.theta_hat, base.theta0, runs)


def write_run(config: ExperimentConfig, run: RaceRun) -> Path:
    """Write a run's ``time,error`` trace CSV and its ``key = value``
    ``.meta`` sidecar to the output directory; returns the CSV path."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.model}_{run.label}.csv"
    with open(csv_path, "w") as fh:
        fh.write("time,error\n")
        for t, e in zip(run.times, run.errors):
            fh.write(f"{t:.17g},{e:.17g}\n")
    lines = {
        "model": config.model,
        "solver": run.solver,
        "scheme": run.scheme,
        "potp": run.potp,
        "budget": run.trace.budget,
        "seed": config.seed,
        "obs_seed": config.stream("observation", config.obs_seed),
        "theta0_seed": config.stream("theta0", config.theta0_seed),
        **run.hyper,
        "terminated_by": run.trace.terminated_by,
        "iterations": run.trace.n_iterations,
        "records": len(run.trace),
        "dropped_records": run.dropped_records,
        "final_error": run.final_error,
    }
    with open(out_dir / f"{config.model}_{run.label}.meta", "w") as fh:
        for key, value in lines.items():
            fh.write(f"{key} = {value}\n")
    return csv_path


# ---------------------------------------------------------------------------
# Jacobian check (the `check` subcommand)
# ---------------------------------------------------------------------------


def _fd_jacobians(model: ModelSpec, t: float, x: Array, params: Array, step: float = 1e-6):
    """Central finite differences of the right-hand side, one batched
    evaluation per perturbed block (row j of a batch shifts component j)."""
    ex, ep = step * np.eye(model.d), step * np.eye(model.p)
    fx = (eval_rhs(model, t, x + ex, params) - eval_rhs(model, t, x - ex, params)).T / (2 * step)
    fp = (eval_rhs(model, t, x, params + ep) - eval_rhs(model, t, x, params - ep)).T / (2 * step)
    return fx, fp


def check_model_jacobians(model: ModelSpec, seed: int = 0, n_points: int = 100) -> float:
    """Worst relative discrepancy of the analytic Jacobians against central
    differences over random points around the reference trajectory."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t0, t_end = model.t_span
    times = np.linspace(t0, t_end, 64)
    grid = grid_from_times(t0, times[1:])
    states = integrate_augmented(model, model.theta_ref(), grid)
    worst = 0.0
    for _ in range(n_points):
        node = int(rng.integers(len(grid.nodes)))
        t = float(grid.nodes[node])
        x = states[node] * (1.0 + 0.1 * rng.standard_normal(model.d))
        params = model.params_ref * (1.0 + 0.1 * rng.standard_normal(model.p))
        fx, fp = eval_jacobians(model, t, x, params)
        fx_fd, fp_fd = _fd_jacobians(model, t, x, params)
        scale = max(1.0, float(np.max(np.abs(fx))), float(np.max(np.abs(fp))))
        worst = max(
            worst,
            float(np.max(np.abs(fx - fx_fd))) / scale,
            float(np.max(np.abs(fp - fp_fd))) / scale,
        )
    return worst
