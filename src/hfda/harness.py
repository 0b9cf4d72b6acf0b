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

Both, and ``solve``, are lists of ``GridRow``s plus their writers.
``run_grid`` runs every row alike: it builds the modified problem from the
baseline problem, runs ``run_solver`` and scores the iterates through G.

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
from .modify import SCHEME_KINDS, make_scheme
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
from .stochastic import SAMPLER_KINDS, Sampler, round_half_away

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
        n_obs = observation_times(model.t_span, self.obs_period).size
        if n_obs == 0:
            span = f"{model.t_span[0]:g} to {model.t_span[1]:g}"
            raise ValueError(f"[observation] period {self.obs_period:g} exceeds the span {span}")
        potp = self.modify_potp
        if (self.modify_scheme == "simple_random" and round_half_away(potp * n_obs) < 1) or (
            self.modify_scheme == "systematic_random" and round_half_away(1.0 / potp) > n_obs
        ):
            raise ValueError(
                f"[modify] potp {potp:g} leaves {self.modify_scheme} no observation of {n_obs}"
            )
        if not self.table1_potps:
            raise ValueError("[table1] potps must list at least one fraction")
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
    """Optionally modify the data, then bind it into a Problem."""
    if scheme != "none":
        data = modify_data(config, model, data, scheme, potp)
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
        return np.asarray(config.theta0_values, dtype=float)
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
        "ref_max_iter": config.ref_max_iter,
        "ref_gtol": config.ref_gtol,
    }
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _status(terminated_by: str) -> str:
    """The reported status of a fit that ended ``terminated_by``: "ok"
    (converged), "failed" (diverged) or the cap that stopped it."""
    return {"converged": "ok", "divergence": "failed"}.get(terminated_by, terminated_by)


def _fit_reference(
    config: ExperimentConfig, problem: Problem, cache_dir: Path | None
) -> tuple[Array, float, str]:
    """(theta_hat, G(theta_hat), status) of ``reference_minimizer``; a cache
    hit is "ok", because only converged fits are cached."""
    key = _reference_key(config)
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"reference_{key}.json"
        if cache_path.exists():
            payload = json.loads(cache_path.read_text())
            return np.asarray(payload["theta"]), float(payload["objective"]), "ok"

    trace, _ = run_solver(
        config, "gn", problem, problem.model.theta_ref(), budget=0.0, max_iter=config.ref_max_iter,
        record_every=1, gtol=config.ref_gtol,
    )
    theta_hat = trace.final_theta
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
    return theta_hat, g_ref, _status(trace.terminated_by)


def reference_minimizer(
    config: ExperimentConfig, problem: Problem, cache_dir: Path | None = None
) -> tuple[Array, float]:
    """Fit the unmodified problem once (``run_solver``'s Gauss-Newton from
    the reference state) and cache (theta_hat, G(theta_hat)) under the
    configuration hash.  Only a fit that ended ``converged`` is cached; any
    other fit is returned and refit on the next call."""
    theta_hat, g_ref, _ = _fit_reference(config, problem, cache_dir)
    return theta_hat, g_ref


# ---------------------------------------------------------------------------
# The runner: every study, race and solve run is a row of run_grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Baseline:
    """What every run of a configuration shares: the unmodified problem
    (its ``model`` and ``data`` are the configuration's), the reference fit
    theta_hat with G(theta_hat) and its status, and the start."""

    problem: Problem
    theta_hat: Array
    g_ref: float
    reference_status: str
    theta0: Array


def prepare_baseline(config: ExperimentConfig) -> Baseline:
    """Simulate the data, fit (or read from the output directory's cache)
    the unmodified-problem reference minimizer and resolve the start."""
    model, data = build_data(config)
    problem = build_problem(config, model, data)
    theta_hat, g_ref, status = _fit_reference(config, problem, Path(config.output_dir))
    return Baseline(problem, theta_hat, g_ref, status, resolve_theta0(config, model))


@dataclass(frozen=True)
class GridRow:
    """One run of ``run_grid``: ``solver`` from ``start`` on the data
    modified by ``scheme`` at ``potp`` ("none": unmodified), with the caps,
    tolerance and recording stride ``run_solver`` takes; ``rescue`` lets the
    study's damping ladder retry a diverging fit."""

    label: str
    solver: str
    scheme: str
    potp: float
    start: Array
    budget: float
    max_iter: int
    gtol: float
    record_every: int
    rescue: bool = False


@dataclass(frozen=True)
class RaceRun:
    """The run of one row.  ``scores`` holds the relative error of every
    recorded iterate (NaN where the unmodified objective is not finite).
    ``status`` is "ok" (converged), "failed" (diverged, or no rung of the
    ladder gave a fit: ``trace`` None) or the cap that stopped the fit
    ("max_iter", "budget"); a rescued fit adds "(damping_rel=...)"."""

    label: str
    solver: str
    scheme: str
    potp: float
    trace: RunTrace | None
    scores: Array
    hyper: dict
    status: str

    @property
    def errors(self) -> Array:
        """The replayed relative errors: the finite scores."""
        return self.scores[np.isfinite(self.scores)]

    @property
    def final_error(self) -> float:
        """The last replayed relative error; NaN when replay kept no record."""
        return float(self.errors[-1]) if len(self.errors) else np.nan


def _score(problem: Problem, theta_hat: Array, thetas: Array) -> Array:
    """Relative errors of the rows of ``thetas`` against ``theta_hat``
    through ``problem``'s objective (NaN where not finite), in one batched
    pass whose rows are bitwise ``objective``: theta_hat itself scores 0."""
    stacked = np.vstack([np.asarray(theta_hat, dtype=float)[None], thetas])
    values = problem.objective_many(stacked)
    return (values[1:] - values[0]) / values[0]


def replay_trace(trace: RunTrace, problem: Problem, theta_ref_hat: Array) -> tuple[Array, Array]:
    """(solver seconds, relative error) of every recorded iterate against
    the reference minimizer, dropping iterates whose objective is not
    finite (a trajectory that blows up)."""
    errors = _score(problem, theta_ref_hat, trace.thetas)
    keep = np.isfinite(errors)
    return trace.wall_clock[keep], errors[keep]


# Gauss-Newton relative dampings a rescue row tries in turn (a hand-tuned safeguard)
_DAMPING_LADDER = (1e-8, 1e-4, 1e-2, 1.0)


def run_solver(
    config: ExperimentConfig,
    solver: str,
    problem: Problem,
    theta0: Array,
    *,
    budget: float,
    max_iter: int,
    record_every: int,
    gtol: float = 0.0,
    damping_rel: float = _DAMPING_LADDER[0],
) -> tuple[RunTrace, dict]:
    """Run one named solver on ``problem`` with the ``[solver]`` settings.

    ``gtol`` is the convergence tolerance of GD and GN, ``damping_rel``
    GN's relative damping.  Unset step sizes fall back to the per-model
    tuned constants; the GD step is rescaled by N / len(problem.data), N
    the configuration's observation count, because constant steps are tuned
    against the full-data gradient scale and thinned problems see smaller
    gradients.  The ``[solver] sampler`` draws at stride ``[solver] kappa``,
    else at the model's tuned stride rescaled to keep the coarse step
    kappa * period and by len(problem.data) / N, so that a thinned problem
    keeps the full data's coarse step; either is clamped to len(problem.data).
    Returns the trace and its hyperparameters.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; available: {', '.join(SOLVER_NAMES)}")
    common = dict(budget=budget, max_iter=max_iter, record_every=record_every)
    if solver == "gn":
        return run_gauss_newton(problem, theta0, gtol=gtol, damping_rel=damping_rel, **common), {}

    defaults = MODEL_DEFAULTS[config.model]
    n_full = observation_times(problem.model.t_span, config.obs_period).size
    eta0 = config.solver_eta0
    if eta0 is None and solver != "ksgd":
        eta0 = defaults[f"{solver}_eta0"]
    if solver == "gd":
        eta0 = eta0 * n_full / len(problem.data)
        schedule = StepSchedule(config.solver_schedule, eta0, config.solver_k0, config.solver_alpha)
        trace = run_gd(problem, theta0, schedule, gtol=gtol, **common)
        return trace, {"eta0": eta0}

    kappa = config.solver_kappa
    if kappa is None:
        scaled = defaults["kappa"] * defaults["period"] / config.obs_period
        kappa = max(1, round_half_away(scaled * (len(problem.data) / n_full)))
    kappa = min(kappa, len(problem.data))
    sampler = Sampler(config.solver_sampler, kappa=kappa)
    seed = config.stream(solver, config.solver_seed)
    if solver == "sgd":
        schedule = StepSchedule(config.solver_schedule, eta0, config.solver_k0, config.solver_alpha)
        trace = run_sgd(problem, theta0, schedule, sampler, seed=seed, **common)
        return trace, {"eta0": eta0, "kappa": kappa, "sampler": sampler.kind}
    trace = run_ksgd(problem, theta0, sampler, seed=seed, **common)
    return trace, {"kappa": kappa, "sampler": sampler.kind}


def _fit(config: ExperimentConfig, row: GridRow, problem: Problem):
    """(trace, hyperparameters, status) of the row's solver run through
    ``run_solver``.  A rescue row climbs the damping ladder while its fit
    diverges or its normal equations fail."""
    for damping_rel in _DAMPING_LADDER if row.rescue else _DAMPING_LADDER[:1]:
        try:
            trace, hyper = run_solver(
                config, row.solver, problem, row.start, budget=row.budget, max_iter=row.max_iter,
                record_every=row.record_every, gtol=row.gtol, damping_rel=damping_rel,
            )
        except SolverError:
            if not row.rescue:
                raise
            continue
        if not row.rescue or trace.terminated_by != "divergence":
            status = _status(trace.terminated_by)
            if damping_rel != _DAMPING_LADDER[0]:
                status += f"(damping_rel={damping_rel:g})"
            return trace, hyper, status
    return None, {}, "failed"


def run_grid(config: ExperimentConfig, base: Baseline, rows) -> tuple[RaceRun, ...]:
    """Run every row the same way: build its modified problem from the
    baseline data, fit it through ``run_solver`` and score its recorded
    iterates through the unmodified objective.  The other ``[solver]``
    settings apply to all rows alike."""
    runs = []
    for row in rows:
        problem = base.problem
        if row.scheme != "none":
            problem = build_problem(config, problem.model, problem.data, row.scheme, row.potp)
        trace, hyper, status = _fit(config, row, problem)
        scores = np.empty(0) if trace is None else _score(base.problem, base.theta_hat, trace.thetas)
        runs.append(RaceRun(row.label, row.solver, row.scheme, row.potp, trace, scores, hyper, status))
    return tuple(runs)


def write_lines(config: ExperimentConfig, name: str, lines) -> Path:
    """Write ``lines`` to ``<output_dir>/<model>_<name>``; returns the path."""
    path = Path(config.output_dir) / f"{config.model}_{name}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


def write_run(config: ExperimentConfig, run: RaceRun) -> Path:
    """Write a run's ``time,error`` trace CSV and its ``key = value``
    ``.meta`` sidecar to the output directory; returns the CSV path."""
    records = zip(run.trace.wall_clock[np.isfinite(run.scores)], run.errors)
    lines = ["time,error"] + [f"{t:.17g},{e:.17g}" for t, e in records]
    csv_path = write_lines(config, f"{run.label}.csv", lines)
    meta = {
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
        "dropped_records": len(run.trace) - len(run.errors),
        "final_error": run.final_error,
    }
    write_lines(config, f"{run.label}.meta", [f"{key} = {value}" for key, value in meta.items()])
    return csv_path


# ---------------------------------------------------------------------------
# The relative-error study and the budget race: row lists plus their writers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyRow:
    scheme: str
    potp: float
    relative_error: float
    status: str  # the fit's RaceRun.status


@dataclass(frozen=True)
class RelativeErrorReport:
    rows: tuple[StudyRow, ...]
    reference_objective: float


def run_table1_study(config: ExperimentConfig, write_csv: bool = True) -> RelativeErrorReport:
    """Fit all six schemes at each target fraction and report relative errors.

    Every fit is a rescue row of Gauss-Newton from the reference augmented
    state; the scheme "none" row is the reference fit itself (error exactly
    zero) with that fit's status.  Fits that never produce a finite estimate
    are reported as infinite relative error and flagged.
    """
    base = prepare_baseline(config)
    grid = [
        # the study scores only the final iterate, so it records no others
        GridRow(f"gn_{kind}_{potp:g}", "gn", kind, potp, base.problem.model.theta_ref(), 0.0,
                config.table1_max_iter, config.table1_gtol, config.table1_max_iter, rescue=True)
        for kind in SCHEME_KINDS
        for potp in config.table1_potps
    ]
    none_error = _score(base.problem, base.theta_hat, base.theta_hat[None])[0]
    rows = [StudyRow("none", 1.0, float(none_error), base.reference_status)]
    for run in run_grid(config, base, grid):
        error = run.scores[-1] if run.trace is not None else np.nan
        error = float(error) if np.isfinite(error) else np.inf
        rows.append(StudyRow(run.scheme, run.potp, error, run.status))

    report = RelativeErrorReport(rows=tuple(rows), reference_objective=base.g_ref)
    if write_csv:
        lines = [f"{row.scheme},{row.potp:.17g},{row.relative_error:.17g}" for row in report.rows]
        write_lines(config, "relative_error.csv", ["scheme,potp,relative_error"] + lines)
    return report


@dataclass(frozen=True)
class RaceResult:
    runs: tuple[RaceRun, ...]

    def run(self, label: str) -> RaceRun:
        for r in self.runs:
            if r.label == label:
                return r
        raise KeyError(label)


def run_budget_race(config: ExperimentConfig) -> RaceResult:
    """Race all solver/scheme combinations under the shared budget: GD on
    the full and every modified problem, then SGD; GN likewise, then kSGD.

    Modified problems are built at the race's target fraction; SGD and kSGD
    draw with the ``[solver]`` sampler at the stride ``run_solver`` picks.
    """
    base = prepare_baseline(config)
    rows = []
    for full, sampled in (("gd", "sgd"), ("gn", "ksgd")):
        runs = [(f"{full}_{kind}", full, kind) for kind in ("none",) + SCHEME_KINDS]
        for label, solver, scheme in runs + [(f"{sampled}_{config.solver_sampler}", sampled, "none")]:
            every = 1 if label == f"{full}_none" else config.race_record_every
            rows.append(GridRow(label, solver, scheme, config.race_potp, base.theta0, config.race_budget,
                                config.race_max_iter, config.solver_gtol, every))
    runs = run_grid(config, base, rows)
    for run in runs:
        write_run(config, run)
    return RaceResult(runs)


# ---------------------------------------------------------------------------
# Jacobian check (the `check` subcommand)
# ---------------------------------------------------------------------------


def _fd_jacobians(model: ModelSpec, t: float, x: Array, params: Array):
    """Central finite differences of the right-hand side, one batched
    evaluation per perturbed block (row j of a batch shifts component j)."""
    step = 1e-6
    ex, ep = step * np.eye(model.d), step * np.eye(model.p)
    fx = (eval_rhs(model, t, x + ex, params) - eval_rhs(model, t, x - ex, params)).T / (2 * step)
    fp = (eval_rhs(model, t, x, params + ep) - eval_rhs(model, t, x, params - ep)).T / (2 * step)
    return fx, fp


def check_model_jacobians(model: ModelSpec, seed: int) -> float:
    """Worst relative discrepancy of the analytic Jacobians against central
    differences at 100 random points around the reference trajectory."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t0, t_end = model.t_span
    times = np.linspace(t0, t_end, 64)
    grid = grid_from_times(t0, times[1:])
    states = integrate_augmented(model, model.theta_ref(), grid)
    worst = 0.0
    for _ in range(100):
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
