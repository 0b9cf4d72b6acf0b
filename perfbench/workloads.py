"""The three benchmark workloads and the checks on their outputs.

Every workload is closed-loop: one process, one caller, each call waiting
for the previous one.  A workload has a ``setup`` (what a user pays before
the first answer: data simulation, problem build and, where the workload
needs one, the cached reference fit), a ``round`` of fixed work that the
benchmark repeats for as long as a run lasts, and an ``evaluate`` step that
computes accuracy figures once, outside the timed region.

* ``fn_full``: FitzHugh-Nagumo, N=5000 full-data observations.  A round is
  the reference Gauss-Newton fit from theta_ref to ``ref_gtol`` plus
  iteration-capped full-data gradient descent from the race start theta0,
  once with forward and once with adjoint gradients.  Long fine-grid passes:
  ``integrate`` does almost all the work, sampling and modification none.
* ``lv_sampled``: Lotka-Volterra, N=2000, systematic stride kappa=100, so a
  sampled pass is 20 coarse steps.  A round is iteration-capped SGD and
  kSGD (``form=auto``, no time budget) from theta0, then a replay of every
  recorded iterate.  The same integrator as thousands of short passes, where
  per-iteration overhead (draws, grids, subsets, residual assembly, kSGD
  linear algebra) is a visible share.
* ``fn_study``: the relative-error study on FitzHugh-Nagumo at potps 0.01
  and 0.1 with the reference fit cached in setup.  The only workload that
  runs ``modify``, grids with inserted times, and Gauss-Newton on irregular
  and modified grids, including the damping ladder.

All hfda calls go through module attributes so that the tracer's
replacements are seen.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

harness = importlib.import_module("hfda.harness")
optimize = importlib.import_module("hfda.optimize")
stochastic = importlib.import_module("hfda.stochastic")
_integrate = importlib.import_module("hfda.integrate")

GRADIENT_AGREEMENT = 1e-8


def integration_steps() -> int:
    """Integration steps taken so far in this process: the work-identity
    counter, read in this one place."""
    return _integrate.step_count()


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``SMOKE`` runs the same code on tiny inputs."""

    fn_period: float | None  # None keeps the model default (N=5000)
    lv_period: float | None  # None keeps the model default (N=2000)
    kappa: int
    gd_iters: int
    sampled_iters: int
    potps: tuple[float, ...]


FULL = Scale(fn_period=None, lv_period=None, kappa=100, gd_iters=2, sampled_iters=500, potps=(0.01, 0.1))
SMOKE = Scale(fn_period=0.1, lv_period=0.05, kappa=10, gd_iters=1, sampled_iters=10, potps=(0.1, 0.5))


@dataclass
class Outcome:
    """What one round produced.

    ``finals`` are hashed into the work-identity digest; ``iterations`` and
    ``solver_s`` are the iteration count and accumulated solver seconds of
    the round's solver runs; ``phases`` are per-round figures for the report
    (wall seconds of named parts, per-solver rates).
    """

    finals: list[np.ndarray]
    iterations: int
    solver_s: float
    attempted: int
    failed: int
    phases: dict[str, float]
    extra: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for array in self.finals:
            h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        return h.hexdigest()


@contextmanager
def gauss_newton_runs():
    """Collect every ``RunTrace`` that ``hfda.harness`` gets from
    Gauss-Newton, so reference fits can be checked for convergence and study
    iterations counted without instrumenting the package."""
    traces = []
    original = harness.run_gauss_newton

    def recording(*args, **kwargs):
        trace = original(*args, **kwargs)
        traces.append(trace)
        return trace

    harness.run_gauss_newton = recording
    try:
        yield traces
    finally:
        harness.run_gauss_newton = original


def diverged(trace) -> bool:
    return trace.terminated_by == "divergence" or not np.all(np.isfinite(trace.final_theta))


class Timer:
    def __init__(self, clock):
        self.clock = clock
        self.phases: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        start = self.clock()
        try:
            yield
        finally:
            self.phases[name] = self.clock() - start


def _reference_fit(config, problem, cache_dir):
    """The cached reference fit; returns (theta_hat, converged, GN traces)."""
    with gauss_newton_runs() as traces:
        theta_hat, _ = harness.reference_minimizer(config, problem, cache_dir=cache_dir)
    converged = bool(traces) and all(t.terminated_by == "converged" for t in traces)
    return theta_hat, converged, traces


class Workload:
    """Base: subclasses define ``setup``, ``gate``, ``round`` and ``evaluate``."""

    name = ""
    model = ""
    theta0_seed = None  # None: the model's committed race start, if any

    def __init__(self, seed: int, scale: Scale, clock):
        self.scale = scale
        self.clock = clock
        period = scale.fn_period if self.model == "fitzhugh_nagumo" else scale.lv_period
        self.config = harness.ExperimentConfig(
            model=self.model,
            seed=seed,
            obs_period=period,
            solver_kappa=scale.kappa,
            table1_potps=scale.potps,
            theta0_seed=self.theta0_seed,
        )

    def evaluate(self, state, outcome: Outcome) -> tuple[dict[str, float], list[str]]:
        """(relative errors, gate failures) of a round's outputs."""
        raise NotImplementedError


class FnFull(Workload):
    name = "fn_full"
    model = "fitzhugh_nagumo"

    def setup(self, tmp):
        config = dataclasses.replace(self.config, output_dir=tmp)
        model, data = harness.build_data(config)
        forward = harness.build_problem(config, model, data)
        adjoint = harness.build_problem(dataclasses.replace(config, mode="adjoint"), model, data)
        theta0 = harness.resolve_theta0(config, model)
        return {"config": config, "forward": forward, "adjoint": adjoint, "theta0": theta0}

    def gate(self, state) -> list[str]:
        """Forward and adjoint gradients at theta0 must agree."""
        g_fwd = state["forward"].gradient(state["theta0"]).grad
        g_adj = state["adjoint"].gradient(state["theta0"]).grad
        rel = float(np.linalg.norm(g_fwd - g_adj) / np.linalg.norm(g_fwd))
        if not rel <= GRADIENT_AGREEMENT:
            return [f"forward/adjoint gradients differ by {rel:.3e} at theta0"]
        return []

    def round(self, state, tmp) -> Outcome:
        config, theta0 = state["config"], state["theta0"]
        timer = Timer(self.clock)
        with timer.phase("fit_s"):
            theta_hat, converged, fit = _reference_fit(config, state["forward"], tmp)
        eta = harness.MODEL_DEFAULTS[self.model]["gd_eta0"]
        traces = {}
        for mode in ("forward", "adjoint"):
            with timer.phase(f"gd_{mode}_s"):
                traces[mode] = optimize.run_gd(
                    state[mode],
                    theta0,
                    optimize.StepSchedule("constant", eta),
                    max_iter=self.scale.gd_iters,
                )
        gd = list(traces.values())
        for mode, trace in traces.items():
            timer.phases[f"gd_{mode}_iters_per_s"] = trace.n_iterations / trace.wall_clock[-1]
        return Outcome(
            finals=[theta_hat] + [t.final_theta for t in gd],
            iterations=sum(t.n_iterations for t in fit + gd),
            solver_s=sum(float(t.wall_clock[-1]) for t in fit + gd),
            attempted=3,
            failed=(not converged) + sum(diverged(t) for t in gd),
            phases=timer.phases,
            extra={"converged": converged, "theta_hat": theta_hat, "gd": traces},
        )

    def evaluate(self, state, outcome):
        problems = [] if outcome.extra["converged"] else ["reference fit did not converge"]
        theta_hat = outcome.extra["theta_hat"]
        errors = {
            f"gd_{mode}_rel_error": harness.relative_error(
                state["forward"].objective, trace.final_theta, theta_hat
            )
            for mode, trace in outcome.extra["gd"].items()
        }
        fwd, adj = (t.final_theta for t in outcome.extra["gd"].values())
        gap = float(np.linalg.norm(fwd - adj) / np.linalg.norm(fwd))
        if not gap <= GRADIENT_AGREEMENT:
            problems.append(f"forward and adjoint descent end {gap:.3e} apart")
        return errors, problems


class LvSampled(Workload):
    name = "lv_sampled"
    model = "lotka_volterra"
    # The start is held at the seed-1234 race start for every run seed, as
    # MODEL_DEFAULTS holds FitzHugh-Nagumo's: drawn afresh from each seed,
    # the 50% perturbation makes SGD or kSGD diverge within a few iterations
    # on about half of seeds 0-8, and a run would then time almost no work.
    theta0_seed = harness.derive_seed(1234, "theta0")

    def setup(self, tmp):
        config = dataclasses.replace(self.config, output_dir=tmp)
        model, data = harness.build_data(config)
        problem = harness.build_problem(config, model, data)
        theta_hat, converged, _ = _reference_fit(config, problem, tmp)
        theta0 = harness.resolve_theta0(config, model)
        return {"config": config, "problem": problem, "theta_hat": theta_hat,
                "theta0": theta0, "converged": converged}

    def gate(self, state) -> list[str]:
        return [] if state["converged"] else ["reference fit did not converge"]

    def round(self, state, tmp) -> Outcome:
        config, problem, theta0 = state["config"], state["problem"], state["theta0"]
        sampler = stochastic.Sampler("systematic", kappa=config.solver_kappa)
        eta = harness.MODEL_DEFAULTS[self.model]["sgd_eta0"]
        common = dict(budget=0.0, max_iter=self.scale.sampled_iters,
                      record_every=config.race_record_every)
        timer = Timer(self.clock)
        with timer.phase("sgd_s"):
            sgd = optimize.run_sgd(problem, theta0, optimize.StepSchedule("constant", eta),
                                   sampler, seed=config.stream("sgd"), **common)
        with timer.phase("ksgd_s"):
            ksgd = optimize.run_ksgd(problem, theta0, sampler, form="auto",
                                     seed=config.stream("ksgd"), **common)
        replays = {}
        with timer.phase("replay_s"):
            for label, trace in (("sgd", sgd), ("ksgd", ksgd)):
                replays[label] = harness.replay_trace(trace, problem, state["theta_hat"])
        for label, trace in (("sgd", sgd), ("ksgd", ksgd)):
            timer.phases[f"{label}_iters_per_s"] = trace.n_iterations / trace.wall_clock[-1]
        return Outcome(
            finals=[sgd.final_theta, ksgd.final_theta],
            iterations=sgd.n_iterations + ksgd.n_iterations,
            solver_s=float(sgd.wall_clock[-1] + ksgd.wall_clock[-1]),
            attempted=2,
            failed=diverged(sgd) + diverged(ksgd),
            phases=timer.phases,
            extra={"replays": replays, "records": {"sgd": len(sgd), "ksgd": len(ksgd)}},
        )

    def evaluate(self, state, outcome):
        errors, problems = {}, []
        for label, (_, rel) in outcome.extra["replays"].items():
            if len(rel) != outcome.extra["records"][label]:
                problems.append(f"{label} replay dropped non-finite iterates")
            errors[f"{label}_rel_error"] = float(rel[-1]) if len(rel) else float("inf")
        return errors, problems


class FnStudy(Workload):
    name = "fn_study"
    model = "fitzhugh_nagumo"

    def setup(self, tmp):
        config = dataclasses.replace(self.config, output_dir=tmp)
        model, data = harness.build_data(config)
        problem = harness.build_problem(config, model, data)
        _, converged, _ = _reference_fit(config, problem, tmp)
        return {"config": config, "converged": converged}

    def gate(self, state) -> list[str]:
        return [] if state["converged"] else ["reference fit did not converge"]

    def round(self, state, tmp) -> Outcome:
        # the study reads the reference fit that setup cached in its
        # output_dir, so the round pays for the scheme fits only
        timer = Timer(self.clock)
        with gauss_newton_runs() as traces, timer.phase("study_s"):
            report = harness.run_table1_study(state["config"], write_csv=False)
        rows = report.rows
        timer.phases["rescued_rows"] = sum(row.status.startswith("ok(") for row in rows)
        return Outcome(
            finals=[np.array([row.relative_error for row in rows])],
            iterations=sum(t.n_iterations for t in traces),
            solver_s=sum(float(t.wall_clock[-1]) for t in traces),
            attempted=len(rows),
            failed=sum(row.status == "failed" for row in rows),
            phases=timer.phases,
            extra={"rows": rows},
        )

    def evaluate(self, state, outcome):
        rows = outcome.extra["rows"]
        problems = []
        if not (rows[0].scheme == "none" and rows[0].relative_error == 0.0):
            problems.append("the 'none' row is not exactly zero")
        for row in rows[1:]:
            if not (np.isfinite(row.relative_error) or row.status == "failed"):
                problems.append(f"row {row.scheme}@{row.potp} is neither finite nor flagged")
        finite = [row.relative_error for row in rows[1:] if np.isfinite(row.relative_error)]
        errors = {"median_row_rel_error": statistics.median(finite) if finite else float("inf")}
        return errors, problems


WORKLOADS = {cls.name: cls for cls in (FnFull, LvSampled, FnStudy)}
