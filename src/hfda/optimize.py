"""Solvers: gradient descent, Gauss-Newton, SGD, and Kalman-based SGD.

A ``Problem`` binds a model, an observation set, the preferred integration
step, and the derivative mode, and exposes the objective, gradient, sampled
gradient, and residual-system evaluations the solvers consume.  Every
solver estimates the whole augmented initial condition (physical initial
state and parameters).

All solvers produce a ``RunTrace``: per-iterate records of accumulated
solver time, iteration number and the iterate, the last iterate always
among them.  Only solver work (integration, linear algebra, sampling) is
timed; recording is excluded, so budgeted runs can be replayed and
measured afterwards without polluting the budget.

The Kalman-based update maintains a positive definite matrix alongside
the iterate.  Each step solves a sampled Gauss-Newton model regularized by
the current precision C^-1 and then adds the sampled information into the
precision.  The step has two algebraically equivalent forms: the
information form updates C^-1 and solves a system in the number of
components q, the covariance form updates C (via the Woodbury identity) and
solves one in the stacked residual dimension.  A run picks one form and
carries only its matrix.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec
from .integrate import DivergenceError, TimeGrid, build_grid, grid_from_times
from .observe import DERIVATIVE_MODES, GradientEvaluation, ObservationSet
from . import observe
from .stochastic import ResidualSystem, SampleSet, Sampler
from . import stochastic

Array = np.ndarray


SCHEDULE_KINDS = ("constant", "polynomial")
# "auto" picks the information or covariance form once per run (see run_ksgd)
KSGD_FORMS = ("auto", "information", "covariance")


class SolverError(RuntimeError):
    """A linear solve inside an optimizer failed."""


def _sym(m: Array) -> Array:
    return 0.5 * (m + m.T)


def _spd_factor(m: Array, what: str) -> Array:
    """Lower Cholesky factor L of m = L L'."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        cond = float(np.linalg.cond(m))
        raise SolverError(
            f"{what}: matrix is not positive definite through roundoff "
            f"(condition estimate {cond:.3e}); increase damping"
        ) from None


def _cho_solve(l: Array, b: Array) -> Array:
    """m^-1 b from the factor L of ``_spd_factor``: L y = b, then L' x = y.

    numpy has no triangular solver, so each half is a general solve with
    the triangular factor.
    """
    return np.linalg.solve(l.T, np.linalg.solve(l, b))


@dataclass(frozen=True)
class StepSchedule:
    """Constant or polynomially decaying step sizes.

    The polynomial kind yields eta_k = eta0 / (1 + k/k0)^alpha with
    alpha in (0.5, 1], which diverges in sum and converges in sum of
    squares.
    """

    kind: str
    eta0: float
    k0: float = 1.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.eta0 <= 0 or self.k0 <= 0:
            raise ValueError("eta0 and k0 must be positive")
        if self.kind == "polynomial" and not 0.5 < self.alpha <= 1.0:
            raise ValueError("polynomial exponent must lie in (0.5, 1]")

    def eta(self, k: int) -> float:
        if self.kind == "constant":
            return self.eta0
        return self.eta0 / (1.0 + k / self.k0) ** self.alpha


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration records of a solver run; ``wall_clock`` holds
    accumulated solver seconds at each record.  The last record is the
    run's last iterate, so its iteration number is the run's count."""

    wall_clock: Array
    iteration: Array
    thetas: Array
    budget: float
    terminated_by: str

    def __len__(self) -> int:
        return len(self.wall_clock)

    @property
    def n_iterations(self) -> int:
        return int(self.iteration[-1])

    @property
    def final_theta(self) -> Array:
        return self.thetas[-1]


class Problem:
    """A model/data pair ready for optimization over the augmented state;
    its full-data evaluations fit every observation as it is on ``grid``."""

    def __init__(
        self,
        model: ModelSpec,
        data: ObservationSet,
        h: float,
        mode: str = "forward",
    ):
        if mode not in DERIVATIVE_MODES:
            raise ValueError(f"unknown derivative mode {mode!r}")
        self.model = model
        self.data = data
        self.h = float(h)
        self.mode = mode
        self.grid = build_grid(model.t_span, self.h, data.distinct_times())

    @property
    def n_obs(self) -> int:
        return len(self.data)

    def objective(self, theta: Array) -> float:
        return observe.objective(self.model, theta, self.data, self.grid)

    def objective_many(self, thetas: Array) -> Array:
        return observe.objective_many(self.model, thetas, self.data, self.grid)

    def gradient(self, theta: Array) -> GradientEvaluation:
        return observe.gradient(self.model, theta, self.data, self.grid, mode=self.mode)

    def sample_grid(self, sample: SampleSet, coarse: bool = True) -> TimeGrid:
        """Grid for a sampled evaluation: the sampled times alone (coarse)
        or their union with the regular step grid."""
        times = self.data.times[sample.indices]
        if coarse:
            return grid_from_times(self.model.t_span[0], times)
        return build_grid(self.model.t_span, self.h, np.unique(times))

    def stochastic_gradient(
        self, theta: Array, sample: SampleSet, grid: TimeGrid
    ) -> GradientEvaluation:
        return stochastic.stochastic_gradient(
            self.model, theta, self.data, sample, grid, mode=self.mode
        )

    def residual_system(
        self, theta: Array, sample: SampleSet | None = None, grid: TimeGrid | None = None
    ) -> ResidualSystem:
        """The residual system of ``sample`` (default: every observation as
        it is) on ``grid`` (default: the problem's grid)."""
        grid = self.grid if grid is None else grid
        return stochastic.residual_system(self.model, theta, self.data, sample, grid)


# ---------------------------------------------------------------------------
# Shared run loop
# ---------------------------------------------------------------------------


def _run_loop(theta0, step, budget, max_iter, record_every, gtol=0.0):
    """Drive a solver step function under budget/iteration/convergence caps.

    ``step(k, theta) -> (theta_new, grad_norm)`` performs all timed work;
    grad_norm may be None for solvers without a convergence test.  A step
    that fails (diverges, or returns a non-finite theta) is not counted and
    ends the run as "divergence".
    """
    if max_iter <= 0 and not 0 < budget < np.inf:
        raise ValueError("a run needs max_iter > 0 or a finite positive budget")
    theta = np.asarray(theta0, dtype=float).copy()
    wall, iters, thetas = [0.0], [0], [theta.copy()]
    solver_time = 0.0
    k = 0
    while True:
        if max_iter > 0 and k >= max_iter:
            terminated = "max_iter"
            break
        if budget > 0 and solver_time >= budget:
            terminated = "budget"
            break
        t_start = time.perf_counter()
        try:
            theta_new, grad_norm = step(k, theta)
        except (DivergenceError, SolverError) as err:
            if k == 0 and isinstance(err, SolverError):
                raise  # configuration problem, nothing useful to return
            theta_new = np.nan  # ends the run as a non-finite iterate does
        if not np.all(np.isfinite(theta_new)):
            terminated = "divergence"
            break
        solver_time += time.perf_counter() - t_start
        k += 1
        theta = theta_new
        if k % record_every == 0:
            wall.append(solver_time)
            iters.append(k)
            thetas.append(theta.copy())
        if gtol > 0 and grad_norm is not None and grad_norm <= gtol:
            terminated = "converged"
            break
    if iters[-1] != k:
        wall.append(solver_time)
        iters.append(k)
        thetas.append(theta.copy())
    return RunTrace(
        wall_clock=np.asarray(wall),
        iteration=np.asarray(iters, dtype=int),
        thetas=np.asarray(thetas),
        budget=budget,
        terminated_by=terminated,
    )


def run_gd(
    problem: Problem,
    theta0: Array,
    schedule: StepSchedule,
    budget: float = 0.0,
    max_iter: int = 0,
    gtol: float = 0.0,
    record_every: int = 1,
) -> RunTrace:
    """Steepest descent on the full (or modified) data objective."""

    def step(k, theta):
        g = problem.gradient(theta).grad
        return theta - schedule.eta(k) * g, float(np.max(np.abs(g)))

    return _run_loop(theta0, step, budget, max_iter, record_every, gtol)


def run_sgd(
    problem: Problem,
    theta0: Array,
    schedule: StepSchedule,
    sampler: Sampler,
    budget: float = 0.0,
    max_iter: int = 0,
    seed: int = 0,
    record_every: int = 1,
) -> RunTrace:
    """Stochastic gradient descent on independently drawn subsets.

    Each iteration draws a fresh sample, integrates on the grid the sample
    admits (one coarse step per retained observation for systematic or
    stratified draws), and takes an inverse-probability-weighted step.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def step(k, theta):
        sample = sampler.draw(problem.n_obs, rng)
        grid = problem.sample_grid(sample, coarse=sampler.coarse_grid)
        ev = problem.stochastic_gradient(theta, sample, grid)
        return theta - schedule.eta(k) * ev.grad, None

    return _run_loop(theta0, step, budget, max_iter, record_every)


def run_gauss_newton(
    problem: Problem,
    theta0: Array,
    budget: float = 0.0,
    max_iter: int = 0,
    gtol: float = 0.0,
    record_every: int = 1,
    damping_rel: float = 1e-8,
) -> RunTrace:
    """Damped Gauss-Newton on the full residual system.

    Each step adds damping_rel * trace(D'W^-1 D) / q to the diagonal of the
    normal matrix, which keeps heavily thinned (rank-deficient) problems
    solvable; damping_rel 0.0 gives the undamped step.  Larger
    ``damping_rel`` tempers the step on badly inconsistent (heavily
    modified) data.
    """

    def step(k, theta):
        rs = problem.residual_system(theta)
        d = rs.d_matrix
        rhs = d.T @ rs.w_inv_apply(rs.r)
        normal = _sym(d.T @ rs.w_inv_apply(d))
        q = len(theta)
        lam = damping_rel * np.trace(normal) / q
        chol = _spd_factor(normal + lam * np.eye(q), "Gauss-Newton normal equations")
        return theta + _cho_solve(chol, rhs), float(np.max(np.abs(rhs)))

    return _run_loop(theta0, step, budget, max_iter, record_every, gtol)


# ---------------------------------------------------------------------------
# Kalman-based SGD
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KsgdState:
    """Iterate plus the precision (c_inv) or covariance (c) matrix.

    ``initial`` carries both, so either form can take the first step; a
    step returns only the matrix its form updates.
    """

    theta: Array
    c_inv: Array | None
    c: Array | None
    k: int = 0

    @classmethod
    def initial(cls, theta0: Array, q: int) -> "KsgdState":
        return cls(
            theta=np.asarray(theta0, dtype=float).copy(),
            c_inv=np.eye(q),
            c=np.eye(q),
            k=0,
        )


def ksgd_step(state: KsgdState, rs: ResidualSystem, form: str = "information") -> KsgdState:
    """One Kalman-based update from a residual system built at state.theta.

    information form:  theta += (D'W^-1 D + C^-1)^-1 D'W^-1 r
    covariance form:   theta += C D' (W + D C D')^-1 r
    The information form updates the precision to C^-1 + D'W^-1 D, the
    covariance form updates C by its Woodbury image.  The new state carries
    only the matrix its form updates, symmetrized to suppress roundoff
    drift.
    """
    if form == "auto" or form not in KSGD_FORMS:
        raise ValueError(f"unknown kSGD form {form!r}")
    d = rs.d_matrix
    if form == "information":
        if state.c_inv is None:
            raise SolverError("information form requires the precision matrix")
        c_inv = _sym(state.c_inv + d.T @ rs.w_inv_apply(d))
        chol = _spd_factor(c_inv, "kSGD precision solve")
        delta = _cho_solve(chol, d.T @ rs.w_inv_apply(rs.r))
        return KsgdState(theta=state.theta + delta, c_inv=c_inv, c=None, k=state.k + 1)
    if state.c is None:
        raise SolverError("covariance form requires the covariance matrix")
    cd = state.c @ d.T
    chol = _spd_factor(_sym(rs.w + d @ cd), "kSGD innovation solve")
    delta = cd @ _cho_solve(chol, rs.r)
    c = _sym(state.c - cd @ _cho_solve(chol, cd.T))
    return KsgdState(theta=state.theta + delta, c_inv=None, c=c, k=state.k + 1)


def run_ksgd(
    problem: Problem,
    theta0: Array,
    sampler: Sampler,
    form: str = "auto",
    budget: float = 0.0,
    max_iter: int = 0,
    seed: int = 0,
    record_every: int = 1,
) -> RunTrace:
    """Kalman-based SGD: fresh sample, residual system, update, repeat.

    ``form`` "auto" picks, from the first draw, the information form when
    the number of components q is at most the stacked residual dimension
    (the smaller implicit linear system), else the covariance form, and
    keeps it for the whole run: both forms are valid for any draw.
    """
    if form not in KSGD_FORMS:
        raise ValueError(f"unknown kSGD form {form!r}")
    q = problem.model.q
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    box = {"state": KsgdState.initial(theta0, q), "form": form}

    def step(k, theta):
        state = box["state"]
        sample = sampler.draw(problem.n_obs, rng)
        grid = problem.sample_grid(sample, coarse=sampler.coarse_grid)
        rs = problem.residual_system(state.theta, sample, grid)
        if box["form"] == "auto":
            box["form"] = "information" if q <= rs.n_rows else "covariance"
        box["state"] = ksgd_step(state, rs, form=box["form"])
        return box["state"].theta, None

    return _run_loop(theta0, step, budget, max_iter, record_every)
