"""ODE parameter estimation under high-frequency observations.

Modules: ``dynamics`` (models and augmentation), ``integrate`` (fixed-step
Runge-Kutta with sensitivities and the adjoint sweep), ``observe`` (loss,
synthetic data, objective/gradient), ``modify`` (accumulation, averaging,
sampling schemes), ``stochastic`` (sampled gradients and residual systems),
``optimize`` (GD, Gauss-Newton, SGD, Kalman-based SGD), ``harness``
(studies and budget races), ``cli`` (command-line front end).
"""
from .dynamics import (
    AugmentedSystem,
    MODEL_NAMES,
    ModelSpec,
    augment,
    eval_jacobians,
    eval_rhs,
    get_model,
)
from .integrate import (
    DivergenceError,
    TimeGrid,
    Trajectory,
    build_grid,
    grid_from_times,
    integrate,
    integrate_adjoint,
    integrate_with_sensitivity,
)
from .modify import (
    SCHEME_KINDS,
    ModificationScheme,
    accumulate_nearest,
    accumulate_upper,
    average_nearest,
    average_upper,
    simple_random_sample,
    systematic_random_sample,
)
from .observe import (
    GradientEvaluation,
    ObservationModel,
    ObservationSet,
    gradient,
    identity_observation,
    objective,
    simulate_observations,
)
from .optimize import (
    KsgdState,
    Problem,
    RunTrace,
    SolverError,
    StepSchedule,
    ksgd_step,
    run_gauss_newton,
    run_gd,
    run_ksgd,
    run_sgd,
)
from .stochastic import (
    ResidualSystem,
    Sampler,
    SampleSet,
    draw_simple,
    draw_stratified,
    draw_systematic,
    residual_system,
    stochastic_gradient,
)
from .harness import (
    ExperimentConfig,
    RaceResult,
    RelativeErrorReport,
    relative_error,
    replay_trace,
    run_budget_race,
    run_table1_study,
)

__version__ = "0.1.0"
