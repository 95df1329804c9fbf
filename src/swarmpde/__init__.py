"""Age-structured swarmer/swimmer colony simulator with bound diagnostics."""

from .age_discretization import (
    AgeGrid,
    RegularizedModel,
    age_average_initial,
    build_age_grid,
    check_discrete_hypotheses,
    compute_K0,
    regularize,
    theta_cutoff,
)
from .config import RunConfig, SweepPlan, parse_config
from .diagnostics import (
    DiagnosticsRecord,
    TestFunction,
    comparison_bound,
    dissipation,
    entropy,
    envelope_check,
    envelope_report,
    mass_b,
    tail_mass,
    make_test_functions,
    weak_residual,
)
from .model_spec import (
    HypothesisReport,
    ModelSpec,
    estimate_kappas,
    exponential_family,
    validate_hypotheses,
    zeta1,
)
from .reduced_system import ReducedSpec, cross_validate_setups, run_reduced
from .solver_core import (
    RunResult,
    RunSetup,
    SimState,
    StepResult,
    boundary_inflow,
    initial_state,
    monitor_tstar,
    run,
    stable_dt,
    step,
)
from .spatial_grid import (
    SpatialGrid,
    div_flux,
    grad_sq_root,
    laplacian,
)

__version__ = "0.1.0"
