"""Linear-quadratic mean-field games with common noise and filtering.

The package solves the limiting control problem of a large symmetric
population — a coupled backward Riccati system plus mean-field forward
equations — and simulates finite populations against that limit: gap
decay rates, cost convergence, and unilateral-deviation tests of the
approximate-equilibrium property.
"""

__version__ = "1.0.0"

from .errors import (ConvergenceError, DivergenceError, LqmfgError,
                     MonotonicityError, SingularSigmaError, StructureError,
                     UsageError, ValidationError)
from .meanfield import (derive_seed, gaussian_increments, integrate_Em,
                        integrate_m, integrate_z_hat)
from .model import (DiagnosticReport, LqMfgModel, TimeGrid,
                    ValidationReport, validate, wellposedness_diagnostic)
from .population import (CandidateResult, DeviationCandidate,
                         DeviationReport, LimitCostReport, PopulationSample,
                         RateFitReport, default_candidate_family,
                         deviation_experiment, limit_problem_experiment,
                         lq_value_prediction, rate_experiment_cost,
                         rate_experiment_state, rate_experiments,
                         resolve_workers, simulate_population)
from .riccati import (FeedbackLaw, RiccatiSolution, SolveSummary,
                      build_feedback, solve_Gamma_direct, solve_Gamma_via_Pi,
                      solve_P_direct, solve_P_iterative, solve_Phi,
                      solve_riccati)
from .scenario import (ScenarioConfig, build_candidates, load_scenario,
                       parse_scenario, preset, serialize_scenario)

__all__ = [
    "__version__",
    # errors
    "LqmfgError", "StructureError", "ValidationError", "UsageError",
    "SingularSigmaError", "DivergenceError", "ConvergenceError",
    "MonotonicityError",
    # model
    "TimeGrid", "LqMfgModel", "ValidationReport",
    "DiagnosticReport", "validate", "wellposedness_diagnostic",
    # riccati
    "RiccatiSolution", "FeedbackLaw", "SolveSummary", "solve_P_direct",
    "solve_P_iterative", "solve_Gamma_direct", "solve_Gamma_via_Pi",
    "solve_Phi", "build_feedback", "solve_riccati",
    # mean field
    "derive_seed", "gaussian_increments", "integrate_Em", "integrate_m",
    "integrate_z_hat",
    # population
    "DeviationCandidate", "default_candidate_family", "PopulationSample",
    "simulate_population", "RateFitReport", "rate_experiments",
    "rate_experiment_state", "rate_experiment_cost", "CandidateResult",
    "DeviationReport", "deviation_experiment", "LimitCostReport",
    "limit_problem_experiment", "lq_value_prediction", "resolve_workers",
    # scenarios
    "ScenarioConfig", "parse_scenario", "serialize_scenario",
    "load_scenario", "preset", "build_candidates",
]
