"""Scheduling, clock-spoofing attacks, and shift-invariant defenses for
multi-sensor remote state estimation over a shared collision channel."""

from .attack import (AttackSearchResult, blocks_sensor, bnb_optimal_attack,
                     brute_force_optimal_attack, isolate_sensor_attack,
                     random_attack)
from .errors import (BudgetError, ConvergenceError, InfeasibleError,
                     NumericalError, SchedSecError, StabilityWarning,
                     ValidationError, read_json, resolve_budget)
from .lti_estimation import (LinearSystem, SteadyState, bundled_systems,
                             load_systems, lyapunov_step, riccati_step,
                             steady_state)
from .protocol_sequences import (BoundsReport, InvarianceReport, bounds,
                                 construct_shift_invariant,
                                 hamming_cross_correlation, is_shift_invariant,
                                 shortest_period_policies, throughput)
from .scheduling import (CostReport, Schedule, ShiftTuple, apply_shift,
                         average_cost, optimal_schedule_search, reception)
from .simulation import (CovarianceSeries, MonteCarloCost,
                         exact_covariance_series, monte_carlo_expected_cost)

__version__ = "0.1.0"

__all__ = [
    "AttackSearchResult", "BoundsReport", "BudgetError", "ConvergenceError",
    "CostReport", "CovarianceSeries", "InfeasibleError", "InvarianceReport",
    "LinearSystem", "MonteCarloCost", "NumericalError", "SchedSecError",
    "Schedule", "ShiftTuple",
    "StabilityWarning", "SteadyState", "ValidationError", "apply_shift",
    "average_cost", "blocks_sensor", "bnb_optimal_attack", "bounds",
    "brute_force_optimal_attack", "bundled_systems",
    "construct_shift_invariant", "exact_covariance_series",
    "hamming_cross_correlation", "is_shift_invariant",
    "isolate_sensor_attack", "load_systems", "lyapunov_step",
    "monte_carlo_expected_cost", "optimal_schedule_search", "random_attack",
    "read_json", "reception", "resolve_budget", "riccati_step",
    "shortest_period_policies", "steady_state", "throughput",
]
