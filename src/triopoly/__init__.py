"""Exact equilibrium analysis of a three-firm market with relative-payoff competition.

Firms sell differentiated substitutes under linear demand and each maximizes
its profit relative to the average of its rivals' profits, which makes every
strategic-variable assignment (quantity or price per firm) a zero-sum game.
The package solves all assignments exactly over rationals, cross-checks the
known closed-form solutions, compares equilibria across assignments, and
certifies the minimax equalities on a grid.
"""

import sys

from .exact import (
    QuadraticForm,
    Rational,
    SingularSystem,
    as_rational,
    decimal_string,
    format_rational,
)
from .market import (
    ALL_ASSIGNMENTS,
    FIRMS,
    PATTERNS,
    PRICE,
    QUANTITY,
    MarketState,
    ModelParams,
    PayoffVector,
    StrategyAssignment,
    as_assignment,
    ensure_float_safe,
    firm_index,
    inverse_demand,
    payoff_vector,
    profit,
)
from .equilibrium import (
    ClosedFormOutputs,
    ConcavityViolation,
    Equilibrium,
    IterationResult,
    best_response_iteration,
    closed_form_outputs,
    committed_values,
    direct_demand,
    direct_demand_numerators,
    own_payoff_slopes,
    payoff_slice,
    resolve_market,
    solve_equilibrium,
)
from .verify import (
    DegenerateSlice,
    EquivalenceReport,
    GridSpec,
    MinimaxReport,
    MinimaxSlice,
    PropertyResult,
    SuiteReport,
    check_equivalence,
    closed_form_discrepancies,
    equal_pattern_pairs,
    equivalence_matrix,
    grid_minimax_pair,
    minimax_check,
    property_suite,
    sample_model_params,
)

__version__ = "0.1.0"

__all__ = [
    "QuadraticForm",
    "Rational",
    "SingularSystem",
    "as_rational",
    "decimal_string",
    "format_rational",
    "ALL_ASSIGNMENTS",
    "FIRMS",
    "PATTERNS",
    "PRICE",
    "QUANTITY",
    "MarketState",
    "ModelParams",
    "PayoffVector",
    "StrategyAssignment",
    "as_assignment",
    "direct_demand",
    "direct_demand_numerators",
    "ensure_float_safe",
    "firm_index",
    "inverse_demand",
    "payoff_vector",
    "profit",
    "resolve_market",
    "ClosedFormOutputs",
    "ConcavityViolation",
    "Equilibrium",
    "IterationResult",
    "best_response_iteration",
    "closed_form_outputs",
    "committed_values",
    "own_payoff_slopes",
    "payoff_slice",
    "solve_equilibrium",
    "DegenerateSlice",
    "EquivalenceReport",
    "GridSpec",
    "MinimaxReport",
    "MinimaxSlice",
    "PropertyResult",
    "SuiteReport",
    "check_equivalence",
    "closed_form_discrepancies",
    "equal_pattern_pairs",
    "equivalence_matrix",
    "grid_minimax_pair",
    "minimax_check",
    "property_suite",
    "sample_model_params",
    "main",
    "run_cli",
    "__version__",
]


# The CLI pulls in argparse: import it only when a command line runs.
def run_cli(argv=None) -> int:
    """Run the ``triopoly`` command line on ``argv`` and return its exit code."""
    from .cli import run_cli
    return run_cli(argv)


def main() -> None:
    """Run the ``triopoly`` command line on ``sys.argv`` and exit with its code."""
    sys.exit(run_cli())
