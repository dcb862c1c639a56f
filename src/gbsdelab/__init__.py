"""Numerical laboratory for scalar Markovian backward equations under
volatility uncertainty: Lipschitz-envelope approximation ladders, a
monotone finite-difference solver for the associated fully nonlinear
parabolic equation, and worst-case Monte Carlo cross-checks."""

from .envelope import (
    EnvelopeGenerator,
    Modulus,
    ScalarGenerator,
    envelope_gap_bound,
    lower_envelope,
    modulus_eval,
    search_radius,
    upper_envelope,
)
from .gbsde import (
    Ladder,
    SolutionTriple,
    approximation_ladder,
    compare,
    extract_triple,
    gap_constant,
    solve_exact,
)
from .gfunction import GParams, g_value, worst_case_q
from .gsim import (
    ConstantPolicy,
    FeedbackPolicy,
    PathEnsemble,
    euler_forward,
    simulate_paths,
    upper_expectation_mc,
    upper_expectation_pde,
)
from .pde import (
    CoefficientSet,
    PdeProblem,
    PdeSolution,
    SpaceTimeGrid,
    build_grid,
    eval_u,
    solve,
    step_backward,
)

__version__ = "0.1.0"
