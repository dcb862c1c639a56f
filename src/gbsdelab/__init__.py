"""Numerical laboratory for scalar Markovian backward equations under
volatility uncertainty: Lipschitz-envelope approximation ladders, a
monotone finite-difference solver for the associated fully nonlinear
parabolic equation, and worst-case Monte Carlo cross-checks."""
