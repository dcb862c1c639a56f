"""Oracles for the path reads: the reads as they were before the stacked
stencil and the lean path terms, and three problems to compare them on.

interp_cell and stencil read x, x + dx and x - dx as three cell reads,
each seeded from the cell of x; Feedback, euler_forward and
extract_triple evaluate b, h, sigma, f and g on every read, whether or
not a term is zero or constant.  Test use only.
"""

from functools import lru_cache

import numpy as np

from gbsdelab import pde
from gbsdelab.envelope import ZERO_GENERATOR, Modulus, ScalarGenerator
from gbsdelab.gfunction import GParams, worst_case_q

GP = GParams(0.5, 1.0)
_LINEAR_F = ScalarGenerator.from_text(
    "-0.5*abs(z)+0.1*y", 0.1, Modulus("linear", c=0.5, growth_L=0.5))
_LINEAR_G = ScalarGenerator.from_text("0.2*z", 0.0, Modulus("linear", c=0.2, growth_L=0.2))

# name -> (b, h, sigma, f, g): h = g = 0 and sigma 1; every term on, with
# sigma in x and g in z; sigma in t
PROBLEMS = {
    "heat": ("0", "0", "1", ZERO_GENERATOR, ZERO_GENERATOR),
    "drift": ("0.2*x", "0.1", "1+0.1*x*x/(1+x*x)", _LINEAR_F, _LINEAR_G),
    "time_sigma": ("0", "0", "1+0.5*t", _LINEAR_F, ZERO_GENERATOR),
}


@lru_cache(maxsize=None)
def solved(name, span=6.0, nx=121):
    """(sol, problem) of PROBLEMS[name] with Phi = x^3 on [-span, span], T = 1."""
    b, h, sigma, f, g = PROBLEMS[name]
    coeffs = pde.CoefficientSet.from_text(b, h, sigma, "x*x*x")
    problem = pde.PdeProblem(coeffs, f, g, GP, 1.0, 0.5)
    return pde.solve(problem, pde.build_grid(problem, -span, span, nx)), problem


def edge_states(grid):
    """States a read must get right: the inner nodes and their neighbours in
    rounding, the ends of the stencil range, and both zeros."""
    xs, dx = grid.xs, grid.dx
    inner = xs[1:-1]
    return np.concatenate((
        inner, np.nextafter(inner, np.inf), np.nextafter(inner, -np.inf),
        [grid.x_min + dx, grid.x_max - dx, -0.0, 0.0],
    ))


def interp_cell(grid, layer, x, slope, seed=None):
    """np.interp(x, grid.xs, layer) and the cell j read, j starting at seed."""
    xs = grid.xs
    x = np.minimum(np.maximum(x, grid.x_min), grid.x_max)
    if seed is None:
        seed = np.fmin((x - grid.x_min) / grid.dx, grid.nx - 2).astype(np.intp)
    j = seed - (xs[seed] > x)
    j += xs[j + 1] <= x
    d = x - xs[j]
    y = layer[j]
    out = slope[j] * d
    out += y
    on_node = d == 0.0
    return (np.where(on_node, y, out) if on_node.any() else out), j


def stencil(sol, t, x):
    """u, the central gradient and the second difference: three cell reads."""
    grid = sol.grid
    dx = grid.dx
    layer = pde._blend_layer(sol, t)
    slope = pde._slopes(grid, layer)
    mid, j = interp_cell(grid, layer, x, slope)
    up = interp_cell(grid, layer, x + dx, slope, np.minimum(j + 1, grid.nx - 2))[0]
    down = interp_cell(grid, layer, x - dx, slope, np.maximum(j - 1, 0))[0]
    return mid, (up - down) / (2.0 * dx), (up - 2.0 * mid + down) / dx**2


class Feedback:
    """The feedback variance with b, h, sigma and g evaluated on every read."""

    def __init__(self, sol, problem):
        self.sol, self.problem = sol, problem

    def variance(self, t, state):
        sol, problem = self.sol, self.problem
        grid = sol.grid
        t = min(t, float(sol.times[-1]))
        lo, hi = grid.x_min + grid.dx, grid.x_max - grid.dx
        x = np.minimum(np.maximum(np.asarray(state, dtype=float), lo), hi)
        u, p, d2 = stencil(sol, t, x)
        _, h, sigma = problem.coeffs.fields(t, x)
        gval = np.asarray(problem.g.eval_grid(t, x, u, sigma * p), dtype=float)
        # a zero h adds nothing, also where the gradient overflows (0 * inf)
        ham = sigma**2 * d2 + 2.0 * np.where(h == 0.0, 0.0, h * p) + 2.0 * gval
        ham = np.where(np.abs(ham) < 1e-9, 0.0, ham)
        return worst_case_q(problem.gparams, ham)


def euler_forward(coeffs, ensemble, x0):
    """The forward state X, shape (n_paths, n_steps+1); ensemble is left alone."""
    n, m = ensemble.n_paths, ensemble.n_steps
    B, QV = ensemble.B.T, ensemble.QV.T
    X = np.empty((m + 1, n))
    X[0] = x0
    t0, dt = ensemble.t0, ensemble.dt
    for k in range(m):
        t = t0 + k * dt
        xk = X[k]
        b, h, s = coeffs.fields(t, xk)
        dqv = QV[k + 1] - QV[k]
        db = B[k + 1] - B[k]
        X[k + 1] = xk + b * dt + h * dqv + s * db
    return X.T


def extract_triple(sol, ensemble, problem):
    """(Y, Z, K), each (n_paths, n_steps+1), with f and g summed every step."""
    X, B, QV = ensemble.X.T, ensemble.B.T, ensemble.QV.T
    times, dt = ensemble.times, ensemble.dt
    m, n = ensemble.n_steps, X.shape[1]
    Y, Z, K = (np.empty((m + 1, n)) for _ in range(3))
    acc = np.zeros(n)
    for k in range(m + 1):
        t, xk = times[k], X[k]
        t_sol = min(t, float(sol.times[-1]))
        Y[k], p, _ = stencil(sol, t_sol, xk)
        _, _, sigma = problem.coeffs.fields(t_sol, xk)
        Z[k] = sigma * p
        K[k] = Y[k] - Y[0] + acc if k else 0.0
        if k == m:
            break
        fk = np.asarray(problem.f.eval_grid(t, xk, Y[k], Z[k]), dtype=float)
        gk = np.asarray(problem.g.eval_grid(t, xk, Y[k], Z[k]), dtype=float)
        acc = acc + fk * dt + gk * (QV[k + 1] - QV[k]) - Z[k] * (B[k + 1] - B[k])
    return Y.T, Z.T, K.T


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
