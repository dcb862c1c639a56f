"""Backward-equation laboratory: envelope approximation ladders, certified
limits, pathwise (Y, Z, K) reconstruction, and comparison checks.

The non-Lipschitz generator is never discretized directly.  Each ladder
level replaces f and g by their n-Lipschitz lower/upper envelopes and
solves the associated parabolic problem; the two value functions squeeze
the true one with a gap controlled by gap_constant * phi(2L/(n-L)).  The
"exact" solution is operationally the first level whose measured core
gap clears the requested target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pde
from .envelope import EnvelopeGenerator, Modulus, ScalarGenerator, envelope_gap_bound
from .expr import Bin, Num, free_vars, parse, substitute, to_str
from .gfunction import GParams
from .gsim import PathEnsemble


def gap_constant(L: float, gparams: GParams, T: float) -> float:
    """The constant 2 exp(L(1+sigma_high_sq) T)/L in the ladder gap bound."""
    if L <= 0:
        raise ValueError("L must be positive")
    return 2.0 * np.exp(L * (1.0 + gparams.sigma_high_sq) * T) / L


def _inner(gen):
    return gen.gen if isinstance(gen, EnvelopeGenerator) else gen


def problem_growth_L(problem: "pde.PdeProblem") -> float:
    """The shared structural constant L: growth and y-Lipschitz of f and g.

    Generators whose bodies reference neither y nor z contribute nothing
    (their declared modulus never enters the solution)."""

    def gen_L(gen):
        if not (free_vars(gen.body) & {"y", "z"}):
            return 0.0
        return max(gen.growth_L, gen.lip_y)

    return max(gen_L(_inner(problem.f)), gen_L(_inner(problem.g)))


def solver_tolerance(grid: "pde.SpaceTimeGrid", sol: "pde.PdeSolution") -> float:
    """Pinned discretization-tolerance scale: (dx + dt) * (1 + core sup |u|)."""
    core = grid.core_mask()
    scale = 1.0 + float(np.max(np.abs(sol.values[:, core])))
    return (grid.dx + grid.dt) * scale


def envelope_problem(problem: "pde.PdeProblem", n: float, side: str) -> "pde.PdeProblem":
    """The level-n problem: f and g replaced by their side-envelopes."""
    f_env = EnvelopeGenerator(_inner(problem.f), n, side)
    g_env = EnvelopeGenerator(_inner(problem.g), n, side)
    return pde.PdeProblem(
        problem.coeffs, f_env, g_env, problem.gparams, problem.T, float(n)
    )


@dataclass(frozen=True)
class Ladder:
    levels: tuple
    lower_solutions: tuple
    upper_solutions: tuple
    gap_report: tuple  # measured max core gap per level
    bound_report: tuple  # gap_constant * phi(2L/(n-L)) per level
    tolerance: float  # solver tolerance entering certification


def _core_gap(lower: "pde.PdeSolution", upper: "pde.PdeSolution") -> float:
    core = lower.grid.core_mask()
    return float(np.max(upper.values[:, core] - lower.values[:, core]))


def _level_bound(problem: "pde.PdeProblem", L: float, n: float) -> float:
    """Modulus-based gap bound combining the f and g envelopes."""
    f, g = _inner(problem.f), _inner(problem.g)
    shs = problem.gparams.sigma_high_sq
    bound = 0.0
    if "z" in free_vars(f.body):
        bound += envelope_gap_bound(f.modulus_z, L, n)
    if "z" in free_vars(g.body):
        bound += shs * envelope_gap_bound(g.modulus_z, L, n)
    if bound == 0.0:
        return 0.0
    return gap_constant(L, problem.gparams, problem.T) * bound


def _level_grid(problem, n: float, grid: "pde.SpaceTimeGrid") -> "pde.SpaceTimeGrid":
    """grid with dt refined for both level-n envelope problems."""
    sides = (envelope_problem(problem, n, side) for side in ("lower", "upper"))
    return pde.refine_grid(grid, *sides)


def _solve_level(problem, L: float, n: float, grid: "pde.SpaceTimeGrid"):
    """Lower and upper level-n solutions on grid, their core gap and the
    modulus bound on it."""
    lo = pde.solve(envelope_problem(problem, n, "lower"), grid)
    up = pde.solve(envelope_problem(problem, n, "upper"), grid)
    return lo, up, _core_gap(lo, up), _level_bound(problem, L, n)


def approximation_ladder(problem, levels, grid) -> Ladder:
    """Solve lower/upper envelope problems for each level on one grid.

    All levels share the spatial nodes of the given grid; the time step is
    refined once, for the top level, so every level's update is monotone.
    The 2K envelope problems differ only in f and g, so they advance
    together as one pde.solve_stack; each solution equals what pde.solve
    gives for its problem alone, bit for bit.
    """
    levels = tuple(float(n) for n in levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    L = problem_growth_L(problem)
    if not levels:
        return Ladder((), (), (), (), (), 0.0)
    if levels[0] <= L:
        raise ValueError(f"every level must exceed L={L}")
    problems = [envelope_problem(problem, n, side)
                for n in levels for side in ("lower", "upper")]
    grid = pde.refine_grid(grid, *problems[-2:])
    sols = pde.solve_stack(problems, grid)
    lowers, uppers = sols[0::2], sols[1::2]
    gaps = tuple(_core_gap(lo, up) for lo, up in zip(lowers, uppers))
    bounds = tuple(_level_bound(problem, L, n) for n in levels)
    tol = solver_tolerance(grid, lowers[-1])
    return Ladder(levels, lowers, uppers, gaps, bounds, tol)


@dataclass(frozen=True)
class ExactSolve:
    solution: "pde.PdeSolution"  # lower-envelope solution at the chosen level
    upper_solution: "pde.PdeSolution"
    level: float
    measured_gap: float
    bound: float
    tolerance: float


def solve_exact(problem, grid, target_gap, max_doublings: int = 8) -> ExactSolve:
    """Walk levels n = 2L * 2^k until the measured core gap clears
    target_gap; certify each level's gap against the modulus bound.

    The level search is driven by the measured gap (the theoretical bound
    is monotone but pessimistic); the bound is still asserted per level.
    """
    if not (target_gap > 0.0):
        raise ValueError("target_gap must be positive (zero is below the floor)")
    L = problem_growth_L(problem)
    base = 2.0 * L if L > 0.0 else 1.0
    last_gap = None
    for k in range(max_doublings + 1):
        n = base * 2.0**k
        grid_n = _level_grid(problem, n, grid)
        lo, up, gap, bound = _solve_level(problem, L, n, grid_n)
        tol = solver_tolerance(grid_n, lo)
        if gap > bound + 2.0 * tol:
            raise RuntimeError(
                f"certification failed at level n={n}: measured gap {gap:g} "
                f"exceeds bound {bound:g} + 2*{tol:g}"
            )
        if gap <= target_gap:
            return ExactSolve(lo, up, n, gap, bound, tol)
        last_gap = gap
    raise RuntimeError(
        f"target gap {target_gap:g} not reached after {max_doublings} doublings "
        f"(last measured gap {last_gap:g}); refine the grid or relax the target"
    )


@dataclass
class SolutionTriple:
    """(Y, Z, K) along an ensemble; K[:,0] = 0 by construction.  Each has
    shape (n_paths, n_steps+1), a transposed view of time-major storage."""

    Y: np.ndarray
    Z: np.ndarray
    K: np.ndarray
    times: np.ndarray


def extract_triple(
    sol: "pde.PdeSolution", ensemble: PathEnsemble, problem: "pde.PdeProblem"
) -> SolutionTriple:
    """Read Y and Z off the value function along the paths and rebuild K as
    the defect K_t = Y_t - Y_0 + sum f dt + sum g dQV - sum Z dB
    (left-point sums), one time point at a time."""
    # time-major, as simulate_paths and euler_forward store the paths
    X, B, QV = ensemble.X.T, ensemble.B.T, ensemble.QV.T
    times, dt = ensemble.times, ensemble.dt
    m, n = ensemble.n_steps, X.shape[1]
    Y = np.empty((m + 1, n))
    Z = np.empty((m + 1, n))
    K = np.empty((m + 1, n))
    acc = np.zeros(n)
    for k in range(m + 1):
        t, xk = times[k], X[k]
        t_sol = min(t, float(sol.times[-1]))
        Y[k], p, _ = pde.stencil_batch(sol, t_sol, xk)
        _, _, sigma = problem.coeffs.fields(t_sol, xk)
        Z[k] = sigma * p
        K[k] = Y[k] - Y[0] + acc if k else 0.0
        if k == m:
            break
        fk = np.asarray(problem.f.eval_grid(t, xk, Y[k], Z[k]), dtype=float)
        gk = np.asarray(problem.g.eval_grid(t, xk, Y[k], Z[k]), dtype=float)
        acc = acc + fk * dt + gk * (QV[k + 1] - QV[k]) - Z[k] * (B[k + 1] - B[k])
    return SolutionTriple(Y.T, Z.T, K.T, times)


def barrier_problems(problem: "pde.PdeProblem"):
    """Lipschitz barrier problems squeezing every ladder solution.

    The generators are replaced by -L(1+|y|+|z|) + f(t,x,0,0) (lower) and
    +L(1+|y|+|z|) + f(t,x,0,0) (upper), same for g; these dominate /
    minorize every envelope level, so their solutions bracket the ladder.
    """
    L = problem_growth_L(problem)
    zero = {"y": Num(0.0), "z": Num(0.0)}
    mod = Modulus("linear", c=max(L, 1.0), growth_L=max(L, 1.0))

    def barrier(gen, sign):
        body = substitute(gen.body, zero)
        if L > 0.0:
            w = parse(f"{sign * L!r}*(1+abs(y)+abs(z))")
            body = Bin("+", w, body)
        return ScalarGenerator(body, lip_y=L, modulus_z=mod, growth_L=max(L, 1.0))

    f, g = _inner(problem.f), _inner(problem.g)
    lo, hi = (
        pde.PdeProblem(problem.coeffs, barrier(f, sign), barrier(g, sign),
                       problem.gparams, problem.T, L)
        for sign in (-1, +1)
    )
    return lo, hi


@dataclass(frozen=True)
class CompareReport:
    min_core_diff: float  # min over core nodes and layers of u2 - u1
    passed: bool
    level1: float
    level2: float


_ORDER_TOL = 1e-9


def _check_generator_order(g1, g2, T, xs, name):
    """Sampled pointwise ordering g1 <= g2; raises with a witness if not."""
    ts = np.linspace(0.0, T, 5)
    ys = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    zs = np.array([-4.0, -1.0, -0.1, 0.0, 0.1, 1.0, 4.0])
    x_s = xs[:: max(1, len(xs) // 16)]
    tt, xx, yy, zz = np.meshgrid(ts, x_s, ys, zs, indexing="ij")
    v1 = np.broadcast_to(np.asarray(g1.eval_grid(tt, xx, yy, zz), dtype=float), tt.shape)
    v2 = np.broadcast_to(np.asarray(g2.eval_grid(tt, xx, yy, zz), dtype=float), tt.shape)
    viol = v1 > v2 + _ORDER_TOL
    if np.any(viol):
        idx = tuple(np.argwhere(viol)[0])
        raise ValueError(
            f"{name} ordering violated at (t={tt[idx]:g}, x={xx[idx]:g}, "
            f"y={yy[idx]:g}, z={zz[idx]:g}): {v1[idx]:g} > {v2[idx]:g}"
        )


def compare(problem1, problem2, grid, target_gap: float = 0.05) -> CompareReport:
    """Solve an ordered pair and report the minimum core difference.

    Preconditions: shared b, h, sigma; Phi1 <= Phi2 on the nodes;
    f1 <= f2 and g1 <= g2 on a sampled panel.  The monotone scheme then
    preserves the ordering up to rounding.
    """
    c1, c2 = problem1.coeffs, problem2.coeffs
    for name in ("b", "h", "sigma"):
        if to_str(getattr(c1, name)) != to_str(getattr(c2, name)):
            raise ValueError(f"problems must share coefficient {name}")
    xs = grid.xs
    phi1, phi2 = c1.eval_phi(xs), c2.eval_phi(xs)
    if np.any(phi1 > phi2 + _ORDER_TOL):
        bad = int(np.argmax(phi1 - phi2))
        raise ValueError(
            f"terminal ordering violated at x={xs[bad]:g}: "
            f"{phi1[bad]:g} > {phi2[bad]:g}"
        )
    _check_generator_order(_inner(problem1.f), _inner(problem2.f), problem1.T, xs, "f")
    _check_generator_order(_inner(problem1.g), _inner(problem2.g), problem1.T, xs, "g")
    s1 = solve_exact(problem1, grid, target_gap)
    s2 = solve_exact(problem2, grid, target_gap)
    # lower envelopes at a common level are ordered whenever the
    # generators are; re-solve the laggard if the searches stopped at
    # different levels or on different grids
    n = max(s1.level, s2.level)
    p1 = envelope_problem(problem1, n, "lower")
    p2 = envelope_problem(problem2, n, "lower")
    grid_n = pde.refine_grid(grid, p1, p2)

    def at_common_level(s, p):
        sol = s.solution
        if sol.fingerprint == p.fingerprint() and sol.grid == grid_n:
            return sol
        return pde.solve(p, grid_n)

    u1 = at_common_level(s1, p1)
    u2 = at_common_level(s2, p2)
    core = grid_n.core_mask()
    diff = u2.values[:, core] - u1.values[:, core]
    min_diff = float(np.min(diff))
    return CompareReport(min_diff, min_diff >= -1e-6, s1.level, s2.level)
