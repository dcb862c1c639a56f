"""Backward-equation laboratory: envelope approximation ladders, certified
limits, pathwise (Y, Z, K) reconstruction, and comparison checks.

The non-Lipschitz generator is never discretized directly.  Each ladder
level replaces f and g by their n-Lipschitz lower/upper envelopes and
solves the associated parabolic problem; the two value functions squeeze
the true one with a gap controlled by gap_constant * phi(2L/(n-L)).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace

import numpy as np

from . import pde
from .envelope import envelope_gap_bound, envelope_of
from .expr import free_vars
from .gfunction import GParams


def gap_constant(L: float, gparams: GParams, T: float) -> float:
    """The constant 2 exp(L(1+sigma_high_sq) T)/L in the ladder gap bound."""
    if L <= 0:
        raise ValueError("L must be positive")
    return 2.0 * np.exp(L * (1.0 + gparams.sigma_high_sq) * T) / L


def problem_growth_L(problem: "pde.PdeProblem") -> float:
    """The shared structural constant L: growth and y-Lipschitz of f and g.

    Generators whose bodies reference neither y nor z contribute nothing
    (their declared modulus never enters the solution)."""

    def gen_L(gen):
        if not (free_vars(gen.body) & {"y", "z"}):
            return 0.0
        return max(gen.growth_L, gen.lip_y)

    return max(gen_L(problem.f), gen_L(problem.g))


def level_base(L: float) -> float:
    """The first level of a ladder or level walk: 2L, or 1 when L = 0."""
    return 2.0 * L if L > 0.0 else 1.0


def solver_tolerance(sol: "pde.PdeSolution") -> float:
    """Pinned tolerance scale on sol's grid: (dx + dt) * (1 + core sup |u|)."""
    grid = sol.grid
    core = grid.core_mask()
    scale = 1.0 + float(np.max(np.abs(sol.values[:, core])))
    return (grid.dx + grid.dt) * scale


def envelope_problem(problem: "pde.PdeProblem", n: float, side: str) -> "pde.PdeProblem":
    """The level-n problem: f and g replaced by their side-envelopes
    (envelope_of: the generator itself where it is n-Lipschitz in z), and
    problem itself where both pass through.  lip_z_bound stays problem's;
    lam_z never reads it here.  So two envelope problems of one base
    problem step identically, bit for bit on one grid, exactly when they
    are ==, and callers solve them once and share the solution."""
    f, g = (envelope_of(gen, n, side) for gen in (problem.f, problem.g))
    if f is problem.f and g is problem.g:
        return problem
    return replace(problem, f=f, g=g)


@dataclass(frozen=True)
class Ladder:
    """One ladder's solutions and reports, per level; equal envelope
    problems, across sides and levels, share one solution (envelope_problem)."""

    levels: tuple
    lower_solutions: tuple
    upper_solutions: tuple
    gap_report: tuple  # measured max core gap per level
    bound_report: tuple  # gap_constant * phi(2L/(n-L)) per level
    passed: tuple  # per level: its certificate holds (approximation_ladder)
    tolerance: float  # solver tolerance entering certification


def _core_gap(lower: "pde.PdeSolution", upper: "pde.PdeSolution") -> float:
    core = lower.grid.core_mask()
    return float(np.max(upper.values[:, core] - lower.values[:, core]))


def _certified(gap: float, bound: float, tol: float) -> bool:
    """A level's gap within its bound up to 2 tol; a NaN bound certifies nothing."""
    return gap <= bound + 2.0 * tol


def _rises(a: "pde.PdeSolution", b: "pde.PdeSolution", tol: float) -> bool:
    """b is not below a by more than tol on the core over every stored layer."""
    core = a.grid.core_mask()
    return bool(np.all(a.values[:, core] <= b.values[:, core] + tol))


def _level_bound(problem: "pde.PdeProblem", L: float, n: float) -> float:
    """Modulus-based gap bound combining the f and g envelopes."""
    shs = problem.gparams.sigma_high_sq
    bound = envelope_gap_bound(problem.f, L, n) + shs * envelope_gap_bound(problem.g, L, n)
    if bound == 0.0:
        return 0.0
    return gap_constant(L, problem.gparams, problem.T) * bound


def _solve_level(problem, L: float, n: float, grid: "pde.SpaceTimeGrid"):
    """Lower and upper level-n solutions on grid's nodes, one pde.solve of
    each distinct side (envelope_problem), their core gap and its modulus
    bound.  Two sides split as pde._most_parts of the pair allows: lower
    here, upper in a forked child (pde._split), which sends its solution
    back as pde.solve gave it."""
    def sides():  # afresh for each run, so a serial rerun starts from new lattices
        lower, upper = (envelope_problem(problem, n, side) for side in ("lower", "upper"))
        return (lower,) if upper == lower else (lower, upper)

    first = sides()
    sols = list(first)  # each entry replaced by its side's solution

    def run(rows, fh):
        for i, side in zip(range(len(first))[rows], sides()[rows]):
            sols[i] = pde.solve(side, grid)
            if fh:  # protocol 5 sends a read-only array back read-only
                pickle.dump(sols[i], fh, protocol=5)

    def read(rows, fh):  # a later part holds one side
        sols[rows.start] = pickle.load(fh)

    most = pde._most_parts(first, pde.refine_grid(grid, *first))
    pde._split(len(first), most, run, read, f"level n={n:g}")
    lo, up = sols[0], sols[-1]
    return lo, up, _core_gap(lo, up), _level_bound(problem, L, n)


def approximation_ladder(problem, levels, grid) -> Ladder:
    """Solve lower/upper envelope problems for each level on grid's nodes.
    The 2K problems differ only in f and g, so the distinct ones
    (envelope_problem) advance together as one pde.solve_stack, whose time
    step is the top level's (the smallest); each solution is what
    pde.solve gives for its problem alone on that grid, bit for bit."""
    levels = tuple(float(n) for n in levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    L = problem_growth_L(problem)
    if not levels:
        return Ladder((), (), (), (), (), (), 0.0)
    if levels[0] <= L:
        raise ValueError(f"every level must exceed L={L}")
    problems = [envelope_problem(problem, n, side)
                for n in levels for side in ("lower", "upper")]
    # each problem's first equal problem; compared, not hashed, since a
    # generator's Modulus may hold lists
    firsts = [problems.index(p) for p in problems]
    rows = sorted(set(firsts))
    stacked = dict(zip(rows, pde.solve_stack([problems[i] for i in rows], grid)))
    sols = tuple(stacked[i] for i in firsts)
    lowers, uppers = sols[0::2], sols[1::2]
    gaps = tuple(_core_gap(lo, up) for lo, up in zip(lowers, uppers))
    bounds = tuple(_level_bound(problem, L, n) for n in levels)
    tol = solver_tolerance(lowers[-1])
    # from the second level on, no wider gap, lower rising and upper falling
    passed = tuple(_certified(gaps[i], bounds[i], tol) and (i == 0 or (
        gaps[i] <= gaps[i - 1] and _rises(lowers[i - 1], lowers[i], tol)
        and _rises(uppers[i], uppers[i - 1], tol))) for i in range(len(levels)))
    return Ladder(levels, lowers, uppers, gaps, bounds, passed, tol)


@dataclass(frozen=True)
class ExactSolve:
    """The level solve_exact stopped at; solution and upper_solution may be
    one object (_solve_level)."""

    solution: "pde.PdeSolution"  # lower-envelope solution at the chosen level
    upper_solution: "pde.PdeSolution"
    level: float
    measured_gap: float
    bound: float
    tolerance: float


def solve_exact(problem, grid, target_gap, max_doublings: int = 8) -> ExactSolve:
    """Walk levels n = level_base(L) * 2^k until the measured core gap clears
    target_gap, not the modulus bound, which is monotone but pessimistic;
    each level's gap must still be _certified against that bound."""
    if not (target_gap > 0.0):
        raise ValueError("target_gap must be positive (zero is below the floor)")
    L = problem_growth_L(problem)
    last_gap = None
    for k in range(max_doublings + 1):
        n = level_base(L) * 2.0**k
        lo, up, gap, bound = _solve_level(problem, L, n, grid)
        tol = solver_tolerance(lo)
        if not _certified(gap, bound, tol):
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
    """(Y, Z, K) along an ensemble, each of B's shape and storage
    (gsim.PathEnsemble); K[:,0] = 0 by construction."""

    Y: np.ndarray
    Z: np.ndarray
    K: np.ndarray
    times: np.ndarray


def extract_triple(
    sol: "pde.PdeSolution", ensemble, problem: "pde.PdeProblem"
) -> SolutionTriple:
    """Read Y and Z off the value function along the paths, one
    pde.stencil_batch read per time point, and rebuild K as the defect
    K_t = Y_t - Y_0 + sum f dt + sum g dQV - sum Z dB (left-point sums).

    The f and g sums are left out where pde._is_zero finds f or g zero,
    which keeps every bit of K wherever the increments are finite
    (pde._step_fields): the running sum starts at +0.0, so it is never
    -0.0.  A time of the ensemble outside the solution's [0, T] raises.
    """
    X, B, QV = ensemble.X.T, ensemble.B.T, ensemble.QV.T  # time-major (gsim.PathEnsemble)
    times, dt = ensemble.times, ensemble.dt
    m, n = ensemble.n_steps, X.shape[1]
    Y = np.empty((m + 1, n))
    Z = np.empty((m + 1, n))
    K = np.empty((m + 1, n))
    acc = np.zeros(n)
    f_live, g_live = not pde._is_zero(problem.f), not pde._is_zero(problem.g)
    for k in range(m + 1):
        t, xk = times[k], X[k]
        Y[k], p, _ = pde.stencil_batch(sol, t, xk)
        Z[k] = problem.coeffs.coeff("sigma", t, xk) * p
        K[k] = Y[k] - Y[0] + acc if k else 0.0
        if k == m:
            break
        if f_live:
            fk = np.asarray(problem.f.eval_grid(t, xk, Y[k], Z[k]), dtype=float)
            acc += fk * dt
        if g_live:
            gk = np.asarray(problem.g.eval_grid(t, xk, Y[k], Z[k]), dtype=float)
            acc += gk * (QV[k + 1] - QV[k])
        acc -= Z[k] * (B[k + 1] - B[k])
    return SolutionTriple(Y.T, Z.T, K.T, times)


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

    Preconditions: shared b, h, sigma, T and gparams; Phi1 <= Phi2 on the
    nodes; f1 <= f2 and g1 <= g2 on a sampled panel.  The monotone scheme
    (pde._step_fields) then preserves the ordering up to rounding."""
    c1, c2 = problem1.coeffs, problem2.coeffs
    for name in ("b", "h", "sigma"):
        if getattr(c1, name) != getattr(c2, name):
            raise ValueError(f"problems must share coefficient {name}")
    for name in ("T", "gparams"):
        if getattr(problem1, name) != getattr(problem2, name):
            raise ValueError(f"problems must share {name}")
    xs = grid.xs
    phi1, phi2 = c1.eval_phi(xs), c2.eval_phi(xs)
    if np.any(phi1 > phi2 + _ORDER_TOL):
        bad = int(np.argmax(phi1 - phi2))
        raise ValueError(
            f"terminal ordering violated at x={xs[bad]:g}: "
            f"{phi1[bad]:g} > {phi2[bad]:g}"
        )
    _check_generator_order(problem1.f, problem2.f, problem1.T, xs, "f")
    _check_generator_order(problem1.g, problem2.g, problem1.T, xs, "g")
    s1 = solve_exact(problem1, grid, target_gap)
    s2 = solve_exact(problem2, grid, target_gap)
    # lower envelopes at a common level are ordered whenever the
    # generators are; re-solve the laggard if the searches stopped at
    # different problems or on different grids
    n = max(s1.level, s2.level)
    p1 = envelope_problem(problem1, n, "lower")
    p2 = envelope_problem(problem2, n, "lower")
    grid_n = pde.refine_grid(grid, p1, p2)

    def at_common_level(s, problem, p):
        # s solved p at level n, or at its own level where f and g pass
        # through, and so at n too (p is then problem itself)
        solved_p = s.level == n or envelope_problem(problem, s.level, "lower") is problem
        if solved_p and s.solution.grid == grid_n:
            return s.solution
        return pde.solve(p, grid_n)

    u1 = at_common_level(s1, problem1, p1)
    u2 = at_common_level(s2, problem2, p2)
    core = grid_n.core_mask()
    diff = u2.values[:, core] - u1.values[:, core]
    min_diff = float(np.min(diff))
    return CompareReport(min_diff, min_diff >= -1e-6, s1.level, s2.level)
