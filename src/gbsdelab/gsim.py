"""Path simulation under volatility uncertainty.

Each admissible volatility control (a process valued in the uncertainty
interval) induces one ordinary diffusion; the worst-case expectation is
the supremum over controls.  This module samples controls as
piecewise-constant-per-step laws, tracks the quadratic variation, fills
the forward state by Euler steps, and estimates upper expectations both
by Monte Carlo over a finite policy set (a certified lower bound on the
sup) and exactly through the degenerate parabolic solve.

Randomness is counter-based: each batch of paths draws from a Philox
stream keyed by (seed, batch start), so ensembles are byte-identical
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pde
from .envelope import Modulus, ScalarGenerator
from .expr import Expr, Num, evaluate, free_vars
from .gfunction import GParams, worst_case_q

_BATCH = 5000  # fixed so outputs do not depend on ensemble size chunking


class ConstantPolicy:
    """Constant instantaneous variance; must lie inside the interval."""

    def __init__(self, variance: float, gparams: GParams):
        if not (gparams.sigma_low_sq - 1e-12 <= variance <= gparams.sigma_high_sq + 1e-12):
            raise ValueError(
                f"variance {variance} outside "
                f"[{gparams.sigma_low_sq}, {gparams.sigma_high_sq}]"
            )
        self.var = float(variance)
        self.gparams = gparams

    def variance(self, t, state):
        return np.full_like(np.asarray(state, dtype=float), self.var)

    def describe(self) -> str:
        return f"constant({self.var:g})"


class FeedbackPolicy:
    """Worst-case feedback law read off a solved value function.

    At (t, x) the instantaneous variance is the maximizer of G applied to
    pde._hamiltonian, the argument the scheme steps G with, assembled
    from u, its central gradient and its second difference as
    pde.stencil_batch reads them off one time blend of the stored layers.
    States less than one cell inside the solver domain are clamped one
    cell in before that read (stencil_batch itself raises for them); the
    emitted variance is always admissible.
    """

    def __init__(self, sol: "pde.PdeSolution", problem: "pde.PdeProblem"):
        self.sol = sol
        self.problem = problem
        self.gparams = problem.gparams

    def variance(self, t, state):
        sol, problem = self.sol, self.problem
        grid = sol.grid
        t = min(t, float(sol.times[-1]))
        lo, hi = grid.x_min + grid.dx, grid.x_max - grid.dx
        x = np.clip(np.asarray(state, dtype=float), lo, hi)
        u, p, d2 = pde.stencil_batch(sol, t, x)
        _, h, sigma = problem.coeffs.fields(t, x)
        gval = np.asarray(problem.g.eval_grid(t, x, u, sigma * p), dtype=float)
        ham = pde._hamiltonian(sigma**2, 2.0 * h, p, d2, gval)
        # sub-rounding curvature is a tie, resolved like the exact tie at 0
        ham = np.where(np.abs(ham) < 1e-9, 0.0, ham)
        return worst_case_q(self.gparams, ham)

    def describe(self) -> str:
        return "feedback"


@dataclass
class PathEnsemble:
    """Simulated driving paths and the forward state.

    B and QV have shape (n_paths, n_steps+1) with B[:,0]=0, QV[:,0]=0;
    control has shape (n_paths, n_steps) and records the variance used on
    each step.  X, of B's shape, is the forward state: simulate_paths sets
    it to B itself (dX = dB from 0, the state the policy read), and
    euler_forward replaces it with the Euler state of given coefficients.
    simulate_paths and euler_forward store time-major, (n_steps+1,
    n_paths), so that each step writes one contiguous row; the arrays here
    are transposed views of that storage, and B.T gives it back without a
    copy.
    """

    n_paths: int
    n_steps: int
    dt: float
    t0: float
    seed: int
    policy_name: str
    B: np.ndarray
    QV: np.ndarray
    control: np.ndarray
    X: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


def simulate_paths(policy, gparams: GParams, t0, T, dt, n_paths, seed) -> PathEnsemble:
    """Sample (B, QV) on [t0, T] under one volatility control.

    dt must divide T - t0 within rounding; increments are Gaussian
    conditional on the control, dB = sqrt(var*dt)*xi, dQV = var*dt.
    """
    span = T - t0
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"dt={dt} does not divide the horizon {span}")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    # time-major storage; the ensemble holds transposed views
    B = np.empty((n_steps + 1, n_paths))
    QV = np.empty((n_steps + 1, n_paths))
    control = np.empty((n_steps, n_paths))
    lo, hi = gparams.sigma_low_sq, gparams.sigma_high_sq
    for start in range(0, n_paths, _BATCH):
        nb = min(_BATCH, n_paths - start)
        cols = slice(start, start + nb)
        rng = np.random.Generator(np.random.Philox(key=[seed, start]))
        xi = rng.standard_normal((nb, n_steps))
        B[0, cols] = 0.0
        QV[0, cols] = 0.0
        for k in range(n_steps):
            state = B[k, cols]
            state.flags.writeable = False  # the policy reads, never writes
            var = np.asarray(policy.variance(t0 + k * dt, state), dtype=float)
            var = np.broadcast_to(var, state.shape)
            if np.any(var < lo - 1e-12) or np.any(var > hi + 1e-12):
                raise ValueError("policy emitted an inadmissible variance")
            vdt = var * dt
            np.add(state, np.sqrt(vdt) * xi[:, k], out=B[k + 1, cols])
            np.add(QV[k, cols], vdt, out=QV[k + 1, cols])
            control[k, cols] = var
    B = B.T  # one view, shared by B and X
    return PathEnsemble(
        n_paths, n_steps, float(dt), float(t0), int(seed),
        policy.describe() if hasattr(policy, "describe") else "custom",
        B, QV.T, control.T, B,
    )


def euler_forward(coeffs: "pde.CoefficientSet", ensemble: PathEnsemble, x0):
    """Fill the forward state: dX = b dt + h dQV + sigma dB, X[:,0]=x0."""
    n, m = ensemble.n_paths, ensemble.n_steps
    B, QV = ensemble.B.T, ensemble.QV.T  # time-major
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
    ensemble.X = X.T
    return ensemble


@dataclass(frozen=True)
class McEstimate:
    """Per-policy means with standard errors; value is the max mean."""

    value: float
    se: float  # standard error of the maximizing policy
    per_policy: tuple  # of (name, mean, se)


def upper_expectation_mc(payoff: Expr, ensembles) -> McEstimate:
    """Max over policies of the Monte-Carlo mean of payoff at the final
    state X.  A lower bound on the worst-case expectation up to sampling
    error."""
    if not ensembles:
        raise ValueError("need at least one ensemble")
    if free_vars(payoff) - {"x"}:
        raise ValueError("payoff must be an expression in x only")
    rows = []
    for ens in ensembles:
        terminal = ens.X[:, -1]
        vals = np.broadcast_to(
            np.asarray(evaluate(payoff, {"x": terminal}), dtype=float),
            terminal.shape,
        )
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append((ens.policy_name, mean, se))
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    return McEstimate(rows[best][1], rows[best][2], tuple(rows))


def heat_solution(payoff: Expr, gparams: GParams, T, x_min=-8.0, x_max=8.0, nx=1601):
    """The degenerate parabolic solve behind the worst-case expectation of
    payoff(B_T): b=h=0, sigma=1 and no generators.  Returns (sol, problem),
    which is also the context FeedbackPolicy reads its control from."""
    zero = ScalarGenerator.from_text("0", 0.0, Modulus("linear", c=1.0, growth_L=1.0))
    coeffs = pde.CoefficientSet(b=Num(0.0), h=Num(0.0), sigma=Num(1.0), Phi=payoff)
    problem = pde.PdeProblem(coeffs, zero, zero, gparams, float(T), 0.0)
    grid = pde.build_grid(problem, x_min, x_max, nx)
    return pde.solve(problem, grid), problem


def upper_expectation_pde(
    payoff: Expr, gparams: GParams, T, x_min=-8.0, x_max=8.0, nx=1601
) -> float:
    """Worst-case expectation of payoff(B_T): heat_solution read at (0, 0)."""
    sol, _ = heat_solution(payoff, gparams, T, x_min, x_max, nx)
    return pde.eval_u(sol, 0.0, 0.0)
