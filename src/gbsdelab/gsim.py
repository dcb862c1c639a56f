"""Path simulation under volatility uncertainty.

Each admissible volatility control (a process valued in the uncertainty
interval) induces one ordinary diffusion; the worst-case expectation is
the supremum over controls.  This module samples controls as
piecewise-constant-per-step laws, tracks the quadratic variation, fills
the forward state by Euler steps, and estimates upper expectations both
by Monte Carlo over a finite policy set and exactly through the
degenerate parabolic solve.  The worst-case feedback control
(FeedbackPolicy) is the maximizer of G at the solved value function,
decided by a per-cell curvature table wherever that is sure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pde
from .envelope import ZERO_GENERATOR
from .expr import Expr, Num, evaluate, free_vars
from .gfunction import GParams, worst_case_q

_BATCH = 5000  # fixed so outputs do not depend on ensemble size chunking
_TIE = 1e-9  # G's argument within this of 0 is a tie, snapped to 0: sigma_high_sq
_TABLE_C = 64.0  # FeedbackPolicy's curvature-table error constant
_EPS = float(np.finfo(float).eps)
_ADMIT = 1e-12  # rounding slack of a variance at the ends of the interval


class ConstantPolicy:
    """Constant instantaneous variance; must lie inside the interval."""

    def __init__(self, variance: float, gparams: GParams):
        if not (gparams.sigma_low_sq - _ADMIT <= variance <= gparams.sigma_high_sq + _ADMIT):
            raise ValueError(f"variance {variance} outside "
                             f"[{gparams.sigma_low_sq}, {gparams.sigma_high_sq}]")
        self.var = float(variance)

    def variance(self, t, state):
        return np.full_like(np.asarray(state, dtype=float), self.var)

    def describe(self) -> str:
        return f"constant({self.var:g})"


class FeedbackPolicy:
    """Worst-case feedback law read off a solved value function.

    At (t, x) the variance is the maximizer of G at pde._hamiltonian, the
    argument the scheme steps G with, from u, its central gradient and its
    second difference as pde.stencil_batch reads them off one time blend L
    of the stored layers.  b is never read; h and g are left out where
    they are zero, which keeps every bit (pde._step_fields) since the tie
    snap (an argument within _TIE of 0 is 0) sends both zeros to 0.  So
    the variance is sigma_high_sq exactly where the computed argument
    exceeds -_TIE, else sigma_low_sq, NaN included.  A state less than one
    cell inside the solver domain is clamped one cell in, so the read
    skips stencil_batch's range check; the variance is always admissible.
    A time outside the solution's [0, T] raises.

    Where h and g are zero and sigma is a float, the argument is sigma^2
    times the stencil's second difference, and a per-cell table (_table)
    decides most states, as a filtered exact predicate does (Shewchuk's
    adaptive-precision geometric predicates): only the states it leaves in
    doubt take the exact read, so the output is the read's bit for bit.
    With S_k = L[k+1] - 2 L[k] + L[k-1], a clamped x in cell j
    (xs[j] <= x < xs[j+1]) has, in exact arithmetic on uniform nodes, the
    argument sigma^2 ((1 - a) S_j + a S_{j+1}) / dx^2, a = (x - xs[j])/dx
    in [0, 1) (within rounding of 0 at the last interior cell): a point
    between its values at nodes j and j + 1.  Rounding moves the computed
    argument by less than

        E = C eps (M + (X + dx)/dx D) sigma^2/dx^2,    C = _TABLE_C = 64,

    with M = max|L|, D = max|L[k+1] - L[k]|, X = max(|x_min|, |x_max|)
    and eps the float64 machine epsilon: the points x +- dx and the nodes
    are each off by a few eps (X + dx), which moves a read by D/dx per
    unit length; each read rounds by a few eps (M + D); the sum
    up - 2 mid + down and the table's own S_k by a few eps M; and the
    division by dx^2 and the product with sigma^2 by a few eps relative
    to values at most 4 M sigma^2/dx^2.  The cell c = floor((x - x_min)/dx)
    of a state is within one of j, so the interior nodes among c - 1 ...
    c + 2 include j and j + 1: c is sure sigma_high_sq when sigma^2 S_k/dx^2
    exceeds -_TIE + E at all of them, and sure sigma_low_sq when it is
    below -_TIE - E at all of them; other cells, and NaN states, take the
    exact read.  A layer holding inf or NaN, or large enough for the table
    to overflow, decides no cell.
    """

    def __init__(self, sol: "pde.PdeSolution", problem: "pde.PdeProblem"):
        self.sol = sol
        self.problem = problem
        floats = problem.coeffs.floats
        self.h_live = floats.get("h") != 0.0
        self.g_live = not pde._is_zero(problem.g)
        grid = sol.grid
        self.lo, self.hi = grid.x_min + grid.dx, grid.x_max - grid.dx
        gp = problem.gparams
        self.high, self.low = float(gp.sigma_high_sq), float(gp.sigma_low_sq)
        sigma, dx2 = floats.get("sigma"), grid.dx * grid.dx
        self.table_scale = None  # sigma^2/dx^2, where the table applies
        if sigma is not None and not (self.h_live or self.g_live) and dx2 > 0.0:
            k = sigma * sigma / dx2
            self.table_scale = k if k < math.inf else None

    def _table(self, layer):
        """The variance each cell of the layer decides, NaN where it is in
        doubt: nx entries, the last one (a NaN state's cell) in doubt."""
        grid, k = self.sol.grid, self.table_scale
        if k is None:
            return np.full(grid.nx, np.nan)
        scale = float(np.abs(layer).max())
        if not 4.0 * scale * max(k, 1.0) < math.inf:  # it would overflow; NaN too
            return np.full(grid.nx, np.nan)
        dl = layer[1:] - layer[:-1]
        s = dl[1:] - dl[:-1]  # S_k at the interior nodes
        s *= k
        x_abs = max(abs(grid.x_min), abs(grid.x_max))
        err = _TABLE_C * _EPS * (scale + (x_abs + grid.dx) / grid.dx
                                 * float(np.abs(dl).max())) * k
        # sure high, sure low at nodes -1 ... nx + 1: the boundary and
        # outer nodes veto nothing, but node nx + 1 vetoes cell nx - 1
        node = np.ones((2, grid.nx + 3), dtype=bool)
        node[:, -1] = False
        np.greater(s, err - _TIE, out=node[0, 2:-3])
        np.less(s, -_TIE - err, out=node[1, 2:-3])
        node = node[:, 1:] & node[:, :-1]
        cell = node[:, 2:] & node[:, :-2]  # cell c: nodes c - 1 ... c + 2 agree
        return np.where(cell[0], self.high, np.where(cell[1], self.low, np.nan))

    def _exact(self, t, x, layer):
        """The variance at the clamped states x, from one stencil read."""
        problem, coeffs = self.problem, self.problem.coeffs
        u, p, d2 = pde._stencil(self.sol.grid, layer, x)
        sigma = coeffs.coeff("sigma", t, x)
        h2 = 2.0 * coeffs.coeff("h", t, x) if self.h_live else None
        gval = (np.asarray(problem.g.eval_grid(t, x, u, sigma * p), dtype=float)
                if self.g_live else None)
        ham = pde._hamiltonian(np.square(sigma), h2, p, d2, gval)
        # sub-rounding curvature is a tie, resolved like the exact tie at 0
        ham = np.where(np.abs(ham) < _TIE, 0.0, ham)
        return worst_case_q(problem.gparams, ham)

    def variance(self, t, state):
        shape = np.shape(state)
        x = np.asarray(state, dtype=float).reshape(-1)
        x = np.minimum(np.maximum(x, self.lo), self.hi)
        grid = self.sol.grid
        layer = pde._blend_layer(self.sol, t)
        cell = x - grid.x_min
        cell /= grid.dx
        out = self._table(layer)[np.fmin(cell, grid.nx - 1, out=cell).astype(np.intp)]
        doubt = np.isnan(out)
        if doubt.any():
            out[doubt] = self._exact(t, x[doubt], layer)
        return out.reshape(shape) if shape else float(out[0])

    def describe(self) -> str:
        return "feedback"


@dataclass
class PathEnsemble:
    """Simulated driving paths B and QV, of shape (n_paths, n_steps+1)
    with B[:,0]=0, QV[:,0]=0, and the forward state X of B's shape:
    simulate_paths sets X to B itself (dX = dB from 0, the state the policy
    read), and euler_forward replaces it with the Euler state of given
    coefficients.  Each is a
    transposed view of time-major storage, (n_steps+1, n_paths), so that
    each step writes one contiguous row; B.T gives it back without a copy."""

    n_paths: int
    n_steps: int
    dt: float
    t0: float
    policy_name: str
    B: np.ndarray
    QV: np.ndarray
    X: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


def check_seed(seed) -> int:
    """seed, an int in [0, 2^63): numpy reads a larger Philox key as a float."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**63):
        raise ValueError(f"seed must be an integer in [0, 2^63), not {seed!r}")
    return int(seed)


def _batches(t0, T, dt, n_paths, seed):
    """The step count of dt on [t0, T], which dt must divide, and each
    batch's columns and normals xi (nb, n_steps) from its Philox stream,
    keyed by (seed, batch start): runs are byte-identical, and every policy
    of one call sees the same noise (common random numbers)."""
    seed = check_seed(seed)
    span = T - t0
    n_steps = int(round(span / dt))
    if n_steps < 1 or not pde.spans(n_steps, dt, span):
        raise ValueError(f"dt={dt} does not divide the horizon {span}")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")

    def draw(start):
        nb = min(_BATCH, n_paths - start)
        rng = np.random.Generator(np.random.Philox(key=[seed, start]))
        return slice(start, start + nb), rng.standard_normal((nb, n_steps))

    return n_steps, map(draw, range(0, n_paths, _BATCH))


def _advance(policies, gparams, t0, dt, xi, B, QV):
    """The path loop on (ring, P, nb) states: step k reads row k % len(B) of
    B and QV, where policy p reads row [p], and writes row (k+1) % len(B):
    full arrays (PathEnsemble) keep the path, two-row rings the last state."""
    lo, hi = gparams.sigma_low_sq, gparams.sigma_high_sq
    B[0] = QV[0] = 0.0
    vdt = np.empty(B.shape[1:])  # the variances, then var*dt, then dB
    for k in range(xi.shape[1]):
        i, j = k % len(B), (k + 1) % len(B)
        state = B[i]
        state.flags.writeable = False  # the policies read, never write
        for row, policy, x in zip(vdt, policies, state):
            row[...] = policy.variance(t0 + k * dt, x)
        if not (vdt.min() >= lo - _ADMIT and vdt.max() <= hi + _ADMIT):  # NaN fails
            raise ValueError("policy emitted an inadmissible variance")
        vdt *= dt
        np.add(QV[i], vdt, out=QV[j])
        np.sqrt(vdt, out=vdt)
        vdt *= xi[:, k].copy()  # one read of the strided column, not one per row
        np.add(state, vdt, out=B[j])


def simulate_paths(policy, gparams: GParams, t0, T, dt, n_paths, seed) -> PathEnsemble:
    """Sample (B, QV) on [t0, T] (_batches) under one volatility control
    (_advance): given it, dB = sqrt(var*dt)*xi is Gaussian, dQV = var*dt."""
    n_steps, batches = _batches(t0, T, dt, n_paths, seed)
    B = np.empty((n_steps + 1, n_paths))
    QV = np.empty((n_steps + 1, n_paths))
    for cols, xi in batches:
        _advance((policy,), gparams, t0, dt, xi, B[:, None, cols], QV[:, None, cols])
    B = B.T  # one view, shared by B and X
    return PathEnsemble(
        n_paths, n_steps, float(dt), float(t0),
        policy.describe() if hasattr(policy, "describe") else "custom",
        B, QV.T, B,
    )


def terminal_states(policies, gparams: GParams, t0, T, dt, n_paths, seed) -> np.ndarray:
    """B_T under each policy, shape (len(policies), n_paths): each batch's
    noise is drawn once, here, and every policy steps it together on two-row
    rings.  Row i is simulate_paths(policies[i], ...).X[:, -1], bit for bit.
    n * 2^22 policy-path-steps of a batch (P nb n_steps, about 20 ns each)
    take up to n blocks of its paths (pde._split), so a policy's variance at
    a state may not depend on the other states it is handed (as the _BATCH
    chunks assume), and it makes no BLAS call."""
    if not policies:
        raise ValueError("need at least one policy")
    n_steps, batches = _batches(t0, T, dt, n_paths, seed)
    out = np.empty((P := len(policies), n_paths))
    for cols, xi in batches:
        def run(rows, fh):  # step the paths rows; a child writes B_T to fh
            B, QV = np.empty((2, 2, P, rows.stop - rows.start))
            _advance(policies, gparams, t0, dt, xi[rows], B, QV)
            if fh:
                fh.write(B[n_steps % 2])
            else:
                out[:, cols][:, rows] = B[n_steps % 2]

        pde._split(len(xi), P * xi.size >> 22, run, lambda rows, fh: np.copyto(
            out[:, cols][:, rows], np.frombuffer(fh.read()).reshape(P, -1)), "terminal_states")
    return out


def euler_forward(coeffs: "pde.CoefficientSet", ensemble: PathEnsemble, x0):
    """Fill the forward state: dX = b dt + h dQV + sigma dB, X[:,0]=x0.

    Every term is kept, even a zero one: the state can be -0.0, and a +0.0
    term turns it into +0.0, as the sum of every term does."""
    n, m = ensemble.n_paths, ensemble.n_steps
    B, QV = ensemble.B.T, ensemble.QV.T  # time-major (PathEnsemble)
    X = np.empty((m + 1, n))
    X[0] = x0
    t0, dt = ensemble.t0, ensemble.dt
    for k in range(m):
        t = t0 + k * dt
        xk = X[k]
        b, h, s = (coeffs.coeff(name, t, xk) for name in ("b", "h", "sigma"))
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


def estimate_terminal(payoff: Expr, named_terminals) -> McEstimate:
    """Max over (name, terminal states) pairs of the Monte-Carlo mean of
    payoff: a lower bound on the worst-case expectation up to sampling error."""
    if not named_terminals:
        raise ValueError("need at least one policy")
    if free_vars(payoff) - {"x"}:
        raise ValueError("payoff must be an expression in x only")
    rows = []
    for name, terminal in named_terminals:
        vals = pde._as_field(evaluate(payoff, {"x": terminal}), terminal.shape)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append((name, mean, se))
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    return McEstimate(rows[best][1], rows[best][2], tuple(rows))


def upper_expectation_mc(payoff: Expr, ensembles) -> McEstimate:
    """estimate_terminal at the final state X of each ensemble."""
    return estimate_terminal(payoff, [(e.policy_name, e.X[:, -1]) for e in ensembles])


def heat_solution(payoff: Expr, gparams: GParams, T, x_min, x_max, nx):
    """The degenerate parabolic solve behind the worst-case expectation of
    payoff(B_T): b=h=0, sigma=1 and no generators.  Returns (sol, problem),
    which is also the context FeedbackPolicy reads its control from."""
    coeffs = pde.CoefficientSet(b=Num(0.0), h=Num(0.0), sigma=Num(1.0), Phi=payoff)
    problem = pde.PdeProblem(coeffs, ZERO_GENERATOR, ZERO_GENERATOR, gparams,
                             float(T), 0.0)
    grid = pde.build_grid(problem, x_min, x_max, nx)
    return pde.solve(problem, grid), problem


def upper_expectation_pde(
    payoff: Expr, gparams: GParams, T, x_min=-8.0, x_max=8.0, nx=1601
) -> float:
    """Worst-case expectation of payoff(B_T): heat_solution read at (0, 0)."""
    sol, _ = heat_solution(payoff, gparams, T, x_min, x_max, nx)
    return pde.eval_u(sol, 0.0, 0.0)
