"""Monotone explicit finite-difference solver for the fully nonlinear
parabolic terminal-value problem

    u_t + G(sigma^2 u_xx + 2 h u_x + 2 g(t,x,u,sigma u_x))
        + b u_x + f(t,x,u,sigma u_x) = 0,      u(T,x) = Phi(x),

with G the scalar worst-case variance functional: step_backward is one
step, and _split runs large independent work on every usable CPU.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .envelope import EnvelopeGenerator
from .expr import Expr, evaluate, free_vars, parse
from .gfunction import GParams, g_value

_CFL_SAFETY = 0.9
_MAX_STORED_LAYERS = 2001
_T_SAMPLES = 33
# weighted node-steps per forked part (solve_stack): about 40 ms of stepping,
# 2.5 to 10 times what a part costs to fork, send back and reap
_SPLIT_WORK = 1 << 19


class SchemeError(RuntimeError):
    """Non-finite value produced by a time step; usually a CFL violation."""


def _as_field(value, shape) -> np.ndarray:
    """An evaluated expression as a float array of the given shape (filled
    when constant: cheaper than a broadcast view)."""
    value = np.asarray(value, dtype=float)
    return np.full(shape, value) if value.ndim == 0 else np.broadcast_to(value, shape)


@dataclass(frozen=True)
class CoefficientSet:
    """Forward coefficients b, h, sigma (in t,x) and terminal Phi (in x),
    evaluated only by floats, coeff and eval_phi.  lip_const and growth_q are
    declared metadata for the Lipschitz and polynomial-growth bounds;
    check_lipschitz samples them."""

    b: Expr
    h: Expr
    sigma: Expr
    Phi: Expr
    lip_const: float = 1.0
    growth_q: int = 2

    def __post_init__(self):
        for name, e in (("b", self.b), ("h", self.h), ("sigma", self.sigma)):
            extra = free_vars(e) - {"t", "x"}
            if extra:
                raise ValueError(
                    f"coefficient {name} references {sorted(extra)}; only t,x allowed"
                )
        extra = free_vars(self.Phi) - {"x"}
        if extra:
            raise ValueError(f"Phi references {sorted(extra)}; only x allowed")

    @staticmethod
    def from_text(b, h, sigma, Phi, lip_const=1.0, growth_q=2):
        return CoefficientSet(
            parse(b), parse(h), parse(sigma), parse(Phi), lip_const, growth_q
        )

    @cached_property
    def floats(self) -> dict:
        """Each of b, h and sigma that is free of t and x, as its float."""
        return {name: float(evaluate(e, {})) for name in ("b", "h", "sigma")
                if not free_vars(e := getattr(self, name))}

    def coeff(self, name, t, x):
        """Coefficient name at time t on the points x: its float, or an
        array of x's shape."""
        value = self.floats.get(name)
        if value is not None:
            return value
        return _as_field(evaluate(getattr(self, name), {"t": t, "x": x}), np.shape(x))

    def fields(self, t, x):
        """(b, h, sigma) at time t on the points x, as float arrays of x's
        shape, whether or not the expression reads x."""
        return tuple(_as_field(self.coeff(name, t, x), np.shape(x))
                     for name in ("b", "h", "sigma"))

    def eval_phi(self, x):
        """Phi on the points x, as a float array of x's shape."""
        return _as_field(evaluate(self.Phi, {"x": x}), np.shape(x))

    @cached_property
    def time_free(self) -> bool:
        """True when none of b, h, sigma depends on t."""
        return not any("t" in free_vars(e) for e in (self.b, self.h, self.sigma))

    def check_lipschitz(self, rng, n_samples=256, span=8.0, horizon=1.0):
        """Sampled consistency check of lip_const / growth_q declarations."""
        t = rng.uniform(0.0, horizon, n_samples)
        x1 = rng.uniform(-span, span, n_samples)
        x2 = rng.uniform(-span, span, n_samples)
        ok = all(
            bool(np.all(np.abs(c1 - c2) <= self.lip_const * np.abs(x1 - x2) + 1e-9))
            for c1, c2 in zip(self.fields(t, x1), self.fields(t, x2))
        )
        dphi = np.abs(self.eval_phi(x1) - self.eval_phi(x2))
        q = self.growth_q
        bound = (
            self.lip_const
            * (1.0 + np.abs(x1) ** q + np.abs(x2) ** q)
            * np.abs(x1 - x2)
        )
        return ok and bool(np.all(dphi <= bound + 1e-9))


@dataclass(frozen=True)
class PdeProblem:
    """Terminal-value problem data: coefficients, generators f and g,
    the variance-uncertainty interval, horizon, and the z-Lipschitz bound
    the scheme assumes for a generator whose lip_z is unknown (lam_z)."""

    coeffs: CoefficientSet
    f: object  # ScalarGenerator or EnvelopeGenerator
    g: object
    gparams: GParams
    T: float
    lip_z_bound: float = 0.0

    def __post_init__(self):
        if not (self.T > 0.0):
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if not self.lip_z_bound >= 0.0:
            raise ValueError("lip_z_bound must be nonnegative")

    def lam_z(self, gen) -> float:
        """z-Lipschitz constant the scheme assumes for a generator: the
        generator's own lip_z, else the declared lip_z_bound."""
        if gen.lip_z is not None:
            return gen.lip_z
        if self.lip_z_bound <= 0.0:
            raise ValueError(
                "lip_z_bound must be positive when a generator is not "
                "Lipschitz in z by construction"
            )
        return float(self.lip_z_bound)

    def fingerprint(self) -> tuple:
        """Hashable structural key of the problem."""
        c = self.coeffs
        gens = tuple((g.gen.body, g.side, g.n) if isinstance(g, EnvelopeGenerator)
                     else (g.body,) for g in (self.f, self.g))
        return (c.b, c.h, c.sigma, c.Phi, self.gparams, self.T, self.lip_z_bound, gens)


@dataclass(frozen=True)
class SpaceTimeGrid:
    x_min: float
    x_max: float
    nx: int
    dt: float
    nt: int
    core_fraction: float = 0.5

    def __post_init__(self):
        if self.nx < 3:
            raise ValueError(f"nx must be at least 3, got {self.nx}")
        if not (self.x_min < self.x_max):
            raise ValueError("x_min must be below x_max")
        if not (0.0 < self.core_fraction <= 1.0):
            raise ValueError("core_fraction must lie in (0, 1]")
        if self.dt <= 0 or self.nt < 1:
            raise ValueError("need dt > 0 and nt >= 1")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        """The nodes; computed once per grid and read-only."""
        xs = np.linspace(self.x_min, self.x_max, self.nx)
        xs.flags.writeable = False
        return xs

    def core_mask(self) -> np.ndarray:
        """Boolean mask of the central core_fraction of the x-interval."""
        half = 0.5 * self.core_fraction * (self.x_max - self.x_min)
        center = 0.5 * (self.x_min + self.x_max)
        xs = self.xs
        return (xs >= center - half - 1e-12) & (xs <= center + half + 1e-12)


def _is_zero(gen) -> bool:
    """True when gen is 0 wherever it is evaluated: a plain generator whose
    body is free of every variable and evaluates to 0.  An EnvelopeGenerator
    never is: envelope_of passes such a generator through."""
    return (not isinstance(gen, EnvelopeGenerator) and not free_vars(gen.body)
            and evaluate(gen.body, {}) == 0.0)


def _step_fields(problems, t, grid: SpaceTimeGrid):
    """(b, b >= 0, 2*h, sigma, sigma**2, g_live, theta) at t, the fields one
    step of P problems that share coeffs and gparams reads: b, h and sigma
    are evaluated once, on the nodes; g_live is False on a row whose g is
    a constant 0 (_is_zero); theta is the (P, nx) Lax-Friedrichs
    dissipation, one row per problem, since each row has its own
    z-Lipschitz constants.  b (with b >= 0), 2*h and theta are None when
    they are 0 on every node and row, and step_backward then drops them.

    Dropping a term that is 0 keeps every bit of the output: it is 0 times
    a finite difference quotient, a signed zero, so it can change only the
    sign of a zero sum.  G maps both zeros of its argument to +0.0, and
    +0.0 or a nonzero value plus a signed zero is itself.

    With D = sigma^2/dx - |h| - sigma*Lam_g, every subgradient of the
    update is nonnegative in each neighbor value (the scheme is monotone)
    provided theta >= sigma*Lam_f - sigma_low_sq*D (D >= 0) or
    theta >= sigma*Lam_f + 2*sigma_high_sq*(-D) (D < 0).  theta is zero at
    a node exactly where diffusion dominates: D >= 0 and
    sigma*Lam_f <= sigma_low_sq*D.
    """
    b, h, sigma = problems[0].coeffs.fields(t, grid.xs)
    gp, sig = problems[0].gparams, np.abs(sigma)
    # each row's Lam_f and Lam_g, as (P, 1) columns
    lam_f, lam_g = np.array([[p.lam_z(p.f), p.lam_z(p.g)] for p in problems]).T[..., None]
    d = sig**2 / grid.dx - np.abs(h) - sig * lam_g
    theta = np.where(d >= 0.0, np.maximum(0.0, sig * lam_f - gp.sigma_low_sq * d),
                     sig * lam_f + 2.0 * gp.sigma_high_sq * (-d))
    b, h2, theta = (a if a.any() else None for a in (b, 2.0 * h, theta))
    g_live = tuple(not _is_zero(p.g) for p in problems)
    return b, None if b is None else b >= 0.0, h2, sigma, sigma**2, g_live, theta


def max_stable_dt(problems, grid: SpaceTimeGrid) -> float:
    """Largest dt satisfying, for every problem of a stack, the recorded
    monotonicity bound
      dt * [ shs*sig_max^2/dx^2
             + (|b|_max + shs*(|2h|_max + theta_max*sig_max) + theta_max)/dx
             + lip_y(f) + shs*lip_y(g) ] <= 0.9
    with shs = sigma_high_sq and the maxima those of _step_fields of the
    stack (theta's over the problem's row) at samples of [0, T].  Besides
    each row's f and g it reads only the first problem's b, h, sigma,
    gparams and T, so the problems may differ in Phi (gbsde.compare).
    """
    first, dx = problems[0], grid.dx
    # every time sample is the same when the coefficients are free of t
    ts = np.linspace(0.0, first.T, 1 if first.coeffs.time_free else _T_SAMPLES)
    top = np.zeros(3)  # max |b|, |2h| and |sigma| so far
    th_max = np.zeros(len(problems))
    for t in ts:
        b, _, h2, s, _, _, theta = _step_fields(problems, t, grid)
        at_t = [0.0 if a is None else np.max(np.abs(a)) for a in (b, h2, s)]
        if not np.isfinite(at_t).all():
            raise ValueError(f"non-finite coefficient sample at t={t}")
        np.maximum(top, at_t, out=top)
        if theta is not None:
            np.maximum(th_max, theta.max(axis=1), out=th_max)
    b_max, h2_max, s_max = top.tolist()
    shs = first.gparams.sigma_high_sq
    denoms = [shs * s_max**2 / dx**2 + (b_max + shs * (h2_max + th * s_max) + th) / dx
              + p.f.lip_y + shs * p.g.lip_y for p, th in zip(problems, th_max.tolist())]
    if min(denoms) <= 0.0:
        raise ValueError("degenerate problem: all coefficients vanish")
    # the least of 0.9/denom, as division rounds monotonically
    return _CFL_SAFETY / max(denoms)


def spans(n, dt, T) -> bool:
    """True when n steps of dt make up the horizon T, within rounding."""
    return abs(n * dt - T) <= 1e-9 * max(1.0, T)


def refine_grid(grid: SpaceTimeGrid, *problems) -> SpaceTimeGrid:
    """grid itself when its nt steps span the horizon T of the first problem
    and its dt is at most max_stable_dt of the problems; otherwise the
    fewest steps over T on its nodes that are.  A high envelope level's
    lip_z raises theta, which can lower that dt below the base problem's."""
    dt = max_stable_dt(problems, grid)
    T = problems[0].T
    if grid.dt <= dt * (1.0 + 1e-12) and spans(grid.nt, grid.dt, T):
        return grid
    nt = int(np.ceil(T / dt))
    return SpaceTimeGrid(grid.x_min, grid.x_max, grid.nx, T / nt, nt, grid.core_fraction)


def build_grid(
    problem: PdeProblem, x_min, x_max, nx, core_fraction: float = 0.5
) -> SpaceTimeGrid:
    """Choose dt so the explicit update is monotone: refine_grid of the
    one-step grid on these nodes."""
    one_step = SpaceTimeGrid(
        float(x_min), float(x_max), int(nx), float(problem.T), 1, core_fraction
    )
    return refine_grid(one_step, problem)


def _hamiltonian(s2, h2, p, d2, gval):
    """G's argument sigma^2 u_xx + 2 h u_x + 2 g, from s2 = sigma^2,
    h2 = 2 h, p and d2 standing for u_x and u_xx, and gval the value of g
    at (t, x, u, sigma u_x); h2 or gval None drops its term (see
    _step_fields)."""
    ham = s2 * d2
    if h2 is not None:
        ham = ham + h2 * p
    if gval is not None:
        ham = ham + 2.0 * gval
    return ham


def _non_finite(a, grid: SpaceTimeGrid) -> str:
    """Where the first non-finite entry of a (P, nx) array sits."""
    r, j = divmod(int(np.argmin(np.isfinite(a))), grid.nx)
    where = f"node {j} (x={grid.xs[j]:g}"
    return where if len(a) == 1 else f"row {r}, {where}"


def step_backward(u, t, problems, grid: SpaceTimeGrid, fields=None):
    """One explicit Euler step from the layers at t+dt down to t.

    u and the result are (P, nx) stacks of layers, row r stepped under
    problems[r].  Coefficients and generators are evaluated at the layer
    being produced; f and g row by row, since each row has its own
    envelope, each handed its row's max|z|, taken once for the stack, so
    that a lattice envelope skips its own reduction.  fields, when given,
    is _step_fields of the problems, standing in for the coefficients at t
    (solve_stack passes it when they are free of t).  The terms it marks
    0, and g where g_live is False, are not computed; the rest keeps its
    order of operations, so the output is that of every term, bit for bit
    (_step_fields).

    Interior nodes use central differences, with the drift upwinded, and
    the update is monotone there (_step_fields); where theta is 0 on every
    node the scheme is second order in space without drift and first order
    with it (test_11's manufactured solution measures about 2 and
    1.04-1.07).  The two boundary nodes use zero second difference and
    one-sided first differences; they are sacrificial and excluded from
    every certified region.

    Only the output is checked for non-finite values: it is non-finite
    wherever the input is, so the input is searched only on that failure
    path, to name a non-finite input node as such.  An envelope at a
    non-finite z raises first (envelope._finite).
    """
    xs = grid.xs
    dx = grid.dx
    if fields is None:
        fields = _step_fields(problems, t, grid)
    b, b_up, h2, sigma, s2, g_live, theta = fields

    lap = np.zeros_like(u)
    lap[:, 1:-1] = u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]
    d2 = lap / dx**2
    # one-sided differences padded by their end values: node j's forward
    # difference is column j+1, its backward one column j
    du = np.empty((len(u), grid.nx + 1))
    du[:, 1:-1] = (u[:, 1:] - u[:, :-1]) / dx
    du[:, 0] = du[:, 1]
    du[:, -1] = du[:, -2]
    p_c = np.empty_like(u)
    p_c[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * dx)
    p_c[:, 0] = du[:, 1]
    p_c[:, -1] = du[:, -2]

    z = sigma * p_c
    zabs = np.abs(z).max(axis=1).tolist()
    fval = np.empty_like(u)
    gval = np.zeros_like(u) if any(g_live) else None
    for r, prob in enumerate(problems):
        fval[r] = prob.f.eval_grid(t, xs, u[r], z[r], zabs[r])
        if g_live[r]:
            gval[r] = prob.g.eval_grid(t, xs, u[r], z[r], zabs[r])
    if theta is not None:
        fval += theta * (lap / (2.0 * dx))
    upd = g_value(problems[0].gparams, _hamiltonian(s2, h2, p_c, d2, gval))
    if b is not None:
        upd += b * np.where(b_up, du[:, 1:], du[:, :-1])
    upd += fval
    out = u + grid.dt * upd
    if not np.isfinite(out).all():
        if not np.isfinite(u).all():
            raise SchemeError(f"non-finite input at {_non_finite(u, grid)})")
        raise SchemeError(
            f"non-finite update at {_non_finite(out, grid)}, t={t:g}); "
            "the time step likely violates the monotonicity bound"
        )
    return out


@dataclass(frozen=True)
class PdeSolution:
    """Backward solve output: the time layers solve_stack keeps, times
    ascending from 0 to T; the layer at T equals Phi on the nodes exactly."""

    grid: SpaceTimeGrid
    times: np.ndarray
    values: np.ndarray  # len(times) x nx


def solve_stack(problems, grid: SpaceTimeGrid) -> tuple:
    """Backward sweeps from Phi over [0, T] for P problems at once, one
    PdeSolution per problem, in order.

    The problems must share coeffs, gparams and T, so that one Phi, one
    set of coefficient fields and one G serve every row; they advance as
    one (P, nx) stack through step_backward on refine_grid(grid,
    *problems), the grid every solution carries.  Each solution stores at
    most ~2000 layers (stride-decimated, endpoints always kept) in its own
    preallocated array; its values and times are then read-only, as
    grid.xs is, so a solution that callers share (equal problems, as
    gbsde.envelope_problem makes them) cannot change through one of them.

    A row reads only its own layer, f, g and max|z|, and makes no BLAS
    call, so the rows step in blocks (_split), one per _SPLIT_WORK
    weighted node-steps: a row's node-step weighs 1 plus the point_cost
    of each of its envelopes (a direct node-step costs 300-750 lattice
    ones).  Rows that share an EnvelopeGenerator, whose lattice grows
    with every |z| it meets, step in one block, and each run resets its
    rows' envelopes, so a serial rerun starts from unbuilt lattices.
    """
    problems = tuple(problems)
    first = problems[0]
    for name in ("coeffs", "gparams", "T"):
        if any(getattr(p, name) != getattr(first, name) for p in problems[1:]):
            raise ValueError(f"stacked problems must share {name}")
    grid = refine_grid(grid, *problems)
    envs = [[g for g in (p.f, p.g) if isinstance(g, EnvelopeGenerator)] for p in problems]
    flat = sum(envs, [])
    most = 1 if len({id(e) for e in flat}) < len(flat) else (
        (len(problems) + sum(e.point_cost for e in flat)) * grid.nx * grid.nt // _SPLIT_WORK)
    xs = grid.xs
    phi = first.coeffs.eval_phi(xs)
    if not np.all(np.isfinite(phi)):
        bad = int(np.argmin(np.isfinite(phi)))
        raise SchemeError(f"non-finite terminal value at node {bad} (x={xs[bad]:g})")
    stride = max(1, int(np.ceil((grid.nt + 1) / _MAX_STORED_LAYERS)))
    # the kept steps: every stride-th one below nt, then nt itself
    kept_idx = list(range(0, grid.nt, stride)) + [grid.nt]
    # one array per problem: P blocks of one solve's size reuse freed
    # heap memory where one (P, n_kept, nx) block would be mapped afresh
    kept = [np.empty((len(kept_idx), grid.nx)) for _ in problems]
    for values in kept:
        values[-1] = phi

    def run(rows, fh):  # step rows from phi down to 0, then write them to fh
        part, out = problems[rows], kept[rows]
        for env in sum(envs[rows], []):
            env.reset()
        fields = _step_fields(part, 0.0, grid) if first.coeffs.time_free else None
        u = np.repeat(phi[None, :], len(part), axis=0)
        for k in range(grid.nt - 1, -1, -1):
            u = step_backward(u, k * grid.dt, part, grid, fields)
            if k % stride == 0:
                for values, row in zip(out, u):
                    values[k // stride] = row
        for values in out if fh else ():
            fh.write(values)

    _split(len(problems), most, run,
           lambda rows, fh: [fh.readinto(v) for v in kept[rows]], "solve_stack")
    times = np.asarray(kept_idx, dtype=float) * grid.dt
    for a in (times, *kept):
        a.flags.writeable = False
    return tuple(PdeSolution(grid, times, values) for values in kept)


def solve(problem: PdeProblem, grid: SpaceTimeGrid) -> PdeSolution:
    """Backward sweep of one problem: solve_stack of a stack of one."""
    return solve_stack((problem,), grid)[0]


_HULL_TOL = 1e-9


def _blend_layer(sol: PdeSolution, t) -> np.ndarray:
    """Nodal values at time t, linearly interpolated between stored layers."""
    t_end = sol.times[-1]
    if not (-_HULL_TOL <= t <= t_end + _HULL_TOL):
        raise ValueError(f"t={t} outside [0, {t_end}]")
    t = min(max(t, 0.0), t_end)
    j = int(np.searchsorted(sol.times, t, side="right")) - 1
    j = min(max(j, 0), len(sol.times) - 2)
    t0, t1 = sol.times[j], sol.times[j + 1]
    w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    return (1.0 - w) * sol.values[j] + w * sol.values[j + 1]


def _slopes(grid: SpaceTimeGrid, layer) -> np.ndarray:
    """np.interp's per-cell slopes of a layer, with a zero slope appended
    at the last node."""
    xs = grid.xs
    slope = np.zeros_like(layer)
    np.divide(layer[1:] - layer[:-1], xs[1:] - xs[:-1], out=slope[:-1])
    return slope


def _interp_cell(grid: SpaceTimeGrid, layer, x, slope):
    """np.interp(x, grid.xs, layer), bit for bit, without a binary search.

    x is clamped to the hull and slope is _slopes(grid, layer), so both
    endpoints come out as np.interp gives them; NaN gives NaN.  The cell j,
    xs[j] <= x < xs[j + 1] (nx - 1 at x_max), starts at (x - x_min)/dx,
    which for a clamped x is within one of j, and moves a node where
    rounding put x on the wrong side of one.  x may have any shape, so
    several reads of one layer go as one call on their stack.
    """
    xs = grid.xs
    x = np.minimum(np.maximum(x, grid.x_min), grid.x_max)
    # fmin sends NaN to a valid cell; the value still comes out NaN
    j = np.fmin((x - grid.x_min) / grid.dx, grid.nx - 2).astype(np.intp)
    j -= xs[j] > x
    j += xs[j + 1] <= x
    d = x - xs[j]
    y = layer[j]
    out = slope[j] * d
    out += y
    # on a node np.interp returns layer[j] itself, which keeps a -0.0
    on_node = d == 0.0
    return np.where(on_node, y, out) if on_node.any() else out


def _check_range(x, lo, hi, what):
    """Raise unless every x lies in [lo, hi] up to _HULL_TOL; NaN passes."""
    out = (x < lo - _HULL_TOL) | (x > hi + _HULL_TOL)
    if np.any(out):
        raise ValueError(f"x={float(x.flat[np.argmax(out)])} {what}")


def eval_u_batch(sol: PdeSolution, t, x) -> np.ndarray:
    """Vectorized eval_u at one time over an array of x positions."""
    x = np.asarray(x, dtype=float)
    grid = sol.grid
    _check_range(x, grid.x_min, grid.x_max, f"outside [{grid.x_min}, {grid.x_max}]")
    layer = _blend_layer(sol, t)
    return _interp_cell(grid, layer, x, _slopes(grid, layer))


def stencil_batch(sol: PdeSolution, t, x):
    """u, the central gradient and the second difference (stencil dx) at x,
    all read off one blended layer.  Every x must lie at least one cell
    inside the grid (up to rounding); otherwise this raises."""
    x = np.asarray(x, dtype=float)
    grid = sol.grid
    _check_range(x, grid.x_min + grid.dx, grid.x_max - grid.dx,
                 "too close to the boundary for a central stencil; pad the domain")
    return _stencil(grid, _blend_layer(sol, t), x)


def _stencil(grid: SpaceTimeGrid, layer, x):
    """stencil_batch without its range check or its time blend, for a float
    x already in range and the layer _blend_layer gave: one _interp_cell
    read of the (3, ...) stack of x, x + dx and x - dx."""
    dx = grid.dx
    pts = np.empty((3, *np.shape(x)))
    pts[0] = x
    np.add(x, dx, out=pts[1, ...])
    np.subtract(x, dx, out=pts[2, ...])
    mid, up, down = _interp_cell(grid, layer, pts, _slopes(grid, layer))
    return mid, (up - down) / (2.0 * dx), (up - 2.0 * mid + down) / dx**2


def grad_x_batch(sol: PdeSolution, t, x) -> np.ndarray:
    """Vectorized central-difference gradient with stencil dx."""
    return stencil_batch(sol, t, x)[1]


def second_diff_batch(sol: PdeSolution, t, x) -> np.ndarray:
    """Vectorized second difference with stencil dx."""
    return stencil_batch(sol, t, x)[2]


def eval_u(sol: PdeSolution, t, x) -> float:
    """Bilinear interpolation of the stored layers at (t, x)."""
    return float(eval_u_batch(sol, t, x))


SCHEMA = "# g-bsde-lab schema v1\n"  # first line of every CSV the package writes


def _write_rows(fh, line, sol: PdeSolution, rows: slice) -> None:
    for t, row in zip(sol.times[rows].tolist(), sol.values[rows]):  # floats a row at a time
        fh.write(line % (t, *row.tolist()))


def _split(count, most, run, read, what) -> None:
    """run(rows, fh) on each of up to min(most, count) contiguous parts of
    range(count), one per usable CPU (one without os.fork or
    os.sched_getaffinity), then read(rows, fh) on each later part's file,
    rewound, in order; it has three callers: solve_stack's rows,
    gsim.terminal_states' paths and solution_to_csv's layers.  Part 0
    runs here (fh None), the others in forked children writing binary
    unnamed temporary files, or here where a fork fails; every child is
    reaped in a finally.  A fork copies only this thread, so run makes no
    BLAS call; where no part reads what another writes, the output is the
    serial run's, bit for bit.  A failed part runs the whole job again
    here, serially, and raises its error, else OSError naming the part; a
    killed child raises ChildProcessError and starts no rerun."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n = max(1, min(len(os.sched_getaffinity(0)) if forks else 1, most, count))
    parts = [slice(count * k // n, count * (k + 1) // n) for k in range(n)]
    try:
        with ExitStack() as stack:
            files = [stack.enter_context(tempfile.TemporaryFile()) for _ in parts[1:]]
            pids = []
            try:
                for rows, fh in zip(parts[1:], files):
                    try:
                        pids.append(os.fork())
                    except OSError:  # no process or memory to spare: the rest run here
                        break
                    if pids[-1] == 0:  # the child runs its part and never returns
                        try:
                            run(rows, fh)
                            fh.flush()
                            os._exit(0)
                        finally:
                            os._exit(1)
                for rows, fh in [(parts[0], None), *zip(parts[1 + len(pids):],
                                                        files[len(pids):])]:
                    run(rows, fh)
            finally:
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
            for k, code in enumerate(codes, 1):
                if code:  # 1 where run raised, -signal where the child was killed
                    raise (OSError if code > 0 else ChildProcessError)(
                        f"{what}: part {k} of {n} failed (exit status {code})")
            for rows, fh in zip(parts[1:], files):
                fh.seek(0)
                read(rows, fh)
    except Exception as exc:  # a killed child is no part's failure
        if n > 1 and not isinstance(exc, ChildProcessError):
            run(slice(0, count), None)
        raise


def solution_to_csv(sol: PdeSolution, path) -> None:
    """CSV export: schema line, x-node header, one %.17g row template per
    layer, as ASCII bytes.  n * 2^18 values (0.12 s of formatting per 2^18)
    take up to n parts of the rows (_split)."""
    cells = b",".join([b"%.17g"] * sol.grid.nx) + b"\n"
    line = b"%.17g," + cells
    with open(path, "wb") as fh:  # a bad path raises before any fork
        fh.write(SCHEMA.encode() + b"t," + cells % tuple(sol.grid.xs.tolist()))
        head = fh.tell()

        def run(rows, part):  # part 0, and so the serial rerun, writes from the header's end
            if part is None:
                fh.truncate(fh.seek(head))
            _write_rows(part or fh, line, sol, rows)

        _split(len(sol.times), sol.values.size >> 18, run,
               lambda rows, part: shutil.copyfileobj(part, fh), f"{path}: formatting the rows")
