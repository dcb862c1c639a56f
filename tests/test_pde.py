import dataclasses
import errno
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import path_oracles as oracles
from gbsdelab import pde as pde_module
from gbsdelab.envelope import EnvelopeGenerator, Modulus, ScalarGenerator, envelope_of
from gbsdelab.gfunction import GParams, g_value
from gbsdelab.pde import (
    CoefficientSet,
    PdeProblem,
    SchemeError,
    SpaceTimeGrid,
    build_grid,
    eval_u,
    eval_u_batch,
    grad_x_batch,
    max_stable_dt,
    refine_grid,
    solution_to_csv,
    solve,
    solve_stack,
    step_backward,
)

GP = GParams(0.5, 1.0)
ZERO = ScalarGenerator.from_text("0", 0.0, Modulus("linear", c=1.0, growth_L=1.0))


def heat_problem(phi="x*x", sigma="1", b="0", h="0", T=1.0, f=ZERO, g=ZERO,
                 lip_z=0.0, growth_q=2):
    coeffs = CoefficientSet.from_text(b, h, sigma, phi, growth_q=growth_q)
    return PdeProblem(coeffs, f, g, GP, T, lip_z)


class TestCoefficientSet:
    def test_rejects_state_vars_in_coefficients(self):
        with pytest.raises(ValueError):
            CoefficientSet.from_text("y", "0", "1", "x")

    def test_rejects_t_in_phi(self):
        with pytest.raises(ValueError):
            CoefficientSet.from_text("0", "0", "1", "t+x")

    @pytest.mark.parametrize("text", ["0", "1"])
    def test_fields_are_float_arrays_of_x_shape(self, text):
        coeffs = CoefficientSet.from_text(text, text, text, text)
        x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        for v in (*coeffs.fields(0.5, x), coeffs.eval_phi(x)):
            assert isinstance(v, np.ndarray)
            assert v.dtype == np.float64 and v.shape == x.shape
            assert np.all(v == float(text))

    def test_check_lipschitz(self):
        rng = np.random.default_rng(0)
        good = CoefficientSet.from_text("x", "0", "1", "x*x", lip_const=1.0)
        assert good.check_lipschitz(rng)
        liar = CoefficientSet.from_text("5*x", "0", "1", "x", lip_const=1.0)
        assert not liar.check_lipschitz(rng)


class TestBuildGrid:
    def test_diffusion_bound(self):
        prob = heat_problem()
        grid = build_grid(prob, -4.0, 4.0, 801)
        assert grid.dx == pytest.approx(0.01)
        assert grid.dt <= 0.9e-4 + 1e-12
        assert grid.nt * grid.dt == pytest.approx(prob.T)

    def test_pure_drift_bound(self):
        prob = heat_problem(phi="x", sigma="0", b="1")
        grid = build_grid(prob, -4.0, 4.0, 801)
        assert grid.dt <= 0.9 * 0.01 + 1e-12

    def test_nx_too_small(self):
        with pytest.raises(ValueError):
            build_grid(heat_problem(), -1.0, 1.0, 2)

    def test_degenerate_problem(self):
        # no diffusion, drift or y-dependence: no step size is bounded
        with pytest.raises(ValueError, match="degenerate problem"):
            max_stable_dt((heat_problem(sigma="0"),), SpaceTimeGrid(-1.0, 1.0, 11, 1.0, 1))

    def test_non_finite_coefficient(self):
        prob = heat_problem(sigma="1/x")
        with pytest.raises(ValueError):
            build_grid(prob, -1.0, 1.0, 11)  # hits x=0

    @pytest.mark.parametrize("name", ["b", "h", "sigma"])
    def test_overflowing_coefficient(self, name):
        # exp(x) is inf at x = 800 and raises nothing, where 1/x raises first
        prob = heat_problem(**{name: "exp(x)"})
        grid = SpaceTimeGrid(-800.0, 800.0, 11, 1.0, 1)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="non-finite coefficient sample at t=0.0"):
            max_stable_dt((prob,), grid)


class TestPdeProblem:
    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan])
    def test_horizon_must_be_positive(self, T):
        with pytest.raises(ValueError, match="horizon T must be positive"):
            heat_problem(T=T)

    def test_lip_z_bound_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="lip_z_bound must be nonnegative"):
            heat_problem(lip_z=-0.5)

    def test_nan_lip_z_bound_refused(self):
        with pytest.raises(ValueError, match="lip_z_bound must be nonnegative"):
            heat_problem(lip_z=np.nan)

    def test_lam_z_of_a_non_lipschitz_generator_needs_a_bound(self):
        assert ROUGH.lip_z is None
        assert heat_problem(f=ROUGH, lip_z=0.75).lam_z(ROUGH) == 0.75
        with pytest.raises(ValueError, match="lip_z_bound must be positive"):
            heat_problem(f=ROUGH).lam_z(ROUGH)


class TestRefineGrid:
    ARGS = (-4.0, 4.0, 201)

    def test_stable_grid_is_kept(self):
        prob = heat_problem()
        grid = build_grid(prob, *self.ARGS)
        assert refine_grid(grid, prob) is grid

    def test_fewest_stable_steps(self):
        # a high envelope level switches the dissipation on and shrinks dt;
        # the stack's bound is its least row's, bit for bit
        slow = heat_problem(sigma="2", b="0.5*x")
        fast = heat_problem(sigma="2", b="0.5*x", f=EnvelopeGenerator(ROUGH, 64.0, "lower"))
        grid = build_grid(slow, *self.ARGS, core_fraction=0.25)
        out = refine_grid(grid, slow, fast)
        dt = max_stable_dt((slow, fast), grid)
        assert dt == min(max_stable_dt((p,), grid) for p in (slow, fast))
        assert out.nt > grid.nt
        assert out.dt == slow.T / out.nt
        assert slow.T / out.nt <= dt * (1.0 + 1e-12) < slow.T / (out.nt - 1)
        kept = ("x_min", "x_max", "nx", "core_fraction")
        assert all(getattr(out, k) == getattr(grid, k) for k in kept)

    @pytest.mark.parametrize("factor, nt, kept", [
        (1.0 + 1e-13, 50, True),  # stable within the slack, spans T
        (1.0 - 1e-3, 50, True),
        (1.0 + 1e-10, 50, False),  # unstable
        (1.0 - 1e-3, 49, False),  # stable, but stops short of T
        (1.0 - 1e-3, 51, False),  # stable, but runs past T
    ])
    def test_solve_steps_what_refine_grid_gives(self, factor, nt, kept):
        # one rule: solve steps a stable grid that spans T as given and
        # any other grid as refine_grid gives it
        dt = max_stable_dt((heat_problem(),), SpaceTimeGrid(*self.ARGS, 1.0, 1)) * factor
        prob = heat_problem(T=50 * dt)
        grid = SpaceTimeGrid(*self.ARGS, dt, nt, 0.5)
        refined = refine_grid(grid, prob)
        assert (refined is grid) == kept
        sol = solve(prob, grid)
        if kept:
            assert sol.grid is grid
        else:
            assert sol.grid == refined and refined.nt * refined.dt == pytest.approx(prob.T)
            assert np.array_equal(sol.values, solve(prob, refined).values)

    @pytest.mark.parametrize("rel, kept", [(1e-10, True), (1e-8, False)])
    def test_span_slack(self, rel, kept):
        # a grid counts as spanning T within 1e-9 relative, the same rule
        # the path simulation applies to its dt
        prob = heat_problem()
        grid = build_grid(prob, *self.ARGS)
        off = SpaceTimeGrid(*self.ARGS, grid.dt * (1.0 - rel), grid.nt, 0.5)
        assert (refine_grid(off, prob) is off) == kept

    @pytest.mark.parametrize("kw", [{}, {"sigma": "0", "b": "1"}, {"T": 1e-6}])
    def test_build_grid_refines_one_step(self, kw):
        prob = heat_problem(**kw)
        one_step = SpaceTimeGrid(*self.ARGS, prob.T, 1, 0.25)
        assert build_grid(prob, *self.ARGS, 0.25) == refine_grid(one_step, prob)


class TestSpaceTimeGrid:
    def test_core_mask_central_half(self):
        grid = SpaceTimeGrid(-4.0, 4.0, 801, 1e-4, 10000, core_fraction=0.5)
        xs = grid.xs[grid.core_mask()]
        assert xs[0] == pytest.approx(-2.0) and xs[-1] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(-1.0, 1.0, 11, 1e-4, 100, core_fraction=1.5)
        with pytest.raises(ValueError):
            SpaceTimeGrid(1.0, -1.0, 11, 1e-4, 100)

    @pytest.mark.parametrize("dt, nt", [(0.0, 10), (-1e-4, 10), (1e-4, 0)])
    def test_needs_positive_dt_and_a_step(self, dt, nt):
        with pytest.raises(ValueError, match="need dt > 0 and nt >= 1"):
            SpaceTimeGrid(-1.0, 1.0, 11, dt, nt)

    def test_xs_cached_read_only(self):
        grid = SpaceTimeGrid(-4.0, 4.0, 801, 1e-4, 10000)
        xs = grid.xs
        assert grid.xs is xs
        assert np.array_equal(xs, np.linspace(-4.0, 4.0, 801))
        assert not xs.flags.writeable
        with pytest.raises(ValueError):
            xs[0] = 0.0


class TestStepBackward:
    def setup_method(self):
        self.prob = heat_problem()
        self.grid = build_grid(self.prob, -4.0, 4.0, 401)

    def test_linear_fixed_point(self):
        u = 3.0 * self.grid.xs + 1.0
        out = step_backward(u[None], 0.5, [self.prob], self.grid)[0]
        assert np.allclose(out, u, atol=1e-12)

    def test_convex_quadratic_gains_high_variance(self):
        u = self.grid.xs**2
        out = step_backward(u[None], 0.5, [self.prob], self.grid)[0]
        interior = slice(1, -1)
        assert np.allclose(
            out[interior], u[interior] + self.grid.dt * GP.sigma_high_sq, atol=1e-12
        )

    def test_concave_quadratic_loses_low_variance(self):
        u = -self.grid.xs**2
        out = step_backward(u[None], 0.5, [self.prob], self.grid)[0]
        interior = slice(1, -1)
        assert np.allclose(
            out[interior], u[interior] - self.grid.dt * GP.sigma_low_sq, atol=1e-12
        )

    def test_non_finite_input_named(self):
        u = self.grid.xs**2
        u[7] = np.nan
        with pytest.raises(SchemeError, match="node 7"):
            step_backward(u[None], 0.5, [self.prob], self.grid)

    def test_non_finite_update_named(self):
        # a finite layer whose second difference overflows, first at node 6
        u = np.zeros(self.grid.nx)
        u[7], u[8] = 1e308, -1e308
        with np.errstate(over="ignore"), pytest.raises(
                SchemeError, match="non-finite update at node 6"):
            step_backward(u[None], 0.5, [self.prob], self.grid)

    def test_monotone_in_every_node(self):
        # every interior output is nondecreasing in each input node, also
        # with drift, quadratic-variation coupling, and z-dependent
        # generators; the two boundary nodes are sacrificial (one-sided
        # differences) and excluded from all certified regions
        f = ScalarGenerator.from_text(
            "-0.5*abs(z)+0.2*y", 0.2, Modulus("linear", c=0.5, growth_L=0.5)
        )
        g = ScalarGenerator.from_text(
            "0.3*abs(z)", 0.0, Modulus("linear", c=0.3, growth_L=0.3)
        )
        prob = heat_problem(b="0.5*x", h="0.2", f=f, g=g, lip_z=0.5)
        grid = build_grid(prob, -2.0, 2.0, 41)
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, grid.nx)
        base = step_backward(u[None], 0.3, [prob], grid)[0]
        eps = 1e-6
        for j in range(grid.nx):
            up = u.copy()
            up[j] += eps
            out = step_backward(up[None], 0.3, [prob], grid)[0]
            assert np.min(out[1:-1] - base[1:-1]) >= -1e-15

    def test_scheme_level_comparison(self):
        rng = np.random.default_rng(6)
        u = rng.uniform(-1, 1, self.grid.nx)
        v = u - rng.uniform(0, 1, self.grid.nx)
        out_u = step_backward(u[None], 0.2, [self.prob], self.grid)[0]
        out_v = step_backward(v[None], 0.2, [self.prob], self.grid)[0]
        assert np.all(out_u[1:-1] >= out_v[1:-1] - 1e-15)


class TestSolve:
    def test_linear_terminal_is_stationary(self):
        prob = heat_problem(phi="x")
        grid = build_grid(prob, -2.0, 2.0, 101)
        sol = solve(prob, grid)
        assert np.max(np.abs(sol.values[0] - grid.xs)) < 1e-10

    def test_convex_heat_value(self):
        prob = heat_problem()
        grid = build_grid(prob, -6.0, 6.0, 601)
        sol = solve(prob, grid)
        assert eval_u(sol, 0.0, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_concave_heat_value(self):
        prob = heat_problem(phi="-x*x")
        grid = build_grid(prob, -6.0, 6.0, 601)
        sol = solve(prob, grid)
        assert eval_u(sol, 0.0, 0.0) == pytest.approx(-0.5, abs=1e-6)

    def test_terminal_layer_exact(self):
        prob = heat_problem()
        grid = build_grid(prob, -2.0, 2.0, 51)
        sol = solve(prob, grid)
        assert np.array_equal(sol.values[-1], grid.xs**2)

    @pytest.mark.parametrize("T, grid_T", [(0.25, 1.0), (1.0, 0.25)])
    def test_grid_built_for_another_horizon(self, T, grid_T):
        # the solver steps the problem's own [0, T], whatever T the grid
        # was built for
        prob = heat_problem(T=T)
        grid = build_grid(heat_problem(T=grid_T), -6.0, 6.0, 301)
        for sol in (solve(prob, grid), solve_stack((prob, prob), grid)[1]):
            assert sol.grid == build_grid(prob, -6.0, 6.0, 301)
            assert sol.times[-1] == T
            assert eval_u(sol, 0.0, 0.0) == pytest.approx(GP.sigma_high_sq * T, abs=1e-6)

    def test_non_finite_terminal_value_named(self):
        prob = heat_problem(phi="exp(1000*x)")  # inf from x = 0.8 on
        grid = build_grid(prob, -1.0, 1.0, 11)
        with np.errstate(over="ignore"), pytest.raises(
                SchemeError, match=r"non-finite terminal value at node 9 \(x=0.8\)"):
            solve(prob, grid)

    def test_layer_decimation_bounds_memory(self):
        prob = heat_problem()
        grid = build_grid(prob, -4.0, 4.0, 401)  # several thousand steps
        sol = solve(prob, grid)
        assert len(sol.times) <= 2001
        assert sol.times[0] == 0.0 and sol.times[-1] == pytest.approx(prob.T)


class TestSolveFields:
    """solve steps t-free coefficient fields evaluated once; the layers it
    returns equal a plain loop of public step_backward calls."""

    F = ScalarGenerator.from_text(
        "-0.5*pow(abs(z),0.8)+0.2*y", 0.2,
        Modulus("power", c=0.5, alpha=0.8, growth_L=0.5),
    )

    def _plain_loop(self, prob, grid):
        u = np.asarray(prob.coeffs.eval_phi(grid.xs), dtype=float)
        layers = [u]
        for k in range(grid.nt - 1, -1, -1):
            u = step_backward(u[None], k * grid.dt, [prob], grid)[0]
            layers.append(u)
        return np.asarray(layers[::-1])

    @pytest.mark.parametrize("sigma, time_free", [
        ("1+0.2*x*x/(1+x*x)", True),
        ("1+0.5*t", False),
    ])
    def test_solve_equals_step_loop(self, sigma, time_free, monkeypatch):
        # lip_z large enough that the dissipation theta is on at every node
        prob = heat_problem(phi="x*x*x/3", sigma=sigma, b="0.3*x", h="0.1",
                            f=self.F, lip_z=8.0)
        assert prob.coeffs.time_free is time_free
        grid = build_grid(prob, -2.0, 2.0, 41)
        assert grid.nt + 1 <= 2001  # every layer is kept
        want = self._plain_loop(prob, grid)
        calls = []
        real = pde_module._step_fields

        def counting(problem, t, grid):
            calls.append(t)
            return real(problem, t, grid)

        monkeypatch.setattr(pde_module, "_step_fields", counting)
        sol = solve(prob, grid)
        assert np.array_equal(sol.values, want)
        # max_stable_dt reads the fields at its time samples too
        samples = 1 if time_free else pde_module._T_SAMPLES
        assert len(calls) == samples + (1 if time_free else grid.nt)


ROUGH = ScalarGenerator.from_text(
    "-0.5*pow(abs(z),0.8)", 0.0, Modulus("power", c=0.5, alpha=0.8, growth_L=0.5))
DIRECT = ScalarGenerator.from_text(
    "0.2*x+sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=1.0))
LINEAR = ScalarGenerator.from_text(
    "-0.5*abs(z)+0.2*y", 0.2, Modulus("linear", c=0.5, growth_L=0.5))


def _stack_problems(sigma="1+0.2*x*x/(1+x*x)"):
    """Fresh problems sharing coefficients and differing in f and g: a
    lattice, a passed-through (envelope_of) and a direct envelope, and a
    plain generator.
    At level 8 on dx=0.1 the dissipation theta is on at every node of the
    lattice and direct rows and off on the plain row."""
    coeffs = CoefficientSet.from_text("0.3*x", "0.1", sigma, "x*x*x/3")
    gens = [
        (EnvelopeGenerator(ROUGH, 8.0, "lower"), EnvelopeGenerator(ROUGH, 8.0, "upper")),
        (envelope_of(LINEAR, 8.0, "upper"), ZERO),
        (EnvelopeGenerator(DIRECT, 8.0, "lower"), EnvelopeGenerator(ROUGH, 8.0, "upper")),
        (LINEAR, LINEAR),
    ]
    return [PdeProblem(coeffs, f, g, GP, 0.05, 8.0) for f, g in gens]


class TestSolveStack:
    """A (P, nx) stack is P single problems side by side, bit for bit."""

    def _grid(self, problems):
        return refine_grid(build_grid(problems[0], -2.0, 2.0, 41), *problems)

    @pytest.mark.parametrize("sigma", ["1+0.2*x*x/(1+x*x)", "1+0.5*t"])
    def test_stack_equals_single_solves(self, sigma):
        problems = _stack_problems(sigma)
        grid = self._grid(problems)
        theta = pde_module._step_fields(problems, 0.0, grid)[-1]
        assert np.all(theta[[0, 2]] > 0.0) and np.all(theta[-1] == 0.0)
        got = solve_stack(problems, grid)
        for sol, fresh in zip(got, _stack_problems(sigma)):
            want = solve(fresh, grid)
            assert np.array_equal(sol.values, want.values)
            assert np.array_equal(sol.times, want.times)
            assert sol.grid == grid

    def test_stack_step_equals_single_steps(self):
        problems = _stack_problems()
        grid = self._grid(problems)
        u = np.random.default_rng(3).uniform(-1, 1, (len(problems), grid.nx))
        got = step_backward(u, 0.02, problems, grid)
        want = [step_backward(u[r][None], 0.02, [p], grid)[0]
                for r, p in enumerate(_stack_problems())]
        assert got.shape == u.shape
        assert np.array_equal(got, np.asarray(want))

    def test_solutions_are_read_only(self):
        # a solution that stands for two envelope problems cannot be
        # changed through one of them
        prob = heat_problem()
        for sol in solve_stack((prob, prob), build_grid(prob, -2.0, 2.0, 21)):
            for a in (sol.values, sol.times):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_row_named(self):
        prob = heat_problem()
        grid = build_grid(prob, -4.0, 4.0, 101)
        u = np.tile(grid.xs**2, (3, 1))
        u[2, 7] = np.inf
        with pytest.raises(SchemeError, match="input at row 2, node 7"):
            step_backward(u, 0.5, (prob, prob, prob), grid)

    @pytest.mark.parametrize("name, other", [
        ("coeffs", heat_problem(phi="x*x*x")),
        ("gparams", PdeProblem(heat_problem().coeffs, ZERO, ZERO, GParams(0.5, 2.0), 1.0, 0.0)),
        ("T", heat_problem(T=0.5)),
    ])
    def test_problems_must_share(self, name, other):
        prob = heat_problem()
        grid = build_grid(prob, -2.0, 2.0, 21)
        with pytest.raises(ValueError, match=f"share {name}"):
            solve_stack((prob, other), grid)


def _full_step(u, t, problems, grid):
    """Oracle: step_backward as it was before vanishing terms were dropped,
    every term evaluated on every row, with its own dissipation theta."""
    xs, dx = grid.xs, grid.dx
    b, h, sigma = problems[0].coeffs.fields(t, xs)
    gp, sig = problems[0].gparams, np.abs(sigma)
    theta = np.empty_like(u)
    for r, p in enumerate(problems):
        lam_f, lam_g = p.lam_z(p.f), p.lam_z(p.g)
        d = sig**2 / dx - np.abs(h) - sig * lam_g
        theta[r] = np.where(d >= 0.0, np.maximum(0.0, sig * lam_f - gp.sigma_low_sq * d),
                            sig * lam_f + 2.0 * gp.sigma_high_sq * (-d))
    lap = np.zeros_like(u)
    lap[:, 1:-1] = u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]
    d2 = lap / dx**2
    delta = lap / (2.0 * dx)
    du = np.empty((len(u), grid.nx + 1))
    du[:, 1:-1] = (u[:, 1:] - u[:, :-1]) / dx
    du[:, 0] = du[:, 1]
    du[:, -1] = du[:, -2]
    p_c = np.empty_like(u)
    p_c[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * dx)
    p_c[:, 0] = du[:, 1]
    p_c[:, -1] = du[:, -2]
    p_up = np.where(b >= 0.0, du[:, 1:], du[:, :-1])
    z = sigma * p_c
    fval = np.empty_like(u)
    gval = np.empty_like(u)
    for r, prob in enumerate(problems):
        fval[r] = prob.f.eval_grid(t, xs, u[r], z[r])
        gval[r] = prob.g.eval_grid(t, xs, u[r], z[r])
    fval += theta * delta
    ham = sigma**2 * d2 + 2.0 * h * p_c + 2.0 * gval
    return u + grid.dt * (g_value(problems[0].gparams, ham) + b * p_up + fval)


def _heat_stack():
    """b = h = g = 0 and theta = 0 on every row: lattice envelopes at a level
    diffusion dominates on dx = 0.1, a -0.0 f at z = 0, and the 0 problem."""
    half_abs = ScalarGenerator.from_text(
        "-0.5*abs(z)", 0.0, Modulus("linear", c=0.5, growth_L=0.5))
    coeffs = CoefficientSet.from_text("0", "0", "1", "x*x*x/3")
    gens = [EnvelopeGenerator(ROUGH, 4.0, "lower"), EnvelopeGenerator(ROUGH, 4.0, "upper"),
            half_abs, ZERO]
    g = envelope_of(ZERO, 4.0, "lower")
    return [PdeProblem(coeffs, f, g, GP, 0.05, 4.0) for f in gens]


def _time_sigma_stack():
    """sigma in t, b = h = g = 0; theta is on at level 8 and off at level 4."""
    coeffs = CoefficientSet.from_text("0", "0", "1+0.5*t", "x*x*x/3")
    gens = [EnvelopeGenerator(ROUGH, n, side) for n in (4.0, 8.0) for side in ("lower", "upper")]
    return [PdeProblem(coeffs, f, ZERO, GP, 0.05, 8.0) for f in gens]


class TestLeanStep:
    """step_backward drops the terms that vanish and keeps every bit of the
    step that evaluates them all."""

    STACKS = {"mixed": _stack_problems, "heat": _heat_stack, "time_sigma": _time_sigma_stack}

    def test_g_maps_both_zeros_to_plus_zero(self):
        # the dropped terms are signed zeros; this is why their sign is lost
        assert not np.signbit(g_value(GP, np.array([-0.0, 0.0]))).any()

    @pytest.mark.parametrize("name", STACKS)
    def test_equals_full_step_bit_for_bit(self, name):
        make = self.STACKS[name]
        problems = make()
        grid = refine_grid(build_grid(problems[0], -2.0, 2.0, 41), *problems)
        rng = np.random.default_rng(8)
        # a random layer, and one with exact zeros of both signs at x = 0
        layers = [rng.uniform(-1, 1, (len(problems), grid.nx)),
                  np.tile(-grid.xs**3 / 3.0, (len(problems), 1))]
        assert np.signbit(layers[1][:, 20]).all() and (layers[1][:, 20] == 0.0).all()
        for u in layers:
            # fresh problems for the oracle: lattices grow with the z they see
            lean, full, oracle = u, u, make()
            for k in range(5):
                t = (4 - k) * grid.dt
                lean = step_backward(lean, t, problems, grid)
                full = _full_step(full, t, oracle, grid)
                assert np.array_equal(lean.view(np.int64), full.view(np.int64))

    def test_fields_mark_the_vanishing_terms(self):
        grid = build_grid(_heat_stack()[0], -2.0, 2.0, 41)
        b, b_up, h2, _, _, g_live, theta = pde_module._step_fields(_heat_stack(), 0.0, grid)
        assert b is None and b_up is None and h2 is None and theta is None
        assert g_live == (False,) * 4
        b, b_up, h2, _, _, g_live, theta = pde_module._step_fields(
            _stack_problems(), 0.0, grid)
        assert b.any() and h2.any() and theta.any()
        assert g_live == (True, False, True, True)
        theta = pde_module._step_fields(_time_sigma_stack(), 0.0, grid)[-1]
        assert np.all(theta[:2] == 0.0) and np.all(theta[2:] > 0.0)


class TestRowRanges:
    """Each lattice row of a stack grows its own z range, as it would alone."""

    SLOPES = (10.0, 20.0, 40.0, 100.0)  # |z| past 0, 1, 2 and 3 doublings of 16

    def _problems(self):
        coeffs = CoefficientSet.from_text("0", "0", "1", "x*x")
        return [PdeProblem(coeffs, EnvelopeGenerator(ROUGH, 8.0, side), ZERO, GP, 0.05, 8.0)
                for side in ("lower", "upper", "lower", "upper")]

    def _setup(self):
        problems = self._problems()
        grid = refine_grid(build_grid(problems[0], -2.0, 2.0, 41), *problems)
        u = np.asarray([a * grid.xs for a in self.SLOPES])
        return problems, grid, u

    def test_rows_keep_their_solo_ranges_and_values(self):
        problems, grid, u = self._setup()
        got = step_backward(u, 0.02, problems, grid)
        for r, (prob, fresh) in enumerate(zip(problems, self._problems())):
            want = step_backward(u[r][None], 0.02, [fresh], grid)[0]
            assert prob.f._z_max == fresh.f._z_max
            assert np.array_equal(got[r].view(np.int64), want.view(np.int64))
        assert [p.f._z_max for p in problems] == [16.0, 32.0, 64.0, 128.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_z_in_one_row_leaves_every_lattice(self, bad):
        problems, grid, u = self._setup()
        step_backward(u, 0.02, problems, grid)
        before = [(p.f._lattice, p.f._z_max) for p in problems]
        u[2, 7] = bad
        with pytest.raises(ValueError, match="non-finite z"):
            step_backward(u, 0.02, problems, grid)
        for p, (lattice, z_max) in zip(problems, before):
            assert p.f._lattice is lattice and p.f._z_max == z_max


class TestEvalAndGrad:
    def setup_method(self):
        self.prob = heat_problem()
        self.grid = build_grid(self.prob, -6.0, 6.0, 601)
        self.sol = solve(self.prob, self.grid)

    def test_node_point_exact(self):
        k = 300  # x = 0
        assert eval_u(self.sol, self.prob.T, self.grid.xs[k]) == self.sol.values[-1][k]

    def test_linear_interpolation_exact_on_linears(self):
        prob = heat_problem(phi="3*x")
        grid = build_grid(prob, -2.0, 2.0, 51)
        sol = solve(prob, grid)
        x_mid = 0.5 * (grid.xs[10] + grid.xs[11])
        assert eval_u(sol, 0.0, x_mid) == pytest.approx(3 * x_mid, abs=1e-9)

    def test_between_layers_matches_closed_form(self):
        # u(t, x) = x^2 + sigma_high_sq (T - t)
        for t in (0.123, 0.5004, 0.987):
            got = eval_u(self.sol, t, 0.7)
            assert got == pytest.approx(0.49 + 1.0 * (1 - t), abs=1e-3)

    def test_out_of_hull(self):
        with pytest.raises(ValueError):
            eval_u(self.sol, 0.0, 100.0)
        with pytest.raises(ValueError):
            eval_u(self.sol, 2.0, 0.0)

    def test_grad_quadratic(self):
        grad = float(pde_module.stencil_batch(self.sol, self.prob.T, 1.0)[1])
        assert grad == pytest.approx(2.0, abs=1e-9)

    def test_grad_linear_exact(self):
        prob = heat_problem(phi="3*x")
        grid = build_grid(prob, -2.0, 2.0, 51)
        sol = solve(prob, grid)
        assert float(pde_module.stencil_batch(sol, 0.0, 0.3)[1]) == pytest.approx(3.0, abs=1e-12)

    def test_grad_near_boundary_rejected(self):
        with pytest.raises(ValueError):
            float(pde_module.stencil_batch(self.sol, 0.0, 6.0)[1])

    def test_stencil_needs_one_cell_margin(self):
        dx = self.grid.dx
        pde_module.stencil_batch(self.sol, 0.0, np.array([-6.0 + dx, 0.0, 6.0 - dx]))
        # on the boundary, half a cell in, and far outside: no clamping
        for x in (-6.0, 6.0 - 0.5 * dx, 100.0):
            with pytest.raises(ValueError, match="too close to the boundary"):
                pde_module.stencil_batch(self.sol, 0.0, np.array([0.0, x]))
            with pytest.raises(ValueError, match="too close to the boundary"):
                pde_module.second_diff_batch(self.sol, 0.0, np.array([x]))

    def test_batch_matches_scalar(self):
        # both against the bilinear formula over the four stored values
        # around (t, x), written out here
        t, sol, grid = 0.25, self.sol, self.grid
        j = int(np.flatnonzero(sol.times <= t)[-1])
        w = (t - sol.times[j]) / (sol.times[j + 1] - sol.times[j])

        def bilinear(x):
            i = int((x - grid.x_min) // grid.dx)
            s = (x - grid.xs[i]) / grid.dx
            rows = sol.values[j : j + 2, i : i + 2]
            return ((1 - w) * ((1 - s) * rows[0, 0] + s * rows[0, 1])
                    + w * ((1 - s) * rows[1, 0] + s * rows[1, 1]))

        xs = np.array([-1.5, 0.0, 0.1234, 2.25])
        want = [bilinear(x) for x in xs]
        want_g = [(bilinear(x + grid.dx) - bilinear(x - grid.dx)) / (2 * grid.dx)
                  for x in xs]
        assert np.allclose(eval_u_batch(sol, t, xs), want, rtol=0, atol=1e-12)
        assert np.allclose([eval_u(sol, t, x) for x in xs], want, rtol=0, atol=1e-12)
        assert np.allclose(grad_x_batch(sol, t, xs), want_g, rtol=0, atol=1e-10)
        grads = [float(pde_module.stencil_batch(sol, t, x)[1]) for x in xs]
        assert np.allclose(grads, want_g, rtol=0, atol=1e-10)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestUniformInterp:
    """The uniform-grid kernel against np.interp, bit for bit."""

    # dx of the last two is not a binary fraction
    GRIDS = [(-8.0, 8.0, 201), (-6.3, 5.9, 1201), (0.1, 0.7, 7)]

    @staticmethod
    def _case(x_min, x_max, nx, seed=0):
        grid = SpaceTimeGrid(x_min, x_max, nx, 0.1, 1)
        rng = np.random.default_rng(seed)
        layer = rng.standard_normal(nx)
        # signed zeros and repeated values must come back as np.interp gives them
        layer[nx // 2] = -0.0
        layer[1] = 0.0
        layer[-2] = layer[-3]
        return grid, layer

    @staticmethod
    def _inputs(grid, seed=1):
        rng = np.random.default_rng(seed)
        xs, dx = grid.xs, grid.dx
        span = grid.x_max - grid.x_min
        return {
            "inside": rng.uniform(grid.x_min, grid.x_max, 4000),
            "just outside": np.concatenate((
                rng.uniform(grid.x_min - dx, grid.x_min, 200),
                rng.uniform(grid.x_max, grid.x_max + dx, 200),
                [grid.x_min - span, grid.x_max + span, -np.inf, np.inf],
            )),
            "nodes": xs,
            "above nodes": np.nextafter(xs, np.inf),
            "below nodes": np.nextafter(xs, -np.inf),
            "xs + dx": xs + dx,
            "xs - dx": xs - dx,
            "nan": np.array([np.nan, 0.5 * (grid.x_min + grid.x_max), np.nan]),
        }

    @pytest.mark.parametrize("x_min, x_max, nx", GRIDS)
    def test_bits_equal_np_interp(self, x_min, x_max, nx):
        grid, layer = self._case(x_min, x_max, nx)
        slope = pde_module._slopes(grid, layer)
        for name, x in self._inputs(grid).items():
            want = np.interp(x, grid.xs, layer)
            with np.errstate(invalid="raise"):  # NaN must not reach the int cast
                got = pde_module._interp_cell(grid, layer, x, slope)
            assert np.array_equal(_bits(got), _bits(want)), name

    @pytest.mark.parametrize("x_min, x_max, nx", GRIDS)
    def test_scalar_bits_equal_np_interp(self, x_min, x_max, nx):
        grid, layer = self._case(x_min, x_max, nx)
        slope = pde_module._slopes(grid, layer)
        for x in (grid.x_min, grid.x_max, grid.xs[nx // 2], 0.3 * x_min + 0.7 * x_max):
            got = pde_module._interp_cell(grid, layer, np.asarray(x), slope)
            assert _bits(got) == _bits(np.interp(x, grid.xs, layer))

    @pytest.mark.parametrize("x_min, x_max, nx", GRIDS)
    def test_batch_evaluators_match_np_interp(self, x_min, x_max, nx):
        grid, layer = self._case(x_min, x_max, nx)
        rng = np.random.default_rng(2)
        sol = pde_module.PdeSolution(
            grid, np.array([0.0, 1.0]), np.stack((layer, rng.standard_normal(nx))))
        dx, xs = grid.dx, grid.xs
        x = np.concatenate((rng.uniform(x_min + dx, x_max - dx, 500), xs[1:-1]))
        t = 0.3
        blend = pde_module._blend_layer(sol, t)

        def interp(z):
            return np.interp(z, xs, blend)

        u = interp(x)
        grad = (interp(x + dx) - interp(x - dx)) / (2.0 * dx)
        d2 = (interp(x + dx) - 2.0 * u + interp(x - dx)) / dx**2
        assert np.array_equal(_bits(eval_u_batch(sol, t, x)), _bits(u))
        assert np.array_equal(_bits(grad_x_batch(sol, t, x)), _bits(grad))
        assert np.array_equal(_bits(pde_module.second_diff_batch(sol, t, x)), _bits(d2))
        for got, want in zip(pde_module.stencil_batch(sol, t, x), (u, grad, d2)):
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("x_min, x_max, nx", TestUniformInterp.GRIDS)
def test_stencil_cells_at_the_edges(x_min, x_max, nx):
    # x +- dx is read from x's cell +- 1: points where rounding moves
    # x, x + dx or x - dx across a node, and the ends of the stencil range
    grid, layer = TestUniformInterp._case(x_min, x_max, nx)
    sol = pde_module.PdeSolution(grid, np.array([0.0, 1.0]), np.stack((layer, layer)))
    dx, xs = grid.dx, grid.xs
    inner = xs[1:-1]
    x = np.concatenate((
        inner, np.nextafter(inner, np.inf), np.nextafter(inner, -np.inf),
        xs[1:-2] + 0.5 * dx, [xs[0] + dx, xs[-1] - dx],
        [xs[0] + dx - 1e-10, xs[-1] - dx + 1e-10, np.nan],
    ))

    def interp(z):
        return np.interp(z, xs, layer)

    u, up, down = interp(x), interp(x + dx), interp(x - dx)
    want = (u, (up - down) / (2.0 * dx), (up - 2.0 * u + down) / dx**2)
    with np.errstate(invalid="raise"):  # NaN must not reach the int cast
        got = pde_module.stencil_batch(sol, 0.0, x)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("kind", ["scalar", "0-d", "1-d", "2-d"])
def test_stencil_shapes_bits_equal_np_interp(kind):
    # x and x +- dx go as one (3, ...) read; every shape of x, nodes
    # included, still gets np.interp's three reads bit for bit
    grid, layer = TestUniformInterp._case(-6.3, 5.9, 1201)
    sol = pde_module.PdeSolution(grid, np.array([0.0, 1.0]), np.stack((layer, layer)))
    dx, xs = grid.dx, grid.xs
    pts = np.random.default_rng(5).uniform(grid.x_min + dx, grid.x_max - dx, 12)
    pts[1], pts[2] = xs[300], xs[1] + dx
    x = {"scalar": float(pts[1]), "0-d": np.asarray(pts[0]), "1-d": pts,
         "2-d": pts.reshape(3, 4)}[kind]

    def interp(z):
        return np.interp(z, xs, layer)

    u, up, down = interp(x), interp(np.add(x, dx)), interp(np.subtract(x, dx))
    want = (u, (up - down) / (2.0 * dx), (up - 2.0 * u + down) / dx**2)
    for g, w in zip(pde_module.stencil_batch(sol, 0.0, x), want):
        assert np.shape(g) == np.shape(x)
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("name", oracles.PROBLEMS)
def test_stacked_stencil_equals_three_seeded_reads(name):
    # one read of the (3, ...) stack against three reads seeded from x's
    # cell, at stored layers and between them
    sol, _ = oracles.solved(name)
    grid = sol.grid
    rng = np.random.default_rng(6)
    x = np.concatenate((oracles.edge_states(grid),
                        rng.uniform(grid.x_min + grid.dx, grid.x_max - grid.dx, 500)))
    for t in (0.0, 0.5 * sol.times[1], 0.3, 1.0):
        for xt in (x, -0.0, np.asarray(grid.x_max - grid.dx)):
            read = pde_module._stencil(grid, pde_module._blend_layer(sol, t), xt)
            for got, want in zip(read, oracles.stencil(sol, t, xt)):
                assert oracles.same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(x_min=st.floats(-20.0, 20.0), width=st.floats(1e-3, 40.0),
       nx=st.integers(3, 400), data=st.data())
def test_stacked_read_bits_equal_np_interp(x_min, width, nx, data):
    # odd domains: dx is rarely a binary fraction, x_min rarely a node of 0
    grid = SpaceTimeGrid(x_min, x_min + width, nx, 0.1, 1)
    xs, dx, tol = grid.xs, grid.dx, pde_module._HULL_TOL
    lo, hi = grid.x_min + dx - tol, grid.x_max - dx + tol
    x = np.array(data.draw(st.lists(
        st.one_of(st.floats(lo, hi), st.sampled_from(xs[1:-1].tolist())),
        min_size=1, max_size=40)))
    layer = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(nx)
    layer[::5] = -0.0
    stack = np.stack((x, x + dx, x - dx))
    got = pde_module._interp_cell(grid, layer, stack, pde_module._slopes(grid, layer))
    assert oracles.same_bits(got, np.interp(stack, xs, layer))
    sol = pde_module.PdeSolution(grid, np.array([0.0, 1.0]), np.stack((layer, layer)))
    u, up, down = (np.interp(z, xs, layer) for z in stack)
    want = (u, (up - down) / (2.0 * dx), (up - 2.0 * u + down) / dx**2)
    for g, w in zip(pde_module.stencil_batch(sol, 0.0, x), want):
        assert oracles.same_bits(g, w)


@pytest.mark.parametrize("value", [
    2.5, 2, np.float64(2.5), np.asarray(2.5), np.full((2, 3), 2.5),
    np.full((1, 3), 2.5), np.full(3, 2.5), [[2.5], [2.5]],
])
def test_as_field_is_a_float_array_of_the_shape(value):
    got = pde_module._as_field(value, (2, 3))
    assert isinstance(got, np.ndarray)
    assert got.dtype == np.float64 and got.shape == (2, 3)
    assert np.all(got == float(np.asarray(value).flat[0]))


class TestConvergence:
    def test_halving_dx_reduces_core_error(self):
        # quartic closed form u = x^4 + 6 shs x^2 tau + 3 shs^2 tau^2 on a
        # padded domain so boundary truncation stays out of the core
        errs = []
        for nx in (401, 801):
            prob = heat_problem(phi="pow(x,4)", growth_q=3)
            grid = build_grid(prob, -8.0, 8.0, nx, core_fraction=0.25)
            sol = solve(prob, grid)
            core = grid.core_mask()
            xs = grid.xs[core]
            tau = prob.T - sol.times[:, None]
            exact = xs[None, :] ** 4 + 6 * tau * xs[None, :] ** 2 + 3 * tau**2
            errs.append(float(np.max(np.abs(sol.values[:, core] - exact))))
        assert errs[0] / errs[1] >= 1.7


def test_csv_export(tmp_path):
    prob = heat_problem()
    grid = build_grid(prob, -1.0, 1.0, 11)
    sol = solve(prob, grid)
    path = tmp_path / "sol.csv"
    solution_to_csv(sol, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# g-bsde-lab schema v1"
    assert lines[1].startswith("t,-1,")
    assert len(lines) == 2 + len(sol.times)


def _old_csv_bytes(sol):
    """The writer as it was before row templates: one f-string per value."""
    lines = ["# g-bsde-lab schema v1\n",
             "t," + ",".join(f"{x:.17g}" for x in sol.grid.xs) + "\n"]
    for t, row in zip(sol.times, sol.values):
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines).encode()


def test_csv_bytes_match_per_value_format(tmp_path):
    grid = SpaceTimeGrid(-0.3, 1.7, 9, 0.1, 3)
    special = [-0.0, 5e-324, 1e-5, 0.1, 1e16, -1e300, 3.0, -7.0, 0.0]
    rng = np.random.default_rng(4)
    values = np.stack((special, special[::-1], rng.standard_normal(9) * 1e3,
                       np.arange(-4.0, 5.0)))
    sol = pde_module.PdeSolution(grid, np.array([0.0, 0.1, 0.2, 0.30000000000000004]),
                                 values)
    path = tmp_path / "sol.csv"
    solution_to_csv(sol, path)
    assert path.read_bytes() == _old_csv_bytes(sol)
    assert (b"\n0,-0,4.9406564584124654e-324,1.0000000000000001e-05,0.10000000000000001,"
            b"10000000000000000,-1.0000000000000001e+300,3,-7,0\n") in path.read_bytes()


@pytest.mark.usefixtures("same_fds")
class TestSplitWriter:
    """A table of n * 2^18 values is formatted in up to n parts, one per
    usable CPU, all but the first in forked children; every split writes the
    bytes of the serial writer."""

    @staticmethod
    def table(nt, nx):
        rng = np.random.default_rng(nt)
        grid = SpaceTimeGrid(-2.0, 3.0, nx, 0.1, nt)
        return pde_module.PdeSolution(grid, np.sort(rng.random(nt)),
                                      rng.standard_normal((nt, nx)) * 1e3)

    @pytest.mark.parametrize("nt, nx, cpus, parts", [
        (395, 1991, 3, 3),  # parts end after rows 131 and 263 of 395
        (1, 1 << 19, 2, 1),  # one layer: one part, as parts never outnumber layers
        (174_763, 3, 2, 2),
        (395, 1991, 1, 1),  # one usable CPU: no fork
    ], ids=["odd_layers", "one_layer", "nx_3", "one_cpu"])
    def test_bytes_match_per_value_format(self, tmp_path, monkeypatch, forks, nt, nx, cpus,
                                          parts):
        monkeypatch.setattr(pde_module.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        sol = self.table(nt, nx)
        path = tmp_path / "sol.csv"
        solution_to_csv(sol, path)
        assert len(forks) == parts - 1
        assert path.read_bytes() == _old_csv_bytes(sol)

    def test_failed_child_raises_and_is_reaped(self, tmp_path, monkeypatch):
        parent, write_rows = os.getpid(), pde_module._write_rows

        def failing(fh, *args):
            if os.getpid() != parent:
                raise MemoryError("no room in the child")
            write_rows(fh, *args)

        monkeypatch.setattr(pde_module, "_write_rows", failing)
        monkeypatch.setattr(pde_module.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        with pytest.raises(OSError, match="part 1 of 3 failed"):
            solution_to_csv(self.table(395, 1991), tmp_path / "sol.csv")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_child_leaves_the_serial_table(self, tmp_path, monkeypatch, cpus):
        # the serial rerun writes from the end of the header, over the
        # parent's 197 rows, not after them
        parent, write_rows = os.getpid(), pde_module._write_rows

        def failing(fh, *args):
            if os.getpid() != parent:
                raise MemoryError("no room in the child")
            write_rows(fh, *args)

        monkeypatch.setattr(pde_module, "_write_rows", failing)
        cpus(3)
        sol, path = self.table(395, 1990), tmp_path / "sol.csv"
        with pytest.raises(OSError, match="part 1 of 2 failed"):
            solution_to_csv(sol, path)
        assert path.read_bytes() == _old_csv_bytes(sol)

    def test_failure_here_is_raised_and_leaves_no_child(self, tmp_path, monkeypatch, cpus):
        # the parent's part fails, and so does the serial rerun
        parent, write_rows = os.getpid(), pde_module._write_rows

        def failing(fh, *args):
            if os.getpid() == parent:
                raise MemoryError("no room in the parent")
            write_rows(fh, *args)

        monkeypatch.setattr(pde_module, "_write_rows", failing)
        cpus(3)
        with pytest.raises(MemoryError, match="no room in the parent"):
            solution_to_csv(self.table(395, 1991), tmp_path / "sol.csv")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_two_layers_fork_once_and_layer_0_is_formatted_here(self, tmp_path, monkeypatch,
                                                                forks, cpus):
        parent, write_rows, here = os.getpid(), pde_module._write_rows, []

        def recording(fh, line, sol, rows):
            if os.getpid() == parent:
                here.append(rows)
            write_rows(fh, line, sol, rows)

        monkeypatch.setattr(pde_module, "_write_rows", recording)
        cpus(3)
        sol, path = self.table(2, 1 << 18), tmp_path / "sol.csv"
        solution_to_csv(sol, path)
        assert len(forks) == 1
        assert here == [slice(0, 1)]
        assert path.read_bytes() == _old_csv_bytes(sol)

    def test_failed_fork_writes_the_part_here(self, tmp_path, forks, cpus, monkeypatch):
        cpus(3)
        _fork_fails_after(monkeypatch, forks, 1)
        sol, path = self.table(395, 1991), tmp_path / "sol.csv"
        solution_to_csv(sol, path)
        assert len(forks) == 1
        assert path.read_bytes() == _old_csv_bytes(sol)

    def test_bad_path_raises_before_any_fork(self, tmp_path, forks):
        with pytest.raises(FileNotFoundError):
            solution_to_csv(self.table(395, 1991), tmp_path / "no_dir" / "sol.csv")
        assert forks == []


def _blowing_up(*bodies):
    """Heat problems whose f, a body in t alone, passes through the step."""
    coeffs = CoefficientSet.from_text("0", "0", "1", "x*x")
    return [PdeProblem(coeffs, ScalarGenerator.from_text(body, 0.0, ZERO.modulus_z), ZERO,
                       GP, 1.0, 0.0) for body in bodies]


def _direct_rows(side_gen, T):
    """Two heat rows at level 8 whose f (side_gen "f") or g ("g") is a
    direct envelope, the lower one's and the upper one's."""
    coeffs = CoefficientSet.from_text("0", "0", "1", "x*x")
    envs = [EnvelopeGenerator(DIRECT, 8.0, side) for side in ("lower", "upper")]
    return [PdeProblem(coeffs, *((env, ZERO) if side_gen == "f" else (ZERO, env)), GP, T, 0.0)
            for env in envs]


def _fork_fails_after(monkeypatch, forks, n):
    """os.fork raises EAGAIN once the fixture forks has counted n forks."""
    fork = os.fork

    def limited():
        if len(forks) >= n:
            raise BlockingIOError(errno.EAGAIN, "no process to spare")
        return fork()

    monkeypatch.setattr(os, "fork", limited)


@pytest.mark.usefixtures("same_fds")
class TestSplitSolve:
    """A stack of n * 2^19 weighted node-steps is stepped in up to n blocks of rows,
    one per usable CPU, all but the first in forked children, with the
    bytes of the serial sweep, and failing as it fails."""

    @staticmethod
    def serial(problems, grid, cpus):
        cpus(1)
        return solve_stack(problems, grid)

    @pytest.mark.parametrize("rows, n_cpus, parts", [
        (4, 1, 1), (4, 2, 2), (4, 3, 3),  # four mixed rows
        (3, 2, 2),  # row 0 here, rows 1 and 2 in a child
        (8, 3, 3),  # blocks of 2, 3 and 3 rows
    ])
    @pytest.mark.parametrize("sigma", ["1+0.2*x*x/(1+x*x)", "1+0.5*t"])
    def test_bytes_match_serial(self, monkeypatch, forks, cpus, rows, n_cpus, parts, sigma):
        # a threshold of 1 splits these small stacks; test_threshold tests
        # the real one
        monkeypatch.setattr(pde_module, "_SPLIT_WORK", 1)

        def fresh():
            return [p for _ in range(2) for p in _stack_problems(sigma)][:rows]

        grid = build_grid(fresh()[0], -2.0, 2.0, 41)
        want = self.serial(fresh(), grid, cpus)
        cpus(n_cpus)
        forks.clear()
        got = solve_stack(fresh(), grid)
        assert len(forks) == parts - 1
        for sol, ref in zip(got, want, strict=True):
            assert sol.grid == ref.grid
            assert sol.values.tobytes() == ref.values.tobytes()
            assert sol.times.tobytes() == ref.times.tobytes()
            assert not sol.values.flags.writeable

    @pytest.mark.parametrize("direct, T, parts", [
        # two heat rows at nx = 401 and dt about 9e-5: 5,556 steps make
        # 4,455,912 node-steps and 1,334 make 1,069,868, past 2 * 2^19;
        # 1,223 steps make 980,846
        (None, 0.5, 2), (None, 0.12, 2), (None, 0.11, 1),
        # two rows at nx = 41 with a direct envelope each, f's or g's, weigh
        # 1 + 258 per node-step: f's 201 steps (dt about 0.0056) make
        # 4,268,838 weighted node-steps and 50 make 1,061,900, past 2 * 2^19,
        # and 49 make 1,040,662; g's 200 steps (dt = 0.009) make 4,247,600
        ("f", 1.13, 2), ("f", 0.28, 2), ("f", 0.27, 1), ("g", 1.8, 2),
    ], ids=["0.5-2", "0.12-2", "0.11-1", "direct_f-1.13-2", "direct_f-0.28-2",
            "direct_f-0.27-1", "direct_g-1.8-2"])
    def test_threshold(self, forks, cpus, direct, T, parts):
        if direct is None:
            problems = [heat_problem(T=T), heat_problem(T=T)]
            grid = build_grid(problems[0], -2.0, 2.0, 401)
        else:
            problems = _direct_rows(direct, T)
            grid = build_grid(problems[0], -2.0, 2.0, 41)
        want = self.serial(problems, grid, cpus)
        cpus(2)
        forks.clear()
        got = solve_stack(problems, grid)
        assert len(forks) == parts - 1
        assert [s.values.tobytes() for s in got] == [s.values.tobytes() for s in want]

    def test_one_row_never_splits(self, monkeypatch, forks, cpus):
        monkeypatch.setattr(pde_module, "_SPLIT_WORK", 1)
        cpus(4)
        prob = heat_problem()
        solve(prob, build_grid(prob, -2.0, 2.0, 41))
        assert forks == []

    def test_one_direct_row_never_splits(self, forks, cpus):
        # at the real threshold: 100 steps of one direct row at nx = 41
        # make 1,061,900 weighted node-steps, past 2 * 2^19
        cpus(4)
        prob = _direct_rows("f", 0.56)[0]
        sol = solve(prob, build_grid(prob, -2.0, 2.0, 41))
        assert sol.grid.nt == 100
        assert forks == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bodies, error, match", [
        # the child's row 1 fails at t < 0.75, before the parent's row 0
        (("exp(1e300*max(0.5-t,0))", "exp(1e300*max(0.75-t,0))"),
         SchemeError, r"non-finite update at row 1, node 0 \(x=-2, t=0\.74"),
        # both fail at the first step below t = 0.5: the evaluation's error
        # comes before the update's, whichever part holds it
        (("exp(1e300*max(0.5-t,0))", "sqrt(t-0.5)"), ValueError, "sqrt of negative"),
        (("sqrt(t-0.5)", "exp(1e300*max(0.5-t,0))"), ValueError, "sqrt of negative"),
        (("1", "1", "exp(1e300*max(0.5-t,0))"), SchemeError, "row 2, node 0"),
    ], ids=["earlier_step_in_child", "value_error_in_child", "value_error_here",
            "last_of_three_rows"])
    def test_failure_is_the_serial_one(self, monkeypatch, forks, cpus, bodies, error,
                                       match):
        monkeypatch.setattr(pde_module, "_SPLIT_WORK", 1)
        grid = build_grid(_blowing_up("1")[0], -2.0, 2.0, 41)
        cpus(1)
        with pytest.raises(error, match=match) as serial:
            solve_stack(_blowing_up(*bodies), grid)
        cpus(2)
        forks.clear()
        with pytest.raises(error, match=match) as split:
            solve_stack(_blowing_up(*bodies), grid)
        assert len(forks) == 1
        assert type(split.value) is type(serial.value)
        assert str(split.value) == str(serial.value)

    @pytest.mark.parametrize("how, error, status", [
        ("kill", ChildProcessError, -9),
        # the serial sweep, run again here, succeeds: the child's error stands
        ("raise", OSError, 1),
    ])
    def test_failed_child_raises_and_is_reaped(self, monkeypatch, cpus, how, error, status):
        parent, step = os.getpid(), pde_module.step_backward

        def failing(*args):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError("no room in the child")
            return step(*args)

        monkeypatch.setattr(pde_module, "step_backward", failing)
        monkeypatch.setattr(pde_module, "_SPLIT_WORK", 1)
        cpus(3)
        problems = _stack_problems()
        with pytest.raises(OSError, match=rf"solve_stack: part 1 of 3 failed "
                                          rf"\(exit status {status}\)") as err:
            solve_stack(problems, build_grid(problems[0], -2.0, 2.0, 41))
        assert type(err.value) is error
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_rerun_starts_from_fresh_lattices(self, monkeypatch, cpus):
        # row 0 grows its envelopes' lattices here while row 1 fails in the
        # child; the serial rerun's first step, of both rows, finds row 0's
        # lattices unbuilt, as a fresh serial solve would
        parent, step, seen = os.getpid(), pde_module.step_backward, []

        def failing(u, t, problems, *rest):
            if os.getpid() != parent:
                raise MemoryError("no room in the child")
            if len(problems) == 2 and not seen:
                seen.extend(e._lattice for e in (problems[0].f, problems[0].g))
            return step(u, t, problems, *rest)

        monkeypatch.setattr(pde_module, "step_backward", failing)
        monkeypatch.setattr(pde_module, "_SPLIT_WORK", 1)
        cpus(2)
        problems = _stack_problems()[:2]
        assert all(isinstance(e, EnvelopeGenerator) for e in (problems[0].f, problems[0].g))
        with pytest.raises(OSError, match=r"solve_stack: part 1 of 2 failed"):
            solve_stack(problems, build_grid(problems[0], -2.0, 2.0, 41))
        assert seen == [None, None]

    def test_failed_fork_runs_the_part_here(self, monkeypatch, forks, cpus):
        # the second fork finds no process to spare: parts 2 and 3 run here
        monkeypatch.setattr(pde_module, "_SPLIT_WORK", 1)
        grid = build_grid(_stack_problems()[0], -2.0, 2.0, 41)
        want = self.serial(_stack_problems(), grid, cpus)
        cpus(4)
        forks.clear()
        _fork_fails_after(monkeypatch, forks, 1)
        got = solve_stack(_stack_problems(), grid)
        assert len(forks) == 1
        assert [s.values.tobytes() for s in got] == [s.values.tobytes() for s in want]

    def test_shared_envelope_never_splits(self, monkeypatch, forks, cpus):
        # an envelope's lattice depends on every |z| it has met, so rows 0
        # and 3, sharing one, stay in one part
        monkeypatch.setattr(pde_module, "_SPLIT_WORK", 1)
        problems = _stack_problems()
        problems[3] = dataclasses.replace(problems[3], f=problems[0].f)
        cpus(2)
        solve_stack(problems, build_grid(problems[0], -2.0, 2.0, 41))
        assert forks == []
