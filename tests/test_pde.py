import numpy as np
import pytest

from gbsdelab import pde as pde_module
from gbsdelab.envelope import EnvelopeGenerator, Modulus, ScalarGenerator
from gbsdelab.gfunction import GParams
from gbsdelab.pde import (
    CoefficientSet,
    PdeProblem,
    SchemeError,
    SpaceTimeGrid,
    build_grid,
    eval_u,
    eval_u_batch,
    grad_x,
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

    def test_non_finite_coefficient(self):
        prob = heat_problem(sigma="1/x")
        with pytest.raises(ValueError):
            build_grid(prob, -1.0, 1.0, 11)  # hits x=0


class TestRefineGrid:
    ARGS = (-4.0, 4.0, 201)

    def test_stable_grid_is_kept(self):
        prob = heat_problem()
        grid = build_grid(prob, *self.ARGS)
        assert refine_grid(grid, prob) is grid

    def test_fewest_stable_steps(self):
        slow, fast = heat_problem(), heat_problem(sigma="2", b="0.5*x")
        grid = build_grid(slow, *self.ARGS, core_fraction=0.25)
        out = refine_grid(grid, slow, fast)
        dt = min(max_stable_dt(p, *self.ARGS) for p in (slow, fast))
        assert out.nt > grid.nt
        assert out.dt == slow.T / out.nt
        assert slow.T / out.nt <= dt * (1.0 + 1e-12) < slow.T / (out.nt - 1)
        kept = ("x_min", "x_max", "nx", "core_fraction")
        assert all(getattr(out, k) == getattr(grid, k) for k in kept)

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
        out = step_backward(u, 0.5, self.prob, self.grid)
        assert np.allclose(out, u, atol=1e-12)

    def test_convex_quadratic_gains_high_variance(self):
        u = self.grid.xs**2
        out = step_backward(u, 0.5, self.prob, self.grid)
        interior = slice(1, -1)
        assert np.allclose(
            out[interior], u[interior] + self.grid.dt * GP.sigma_high_sq, atol=1e-12
        )

    def test_concave_quadratic_loses_low_variance(self):
        u = -self.grid.xs**2
        out = step_backward(u, 0.5, self.prob, self.grid)
        interior = slice(1, -1)
        assert np.allclose(
            out[interior], u[interior] - self.grid.dt * GP.sigma_low_sq, atol=1e-12
        )

    def test_non_finite_input_named(self):
        u = self.grid.xs**2
        u[7] = np.nan
        with pytest.raises(SchemeError, match="node 7"):
            step_backward(u, 0.5, self.prob, self.grid)

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
        base = step_backward(u, 0.3, prob, grid)
        eps = 1e-6
        for j in range(grid.nx):
            up = u.copy()
            up[j] += eps
            out = step_backward(up, 0.3, prob, grid)
            assert np.min(out[1:-1] - base[1:-1]) >= -1e-15

    def test_scheme_level_comparison(self):
        rng = np.random.default_rng(6)
        u = rng.uniform(-1, 1, self.grid.nx)
        v = u - rng.uniform(0, 1, self.grid.nx)
        out_u = step_backward(u, 0.2, self.prob, self.grid)
        out_v = step_backward(v, 0.2, self.prob, self.grid)
        assert np.all(out_u[1:-1] >= out_v[1:-1] - 1e-15)


class TestSolve:
    def test_linear_terminal_is_stationary(self):
        prob = heat_problem(phi="x")
        grid = build_grid(prob, -2.0, 2.0, 101)
        sol = solve(prob, grid)
        assert np.max(np.abs(sol.initial - grid.xs)) < 1e-10

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
        assert np.array_equal(sol.terminal, grid.xs**2)

    def test_layer_decimation_bounds_memory(self):
        prob = heat_problem()
        grid = build_grid(prob, -4.0, 4.0, 401)  # several thousand steps
        sol = solve(prob, grid)
        assert len(sol.times) <= 2001
        assert sol.times[0] == 0.0 and sol.times[-1] == pytest.approx(prob.T)


class TestSolveFields:
    """solve evaluates t-free coefficient fields once; the layers it
    returns equal a plain loop of public step_backward calls."""

    F = ScalarGenerator.from_text(
        "-0.5*pow(abs(z),0.8)+0.2*y", 0.2,
        Modulus("power", c=0.5, alpha=0.8, growth_L=0.5),
    )

    def _plain_loop(self, prob, grid):
        u = np.asarray(prob.coeffs.eval_phi(grid.xs), dtype=float)
        layers = [u]
        for k in range(grid.nt - 1, -1, -1):
            u = step_backward(u, k * grid.dt, prob, grid)
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
        assert len(calls) == (1 if time_free else grid.nt)


ROUGH = ScalarGenerator.from_text(
    "-0.5*pow(abs(z),0.8)", 0.0, Modulus("power", c=0.5, alpha=0.8, growth_L=0.5))
DIRECT = ScalarGenerator.from_text(
    "0.2*x+sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=1.0))
LINEAR = ScalarGenerator.from_text(
    "-0.5*abs(z)+0.2*y", 0.2, Modulus("linear", c=0.5, growth_L=0.5))


def _stack_problems(sigma="1+0.2*x*x/(1+x*x)"):
    """Fresh problems sharing coefficients and differing in f and g: a
    lattice, a passthrough and a direct envelope, and a plain generator.
    At level 8 on dx=0.1 the dissipation theta is on at every node of the
    lattice and direct rows and off on the plain row."""
    coeffs = CoefficientSet.from_text("0.3*x", "0.1", sigma, "x*x*x/3")
    gens = [
        (EnvelopeGenerator(ROUGH, 8.0, "lower"), EnvelopeGenerator(ROUGH, 8.0, "upper")),
        (EnvelopeGenerator(LINEAR, 8.0, "upper"), ZERO),
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
            assert sol.fingerprint == want.fingerprint
            assert sol.grid == grid

    def test_stack_step_equals_single_steps(self):
        problems = _stack_problems()
        grid = self._grid(problems)
        u = np.random.default_rng(3).uniform(-1, 1, (len(problems), grid.nx))
        got = step_backward(u, 0.02, problems, grid)
        want = [step_backward(u[r], 0.02, p, grid)
                for r, p in enumerate(_stack_problems())]
        assert got.shape == u.shape
        assert np.array_equal(got, np.asarray(want))

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


class TestEvalAndGrad:
    def setup_method(self):
        self.prob = heat_problem()
        self.grid = build_grid(self.prob, -6.0, 6.0, 601)
        self.sol = solve(self.prob, self.grid)

    def test_node_point_exact(self):
        k = 300  # x = 0
        assert eval_u(self.sol, self.prob.T, self.grid.xs[k]) == self.sol.terminal[k]

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
        assert grad_x(self.sol, self.prob.T, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_grad_linear_exact(self):
        prob = heat_problem(phi="3*x")
        grid = build_grid(prob, -2.0, 2.0, 51)
        sol = solve(prob, grid)
        assert grad_x(sol, 0.0, 0.3) == pytest.approx(3.0, abs=1e-12)

    def test_grad_near_boundary_rejected(self):
        with pytest.raises(ValueError):
            grad_x(self.sol, 0.0, 6.0)

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
        assert np.allclose([grad_x(sol, t, x) for x in xs], want_g, rtol=0, atol=1e-10)


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
                got = pde_module._interp_uniform(grid, layer, x, slope)
            assert np.array_equal(_bits(got), _bits(want)), name

    @pytest.mark.parametrize("x_min, x_max, nx", GRIDS)
    def test_scalar_bits_equal_np_interp(self, x_min, x_max, nx):
        grid, layer = self._case(x_min, x_max, nx)
        slope = pde_module._slopes(grid, layer)
        for x in (grid.x_min, grid.x_max, grid.xs[nx // 2], 0.3 * x_min + 0.7 * x_max):
            got = pde_module._interp_uniform(grid, layer, np.asarray(x), slope)
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
