import errno
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import path_oracles as oracles
from gbsdelab import gsim, pde
from gbsdelab.envelope import Modulus, ScalarGenerator
from gbsdelab.expr import evaluate, parse
from gbsdelab.gfunction import GParams, worst_case_q
from gbsdelab.gsim import (
    ConstantPolicy,
    FeedbackPolicy,
    euler_forward,
    simulate_paths,
    terminal_states,
    upper_expectation_mc,
    upper_expectation_pde,
)
from gbsdelab.pde import (
    CoefficientSet,
    PdeProblem,
    PdeSolution,
    SpaceTimeGrid,
    build_grid,
    solve,
)

GP = GParams(0.5, 1.0)
ZERO = ScalarGenerator.from_text("0", 0.0, Modulus("linear", c=1.0, growth_L=1.0))


def heat_solution(phi="x*x", span=8.0, nx=401):
    coeffs = CoefficientSet.from_text("0", "0", "1", phi)
    prob = PdeProblem(coeffs, ZERO, ZERO, GP, 1.0, 0.0)
    grid = build_grid(prob, -span, span, nx)
    return solve(prob, grid), prob


class TestConstantPolicy:
    def test_admissible(self):
        assert ConstantPolicy(0.7, GP).variance(0.0, np.zeros(3)).tolist() == [0.7] * 3

    def test_out_of_interval(self):
        with pytest.raises(ValueError):
            ConstantPolicy(0.2, GP)
        with pytest.raises(ValueError):
            ConstantPolicy(1.5, GP)


class TestSimulatePaths:
    def test_shapes_and_origin(self):
        ens = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 0.01, 7, 1)
        assert ens.B.shape == (7, 101) and ens.QV.shape == (7, 101)
        assert np.all(ens.B[:, 0] == 0.0) and np.all(ens.QV[:, 0] == 0.0)

    def test_qv_increments_admissible(self):
        ens = simulate_paths(ConstantPolicy(0.5, GP), GP, 0.0, 1.0, 0.01, 50, 2)
        dqv = np.diff(ens.QV, axis=1)
        assert np.all(dqv >= GP.sigma_low_sq * 0.01 - 1e-12)
        assert np.all(dqv <= GP.sigma_high_sq * 0.01 + 1e-12)

    def test_terminal_variance_classical_scaling(self):
        n = 100_000
        ens = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 1e-3, n, 7)
        var = float(np.var(ens.B[:, -1]))
        assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / n)

    def test_deterministic_rerun(self):
        a = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 0.01, 12_000, 5)
        b = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 0.01, 12_000, 5)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.QV, b.QV)

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1, 2**64 - 1, 10**25, 7.0, None])
    def test_seed_outside_the_key_range_raises(self, seed):
        # numpy read [seed, start] as a float key past 2^63: 2^63 + 1 and
        # 2^63 + 2 drew one stream, and 2^64 - 1 drew seed 0's
        pol = ConstantPolicy(1.0, GP)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^63\)"):
            simulate_paths(pol, GP, 0.0, 0.05, 0.01, 4, seed)
        with pytest.raises(ValueError, match="seed must be"):
            terminal_states([pol], GP, 0.0, 0.05, 0.01, 4, seed)

    def test_seed_range_ends(self):
        pol = ConstantPolicy(1.0, GP)
        ends = [terminal_states([pol], GP, 0.0, 0.05, 0.01, 4, s) for s in (0, 2**63 - 1)]
        assert not np.array_equal(*ends)
        assert np.array_equal(ends[1], terminal_states([pol], GP, 0.0, 0.05, 0.01, 4,
                                                       np.uint64(2**63 - 1)))

    def test_batching_invisible(self):
        # the first 5000 paths of a large ensemble equal a small ensemble
        big = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 0.1, 0.01, 6000, 9)
        small = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 0.1, 0.01, 5000, 9)
        assert np.array_equal(big.B[:5000], small.B)

    def test_state_is_b_until_euler(self):
        # dX = dB from 0 is the state the policy reads; euler_forward
        # replaces it and leaves B alone
        ens = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 0.05, 0.01, 3, 1)
        assert ens.X is ens.B
        euler_forward(CoefficientSet.from_text("0", "0", "1", "x"), ens, 1.0)
        assert ens.X is not ens.B
        assert np.all(ens.X[:, 0] == 1.0) and np.all(ens.B[:, 0] == 0.0)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_needs_a_path(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 0.01, n_paths, 1)

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ValueError):
            simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 0.3, 2, 1)

    def test_inadmissible_policy_caught(self):
        class Bad:
            def variance(self, t, state):
                return np.full_like(state, 2.0)

            def describe(self):
                return "bad"

        with pytest.raises(ValueError):
            simulate_paths(Bad(), GP, 0.0, 1.0, 0.01, 2, 1)


class TestEulerForward:
    def test_pure_drift(self):
        coeffs = CoefficientSet.from_text("1", "0", "0", "x")
        ens = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 0.01, 4, 3)
        euler_forward(coeffs, ens, 2.0)
        assert np.allclose(ens.X[:, -1], 3.0, atol=1e-12)

    def test_identity_diffusion(self):
        coeffs = CoefficientSet.from_text("0", "0", "1", "x")
        ens = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 0.01, 4, 3)
        euler_forward(coeffs, ens, 1.5)
        assert np.allclose(ens.X, 1.5 + ens.B, atol=1e-12)

    def test_quadratic_variation_loading(self):
        coeffs = CoefficientSet.from_text("0", "1", "0", "x")
        ens = simulate_paths(ConstantPolicy(0.5, GP), GP, 0.0, 1.0, 0.01, 4, 3)
        euler_forward(coeffs, ens, 0.0)
        assert np.allclose(ens.X, ens.QV, atol=1e-12)


class TestUpperExpectationMc:
    def setup_method(self):
        self.enss = [
            simulate_paths(ConstantPolicy(v, GP), GP, 0.0, 1.0, 1e-2, 20_000, 42)
            for v in (GP.sigma_low_sq, GP.sigma_high_sq)
        ]

    def test_convex_payoff_maximized_by_high(self):
        est = upper_expectation_mc(parse("x*x"), self.enss)
        assert est.value == pytest.approx(1.0, abs=3 * est.se + 1e-2)
        assert est.per_policy[1][1] > est.per_policy[0][1]

    def test_concave_payoff_maximized_by_low(self):
        est = upper_expectation_mc(parse("-x*x"), self.enss)
        assert est.value == pytest.approx(-0.5, abs=3 * est.se + 1e-2)

    def test_linear_payoff_zero_mean(self):
        est = upper_expectation_mc(parse("x"), self.enss)
        for _, mean, se in est.per_policy:
            assert abs(mean) <= 3 * se

    def test_requires_x_only(self):
        with pytest.raises(ValueError):
            upper_expectation_mc(parse("x+z"), self.enss)

    def test_requires_ensembles(self):
        with pytest.raises(ValueError):
            upper_expectation_mc(parse("x"), [])


class TestUpperExpectationPde:
    def test_square(self):
        assert upper_expectation_pde(parse("x*x"), GP, 1.0) == pytest.approx(
            1.0, abs=5e-3
        )

    def test_quartic(self):
        assert upper_expectation_pde(parse("pow(x,4)"), GP, 1.0) == pytest.approx(
            3.0, abs=2e-2
        )

    def test_linear(self):
        assert upper_expectation_pde(parse("x"), GP, 1.0) == pytest.approx(
            0.0, abs=1e-9
        )


class TestFeedbackPolicy:
    def test_convex_value_picks_high(self):
        sol, prob = heat_solution("x*x")
        pol = FeedbackPolicy(sol, prob)
        var = pol.variance(0.2, np.array([-2.0, 0.0, 2.0]))
        assert np.all(var == GP.sigma_high_sq)

    def test_concave_value_picks_low(self):
        sol, prob = heat_solution("-x*x")
        pol = FeedbackPolicy(sol, prob)
        var = pol.variance(0.2, np.array([-2.0, 0.0, 2.0]))
        assert np.all(var == GP.sigma_low_sq)

    def test_always_admissible(self):
        sol, prob = heat_solution("max(x,0)")
        pol = FeedbackPolicy(sol, prob)
        var = pol.variance(0.5, np.linspace(-20, 20, 101))  # off-grid clamped
        assert np.all((var >= GP.sigma_low_sq) & (var <= GP.sigma_high_sq))

    def test_time_past_the_horizon_raises(self):
        # the layer at T stood in for every later time
        sol, prob = heat_solution("x*x*x")
        pol = FeedbackPolicy(sol, prob)
        x = np.array([-1.0, 0.5, 2.0])
        for t in (5.0, 1.0 + 1e-6, -1e-6):
            with pytest.raises(ValueError, match="outside"):
                pol.variance(t, x)
        # rounding past the ends is still a read of the end layers
        assert np.array_equal(pol.variance(1.0 + 1e-12, x), pol.variance(1.0, x))
        assert np.array_equal(pol.variance(-1e-12, x), pol.variance(0.0, x))


class OracleFeedback:
    """FeedbackPolicy as it was first written: six np.interp calls on three
    time blends per step."""

    def __init__(self, sol, problem):
        self.sol, self.problem = sol, problem

    def variance(self, t, state):
        sol, problem = self.sol, self.problem
        grid, xs, dx = sol.grid, sol.grid.xs, sol.grid.dx
        t = min(t, float(sol.times[-1]))
        xc = np.clip(np.asarray(state, dtype=float), grid.x_min + dx, grid.x_max - dx)

        def interp(z):
            return np.interp(z, xs, pde._blend_layer(sol, t))

        u = interp(xc)
        p = (interp(xc + dx) - interp(xc - dx)) / (2.0 * dx)
        d2 = (interp(xc + dx) - 2.0 * interp(xc) + interp(xc - dx)) / dx**2
        coeffs, env = problem.coeffs, {"t": t, "x": xc}
        h, sigma = evaluate(coeffs.h, env), evaluate(coeffs.sigma, env)
        gval = np.asarray(problem.g.eval_grid(t, xc, u, sigma * p), dtype=float)
        ham = np.broadcast_to(sigma**2 * d2 + 2.0 * h * p + 2.0 * gval, xc.shape)
        ham = np.where(np.abs(ham) < 1e-9, 0.0, ham)
        return worst_case_q(problem.gparams, ham)


def oracle_paths(policy, t0, dt, n_steps, n_paths, seed):
    """The path-major loop: column k of (n_paths, n_steps+1) arrays."""
    B = np.empty((n_paths, n_steps + 1))
    QV = np.empty((n_paths, n_steps + 1))
    for start in range(0, n_paths, gsim._BATCH):
        nb = min(gsim._BATCH, n_paths - start)
        rng = np.random.Generator(np.random.Philox(key=[seed, start]))
        xi = rng.standard_normal((nb, n_steps))
        b, qv = np.zeros(nb), np.zeros(nb)
        B[start : start + nb, 0] = 0.0
        QV[start : start + nb, 0] = 0.0
        for k in range(n_steps):
            var = np.broadcast_to(
                np.asarray(policy.variance(t0 + k * dt, b), dtype=float), b.shape)
            b = b + np.sqrt(var * dt) * xi[:, k]
            qv = qv + var * dt
            B[start : start + nb, k + 1] = b
            QV[start : start + nb, k + 1] = qv
    return B, QV


def oracle_euler(coeffs, B, QV, x0, t0, dt):
    n, m1 = B.shape
    X = np.empty((n, m1))
    X[:, 0] = x0
    for k in range(m1 - 1):
        t, xk = t0 + k * dt, X[:, k]
        b, h, s = (np.broadcast_to(np.asarray(evaluate(e, {"t": t, "x": xk}), dtype=float),
                                   xk.shape) for e in (coeffs.b, coeffs.h, coeffs.sigma))
        X[:, k + 1] = (xk + b * dt + h * (QV[:, k + 1] - QV[:, k])
                       + s * (B[:, k + 1] - B[:, k]))
    return X


_same_bits = oracles.same_bits


class TestPathLoopOracle:
    """Time-major storage and the lean reads change no bit; the run crosses
    the batch boundary.  The oracles are the loop as first written and the
    reads of path_oracles, which evaluate every term."""

    N_PATHS = gsim._BATCH + 3
    DT, N_STEPS = 0.01, 4

    def _check(self, policy, oracle_policy, seed):
        T = self.DT * self.N_STEPS
        ens = simulate_paths(policy, GP, 0.0, T, self.DT, self.N_PATHS, seed)
        B, QV = oracle_paths(oracle_policy, 0.0, self.DT, self.N_STEPS, self.N_PATHS, seed)
        assert _same_bits(ens.B, B)
        assert _same_bits(ens.QV, QV)
        return ens

    def test_feedback(self):
        for sol, prob in (heat_solution("x*x*x"), *map(oracles.solved, oracles.PROBLEMS)):
            for oracle in (OracleFeedback, oracles.Feedback):
                ens = self._check(FeedbackPolicy(sol, prob), oracle(sol, prob), 11)
            # both variances occur, so the control really reads the state
            var = np.diff(ens.QV, axis=1) / self.DT
            low, high = np.isclose(var, GP.sigma_low_sq), np.isclose(var, GP.sigma_high_sq)
            assert low.any() and high.any() and (low | high).all()
            # nodes, the ends of the stencil range, +-0.0 and clamped states,
            # at stored layers and between them
            grid = sol.grid
            x = np.concatenate((oracles.edge_states(grid), [grid.x_min, grid.x_max, -50.0]))
            policy, oracle = FeedbackPolicy(sol, prob), oracles.Feedback(sol, prob)
            for t in (0.0, 0.5 * sol.times[1], 0.3, sol.times[-2], 1.0):
                for xt in (x, -0.0, np.asarray(grid.x_min + grid.dx)):
                    assert _same_bits(policy.variance(t, xt), oracle.variance(t, xt))

    def test_constant(self):
        pol = ConstantPolicy(0.7, GP)
        self._check(pol, pol, 12)

    def test_euler_forward(self):
        grid = oracles.solved("heat")[0].grid
        every_term = CoefficientSet.from_text("0.3*x", "0.2*abs(x)", "1+0.1*exp(-x*x)", "x")
        ens = simulate_paths(ConstantPolicy(0.7, GP), GP, 0.0, self.DT * self.N_STEPS,
                             self.DT, self.N_PATHS, 13)
        for coeffs in (every_term, *(oracles.solved(n)[1].coeffs for n in oracles.PROBLEMS)):
            for x0 in (0.4, -0.0, np.resize(oracles.edge_states(grid), self.N_PATHS)):
                euler_forward(coeffs, ens, x0)
                want = oracle_euler(coeffs, ens.B, ens.QV, x0, 0.0, self.DT)
                assert _same_bits(ens.X, want)
                assert _same_bits(ens.X, oracles.euler_forward(coeffs, ens, x0))

    def test_policy_cannot_write_state(self):
        with pytest.raises(ValueError, match="read-only"):
            simulate_paths(Writer(), GP, 0.0, 0.02, 0.01, 3, 1)


def layer_policies(grid, layers, sigma=1.0):
    """FeedbackPolicy and the oracle on a heat problem with this sigma, off
    a solution that stores the given layers evenly over [0, 1]."""
    coeffs = CoefficientSet.from_text("0", "0", repr(sigma), "x")
    prob = PdeProblem(coeffs, ZERO, ZERO, GP, 1.0, 0.0)
    sol = PdeSolution(grid, np.linspace(0.0, 1.0, len(layers)), np.stack(layers))
    return FeedbackPolicy(sol, prob), oracles.Feedback(sol, prob)


def quiet(fn, *args):
    """fn(*args) with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


class TestCurvatureTable:
    """The per-cell table decides most feedback states without a stencil
    read; every decision is still the exact read's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(x_min=st.floats(-20.0, 5.0), width=st.floats(1e-2, 40.0),
           nx=st.integers(5, 300), sigma=st.sampled_from([0.7, 1.0, 3.0]),
           delta=st.sampled_from([0.0, 1e-6, -1e-6, 1e-3, -1e-3, 0.5, -0.5]),
           offset=st.sampled_from([0.0, 1.0, 1e3]), slope=st.sampled_from([0.0, 1.0, -30.0]),
           data=st.data())
    def test_bits_equal_the_exact_read(self, x_min, width, nx, sigma, delta, offset, slope,
                                       data):
        grid = SpaceTimeGrid(x_min, x_min + width, nx, 0.1, 1)
        xs = grid.xs
        centre = data.draw(st.floats(grid.x_min, grid.x_max))
        # sigma^2 S / dx^2 at -1e-9 (1 + delta): a tie, or just off one
        curv = -1e-9 * (1.0 + delta) / sigma**2
        tie = offset + slope * (xs - centre) + 0.5 * curv * (xs - centre) ** 2
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        other = data.draw(st.sampled_from([
            rng.standard_normal(nx), (xs - centre) ** 3, -tie, np.cos(xs)]))
        pol, oracle = layer_policies(grid, [tie, other], sigma)
        x = np.concatenate((
            xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
            rng.uniform(grid.x_min, grid.x_max, 50),
            [grid.x_min - 1.0, grid.x_max + 3.0, -np.inf, np.inf, np.nan, -0.0]))
        for t in (0.0, data.draw(st.floats(0.0, 1.0)), 1.0):
            assert oracles.same_bits(quiet(pol.variance, t, x), oracle.variance(t, x))

    def test_ties_at_the_threshold(self):
        # on a binary grid the reads at nodes are exact: a layer that is 0
        # but for arg dx^2 at node k + 1 has the argument arg at node k, so
        # -1e-9 itself is low and the next float up a snapped tie
        grid = SpaceTimeGrid(0.0, 8.0, 65, 0.1, 1)
        k = 20
        for arg, want in ((-1e-9, GP.sigma_low_sq),
                          (np.nextafter(-1e-9, 0.0), GP.sigma_high_sq),
                          (np.nextafter(-1e-9, -1.0), GP.sigma_low_sq),
                          (1e-9, GP.sigma_high_sq)):
            layer = np.zeros(grid.nx)
            layer[k + 1] = arg * grid.dx**2
            pol, oracle = layer_policies(grid, [layer, layer])
            x = grid.xs[k - 1 : k + 2]
            got = quiet(pol.variance, 0.0, x)
            assert got[1] == want
            assert oracles.same_bits(got, oracle.variance(0.0, x))

    def test_window_spans_a_cell_either_side(self):
        # the cell of (x - x_min)/dx can be one off, so cell c is decided
        # only when the interior nodes c - 1 ... c + 2 all agree
        grid = SpaceTimeGrid(-4.0, 4.0, 81, 0.1, 1)
        m = 40
        layer = grid.xs**2
        layer[m] += 3.0 * grid.dx**2  # the second difference dips below 0 at m alone
        pol, _ = layer_policies(grid, [layer, layer])
        table = quiet(pol._table, layer)
        assert np.flatnonzero(np.isnan(table)).tolist() == [m - 2, m - 1, m, m + 1, grid.nx - 1]
        assert np.all(np.delete(table, [m - 2, m - 1, m, m + 1, grid.nx - 1]) == GP.sigma_high_sq)

    def test_non_finite_states_and_layers(self):
        sol, prob = heat_solution("x*x*x", nx=81)
        pol, oracle = FeedbackPolicy(sol, prob), oracles.Feedback(sol, prob)
        x = np.array([np.nan, np.inf, -np.inf, 0.5, -0.0, np.nan])
        got = quiet(pol.variance, 0.3, x)
        assert got[0] == got[-1] == GP.sigma_low_sq
        assert oracles.same_bits(got, oracle.variance(0.3, x))
        for state in (np.nan, np.asarray(np.nan), 2.0, np.asarray(-np.inf)):
            one = quiet(pol.variance, 0.3, state)
            assert type(one) is float
            assert oracles.same_bits(one, oracle.variance(0.3, state))
        # a layer holding inf or NaN, or one the table would overflow on,
        # decides no cell and raises nothing: every state takes the exact
        # read, which the oracle gives
        grid = SpaceTimeGrid(-4.0, 4.0, 41, 0.1, 1)
        states = np.concatenate((grid.xs, [np.nan, 9.0]))
        for bad in (np.inf, -np.inf, np.nan, 1e308):
            layer = grid.xs**2
            layer[17] = bad
            pol, oracle = layer_policies(grid, [layer, layer])
            assert np.isnan(quiet(pol._table, layer)).all()
            with np.errstate(all="ignore"):
                assert oracles.same_bits(pol.variance(0.0, states), oracle.variance(0.0, states))

    @pytest.mark.parametrize("phi", ["x*x", "-x*x"])
    def test_exact_read_sees_few_states(self, monkeypatch, phi):
        # on the heat problem of a convex or concave payoff the table
        # decides all but at most 1% of the path states
        seen = []
        stencil = pde._stencil
        monkeypatch.setattr(pde, "_stencil",
                            lambda grid, layer, x: seen.append(x.size) or stencil(grid, layer, x))
        sol, prob = heat_solution(phi, nx=201)
        n_paths, dt = 1000, 0.01
        terminal_states([FeedbackPolicy(sol, prob)], GP, 0.0, 1.0, dt, n_paths, 3)
        assert sum(seen) <= 0.01 * n_paths * 100


class Writer:
    """A policy that writes the state it is handed."""

    def variance(self, t, state):
        state[:] = 5.0
        return np.full(state.shape, 1.0)


class OneBad:
    """Admissible everywhere but at the last path, where it emits value."""

    def __init__(self, value):
        self.value = value

    def variance(self, t, state):
        out = np.full(state.shape, 0.75)
        out[-1] = self.value
        return out


class TestTerminalStates:
    """One noise draw per batch, shared by every policy on one two-row ring,
    gives each policy's terminal state of simulate_paths bit for bit."""

    def _check(self, n_steps, n_paths, dt=0.01, seed=21):
        sol, prob = heat_solution("x*x*x")
        policies = [ConstantPolicy(GP.sigma_low_sq, GP), ConstantPolicy(GP.sigma_high_sq, GP),
                    FeedbackPolicy(sol, prob)]
        T = dt * n_steps
        got = terminal_states(policies, GP, 0.0, T, dt, n_paths, seed)
        assert got.shape == (3, n_paths)
        for row, policy in zip(got, policies):
            want = simulate_paths(policy, GP, 0.0, T, dt, n_paths, seed).X[:, -1]
            assert _same_bits(row, np.ascontiguousarray(want))
        return got

    @pytest.mark.parametrize("n_steps", [4, 7])
    def test_rows_equal_simulate_paths(self, n_steps):
        got = self._check(n_steps, 257)
        # the feedback law is not a constant: its row differs from both
        assert not np.array_equal(got[2], got[0]) and not np.array_equal(got[2], got[1])

    def test_two_batches(self):
        self._check(3, gsim._BATCH + 3)

    def test_inadmissible_policy_raises(self):
        class Bad:
            def variance(self, t, state):
                return np.full_like(state, 2.0)

        bad = Bad()
        with pytest.raises(ValueError, match="inadmissible"):
            simulate_paths(bad, GP, 0.0, 0.05, 0.01, 4, 1)
        with pytest.raises(ValueError, match="inadmissible"):
            terminal_states([ConstantPolicy(1.0, GP), bad], GP, 0.0, 0.05, 0.01, 4, 1)

    def test_empty_policy_list_raises(self):
        with pytest.raises(ValueError, match="at least one policy"):
            terminal_states([], GP, 0.0, 0.05, 0.01, 4, 1)


class TestStackedLoop:
    """terminal_states steps every policy of a batch as one (P, nb) stack;
    each policy still reads its own row, read only, and one check covers
    the variances of the whole stack."""

    def test_nan_variance_raises(self):
        # NaN compares False with both bounds, so it must fail the check
        nan = OneBad(np.nan)
        with pytest.raises(ValueError, match="inadmissible"):
            simulate_paths(nan, GP, 0.0, 0.05, 0.01, 4, 1)
        with pytest.raises(ValueError, match="inadmissible"):
            terminal_states([ConstantPolicy(1.0, GP), nan], GP, 0.0, 0.05, 0.01, 4, 1)

    def test_policy_cannot_write_state(self):
        with pytest.raises(ValueError, match="read-only"):
            terminal_states([ConstantPolicy(1.0, GP), Writer()], GP, 0.0, 0.02, 0.01, 3, 1)

    @pytest.mark.parametrize("value", [GP.sigma_low_sq - 1e-6, GP.sigma_high_sq + 1e-6])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_inadmissible_row_of_the_stack_raises(self, row, value):
        policies = [ConstantPolicy(v, GP) for v in (0.5, 1.0, 0.75)]
        policies[row] = OneBad(value)
        with pytest.raises(ValueError, match="inadmissible"):
            terminal_states(policies, GP, 0.0, 0.05, 0.01, 6, 1)

    def test_bounds_are_admissible(self):
        # the check's tolerance: the interval's ends themselves pass
        got = terminal_states([OneBad(GP.sigma_low_sq), OneBad(GP.sigma_high_sq)],
                              GP, 0.0, 0.05, 0.01, 6, 1)
        assert got.shape == (2, 6) and np.all(np.isfinite(got))


@pytest.mark.usefixtures("same_fds")
class TestSplitPaths:
    """n * 2^22 policy-path-steps of a batch take up to n blocks of its
    paths, one per usable CPU, all but the first in forked children, with
    the bits of one CPU, and failing as it fails."""

    @staticmethod
    def policies():
        sol, prob = heat_solution("x*x*x")
        return [ConstantPolicy(GP.sigma_low_sq, GP), ConstantPolicy(GP.sigma_high_sq, GP),
                FeedbackPolicy(sol, prob)]

    @staticmethod
    def run(cpus, n_cpus, policies, n_paths):
        cpus(n_cpus)
        return terminal_states(policies, GP, 0.0, 1.0, 1e-3, n_paths, 5)

    # three policies over 1,000 steps: 2,797 paths make 8,391,000
    # policy-path-steps, past 2 * 2^22 = 8,388,608, and 2,796 make 8,388,000
    @pytest.mark.parametrize("n_paths, n_forks", [(2797, 1), (2796, 0)])
    def test_threshold(self, forks, cpus, n_paths, n_forks):
        policies = self.policies()
        want = self.run(cpus, 1, policies, n_paths)
        forks.clear()
        got = self.run(cpus, 2, policies, n_paths)
        assert len(forks) == n_forks
        assert got.tobytes() == want.tobytes()
        for row, policy in zip(got, policies):
            ens = simulate_paths(policy, GP, 0.0, 1.0, 1e-3, n_paths, 5)
            assert _same_bits(row, np.ascontiguousarray(ens.X[:, -1]))

    def test_only_a_full_batch_splits(self, forks, cpus):
        # the full batch makes 15M policy-path-steps, the last one, of 3
        # paths, 9,000
        policies, n_paths = self.policies(), gsim._BATCH + 3
        want = self.run(cpus, 1, policies, n_paths)
        forks.clear()
        got = self.run(cpus, 2, policies, n_paths)
        assert len(forks) == 1
        assert got.tobytes() == want.tobytes()

    def test_failure_in_a_child_is_the_serial_one(self, forks, cpus):
        # OneBad's last path, in the child's block, is inadmissible at once;
        # the parent's block succeeds, and the serial rerun raises
        policies = [ConstantPolicy(0.5, GP), ConstantPolicy(1.0, GP), OneBad(2.0)]
        with pytest.raises(ValueError, match="inadmissible") as serial:
            self.run(cpus, 1, policies, 2797)
        forks.clear()
        with pytest.raises(ValueError, match="inadmissible") as split:
            self.run(cpus, 2, policies, 2797)
        assert len(forks) == 1
        assert str(split.value) == str(serial.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_steps_the_block_here(self, monkeypatch, cpus):
        calls = []

        def no_fork():
            calls.append(1)
            raise OSError(errno.EAGAIN, "no process to spare")

        policies = self.policies()
        want = self.run(cpus, 1, policies, 2797)
        monkeypatch.setattr(os, "fork", no_fork)
        assert self.run(cpus, 2, policies, 2797).tobytes() == want.tobytes()
        assert calls == [1]
