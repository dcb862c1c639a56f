import numpy as np
import pytest

from gbsdelab import gbsde, gsim, pde
from gbsdelab.envelope import Modulus, ScalarGenerator
from gbsdelab.expr import evaluate
from gbsdelab.gfunction import GParams
from gbsdelab.gbsde import (
    approximation_ladder,
    barrier_problems,
    compare,
    extract_triple,
    gap_constant,
    problem_growth_L,
    solve_exact,
)
from gbsdelab.gsim import ConstantPolicy, euler_forward, simulate_paths
from gbsdelab.pde import (
    CoefficientSet,
    PdeProblem,
    build_grid,
    eval_u,
    eval_u_batch,
    solve,
)

GP = GParams(0.5, 1.0)
ZERO = ScalarGenerator.from_text("0", 0.0, Modulus("linear", c=1.0, growth_L=1.0))


def problem(phi="x*x", f=ZERO, g=ZERO, lip_z=0.0, T=1.0, growth_q=2):
    coeffs = CoefficientSet.from_text("0", "0", "1", phi, growth_q=growth_q)
    return PdeProblem(coeffs, f, g, GP, T, lip_z)


SQRT_F = ScalarGenerator.from_text(
    "-sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=0.5)
)


# (body, modulus, lip_z): z-free, linear c <= 2, linear 2 < c <= 8, power in z,
# x and z
LIP_Z_CASES = [
    ("x+y", Modulus("linear", c=1.0), 0.0),
    ("-0.5*abs(z)", Modulus("linear", c=0.5, growth_L=0.5), 0.5),
    ("min(4*abs(z),1)", Modulus("linear", c=4.0, growth_L=1.0), 4.0),
    ("-sqrt(abs(z))", Modulus("power", c=1.0, alpha=0.5, growth_L=0.5), None),
    ("0.5*x-sqrt(abs(z))", Modulus("power", c=1.0, alpha=0.5, growth_L=0.5), None),
]


@pytest.mark.parametrize("n", [2.0, 8.0])
@pytest.mark.parametrize("body, modulus, lip_z", LIP_Z_CASES)
def test_lip_z_rule(body, modulus, lip_z, n):
    gen = ScalarGenerator.from_text(body, 0.0, modulus)
    assert gen.lip_z == lip_z
    prob = problem(f=gen, lip_z=0.75)
    assert prob.lam_z(gen) == (0.75 if lip_z is None else lip_z)
    want = n if lip_z is None else min(lip_z, n)
    for side in ("lower", "upper"):
        level = gbsde.envelope_problem(prob, n, side)
        assert (level.f.mode == "passthrough") == (lip_z is not None and lip_z <= n)
        assert level.lam_z(level.f) == level.f.lip_z == want


class TestGapConstant:
    def test_zero_horizon(self):
        assert gap_constant(1.0, GP, 0.0) == 2.0

    def test_unit(self):
        assert gap_constant(1.0, GP, 1.0) == pytest.approx(2.0 * np.e**2)

    def test_l_two(self):
        assert gap_constant(2.0, GP, 0.0) == 1.0

    def test_requires_positive_l(self):
        with pytest.raises(ValueError):
            gap_constant(0.0, GP, 1.0)


class TestApproximationLadder:
    def test_lipschitz_generator_collapses(self):
        f = ScalarGenerator.from_text(
            "-0.5*abs(z)", 0.0, Modulus("linear", c=0.5, growth_L=0.5)
        )
        prob = problem(f=f, lip_z=0.5)
        grid = build_grid(prob, -4.0, 4.0, 201)
        lad = approximation_ladder(prob, [1.0, 2.0], grid)
        assert max(lad.gap_report) <= 1e-9  # envelopes equal the generator

    def test_zero_generators_match_plain_solve(self):
        prob = problem()
        grid = build_grid(prob, -4.0, 4.0, 201)
        lad = approximation_ladder(prob, [2.0, 4.0], grid)
        plain = solve(prob, grid)
        for lo, up in zip(lad.lower_solutions, lad.upper_solutions):
            assert np.array_equal(lo.values, plain.values)
            assert np.array_equal(up.values, plain.values)

    def test_gaps_decrease_for_rough_generator(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 201)
        lad = approximation_ladder(prob, [1.0, 2.0, 4.0], grid)
        assert lad.gap_report[0] > lad.gap_report[1] > lad.gap_report[2] > 0
        for gap, bound in zip(lad.gap_report, lad.bound_report):
            assert gap <= bound + 2 * lad.tolerance

    def test_levels_must_increase(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -2.0, 2.0, 101)
        with pytest.raises(ValueError):
            approximation_ladder(prob, [2.0, 2.0], grid)

    def test_levels_must_exceed_growth(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -2.0, 2.0, 101)
        with pytest.raises(ValueError):
            approximation_ladder(prob, [0.25, 2.0], grid)

    def test_stack_equals_level_solves(self):
        prob = problem(f=SQRT_F, g=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 101)
        levels = [1.0, 2.0, 4.0]
        lad = approximation_ladder(prob, levels, grid)
        top = gbsde._level_grid(prob, levels[-1], grid)
        L = problem_growth_L(prob)
        for i, n in enumerate(levels):
            lo, up, gap, bound = gbsde._solve_level(prob, L, n, top)
            for got, want in ((lad.lower_solutions[i], lo), (lad.upper_solutions[i], up)):
                assert got.grid == want.grid == top
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(got.times, want.times)
                assert got.fingerprint == want.fingerprint
            assert lad.gap_report[i] == gap
            assert lad.bound_report[i] == bound
        assert lad.tolerance == gbsde.solver_tolerance(top, lo)

    def test_sandwich_across_levels(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 201)
        lad = approximation_ladder(prob, [1.0, 2.0, 4.0], grid)
        core = grid.core_mask()
        tol = lad.tolerance
        for i in range(len(lad.levels) - 1):
            lo_n = lad.lower_solutions[i].values[:, core]
            lo_n1 = lad.lower_solutions[i + 1].values[:, core]
            up_n = lad.upper_solutions[i].values[:, core]
            up_n1 = lad.upper_solutions[i + 1].values[:, core]
            assert np.all(lo_n <= lo_n1 + tol)
            assert np.all(up_n1 <= up_n + tol)
            assert np.all(lo_n <= up_n1 + tol)


class TestSolveExact:
    def test_lipschitz_any_target(self):
        f = ScalarGenerator.from_text(
            "-0.5*abs(z)", 0.0, Modulus("linear", c=0.5, growth_L=0.5)
        )
        prob = problem(f=f, lip_z=0.5)
        grid = build_grid(prob, -4.0, 4.0, 201)
        ex = solve_exact(prob, grid, 1e-6)
        assert ex.measured_gap <= 1e-6
        assert ex.level == 2 * problem_growth_L(prob)

    def test_zero_target_rejected(self):
        prob = problem()
        grid = build_grid(prob, -2.0, 2.0, 101)
        with pytest.raises(ValueError):
            solve_exact(prob, grid, 0.0)

    def test_unreachable_target(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 101)
        with pytest.raises(RuntimeError, match="refine"):
            solve_exact(prob, grid, 1e-12, max_doublings=2)

    def test_level_sequences_agree(self):
        # uniqueness proxy: different admissible level ladders give the
        # same limit within the certified gaps
        prob = problem(f=SQRT_F, lip_z=1.0)
        # dx small enough that no extra dissipation is needed at level 20
        grid = build_grid(prob, -4.0, 4.0, 401)
        lad_a = approximation_ladder(prob, [4.0, 8.0, 16.0], grid)
        lad_b = approximation_ladder(prob, [5.0, 10.0, 20.0], grid)
        core = grid.core_mask()
        xs_core = grid.xs[core]
        u_a, u_b = lad_a.lower_solutions[-1], lad_b.lower_solutions[-1]
        d = max(
            float(np.max(np.abs(
                eval_u_batch(u_a, t, xs_core) - eval_u_batch(u_b, t, xs_core)
            )))
            for t in np.linspace(0.0, 1.0, 11)
        )
        assert d <= lad_a.gap_report[-1] + lad_b.gap_report[-1] + 1e-6


class TestExtractTriple:
    def test_constant_terminal(self):
        prob = problem(phi="7")
        grid = build_grid(prob, -8.0, 8.0, 401)
        sol = solve(prob, grid)
        ens = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 1e-2, 20, 3)
        euler_forward(prob.coeffs, ens, 0.0)
        tri = extract_triple(sol, ens, prob)
        assert np.allclose(tri.Y, 7.0, atol=1e-9)
        assert np.allclose(tri.Z, 0.0, atol=1e-9)
        assert np.allclose(tri.K, 0.0, atol=1e-9)

    def test_square_terminal_k_law(self):
        # Y = B^2 + shs (T - t), Z = 2B, K = QV - shs t
        prob = problem()
        grid = build_grid(prob, -8.0, 8.0, 801)
        sol = solve(prob, grid)
        ens = simulate_paths(ConstantPolicy(0.5, GP), GP, 0.0, 1.0, 1e-3, 100, 4)
        euler_forward(prob.coeffs, ens, 0.0)
        tri = extract_triple(sol, ens, prob)
        scale = 1.0 + np.max(np.abs(tri.Y)) + np.max(np.abs(tri.Z))
        tol = 5.0 * (grid.dx + np.sqrt(ens.dt)) * scale
        want_k = ens.QV - GP.sigma_high_sq * ens.times[None, :]
        assert np.max(np.abs(tri.K - want_k)) <= tol
        assert np.max(np.abs(tri.Z - 2 * ens.B)) <= tol
        assert np.all(tri.K[:, 0] == 0.0)

    def test_terminal_consistency(self):
        prob = problem()
        grid = build_grid(prob, -8.0, 8.0, 801)
        sol = solve(prob, grid)
        ens = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 1.0, 1e-2, 100, 5)
        euler_forward(prob.coeffs, ens, 0.0)
        tri = extract_triple(sol, ens, prob)
        assert np.max(np.abs(tri.Y[:, -1] - ens.X[:, -1] ** 2)) <= 1e-3


def oracle_triple(sol, ens, prob):
    """extract_triple as first written: path-major columns, np.interp reads."""
    X, xs, dx = ens.X, sol.grid.xs, sol.grid.dx
    n, m = X.shape[0], ens.n_steps
    Y, Z = np.empty((n, m + 1)), np.empty((n, m + 1))
    for k in range(m + 1):
        t = min(ens.times[k], float(sol.times[-1]))
        layer = pde._blend_layer(sol, t)
        x = X[:, k]
        Y[:, k] = np.interp(x, xs, layer)
        sigma = evaluate(prob.coeffs.sigma, {"t": t, "x": x})
        Z[:, k] = sigma * (
            (np.interp(x + dx, xs, layer) - np.interp(x - dx, xs, layer)) / (2.0 * dx))
    K = np.zeros((n, m + 1))
    acc = np.zeros(n)
    for k in range(m):
        t = ens.times[k]
        args = (t, X[:, k], Y[:, k], Z[:, k])
        fk = np.broadcast_to(np.asarray(prob.f.eval_grid(*args), dtype=float), (n,))
        gk = np.broadcast_to(np.asarray(prob.g.eval_grid(*args), dtype=float), (n,))
        acc = (acc + fk * ens.dt + gk * (ens.QV[:, k + 1] - ens.QV[:, k])
               - Z[:, k] * (ens.B[:, k + 1] - ens.B[:, k]))
        K[:, k + 1] = Y[:, k + 1] - Y[:, 0] + acc
    return Y, Z, K


class TestTripleOracle:
    def test_matches_path_major_loop(self):
        # generators in y and z, so f and g enter K; the run crosses the
        # batch boundary of simulate_paths
        f = ScalarGenerator.from_text(
            "-0.5*abs(z)+0.1*y", 0.1, Modulus("linear", c=0.5, growth_L=0.5))
        g = ScalarGenerator.from_text(
            "0.2*z", 0.0, Modulus("linear", c=0.2, growth_L=0.2))
        prob = problem(phi="x*x*x", f=f, g=g, lip_z=0.5)
        sol = solve(prob, build_grid(prob, -6.0, 6.0, 121))
        ens = simulate_paths(gsim.FeedbackPolicy(sol, prob), GP, 0.0, 0.04, 0.01,
                             gsim._BATCH + 3, 21)
        euler_forward(prob.coeffs, ens, 0.4)
        tri = extract_triple(sol, ens, prob)
        for got, want in zip((tri.Y, tri.Z, tri.K), oracle_triple(sol, ens, prob)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.any(tri.K[:, -1] != 0.0)


def test_triple_blends_once_per_time_point(monkeypatch):
    prob = problem(phi="x*x*x")
    sol = solve(prob, build_grid(prob, -8.0, 8.0, 161))
    ens = simulate_paths(ConstantPolicy(0.7, GP), GP, 0.0, 0.05, 0.01, 20, 8)
    euler_forward(prob.coeffs, ens, 0.5)
    calls = []
    blend = pde._blend_layer
    monkeypatch.setattr(pde, "_blend_layer", lambda *a: calls.append(a[1]) or blend(*a))
    extract_triple(sol, ens, prob)
    assert len(calls) == ens.n_steps + 1


class TestWorstCaseControl:
    def test_convex(self):
        prob = problem()
        grid = build_grid(prob, -8.0, 8.0, 401)
        pol = gsim.FeedbackPolicy(solve(prob, grid), prob)
        assert np.all(pol.variance(0.3, np.linspace(-3, 3, 7)) == GP.sigma_high_sq)

    def test_concave(self):
        prob = problem(phi="-x*x")
        grid = build_grid(prob, -8.0, 8.0, 401)
        pol = gsim.FeedbackPolicy(solve(prob, grid), prob)
        assert np.all(pol.variance(0.3, np.linspace(-3, 3, 7)) == GP.sigma_low_sq)

    def test_linear_tie_break(self):
        prob = problem(phi="x")
        grid = build_grid(prob, -8.0, 8.0, 401)
        pol = gsim.FeedbackPolicy(solve(prob, grid), prob)
        assert np.all(pol.variance(0.3, np.zeros(3)) == GP.sigma_high_sq)

    def test_flat_k_under_worst_case(self):
        prob = problem()
        grid = build_grid(prob, -8.0, 8.0, 801)
        sol = solve(prob, grid)
        pol = gsim.FeedbackPolicy(sol, prob)
        ens = simulate_paths(pol, GP, 0.0, 1.0, 1e-3, 100, 6)
        euler_forward(prob.coeffs, ens, 0.0)
        tri = extract_triple(sol, ens, prob)
        scale = 1.0 + np.max(np.abs(tri.Y)) + np.max(np.abs(tri.Z))
        tol = 5.0 * (grid.dx + np.sqrt(ens.dt)) * scale
        assert np.max(np.abs(tri.K[:, -1])) <= tol


class TestBarriers:
    def test_barriers_bracket_ladder(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 201)
        lad = approximation_ladder(prob, [1.0, 2.0], grid)
        lo_prob, hi_prob = barrier_problems(prob)
        lo_grid = build_grid(lo_prob, -4.0, 4.0, 201)
        u_lo = solve(lo_prob, lo_grid)
        u_hi = solve(hi_prob, lo_grid)
        core = grid.core_mask()
        xs_core = grid.xs[core]
        tol = lad.tolerance
        # barrier and ladder time grids differ; compare at sampled times
        for t in np.linspace(0.0, 1.0, 11):
            lo_bar = eval_u_batch(u_lo, t, xs_core)
            hi_bar = eval_u_batch(u_hi, t, xs_core)
            for lo, up in zip(lad.lower_solutions, lad.upper_solutions):
                assert np.all(lo_bar <= eval_u_batch(lo, t, xs_core) + tol)
                assert np.all(eval_u_batch(up, t, xs_core) <= hi_bar + tol)


class TestCompare:
    def test_identical_problems(self):
        f = ScalarGenerator.from_text(
            "-0.5*abs(z)", 0.0, Modulus("linear", c=0.5, growth_L=0.5)
        )
        p1 = problem(f=f, lip_z=0.5)
        p2 = problem(f=f, lip_z=0.5)
        grid = build_grid(p1, -4.0, 4.0, 201)
        rep = compare(p1, p2, grid)
        assert rep.min_core_diff == pytest.approx(0.0, abs=1e-12)
        assert rep.passed

    def test_constant_bump_shifts_by_time_to_go(self):
        one = ScalarGenerator.from_text("1", 0.0, Modulus("linear", c=1.0))
        p1 = problem()
        p2 = problem(f=one)
        grid = build_grid(p1, -4.0, 4.0, 201)
        rep = compare(p1, p2, grid)
        assert rep.passed
        u1 = solve(p1, grid)
        u2 = solve(p2, grid)
        core = grid.core_mask()
        diff = u2.values[:, core] - u1.values[:, core]
        want = (p1.T - u1.times)[:, None]
        assert np.max(np.abs(diff - want)) <= 1e-3

    def test_terminal_shift_exact(self):
        p1 = problem(phi="x*x")
        p2 = problem(phi="x*x+1")
        grid = build_grid(p1, -4.0, 4.0, 201)
        u1 = solve(p1, grid)
        u2 = solve(p2, grid)
        assert np.max(np.abs(u2.values - u1.values - 1.0)) <= 1e-9

    def test_coefficient_mismatch_rejected(self):
        p1 = problem()
        p2 = PdeProblem(
            CoefficientSet.from_text("1", "0", "1", "x*x"), ZERO, ZERO, GP, 1.0, 0.0
        )
        grid = build_grid(p1, -2.0, 2.0, 101)
        with pytest.raises(ValueError, match="coefficient b"):
            compare(p1, p2, grid)

    def test_terminal_order_violation_witnessed(self):
        p1 = problem(phi="x*x")
        p2 = problem(phi="x*x-1")
        grid = build_grid(p1, -2.0, 2.0, 101)
        with pytest.raises(ValueError, match="terminal ordering"):
            compare(p1, p2, grid)

    def test_generator_order_violation_witnessed(self):
        one = ScalarGenerator.from_text("1", 0.0, Modulus("linear", c=1.0))
        p1 = problem(f=one)
        p2 = problem()
        grid = build_grid(p1, -2.0, 2.0, 101)
        with pytest.raises(ValueError, match="f ordering"):
            compare(p1, p2, grid)


def _count_solves(monkeypatch):
    """Record (fingerprint, grid) of every pde.solve call from now on."""
    calls = []
    real = pde.solve

    def counting(problem, grid):
        calls.append((problem.fingerprint(), grid))
        return real(problem, grid)

    monkeypatch.setattr(pde, "solve", counting)
    return calls


def _resolved_min_diff(p1, p2, n, grid):
    """compare's min core difference from a fresh solve of both lower
    envelope problems at level n on their joint grid."""
    lo1 = gbsde.envelope_problem(p1, n, "lower")
    lo2 = gbsde.envelope_problem(p2, n, "lower")
    grid_n = pde.refine_grid(grid, lo1, lo2)
    core = grid_n.core_mask()
    diff = solve(lo2, grid_n).values[:, core] - solve(lo1, grid_n).values[:, core]
    return float(np.min(diff)), (lo2.fingerprint(), grid_n)


class TestCompareLevelWalk:
    def test_same_level_pair_reuses_both(self, monkeypatch):
        one = ScalarGenerator.from_text("1", 0.0, Modulus("linear", c=1.0))
        p1, p2 = problem(), problem(f=one)
        grid = build_grid(p1, -4.0, 4.0, 201)
        calls = _count_solves(monkeypatch)
        rep = compare(p1, p2, grid)
        monkeypatch.undo()
        assert rep.level1 == rep.level2
        assert len(calls) == 4  # lower and upper of each side, once
        want, _ = _resolved_min_diff(p1, p2, rep.level1, grid)
        assert rep.min_core_diff == want

    def test_only_the_laggard_is_resolved(self, monkeypatch):
        p1, p2 = problem(f=SQRT_F, lip_z=1.0), problem()
        grid = build_grid(p1, -4.0, 4.0, 101)
        calls = _count_solves(monkeypatch)
        rep = compare(p1, p2, grid)
        monkeypatch.undo()
        assert rep.level1 > rep.level2
        want, laggard = _resolved_min_diff(p1, p2, rep.level1, grid)
        # both searches start at level 1 and solve two problems per level
        tried = round(np.log2(rep.level1)) + 1 + round(np.log2(rep.level2)) + 1
        assert len(calls) == 2 * tried + 1
        assert calls[-1] == laggard
        assert len(set(calls)) == len(calls)
        assert rep.min_core_diff == want

    def test_solve_exact_through_module_attribute(self, monkeypatch):
        calls = []
        real = gbsde.solve_exact

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(gbsde, "solve_exact", counting)
        p1 = problem()
        p2 = problem(phi="x*x+1")
        compare(p1, p2, build_grid(p1, -4.0, 4.0, 101))
        assert calls == [p1, p2]
