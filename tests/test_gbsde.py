import contextlib
import os

import numpy as np
import pytest

import path_oracles as oracles
from barriers import barrier_problems
from gbsdelab import gbsde, gsim, pde
from gbsdelab.envelope import EnvelopeGenerator, Modulus, ScalarGenerator
from gbsdelab.expr import evaluate
from gbsdelab.gfunction import GParams
from gbsdelab.gbsde import (
    approximation_ladder,
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
# Lipschitz in z: its envelopes pass it through at every level above 0.5
LIP_F = ScalarGenerator.from_text(
    "-0.5*abs(z)", 0.0, Modulus("linear", c=0.5, growth_L=0.5)
)
# 4-Lipschitz in z: a lattice envelope below level 4, passed through from 4 on
CAPPED_F = ScalarGenerator.from_text(
    "min(4*abs(z),1)", 0.0, Modulus("linear", c=4.0, growth_L=1.0)
)


def _same_bits(a, b):
    return a.grid == b.grid and all(
        np.array_equal(x.view(np.int64), y.view(np.int64))
        for x, y in ((a.values, b.values), (a.times, b.times)))


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
    passes = lip_z is not None and lip_z <= n
    for side in ("lower", "upper"):
        level = gbsde.envelope_problem(prob, n, side)
        # the envelope that passes gen through is gen itself, and a problem
        # whose f and g both pass through is the base problem
        assert (level.f is gen) == passes
        assert (level is prob) == passes
        assert passes or isinstance(level.f, EnvelopeGenerator)
        assert level.lam_z(level.f) == level.f.lip_z == want


class TestFingerprint:
    """PdeProblem.fingerprint is a hashable structural key: equal for equal
    trees and parameters, whatever objects hold them."""

    def test_rebuilt_envelope_problems_share_a_key(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        a, b = (gbsde.envelope_problem(prob, 4.0, "lower") for _ in range(2))
        assert isinstance(a.f, EnvelopeGenerator) and a.f is not b.f
        assert a.fingerprint() == b.fingerprint()
        assert len({a.fingerprint(), b.fingerprint()}) == 1

    def test_side_and_level_are_in_the_key(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        keys = {gbsde.envelope_problem(prob, n, side).fingerprint()
                for n in (4.0, 8.0) for side in ("lower", "upper")}
        assert len(keys) == 4 and prob.fingerprint() not in keys

    def test_pass_through_level_is_the_base_key(self):
        prob = problem(f=LIP_F)
        for side in ("lower", "upper"):
            assert gbsde.envelope_problem(prob, 1.0, side).fingerprint() == prob.fingerprint()

    def test_parsed_texts_and_parameters(self):
        # two parses of one text are one key; any other part is another
        assert problem(f=LIP_F).fingerprint() == problem(f=ScalarGenerator.from_text(
            "-0.5*abs(z)", 0.0, Modulus("linear", c=0.5, growth_L=0.5))).fingerprint()
        keys = {p.fingerprint() for p in (
            problem(), problem(phi="x*x+1"), problem(f=LIP_F), problem(g=LIP_F),
            problem(lip_z=1.0), problem(T=0.5))}
        assert len(keys) == 6


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

    def test_no_levels(self):
        prob = problem(f=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -2.0, 2.0, 101)
        assert approximation_ladder(prob, [], grid) == gbsde.Ladder((), (), (), (), (), (), 0.0)

    def test_stack_equals_level_solves(self):
        prob = problem(f=SQRT_F, g=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 101)
        levels = [1.0, 2.0, 4.0]
        lad = approximation_ladder(prob, levels, grid)
        top = lad.lower_solutions[-1].grid
        L = problem_growth_L(prob)
        for i, n in enumerate(levels):
            # solve_exact's stack of level n alone
            (lo,), (up,) = gbsde._level_pairs(prob, (n,), top)
            for got, want in ((lad.lower_solutions[i], lo), (lad.upper_solutions[i], up)):
                assert got.grid == want.grid == top
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(got.times, want.times)
            assert lad.gap_report[i] == gbsde._core_gap(lo, up)
            assert lad.bound_report[i] == gbsde._level_bound(prob, L, n)
        assert lad.tolerance == gbsde.solver_tolerance(lo)

    @pytest.mark.parametrize("f, g, levels, rows", [
        (LIP_F, ZERO, [1.0, 2.0], 1),  # every problem passes f and g through
        (CAPPED_F, ZERO, [2.0, 8.0], 3),  # lattice at 2, passthrough at 8
        (LIP_F, SQRT_F, [1.0, 2.0], 4),  # f passes through, g takes the lattice
        # a Modulus holding lists makes the generator unhashable
        (ScalarGenerator.from_text("-sqrt(abs(z))", 0.0, Modulus(
            "tabulated", rs=[0.0, 1.0, 2.0], values=[0.0, 1.0, 1.5])), ZERO, [2.0, 4.0], 4),
    ])
    def test_stack_holds_each_distinct_problem_once(self, monkeypatch, f, g, levels, rows):
        prob = problem(f=f, g=g, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 101)
        stacked = []
        real = pde.solve_stack

        def recording(problems, grid):
            problems = tuple(problems)
            stacked.append(len(problems))
            return real(problems, grid)

        monkeypatch.setattr(pde, "solve_stack", recording)
        lad = approximation_ladder(prob, levels, grid)
        monkeypatch.undo()
        assert stacked == [rows]
        top = lad.lower_solutions[-1].grid
        for n, lo, up in zip(levels, lad.lower_solutions, lad.upper_solutions):
            for side, sol in (("lower", lo), ("upper", up)):
                assert _same_bits(sol, solve(gbsde.envelope_problem(prob, n, side), top))

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

    def test_certificate_fails_where_a_side_moves_the_wrong_way(self):
        # x^6/6 solves this problem exactly; on 601 nodes the dissipation
        # is on at level 32, whose upper solution rises above level 16's
        # on the core by more than the tolerance (test_cli runs the same)
        f = ScalarGenerator.from_text(
            "-2.5*pow(abs(z),0.8)", 0.0, Modulus("power", c=2.5, alpha=0.8, growth_L=2.5)
        )
        prob = problem("x*x*x*x*x*x/6", f=f, lip_z=2.5)
        grid = build_grid(prob, -6.0, 6.0, 601, core_fraction=0.25)
        lad = approximation_ladder(prob, [4.0, 8.0, 16.0, 32.0], grid)
        assert lad.passed == (True, True, True, False)
        tol = lad.tolerance
        # every gap is certified and none grows: only the per-side rule fails
        for gap, bound in zip(lad.gap_report, lad.bound_report):
            assert gbsde._certified(gap, bound, tol)
        assert all(b <= a for a, b in zip(lad.gap_report, lad.gap_report[1:]))
        core = grid.core_mask()
        lo16, lo32, up16, up32 = (sols[i].values[:, core] for sols in
                                  (lad.lower_solutions, lad.upper_solutions) for i in (2, 3))
        assert np.all(lo16 <= lo32 + tol)
        assert not np.all(up32 <= up16 + tol)


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

    @pytest.mark.parametrize("f, solves", [
        (LIP_F, [1]),  # both sides pass f through: one solve
        (CAPPED_F, [2, 1]),  # lattice at level 2, passthrough at level 4
    ])
    def test_one_solve_per_distinct_problem(self, monkeypatch, f, solves):
        prob = problem(f=f, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 201)
        calls = _count_solves(monkeypatch)
        ex = solve_exact(prob, grid, 1e-6)
        monkeypatch.undo()
        assert len(calls) == sum(solves)
        assert ex.level == gbsde.level_base(problem_growth_L(prob)) * 2 ** (len(solves) - 1)
        assert ex.upper_solution is ex.solution
        upper = gbsde.envelope_problem(prob, ex.level, "upper")
        assert _same_bits(ex.upper_solution, solve(upper, grid))
        assert ex.measured_gap == 0.0

    def test_lattice_levels_solve_both_sides(self, monkeypatch):
        prob = problem(f=SQRT_F, lip_z=1.0)
        grid = build_grid(prob, -4.0, 4.0, 101)
        calls = _count_solves(monkeypatch)
        ex = solve_exact(prob, grid, 0.05)
        monkeypatch.undo()
        tried = round(np.log2(ex.level / gbsde.level_base(problem_growth_L(prob)))) + 1
        assert tried > 1
        assert len(calls) == 2 * tried
        assert ex.upper_solution is not ex.solution

    def test_understated_modulus_fails_certification(self):
        # the measured gap of -sqrt|z| exceeds the bound of a modulus
        # declared 1000 times too small
        liar = ScalarGenerator.from_text(
            "-sqrt(abs(z))", 0.0, Modulus("power", c=1e-3, alpha=0.5, growth_L=0.5))
        prob = problem(f=liar, lip_z=1.0)
        grid = build_grid(prob, -2.0, 2.0, 201)
        with pytest.raises(RuntimeError, match="certification failed at level n=1"):
            solve_exact(prob, grid, 0.01)

    def test_nan_bound_fails_certification(self):
        # a NaN modulus constant gives a NaN bound, which certifies nothing;
        # Modulus refuses a NaN c, so it is set past that check
        mod = Modulus("power", c=1.0, alpha=0.5, growth_L=0.5)
        object.__setattr__(mod, "c", np.nan)
        nan_c = ScalarGenerator.from_text("-sqrt(abs(z))", 0.0, mod)
        prob = problem(f=nan_c, lip_z=1.0)
        grid = build_grid(prob, -2.0, 2.0, 41)
        with pytest.raises(RuntimeError, match="certification failed at level n=1.0: "
                           "measured gap .* exceeds bound nan"):
            solve_exact(prob, grid, 0.05)

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
    def test_ensemble_past_the_horizon_raises(self):
        # the layer at T stood in for every later time
        prob = problem()
        sol = solve(prob, build_grid(prob, -8.0, 8.0, 161))
        ens = simulate_paths(ConstantPolicy(1.0, GP), GP, 0.0, 3.0, 0.1, 5, 3)
        euler_forward(prob.coeffs, ens, 0.0)
        with pytest.raises(ValueError, match="outside"):
            extract_triple(sol, ens, prob)

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
        # the lean terms against every term, on paths that pass the nodes,
        # the ends of the stencil range and +-0.0 at a stored layer (t = 0)
        # and between layers (t = 0.02)
        for name in oracles.PROBLEMS:
            sol, prob = oracles.solved(name)
            ens = simulate_paths(gsim.FeedbackPolicy(sol, prob), GP, 0.0, 0.04, 0.01,
                                 997, 22)
            euler_forward(prob.coeffs, ens, 0.4)
            states = oracles.edge_states(sol.grid)
            ens.X[:, 0] = np.resize(states, ens.n_paths)
            ens.X[:, 2] = np.resize(states[::-1], ens.n_paths)
            tri = extract_triple(sol, ens, prob)
            for want in (oracles.extract_triple(sol, ens, prob), oracle_triple(sol, ens, prob)):
                for got, w in zip((tri.Y, tri.Z, tri.K), want):
                    assert oracles.same_bits(got, w)


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

    @pytest.mark.parametrize("name, other", [
        ("T", problem(T=0.5)),
        ("gparams", PdeProblem(problem().coeffs, ZERO, ZERO, GParams(0.5, 2.0), 1.0, 0.0)),
    ])
    def test_problems_must_share(self, name, other):
        p1 = problem()
        grid = build_grid(p1, -2.0, 2.0, 101)
        with pytest.raises(ValueError, match=f"problems must share {name}"):
            compare(p1, other, grid)

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


@pytest.mark.parametrize("T, grid_T", [(0.25, 1.0), (1.0, 0.25)])
def test_level_walks_span_the_problem_horizon(T, grid_T):
    # solve_exact and the ladder step the problem's own [0, T], whatever T
    # the grid was built for
    prob = problem(T=T)
    grid = build_grid(problem(T=grid_T), -6.0, 6.0, 301)
    ex = solve_exact(prob, grid, 0.05)
    lad = approximation_ladder(prob, [1.0, 2.0], grid)
    for sol in (ex.solution, ex.upper_solution, *lad.lower_solutions, *lad.upper_solutions):
        assert sol.times[-1] == T
        assert eval_u(sol, 0.0, 0.0) == pytest.approx(GP.sigma_high_sq * T, abs=1e-6)


def test_stable_dt_runs_once_per_problem(monkeypatch):
    # one max_stable_dt call per solve_exact level and one per ladder, each
    # on its stack: the solver alone picks every time step it steps
    prob = problem(f=SQRT_F, lip_z=1.0)
    grid = build_grid(prob, -4.0, 4.0, 101)
    calls = []
    real = pde.max_stable_dt

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(pde, "max_stable_dt", counting)
    ex = solve_exact(prob, grid, 0.05)
    tried = round(np.log2(ex.level / gbsde.level_base(problem_growth_L(prob)))) + 1
    assert tried > 1
    assert len(calls) == tried and all(len(c) == 2 for c in calls)
    calls.clear()
    approximation_ladder(prob, [1.0, 2.0, 4.0], grid)
    assert len(calls) == 1 and len(calls[0]) == 2 * 3


@pytest.mark.usefixtures("same_fds")
class TestSplitLevel:
    """A level's two sides, one pde.solve_stack split in two: lower here,
    upper in a forked child, with the bytes of the serial solves."""

    @staticmethod
    def _lattice():
        prob = problem(f=SQRT_F, lip_z=1.0)
        return prob, build_grid(prob, -4.0, 4.0, 101)

    def test_bytes_match_serial(self, monkeypatch, forks, cpus):
        # a threshold of 1 splits these small pairs
        monkeypatch.setattr(pde, "_SPLIT_WORK", 1)
        prob, grid = self._lattice()
        cpus(1)
        want = solve_exact(prob, grid, 0.05)
        cpus(2)
        forks.clear()
        got = solve_exact(prob, grid, 0.05)
        tried = round(np.log2(got.level / gbsde.level_base(problem_growth_L(prob)))) + 1
        assert tried > 1
        assert len(forks) == tried
        assert (got.level, got.measured_gap) == (want.level, want.measured_gap)
        for sol, ref in ((got.solution, want.solution), (got.upper_solution, want.upper_solution)):
            assert _same_bits(sol, ref)
            assert not any(a.flags.writeable for a in (sol.values, sol.times, sol.grid.xs))

    @pytest.mark.parametrize("where, error, match", [
        # the serial rerun steps both sides: the child's error stands
        ("child", OSError, r"solve_stack: part 1 of 2 failed \(exit status 1\)"),
        ("everywhere", MemoryError, "no room for the upper side"),
    ], ids=[r"child-OSError-level n=1: part 1 of 2 failed \(exit status 1\)",
            "everywhere-MemoryError-no room for the upper side"])
    def test_failure_reruns_from_fresh_envelopes(self, monkeypatch, cpus, where, error, match):
        monkeypatch.setattr(pde, "_SPLIT_WORK", 1)
        prob, grid = self._lattice()
        parent, real = os.getpid(), pde.step_backward

        def recording(steps, fail):
            # steps gets (sides, lower f's lattice before the step, result)
            # of each step here
            def step(u, t, problems, *rest):
                sides = tuple(p.f.side for p in problems)
                here = os.getpid() == parent
                lattice = problems[0].f._lattice
                if "upper" in sides and fail(here):
                    if here:
                        steps.append((sides, lattice, None))
                    raise MemoryError("no room for the upper side")
                out = real(u, t, problems, *rest)
                if here:
                    steps.append((sides, lattice, out.tobytes()))
                return out
            return step

        steps = []
        monkeypatch.setattr(pde, "step_backward", recording(
            steps, lambda here: where == "everywhere" or not here))
        cpus(2)
        with pytest.raises(error, match=match) as err:
            solve_exact(prob, grid, 0.05)
        assert type(err.value) is error
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # the lower side here, then the serial rerun of both sides
        here = [s for s in steps if s[0] == ("lower",)]
        rerun = steps[len(here):]
        assert here and rerun and {s[0] for s in rerun} == {("lower", "upper")}
        # the lower side grew its lattice here; the rerun starts it afresh
        assert here[-1][1] is not None and rerun[0][1] is None
        # step for step, the bytes of a fresh serial solve of the level
        fresh = []
        monkeypatch.setattr(pde, "step_backward", recording(
            fresh, lambda here: where == "everywhere"))
        cpus(1)
        sides = [gbsde.envelope_problem(prob, 1.0, side) for side in ("lower", "upper")]
        with pytest.raises(MemoryError) if where == "everywhere" else contextlib.nullcontext():
            pde.solve_stack(sides, grid)
        assert [s[2] for s in rerun] == [s[2] for s in fresh]


def _count_solves(monkeypatch):
    """Record (fingerprint, grid) of every row of every pde.solve_stack
    call from now on (pde.solve included), with the grid its caller passed."""
    calls = []
    real = pde.solve_stack

    def counting(problems, grid):
        problems = tuple(problems)
        calls.extend((p.fingerprint(), grid) for p in problems)
        return real(problems, grid)

    monkeypatch.setattr(pde, "solve_stack", counting)
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
        # each side's level passes its f through: one solve serves both envelopes
        assert len(calls) == 2
        want, _ = _resolved_min_diff(p1, p2, rep.level1, grid)
        assert rep.min_core_diff == want

    def _laggard_calls(self, monkeypatch, f2):
        """pde.solve calls of compare(p1, p2) where p2, with f2, stops at a
        lower level than p1, and the laggard's (fingerprint, grid) at p1's
        level; checks compare's result against a fresh solve of both."""
        p1, p2 = problem(f=SQRT_F, lip_z=1.0), problem(f=f2, lip_z=1.0)
        grid = build_grid(p1, -4.0, 4.0, 101)
        calls = _count_solves(monkeypatch)
        rep = compare(p1, p2, grid)
        monkeypatch.undo()
        assert rep.level1 > rep.level2
        want, laggard = _resolved_min_diff(p1, p2, rep.level1, grid)
        assert rep.min_core_diff == want
        # the laggard's level-n problem is solved once: by its level walk,
        # or last, by compare
        assert laggard in calls
        assert len(set(calls)) == len(calls)
        # both searches start at level 1
        tried = tuple(round(np.log2(n)) + 1 for n in (rep.level1, rep.level2))
        return calls, laggard, tried

    def test_only_the_laggard_is_resolved(self, monkeypatch):
        # the zero generators pass through at every level, so the
        # laggard's stop-level problem is its level-n one, on the same grid
        calls, _, (tried1, tried2) = self._laggard_calls(monkeypatch, ZERO)
        # the lattice side solves two problems per level, the zero
        # generators' side one
        assert len(calls) == 2 * tried1 + tried2

    @pytest.mark.parametrize("f2", [
        # a lattice at the laggard's level: its level-n problem is new
        ScalarGenerator.from_text("-0.1*sqrt(abs(z))", 0.0, Modulus(
            "power", c=0.1, alpha=0.5, growth_L=0.5)),
        # a lattice at the laggard's level 1 that passes through at level 4:
        # its level-n problem is the base problem, which it never solved
        ScalarGenerator.from_text("min(4*abs(z),0.01)", 0.0, Modulus(
            "linear", c=4.0, growth_L=0.5)),
    ])
    def test_a_lattice_laggard_is_resolved_once(self, monkeypatch, f2):
        calls, laggard, (tried1, tried2) = self._laggard_calls(monkeypatch, f2)
        assert len(calls) == 2 * tried1 + 2 * tried2 + 1
        assert calls[-1] == laggard

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
