"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single "ACCEPTANCE #k <name>: PASS/FAIL" line; the
golden sextic problem (solve plus ladder) is shared across criteria 4,
5 and 9 through module-scoped fixtures.
"""

import json
import os

import numpy as np
import pytest

from barriers import barrier_problems
from gbsdelab import gbsde, gsim, pde
from gbsdelab.cli import main as cli_main
from gbsdelab.envelope import (
    EnvelopeGenerator,
    Modulus,
    ScalarGenerator,
    envelope_gap_bound,
)
from gbsdelab.expr import evaluate, parse
from gbsdelab.gfunction import GParams, g_value, worst_case_q

GP = GParams(0.5, 1.0)
ZERO = ScalarGenerator.from_text("0", 0.0, Modulus("linear", c=1.0, growth_L=1.0))


def _report(num, name, ok):
    print(f"ACCEPTANCE #{num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _heat_problem(phi_text):
    coeffs = pde.CoefficientSet.from_text("0", "0", "1", phi_text)
    return pde.PdeProblem(coeffs, ZERO, ZERO, GP, 1.0, 0.0)


# -- shared golden problem: Phi = x^6/6, f = -2.5*|z|^0.8 --------------------

GOLDEN_L = 2.5


@pytest.fixture(scope="module")
def golden_problem():
    f = ScalarGenerator.from_text(
        "-2.5*pow(abs(z),0.8)",
        0.0,
        Modulus("power", c=2.5, alpha=0.8, growth_L=GOLDEN_L),
    )
    coeffs = pde.CoefficientSet.from_text("0", "0", "1", "x*x*x*x*x*x/6")
    return pde.PdeProblem(coeffs, f, ZERO, GP, 1.0, GOLDEN_L)


@pytest.fixture(scope="module")
def golden_grid(golden_problem):
    return pde.build_grid(golden_problem, -6.0, 6.0, 1201, 0.25)


@pytest.fixture(scope="module")
def golden_exact(golden_problem, golden_grid):
    return gbsde.solve_exact(golden_problem, golden_grid, 0.05)


@pytest.fixture(scope="module")
def golden_ladder(golden_problem, golden_grid):
    return gbsde.approximation_ladder(
        golden_problem, [4.0, 8.0, 16.0, 32.0], golden_grid
    )


def test_01_worst_case_variance_laws():
    rng = np.random.default_rng(7)
    a = rng.uniform(-50.0, 50.0, 100_000)
    b = rng.uniform(-50.0, 50.0, 100_000)
    lam = rng.uniform(0.0, 10.0, 100_000)
    tol = 1e-12
    ga, gb = g_value(GP, a), g_value(GP, b)
    ok = bool(
        # monotone: a <= a + |b| implies G(a) <= G(a + |b|)
        np.all(ga <= g_value(GP, a + np.abs(b)) + tol)
        # subadditive and positively homogeneous
        and np.all(g_value(GP, a + b) <= ga + gb + tol)
        and np.max(np.abs(g_value(GP, lam * a) - lam * ga)) <= tol * 50 * 10
        # interval bounds, orientation flipping with the sign of a
        and np.all(ga >= 0.5 * np.minimum(GP.sigma_low_sq * a, GP.sigma_high_sq * a) - tol)
        and np.all(ga <= 0.5 * np.maximum(GP.sigma_low_sq * a, GP.sigma_high_sq * a) + tol)
        and g_value(GP, 0.0) == 0.0
        # the maximizing variance attains the value
        and np.max(np.abs(0.5 * worst_case_q(GP, a) * a - ga)) <= tol * 50
    )
    _report(1, "worst-case variance function laws", ok)


def test_02_envelope_regularization():
    gens = [
        ScalarGenerator.from_text(
            "abs(z)", 0.0, Modulus("linear", c=1.0, growth_L=1.0)
        ),
        ScalarGenerator.from_text(
            "sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=0.5)
        ),
        ScalarGenerator.from_text(
            "-2.5*pow(abs(z),0.8)",
            0.0,
            Modulus("power", c=2.5, alpha=0.8, growth_L=2.5),
        ),
        ScalarGenerator.from_text(
            "abs(z)/(1+abs(z))", 0.0, Modulus("linear", c=1.0, growth_L=1.0)
        ),
    ]
    rng = np.random.default_rng(11)
    zs = rng.uniform(-8.0, 8.0, 10_000)
    zs2 = rng.uniform(-8.0, 8.0, 10_000)
    ok = True
    for gen in gens:
        L = gen.growth_L
        fv = np.broadcast_to(
            np.asarray(gen.eval_grid(0.0, 0.0, 0.0, zs), dtype=float), zs.shape
        )
        prev_lo, prev_up = None, None
        for n in (2 * L, 4 * L, 8 * L):
            lo = EnvelopeGenerator(gen, n, "lower")
            up = EnvelopeGenerator(gen, n, "upper")
            lov = lo.eval_grid(0.0, 0.0, 0.0, zs)
            upv = up.eval_grid(0.0, 0.0, 0.0, zs)
            slack = lo.interp_error_bound(zs) + up.interp_error_bound(zs) + 1e-9
            gap = envelope_gap_bound(gen, L, n)
            ok = ok and bool(
                # sandwich and gap bound
                np.all(lov <= fv + slack)
                and np.all(fv <= upv + slack)
                and np.all(fv - lov <= gap + slack)
                and np.all(upv - fv <= gap + slack)
                # n-Lipschitz on sampled pairs
                and np.all(
                    np.abs(lov - lo.eval_grid(0.0, 0.0, 0.0, zs2))
                    <= n * np.abs(zs - zs2) + 2 * slack
                )
            )
            # monotone in the level: lower up, upper down
            if prev_lo is not None:
                ok = ok and bool(
                    np.all(prev_lo <= lov + slack)
                    and np.all(upv <= prev_up + slack)
                )
            prev_lo, prev_up = lov, upv
    _report(2, "envelope regularization suite", ok)


def test_03_closed_form_values():
    # sigma_low_sq=0.5, sigma_high_sq=1, T=1, domain [-4,4], core [-2,2]
    def u00(phi_text):
        prob = _heat_problem(phi_text)
        grid = pde.build_grid(prob, -4.0, 4.0, 801, 0.5)
        return pde.eval_u(pde.solve(prob, grid), 0.0, 0.0)

    ok_sq = abs(u00("x*x") - 1.0) <= 5e-3
    ok_neg = abs(u00("0-x*x") - (-0.5)) <= 5e-3
    ok_quartic = abs(u00("x*x*x*x") - 3.0) <= 2e-2

    # convergence order on a padded domain so the core is boundary-clean
    def quartic_err(nx):
        prob = _heat_problem("x*x*x*x")
        grid = pde.build_grid(prob, -8.0, 8.0, nx, 0.25)
        sol = pde.solve(prob, grid)
        core = grid.core_mask()
        xs = grid.xs[core]
        err = 0.0
        for i, t in enumerate(sol.times):
            tau = 1.0 - t
            ref = xs**4 + 6.0 * xs**2 * tau + 3.0 * tau**2
            err = max(err, float(np.max(np.abs(sol.values[i][core] - ref))))
        return err

    ratio = quartic_err(401) / quartic_err(801)
    _report(
        3,
        "closed-form values and convergence order",
        ok_sq and ok_neg and ok_quartic and ratio >= 1.7,
    )


def test_04_golden_sextic_solution(golden_exact, golden_grid):
    ex = golden_exact
    core = golden_grid.core_mask()
    xs = golden_grid.xs[core]
    err = 0.0
    for i, t in enumerate(ex.solution.times):
        err = max(
            err,
            float(np.max(np.abs(ex.solution.values[i][core] - xs**6 / 6.0))),
        )
    ok = err <= 0.05 and ex.measured_gap <= ex.bound + 2.0 * ex.tolerance
    _report(4, "golden sextic solution within target", ok)


def test_05_envelope_ladder_sandwich(golden_ladder):
    lad = golden_ladder
    tol = lad.tolerance
    core = lad.lower_solutions[0].grid.core_mask()
    ok = True
    for i in range(len(lad.levels)):
        lo, up = lad.lower_solutions[i], lad.upper_solutions[i]
        ok = ok and bool(np.all(lo.values[:, core] <= up.values[:, core] + tol))
        ok = ok and lad.gap_report[i] <= lad.bound_report[i] + 2.0 * tol
        if i > 0:
            prev_lo = lad.lower_solutions[i - 1]
            prev_up = lad.upper_solutions[i - 1]
            ok = ok and bool(
                np.all(prev_lo.values[:, core] <= lo.values[:, core] + tol)
                and np.all(up.values[:, core] <= prev_up.values[:, core] + tol)
            )
            ok = ok and lad.gap_report[i] < lad.gap_report[i - 1]
    _report(5, "ladder sandwich and gap decay", ok)


def test_06_comparison_ordering():
    one = ScalarGenerator.from_text("1", 0.0, Modulus("linear", c=1.0))
    p1 = _heat_problem("x*x")
    p2 = pde.PdeProblem(p1.coeffs, one, ZERO, GP, 1.0, 0.0)
    grid = pde.build_grid(p1, -4.0, 4.0, 401, 0.5)
    u1, u2 = pde.solve(p1, grid), pde.solve(p2, grid)
    core = grid.core_mask()
    bump_err = max(
        float(np.max(np.abs((u2.values[i] - u1.values[i])[core] - (1.0 - t))))
        for i, t in enumerate(u1.times)
    )
    u3 = pde.solve(_heat_problem("x*x+1"), grid)
    shift_err = float(np.max(np.abs(u3.values - u1.values - 1.0)))

    rng = np.random.default_rng(42)
    a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    phi = f"{a!r}*x*x+{b!r}*x"
    mod = Modulus("linear", c=0.5, growth_L=0.5)
    f1 = ScalarGenerator.from_text("0-0.5*abs(z)", 0.0, mod)
    f2 = ScalarGenerator.from_text("abs(x)/(1+abs(x))-0.5*abs(z)", 0.0, mod)
    coeffs = pde.CoefficientSet.from_text("0", "0", "1", phi)
    q1 = pde.PdeProblem(coeffs, f1, ZERO, GP, 1.0, 0.5)
    q2 = pde.PdeProblem(coeffs, f2, ZERO, GP, 1.0, 0.5)
    rep = gbsde.compare(q1, q2, pde.build_grid(q1, -4.0, 4.0, 401, 0.5))
    ok = (
        bump_err <= 1e-3
        and shift_err <= 1e-12
        and rep.min_core_diff >= -1e-6
        and rep.passed
    )
    _report(6, "comparison ordering", ok)


def test_07_monte_carlo_consistency():
    prob = _heat_problem("x*x")
    grid = pde.build_grid(prob, -8.0, 8.0, 801, 0.5)
    sol = pde.solve(prob, grid)
    pde_val = pde.eval_u(sol, 0.0, 0.0)
    payoff = parse("x*x")
    names = ["low", "high", "feedback"]
    policies = [
        gsim.ConstantPolicy(GP.sigma_low_sq, GP),
        gsim.ConstantPolicy(GP.sigma_high_sq, GP),
        gsim.FeedbackPolicy(sol, prob),
    ]
    terminals = gsim.terminal_states(policies, GP, 0.0, 1.0, 1e-3, 100_000, 2024)
    est = gsim.estimate_terminal(payoff, list(zip(names, terminals)))
    ok = True
    for name, mean, se in est.per_policy:
        ok = ok and mean <= pde_val + 3.0 * se + 5e-3
        if name == "feedback":
            ok = ok and abs(mean - pde_val) <= 3.0 * se + 1e-2
    _report(7, "Monte Carlo consistency with the solve", ok)


def test_08_martingale_defect_residual():
    prob = _heat_problem("x*x")
    grid = pde.build_grid(prob, -8.0, 8.0, 801, 0.5)
    sol = pde.solve(prob, grid)
    dt = 1e-3
    ens = gsim.simulate_paths(
        gsim.ConstantPolicy(GP.sigma_low_sq, GP), GP, 0.0, 1.0, dt, 1000, 77
    )
    gsim.euler_forward(prob.coeffs, ens, 0.0)
    tri = gbsde.extract_triple(sol, ens, prob)
    scale = 1.0 + float(np.max(np.abs(tri.Y))) + float(np.max(np.abs(tri.Z)))
    tol = 5.0 * (grid.dx + np.sqrt(dt)) * scale
    uptick = float(np.max(tri.K - np.minimum.accumulate(tri.K, axis=1)))
    # with Phi = x^2 the defect is the quadratic-variation shortfall
    ref = ens.QV - GP.sigma_high_sq * tri.times[None, :]
    law_err = float(np.max(np.abs(tri.K - ref)))

    pol = gsim.FeedbackPolicy(sol, prob)
    ens2 = gsim.simulate_paths(pol, GP, 0.0, 1.0, dt, 1000, 78)
    gsim.euler_forward(prob.coeffs, ens2, 0.0)
    tri2 = gbsde.extract_triple(sol, ens2, prob)
    scale2 = 1.0 + float(np.max(np.abs(tri2.Y))) + float(np.max(np.abs(tri2.Z)))
    tol2 = 5.0 * (grid.dx + np.sqrt(dt)) * scale2
    flat = float(np.max(np.abs(tri2.K[:, -1])))
    ok = uptick <= tol and law_err <= tol and flat <= tol2
    _report(8, "martingale defect residual", ok)


def test_09_moment_growth_and_barriers(
    golden_problem, golden_grid, golden_exact
):
    fitted = []
    for x0 in (1, 2, 4, 8):
        payoff = parse(f"({x0}+x)*({x0}+x)")
        val = gsim.upper_expectation_pde(payoff, GP, 1.0, -8.0, 8.0, 801)
        fitted.append(val / (1.0 + x0**2))
    ratio = max(fitted) / min(fitted)

    lo_prob, hi_prob = barrier_problems(golden_problem)
    g = golden_grid
    u_lo = pde.solve(lo_prob, pde.build_grid(lo_prob, g.x_min, g.x_max, g.nx, 0.25))
    u_hi = pde.solve(hi_prob, pde.build_grid(hi_prob, g.x_min, g.x_max, g.nx, 0.25))
    core = g.core_mask()
    xs = g.xs[core]
    ex = golden_exact
    tol = ex.tolerance
    bracket = True
    for t in np.linspace(0.0, 1.0, 11):
        u = pde.eval_u_batch(ex.solution, t, xs)
        bracket = bracket and bool(
            np.all(pde.eval_u_batch(u_lo, t, xs) <= u + tol)
            and np.all(u <= pde.eval_u_batch(u_hi, t, xs) + tol)
        )
    _report(9, "moment growth and barrier bracketing", ratio <= 1.5 and bracket)


def test_10_deterministic_outputs(tmp_path):
    cfg = {
        "gparams": {"sigma_low_sq": 0.5, "sigma_high_sq": 1.0},
        "problem": {
            "Phi": "x*x",
            "f": {
                "body": "-0.5*abs(z)",
                "modulus": {"kind": "linear", "c": 0.5, "growth_L": 0.5},
            },
            "lip_z_bound": 0.5,
        },
        "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 101, "core_fraction": 0.5},
        "ladder": {"levels": [1.0, 2.0], "target_gap": 0.5},
        "mc": {"n_paths": 500, "dt": 0.01, "seed": 31,
               "policies": ["low", "high"]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    ok = True
    for experiment in ("upper-expectation", "ladder", "solve", "kcheck"):
        dirs = [str(tmp_path / f"{experiment}-{i}") for i in (0, 1)]
        for d in dirs:
            assert cli_main(["run", str(path), experiment, "--out", d]) == 0
        names = sorted(os.listdir(dirs[0]))
        ok = ok and names == sorted(os.listdir(dirs[1]))
        for name in names:
            with open(os.path.join(dirs[0], name), "rb") as fh:
                b0 = fh.read()
            with open(os.path.join(dirs[1], name), "rb") as fh:
                b1 = fh.read()
            ok = ok and b0 == b1
    # raw path ensembles are byte-identical too
    pol = gsim.ConstantPolicy(1.0, GP)
    e0 = gsim.simulate_paths(pol, GP, 0.0, 1.0, 1e-2, 1000, 5)
    e1 = gsim.simulate_paths(pol, GP, 0.0, 1.0, 1e-2, 1000, 5)
    ok = ok and e0.B.tobytes() == e1.B.tobytes() and e0.QV.tobytes() == e1.QV.tobytes()
    _report(10, "byte-identical reruns", ok)


# -- manufactured solutions: each u solves its PDE exactly --------------------

_E = "exp(-0.5*x*x)"
_SIGMA, _H = "(1+0.25*x*x/(1+x*x))", "0.2"
# (Phi, u, u_t, u_x, u_xx) of u = (1+t) exp(-x^2/2) and of
# u = exp(2(0.5-t)) exp(-x^2/2), whose u_tt is not 0
_LINEAR_T = (f"1.5*{_E}", f"(1+t)*{_E}", _E, f"(-(1+t)*x*{_E})", f"((1+t)*(x*x-1)*{_E})")
_V = f"exp(2*(0.5-t))*{_E}"
_EXP_T = (_E, _V, f"(-2*{_V})", f"(-x*{_V})", f"((x*x-1)*{_V})")


def _manufactured_problem(b, phi, u, u_t, u_x, u_xx, lip_y=0.0):
    """f = A(t,x) + lip_y*y - 0.5|z| and g = 0.25|z| on T = 0.5, where
    A = -u_t - G(sigma^2 u_xx + 2h u_x + 2g) - b u_x - lip_y*u + 0.5|sigma u_x|
    at z = sigma u_x, with G written with max as g_value computes it; so u
    solves u_t + G(sigma^2 u_xx + 2h u_x + 2g) + b u_x + f = 0, u(T) = Phi.
    The y terms are left out where lip_y is 0."""
    a = f"({_SIGMA}*{_SIGMA}*{u_xx}+2*{_H}*{u_x}+0.5*abs({_SIGMA}*{u_x}))"
    G = f"0.5*({GP.sigma_high_sq!r}*max({a},0)-{GP.sigma_low_sq!r}*max(-{a},0))"
    A = f"-{u_t}-{G}-({b})*{u_x}+0.5*abs({_SIGMA}*{u_x})"
    y = f"-{lip_y!r}*{u}+{lip_y!r}*y" if lip_y else ""
    f = ScalarGenerator.from_text(f"{A}{y}-0.5*abs(z)", lip_y,
                                  Modulus("linear", c=0.5, growth_L=0.5))
    g = ScalarGenerator.from_text("0.25*abs(z)", 0.0,
                                  Modulus("linear", c=0.25, growth_L=0.25))
    coeffs = pde.CoefficientSet.from_text(b, _H, _SIGMA, phi)
    return pde.PdeProblem(coeffs, f, g, GP, 0.5, 0.0)


# max core error over the stored layers at nx = 61/121/241, each bound
# 1.1 times the measured value (6.20e-3, 2.95e-3, 1.41e-3 with the drift;
# 1.43e-3, 3.78e-4, 9.94e-5 without; 4.22e-2, 1.09e-2, 2.77e-3 for the u
# with u_tt != 0, whose f is in y too), and the least observed order: the
# upwinded drift is first order, the rest of the step second order
@pytest.mark.parametrize("b, solution, lip_y, bounds, order", [
    ("0.5*x/(1+x*x)", _LINEAR_T, 0.0, (6.82e-3, 3.25e-3, 1.55e-3), 0.9),
    ("0", _LINEAR_T, 0.0, (1.58e-3, 4.16e-4, 1.09e-4), 1.8),
    ("0", _EXP_T, 0.3, (4.64e-2, 1.20e-2, 3.05e-3), 1.8),
], ids=["drift", "no_drift", "time"])
def test_11_manufactured_solution(b, solution, lip_y, bounds, order):
    # f and g are Lipschitz in z, so each is its own envelope from level 1
    # (= 2L) on: the walk stops there with one solution for both sides
    errors = []
    for nx in (61, 121, 241):
        problem = _manufactured_problem(b, *solution, lip_y=lip_y)
        ex = gbsde.solve_exact(problem, pde.build_grid(problem, -6.0, 6.0, nx), 0.05)
        assert ex.level == 1.0 and ex.solution is ex.upper_solution
        sol, core = ex.solution, ex.solution.grid.core_mask()
        u = evaluate(parse(solution[1]), {"t": sol.times[:, None], "x": sol.grid.xs[core]})
        errors.append(float(np.max(np.abs(sol.values[:, core] - u))))
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    print(f"errors {errors}, orders {orders}")
    _report(11, "manufactured solution",
            all(e <= bd for e, bd in zip(errors, bounds)) and bool(np.all(orders >= order)))
