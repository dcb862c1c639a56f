"""Workloads: generated configs, the stages that run them, and the checks.

A workload is a list of five stages, one for each stage metric
(solve_ref, ladder_ref, compare_ref, mc_ref, kcheck_ref).  The stages
that carry the workload's purpose run its own problem at full size; the
others run the small heat problem of probe_config, so that every
workload reports every end-to-end metric.  One round runs every stage
`repeat` times (probe stages are short, so they run several times to
give a steady median); every round of a run repeats the same inputs.

Each check compares the program's output with a value the benchmark
computes itself (closed forms, a linear ODE, a brute-force convolution)
or with a property the method must have; none compares with a stored
copy of earlier output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

GPARAMS = {"sigma_low_sq": 0.5, "sigma_high_sq": 1.0}
SIGMA_HIGH_SQ = GPARAMS["sigma_high_sq"]
SIGMA_LOW_SQ = GPARAMS["sigma_low_sq"]
T = 1.0

# The feedback check at x0 = 2 runs on fixed paths: its seed does not
# come from --seed, so it fails (or passes) the same way on every run.
KCHECK_FIXED_SEED = 20180606

PROBE_REPEAT = 5

STAGE_METRICS = ("solve_ref", "ladder_ref", "compare_ref", "mc_ref", "kcheck_ref")


@dataclass
class Stage:
    metric: str  # the end-to-end metric this stage's time goes to
    label: str  # what the stage runs, for the printed report
    run: Callable  # run(lib, out_dir) -> output; the timed part
    check: Callable  # check(lib, out_dir, output) -> list of failed checks
    known_fault: str = ""  # set when the stage fails today for a named fault
    fault_prefixes: tuple = ()  # the failure messages that fault gives
    repeat: int = 1  # executions per round

    def is_known(self, fails):
        """True when every failure is one the known fault gives.  A stage
        or check that raised gives other messages, so it never counts as
        the known fault."""
        return bool(self.known_fault and fails
                    and all(f.startswith(self.fault_prefixes) for f in fails))


@dataclass
class Workload:
    name: str
    configs: dict  # config name -> raw JSON config
    stages: list = field(default_factory=list)


# -- shared helpers ----------------------------------------------------------


def _read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _read_layers(path):
    """Parse solution_layers.csv: returns (xs, times, values)."""
    with open(path) as fh:
        fh.readline()  # schema comment
        xs = np.array(fh.readline().rstrip("\n").split(",")[1:], dtype=float)
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return xs, table[:, 0], table[:, 1:]


def _core(xs, x_min, x_max, core_fraction):
    half = 0.5 * core_fraction * (x_max - x_min)
    center = 0.5 * (x_min + x_max)
    return np.abs(xs - center) <= half + 1e-12


def _cli_stage(metric, experiment, config, check, repeat=1):
    def run(lib, out_dir):
        return lib.cli.run(lib.cfgs[config], experiment, out_dir)

    def checked(lib, out_dir, rc):
        fails = [] if rc == 0 else [f"{experiment}: exit status {rc}"]
        return fails + check(lib, out_dir)

    return Stage(metric, f"cli {experiment} [{config}]", run, checked, repeat=repeat)


# -- probe: the small heat problem that fills a workload's other stages ------


def probe_config(rng, smoke):
    """Heat problem Phi = x^2 with f = -0.5|z| (Lipschitz, so the envelope
    passes it through), and the same shifted by c (terminal) and d (f)."""
    c = round(float(rng.uniform(0.1, 0.3)), 6)
    d = round(float(rng.uniform(0.05, 0.2)), 6)
    f = {"body": "-0.5*abs(z)",
         "modulus": {"kind": "linear", "c": 0.5, "growth_L": 0.5}}
    return {
        "gparams": GPARAMS,
        "problem": {"Phi": "x*x", "f": f, "lip_z_bound": 0.5},
        "problem2": {"Phi": f"x*x+{c!r}", "f": dict(f, body=f"-0.5*abs(z)+{d!r}"),
                     "lip_z_bound": 0.5},
        "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 61 if smoke else 161,
                 "core_fraction": 0.5},
        "ladder": {"levels": [1.0, 2.0], "target_gap": 0.05},
        "mc": {"n_paths": 500 if smoke else 2000, "dt": 0.01 if smoke else 2e-3,
               "seed": int(rng.integers(1, 2**31)), "policies": ["low", "high"]},
    }


def _compare_check(raw, a):
    """min core (u2 - u1) against the linear ODE w' = a w - d, w(T) = c.

    Both problems share b, h, sigma and differ by c in Phi and by d in f,
    and f is affine in y with slope -a, so u2 - u1 = w(t) exactly; the
    explicit scheme follows w up to its Euler error, bounded here by
    T dt max|w''| exp(aT) / 2.
    """
    c = float(raw["problem2"]["Phi"].rsplit("+", 1)[1])
    d = float(raw["problem2"]["f"]["body"].rsplit("+", 1)[1])

    def w(t):
        if a == 0.0:
            return c + d * (T - t)
        return d / a + (c - d / a) * math.exp(a * (t - T))

    w_min = min(w(0.0), w(T))  # w is monotone in t
    w2_max = abs(a) * max(abs(a * w(0.0) - d), abs(a * c - d))

    def check(lib, out_dir):
        s = _read_summary(out_dir)
        dt = max(ex.solution.grid.dt for ex in lib.captured["solve_exact"])
        tol = T * dt * w2_max * math.exp(abs(a) * T) / 2.0 + 1e-6
        err = abs(s["min_core_diff"] - w_min)
        fails = [] if s["passed"] else ["compare: not passed"]
        if err > tol:
            fails.append(f"compare: min core diff {s['min_core_diff']:.9g} vs "
                         f"ODE {w_min:.9g} (|err| {err:.3g} > {tol:.3g})")
        return fails

    return check


def _solve_check(target):
    def check(lib, out_dir):
        s = _read_summary(out_dir)
        ex = lib.captured["solve_exact"][-1]
        core = ex.solution.grid.core_mask()
        gap = float(np.max(ex.upper_solution.values[:, core]
                           - ex.solution.values[:, core]))
        fails = []
        if not (s["gap"] <= target):
            fails.append(f"solve: gap {s['gap']:.6g} above target {target}")
        if abs(gap - s["gap"]) > 1e-12:
            fails.append(f"solve: reported gap {s['gap']!r} vs stored layers {gap!r}")
        return fails

    return check


def _ladder_check(reference=None):
    """Sandwich, monotone envelopes, decreasing certified gaps.

    With a reference (an exact solution in x), every level must also
    bracket it within the ladder's tolerance.
    """

    def check(lib, out_dir):
        s = _read_summary(out_dir)
        lad = lib.captured["approximation_ladder"][-1]
        tol = lad.tolerance
        core = lad.lower_solutions[0].grid.core_mask()
        xs = lad.lower_solutions[0].grid.xs[core]
        ref = None if reference is None else reference(xs)
        fails = []
        for i, n in enumerate(lad.levels):
            lo = lad.lower_solutions[i].values[:, core]
            up = lad.upper_solutions[i].values[:, core]
            gap = float(np.max(up - lo))
            if abs(gap - s["levels"][i]["gap"]) > 1e-12:
                fails.append(f"ladder n={n}: reported gap differs from layers")
            if not np.all(lo <= up + tol):
                fails.append(f"ladder n={n}: lower above upper")
            if ref is not None and not (np.all(lo <= ref + tol) and np.all(ref <= up + tol)):
                fails.append(f"ladder n={n}: does not bracket the exact solution")
            if not gap <= lad.bound_report[i] + 2.0 * tol:
                fails.append(f"ladder n={n}: gap {gap:.6g} above bound + 2 tol")
            if i > 0:
                plo = lad.lower_solutions[i - 1].values[:, core]
                pup = lad.upper_solutions[i - 1].values[:, core]
                if not np.all(plo <= lo + tol):
                    fails.append(f"ladder n={n}: lower envelope decreased")
                if not np.all(up <= pup + tol):
                    fails.append(f"ladder n={n}: upper envelope increased")
                # a generator already Lipschitz in z passes through: gap 0
                prev = lad.gap_report[i - 1]
                if not (lad.gap_report[i] < prev or prev == lad.gap_report[i] == 0.0):
                    fails.append(f"ladder n={n}: gap did not decrease")
        if not s["passed"]:
            fails.append("ladder: not passed")
        return fails

    return check


def _mc_check(policies):
    """Constant controls: E[B_T^2] = var T within 4 se.  Feedback at x0 = 0:
    within 3 se + 1e-2 of the solve.  The solve: sigma_high_sq T within 5e-3."""

    def check(lib, out_dir):
        s = _read_summary(out_dir)
        pde_val = s["pde_value"]
        fails = []
        if abs(pde_val - SIGMA_HIGH_SQ * T) > 5e-3:
            fails.append(f"mc: pde value {pde_val:.6g} vs {SIGMA_HIGH_SQ * T}")
        want = {"low": SIGMA_LOW_SQ * T, "high": SIGMA_HIGH_SQ * T}
        for p in s["policies"]:
            if p["policy"] in want:
                ok = abs(p["mc"] - want[p["policy"]]) <= 4.0 * p["se"]
            else:
                ok = abs(p["mc"] - pde_val) <= 3.0 * p["se"] + 1e-2
            if not ok:
                fails.append(f"mc {p['policy']}: mean {p['mc']:.6g} se {p['se']:.3g}")
        if [p["policy"] for p in s["policies"]] != policies:
            fails.append("mc: policies missing from the summary")
        return fails

    return check


def _kcheck_stage(metric, phi, phi_np, x0, nx, n_paths, dt, seed, known_fault=""):
    """Feedback control along Euler paths from x0, then the (Y, Z, K) triple.

    Under the worst-case feedback control the defect K stays flat, so the
    mean of K_T is about 0 and the mean of Phi(X_T) is about u(0, x0).
    """

    def run(lib, out_dir):
        pde, gsim, gbsde = lib.pde, lib.gsim, lib.gbsde
        zero = lib.envelope.ScalarGenerator.from_text(
            "0", 0.0, lib.envelope.Modulus("linear", c=1.0, growth_L=1.0))
        coeffs = pde.CoefficientSet.from_text("0", "0", "1", phi)
        gp = lib.GParams(SIGMA_LOW_SQ, SIGMA_HIGH_SQ)
        problem = pde.PdeProblem(coeffs, zero, zero, gp, T, 0.0)
        grid = pde.build_grid(problem, -8.0, 8.0, nx, 0.5)
        sol = pde.solve(problem, grid)
        policy = gsim.FeedbackPolicy(sol, problem)
        ens = gsim.simulate_paths(policy, gp, 0.0, T, dt, n_paths, seed)
        gsim.euler_forward(coeffs, ens, x0)
        tri = gbsde.extract_triple(sol, ens, problem)
        return sol, ens, tri

    def check(lib, out_dir, output):
        sol, ens, tri = output
        k_t = tri.K[:, -1]
        payoff = phi_np(ens.X[:, -1])
        u0 = lib.pde.eval_u(sol, 0.0, x0)
        se = lambda v: float(np.std(v, ddof=1) / math.sqrt(v.size))
        fails = []
        if abs(float(np.mean(k_t))) > 4.0 * se(k_t) + 0.05:
            fails.append(f"kcheck x0={x0}: mean K_T {np.mean(k_t):.4g} "
                         f"(se {se(k_t):.3g}), expected 0")
        if abs(float(np.mean(payoff)) - u0) > 4.0 * se(payoff) + 0.05:
            fails.append(f"kcheck x0={x0}: mean Phi(X_T) {np.mean(payoff):.4g} "
                         f"(se {se(payoff):.3g}) vs u(0,x0) {u0:.4g}")
        return fails

    label = f"feedback kcheck Phi={phi} x0={x0} paths={n_paths} dt={dt}"
    prefixes = (f"kcheck x0={x0}: mean K_T ", f"kcheck x0={x0}: mean Phi(X_T) ")
    return Stage(metric, label, run, check, known_fault, prefixes if known_fault else ())


def _probe_stages(raw, which, repeat=PROBE_REPEAT):
    stages = {
        "solve_ref": lambda: _cli_stage("solve_ref", "solve", "probe",
                                        _solve_check(raw["ladder"]["target_gap"])),
        "ladder_ref": lambda: _cli_stage("ladder_ref", "ladder", "probe", _ladder_check()),
        "compare_ref": lambda: _cli_stage("compare_ref", "compare", "probe",
                                          _compare_check(raw, 0.0)),
        "mc_ref": lambda: _cli_stage("mc_ref", "upper-expectation", "probe",
                                     _mc_check(raw["mc"]["policies"])),
        "kcheck_ref": lambda: _kcheck_stage(
            "kcheck_ref", "x*x", lambda x: x * x, 0.0, raw["grid"]["nx"],
            raw["mc"]["n_paths"] // 4, raw["mc"]["dt"], raw["mc"]["seed"]),
    }
    out = [stages[m]() for m in which]
    for stage in out:
        stage.repeat = repeat
    return out


def _ordered(stages):
    return sorted(stages, key=lambda s: STAGE_METRICS.index(s.metric))


# -- sextic-ladder -----------------------------------------------------------


def sextic_ladder(seed, smoke=False):
    """Phi = x^6/6, f = -2.5|z|^0.8: x^6/6 solves the PDE exactly.

    The generator is in z alone, so every envelope takes the lattice path.
    """
    rng = np.random.default_rng([seed, 1])
    x_max = 3.0 if smoke else 6.0
    raw = {
        "gparams": GPARAMS,
        "problem": {
            "Phi": "x*x*x*x*x*x/6",
            "f": {"body": "-2.5*pow(abs(z),0.8)",
                  "modulus": {"kind": "power", "c": 2.5, "alpha": 0.8, "growth_L": 2.5}},
            "lip_z_bound": 2.5,
        },
        "grid": {"x_min": -x_max, "x_max": x_max, "nx": 121 if smoke else 801,
                 "core_fraction": 0.25},
        "ladder": {"levels": [4.0, 8.0] if smoke else [4.0, 8.0, 16.0, 32.0],
                   "target_gap": 0.05},
        "reference": "x*x*x*x*x*x/6",
    }
    probe = probe_config(rng, smoke)
    g = raw["grid"]

    def golden_check(lib, out_dir):
        s = _read_summary(out_dir)
        xs, _, values = _read_layers(os.path.join(out_dir, "solution_layers.csv"))
        core = _core(xs, g["x_min"], g["x_max"], g["core_fraction"])
        err = float(np.max(np.abs(values[:, core] - xs[core] ** 6 / 6.0)))
        fails = []
        if not err <= raw["ladder"]["target_gap"]:
            fails.append(f"golden: max core error {err:.6g} above target")
        if abs(err - s["max_core_error"]) > 1e-9:
            fails.append(f"golden: reported error {s['max_core_error']!r} vs layers {err!r}")
        if not s["gap"] <= s["bound"] + 2.0 * s["tolerance"]:
            fails.append("golden: gap above bound + 2 tol")
        return fails

    stages = [
        _cli_stage("solve_ref", "golden", "sextic", golden_check),
        _cli_stage("ladder_ref", "ladder", "sextic",
                   _ladder_check(reference=lambda x: x**6 / 6.0)),
    ] + _probe_stages(probe, ("compare_ref", "mc_ref", "kcheck_ref"))
    return Workload("sextic-ladder", {"sextic": raw, "probe": probe}, _ordered(stages))


# -- xyz-generator -----------------------------------------------------------

XYZ_BODY = "-0.5*y-(1+0.5*abs(x)/(1+abs(x)))*pow(abs(z),0.5)"
XYZ_LIP_Y = 0.5
XYZ_MODULUS = {"kind": "power", "c": 1.5, "alpha": 0.5, "growth_L": 1.5}


def xyz_numpy(t, x, y, q):
    """The xyz generator written out in numpy, apart from the expression."""
    return -0.5 * y - (1.0 + 0.5 * np.abs(x) / (1.0 + np.abs(x))) * np.sqrt(np.abs(q))


def brute_envelope(n, side, t, x, y, z, growth_L, points=40001):
    """inf/sup over q of f(q) +/- n|z - q| on a fine grid over the certified
    radius 2L(1+|y|+|z|)/(n-L), plus q = 0 where the kink sits."""
    radius = 2.0 * growth_L * (1.0 + abs(y) + abs(z)) / (n - growth_L)
    qs = np.linspace(z - radius, z + radius, points)
    qs = np.append(qs, 0.0) if abs(z) <= radius else qs
    if side == "lower":
        return float(np.min(xyz_numpy(t, x, y, qs) + n * np.abs(z - qs))), qs[1] - qs[0]
    return float(np.max(xyz_numpy(t, x, y, qs) - n * np.abs(z - qs))), qs[1] - qs[0]


def xyz_generator(seed, smoke=False):
    """f(x, y, z) Lipschitz in y and 1/2-Hoelder in z: every envelope takes
    the per-point direct search."""
    rng = np.random.default_rng([seed, 2])
    c = round(float(rng.uniform(0.15, 0.25)), 6)
    d = round(c * float(rng.uniform(0.1, 0.3)), 6)  # d < c/2: w(0) < w(T)
    f = {"body": XYZ_BODY, "lip_y": XYZ_LIP_Y, "modulus": XYZ_MODULUS}
    raw = {
        "gparams": GPARAMS,
        "problem": {"Phi": "x*x", "f": f, "lip_z_bound": 1.5},
        "problem2": {"Phi": f"x*x+{c!r}", "f": dict(f, body=f"{XYZ_BODY}+{d!r}"),
                     "lip_z_bound": 1.5},
        "grid": {"x_min": -3.0, "x_max": 3.0, "nx": 21 if smoke else 41,
                 "core_fraction": 0.5},
        "ladder": {"levels": [4.0, 8.0], "target_gap": 0.05},
    }
    probe = probe_config(rng, smoke)
    samples = np.column_stack([
        rng.uniform(0.0, T, 24), rng.uniform(-3.0, 3.0, 24),
        rng.uniform(-2.0, 2.0, 24),
        np.concatenate([rng.uniform(-0.05, 0.05, 8), rng.uniform(-3.0, 3.0, 16)]),
    ])
    ladder_check = _ladder_check()

    def ladder_and_envelope_check(lib, out_dir):
        fails = ladder_check(lib, out_dir)
        env = lib.envelope
        gen = lib.cfgs["xyz"].problem.f
        for n in raw["ladder"]["levels"]:
            for side in ("lower", "upper"):
                eg = env.EnvelopeGenerator(gen, n, side)
                if eg.mode != "direct":
                    fails.append(f"envelope n={n}: mode {eg.mode}, expected direct")
                    continue
                for t, x, y, z in samples:
                    got = eg.eval_grid(t, x, y, z)
                    want, step_b = brute_envelope(n, side, t, x, y, z, gen.growth_L)
                    radius = env.search_radius(gen.growth_L, n, y, z)
                    step = min(1e-3, radius / 1000.0)
                    tol = (env.envelope_grid_error(gen, n, step)
                           + env.envelope_grid_error(gen, n, step_b))
                    if abs(got - want) > tol:
                        fails.append(f"envelope {side} n={n} at ({t:.3g},{x:.3g},"
                                     f"{y:.3g},{z:.3g}): {got:.9g} vs brute {want:.9g}")
        return fails

    stages = [
        _cli_stage("solve_ref", "solve", "xyz", _solve_check(raw["ladder"]["target_gap"]),
                   repeat=2),
        _cli_stage("ladder_ref", "ladder", "xyz", ladder_and_envelope_check, repeat=2),
        _cli_stage("compare_ref", "compare", "xyz", _compare_check(raw, XYZ_LIP_Y)),
    ] + _probe_stages(probe, ("mc_ref", "kcheck_ref"), repeat=3)
    return Workload("xyz-generator", {"xyz": raw, "probe": probe}, _ordered(stages))


# -- worst-case-mc -----------------------------------------------------------


def worst_case_mc(seed, smoke=False):
    """Heat problem Phi = x^2 under low, high and feedback controls, and the
    feedback kcheck at x0 = 2 with Phi = x^3 (fails today: the control
    reads B_t, not X_t)."""
    rng = np.random.default_rng([seed, 3])
    raw = {
        "gparams": GPARAMS,
        "problem": {"Phi": "x*x"},
        "grid": {"x_min": -8.0, "x_max": 8.0, "nx": 201, "core_fraction": 0.5},
        "mc": {"n_paths": 1000 if smoke else 5000, "dt": 0.01 if smoke else 1e-3,
               "seed": int(rng.integers(1, 2**31)),
               "policies": ["low", "high", "feedback"]},
    }
    probe = probe_config(rng, smoke)
    stages = [
        _cli_stage("mc_ref", "upper-expectation", "heat", _mc_check(raw["mc"]["policies"])),
        _kcheck_stage(
            "kcheck_ref", "x*x*x", lambda x: x**3, 2.0, 401,
            1000 if smoke else 4000, 0.01 if smoke else 2e-3, KCHECK_FIXED_SEED,
            known_fault="simulate_paths passes B_t, not X_t, to policy.variance"),
    ] + _probe_stages(probe, ("solve_ref", "ladder_ref", "compare_ref"))
    return Workload("worst-case-mc", {"heat": raw, "probe": probe}, _ordered(stages))


WORKLOADS = {
    "sextic-ladder": sextic_ladder,
    "xyz-generator": xyz_generator,
    "worst-case-mc": worst_case_mc,
}
